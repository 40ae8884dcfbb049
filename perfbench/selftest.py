"""Self-test of the benchmark's tracer and exact counters.

    python3 perfbench/selftest.py

Checks self-time arithmetic on nested synthetic spans, that a traced
rate-sweep pass makes exactly trials * (3 * sum(ns) + ns[-1]) draws, that
every counter repeats exactly between two passes, that exact-dims scores the
recorded number of sample sequences, and that uninstalling the tracer puts
every original function back.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def synthetic() -> None:
    # root [0, 100] holds a [10, 40] (which holds b [15, 25]) and c [50, 90]
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["b", 15, 25, 1, 0],
        ["c", 50, 90, 0, 0],
        ["a", 200, 230, -1, 1],
    ]
    check(self_times(spans, {0}) == {"root": 30, "a": 20, "b": 10, "c": 40},
          "self time is duration minus direct children, per pass")
    check(self_times(spans)["a"] == 50, "self time sums over passes")
    sampler = [
        [layers.SAMPLER_SPAN, 0, 10, -1, 0],
        ["partial.partial_vc_dimension", 1, 2, 0, 0],
        ["partial.partial_vc_dimension", 3, 4, 0, 0],
        ["partial.partial_vc_dimension", 5, 6, 0, 0],
        ["partial.partial_vc_dimension", 20, 30, -1, 0],
    ]
    check(layers.accept_ratio(sampler, {0}) == 1 / 3,
          "accept ratio counts only tests made by the sampler")
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer_start, outer_end), total = tracer.spans[0][1:3], self_times(tracer.spans)
    check(sum(total.values()) == outer_end - outer_start,
          "recorded self times add up to the outermost span")


def traced_passes(inputs, passes: int) -> Tracer:
    from cutofflab import core

    original = core.sample_iid
    tracer = Tracer()
    layers.install(tracer)
    try:
        for run_id in range(passes):
            tracer.run_id = run_id
            for op in inputs.ops:
                op.run()
    finally:
        tracer.uninstall()
    check(core.sample_iid is original, "uninstall restores the original functions")
    return tracer


def exact_counts() -> None:
    ns, trials = workloads.THM4_NS, workloads.THM4_TRIALS
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        tracer = traced_passes(workloads.rate_sweep(0, Path(tmp)), 2)
    first, second = tracer.counts[0], tracer.counts[1]
    draws = trials * (3 * sum(ns) + ns[-1])
    check(first["core.sample_iid.draws"] == draws,
          f"rate-sweep draws {first['core.sample_iid.draws']} == "
          f"trials * (3 * sum(ns) + ns[-1]) = {draws}")
    check(first["core.sample_iid.calls"] == trials * (3 * len(ns) + 1),
          "one sample_iid call per sample: three per median-of-three trial, one per single")
    check(first["mc.trials"] == trials * (len(ns) + 1), "mc.trials counts every trial")
    check(first == second, "every counter repeats exactly between passes")

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        tracer = traced_passes(workloads.exact_dims(0, Path(tmp)), 1)
    scored = tracer.counts[0]["mc.exact_loss_distribution.sequences"]
    check(scored == reference["sequences"],
          f"exact-dims scores {scored} sequences per pass, as recorded")


if __name__ == "__main__":
    WORKDIR.mkdir(exist_ok=True)
    synthetic()
    exact_counts()
    print("selftest ok")
