"""One benchmark process: import cutofflab, build a workload's inputs, and
(in ``run`` mode) time passes over them.

Started by run.py in a fresh interpreter.  The last line of its output is a
JSON object; ``ready`` is the CLOCK_MONOTONIC time at which the inputs were
ready and ``ready_cal`` a calibration run right after, from which run.py
computes set-up time.  Calibration runs also bracket every pass; pass times
are reported in reference seconds (see calibrate.py) and, for the record, as
wall seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from calibrate import calibrate, scale

MIN_PASSES = 3


def run_pass(inputs, reference, problems) -> tuple[int, int]:
    """Run every operation once; return (attempted, failed)."""
    failed = 0
    for op in inputs.ops:
        want = op.expected if op.expected is not None else reference.get(op.key)
        try:
            got = op.run()
        except Exception as exc:  # any raise is a failed operation, and counted
            got = f"{type(exc).__name__}: {exc}"
        if want is None or got != want:
            failed += 1
            problems.append(f"{op.key}: got {got!r}, want {want!r}")
    return len(inputs.ops), failed


class Passes:
    """Timed passes: wall seconds, and calibration runs between them."""

    def __init__(self):
        self.wall: list[float] = []
        #: cal[i] and cal[i + 1] bracket pass i
        self.cal: list[float] = []
        self.attempted = self.failed = 0

    def run(self, inputs, reference, problems, budget_s, pass_span=None):
        """Passes until ``budget_s`` is used (at least MIN_PASSES).

        ``pass_span(i)`` gives a context manager to run pass ``i`` in.
        """
        start = time.perf_counter()
        self.cal.append(calibrate())
        while len(self.wall) < MIN_PASSES or time.perf_counter() - start < budget_s:
            span = pass_span(len(self.wall)) if pass_span else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                a, f = run_pass(inputs, reference, problems)
            self.wall.append(time.perf_counter() - t0)
            self.cal.append(calibrate())
            self.attempted += a
            self.failed += f
        return self

    @property
    def scaled(self) -> list[float]:
        """Each pass scaled by the mean of the calibrations around it."""
        return [scale(w, (self.cal[i] + self.cal[i + 1]) / 2) for i, w in enumerate(self.wall)]

    @property
    def run_s(self) -> float:
        return statistics.median(self.scaled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    args = parser.parse_args(argv)
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))

    import workloads  # imports cutofflab

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench"))
    try:
        inputs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        out = {"ready": ready, "ready_cal": calibrate()}
        if args.mode == "run":
            out.update(measure(args, inputs, workdir))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, inputs, workdir) -> dict:
    # the benchmark's own modules load after set-up time is taken
    import layers
    from tracer import Tracer, self_times

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    trials = inputs.trials if inputs.trials is not None else reference["sequences"]
    problems: list[str] = []
    # warm-up pass: checked, not timed
    attempted, failed = run_pass(inputs, reference, problems)
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = Passes().run(inputs, reference, problems, budget)
    out = {
        "run_s": plain.run_s,
        "wall_s": plain.wall,
        "cal_s": plain.cal,
        "trials": trials,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed = attempted + plain.attempted, failed + plain.failed
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

        def pass_span(run_id):
            tracer.run_id = run_id
            return tracer.span(layers.PASS_SPAN)

        try:
            traced = Passes().run(inputs, reference, problems, budget, pass_span)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + traced.attempted, failed + traced.failed
        run_ids = list(range(len(traced.wall)))
        first = tracer.counts[0]
        for run_id in run_ids[1:]:
            attempted += 1
            if tracer.counts[run_id] != first:
                failed += 1
                problems.append(f"counters of traced pass {run_id} differ from pass 0")
        if inputs.trials is None:
            attempted += 1
            scored = first["mc.exact_loss_distribution.sequences"]
            if scored != trials:
                failed += 1
                problems.append(f"{scored} sequences scored per pass, reference says {trials}")
        metrics = layers.per_layer(tracer, run_ids, scale(1.0, statistics.median(traced.cal)))
        metrics["trace.run_s"] = {"value": traced.run_s, "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": traced.run_s / plain.run_s - 1.0, "unit": "frac"
        }
        out["per_layer"] = metrics
        out["self_s"] = {name: ns / 1e9 / len(run_ids)
                         for name, ns in self_times(tracer.spans, run_ids).items()}
        out["traced_wall_s"] = traced.wall
        tracer.write(workdir.parent / f"trace-{args.workload}-seed{args.seed}.csv")
    out.update(attempted=attempted, failed=failed, problems=problems[:20])
    return out


if __name__ == "__main__":
    sys.exit(main())
