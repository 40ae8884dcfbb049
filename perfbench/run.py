"""cutofflab benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload rate-sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout; the program is imported from ``src/``.  Each
workload runs in fresh single-threaded child interpreters, one at a time:
several that only start, import cutofflab and build the inputs (set-up time
is their median), then one that times passes over the inputs for about
``--seconds`` and checks every output.  With ``--trace 1`` the child spends
half the time untraced and half with the program's public entry points
wrapped, and reports per-layer metrics instead of end-to-end ones.

Times are given in reference seconds: each timed interval is scaled by a
calibration loop run next to it (see calibrate.py), so that the drift of
a shared machine's speed does not show up as a change in the program.  The
wall-clock figures are printed alongside.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are written
to ``.perfbench/trace-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rate-sweep", "ensembles", "exact-dims")
#: set-up-only interpreters per run; the measuring one makes one more sample
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150


class ChildError(RuntimeError):
    pass


def spawn(args, mode: str) -> tuple[dict, float]:
    """Run child.py once; return its result and its set-up time in
    reference seconds."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # use the bytecode cache, as an installed cutofflab would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child ran over {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return out, scale(out["ready"] - start, out["ready_cal"])


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cutofflab" / "__init__.py").is_file():
        print(f"perfbench: no cutofflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    try:
        spawn(args, "setup")  # unmeasured: leaves the bytecode cache warm
        setups = [spawn(args, "setup")[1] for _ in range(SETUP_PROBES)]
        result, setup = spawn(args, "run")
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    setup_s = statistics.median(setups)

    attempted, failed = result["attempted"], result["failed"]
    run_s, wall = result["run_s"], result["wall_s"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# times in reference seconds: wall seconds * {REFERENCE_S} / calibration seconds")
    for problem in result["problems"]:
        print(f"FAILED  {problem}")
    print(f"fail_frac     {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"setup_s       {setup_s:.4f} s   median of {len(setups)} starts, "
          f"quartiles {quartiles(setups)}")
    print(f"run_s         {run_s:.4f} s   median of {len(wall)} passes; wall median "
          f"{statistics.median(wall):.4f} s, quartiles {quartiles(wall)}; calibration "
          f"median {statistics.median(result['cal_s']):.4f} s")
    trials_per_s = result["trials"] / run_s
    print(f"trials_per_s  {trials_per_s:.2f} 1/s   {result['trials']} per pass")
    print(f"peak_rss_mb   {result['peak_rss_mb']:.2f} MB")

    if args.trace:
        metrics = result["per_layer"]
        for name, value in metrics.items():
            print(f"{name:48s} {value['value']:.6g} {value['unit']}")
        selfs = result["self_s"]
        print("self wall seconds per traced pass:")
        for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"  {name:46s} {seconds:.4f} s")
        print(f"mean traced pass {statistics.fmean(result['traced_wall_s']):.4f} s = "
              f"{sum(selfs.values()):.4f} s of self time summed over all spans, "
              f"the benchmark's own code included")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
