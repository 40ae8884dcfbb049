"""Write reference.json: the digest of every output checked against a
reference, for each of the workloads' seed slots, and the number of sample
sequences exact-dims scores per pass.

The references are the program's own outputs at the commit they are recorded
on; every later speed-up must reproduce them bit for bit.  Re-record only
when the benchmark's inputs change:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    reference = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for name, setup in workloads.WORKLOADS.items():
            for slot in range(workloads.SLOTS):
                for op in setup(slot, Path(tmp)).ops:
                    if op.expected is None and op.key not in reference:
                        reference[op.key] = op.run()
            print(f"{name}: recorded", file=sys.stderr)
        tracer = Tracer()
        layers.install(tracer)
        try:
            for op in workloads.exact_dims(0, Path(tmp)).ops:
                op.run()
        finally:
            tracer.uninstall()
    reference["sequences"] = tracer.counts[0]["mc.exact_loss_distribution.sequences"]
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
