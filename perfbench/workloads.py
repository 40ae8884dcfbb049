"""The three benchmark workloads: their inputs, their operations and the
check on each operation's output.

A workload's ``setup(seed, workdir)`` turns the benchmark seed into the
inputs the program sees (command lines and files written under ``workdir``)
and returns the operations of one pass.  An operation returns a string: a
digest of its output, compared with the digest recorded in
``reference.json``, or ``"ok"`` / a problem description for outputs that are
checked against values known in advance (graph dimension = d, out-degree at
most 1, completions that agree with every concept).

The ``reproduce`` seeds come from ``seed % SLOTS``, so every seed maps to one
of ``SLOTS`` recorded references; the seed itself still drives every input
that is checked without a reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial as bind
from pathlib import Path
from typing import Callable, Optional

from cutofflab import adversaries, cli, core, dims, learners, mc, serialize

SLOTS = 64
HALF = Fraction(1, 2)
OK = "ok"

#: rate-sweep: thm4 on the acceptance grid with the trial count cut down.
THM4_NS = (32, 64, 128, 256, 512, 1024)
THM4_TRIALS = 30
#: ensembles: trials per tag, chosen so each tag takes about a third of a pass.
ENSEMBLE_TRIALS = {"thm2": 4000, "thm3": 600, "thm5": 450}
#: exact-dims: thm1's smaller epsilon (n = 8, 2^8 sequences per oracle call),
#: sized with the other oracle instances to about a fifth of the pass.
THM1_EPSILON = "1/128"
#: Cantor classes (d, universe) given to the dims and oig commands; (3, 8)
#: would triple the pass for one more class of the same kind.
DIMS_CLASSES = ((2, 5), (2, 6), (3, 7))
OIG_POINTS = 5
SWEEP_SIZES = (3, 4, 5)
SWEEP_REPEATS = 8
ROW_FILES = 4


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], str]
    #: value the output must equal; None means the digest in reference.json
    expected: Optional[str] = None


@dataclass(frozen=True)
class Inputs:
    ops: tuple[Op, ...]
    #: Monte Carlo trials in one pass; None where the pass scores sample
    #: sequences by exact enumeration instead, whose number per pass is
    #: fixed by the inputs and recorded in reference.json as "sequences"
    trials: Optional[int]


def program_seed(workload: str, seed: int) -> int:
    slot = seed % SLOTS
    return int.from_bytes(hashlib.sha256(f"{workload}/{slot}".encode()).digest()[:4], "big")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_cli(argv, codes=(0,)) -> tuple[int, str]:
    """cutofflab's own entry point, in-process, with its output captured.

    An exit code outside ``codes`` raises.  ``cli.main`` is looked up at call
    time so the traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    if code not in codes:
        raise RuntimeError(f"cutofflab {' '.join(argv)} exited {code}: {err.getvalue()[-300:]}")
    return code, out.getvalue()


def reproduce_digest(argv) -> str:
    """Exit code plus a digest of the report's rows and verdicts.

    Exit 1 means a verdict failed.  At the cut-down trial counts a statistical
    verdict can fail for some seeds (thm4's median_below_single needs a few
    hundred trials to hold for every seed), so the code is compared with the
    recorded one like the rest of the output.  Timing keys are left out.
    """
    code, text = run_cli(argv, codes=(0, 1))
    report = json.loads(text)
    return f"exit {code} " + digest({"rows": report["rows"], "verdicts": report["verdicts"]})


# ---------------------------------------------------------------------------
# rate-sweep
# ---------------------------------------------------------------------------


def rate_sweep(seed: int, workdir: Path) -> Inputs:
    argv = [
        "reproduce", "thm4", "--d", "4", "--universe", "12",
        "--n", ",".join(map(str, THM4_NS)), "--trials", str(THM4_TRIALS),
        "--seed", str(program_seed("rate-sweep", seed)), "--json",
    ]
    op = Op(f"thm4/{seed % SLOTS}", bind(reproduce_digest, argv))
    # six median-of-three points plus the single interpolator at ns[-1]
    return Inputs((op,), THM4_TRIALS * (len(THM4_NS) + 1))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def ensembles(seed: int, workdir: Path) -> Inputs:
    ops = []
    for tag, trials in ENSEMBLE_TRIALS.items():
        argv = ["reproduce", tag, "--trials", str(trials),
                "--seed", str(program_seed(f"ensembles/{tag}", seed)), "--json"]
        if tag == "thm3":
            argv[2:2] = ["--universe", "784"]
        ops.append(Op(f"{tag}/{seed % SLOTS}", bind(reproduce_digest, argv)))
    return Inputs(tuple(ops), sum(ENSEMBLE_TRIALS.values()))


# ---------------------------------------------------------------------------
# exact-dims
# ---------------------------------------------------------------------------


def _check_dims(argv, d: int) -> str:
    _, text = run_cli(argv)
    out = json.loads(text)
    if out["graph_dim"] != d or out["certificate"]["patterns"] != 2**d:
        return f"graph_dim {out['graph_dim']}, {out['certificate']['patterns']} patterns; want {d}"
    return OK


def _check_oig(argv, vertices: int, points: int) -> str:
    """On a Cantor class every member restricts to its own vertex once more
    than d points are taken, and no two vertices share an edge."""
    _, text = run_cli(argv)
    out = json.loads(text)
    greedy, best = out["smallest_value_outdegree"], out["min_outdegree"]
    if (out["vertices"], out["edges"]) != (vertices, vertices * points):
        return f"{out['vertices']} vertices, {out['edges']} edges; want {vertices}, {vertices * points}"
    if greedy > 1 or best > greedy or out["subgraph_max_outdegree"] > 1:
        return f"out-degrees {out}"
    return OK


def _check_orientation(cls, points) -> str:
    graph = dims.build_oig(cls, points)
    degree = dims.max_gamma_outdegree(graph, dims.orient_smallest_value(graph), HALF)
    return OK if degree <= 1 else f"out-degree {degree} on {points}"


def _oracle_loss(learner, instance, n) -> str:
    return str(mc.exact_expected_loss(learner, instance, n))


def _brute_vc(rows) -> int:
    """Partial VC dimension by trying every subset and pattern."""
    width = len(rows[0])
    best = 0
    for size in range(1, width + 1):
        found = False
        for subset in itertools.combinations(range(width), size):
            seen = {tuple(r[i] for i in subset) for r in rows if all(r[i] != "*" for i in subset)}
            if len(seen) == 2**size:
                found = True
                break
        if not found:
            break
        best = size
    return best


def _check_disambiguate(path: Path, rows, d: int) -> str:
    out_path = path.with_suffix(".out")
    _, text = run_cli(["disambiguate", str(path), "--out", str(out_path)])
    completed = out_path.read_text().split()
    problems = []
    if f"d: {d} " not in text or "pass: True" not in text:
        problems.append(f"report {text.strip()!r}, want d={d} and pass")
    if len(completed) > len(set(rows)):
        problems.append(f"{len(completed)} completions for {len(set(rows))} concepts")
    for row in rows:
        if not any(all(a in ("*", b) for a, b in zip(row, bar)) for bar in completed):
            problems.append(f"no completion agrees with {row}")
    return "; ".join(problems) or OK


def _oracle_instances():
    """Exactly enumerable instances after acceptance criterion 9."""
    nat = core.Point.nat
    cls6 = core.CantorClass(HALF, 2, 6)
    w6 = cls6.hypothesis({5, 6})
    dist6 = core.FiniteDistribution.from_triples([(nat(5), 0, Fraction(3, 4)), (nat(6), 0, Fraction(1, 4))], w6)
    inst6 = adversaries.HardInstance("cantor6", cls6, dist6, w6, HALF, None, 2, 6, None)
    generic6 = bind(learners.generic_interpolator, cls6)
    split = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 2, 4)
    w_split = split.hypothesis(4, {4})
    dist_split = core.FiniteDistribution.from_triples(
        [(core.Point.pair(4, i), 0, Fraction(1, 3)) for i in (1, 2, 3)], w_split
    )
    inst_split = adversaries.HardInstance("split4", split, dist_split, w_split, HALF, None, 2, 4, None)
    return (
        ("median3", learners.MedianOfThree(generic6), inst6, 3),
        ("mean2", learners.InterpolatorAggregation(generic6, learners.DisjointBlocks(2), learners.Mean()), inst6, 8),
        ("bootstrap", learners.InterpolatorAggregation(
            generic6, learners.Bootstrap(3, 2, seed=17), learners.OrderStatistic(1)), inst6, 8),
        ("proper_erm", learners.ProperERM(split, HALF), inst_split, 5),
    )


def exact_dims(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    ops = [
        Op("thm1", bind(reproduce_digest, ["reproduce", "thm1", "--epsilon", THM1_EPSILON, "--json"])),
    ]
    ops += [
        Op(f"oracle/{name}", bind(_oracle_loss, learner, instance, n))
        for name, learner, instance, n in _oracle_instances()
    ]
    for d, universe in DIMS_CLASSES:
        path = workdir / f"cantor_{d}_{universe}.json"
        serialize.dump_json(serialize.class_to_json(core.CantorClass(HALF, d, universe)), path)
        argv = ["dims", str(path), "--gamma", "1/2", "--cap-d", str(d + 1), "--json"]
        ops.append(Op(f"dims/{d}_{universe}", bind(_check_dims, argv, d), OK))
    for d, universe in DIMS_CLASSES[1:]:
        points = sorted(rng.sample(range(1, universe + 1), OIG_POINTS))
        argv = ["oig", str(workdir / f"cantor_{d}_{universe}.json"), "--gamma", "1/2",
                "--points", ",".join(map(str, points)), "--exhaustive",
                "--subgraphs", "20", "--seed", str(seed), "--json"]
        ops.append(Op(f"oig/{d}_{universe}",
                      bind(_check_oig, argv, math.comb(universe, d), OIG_POINTS), OK))
    # the five class families of acceptance criterion 8
    families = [core.CantorClass(HALF, d, u) for d, u in ((2, 5), (2, 6), (3, 8))] + [
        core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9),
        core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 3, 6),
    ]
    for cls in families:
        pool = list(cls.default_pool())
        for size in SWEEP_SIZES:
            for _ in range(SWEEP_REPEATS):
                points = tuple(rng.sample(pool, size))
                ops.append(Op("orientation", bind(_check_orientation, cls, points), OK))
    ops.append(Op(f"lemma-disamb/{seed % SLOTS}", bind(reproduce_digest, [
        "reproduce", "lemma-disamb", "--seed", str(program_seed("exact-dims", seed)), "--json"])))
    for idx in range(ROW_FILES):
        rows = ["".join(rng.choice("01**") for _ in range(8)) for _ in range(12)]
        path = workdir / f"partial_{idx}.rows"
        path.write_text("\n".join(rows) + "\n")
        ops.append(Op("disambiguate", bind(_check_disambiguate, path, rows, _brute_vc(rows)), OK))
    return Inputs(tuple(ops), None)


WORKLOADS = {"rate-sweep": rate_sweep, "ensembles": ensembles, "exact-dims": exact_dims}
