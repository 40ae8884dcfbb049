"""Command-line front end.

Subcommands: dims, oig, disambiguate, estimate, reproduce.  Exit codes are
stable API: 0 pass, 1 experiment fail, 2 parse error, 3 budget refusal,
4 precondition violation.  CUTOFFLAB_BUDGET overrides the enumeration
ceiling.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import random
import sys
from functools import cache, partial as bind

from . import adversaries, core, dims, experiments, learners, mc, serialize
from . import partial as partial_concepts
from .errors import BudgetExceededError, NotRealizableError, ParseError, PreconditionError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4


def _parse_points(spec: str) -> tuple[core.Point, ...]:
    """Point list: "1..8" or "1,2,5" for nat points, "4/1,4/2" for
    block/index pairs.  A descending range is refused, and a range is
    refused before it is built when it would take the list past
    enumeration_budget()."""
    points = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if "/" in chunk:
                k, x = chunk.split("/")
                points.append(core.Point.pair(int(k), int(x)))
            elif ".." in chunk:
                lo, hi = (int(v) for v in chunk.split(".."))
                if hi < lo:
                    raise ParseError(f"descending range {chunk!r} in {spec!r}")
                core._budgeted(f"point list with range {chunk!r}", len(points) + hi - lo + 1)
                points.extend(core.Point.nat(i) for i in range(lo, hi + 1))
            else:
                points.append(core.Point.nat(int(chunk)))
        except ValueError as exc:
            raise ParseError(f"bad point {chunk!r} in {spec!r}") from exc
    if not points:
        raise ParseError(f"no points in {spec!r}")
    return tuple(points)


def _parse_ints(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in spec.split(","))
    except ValueError as exc:
        raise ParseError(f"bad integer list {spec!r}") from exc


def _open_out(path, **kwargs):
    """An output file opened for writing; an unwritable path is a parse error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _write_csv(rows, fh):
    writer = csv.DictWriter(fh, experiments.CSV_HEADER)
    writer.writeheader()
    writer.writerows(rows)


def _emit_report(report, args) -> int:
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True, default=str))
    else:
        print(f"# {report.tag}  seed={report.seed}  wall_clock={report.wall_clock_s}s")
        for name, ok, detail in report.verdicts:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_dims(args) -> int:
    cls = serialize.class_from_json(serialize.load_json(args.class_file))
    gamma = serialize.rational_from_str(args.gamma)
    pool = _parse_points(args.pool) if args.pool else cls.default_pool()
    if not pool:
        # a finite class pools only its table members' points
        raise PreconditionError("the class has no default pool points; give --pool")
    dimension = dims.gamma_graph_dimension(cls, pool, gamma, args.cap_d)
    cert = dims.find_shattered_set(cls, pool, gamma, dimension) if dimension else None
    out = {
        "graph_dim": dimension,
        "certificate": None
        if cert is None
        else {
            "points": [serialize.point_to_json(p) for p in cert.points],
            "witness": serialize.hypothesis_to_json(cert.witness),
            "patterns": len(cert.pattern_witnesses),
        },
    }
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"graph_dim: {dimension}")
        if cert is not None:
            points = ",".join(str(p) for p in cert.points)
            print(f"certificate: {len(cert.pattern_witnesses)} patterns on [{points}]")
    return EXIT_PASS


def cmd_oig(args) -> int:
    if args.subgraphs < 0:
        raise ParseError(f"--subgraphs must be at least 0, got {args.subgraphs}")
    cls = serialize.class_from_json(serialize.load_json(args.class_file))
    gamma = serialize.rational_from_str(args.gamma)
    points = _parse_points(args.points)
    graph = dims.build_oig(cls, points)
    # each sampled subgraph is built and oriented over at most every vertex and point
    core._budgeted("subgraph sweep", args.subgraphs * len(graph.vertices) * len(points))
    orientation = dims.orient_smallest_value(graph)
    greedy = dims.max_gamma_outdegree(graph, orientation, gamma)
    out = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "smallest_value_outdegree": greedy,
    }
    if args.exhaustive:
        _, best = dims.exhaustive_orientation_min(graph, gamma)
        out["min_outdegree"] = best
    if args.subgraphs:
        rng = random.Random(core.stream_seed(args.seed, 0))
        worst = 0
        # a graph without vertices has no nonempty subgraph to sample
        for _ in range(args.subgraphs if graph.vertices else 0):
            size = rng.randrange(1, len(graph.vertices) + 1)
            kept = rng.sample(list(graph.vertices), size)
            sub = dims.induced_subgraph(graph, kept)
            worst = max(
                worst,
                dims.max_gamma_outdegree(sub, dims.orient_smallest_value(sub), gamma),
            )
        out["subgraph_max_outdegree"] = worst
    print(json.dumps(out, indent=2, sort_keys=True) if args.json else
          "\n".join(f"{k}: {v}" for k, v in out.items()))
    return EXIT_PASS


def cmd_disambiguate(args) -> int:
    cls = partial_concepts.read_rows(serialize.read_text(args.infile))
    total = partial_concepts.disambiguate(cls)
    d = partial_concepts.partial_vc_dimension(cls)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(partial_concepts.write_rows(total))
    ok = partial_concepts.within_disambiguation_bound(total.size(), d, cls.domain_size)
    if d >= 1:
        bound_txt = f"{partial_concepts.ln_disambiguation_bound(d, cls.domain_size):.4f}"
    else:
        bound_txt = "size=1 (VC 0)"
    print(
        f"|H|: {cls.size()}  |H~|: {total.size()}  d: {d}  n: {cls.domain_size}  "
        f"bound: {bound_txt}  pass: {ok}"
    )
    return EXIT_PASS if ok else EXIT_FAIL


#: estimate learner config names, mapped to the learners classes they build
_RULES = {"median": learners.Median, "mean": learners.Mean}
_PARTITIONS = {
    "disjoint": learners.DisjointBlocks,
    "windows": learners.OverlappingWindows,
    "bootstrap": learners.Bootstrap,
}


def _rule_from_config(spec):
    if isinstance(spec, dict) and "order" in spec:
        return learners.OrderStatistic(serialize.coerce(0, spec["order"], "order"))
    if isinstance(spec, str) and spec in _RULES:
        return _RULES[spec]()
    raise ParseError(f"unknown rule {spec!r}")


def _partition_from_config(spec):
    """A partitioner whose fields are read, by name, from the config object."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _PARTITIONS:
        raise ParseError(f"unknown partition {spec!r}")
    values = {}
    for field in dataclasses.fields(_PARTITIONS[kind]):
        if field.name in spec:
            values[field.name] = serialize.coerce(0, spec[field.name], field.name)
        elif field.default is dataclasses.MISSING:
            raise ParseError(f"{kind} partition needs {field.name!r}")
    return _PARTITIONS[kind](**values)


def _learner_from_config(config, cls):
    if not isinstance(config, dict):
        raise ParseError(f"learner config must be an object, got {config!r}")
    interp = bind(learners.generic_interpolator, cls)
    kind = config.get("learner")
    if kind == "median3":
        return learners.MedianOfThree(interp)
    if kind == "single":
        return learners.SingleInterpolator(interp)
    if kind == "proper_erm":
        return learners.ProperERM(cls)
    if kind == "agg":
        parts = {}
        if "rule" in config:
            parts["rule"] = _rule_from_config(config["rule"])
        if "partition" in config:
            parts["partitioner"] = _partition_from_config(config["partition"])
        return learners.InterpolatorAggregation(interp, **parts)
    raise ParseError(f"unknown learner config {config!r}")


def _is_member(cls, h) -> bool:
    """Whether `h` is a member of `cls`: listed by a finite class, or, in a
    Cantor-type class, the member that carries its unique value."""
    if isinstance(cls, core.FiniteClass):
        return h in cls.hypotheses
    value = getattr(h, "value", None)
    return value is not None and cls._from_value(value) == h


def cmd_estimate(args) -> int:
    config = serialize.load_json(args.config)
    if not isinstance(config, dict):
        raise ParseError("estimate config must be an object")
    try:
        cls = serialize.class_from_json(config["class"])
        dist = serialize.distribution_from_json(config["distribution"])
        gamma = serialize.rational_from_str(config["gamma"])
        n = serialize.coerce(0, config["n"], "n")
        learner_config = config["learner_config"]
    except KeyError as exc:
        raise ParseError(f"estimate config missing key: {exc}") from exc
    trials = args.trials
    if trials is None:  # an explicit --trials wins over the file's
        trials = serialize.coerce(0, config.get("trials", 1000), "trials")
    learner = _learner_from_config(learner_config, cls)
    gamma = core.read_gamma(gamma)
    # every learner fits realizable samples only: a support no class member
    # realizes, or a given witness that contradicts it or is no member, is
    # refused here, before the first trial
    support = tuple(ex for ex, mass in zip(dist.atoms, dist.masses) if mass)
    realizer = cls.first_consistent(support)
    if realizer is None:
        raise NotRealizableError("no class member realizes the distribution's support")
    if dist.witness is not None:
        if not core._consistent(dist.witness, support):
            raise NotRealizableError("the distribution's witness contradicts its support")
        if not _is_member(cls, dist.witness):
            raise NotRealizableError("the distribution's witness is no member of the class")
    instance = adversaries.HardInstance(
        theorem="estimate",
        cls=cls,
        distribution=dist,
        witness=dist.witness if dist.witness is not None else realizer,
        gamma=gamma,
    )
    est = mc.mc_expected_loss(learner, instance, n, trials, args.seed)
    out = {
        "mean": est.mean,
        "stderr": est.stderr,
        "ci_lo": est.ci_lo,
        "ci_hi": est.ci_hi,
        "trials": est.trials,
        "seed": args.seed,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_PASS


#: reproduce options that set the runner parameter of the same name
_REPRODUCE_FLAGS = ("gamma", "epsilon", "d", "universe", "trials")
#: the sample-size parameters --n may set; a runner takes at most one
_SAMPLE_SIZES = ("ns", "n", "n_prime")


def cmd_reproduce(args) -> int:
    if args.replay:
        given = [args.tag] if args.tag else []
        given += [f"--{key}" for key in (*_REPRODUCE_FLAGS, "n", "seed")
                  if getattr(args, key) is not None]
        if given:
            raise ParseError(
                f"--replay reads the tag, seed and config from its file; drop {', '.join(given)}"
            )
        echoed = serialize.load_json(args.replay)
        try:
            tag = echoed["tag"]
            seed = serialize.coerce(0, echoed["seed"], "seed")
            config = echoed.get("config", {})
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad report file: {exc}") from exc
        if not isinstance(tag, str) or tag not in experiments.RUNNERS:
            raise ParseError(f"unknown tag {tag!r}; choose from {', '.join(experiments.TAGS)}")
        if not isinstance(config, dict):
            raise ParseError("report config must be an object")
        params = inspect.signature(experiments.RUNNERS[tag]).parameters
        # derived keys such as thm4's slope are echoed but not replayed
        raw = {key: config[key] for key in params if key != "seed" and key in config}
    else:
        tag, seed = args.tag, 0 if args.seed is None else args.seed
        params = inspect.signature(experiments.RUNNERS[tag]).parameters
        raw = {key: getattr(args, key) for key in _REPRODUCE_FLAGS if getattr(args, key) is not None}
        if args.n is not None:
            key = next((k for k in _SAMPLE_SIZES if k in params), "n")
            sizes = list(_parse_ints(args.n))
            scalar = key in params and not isinstance(params[key].default, tuple)
            raw[key] = sizes[0] if scalar and len(sizes) == 1 else sizes
        unused = sorted(set(raw) - set(params))
        if unused:
            raise ParseError(f"{tag} takes no --{', --'.join(unused)}")
    overrides = {
        key: serialize.coerce(params[key].default, value, key) for key, value in raw.items()
    }
    # an unwritable --out is refused before the check runs, not after
    with _open_out(args.out, newline="") if args.out else contextlib.nullcontext() as fh:
        report = experiments.reproduce(tag, seed=seed, **overrides)
        if fh is not None:
            _write_csv(report.rows, fh)
    return _emit_report(report, args)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cutofflab",
        description="Aggregation-vs-interpolation checks under the cutoff loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="graph dimension report for a class file")
    p_dims.add_argument("class_file")
    p_dims.add_argument("--gamma", required=True)
    p_dims.add_argument("--pool", default=None, help='points, e.g. "1..8" or "4/1,4/2"')
    p_dims.add_argument("--cap-d", type=int, default=dims.DEFAULT_POINT_CAP)
    p_dims.add_argument("--json", action="store_true")
    p_dims.set_defaults(fn=cmd_dims)

    p_oig = sub.add_parser("oig", help="one-inclusion graph orientation evidence")
    p_oig.add_argument("class_file")
    p_oig.add_argument("--gamma", required=True)
    p_oig.add_argument("--points", required=True)
    p_oig.add_argument("--exhaustive", action="store_true")
    p_oig.add_argument(
        "--subgraphs", type=int, default=0, help="also test N random induced subgraphs"
    )
    p_oig.add_argument("--seed", type=int, default=0)
    p_oig.add_argument("--json", action="store_true")
    p_oig.set_defaults(fn=cmd_oig)

    p_dis = sub.add_parser("disambiguate", help="greedy disambiguation of a row file")
    p_dis.add_argument("infile")
    p_dis.add_argument("--out", default=None)
    p_dis.set_defaults(fn=cmd_disambiguate)

    p_est = sub.add_parser("estimate", help="Monte Carlo loss estimate from a config file")
    p_est.add_argument("config")
    p_est.add_argument("--trials", type=int, help="default: the config's trials, else 1000")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.set_defaults(fn=cmd_estimate)

    p_rep = sub.add_parser("reproduce", help="run one tagged quantitative check")
    p_rep.add_argument("tag", nargs="?", choices=experiments.TAGS)
    p_rep.add_argument("--gamma")
    p_rep.add_argument("--epsilon")
    p_rep.add_argument("--d", type=int)
    p_rep.add_argument(
        "--universe", type=int, help="universe size; 0 = derive from the construction"
    )
    p_rep.add_argument(
        "--n",
        help="sample size: ns for thm4 (comma separated), n for lemma-interp, "
        "n_prime for thm3; other tags take none",
    )
    p_rep.add_argument("--trials", type=int)
    p_rep.add_argument("--seed", type=int, help="default: 0")
    p_rep.add_argument("--out", help="write result rows as CSV")
    p_rep.add_argument("--json", action="store_true")
    p_rep.add_argument(
        "--replay", help="re-run a report's tag, seed and config echo; takes only --json and --out"
    )
    p_rep.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and not args.tag and not args.replay:
        parser.error("reproduce needs a tag or --replay")
    try:
        # up to Python 3.12, argparse reads "--opt=--" as an empty list, not "--"
        listed = [key for key, value in vars(args).items() if isinstance(value, list)]
        if listed:
            raise ParseError(f"--{listed[0].replace('_', '-')} takes one value, got '--'")
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
