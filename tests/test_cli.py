"""CLI subcommands, exit codes, CSV schema, report replay."""

import contextlib
import csv
import functools
import hashlib
import inspect
import io
import itertools
import json
import signal
import time
from fractions import Fraction as F
from functools import partial as bind

import pytest
from hypothesis import given, settings, strategies as st

from cutofflab import adversaries, cli, core, experiments, learners, mc, serialize

import helpers


@pytest.fixture
def cantor_file(tmp_path):
    path = tmp_path / "cantor.json"
    serialize.dump_json(serialize.class_to_json(core.CantorClass(F(1, 2), 2, 5)), path)
    return str(path)


class TestDims:
    def test_cantor_report(self, cantor_file, capsys):
        assert cli.main(["dims", cantor_file, "--gamma", "1/2"]) == 0
        assert "graph_dim: 2" in capsys.readouterr().out

    def test_singleton_class(self, tmp_path, capsys):
        h = helpers.table_hypothesis({core.Point.nat(1): F(0)})
        path = tmp_path / "single.json"
        serialize.dump_json(
            serialize.class_to_json(core.FiniteClass((h,))), path
        )
        assert cli.main(["dims", str(path), "--gamma", "1/2", "--pool", "1..2"]) == 0
        assert "graph_dim: 0" in capsys.readouterr().out

    def test_finite_class_without_pool_uses_its_table_points(self, tmp_path, capsys):
        # the tables give three of the four patterns on {1, 2} around the
        # all-zero witness; the Cantor member, 3/4 off {3}, gives the fourth
        nat = core.Point.nat
        cls = core.FiniteClass((
            core.CantorHypothesis(frozenset({3}), F(3, 4)),
            helpers.table_hypothesis({nat(1): F(0), nat(2): F(0)}),
            helpers.table_hypothesis({nat(1): F(1), nat(2): F(0)}),
            helpers.table_hypothesis({nat(1): F(0), nat(2): F(1)}),
        ))
        path = tmp_path / "finite.json"
        serialize.dump_json(serialize.class_to_json(cls), path)
        assert cli.main(["dims", str(path), "--gamma", "1/2"]) == 0
        assert capsys.readouterr().out == (
            "graph_dim: 2\ncertificate: 4 patterns on [Nat(1),Nat(2)]\n"
        )

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["dims", str(path), "--gamma", "1/2"]) == 2

    def test_bad_rational_exits_2(self, cantor_file):
        assert cli.main(["dims", cantor_file, "--gamma", "half"]) == 2

    def test_budget_exceeded_exits_3(self, cantor_file):
        assert (
            cli.main(["dims", cantor_file, "--gamma", "1/2", "--cap-d", "1"]) == 3
        )

    def test_json_keys(self, cantor_file, capsys):
        assert cli.main(["dims", cantor_file, "--gamma", "1/2", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"graph_dim", "certificate"}

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_exits_4(self, cantor_file, cap, capsys):
        # the class has dimension 2: a cap below 1 must not report 0
        assert cli.main(["dims", cantor_file, "--gamma", "1/2", "--cap-d", cap]) == 4
        assert "graph_dim" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["dims", "--gamma", "1/2"], ["oig", "--gamma", "1/2", "--points", "1,2,3"]],
    ids=["dims", "oig"],
)
def test_enumeration_budget_env_exits_3(cantor_file, monkeypatch, argv):
    # CUTOFFLAB_BUDGET is the one setting of the enumeration ceiling; the
    # Cantor (2, 5) class has 10 members
    monkeypatch.setenv("CUTOFFLAB_BUDGET", "5")
    assert cli.main([argv[0], cantor_file, *argv[1:]]) == 3


@pytest.mark.parametrize("gamma", ["-1/2", "0", "1", "2"])
@pytest.mark.parametrize(
    "argv", [["dims"], ["oig", "--points", "1,2,3"]], ids=["dims", "oig"]
)
def test_gamma_outside_unit_interval_exits_4(cantor_file, argv, gamma, capsys):
    assert cli.main([argv[0], cantor_file, f"--gamma={gamma}", *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma must lie in (0, 1)" in captured.err


class TestOig:
    def test_orientation_evidence(self, cantor_file, capsys):
        rc = cli.main(
            ["oig", cantor_file, "--gamma", "1/2", "--points", "1,2,3", "--exhaustive"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "smallest_value_outdegree: 1" in out or "smallest_value_outdegree: 0" in out
        assert "min_outdegree" in out

    def test_exhaustive_past_the_orientation_budget_exits_3(self, tmp_path, capsys):
        # all 32 0/1 vectors on 5 points: 80 two-member edges, 2**80 orientations
        points = [core.Point.nat(i) for i in range(1, 6)]
        cls = core.FiniteClass(tuple(
            helpers.table_hypothesis(dict(zip(points, bits)))
            for bits in itertools.product((0, 1), repeat=5)
        ))
        path = tmp_path / "cube.json"
        serialize.dump_json(serialize.class_to_json(cls), path)
        argv = ["oig", str(path), "--gamma", "1/2", "--points", "1..5", "--exhaustive"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)

    def test_subgraphs_of_a_graph_without_vertices(self, cantor_file, capsys):
        # no Cantor member is defined on a pair point
        argv = ["oig", cantor_file, "--gamma", "1/2", "--points", "4/1", "--subgraphs", "2",
                "--json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "vertices": 0, "edges": 0, "smallest_value_outdegree": 0, "subgraph_max_outdegree": 0
        }

    def test_negative_subgraphs_exits_2(self, cantor_file, capsys):
        argv = ["oig", cantor_file, "--gamma", "1/2", "--points", "1,2,3", "--subgraphs", "-3"]
        assert cli.main(argv) == 2
        assert "subgraph_max_outdegree" not in capsys.readouterr().out


def _oig_out(vertices, edges, greedy, subgraphs, best=None):
    out = {"vertices": vertices, "edges": edges, "smallest_value_outdegree": greedy,
           "subgraph_max_outdegree": subgraphs}
    if best is not None:
        out["min_outdegree"] = best
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


_CUBE = core.FiniteClass(tuple(
    helpers.table_hypothesis(dict(zip((core.Point.nat(i) for i in range(1, 6)), bits)))
    for bits in itertools.product((0, 1), repeat=5)
))


class TestOigPinned:
    """`oig --json` as recorded before the graph was integer-coded.  The
    subgraph samples draw from the vertex order, and on the 0/1 cube one
    subgraph's out-degree moves with the sample."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "cls,argv,expected",
        [
            (core.CantorClass(F(1, 2), 2, 6), ["--gamma", "1/2", "--points", "1,2,4,5,6"],
             _oig_out(15, 75, 0, 0, best=0)),
            (core.CantorClass(F(1, 2), 3, 7), ["--gamma", "1/2", "--points", "1,2,4,5,6"],
             _oig_out(35, 175, 0, 0, best=0)),
            (core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 9),
             ["--gamma", "1/3", "--points", "4/1,4/2,4/3,9/1"], _oig_out(91, 364, 0, 0, best=0)),
        ],
        ids=["cantor26", "cantor37", "split_sqrt9"],
    )
    def test_exhaustive_with_subgraphs(self, tmp_path, capsys, cls, argv, expected, seed):
        path = tmp_path / "class.json"
        serialize.dump_json(serialize.class_to_json(cls), path)
        extra = ["--exhaustive", "--subgraphs", "20", "--seed", str(seed), "--json"]
        assert cli.main(["oig", str(path), *argv, *extra]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "seed,worst", [(1, 4), (2, 0), (3, 4), (4, 3), (5, 4), (6, 0), (7, 3), (8, 4)]
    )
    def test_cube_subgraph_follows_the_vertex_order(self, tmp_path, capsys, seed, worst):
        path = tmp_path / "cube.json"
        serialize.dump_json(serialize.class_to_json(_CUBE), path)
        argv = ["oig", str(path), "--gamma", "1/2", "--points", "1..5", "--subgraphs", "1",
                "--seed", str(seed), "--json"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == _oig_out(32, 80, 5, worst)


class TestPointBudgets:
    @pytest.fixture
    def cantor15_file(self, tmp_path):
        path = tmp_path / "cantor15.json"
        serialize.dump_json(serialize.class_to_json(core.CantorClass(F(1, 2), 1, 5)), path)
        return str(path)

    def test_oig_past_the_graph_budget_exits_3_at_once(self, cantor15_file, capsys):
        # 5 members on 1000 points: 5 * 1000**2 past the budget of 200,000
        start = time.monotonic()
        assert cli.main(["oig", cantor15_file, "--gamma", "1/2", "--points", "1..1000"]) == 3
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)

    def test_dims_past_the_class_by_pool_budget_exits_3_at_once(self, cantor15_file, capsys):
        # 200,000 points pass the range and 1-point candidate budgets; 5 members
        # times 200,000 points are refused before the class is restricted
        start = time.monotonic()
        assert cli.main(["dims", cantor15_file, "--gamma", "1/2", "--pool", "1..200000"]) == 3
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert "class restricted to the pool" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["dims", "--gamma", "1/2", "--pool", "1..100000000"],
         ["oig", "--gamma", "1/2", "--points", "1..100000000"]],
        ids=["dims", "oig"],
    )
    def test_range_past_the_budget_is_refused_unbuilt(self, cantor15_file, capsys, argv):
        assert _within(10, cli.main, [argv[0], cantor15_file, *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert "point list" in captured.err


class TestDisambiguate:
    def test_total_input_roundtrip(self, tmp_path, capsys):
        infile = tmp_path / "rows.txt"
        outfile = tmp_path / "total.txt"
        infile.write_text("010\n101\n")
        rc = cli.main(["disambiguate", str(infile), "--out", str(outfile)])
        assert rc == 0
        assert "pass: True" in capsys.readouterr().out
        assert set(outfile.read_text().splitlines()) == {"010", "101"}

    def test_random_input_bound(self, tmp_path, capsys):
        import random

        rng = random.Random(4)
        rows = "\n".join(
            "".join(rng.choice("01*") for _ in range(10)) for _ in range(25)
        )
        infile = tmp_path / "rows.txt"
        infile.write_text(rows + "\n")
        assert cli.main(["disambiguate", str(infile)]) == 0
        assert "pass: True" in capsys.readouterr().out

    def test_empty_file_exits_2(self, tmp_path):
        infile = tmp_path / "rows.txt"
        infile.write_text("\n")
        assert cli.main(["disambiguate", str(infile)]) == 2

    def test_vc_zero_input_is_its_own_disambiguation(self, tmp_path, capsys):
        infile = tmp_path / "rows.txt"
        outfile = tmp_path / "total.txt"
        infile.write_text("010\n")
        assert cli.main(["disambiguate", str(infile), "--out", str(outfile)]) == 0
        assert capsys.readouterr().out == (
            "|H|: 1  |H~|: 1  d: 0  n: 3  bound: size=1 (VC 0)  pass: True\n"
        )
        assert outfile.read_text() == "010\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["disambiguate", str(tmp_path / "missing.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error: cannot read ")


def _estimate_config(**overrides):
    cls = core.CantorClass(F(1, 2), 2, 6)
    dist = core.FiniteDistribution.from_triples(
        [(core.Point.nat(5), 0, F(3, 4)), (core.Point.nat(6), 0, F(1, 4))],
        witness=cls.hypothesis({5, 6}),
    )
    config = {
        "class": serialize.class_to_json(cls),
        "distribution": helpers.distribution_to_json(dist),
        "gamma": "1/2",
        "n": 6,
        "trials": 32,
        "learner_config": {"learner": "median3"},
    }
    config.update(overrides)
    return config


def _generic(cls):
    return bind(learners.generic_interpolator, cls)


#: every learner config the README lists, with the learner it must build
_README_LEARNERS = [
    pytest.param(
        {"learner": "single"},
        lambda cls: learners.SingleInterpolator(_generic(cls)),
        id="single",
    ),
    pytest.param(
        {"learner": "median3"},
        lambda cls: learners.MedianOfThree(_generic(cls)),
        id="median3",
    ),
    pytest.param(
        {"learner": "proper_erm"},
        lambda cls: learners.ProperERM(cls),
        id="proper_erm",
    ),
    pytest.param(
        {"learner": "agg"},
        lambda cls: learners.InterpolatorAggregation(
            _generic(cls), learners.DisjointBlocks(3), learners.Median()
        ),
        id="agg-defaults",
    ),
    pytest.param(
        {"learner": "agg", "rule": "median", "partition": {"kind": "disjoint", "m": 3}},
        lambda cls: learners.InterpolatorAggregation(
            _generic(cls), learners.DisjointBlocks(3), learners.Median()
        ),
        id="agg-median-disjoint",
    ),
    pytest.param(
        {"learner": "agg", "rule": "mean", "partition": {"kind": "disjoint", "m": 2}},
        lambda cls: learners.InterpolatorAggregation(
            _generic(cls), learners.DisjointBlocks(2), learners.Mean()
        ),
        id="agg-mean-disjoint",
    ),
    pytest.param(
        {
            "learner": "agg",
            "rule": {"order": 1},
            "partition": {"kind": "windows", "m": 3, "width": 4},
        },
        lambda cls: learners.InterpolatorAggregation(
            _generic(cls), learners.OverlappingWindows(3, 4), learners.OrderStatistic(1)
        ),
        id="agg-order-windows",
    ),
    pytest.param(
        {
            "learner": "agg",
            "rule": {"order": 3},
            "partition": {"kind": "bootstrap", "m": 3, "size": 2, "seed": 5},
        },
        lambda cls: learners.InterpolatorAggregation(
            _generic(cls), learners.Bootstrap(3, 2, seed=5), learners.OrderStatistic(3)
        ),
        id="agg-order-bootstrap-seed",
    ),
    pytest.param(
        {"learner": "agg", "partition": {"kind": "bootstrap", "m": 3, "size": 2}},
        lambda cls: learners.InterpolatorAggregation(
            _generic(cls), learners.Bootstrap(3, 2, seed=0), learners.Median()
        ),
        id="agg-bootstrap-no-seed",
    ),
]


def _agg(**keys):
    return _estimate_config(learner_config={"learner": "agg", **keys})


def _one_atom_at(point):
    return {"atoms": [{"point": point, "label": "0", "mass": "1"}]}


def _run_estimate(tmp_path, config) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main(["estimate", str(path), "--seed", "3"])


#: three zero-labelled atoms, while every Cantor (d = 2) member is zero on two points
_THREE_ZEROS = {
    "atoms": [{"point": {"nat": i}, "label": "0", "mass": "1/3"} for i in (4, 5, 6)]
}


def _no_trial(monkeypatch):
    """Make any draw of a training sample fail the test."""

    def sample_iid(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(core, "sample_iid", sample_iid)


class TestEstimate:
    def test_config_run(self, tmp_path, capsys):
        assert _run_estimate(tmp_path, _estimate_config(n=2, trials=64)) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0 <= out["mean"] <= 1
        assert out["trials"] == 64

    @pytest.mark.parametrize(("learner_config", "build"), _README_LEARNERS)
    def test_readme_learner_configs(self, tmp_path, capsys, learner_config, build):
        config = _estimate_config(learner_config=learner_config)
        assert _run_estimate(tmp_path, config) == 0
        cls = serialize.class_from_json(config["class"])
        dist = serialize.distribution_from_json(config["distribution"])
        instance = adversaries.HardInstance(
            "estimate", cls, dist, dist.witness, F(1, 2), None, None, None, None
        )
        direct = mc.mc_expected_loss(build(cls), instance, config["n"], config["trials"], 3)
        assert json.loads(capsys.readouterr().out)["mean"] == direct.mean

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("learner", ["single", "median3", "proper_erm", "agg"])
    def test_not_realizable_is_refused_before_any_trial(
        self, tmp_path, capsys, monkeypatch, learner, n
    ):
        _no_trial(monkeypatch)
        config = _estimate_config(
            distribution=_THREE_ZEROS, n=n, learner_config={"learner": learner}
        )
        assert _run_estimate(tmp_path, config) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert captured.err.startswith("precondition violated: ")

    def test_zero_mass_atom_is_outside_the_support(self, tmp_path):
        # the third atom is never drawn, so a member zero on 4 and 5 realizes it
        masses = ("1/2", "1/2", "0")
        atoms = [dict(atom, mass=m) for atom, m in zip(_THREE_ZEROS["atoms"], masses)]
        config = _estimate_config(
            distribution={"atoms": atoms}, learner_config={"learner": "proper_erm"}
        )
        assert _run_estimate(tmp_path, config) == 0

    @pytest.mark.parametrize("gamma", ["-1/2", "0", "1", "3/2"])
    @pytest.mark.parametrize("learner", ["single", "median3", "proper_erm", "agg"])
    def test_gamma_outside_unit_interval_exits_4(
        self, tmp_path, capsys, monkeypatch, learner, gamma
    ):
        _no_trial(monkeypatch)
        config = _estimate_config(gamma=gamma, learner_config={"learner": learner})
        assert _run_estimate(tmp_path, config) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert "gamma must lie in (0, 1)" in captured.err

    def test_member_off_its_domain_exits_4(self, tmp_path, capsys):
        # the support is realized by the table member, but two of the three
        # blocks of the one-point sample are empty, and an empty block fits
        # the Cantor member, which is undefined at a pair point
        cls = core.FiniteClass((
            core.CantorHypothesis(frozenset({1}), F(3, 4)),
            helpers.table_hypothesis({core.Point.pair(4, 1): F(0)}, default=F(1)),
        ))
        config = _agg(partition={"kind": "disjoint", "m": 3})
        config.update(
            {"class": serialize.class_to_json(cls), "n": 1, "trials": 30},
            distribution=_one_atom_at({"pair": [4, 1]}),
        )
        assert _run_estimate(tmp_path, config) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert captured.err.startswith("precondition violated: Cantor hypothesis is defined on nat")

    @pytest.mark.parametrize(
        ("partition", "message"),
        [
            ({"kind": "disjoint", "m": 200_001}, "partition of size 200001"),
            ({"kind": "windows", "m": 200_001, "width": 1}, "partition of size 200001"),
            ({"kind": "bootstrap", "m": 3, "size": 200_000}, "bootstrap draws of size 600000"),
            ({"kind": "bootstrap", "m": 3, "size": 2_000_000}, "bootstrap draws of size 6000000"),
        ],
        ids=["disjoint", "windows", "bootstrap", "bootstrap-large"],
    )
    def test_partition_past_the_budget_exits_3_before_any_trial(
        self, tmp_path, capsys, monkeypatch, partition, message
    ):
        _no_trial(monkeypatch)
        start = time.monotonic()
        assert _within(10, _run_estimate, tmp_path, _agg(partition=partition)) == 3
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert captured.err.startswith(f"budget exceeded: {message} exceeds budget 200000")

    @pytest.mark.parametrize(
        ("keys", "message"),
        [
            ({"partition": {"kind": "disjoint", "m": 2}},
             "median aggregation needs an odd number of hypotheses"),
            ({"partition": {"kind": "disjoint", "m": 3}, "rule": {"order": 5}},
             "order statistic 5 out of range for m=3"),
            ({"partition": {"kind": "disjoint", "m": 3}, "rule": {"order": 0}},
             "order statistic 0 out of range for m=3"),
        ],
        ids=["even-median", "order-above-m", "order-zero"],
    )
    def test_rule_the_blocks_cannot_feed_exits_4_before_any_trial(
        self, tmp_path, capsys, monkeypatch, keys, message
    ):
        _no_trial(monkeypatch)
        assert _run_estimate(tmp_path, _agg(**keys)) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert captured.err == f"precondition violated: {message}\n"

    def test_learner_config_is_required(self, tmp_path, capsys):
        # the learner keys at the top level of the file are not read
        config = _estimate_config()
        config.update(config.pop("learner_config"))
        assert _run_estimate(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert err == "parse error: estimate config missing key: 'learner_config'\n"

    def test_tag_key_is_not_read(self, tmp_path, monkeypatch):
        seen = []

        def record(learner, instance, *args):
            seen.append(instance.theorem)
            return direct(learner, instance, *args)

        direct = mc.mc_expected_loss
        monkeypatch.setattr(mc, "mc_expected_loss", record)
        assert _run_estimate(tmp_path, _estimate_config(tag="thm2")) == 0
        assert seen == ["estimate"]

    @pytest.mark.parametrize(
        ("file_trials", "argv", "expected"),
        [(32, ["--trials", "40"], 40), (32, [], 32), (None, ["--trials", "40"], 40), (None, [], 1000)],
        ids=["flag-over-file", "file", "flag", "default"],
    )
    def test_explicit_trials_win_over_the_file(
        self, tmp_path, capsys, file_trials, argv, expected
    ):
        config = _estimate_config(learner_config={"learner": "proper_erm"}, trials=file_trials)
        if file_trials is None:
            del config["trials"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["estimate", str(path), *argv]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == expected

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(_agg(partition="disjoint"), id="partition-not-object"),
            pytest.param(_agg(partition={"kind": "disjoint"}), id="partition-missing-m"),
            pytest.param(_agg(partition={"kind": "blocks", "m": 3}), id="unknown-partition"),
            pytest.param(_agg(partition={"kind": "disjoint", "m": True}), id="bool-m"),
            pytest.param(_agg(rule={"order": "x"}), id="order-not-a-number"),
            pytest.param(_agg(rule={"order": 1.5}), id="order-not-integral"),
            pytest.param(_agg(rule="max"), id="unknown-rule"),
            pytest.param(_estimate_config(learner_config=[1]), id="learner-config-not-object"),
            pytest.param(_estimate_config(n="x"), id="n-not-a-number"),
            pytest.param(_estimate_config(n=2.7), id="n-not-integral"),
            pytest.param(_estimate_config(trials="x"), id="trials-not-a-number"),
            pytest.param([1, 2], id="config-not-object"),
            pytest.param(
                _estimate_config(distribution=_one_atom_at({"nat": "x"})), id="nat-not-a-number"
            ),
            pytest.param(
                _estimate_config(distribution=_one_atom_at({"pair": [4]})), id="pair-of-one"
            ),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, config):
        assert _run_estimate(tmp_path, config) == 2


class TestReproduce:
    def test_thm1_passes(self, capsys):
        assert cli.main(["reproduce", "thm1", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_thm5_epsilon_precondition_exits_4(self):
        assert cli.main(["reproduce", "thm5", "--epsilon", "1/2"]) == 4

    def test_csv_roundtrip_and_replay(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        report_json = tmp_path / "report.json"
        rc = cli.main(
            [
                "reproduce",
                "thm1",
                "--seed",
                "11",
                "--out",
                str(out_csv),
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        report_json.write_text(json.dumps(report))
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == experiments.CSV_HEADER
        assert all(len(r) == len(experiments.CSV_HEADER) for r in rows[1:])
        # replay from the report's config echo reproduces identical rows
        rc = cli.main(["reproduce", "--replay", str(report_json), "--json"])
        assert rc == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["rows"] == report["rows"]
        assert replayed["verdicts"] == report["verdicts"]

    def test_reproduce_requires_tag_or_replay(self):
        with pytest.raises(SystemExit):
            cli.main(["reproduce"])


@pytest.mark.parametrize("command", ["disambiguate", "reproduce"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    rows = tmp_path / "rows.txt"
    rows.write_text("010\n101\n")
    argv = {"disambiguate": ["disambiguate", str(rows)], "reproduce": ["reproduce", "lemma-disamb"]}
    target = tmp_path / "missing" / "out.csv"
    assert cli.main([*argv[command], "--out", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_unwritable_out_refused_before_the_check_runs(tmp_path, capsys, monkeypatch):
    runner = experiments.RUNNERS["thm4"]

    @functools.wraps(runner)  # keeps the signature the flags are read from
    def must_not_run(**kwargs):
        raise AssertionError("thm4 ran before --out was opened")

    monkeypatch.setitem(experiments.RUNNERS, "thm4", must_not_run)
    target = tmp_path / "missing" / "x.csv"
    assert cli.main(["reproduce", "thm4", "--out", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


class TestSerialization:
    def test_class_roundtrip(self):
        for cls in (
            core.CantorClass(F(1, 2), 2, 6),
            core.SplitCantorClass(F(1, 3), core.SQRT_SIZE, None, 9),
            core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 3, 7),
            core.FiniteClass(
                (helpers.table_hypothesis({core.Point.nat(1): F(1, 3)}),)
            ),
        ):
            assert serialize.class_from_json(serialize.class_to_json(cls)) == cls

    def test_distribution_roundtrip(self):
        cls = core.CantorClass(F(1, 2), 2, 5)
        witness = cls.hypothesis({1, 2})
        dist = core.FiniteDistribution.from_triples(
            [(core.Point.nat(1), 0, F(7, 8)), (core.Point.nat(2), 0, F(1, 8))],
            witness=witness,
        )
        assert (
            serialize.distribution_from_json(helpers.distribution_to_json(dist))
            == dist
        )

    def test_rational_strings(self):
        assert serialize.rational_to_str(F(1, 2)) == "1/2"
        assert serialize.rational_from_str("7/8") == F(7, 8)
        with pytest.raises(Exception):
            serialize.rational_from_str("1/0")


class TestReplayOverrides:
    def test_mc_tag_replay_keeps_overridden_trials(self, tmp_path, capsys):
        rc = cli.main(
            ["reproduce", "thm2", "--trials", "60", "--seed", "3", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"][0]["trials"] == "60"
        path = tmp_path / "thm2.json"
        path.write_text(json.dumps(report))
        assert cli.main(["reproduce", "--replay", str(path), "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["rows"] == report["rows"]
        assert replayed["verdicts"] == report["verdicts"]

    def test_bad_report_file_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rows": []}')
        assert cli.main(["reproduce", "--replay", str(path)]) == 2


class TestOigSubgraphs:
    def test_subgraph_evidence(self, cantor_file, capsys):
        rc = cli.main(
            [
                "oig",
                cantor_file,
                "--gamma",
                "1/2",
                "--points",
                "1,2,3,4",
                "--subgraphs",
                "10",
                "--seed",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "subgraph_max_outdegree: 0" in out or "subgraph_max_outdegree: 1" in out


def _replay(tmp_path, report) -> int:
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return cli.main(["reproduce", "--replay", str(path), "--json"])


def _within(seconds, fn, *args):
    """fn(*args), stopped by an alarm if it runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _one_line_refusal(err: str) -> bool:
    return err.count("\n") == 1 and "Traceback" not in err


class TestReplayRoundTrips:
    @pytest.mark.parametrize(
        "argv",
        [
            ["thm4", "--n", "32,64,128,256", "--trials", "30"],  # tuple of ints
            ["lemma-interp", "--n", "256", "--trials", "30"],  # float delta
            ["thm1", "--epsilon", "1/16"],
            ["thm2", "--trials", "30"],
            ["thm3", "--n", "4", "--universe", "0", "--trials", "30"],
            ["thm5", "--trials", "30"],
            ["lemma-disamb"],
        ],
    )
    def test_replay_reproduces_rows(self, tmp_path, capsys, argv):
        rc = cli.main(["reproduce", *argv, "--seed", "2", "--json"])
        assert rc in (0, 1)
        report = json.loads(capsys.readouterr().out)
        params = inspect.signature(experiments.RUNNERS[report["tag"]]).parameters
        assert set(params) <= set(report["config"])
        assert _replay(tmp_path, report) == rc
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["rows"] == report["rows"]
        assert replayed["verdicts"] == report["verdicts"]
        assert replayed["config"] == report["config"]

    def test_replay_keeps_a_failing_slope_range(self, tmp_path, capsys):
        report = experiments.run_thm4(
            ns=(32, 64, 128, 256), trials=30, seed=2, slope_range=(-0.5, 0.0)
        ).to_json()
        assert report["config"]["slope_range"] == [-0.5, 0.0]
        assert _replay(tmp_path, report) == 1
        replayed = json.loads(capsys.readouterr().out)
        slope = [v for v in replayed["verdicts"] if v["name"] == "slope"]
        assert slope == [v for v in report["verdicts"] if v["name"] == "slope"]
        assert not slope[0]["pass"]


#: trial counts that keep every Monte Carlo tag fast
_PIN_TRIALS = {"thm2": 300, "thm3": 100, "thm4": 30, "thm5": 100, "lemma-interp": 100}


class TestReproducePinned:
    """`reproduce <tag> --json`, minus `wall_clock_s`, as recorded before the
    checks shared one row writer and one ensemble body: the config echo,
    rows and verdicts of every tag, as (exit code, sha256 prefix)."""

    @pytest.mark.parametrize(
        "tag,seed,expected",
        [
            ("thm1", 1, (0, "581b47d08097e2e0")),
            ("thm1", 2, (0, "a6a320adae8deef9")),
            ("thm1", 3, (0, "2448a14c92c00195")),
            ("thm2", 1, (0, "008aa253eb19f797")),
            ("thm2", 2, (0, "87be55547743f915")),
            ("thm2", 3, (0, "6e8a49f87a65a117")),
            ("thm3", 1, (0, "62f713be325718cc")),
            ("thm3", 2, (0, "eeb0733ec31b7f6f")),
            ("thm3", 3, (0, "857f2db42af69e00")),
            ("thm4", 1, (0, "005bec1ad15184bc")),
            ("thm4", 2, (0, "be51833ffa36cca9")),
            ("thm4", 3, (1, "9b403bc4b18442eb")),
            ("thm5", 1, (0, "54da508c6a504383")),
            ("thm5", 2, (0, "7c6eec1267c25ecf")),
            ("thm5", 3, (0, "acb4af93042df1d3")),
            ("lemma-interp", 1, (0, "a4d360963f2d1a1f")),
            ("lemma-interp", 2, (0, "aef5ff9880803ca4")),
            ("lemma-interp", 3, (0, "cdd547d50159d7ed")),
            ("lemma-disamb", 1, (0, "f6e16546fa0dc04c")),
            ("lemma-disamb", 2, (0, "573f565cf7a88de1")),
            ("lemma-disamb", 3, (0, "f0132bfe927a9799")),
        ],
    )
    def test_json_report(self, capsys, tag, seed, expected):
        trials = ["--trials", str(_PIN_TRIALS[tag])] if tag in _PIN_TRIALS else []
        rc = cli.main(["reproduce", tag, "--seed", str(seed), *trials, "--json"])
        report = json.loads(capsys.readouterr().out)
        del report["wall_clock_s"]
        text = json.dumps(report, indent=2, sort_keys=True)
        assert (rc, hashlib.sha256(text.encode()).hexdigest()[:16]) == expected


_CANTOR = {"kind": "cantor", "gamma": "1/2", "d": 2, "universe": 5}
_DIMS_NAT = ["dims", "--gamma", "1/2", "--pool", "1..3"]
_DIMS_PAIR = ["dims", "--gamma", "1/2", "--pool", "4/1,4/2"]


def _finite_with(hypothesis):
    return {"kind": "finite", "hypotheses": [hypothesis]}


def _cantor_h(members):
    return {"kind": "cantor_hypothesis", "members": members, "value": "3/4"}


def _split_h(zero_on):
    return {"kind": "split_cantor_hypothesis", "k": 4, "members": [1], "zero_on": zero_on,
            "value": "3/4"}


class TestParseBoundary:
    @pytest.mark.parametrize("spec", ["a,b", "1/2/3", "1..x"])
    def test_bad_point_spec_exits_2(self, cantor_file, spec):
        assert cli.main(["dims", cantor_file, "--gamma", "1/2", "--pool", spec]) == 2
        assert cli.main(["oig", cantor_file, "--gamma", "1/2", "--points", spec]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm2", "--universe", "5"],
            ["thm1", "--trials", "30"],
            ["thm1", "--n", "5"],  # no sample-size parameter
            ["thm3", "--n", "5,6"],  # one n_prime
            ["lemma-interp", "--n", "5,6"],  # one n
        ],
    )
    def test_option_the_tag_does_not_take_exits_2(self, argv):
        assert cli.main(["reproduce", *argv]) == 2

    def test_non_integer_n_exits_2(self):
        assert cli.main(["reproduce", "thm4", "--n", "a"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["thm4", "--n", "0,1,2,3"], ["lemma-interp", "--n", "0"]],
    )
    def test_zero_sample_size_exits_4(self, argv):
        assert cli.main(["reproduce", *argv, "--trials", "30"]) == 4

    def test_replayed_zero_sample_size_exits_4(self, tmp_path):
        report = {"tag": "thm4", "seed": 0, "config": {"ns": [0, 1, 2, 3], "trials": 30}}
        assert _replay(tmp_path, report) == 4

    def test_replayed_slope_range_needs_two_bounds(self, tmp_path):
        report = {"tag": "thm4", "seed": 0, "config": {"slope_range": [-1], "trials": 30}}
        assert _replay(tmp_path, report) == 4

    def test_one_distinct_sample_size_exits_4(self, capsys):
        assert cli.main(["reproduce", "thm4", "--n", "32,32,32,32", "--trials", "30"]) == 4
        err = capsys.readouterr().err
        assert "two distinct sample sizes" in err and _one_line_refusal(err)

    @pytest.mark.parametrize(
        ("ns", "message"),
        [("1024,1024,1024,1024", "two distinct sample sizes"), ("32,64,128", "at least 4 points")],
    )
    def test_unfittable_sample_sizes_exit_4_before_any_trial(
        self, monkeypatch, capsys, ns, message
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a trial ran for sample sizes that cannot be fitted")

        monkeypatch.setattr(mc, "mc_expected_loss", must_not_run)
        assert cli.main(["reproduce", "thm4", "--n", ns]) == 4
        err = capsys.readouterr().err
        assert message in err and _one_line_refusal(err)

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            ({"delta": 0.00001, "trials": 5000}, "need at least 100000 samples"),
            ({"delta": 0.0}, "0 < delta < 1"),
            ({"delta": 1.5}, "0 < delta < 1"),
        ],
        ids=["too-few-trials", "delta-0", "delta-above-1"],
    )
    def test_lemma_interp_refused_before_any_trial(
        self, tmp_path, monkeypatch, capsys, config, message
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a trial ran for a delta or trial count that is refused")

        monkeypatch.setattr(mc, "mc_expected_loss", must_not_run)
        assert _replay(tmp_path, {"tag": "lemma-interp", "seed": 0, "config": config}) == 4
        err = capsys.readouterr().err
        assert message in err and _one_line_refusal(err)

    # a ceiling one below each tag's default family universe
    @pytest.mark.parametrize(("tag", "budget"), [("thm2", 13), ("thm3", 783), ("thm5", 63)])
    def test_family_past_the_budget_exits_3_before_any_trial(
        self, monkeypatch, capsys, tag, budget
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a trial ran for a family past the budget")

        monkeypatch.setattr(mc, "mc_expected_loss", must_not_run)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(budget))
        assert cli.main(["reproduce", tag]) == 3
        err = capsys.readouterr().err
        assert f"family universe of size {budget + 1}" in err and _one_line_refusal(err)

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["thm1", "--epsilon", "1/1000000000000"], "oracle would enumerate 2^"),
            (["thm3", "--universe", "0", "--epsilon", "1/10000"], "family universe"),
            (["thm3", "--universe", "0", "--epsilon", "1/1000000000000"], "index distribution"),
            (["thm5", "--epsilon", "1/10000000000"], "index distribution"),
            (["thm2", "--d", "1000000000"], "index distribution"),
            # 10^8 and 1.5 * 10^9 draws per trial: refused before the first trial
            (["lemma-interp", "--n", "100000000", "--trials", "30"], "draws per trial"),
            (["thm2", "--epsilon", "1/100000000000", "--trials", "30"], "draws per trial"),
        ],
        ids=["thm1-oracle", "thm3-universe", "thm3-masses", "thm5-masses", "thm2-masses",
             "lemma-interp-draws", "thm2-draws"],
    )
    def test_reproduce_past_the_budget_exits_3_at_once(self, capsys, argv, message):
        start = time.monotonic()
        assert _within(10, cli.main, ["reproduce", *argv]) == 3
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert _one_line_refusal(captured.err)

    def test_explicit_pool_past_budget_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cantor_1_5.json"
        path.write_text(json.dumps({**_CANTOR, "d": 1}))
        # a million points: refused before any point is built
        argv = ["dims", str(path), "--gamma", "1/2", "--pool", "1..1000000"]
        assert _within(10, cli.main, argv) == 3
        err = capsys.readouterr().err
        assert "point list with range '1..1000000'" in err and _one_line_refusal(err)

    def test_explicit_pool_past_the_candidate_budget_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cantor_1_5.json"
        path.write_text(json.dumps({**_CANTOR, "d": 1}))
        # 1,000 points pass, 499,500 two-point candidate sets do not
        argv = ["dims", str(path), "--gamma", "1/2", "--pool", "1..1000"]
        assert _within(10, cli.main, argv) == 3
        err = capsys.readouterr().err
        assert "candidate 2-point sets" in err and _one_line_refusal(err)

    @pytest.mark.parametrize(
        "config",
        [{"domain_size": 0}, {"max_size": 0}, {"classes": 0}, {"max_vc": -1}],
        ids=["domain-size-0", "max-size-0", "classes-0", "max-vc-negative"],
    )
    def test_replayed_lemma_disamb_out_of_range_exits_4(self, tmp_path, capsys, config):
        report = {"tag": "lemma-disamb", "seed": 0, "config": config}
        # a negative max_vc once left the class sampler rejecting forever
        assert _within(10, _replay, tmp_path, report) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)

    @pytest.mark.parametrize("domain_size", [17, 20_000, 200_000])
    def test_replayed_lemma_disamb_past_the_domain_cap_exits_3_at_once(
        self, tmp_path, capsys, monkeypatch, domain_size
    ):
        def must_not_run(*args):
            raise AssertionError("a random class was drawn past the domain cap")

        monkeypatch.setattr(experiments, "random_partial_class", must_not_run)
        report = {"tag": "lemma-disamb", "seed": 0, "config": {"domain_size": domain_size}}
        assert _within(1, _replay, tmp_path, report) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_refusal(captured.err)
        assert f"domain size {domain_size} exceeds the cap of 16" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            lambda path: ["dims", path, "--gamma", "1/2"],
            lambda path: ["reproduce", "thm1", "--universe", "100000000"],
        ],
        ids=["dims", "thm1"],
    )
    def test_default_pool_past_budget_exits_3_before_it_is_built(
        self, tmp_path, capsys, argv
    ):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**_CANTOR, "d": 1, "universe": 100_000_000}))
        start = time.perf_counter()
        assert cli.main(argv(str(path))) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "default pool" in err and _one_line_refusal(err)

    @pytest.mark.parametrize(
        "report",
        [
            {"tag": "thm9", "seed": 0, "config": {}},
            {"tag": ["thm1"], "seed": 0, "config": {}},
            {"tag": "thm1", "seed": 0, "config": {"d": "x"}},
            {"tag": "thm1", "seed": 0, "config": {"gamma": "1/0"}},
            {"tag": "thm4", "seed": 0, "config": {"ns": "32,64"}},
            {"tag": "thm1", "seed": 0, "config": {"d": 2.7}},  # no truncation
            {"tag": "thm1", "seed": 0, "config": {"d": True}},
        ],
    )
    def test_malformed_replay_exits_2(self, tmp_path, report):
        assert _replay(tmp_path, report) == 2

    @pytest.mark.parametrize(
        ("argv", "data"),
        [
            pytest.param(_DIMS_NAT, {**_CANTOR, "d": 2.7}, id="cantor-d-not-integral"),
            pytest.param(_DIMS_NAT, {**_CANTOR, "d": True}, id="cantor-d-bool"),
            pytest.param(_DIMS_NAT, _finite_with(_cantor_h([1.9, 2])), id="member-not-integral"),
            pytest.param(_DIMS_NAT, _finite_with(_cantor_h("12")), id="members-not-a-list"),
            pytest.param(
                _DIMS_PAIR,
                {"kind": "split_cantor", "gamma": "1/2", "variant": "d_minus_one_complement",
                 "size_param": 3.5, "universe_cap": 5},
                id="size-param-not-integral",
            ),
            pytest.param(
                ["estimate", "--seed", "3"],
                _estimate_config(distribution=_one_atom_at({"nat": 5.9})),
                id="nat-not-integral",
            ),
            pytest.param(_DIMS_PAIR, _finite_with(_split_h("membres")), id="zero-on-misspelt"),
            pytest.param(_DIMS_PAIR, _finite_with(_split_h(7)), id="zero-on-not-a-string"),
        ],
    )
    def test_file_value_it_would_round_or_misread_exits_2(self, tmp_path, argv, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert cli.main([argv[0], str(path), *argv[1:]]) == 2

    def test_threads_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "thm1", "--threads", "2"])
        assert exc.value.code == 2


# -- property: no input reaches a traceback ---------------------------------

_number = st.integers(-2, 12).map(str)
_chunk = st.one_of(
    _number,
    st.tuples(_number, _number).map("/".join),
    st.tuples(_number, _number).map("..".join),
    st.text(alphabet="0123456789/.-ax ", max_size=6),
)
_point_spec = st.lists(_chunk, min_size=1, max_size=5).map(",".join)

#: Every runner parameter name, so each replayed config hits every runner.
_REPLAY_KEYS = sorted(
    {name for runner in experiments.RUNNERS.values()
     for name in inspect.signature(runner).parameters} - {"seed"}
)
_bad_value = st.one_of(
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
    st.integers(0, 9).map(lambda p: f"{p}/0"),
    st.none(),
    st.lists(st.sampled_from(["x", "1/0", None]), max_size=3),
    st.dictionaries(st.just("k"), st.integers(), max_size=1),
)
_bad_report = st.one_of(
    st.fixed_dictionaries(
        {
            "tag": st.one_of(st.sampled_from([*experiments.TAGS, "thm9", ""]),
                             st.integers(), st.none(), st.lists(st.just("thm1"), max_size=1)),
            "seed": st.one_of(st.integers(0, 5), st.just("x"), st.none()),
            "config": st.fixed_dictionaries({k: _bad_value for k in _REPLAY_KEYS}),
        }
    ),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=5),
    st.integers(),
)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    serialize.dump_json(
        serialize.class_to_json(core.CantorClass(F(1, 2), 2, 4)), path / "cantor24.json"
    )
    return path


@settings(max_examples=80, deadline=None)
@given(spec=_point_spec)
def test_point_specs_never_escape(fuzz_dir, spec):
    class_file = str(fuzz_dir / "cantor24.json")
    for argv in (
        # "--opt=value" so argparse never reads a leading "-" as an option
        ["dims", class_file, "--gamma", "1/2", f"--pool={spec}"],
        ["oig", class_file, "--gamma", "1/2", f"--points={spec}"],
    ):
        assert _quiet_main(argv) in (0, 2, 3, 4)


@settings(max_examples=80, deadline=None)
@given(report=_bad_report)
def test_malformed_replays_exit_2(fuzz_dir, report):
    path = fuzz_dir / "report.json"
    path.write_text(json.dumps(report))
    assert _quiet_main(["reproduce", "--replay", str(path)]) == 2


_junk = st.one_of(
    st.integers(0, 6),
    st.floats(0, 6),
    st.sampled_from([float("inf"), float("nan")]),
    st.text(alphabet="ax3.-/ ", max_size=2),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 6), max_size=2),
    st.dictionaries(st.sampled_from(["k", "m", "order"]), st.integers(0, 6), max_size=1),
)


def _mostly(valid):
    """`valid` three times in four, any other JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else _junk)


_small = _mostly(st.integers(0, 6))
_rule = _mostly(
    st.one_of(st.sampled_from(["median", "mean"]), st.fixed_dictionaries({"order": _small}))
)
_partition = _mostly(
    st.fixed_dictionaries(
        {"kind": _mostly(st.sampled_from(["disjoint", "windows", "bootstrap"]))},
        optional={"m": _small, "width": _small, "size": _small, "seed": _small},
    )
)
_learner_config = _mostly(
    st.fixed_dictionaries(
        {"learner": _mostly(st.sampled_from(["single", "median3", "proper_erm", "agg"]))},
        optional={"rule": _rule, "partition": _partition},
    )
)


@settings(max_examples=80, deadline=None)
@given(learner_config=_learner_config, n=_small, trials=_mostly(st.integers(30, 32)))
def test_estimate_configs_never_escape(fuzz_dir, learner_config, n, trials):
    config = _estimate_config(learner_config=learner_config, n=n, trials=trials)
    path = fuzz_dir / "estimate.json"
    path.write_text(json.dumps(config))
    assert _quiet_main(["estimate", str(path)]) in (0, 2, 3, 4)


# Class files: each kind, with fields that are small, negative, floats, bools,
# strings, null, typos or the wrong shape.
_field = _mostly(st.integers(-2, 6))
_rational = _mostly(st.sampled_from(["1/2", "1/3", "0", "1", "3/2", "-1/2", "1/0"]))
_members = _mostly(st.lists(st.integers(-1, 6), max_size=4))
_fuzz_point = st.one_of(
    st.fixed_dictionaries({"nat": _field}),
    st.fixed_dictionaries({"pair": _mostly(st.lists(_field, min_size=2, max_size=2))}),
)
_hypothesis_record = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("cantor_hypothesis"), "members": _members, "value": _rational}
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("split_cantor_hypothesis"),
            "k": _field,
            "members": _members,
            "zero_on": _mostly(st.sampled_from(["members", "complement", "membres", "Members"])),
            "value": _rational,
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("table_hypothesis"),
            "entries": _mostly(st.lists(st.tuples(_fuzz_point, _rational), max_size=3)),
            "default": _rational,
        }
    ),
    st.fixed_dictionaries({"kind": st.sampled_from(["cantor", "hypothesis", ""])}),
)
_class_record = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("cantor"), "gamma": _rational, "d": _field, "universe": _field}
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("split_cantor"),
            "gamma": _rational,
            "variant": _mostly(
                st.sampled_from(
                    [core.SQRT_SIZE, core.D_MINUS_ONE_COMPLEMENT, "sqrt", "d_minus_one"]
                )
            ),
            "size_param": _field,
            "universe_cap": _field,
        }
    ),
    st.fixed_dictionaries(
        {"kind": st.just("finite"), "hypotheses": _mostly(st.lists(_hypothesis_record, max_size=3))}
    ),
    st.fixed_dictionaries(
        {"kind": _mostly(st.sampled_from(["cantr", "Cantor", "split", ""]))},
        optional={"d": _field, "universe": _field},
    ),
    _junk,
)


@settings(max_examples=80, deadline=None)
@given(record=_class_record, points=st.sampled_from(["1,2,3", "4/1,4/2", "1,4/3"]))
def test_class_files_never_escape(fuzz_dir, record, points):
    class_file = fuzz_dir / "class.json"
    class_file.write_text(json.dumps(record))
    config_file = fuzz_dir / "class-estimate.json"
    config_file.write_text(json.dumps(_estimate_config(**{"class": record})))
    for argv in (
        ["dims", str(class_file), "--gamma", "1/2"],
        ["oig", str(class_file), "--gamma", "1/2", f"--points={points}"],
        ["estimate", str(config_file)],
    ):
        assert _quiet_main(argv) in (0, 2, 3, 4), argv
