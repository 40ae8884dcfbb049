"""Desk-scale checks of every quantitative threshold, one per reproduce tag.

Each check returns a Report holding its config echo, result rows (the CSV
schema), and named verdicts.  Defaults are the ones the acceptance suite runs;
all of them finish in minutes on a laptop and are deterministic per seed.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import __version__, adversaries, core, learners, mc
from . import partial as partial_concepts
from .errors import PreconditionError

CSV_HEADER = (
    "experiment",
    "theorem_tag",
    "gamma",
    "epsilon",
    "d",
    "n",
    "trials",
    "mean",
    "ci_lo",
    "ci_hi",
    "threshold",
    "pass",
)


@dataclass
class Report:
    tag: str
    config: dict
    rows: list[dict[str, str]] = field(default_factory=list)
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)
    wall_clock_s: float = 0.0
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def verdict(self, name: str, ok: bool, detail: str):
        self.verdicts.append((name, bool(ok), detail))

    def row(self, estimate=None, *, experiment=None, gamma="", epsilon="", d="", n="",
            trials="", mean="", threshold="", passed=True):
        """Append one result row under this report's tag: every CSV_HEADER
        column, in order, as text.  An estimate fills trials, mean and CI."""
        ci = ("", "")
        if estimate is not None:
            trials, mean = estimate.trials, f"{estimate.mean:.6g}"
            ci = (f"{estimate.ci_lo:.6g}", f"{estimate.ci_hi:.6g}")
        values = (experiment or self.tag, self.tag, gamma, epsilon, d, n, trials, mean, *ci,
                  threshold, "pass" if passed else "fail")
        self.rows.append(dict(zip(CSV_HEADER, map(str, values), strict=True)))

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "config": self.config,
            "rows": self.rows,
            "verdicts": [
                {"name": n, "pass": ok, "detail": d} for n, ok, d in self.verdicts
            ],
            "wall_clock_s": self.wall_clock_s,
            "version": __version__,
            "seed": self.seed,
        }


def _echo(default, value):
    if isinstance(default, Fraction):
        return str(value)
    if isinstance(default, tuple):
        return list(value)
    return value


#: tag -> check, in the order the checks are defined below
RUNNERS = {}


def _runner(tag):
    """Turn ``body(report, **params)`` into the timed check ``tag`` and
    register it in RUNNERS.

    The body's signature, minus its leading report, is the check's public
    signature and the only place its parameters are stated: the call is bound
    to it with defaults applied, Fraction parameters are made exact, and the
    report's config echoes every parameter, so ``--replay`` reruns the same
    check.  The body adds only the config keys it derives.
    """

    def decorate(body):
        params = list(inspect.signature(body).parameters.values())[1:]
        signature = inspect.Signature(params, return_annotation=Report)

        @functools.wraps(body)
        def run(*args, **kwargs):
            start = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments
            config = {}
            for param in params:
                if isinstance(param.default, Fraction):
                    values[param.name] = Fraction(values[param.name])
                config[param.name] = _echo(param.default, values[param.name])
            report = Report(tag, config, seed=values["seed"])
            body(report, **values)
            report.wall_clock_s = round(time.perf_counter() - start, 3)
            return report

        run.__signature__ = signature
        RUNNERS[tag] = run
        return run

    return decorate


# ---------------------------------------------------------------------------
# thm1: proper-rule aggregation of a worst-case interpolator, exact oracle
# ---------------------------------------------------------------------------


@_runner("thm1")
def run_thm1(report, gamma=Fraction(1, 2), d=2, universe=5, epsilon=Fraction(1, 32), seed=0):
    cls = core.CantorClass(gamma, d, universe)
    instance, cert = adversaries.thm1_instance(cls, gamma, epsilon)
    n = instance.n_max
    adversary = partial(learners.adversarial_interpolator, cert)
    rules = {
        "min": learners.OrderStatistic(1),
        "max": learners.OrderStatistic(3),
        "median3": learners.Median(),
    }
    for name, rule in rules.items():
        learner = learners.InterpolatorAggregation(
            adversary, learners.DisjointBlocks(3), rule
        )
        expected = mc.exact_expected_loss(learner, instance, n)
        exceed = mc.exact_exceed_probability(learner, instance, n, 2 * epsilon)
        ok_mean = expected > epsilon
        ok_prob = exceed >= Fraction(1, 2)
        report.verdict(
            f"exact_mean_{name}", ok_mean, f"E[loss]={expected} > eps={epsilon}"
        )
        report.verdict(
            f"exceed_prob_{name}", ok_prob, f"P[loss>2eps]={exceed} >= 1/2"
        )
        report.row(
            experiment=f"thm1_{name}",
            gamma=gamma,
            epsilon=epsilon,
            d=instance.d,
            n=n,
            trials="exact",
            mean=expected,
            threshold=f">{epsilon}",
            passed=ok_mean and ok_prob,
        )


# ---------------------------------------------------------------------------
# thm2, thm3, thm5: one learner's loss over a random-support family
# ---------------------------------------------------------------------------


def _ensemble(report, family, learner, trials, seed, target, *, strict=False, label="",
              freq_floor=None):
    """Estimate the learner's loss over the family at its n_max, and write
    the verdicts and the one row of thm2, thm3 and thm5.

    ``mean_above`` holds when the mean reaches ``target`` minus the CI
    half-width (exceeds it, when ``strict``); with a ``freq_floor``,
    ``exceed_freq`` holds when at least that share of losses exceed epsilon.
    """
    est = mc.mc_expected_loss(learner, family, family.n_max, trials, seed)
    op = ">" if strict else ">="
    floor = float(target) - est.ci_halfwidth
    ok = est.mean > floor if strict else est.mean >= floor
    report.verdict("mean_above", ok, f"mean={est.mean:.5f} {op} {label}{floor:.5f}")
    if freq_floor is not None:
        freq = est.exceed_fraction(family.epsilon)
        report.verdict(
            "exceed_freq",
            freq >= freq_floor,
            f"freq(loss>eps)={float(freq):.4f} >= {float(freq_floor):.4f}",
        )
    report.row(
        est,
        gamma=family.cls.gamma,
        epsilon=family.epsilon,
        d=family.d or "",
        n=family.n_max,
        threshold=f"{op}{float(target):.6g}-CI",
        passed=report.passed,
    )


def _median_of_blocks(cls, m_bound):
    """Median of the generic interpolator on m_bound disjoint blocks."""
    interp = partial(learners.generic_interpolator, cls)
    return learners.InterpolatorAggregation(
        interp, learners.DisjointBlocks(m_bound), learners.Median()
    )


# ---------------------------------------------------------------------------
# thm2: interpolating finite aggregation on the Cantor class ensemble
# ---------------------------------------------------------------------------


@_runner("thm2")
def run_thm2(
    report,
    gamma=Fraction(1, 2),
    d=2,
    epsilon=Fraction(1, 64),
    m_bound=3,
    trials=4000,
    seed=0,
):
    family = adversaries.thm2_family(gamma, d, epsilon, m_bound)
    report.config.update(universe=family.universe, n=family.n_max)
    learner = _median_of_blocks(family.cls, m_bound)
    freq_floor = Fraction(1, 16) - Fraction(1, 50)
    _ensemble(report, family, learner, trials, seed, 2 * epsilon, strict=True,
              label="2eps-CI=", freq_floor=freq_floor)


# ---------------------------------------------------------------------------
# thm3: sqrt-size split class, no finite interpolating aggregation learns it
# ---------------------------------------------------------------------------


@_runner("thm3")
def run_thm3(
    report,
    gamma=Fraction(1, 2),
    epsilon=Fraction(1, 2),
    n_prime=4,
    m_bound=3,
    universe=784,
    trials=1000,
    seed=0,
):
    family = adversaries.thm3_family(gamma, epsilon, n_prime, m_bound, universe=universe)
    report.config["universe"] = family.universe
    learner = _median_of_blocks(family.cls, m_bound)
    _ensemble(report, family, learner, trials, seed, core.ONE - epsilon / 2)


# ---------------------------------------------------------------------------
# thm4: median-of-three rate on two-tier instances matched to each n
# ---------------------------------------------------------------------------


@_runner("thm4")
def run_thm4(
    report,
    gamma=Fraction(1, 2),
    d=4,
    universe=12,
    ns=(32, 64, 128, 256, 512, 1024),
    trials=2000,
    seed=0,
    slope_range=(-1.3, -0.8),
    min_r_squared=0.9,
):
    if len(slope_range) != 2:
        raise PreconditionError(f"slope_range needs two bounds, got {slope_range!r}")
    lo, hi = slope_range
    mc.check_fit_sizes(ns)
    cls = core.CantorClass(gamma, d, universe)
    interp = partial(learners.generic_interpolator, cls)
    med = learners.MedianOfThree(interp)
    # every instance, the single interpolator's at ns[-1] last, before the
    # first trial, so an n below 1 is refused at once
    instances = [adversaries.thm4_instance(cls, n) for n in (*ns, ns[-1])]
    curve = []
    for i, (n, instance) in enumerate(zip(ns, instances)):
        est = mc.mc_expected_loss(med, instance, n, trials, core.stream_seed(seed, i))
        curve.append((n, est.mean))
        report.row(
            est, experiment="thm4_median3", gamma=gamma, d=d, n=n,
            threshold=f"slope in [{lo},{hi}]",
        )
    fit = mc.scaling_fit(curve)
    top_n = ns[-1]
    single = mc.mc_expected_loss(
        learners.SingleInterpolator(interp),
        instances[-1],
        top_n,
        trials,
        core.stream_seed(seed, len(ns)),
    )
    report.verdict("slope", lo <= fit.slope <= hi, f"slope={fit.slope:.4f} in [{lo},{hi}]")
    report.verdict(
        "r_squared", fit.r_squared >= min_r_squared, f"r2={fit.r_squared:.5f} >= {min_r_squared}"
    )
    report.verdict(
        "median_below_single",
        curve[-1][1] < single.mean,
        f"median@{top_n}={curve[-1][1]:.6g} < single@{top_n}={single.mean:.6g}",
    )
    report.config.update(slope=fit.slope, r_squared=fit.r_squared)


# ---------------------------------------------------------------------------
# thm5: proper ERM on the complement split class ensemble
# ---------------------------------------------------------------------------


@_runner("thm5")
def run_thm5(
    report,
    gamma=Fraction(1, 2),
    d=4,
    epsilon=Fraction(1, 256),
    trials=4000,
    seed=0,
):
    family = adversaries.thm5_family(gamma, d, epsilon)
    report.config.update(universe=family.universe, n=family.n_max)
    learner = learners.ProperERM(family.cls)
    freq_floor = Fraction(1, 48) - Fraction(1, 100)
    _ensemble(report, family, learner, trials, seed, 4 * epsilon / 3,
              label="4eps/3-CI=", freq_floor=freq_floor)


# ---------------------------------------------------------------------------
# thm5-exact: proper ERM's exact loss law on the thm5 family, at two rungs
# ---------------------------------------------------------------------------


@_runner("thm5-exact")
def run_thm5_exact(report, gamma=Fraction(1, 2), d=4, epsilon=Fraction(1, 256), seed=0):
    """Decide thm5's two floors on `mc.complement_family_law` at epsilon and
    epsilon/4, each at the family's n_max: E[loss] >= 4 eps/3 and
    P[loss > eps] >= 1/48, on Fractions.  Nothing is drawn, so the seed
    changes only its echo."""
    families = [adversaries.thm5_family(gamma, d, eps) for eps in (epsilon, epsilon / 4)]
    report.config.update(universe=[f.universe for f in families],
                         n=[f.n_max for f in families])
    for family in families:
        eps = family.epsilon
        law = mc.complement_family_law(family, family.n_max)
        expected, exceed = mc.law_mean(law), mc.law_exceed(law, eps)
        target, floor = 4 * eps / 3, Fraction(1, 48)
        ok_mean, ok_exceed = expected >= target, exceed >= floor
        report.verdict(f"exact_mean_{eps}", ok_mean,
                       f"E[loss]={float(expected):.6g} >= 4eps/3={float(target):.6g}")
        report.verdict(f"exact_exceed_{eps}", ok_exceed,
                       f"P[loss>eps]={float(exceed):.6g} >= 1/48")
        report.row(experiment=f"thm5_exact_{eps}", gamma=gamma, epsilon=eps, d=d,
                   n=family.n_max, trials="exact", mean=f"{float(expected):.6g}",
                   threshold=f">={float(target):.6g}", passed=ok_mean and ok_exceed)


# ---------------------------------------------------------------------------
# lemma-interp: high-probability envelope for a single interpolator
# ---------------------------------------------------------------------------


@_runner("lemma-interp")
def run_lemma_interp(
    report,
    gamma=Fraction(1, 2),
    d=2,
    universe=6,
    n=4096,
    delta=0.1,
    trials=400,
    seed=0,
):
    cls = core.CantorClass(gamma, d, universe)
    instance = adversaries.thm4_instance(cls, n)
    mc.check_quantile_samples(trials, delta)
    interp = partial(learners.generic_interpolator, cls)
    est = mc.mc_expected_loss(learners.SingleInterpolator(interp), instance, n, trials, seed)
    # after the estimate, whose draw budget refuses an n too large for a float
    bound = mc.interpolator_envelope_bound(d, n, delta)
    ok, margin = mc.quantile_envelope_check(est.losses, delta, bound)
    report.verdict(
        "quantile_below_bound",
        ok,
        f"(1-delta)-quantile within bound={bound:.4f} (margin {margin:.4f})",
    )
    report.row(est, gamma=gamma, d=d, n=n, threshold=f"q90<={bound:.4f}", passed=ok)


# ---------------------------------------------------------------------------
# lemma-disamb: greedy disambiguation on random partial classes
# ---------------------------------------------------------------------------


def random_partial_class(rng, domain_size=10, max_size=40, max_vc=3):
    """Seeded random partial class with VC dimension capped by rejection."""
    while True:
        size = rng.randrange(1, max_size + 1)
        rows = tuple(
            "".join(
                "*" if rng.random() < 0.5 else str(rng.randrange(2)) for _ in range(domain_size)
            )
            for _ in range(size)
        )
        cls = partial_concepts.PartialClass(domain_size, rows)
        if partial_concepts.partial_vc_dimension(cls) <= max_vc:
            return cls


@_runner("lemma-disamb")
def run_lemma_disamb(report, domain_size=10, max_size=40, classes=50, max_vc=3, seed=0):
    # max_vc < 0 would leave random_partial_class rejecting every class forever
    if min(domain_size, max_size, classes) < 1 or max_vc < 0:
        raise PreconditionError(
            "need domain_size, max_size, classes >= 1 and max_vc >= 0, got "
            f"{domain_size}, {max_size}, {classes}, {max_vc}"
        )
    partial_concepts.check_domain_size(domain_size)  # before any row is drawn
    rng = random.Random(core.stream_seed(seed, 0))
    all_ok = True
    worst = ""
    for idx in range(classes):
        cls = random_partial_class(rng, domain_size, max_size, max_vc)
        total = partial_concepts.disambiguate(cls)
        d = partial_concepts.partial_vc_dimension(cls)
        bars = [bar for _, bar in total.masks]
        agrees = all(any(not (value ^ bar) & ~star for bar in bars) for star, value in cls.masks)
        size_ok = total.size() <= cls.size()
        bound_ok = partial_concepts.within_disambiguation_bound(total.size(), d, domain_size)
        if d == 0:
            bound_txt = "|H~|=1 (VC 0)"
        else:
            bound = partial_concepts.ln_disambiguation_bound(d, domain_size)
            bound_txt = f"ln|H~|={math.log(total.size()):.3f} <= {bound:.3f}"
        ok = agrees and size_ok and bound_ok
        if not ok:
            all_ok = False
            worst = f"class #{idx}: agrees={agrees} size_ok={size_ok} {bound_txt}"
        report.row(
            experiment=f"disamb_{idx}",
            d=d,
            n=domain_size,
            trials=cls.size(),
            mean=total.size(),
            threshold=bound_txt,
            passed=ok,
        )
    report.verdict("disambiguation_suite", all_ok, worst or f"all {classes} classes pass")


TAGS = tuple(RUNNERS)


def reproduce(tag: str, seed: int = 0, **overrides) -> Report:
    """Run one tagged check with acceptance defaults plus overrides."""
    if tag not in RUNNERS:
        raise PreconditionError(f"unknown tag {tag!r}; choose from {', '.join(TAGS)}")
    return RUNNERS[tag](**overrides, seed=seed)
