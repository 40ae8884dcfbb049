"""Exact enumeration oracles, seeded Monte Carlo estimation, scaling fits.

Per-trial losses are exact rationals; only the aggregate mean / CI convert to
floating point, which keeps Monte Carlo error cleanly separated from
arithmetic error.  Float sums go through `math.fsum`, which rounds correctly
on every Python version.  Trials are stream-indexed off the master seed, so
results are identical under any execution order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import core, learners
from .adversaries import HardInstance, InstanceFamily
from .errors import BudgetExceededError, PreconditionError

DEFAULT_ORACLE_BUDGET = 100_000


@dataclass(frozen=True)
class LossEstimate:
    mean: float
    stderr: float
    ci_lo: float
    ci_hi: float
    trials: int
    losses: tuple[Fraction, ...]

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2

    def exceed_fraction(self, threshold) -> Fraction:
        """Share of per-trial losses strictly above the threshold."""
        threshold = Fraction(threshold)
        return Fraction(sum(1 for l in self.losses if l > threshold), len(self.losses))


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    r_squared: float


def exact_loss_distribution(learner, instance: HardInstance, n: int) -> list[tuple[Fraction, Fraction]]:
    """(probability, loss) pairs over every weighted sample tuple.

    Enumerates support^(n * arity) sequences; a three-sample learner
    enumerates the triple product.  The learner must pass
    `learners.reads_seen_sets`, as its fit then depends only on the seen sets
    of its `seen_blocks`: it is fitted and scored once per distinct tuple of
    them, and every sequence with that tuple shares the loss.
    """
    dist = instance.distribution
    arity = learner.sample_arity
    total_len = n * arity
    support = len(dist.atoms)
    # support^total_len is not computed when it must exceed the budget: with
    # support >= 2 it is at least 2^total_len, past the budget once total_len
    # reaches the budget's bit length
    too_long = support >= 2 and total_len >= DEFAULT_ORACLE_BUDGET.bit_length()
    if too_long or support**total_len > DEFAULT_ORACLE_BUDGET:
        raise BudgetExceededError(f"oracle would enumerate {support}^{total_len} sequences")
    # a one-atom law has one sequence of any length, which the budget above passes
    core._budgeted("draws per trial", total_len)
    if not learners.reads_seen_sets(learner):
        raise PreconditionError(
            "the exact oracle needs an interpolator that reads only seen sets")
    weights = dist.law.weights
    denominator = dist.law.denominator**total_len
    losses: dict[tuple, Fraction] = {}
    out = []
    for combo in itertools.product(range(support), repeat=total_len):
        weight = math.prod([weights[k] for k in combo])
        if weight == 0:
            continue
        samples = tuple(combo[j * n : (j + 1) * n] for j in range(arity))
        key = tuple(frozenset(b) for b in learner.seen_blocks(samples))
        loss = losses.get(key)
        if loss is None:
            # the distribution's own examples, shared by every sequence as by sample_iid
            examples = tuple(tuple(dist.atoms[k] for k in s) for s in samples)
            loss = losses[key] = core.cutoff_loss(learner.predictor(examples), dist, instance.gamma)
        out.append((Fraction(weight, denominator), loss))
    return out


def _mass_by_loss(pairs) -> dict[Fraction, Fraction]:
    """Total probability of each distinct loss among (probability, loss)
    pairs.  Numerators are summed as integers per loss object and
    probability denominator: the sequences that share a fit share its loss
    object, so the groups are few, and no Fraction is hashed or added per
    pair."""
    groups: dict[tuple[int, int], list] = {}
    for w, loss in pairs:  # every loss object lives in `pairs`, so ids are unique
        groups.setdefault((id(loss), w.denominator), [loss, 0])[1] += w.numerator
    masses: dict[Fraction, Fraction] = {}
    for (_, denominator), (loss, numerator) in groups.items():
        masses[loss] = masses.get(loss, core.ZERO) + Fraction(numerator, denominator)
    return masses


def exact_expected_loss(learner, instance: HardInstance, n: int) -> Fraction:
    """Exact E[loss] by weighted enumeration of all sample sequences."""
    masses = _mass_by_loss(exact_loss_distribution(learner, instance, n))
    return sum((mass * loss for loss, mass in masses.items()), core.ZERO)


def exact_exceed_probability(learner, instance: HardInstance, n: int, threshold) -> Fraction:
    threshold = Fraction(threshold)
    masses = _mass_by_loss(exact_loss_distribution(learner, instance, n))
    return sum((mass for loss, mass in masses.items() if loss > threshold), core.ZERO)


def _trial_loss(learner, source, n: int, seed: int, trial: int) -> Fraction:
    base = core.stream_seed(seed, trial)
    if isinstance(source, InstanceFamily):
        rng = core.rng_for(base, 0)
        instance = source.draw_instance(rng)
    else:
        instance = source
    samples = tuple(
        core.sample_iid(instance.distribution, n, base, stream=j + 1)
        for j in range(learner.sample_arity)
    )
    predictor = learner.predictor(samples)
    return core.cutoff_loss(predictor, instance.distribution, instance.gamma)


def mc_expected_loss(
    learner,
    source,
    n: int,
    trials: int,
    seed: int,
) -> LossEstimate:
    """Monte Carlo mean of exact per-trial cutoff losses with a normal 95% CI.

    `source` is a fixed HardInstance or an InstanceFamily; families redraw
    their support each trial (stream-separated), estimating the
    support-averaged loss the constructions bound.  A trial's draws,
    n per sample, are refused past `core.enumeration_budget()` before any
    trial runs.
    """
    if trials < 30:
        raise PreconditionError("need at least 30 trials for the normal CI")
    core._budgeted("draws per trial", n * learner.sample_arity)
    losses = tuple(_trial_loss(learner, source, n, seed, t) for t in range(trials))
    exact_mean = sum(losses, core.ZERO) / trials
    mean = float(exact_mean)
    var = math.fsum((float(l) - mean) ** 2 for l in losses) / (trials - 1)
    stderr = math.sqrt(var / trials)
    half = 1.96 * stderr
    return LossEstimate(
        mean=mean,
        stderr=stderr,
        ci_lo=mean - half,
        ci_hi=mean + half,
        trials=trials,
        losses=losses,
    )


def check_fit_sizes(ns: Sequence[int]) -> None:
    """Refuse sample sizes that `scaling_fit` cannot fit whatever the losses,
    so a caller can refuse them before estimating any loss."""
    if len(ns) < 4:
        raise PreconditionError("scaling fit needs at least 4 points")
    if len(set(ns)) < 2:
        raise PreconditionError("scaling fit needs at least two distinct sample sizes")


def scaling_fit(points: Sequence[tuple[int, float]]) -> ScalingFit:
    """Least squares on (ln n, ln mean-loss); the slope is the decay exponent."""
    points = tuple((int(n), float(loss)) for n, loss in points)
    check_fit_sizes([n for n, _ in points])
    if any(loss <= 0 for _, loss in points):
        raise PreconditionError(
            "scaling fit needs strictly positive losses (try more trials or smaller n)"
        )
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(loss) for _, loss in points]
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - x_bar) ** 2 for x in xs)
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    syy = math.fsum((y - y_bar) ** 2 for y in ys)
    r_squared = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return ScalingFit(sxy / sxx, r_squared)


def interpolator_envelope_bound(d: int, n: int, delta: float) -> float:
    """8 (d Ln^2(2 e n / d) + ln(2/delta)) / n with Ln(x) = max(2, ln x)."""
    if d < 1 or n < 1 or not 0 < delta < 1:
        raise PreconditionError("bound needs d >= 1, n >= 1, 0 < delta < 1")
    ln_term = max(2.0, math.log(2 * math.e * n / d))
    return 8.0 * (d * ln_term**2 + math.log(2 / delta)) / n


def check_quantile_samples(count: int, delta: float) -> None:
    """Refuse a delta outside (0, 1), or fewer than ceil(1/delta) samples,
    whatever the samples are, so a caller can refuse them before drawing any."""
    if not 0 < delta < 1:
        raise PreconditionError("delta must lie in (0, 1)")
    if count < 1 / delta:
        raise PreconditionError(f"need at least {math.ceil(1/delta)} samples")


def quantile_envelope_check(losses, delta: float, bound: float) -> tuple[bool, float]:
    """Empirical (1-delta)-quantile against the bound (clamped at 1).

    Returns (passed, margin).  The quantile is the ceil((1-delta) T)-th order
    statistic.  Bounds above 1 are vacuous and always pass.
    """
    losses = sorted(Fraction(l) for l in losses)
    check_quantile_samples(len(losses), delta)
    idx = math.ceil((1 - delta) * len(losses)) - 1
    quantile = float(losses[idx])
    effective = min(bound, 1.0)
    return quantile <= effective, effective - quantile
