"""Exact enumeration oracles, seeded Monte Carlo estimation, scaling fits.

Per-trial losses are exact rationals; only the aggregate mean / CI convert to
floating point, which keeps Monte Carlo error cleanly separated from
arithmetic error.  Float sums go through `math.fsum`, which rounds correctly
on every Python version.  Trials are stream-indexed off the master seed, so
results are identical under any execution order.

A sample is a tuple of atom indices from the draw to the fit, and a learner
fits through a `learners.FitTable` of one distribution: one per oracle call,
one per Monte Carlo run on a fixed instance, and one per distinct (support,
samples) of a family run, whose trials each draw a new distribution.  A
family trial builds only what its score reads: the seeds of its streams,
from `core.trial_seeds`, give its support and samples, and a new pair
builds its support's distribution with no witness and no `HardInstance`.
The exact oracle splits block positions once per call, and `_mass_by_loss`
sums its pairs by object into a law, {loss: probability}, before any Fraction
adds; `law_mean` and `law_exceed` give every exact mean and tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import core, learners
from .adversaries import HardInstance, InstanceFamily
from .errors import PreconditionError


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
    enumerates the triple product.  Its draws per trial, then its
    sequences, are charged to `core.enumeration_budget()`.  The learner must
    be a `learners.InterpolatorAggregation`, a function of the seen sets of
    its `seen_blocks`: it is scored once per distinct tuple of them, and
    every sequence with that tuple shares the loss.  Any other learner is
    refused before any fit.  Its predictors take the sequences' atom
    indices and fit through one `learners.FitTable` per call, so each seen
    set is fitted once.

    A partitioner picks block positions from a sample's length alone, so
    the blocks are split once per call, on position tuples, and a
    sequence's key reads its atoms at those positions; only a new key
    builds the samples.  Sequences of one integer weight share one
    probability object.
    """
    dist = instance.distribution
    arity = learner.sample_arity
    total_len = n * arity
    support = len(dist.atoms)
    core._budgeted("draws per trial", total_len)
    core._budgeted("oracle sequences", support**total_len)
    if not isinstance(learner, learners.InterpolatorAggregation):
        raise PreconditionError(
            "the exact oracle scores only an InterpolatorAggregation, a function of seen sets")
    weights = dist.law.weights
    denominator = dist.law.denominator**total_len
    positions = learner.seen_blocks(
        tuple(tuple(range(j * n, (j + 1) * n)) for j in range(arity)))
    table = learners.FitTable(dist)
    losses: dict[tuple, Fraction] = {}
    probabilities: dict[int, Fraction] = {}
    out = []
    for combo in itertools.product(range(support), repeat=total_len):
        weight = math.prod([weights[k] for k in combo])
        if weight == 0:
            continue
        key = tuple([frozenset([combo[p] for p in block]) for block in positions])
        loss = losses.get(key)
        if loss is None:
            samples = tuple(combo[j * n : (j + 1) * n] for j in range(arity))
            loss = losses[key] = _score(learner, samples, table, dist, instance.gamma)
        probability = probabilities.get(weight)
        if probability is None:
            probability = probabilities[weight] = Fraction(weight, denominator)
        out.append((probability, loss))
    return out


def _mass_by_loss(pairs) -> dict[Fraction, Fraction]:
    """Total probability of each distinct loss among (probability, loss)
    pairs.  The pairs are counted first, by the ids of their two objects;
    then each loss object's mass is summed per probability denominator as
    integer numerators times counts.  The oracle's sequences share one
    probability object per weight and one loss object per fit, and the
    Monte Carlo trials that share a score share its loss object, so the
    groups are few, and no Fraction is hashed or added per pair."""
    counts: dict[tuple[int, int], list] = {}
    for pair in pairs:  # each id pair's first pair is kept, so no id is reused
        key = id(pair[0]), id(pair[1])
        entry = counts.get(key)
        if entry is None:
            counts[key] = [pair, 1]
        else:
            entry[1] += 1
    groups: dict[tuple[int, int], list] = {}
    for (w, loss), count in counts.values():
        groups.setdefault((id(loss), w.denominator), [loss, 0])[1] += w.numerator * count
    masses: dict[Fraction, Fraction] = {}
    for (_, denominator), (loss, numerator) in groups.items():
        masses[loss] = masses.get(loss, core.ZERO) + Fraction(numerator, denominator)
    return masses


def law_mean(law: dict[Fraction, Fraction]) -> Fraction:
    """The exact mean of a law given as {loss: probability}."""
    return sum((mass * loss for loss, mass in law.items()), core.ZERO)


def law_exceed(law: dict[Fraction, Fraction], threshold) -> Fraction:
    """The exact P[loss > threshold] under a law given as {loss: probability}."""
    threshold = Fraction(threshold)
    return sum((mass for loss, mass in law.items() if loss > threshold), core.ZERO)


def exact_expected_loss(learner, instance: HardInstance, n: int) -> Fraction:
    """Exact E[loss] by weighted enumeration of all sample sequences."""
    return law_mean(_mass_by_loss(exact_loss_distribution(learner, instance, n)))


def exact_exceed_probability(learner, instance: HardInstance, n: int, threshold) -> Fraction:
    return law_exceed(_mass_by_loss(exact_loss_distribution(learner, instance, n)), threshold)


def complement_family_law(family, n: int) -> dict[Fraction, Fraction]:
    """The exact loss law, as {loss: probability}, of proper ERM on a
    complement-split family (thm5's) with n >= 1 draws, averaged over the
    family's uniformly random supports.

    The support S holds u - d + 1 of the u indices of block u, each of mass
    1/(u - d + 1), and the witness is nonzero on the d - 1 others, A*.  With
    j >= 1 distinct indices seen, A* is a uniform (d - 1)-subset of the
    u - j unseen ones, whatever the seen set.  ERM outputs the class's fill,
    the member A whose d - 1 indices are the smallest unseen ones; the
    argument reads only that A is a member of block u avoiding every seen
    index, so the law holds for every consistent proper learner.  The
    overlap k = |A & A*| is hypergeometric, and the loss is the mass of A
    outside A*: (d - 1 - k)/(u - d + 1).  The number j follows the
    occupancy law of n draws from u - d + 1 equal atoms, whose recurrence
    is charged n * (u - d + 1) to `core.enumeration_budget()`.
    """
    cls = family.cls if isinstance(family, InstanceFamily) else None
    if not (isinstance(cls, core.SplitCantorClass)
            and cls.variant == core.D_MINUS_ONE_COMPLEMENT and not family.pinned_first
            and len(set(family.law.weights)) == 1
            and len(family.law.weights) == family.universe - cls.size_param + 1):
        raise PreconditionError(
            "the complement law needs a d-1 complement family, uniform on u - d + 1 atoms")
    if n < 1:
        raise PreconditionError(f"the complement law needs n >= 1, got {n}")
    u, d = family.universe, cls.size_param
    atoms = u - d + 1
    core._budgeted("complement law", n * atoms)
    # ways[j]: the draw sequences so far that see exactly j distinct atoms
    ways = [1]
    for _ in range(n):
        ways = [(ways[j] * j if j < len(ways) else 0)
                + (ways[j - 1] * (atoms - j + 1) if j else 0)
                for j in range(len(ways) + 1)]
    law: dict[Fraction, Fraction] = {}
    for j, count in enumerate(ways):
        if not count:
            continue
        p_seen = Fraction(count, atoms**n)
        for k in range(d):
            ways_k = math.comb(d - 1, k) * math.comb(u - j - d + 1, d - 1 - k)
            if ways_k:
                loss = Fraction(d - 1 - k, atoms)
                law[loss] = law.get(loss, core.ZERO) + p_seen * Fraction(
                    ways_k, math.comb(u - j, d - 1))
    return law


def _draw(law: core.IntegerLaw, n: int, seeds) -> tuple:
    """A trial's samples: n atom indices from `law` on each stream seed of
    `seeds`, one per sample."""
    return tuple(core.sample_iid(law, n, seed) for seed in seeds)


def _score(learner, samples, table, dist: core.FiniteDistribution, gamma: Fraction) -> Fraction:
    """The exact loss on `dist` of the learner's predictor on `samples`,
    fitted through `table`."""
    return core.cutoff_loss(learner.predictor(samples, table), dist, gamma)


def _trial_losses(learner, source, n: int, trials: int, seed: int) -> tuple[Fraction, ...]:
    """Every trial's exact loss, in trial order.

    On a fixed instance every trial fits through one table of its
    distribution.  A family trial draws its support from stream 0 of the
    trial's seed and its samples from the family's law before it builds
    anything.  Its loss is a function of that (support, samples) pair, as
    the family's distributions and every learner are deterministic, so the
    run scores each distinct pair once and keeps the loss in a memo that
    lives as long as the run.  The memo is a `core.BoundedTable` that
    counts len(support) + n * sample_arity indices per pair.

    A new pair builds only what its score reads: the support's
    distribution, `InstanceFamily.distribution_for`, with no witness and no
    `HardInstance`, and a new table.  The cutoff gamma is read once per
    run, from the family's class.

    Trial t's support and its sample j draw from streams 0 and j of
    ``stream_seed(seed, t)``, whose seeds `core.trial_seeds` derives.
    """
    if not isinstance(source, InstanceFamily):
        dist, gamma = source.distribution, source.gamma
        table = learners.FitTable(dist)
        return tuple(
            _score(learner, _draw(dist.law, n, sample_seeds), table, dist, gamma)
            for sample_seeds in core.trial_seeds(
                seed, trials, range(1, learner.sample_arity + 1)))
    drawn = n * learner.sample_arity
    memo = core.BoundedTable(lambda key: len(key[0]) + drawn)
    gamma = source.cls.gamma
    losses = []
    for support_seed, *sample_seeds in core.trial_seeds(
            seed, trials, range(learner.sample_arity + 1)):
        support = source.draw_support(support_seed)
        samples = _draw(source.law, n, sample_seeds)
        loss = memo.get((support, samples))
        if loss is None:
            dist = source.distribution_for(support)
            loss = _score(learner, samples, learners.FitTable(dist), dist, gamma)
            memo[support, samples] = loss
        losses.append(loss)
    return tuple(losses)


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
    n per sample, then the run's blocks, trials times blocks per trial, are
    refused past `core.enumeration_budget()` before any trial runs.

    Each trial draws atom indices and calls `predictor(samples, table)`
    with a `learners.FitTable` that serves one distribution: one per run on
    a fixed instance, and one per distinct (support, samples) of a family
    run (`_trial_losses`).  The exact mean is summed once per distinct loss
    object; the variance sums every trial's float.
    """
    if trials < 30:
        raise PreconditionError("need at least 30 trials for the normal CI")
    core._budgeted("draws per trial", n * learner.sample_arity)
    # a learner with no partitioner reads each sample as one block
    blocks = getattr(getattr(learner, "partitioner", None), "m", 1)
    core._budgeted("blocks per run", trials * learner.sample_arity * blocks)
    losses = _trial_losses(learner, source, n, trials, seed)
    mean = float(law_mean(_mass_by_loss(zip(itertools.repeat(Fraction(1, trials)), losses))))
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


def _exact_delta(delta) -> Fraction:
    """delta as the exact Fraction of the decimal it prints as: 0.7 reads as
    7/10, so 1 - delta is 3/10, where the floats give 0.30000000000000004
    and a ceiling one too high.  A delta with no such decimal (NaN, inf, a
    bool) is refused as outside (0, 1)."""
    try:
        return Fraction(str(delta))
    except (TypeError, ValueError):
        raise PreconditionError("need 0 < delta < 1") from None


def check_quantile_samples(count: int, delta) -> None:
    """Refuse a delta outside (0, 1), or fewer than ceil(1/delta) samples,
    whatever the samples are, so a caller can refuse them before drawing any.
    Both are decided on the exact delta (`_exact_delta`)."""
    exact = _exact_delta(delta)
    if not core.ZERO < exact < core.ONE:
        raise PreconditionError("need 0 < delta < 1")
    need = 1 / exact
    if count < need:
        # named as 1/delta past 2^64, as a budget names its sizes
        at_least = math.ceil(need) if need <= 1 << 64 else f"1/{delta}"
        raise PreconditionError(f"need at least {at_least} samples")


def quantile_envelope_check(losses, delta, bound: float) -> tuple[bool, float]:
    """Empirical (1-delta)-quantile against the bound (clamped at 1).

    Returns (passed, margin).  The quantile is the ceil((1-delta) T)-th order
    statistic, its index taken on the exact delta (`_exact_delta`).  Bounds
    above 1 are vacuous and always pass.
    """
    losses = sorted(Fraction(l) for l in losses)
    check_quantile_samples(len(losses), delta)
    idx = math.ceil((1 - _exact_delta(delta)) * len(losses)) - 1
    quantile = float(losses[idx])
    effective = min(bound, 1.0)
    return quantile <= effective, effective - quantile
