"""Hard-instance constructions for the lower-bound and rate checks.

Each builder packages a hypothesis class, a realizable distribution (or a
family over random supports, when the construction averages over one, whose
`draw_support` takes a stream's seed), the realizability witness, and the
sample-size ceiling the corresponding bound is stated at.  Every fixed
instance is two-tier and comes from `two_tier_instance`.  Universe sizes
are re-verified by exact rational inequalities at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from . import core, dims
from .errors import PreconditionError

#: Distribution constant for the finite-aggregation construction: the heavy
#: index carries 1 - DIST_CONSTANT*eps and the rest split DIST_CONSTANT*eps.
DIST_CONSTANT = 16
#: Sample-size denominator for the same construction: n_max = d / (SAMPLE_DENOM*eps).
SAMPLE_DENOM = 128


@dataclass(frozen=True)
class HardInstance:
    theorem: str
    cls: object
    distribution: core.FiniteDistribution
    witness: core.Hypothesis
    gamma: Fraction
    epsilon: Optional[Fraction] = None
    d: Optional[int] = None
    universe: Optional[int] = None
    n_max: Optional[int] = None


@dataclass(frozen=True)
class InstanceFamily:
    """Seeded generator over hard instances indexed by a random support.

    Every drawn instance shares the family's ``law``, whose i-th mass it puts
    on ``point(support[i])`` with label 0, realized by ``witness(support)``.
    With ``pinned_first`` the first entry is the fixed heavy index 1 and the
    rest come from 2..universe.  The example of every universe entry and the
    draw pool are built once, at construction, after a universe past
    ``core.enumeration_budget()`` is refused.

    `distribution_for` is the one builder of a support's atoms.  A Monte
    Carlo trial scores through it alone and builds no witness;
    `instance_for` adds the witness, for callers that read it.
    """

    theorem: str
    cls: object
    epsilon: Optional[Fraction]
    d: Optional[int]
    universe: int
    n_max: Optional[int]
    law: core.IntegerLaw
    pinned_first: bool
    point: Callable[[int], core.Point]
    witness: Callable[[tuple[int, ...]], core.Hypothesis]

    def __post_init__(self):
        core._budgeted("family universe", self.universe)
        examples = tuple(core.LabeledExample(self.point(a), core.ZERO)
                         for a in range(1, self.universe + 1))
        first = 2 if self.pinned_first else 1
        object.__setattr__(self, "_examples", examples)
        object.__setattr__(self, "_pool", tuple(range(first, self.universe + 1)))

    def draw_support(self, seed: int) -> tuple[int, ...]:
        """The pinned heavy index, if any, then distinct entries drawn
        without replacement from the stream whose seed is `seed`."""
        pinned = (1,) if self.pinned_first else ()
        rest = core.sample_without_replacement(
            core.bits_for(seed), self._pool, len(self.law.masses) - len(pinned))
        return (*pinned, *rest)

    def distribution_for(self, support: tuple[int, ...]) -> core.FiniteDistribution:
        """The family's law on the shared examples of the support entries,
        with no witness: all a Monte Carlo trial scores against.  Entries
        outside 1..universe are refused, and repeated ones by
        `core.FiniteDistribution`."""
        if support and (min(support) < 1 or max(support) > self.universe):
            raise PreconditionError(f"support entries must lie in 1..{self.universe}")
        examples = self._examples
        return core.FiniteDistribution(tuple([examples[a - 1] for a in support]), self.law)

    def instance_for(self, support: tuple[int, ...]) -> HardInstance:
        """`distribution_for(support)` labelled by the support's witness."""
        distribution = self.distribution_for(support)
        witness = self.witness(support)
        return HardInstance(
            theorem=self.theorem,
            cls=self.cls,
            distribution=replace(distribution, witness=witness),
            witness=witness,
            gamma=self.cls.gamma,
            epsilon=self.epsilon,
            d=self.d,
            universe=self.universe,
            n_max=self.n_max,
        )


def two_tier_masses(count: int, light: Fraction) -> tuple[Fraction, ...]:
    """One heavy mass, 1 - light*(count-1), then count-1 masses `light`:
    uniform when light is 1/count.  Refused past enumeration_budget()."""
    core._budgeted("index distribution", count)
    light = Fraction(light)
    heavy = core.ONE - light * (count - 1)
    if heavy < core.ZERO:
        raise PreconditionError("light masses exceed the total")
    return (heavy,) + (light,) * (count - 1)


# ---------------------------------------------------------------------------
# Two-tier instances: the proper-rule lower bound (thm1, any class) and the
# median-of-three rate and interpolator envelope (thm4, lemma-interp)
# ---------------------------------------------------------------------------


def two_tier_instance(theorem, cls, witness, points, light, **fields) -> HardInstance:
    """Heavy mass on the first point, `light` on each of the rest, all
    labeled by the witness; `fields` are the other HardInstance fields."""
    points = tuple(points)
    masses = two_tier_masses(len(points), light)
    distribution = core.FiniteDistribution.from_triples(
        [(x, witness.value_at(x), m) for x, m in zip(points, masses)], witness
    )
    return HardInstance(theorem, cls, distribution, witness, **fields)


def thm1_instance(
    cls, gamma: Fraction, epsilon: Fraction
) -> tuple[HardInstance, dims.ShatterCertificate]:
    """Shattered set from the class's default pool + witness + the
    1-4eps / 4eps/(d-1) two-tier distribution.

    The worst-case interpolator for the instance is
    ``adversarial_interpolator`` applied to the returned certificate.
    """
    gamma, epsilon = Fraction(gamma), Fraction(epsilon)
    if not core.ZERO < epsilon < Fraction(1, 4):
        raise PreconditionError("need 0 < epsilon < 1/4")
    pool = cls.default_pool()
    d = dims.gamma_graph_dimension(cls, pool, gamma)
    if d < 2:
        raise PreconditionError(f"graph dimension must be >= 2, found {d}")
    cert = dims.find_shattered_set(cls, pool, gamma, d)
    instance = two_tier_instance(
        "thm1", cls, cert.witness, cert.points, 4 * epsilon / (d - 1),
        gamma=gamma, epsilon=epsilon, d=d, n_max=math.floor(d / (32 * epsilon)),
    )
    return instance, cert


def thm4_instance(cls: core.CantorClass, n: int) -> HardInstance:
    """Light mass 1/n on each point of the colex-last member set
    {u-d+1, ..., u} of the Cantor class, labeled by that member.  The
    canonical interpolator's fill never lands on this set, so unseen support
    points stay gamma-far."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    members = range(cls.universe - cls.d + 1, cls.universe + 1)
    return two_tier_instance(
        "thm4", cls, cls.hypothesis(members), map(core.Point.nat, members), Fraction(1, n),
        gamma=cls.gamma, d=cls.d, universe=cls.universe,
    )


# ---------------------------------------------------------------------------
# Finite-aggregation lower bound over the Cantor class
# ---------------------------------------------------------------------------


def thm2_family(gamma: Fraction, d: int, epsilon: Fraction, m_bound: int) -> InstanceFamily:
    """Cantor-class family: universe ceil(2 d m_bound + d/4 + 1), all labels 0,
    heavy index pinned to 1; n_max = floor(d / (128 eps))."""
    epsilon = Fraction(epsilon)
    if d < 2:
        raise PreconditionError("need d >= 2")
    if not core.ZERO < epsilon < Fraction(1, 32):
        raise PreconditionError("need 0 < epsilon < 1/32")
    if m_bound < 1:
        raise PreconditionError("need m_bound >= 1")
    universe = math.ceil(2 * d * m_bound + Fraction(d, 4) + 1)
    n_max = math.floor(Fraction(d) / (SAMPLE_DENOM * epsilon))
    cls = core.CantorClass(gamma, d, universe)
    return InstanceFamily(
        theorem="thm2",
        cls=cls,
        epsilon=epsilon,
        d=d,
        universe=universe,
        n_max=n_max,
        law=core.IntegerLaw(two_tier_masses(d, DIST_CONSTANT * epsilon / (d - 1))),
        pinned_first=True,
        point=core.Point.nat,
        witness=cls.hypothesis,
    )


# ---------------------------------------------------------------------------
# Unlearnable-by-finite-aggregation construction (sqrt-size split class)
# ---------------------------------------------------------------------------


def thm3_universe_condition(i: int, n_prime: int, m_bound: int, epsilon: Fraction) -> bool:
    """(1 - n'/i)(1 - m/i) >= 1 - eps/2, exactly, for universe i*i."""
    epsilon = Fraction(epsilon)
    if i <= n_prime or i <= m_bound:
        return False
    lhs = (core.ONE - Fraction(n_prime, i)) * (core.ONE - Fraction(m_bound, i))
    return lhs >= core.ONE - epsilon / 2


def thm3_universe_size(n_prime: int, m_bound: int, epsilon: Fraction) -> int:
    """Smallest perfect square i*i satisfying the universe condition.  It
    fails at i = max(n', m) and only gains as i grows past that, so the
    smallest i is found by doubling, then bisecting, on the condition itself."""
    if not (core.ZERO < Fraction(epsilon) < core.ONE and n_prime >= 1 and m_bound >= 1):
        raise PreconditionError("need 0 < epsilon < 1, n' >= 1 and m_bound >= 1")
    meets = partial(thm3_universe_condition, n_prime=n_prime, m_bound=m_bound, epsilon=epsilon)
    low = high = max(n_prime, m_bound)  # the condition fails at low
    while not meets(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if meets(mid) else (mid, high)
    return high * high


def thm3_family(
    gamma: Fraction,
    epsilon: Fraction,
    n_prime: int,
    m_bound: int,
    universe: Optional[int] = None,
) -> InstanceFamily:
    """Sqrt-size split-class family with uniform mass on a random sqrt(k_u)-set.

    `universe` overrides the smallest valid square, which None or 0 derives;
    it must still be a perfect square satisfying the exact universe condition.
    """
    epsilon = Fraction(epsilon)
    if not core.ZERO < epsilon < core.ONE:
        raise PreconditionError("need 0 < epsilon < 1")
    if n_prime < 1 or m_bound < 1:
        raise PreconditionError("need n' >= 1 and m_bound >= 1")
    if universe is None or universe == 0:
        universe = thm3_universe_size(n_prime, m_bound, epsilon)
    elif universe < 0:
        raise PreconditionError(f"need universe >= 0 (0 derives it), got {universe}")
    root = math.isqrt(universe)
    if root * root != universe or not thm3_universe_condition(root, n_prime, m_bound, epsilon):
        raise PreconditionError(
            f"universe {universe} violates the size condition: need a perfect square"
            f" k with (1 - {n_prime}/sqrt(k)) * (1 - {m_bound}/sqrt(k)) >= 1 - {epsilon}/2"
        )
    cls = core.SplitCantorClass(gamma, core.SQRT_SIZE, None, universe)
    return InstanceFamily(
        theorem="thm3",
        cls=cls,
        epsilon=epsilon,
        d=None,
        universe=universe,
        n_max=n_prime,
        law=core.IntegerLaw(two_tier_masses(root, Fraction(1, root))),
        pinned_first=False,
        point=partial(core.Point.pair, universe),
        witness=partial(cls.hypothesis, universe),
    )


# ---------------------------------------------------------------------------
# Proper-learner lower bound (complement split class)
# ---------------------------------------------------------------------------


def _complement_witness(cls, universe: int, entries) -> core.Hypothesis:
    """Class member zero on every support entry: its members are the rest."""
    support = set(entries)
    return cls.hypothesis(universe, [x for x in range(1, universe + 1) if x not in support])


def thm5_family(gamma: Fraction, d: int, epsilon: Fraction) -> InstanceFamily:
    """Complement split-class family: k_u = ceil(d/(16 eps)), uniform mass
    1/(k_u - d + 1) on a random support, witness zero on all of it;
    n_max = floor((d/(32 eps)) ln(1/(64 e eps)))."""
    epsilon = Fraction(epsilon)
    if d < 2:
        raise PreconditionError("need d >= 2")
    # epsilon < 1 first, so that float(epsilon) cannot overflow
    if not (core.ZERO < epsilon < core.ONE and float(epsilon) < 1 / (64 * math.e)):
        raise PreconditionError("need 0 < epsilon < 1/(64 e)")
    universe = math.ceil(Fraction(d) / (16 * epsilon))
    if universe <= 2 * d + 1:  # guaranteed by the epsilon range; re-verified
        raise PreconditionError("universe must exceed 2d + 1")
    # the law comes first: its budget refuses a d or 1/epsilon too large for
    # the double-precision n_max below
    count = universe - d + 1
    law = core.IntegerLaw(two_tier_masses(count, Fraction(1, count)))
    # transcendental ceiling: evaluated in double precision (documented)
    n_max = math.floor((d / (32 * float(epsilon))) * math.log(1 / (64 * math.e * float(epsilon))))
    cls = core.SplitCantorClass(gamma, core.D_MINUS_ONE_COMPLEMENT, d, universe)
    return InstanceFamily(
        theorem="thm5",
        cls=cls,
        epsilon=epsilon,
        d=d,
        universe=universe,
        n_max=n_max,
        law=law,
        pinned_first=False,
        point=partial(core.Point.pair, universe),
        witness=partial(_complement_witness, cls, universe),
    )
