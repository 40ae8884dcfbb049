"""Hard-instance constructions for the lower-bound checks.

Each builder packages a hypothesis class, a realizable distribution (or a
seeded generator over random supports, when the construction averages over
one), the realizability witness, and the sample-size ceiling the
corresponding bound is stated at.  Universe sizes are re-verified by exact
rational inequalities at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


#: Masses over the entries of a drawn support, in draw order.
IndexDistribution = tuple[Fraction, ...]


@dataclass(frozen=True)
class HardInstance:
    theorem: str
    cls: object
    distribution: core.FiniteDistribution
    witness: core.Hypothesis
    gamma: Fraction
    epsilon: Optional[Fraction]
    d: Optional[int]
    universe: Optional[int]
    n_max: Optional[int]


@dataclass(frozen=True)
class InstanceFamily:
    """Seeded generator over hard instances indexed by a random support.

    Every drawn instance shares the family's ``law``, whose i-th mass it puts
    on ``point(support[i])`` with label 0, realized by ``witness(support)``.
    With ``pinned_first`` the first entry is the fixed heavy index 1 and the
    rest come from 2..universe.  The example of every universe entry and the
    draw pool are built once, at construction, after a universe past
    ``core.enumeration_budget()`` is refused.
    """

    theorem: str
    cls: object
    gamma: Fraction
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

    def draw_support(self, rng) -> tuple[int, ...]:
        """The pinned heavy index, if any, then distinct entries drawn
        without replacement."""
        pinned = (1,) if self.pinned_first else ()
        rest = core.sample_without_replacement(
            rng, self._pool, len(self.law.masses) - len(pinned))
        return (*pinned, *rest)

    def instance_for(self, support: tuple[int, ...]) -> HardInstance:
        if support and (min(support) < 1 or max(support) > self.universe):
            raise PreconditionError(f"support entries must lie in 1..{self.universe}")
        witness = self.witness(support)
        examples = self._examples
        atoms = tuple([examples[a - 1] for a in support])
        distribution = core.FiniteDistribution(atoms, self.law, witness)
        return HardInstance(
            theorem=self.theorem,
            cls=self.cls,
            distribution=distribution,
            witness=witness,
            gamma=self.gamma,
            epsilon=self.epsilon,
            d=self.d,
            universe=self.universe,
            n_max=self.n_max,
        )

    def draw_instance(self, rng) -> HardInstance:
        return self.instance_for(self.draw_support(rng))


def uniform_index_masses(count: int) -> IndexDistribution:
    """1/count on each of count entries; refused past enumeration_budget()."""
    core._budgeted("index distribution", count)
    return (Fraction(1, count),) * count


def pinned_index_masses(d: int, epsilon: Fraction) -> IndexDistribution:
    """Index 1 heavy with 1 - 16 eps, the other d-1 indices share 16 eps;
    refused past enumeration_budget()."""
    core._budgeted("index distribution", d)
    epsilon = Fraction(epsilon)
    heavy = core.ONE - DIST_CONSTANT * epsilon
    light = DIST_CONSTANT * epsilon / (d - 1)
    return (heavy,) + (light,) * (d - 1)


# ---------------------------------------------------------------------------
# Proper-rule aggregation lower bound (works for any class)
# ---------------------------------------------------------------------------


def two_tier_distribution(witness, points, light_mass: Fraction) -> core.FiniteDistribution:
    """Heavy mass on the first point, `light_mass` on each of the rest, all
    labeled by the witness."""
    points = tuple(points)
    light_mass = Fraction(light_mass)
    heavy = core.ONE - light_mass * (len(points) - 1)
    if heavy < core.ZERO:
        raise PreconditionError("light masses exceed the total")
    masses = (heavy,) + (light_mass,) * (len(points) - 1)
    return core.FiniteDistribution.from_triples(
        [(x, witness.value_at(x), m) for x, m in zip(points, masses)], witness
    )


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
    light = 4 * epsilon / (d - 1)
    distribution = two_tier_distribution(cert.witness, cert.points, light)
    n_max = math.floor(d / (32 * epsilon))
    instance = HardInstance(
        theorem="thm1",
        cls=cls,
        distribution=distribution,
        witness=cert.witness,
        gamma=gamma,
        epsilon=epsilon,
        d=d,
        universe=None,
        n_max=n_max,
    )
    return instance, cert


# ---------------------------------------------------------------------------
# Finite-aggregation lower bound over the Cantor class
# ---------------------------------------------------------------------------


def thm2_family(gamma: Fraction, d: int, epsilon: Fraction, m_bound: int) -> InstanceFamily:
    """Cantor-class family: universe ceil(2 d m_bound + d/4 + 1), all labels 0,
    heavy index pinned to 1; n_max = floor(d / (128 eps))."""
    gamma, epsilon = Fraction(gamma), Fraction(epsilon)
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
        gamma=gamma,
        epsilon=epsilon,
        d=d,
        universe=universe,
        n_max=n_max,
        law=core.IntegerLaw(pinned_index_masses(d, epsilon)),
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
    """Smallest perfect square i*i satisfying the universe condition, for
    0 < epsilon < 1, in closed form.

    With epsilon = p/q the condition times 2q i^2 reads
    p i^2 - 2q(n'+m) i + 2q n' m >= 0.  The quadratic is negative at
    i = max(n', m), so the smallest i > max(n', m) meeting it is the ceiling of
    its larger root (q(n'+m) + sqrt(D)) / p with D = q^2 (n'+m)^2 - 2pq n' m,
    taken exactly through the integer ceiling of sqrt(D).
    """
    epsilon = Fraction(epsilon)
    p, q = epsilon.numerator, epsilon.denominator
    linear = q * (n_prime + m_bound)
    discriminant = linear * linear - 2 * p * q * n_prime * m_bound
    root = math.isqrt(discriminant - 1) + 1  # ceil(sqrt(D)), as D > 0
    i = -(-(linear + root) // p)
    if not thm3_universe_condition(i, n_prime, m_bound, epsilon) or thm3_universe_condition(
        i - 1, n_prime, m_bound, epsilon
    ):
        raise ArithmeticError(f"closed-form universe root {i} misses the exact condition")
    return i * i


def thm3_family(
    gamma: Fraction,
    epsilon: Fraction,
    n_prime: int,
    m_bound: int,
    universe: Optional[int] = None,
) -> InstanceFamily:
    """Sqrt-size split-class family with uniform mass on a random sqrt(k_u)-set.

    `universe` overrides the ascending-scan choice; it must still be a perfect
    square satisfying the exact universe condition.
    """
    gamma, epsilon = Fraction(gamma), Fraction(epsilon)
    if not core.ZERO < epsilon < core.ONE:
        raise PreconditionError("need 0 < epsilon < 1")
    if n_prime < 1 or m_bound < 1:
        raise PreconditionError("need n' >= 1 and m_bound >= 1")
    if universe is None or universe <= 0:
        universe = thm3_universe_size(n_prime, m_bound, epsilon)
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
        gamma=gamma,
        epsilon=epsilon,
        d=None,
        universe=universe,
        n_max=n_prime,
        law=core.IntegerLaw(uniform_index_masses(root)),
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
    gamma, epsilon = Fraction(gamma), Fraction(epsilon)
    if d < 2:
        raise PreconditionError("need d >= 2")
    if not (core.ZERO < epsilon and float(epsilon) < 1 / (64 * math.e)):
        raise PreconditionError("need 0 < epsilon < 1/(64 e)")
    universe = math.ceil(Fraction(d) / (16 * epsilon))
    if universe <= 2 * d + 1:  # guaranteed by the epsilon range; re-verified
        raise PreconditionError("universe must exceed 2d + 1")
    # transcendental ceiling: evaluated in double precision (documented)
    n_max = math.floor((d / (32 * float(epsilon))) * math.log(1 / (64 * math.e * float(epsilon))))
    cls = core.SplitCantorClass(gamma, core.D_MINUS_ONE_COMPLEMENT, d, universe)
    return InstanceFamily(
        theorem="thm5",
        cls=cls,
        gamma=gamma,
        epsilon=epsilon,
        d=d,
        universe=universe,
        n_max=n_max,
        law=core.IntegerLaw(uniform_index_masses(universe - d + 1)),
        pinned_first=False,
        point=partial(core.Point.pair, universe),
        witness=partial(_complement_witness, cls, universe),
    )
