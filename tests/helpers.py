"""Test-only constructors, views and reference oracles.

Nothing in ``cutofflab`` calls these; the tests use them to build inputs and
to check the package against plain, independent computations.
"""

import itertools
import math
from fractions import Fraction

from cutofflab import core, serialize
from cutofflab import partial as pc


def training_sequence(pairs) -> core.TrainingSequence:
    """Labelled examples from (point, label) pairs, in order."""
    return tuple(core.LabeledExample(p, Fraction(y)) for p, y in pairs)


def table_hypothesis(mapping, default=core.ZERO) -> core.TableHypothesis:
    """A lookup table from a point -> value mapping, sorted by point."""
    items = tuple(sorted((p, Fraction(v)) for p, v in mapping.items()))
    return core.TableHypothesis(items, Fraction(default))


def distribution_to_json(dist: core.FiniteDistribution):
    """The record `serialize.distribution_from_json` reads back."""
    out = {
        "kind": "finite_distribution",
        "atoms": [
            {
                "point": serialize.point_to_json(ex.point),
                "label": serialize.rational_to_str(ex.label),
                "mass": serialize.rational_to_str(mass),
            }
            for ex, mass in zip(dist.atoms, dist.masses)
        ],
    }
    if dist.witness is not None:
        out["witness"] = serialize.hypothesis_to_json(dist.witness)
    return out


def edge_key(vertex, coord: int):
    """Key of the one-inclusion graph's edge through `vertex` along `coord`."""
    return (coord, vertex[:coord] + vertex[coord + 1 :])


def shattering_strength(cls: pc.PartialClass) -> int:
    """Number of shattered domain subsets; the empty set counts whenever the
    class is nonempty, and the empty class has strength 0."""
    return len(cls.shattered_family)


def loss_pattern_reduction(cls, examples, gamma) -> pc.PartialClass:
    """Partial concepts recording each hypothesis's loss pattern on examples:
    '0' exact match, '*' a nonzero error within gamma, '1' an error beyond
    gamma.  The VC dimension of the result is at most the gamma-graph
    dimension of the source class."""
    examples = tuple(examples)
    gamma = Fraction(gamma)
    pc.check_domain_size(len(examples))
    rows = set()
    for h in cls.hypotheses:
        chars = []
        for ex in examples:
            try:
                value = h.value_at(ex.point)
            except core.DomainMismatchError:
                value = None  # off its domain a hypothesis counts as far
            if value == ex.label:
                chars.append("0")
            elif value is None or core.gamma_far(value, ex.label, gamma):
                chars.append("1")
            else:
                chars.append(pc.STAR)
        rows.add("".join(chars))
    return pc.PartialClass(len(examples), tuple(rows))


def reference_loss_distribution(learner, instance, n):
    """The exact oracle's plain enumeration: one fit per weighted sequence,
    for any learner deterministic given its samples."""
    dist = instance.distribution
    arity = learner.sample_arity
    weighted = list(zip(dist.masses, dist.atoms))
    out = []
    for combo in itertools.product(weighted, repeat=n * arity):
        weight = math.prod((mass for mass, _ in combo), start=core.ONE)
        if weight == core.ZERO:
            continue
        examples = [ex for _, ex in combo]
        samples = tuple(tuple(examples[j * n : (j + 1) * n]) for j in range(arity))
        predictor = learner.predictor(samples)
        out.append((weight, core.cutoff_loss(predictor, dist, instance.gamma)))
    return out
