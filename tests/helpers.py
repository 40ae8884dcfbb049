"""Test-only constructors, views and reference oracles.

Nothing in ``cutofflab`` calls these; the tests use them to build inputs and
to check the package against plain, independent computations.
"""

import functools
import itertools
import math
from fractions import Fraction

from cutofflab import adversaries, core, learners, serialize
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


def reference_max_outdegree(graph, orientation, gamma) -> int:
    """The most edges any vertex of a one-inclusion graph loses to a
    `core.gamma_far` target, walked vertex by vertex over every coordinate
    on the restrictions' Fraction values (0 on a graph with no vertices)."""
    gamma = Fraction(gamma)

    def value(vertex, coord):
        return Fraction(vertex[coord], graph.scale)

    return max(
        (
            sum(
                core.gamma_far(value(orientation[edge_key(v, i)], i), value(v, i), gamma)
                for i in range(len(graph.points))
            )
            for v in graph.vertices
        ),
        default=0,
    )


def shattering_strength(cls: pc.PartialClass) -> int:
    """Number of shattered domain subsets; the empty set counts whenever the
    class is nonempty, and the empty class has strength 0."""
    return len(cls.realizers)


def reference_disambiguate(cls: pc.PartialClass) -> pc.PartialClass:
    """The greedy disambiguation with no memo: at each coordinate the label
    whose restriction of the working class shatters more domain subsets
    (ties toward 1) is written, unless the concept is defined there and
    disagrees; then the concept's label is written and the working class
    keeps the concepts sharing it.  Each restriction's shattered family is
    searched afresh."""
    n = cls.domain_size
    out = []
    for concept in cls.concepts:
        kept = cls.concepts
        written = ""
        for coord, ch in enumerate(concept):
            branches = [tuple(c for c in kept if c[coord] == label) for label in "01"]
            zero, one = (len(pc.PartialClass(n, b).realizers) for b in branches)
            majority = "1" if one >= zero else "0"
            if ch in (pc.STAR, majority):
                written += majority
            else:
                written += ch
                kept = branches[int(ch)]
        out.append(written)
    return pc.PartialClass(n, tuple(out))


def per_concept_disambiguate(cls: pc.PartialClass) -> pc.PartialClass:
    """The greedy disambiguation one concept at a time: each concept walks
    the domain from the whole class, and each (working class, coordinate)
    split is memoized, with the working classes' families filtered from
    their parents' as `pc.disambiguate` filters them."""
    sides = cls.sides
    root = (1 << len(cls.concepts)) - 1
    families = {root: tuple(cls.realizers.values())}

    @functools.cache
    def split(kept, coord):
        zero, one = (kept & side for side in sides[coord])
        for sub in (zero, one):
            if sub not in families:
                families[sub] = [p for p in families[kept] if all(map(sub.__and__, p))]
        return int(len(families[one]) >= len(families[zero])), (zero, one)

    out = []
    for concept in cls.concepts:
        kept = root
        written = ""
        for coord, ch in enumerate(concept):
            label, branches = split(kept, coord)
            if ch != pc.STAR and int(ch) != label:
                label = int(ch)
                kept = branches[label]
            written += "01"[label]
        out.append(written)
    return pc.PartialClass(cls.domain_size, tuple(out))


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


def examples_of(dist, sample) -> core.TrainingSequence:
    """The examples a sample of atom indices names in `dist`, in order."""
    return tuple(dist.atoms[k] for k in sample)


def reference_predictor(learner, samples, dist):
    """The learner's predictor on samples of atom indices into `dist`, with
    no table, memo or shortcut for an `InterpolatorAggregation`: every block
    is fitted by its interpolator on its distinct examples in atom order,
    and the fits are combined afresh at every point.  Any other learner is
    called through `predictor` with a new `learners.FitTable`."""
    if not isinstance(learner, learners.InterpolatorAggregation):
        return learner.predictor(samples, learners.FitTable(dist))
    blocks = [block for sample in samples for block in learner.partitioner.split(sample)]
    fits = [learner.interpolator(examples_of(dist, sorted(set(b)))) for b in blocks]
    return reference_aggregate(learner.rule, fits)


def reference_loss_distribution(learner, instance, n):
    """The exact oracle's plain enumeration: one `reference_predictor` per
    weighted sequence, for any learner deterministic given its samples."""
    dist = instance.distribution
    arity = learner.sample_arity
    out = []
    for combo in itertools.product(range(len(dist.atoms)), repeat=n * arity):
        weight = math.prod((dist.masses[k] for k in combo), start=core.ONE)
        if weight == core.ZERO:
            continue
        samples = tuple(combo[j * n : (j + 1) * n] for j in range(arity))
        predictor = reference_predictor(learner, samples, dist)
        out.append((weight, core.cutoff_loss(predictor, dist, instance.gamma)))
    return out


def reference_trial_loss(learner, source, n, seed, trial):
    """One Monte Carlo trial, drawn as `mc` draws it and scored through
    `reference_predictor`."""
    base = core.stream_seed(seed, trial)
    if isinstance(source, adversaries.InstanceFamily):
        instance = source.instance_for(source.draw_support(core.stream_seed(base, 0)))
    else:
        instance = source
    dist = instance.distribution
    samples = tuple(
        core.sample_iid(dist.law, n, core.stream_seed(base, j + 1))
        for j in range(learner.sample_arity)
    )
    predictor = reference_predictor(learner, samples, dist)
    return core.cutoff_loss(predictor, dist, instance.gamma)


def reference_aggregate(rule, hypotheses):
    """The rule combined afresh at every point, with no shortcut or memo."""
    hs = tuple(hypotheses)
    return lambda x: rule.combine([h.value_at(x) for h in hs])


def reference_cutoff_loss(predictor, dist, gamma) -> Fraction:
    """The cutoff loss with no memo: the total mass of the atoms whose
    prediction is `core.gamma_far` from the label."""
    return sum(
        (mass for ex, mass in zip(dist.atoms, dist.masses)
         if core.gamma_far(predictor(ex.point), ex.label, gamma)),
        core.ZERO,
    )
