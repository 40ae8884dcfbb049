"""Which public entry points of cutofflab the traced run wraps, what each
counts, and how the per-layer metrics are read off the spans."""

from __future__ import annotations

from tracer import self_times

#: Span names whose self time is reported, in layer order.
LAYER_SPANS = (
    "core.sample_iid",
    "core.first_consistent",
    "core.cutoff_loss",
    "core.FiniteDistribution.from_triples",
    "adversaries.draw_instance",
    "learners.predictor",
    "mc.mc_expected_loss",
    "mc.exact_loss_distribution",
    "dims.find_shattered_set",
    "dims.build_oig",
    "dims.orient",
    "partial.partial_vc_dimension",
    "partial.disambiguate",
    "experiments.random_partial_class",
    "experiments.reproduce",
    "cli.main",
)

#: Counters reported per pass; every one must repeat exactly between passes.
COUNTERS = (
    "core.sample_iid.calls",
    "core.sample_iid.draws",
    "core.first_consistent.calls",
    "core.cutoff_loss.calls",
    "core.cutoff_loss.atoms",
    "core.FiniteDistribution.from_triples.calls",
    "adversaries.draw_instance.calls",
    "learners.predictor.calls",
    "mc.mc_expected_loss.calls",
    "mc.trials",
    "mc.exact_loss_distribution.calls",
    "mc.exact_loss_distribution.sequences",
    "dims.find_shattered_set.calls",
    "dims.build_oig.calls",
    "dims.build_oig.vertices",
    "partial.partial_vc_dimension.calls",
    "partial.disambiguate.calls",
    "cli.main.calls",
)

PASS_SPAN = "bench.pass"
SAMPLER_SPAN = "experiments.random_partial_class"


def _draws(counter, args, kwargs, result):
    counter["core.sample_iid.draws"] += len(result)


def _atoms(counter, args, kwargs, result):
    dist = args[1] if len(args) > 1 else kwargs["dist"]
    counter["core.cutoff_loss.atoms"] += len(dist.atoms)


def _trials(counter, args, kwargs, result):
    counter["mc.trials"] += result.trials


def _sequences(counter, args, kwargs, result):
    counter["mc.exact_loss_distribution.sequences"] += len(result)


def _vertices(counter, args, kwargs, result):
    counter["dims.build_oig.vertices"] += len(result.vertices)


def install(tracer) -> None:
    """Wrap every traced entry point by module or class attribute."""
    from cutofflab import adversaries, cli, core, dims, experiments, learners, mc
    from cutofflab import partial

    tracer.patch(core, "sample_iid", "core.sample_iid", _draws)
    tracer.patch_methods(core, "first_consistent", "core.first_consistent")
    tracer.patch(core, "cutoff_loss", "core.cutoff_loss", _atoms)
    tracer.patch(
        core.FiniteDistribution, "from_triples", "core.FiniteDistribution.from_triples"
    )
    tracer.patch_methods(adversaries, "draw_instance", "adversaries.draw_instance")
    # the returned predictor runs later, inside cutoff_loss, and is timed there
    tracer.patch_methods(learners, "predictor", "learners.predictor")
    tracer.patch(mc, "mc_expected_loss", "mc.mc_expected_loss", _trials)
    tracer.patch(mc, "exact_loss_distribution", "mc.exact_loss_distribution", _sequences)
    tracer.patch(dims, "find_shattered_set", "dims.find_shattered_set")
    tracer.patch(dims, "build_oig", "dims.build_oig", _vertices)
    for name in ("orient_smallest_value", "exhaustive_orientation_min", "max_gamma_outdegree"):
        tracer.patch(dims, name, "dims.orient")
    tracer.patch(partial, "partial_vc_dimension", "partial.partial_vc_dimension")
    tracer.patch(partial, "disambiguate", "partial.disambiguate")
    tracer.patch(experiments, "random_partial_class", SAMPLER_SPAN)
    tracer.patch(experiments, "reproduce", "experiments.reproduce")
    tracer.patch(cli, "main", "cli.main")


def accept_ratio(spans, run_ids) -> float:
    """Random partial classes accepted over those generated by the sampler.

    Every class the sampler generates is tested by one partial_vc_dimension
    call made directly under its span; each sampler call returns one class.
    """
    parents = {}
    generated = accepted = 0
    for idx, (name, _, _, parent, run_id) in enumerate(spans):
        if run_id not in run_ids:
            continue
        parents[idx] = name
        if name == SAMPLER_SPAN:
            accepted += 1
        elif name == "partial.partial_vc_dimension" and parents.get(parent) == SAMPLER_SPAN:
            generated += 1
    return accepted / generated if generated else 0.0


def per_layer(tracer, run_ids, to_reference: float) -> dict:
    """Per-layer metrics over the traced passes ``run_ids``.

    Self times are given as a percentage of the traced pass time, so a layer
    that does not run on a workload reads 0 rather than a constant time.
    ``to_reference`` converts wall seconds to reference seconds.
    """
    selfs = self_times(tracer.spans, run_ids)
    total_ns = sum(end - start for name, start, end, _, run_id in tracer.spans
                   if name == PASS_SPAN and run_id in run_ids)
    counts = tracer.counts[run_ids[0]]
    metrics = {key: {"value": counts.get(key, 0), "unit": "count"} for key in COUNTERS}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_pct"] = {
            "value": 100.0 * selfs.get(name, 0) / total_ns, "unit": "%"
        }
    sampler_s = selfs.get("core.sample_iid", 0) / 1e9 / len(run_ids) * to_reference
    metrics["core.sample_iid.draws_per_s"] = {
        "value": counts.get("core.sample_iid.draws", 0) / sampler_s if sampler_s else 0.0,
        "unit": "1/s",
    }
    metrics["partial.accept_ratio"] = {
        "value": accept_ratio(tracer.spans, set(run_ids)), "unit": "ratio"
    }
    metrics["trace.unattributed_pct"] = {
        "value": 100.0 * selfs.get(PASS_SPAN, 0) / total_ns, "unit": "%"
    }
    return metrics
