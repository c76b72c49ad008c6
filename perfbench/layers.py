"""Catalogue of the per-layer metrics the traced run reports.

Each entry names the metric, its unit, which direction is better, how it is
computed and, in ``moves``, the end-to-end metric and workload it should move.
The list must match ``per_layer`` in BENCHMARK.json (the self-test checks it).

Sources:
  ("self", spans...)       self time, in seconds per traced pass, summed over spans
  ("calls", spans...)      calls per traced pass
  ("count", span, key)     a work count the tracer computes from the call's
                           arguments or result, per traced pass
  ("extra", key)           measured by the workload outside the tracer
  ("trace", key)           derived from the trace itself
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: tuple
    moves: str


_ENUM = ("relations.all_relations", "relations.reflexive_relations", "relations.hall_relations")

METRICS = (
    LayerMetric("relations.compose.calls", "count", "lower", ("calls", "relations.compose"),
                "solve_s on structure"),
    LayerMetric("relations.compose.s", "s", "lower", ("self", "relations.compose"),
                "solve_s on structure"),
    LayerMetric("relations.is_hall.calls", "count", "lower", ("calls", "relations.is_hall"),
                "solve_s on structure; req_p50_ms on cli"),
    LayerMetric("relations.is_hall.s", "s", "lower", ("self", "relations.is_hall"),
                "solve_s on structure; req_p50_ms on cli"),
    LayerMetric("relations.conjugate.s", "s", "lower", ("self", "relations.conjugate"),
                "solve_s on structure"),
    LayerMetric("relations.enumerate.s", "s", "lower", ("self",) + _ENUM,
                "solve_s on structure"),
    LayerMetric("semigroups.semigroup_of_relations.s", "s", "lower",
                ("self", "semigroups.semigroup_of_relations"), "solve_s on structure"),
    LayerMetric("semigroups.semigroup_of_relations.cells", "count", "lower",
                ("count", "semigroups.semigroup_of_relations", "cells"), "solve_s on structure"),
    LayerMetric("semigroups.validate_table.s", "s", "lower", ("self", "semigroups.validate_table"),
                "solve_s on structure"),
    LayerMetric("semigroups.validate_table.triples", "count", "lower",
                ("count", "semigroups.validate_table", "triples"), "solve_s on structure"),
    LayerMetric("semigroups.green_summary.s", "s", "lower", ("self", "semigroups.green_summary"),
                "solve_s on structure"),
    LayerMetric("semigroups.green_summary.elements", "count", "lower",
                ("count", "semigroups.green_summary", "elements"), "solve_s on structure"),
    LayerMetric("semigroups.is_block_group.s", "s", "lower", ("self", "semigroups.is_block_group"),
                "solve_s on structure"),
    LayerMetric("semigroups.idempotent_generated.s", "s", "lower",
                ("self", "semigroups.idempotent_generated"), "solve_s on structure"),
    LayerMetric("semigroups.check_homomorphism.s", "s", "lower",
                ("self", "semigroups.check_homomorphism"), "solve_s on structure"),
    LayerMetric("semigroups.check_homomorphism.pairs", "count", "lower",
                ("count", "semigroups.check_homomorphism", "pairs"), "solve_s on structure"),
    LayerMetric("constructions.power_semigroup.s", "s", "lower",
                ("self", "constructions.power_semigroup"), "solve_s on structure"),
    LayerMetric("constructions.power_semigroup.elements", "count", "lower",
                ("count", "constructions.power_semigroup", "elements"), "solve_s on structure"),
    LayerMetric("constructions.hall_embedding.s", "s", "lower",
                ("self", "constructions.hall_embedding"), "solve_s on structure"),
    LayerMetric("constructions.check_pairs_embedding.s", "s", "lower",
                ("self", "constructions.check_pairs_embedding"), "solve_s on structure"),
    LayerMetric("constructions.check_pairs_embedding.pairs", "count", "lower",
                ("count", "constructions.check_pairs_embedding", "pairs"), "solve_s on structure"),
    LayerMetric("constructions.conjugation_action.s", "s", "lower",
                ("self", "constructions.conjugation_action"), "solve_s on structure"),
    LayerMetric("constructions.validate_action.s", "s", "lower",
                ("self", "constructions.validate_action"), "solve_s on structure"),
    LayerMetric("constructions.semidirect_product.s", "s", "lower",
                ("self", "constructions.semidirect_product"), "solve_s on structure"),
    LayerMetric("constructions.project_to_hall.calls", "count", "lower",
                ("calls", "constructions.project_to_hall"), "solve_s on structure"),
    LayerMetric("constructions.project_to_hall.s", "s", "lower",
                ("self", "constructions.project_to_hall"), "solve_s on structure"),
    LayerMetric("constructions.hall_factorization.s", "s", "lower",
                ("self", "constructions.hall_factorization"), "solve_s on structure"),
    LayerMetric("enumeration.count_hall.s", "s", "lower", ("self", "enumeration.count_hall"),
                "solve_s and cpu_s on census"),
    LayerMetric("enumeration.oracle.s", "s", "lower",
                ("self", "enumeration.count_hall_inclusion_exclusion"),
                "solve_s and cpu_s on census"),
    LayerMetric("enumeration.idempotent_census.s", "s", "lower",
                ("self", "enumeration.hall_idempotent_census"), "solve_s and cpu_s on census"),
    LayerMetric("enumeration.count_reflexive.s", "s", "lower",
                ("self", "enumeration.count_reflexive"), "solve_s and cpu_s on census"),
    LayerMetric("enumeration.count_hall.parallel_efficiency", "ratio", "higher",
                ("extra", "parallel_efficiency"), "solve_s and cpu_s on census"),
    LayerMetric("enumeration.materialize.s", "s", "lower",
                ("self", "enumeration.materialize_hall", "enumeration.materialize_reflexive"),
                "solve_s on structure"),
    LayerMetric("enumeration.campaign.s", "s", "lower",
                ("self", "enumeration.verification_campaign"), "solve_s on structure"),
    LayerMetric("cli.interp_ms", "ms", "lower", ("extra", "interp_ms"),
                "nothing: the interpreter floor under req_p50_ms on cli"),
    LayerMetric("cli.import_ms", "ms", "lower", ("extra", "import_ms"), "req_p50_ms on cli"),
    LayerMetric("cli.dispatch_p50_ms", "ms", "lower", ("extra", "dispatch_p50_ms"),
                "req_p50_ms on cli"),
    LayerMetric("cli.dispatch_tail_ms", "ms", "lower", ("extra", "dispatch_tail_ms"),
                "req_tail_ms on cli"),
    LayerMetric("cli.render_ms", "ms", "lower", ("extra", "render_ms"), "req_p50_ms on cli"),
    LayerMetric("cli.contract_violations", "count", "lower", ("extra", "contract_violations"),
                "the printed fail_ratio on cli"),
    LayerMetric("trace.unattributed_s", "s", "lower", ("trace", "unattributed_s"),
                "nothing: time inside operations that no layer span covers"),
    LayerMetric("trace.overhead", "ratio", "lower", ("trace", "overhead"),
                "nothing: traced solve time over untraced solve time"),
)

# Hot leaves: aggregated per parent span as a count and a total instead of
# being recorded one span per call.
HOT_LAYERS = ("relations",)
HOT = frozenset({
    "constructions.project_to_hall",
    "constructions.hall_factorization",
    "constructions.subset_relation",
})


# Work counts derived from a traced call: name -> f(args, kwargs, result) -> dict.
COUNTERS = {
    "semigroups.semigroup_of_relations": lambda a, k, r: {"cells": len(r[1]) ** 2},
    "semigroups.validate_table": lambda a, k, r: {"triples": r.size ** 3},
    "semigroups.green_summary": lambda a, k, r: {"elements": (a[0] if a else k["s"]).size},
    "semigroups.check_homomorphism": lambda a, k, r: {
        "pairs": (a[1] if len(a) > 1 else k["s"]).size ** 2},
    "constructions.power_semigroup": lambda a, k, r: {"elements": r[0].size},
    "constructions.check_pairs_embedding": lambda a, k, r: {"pairs": r[2]},
}
