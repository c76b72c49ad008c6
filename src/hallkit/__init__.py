"""Finite-semigroup toolkit for reflexive and Hall relation monoids.

Package exports are lazy: ``hallkit.<name>`` imports the submodule that
defines the name on first use (PEP 562), so ``import hallkit`` alone does not
load numpy. The pure-relation layer
(``hallkit.relations``) needs no numpy until a batched product is asked for.
Names are looked up in their submodule on every access, never copied here, so
rebinding a submodule attribute is seen through ``hallkit.<name>`` too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constructions": (
        "FiniteGroup",
        "GroupAction",
        "GroupSubset",
        "as_group",
        "check_pairs_embedding",
        "conjugation_action",
        "cyclic_group",
        "hall_embedding",
        "hall_factorization",
        "power_semigroup",
        "project_to_hall",
        "semidirect_product",
        "subset_relation",
        "symmetric_group_table",
        "validate_action",
    ),
    "enumeration": (
        "CampaignReport",
        "EnumerationReport",
        "count_hall",
        "count_hall_inclusion_exclusion",
        "count_preorders",
        "count_reflexive",
        "hall_idempotent_census",
        "materialize_hall",
        "materialize_reflexive",
        "verification_campaign",
    ),
    "relations": (
        "Permutation",
        "Relation",
        "all_relations",
        "boolean_permanent",
        "compose",
        "conjugate",
        "contains",
        "emit_relmat",
        "hall_relations",
        "is_hall",
        "is_reflexive",
        "parse_relmat",
        "perm_inverse",
        "perm_product",
        "permutations_lex",
        "reflexive_relations",
        "relation_of",
        "transpose",
        "union",
    ),
    "semigroups": (
        "DivisionWitness",
        "FiniteSemigroup",
        "GreenSummary",
        "HomomorphismCheck",
        "adjoin_identity",
        "check_homomorphism",
        "emit_cayley",
        "find_division",
        "green_summary",
        "idempotent_generated",
        "idempotents",
        "is_block_group",
        "is_j_trivial",
        "parse_cayley",
        "semigroup_of_relations",
        "subsemigroup_closure",
        "validate_table",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
