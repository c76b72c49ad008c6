import importlib

import pytest

import hallkit

# The names the package exported when it imported its four submodules eagerly.
EXPORTS = {
    "constructions": [
        "FiniteGroup", "GroupAction", "GroupSubset", "as_group", "check_pairs_embedding",
        "conjugation_action", "cyclic_group", "hall_embedding", "hall_factorization",
        "power_semigroup", "project_to_hall", "semidirect_product", "subset_relation",
        "symmetric_group_table", "validate_action",
    ],
    "enumeration": [
        "CampaignReport", "EnumerationReport", "count_hall", "count_hall_inclusion_exclusion",
        "count_preorders", "count_reflexive", "hall_idempotent_census", "materialize_hall",
        "materialize_reflexive", "verification_campaign",
    ],
    "relations": [
        "Permutation", "Relation", "all_relations", "boolean_permanent", "compose", "conjugate",
        "contains", "emit_relmat", "hall_relations", "is_hall", "is_reflexive", "parse_relmat",
        "perm_inverse", "perm_product", "permutations_lex", "reflexive_relations", "relation_of",
        "transpose", "union",
    ],
    "semigroups": [
        "DivisionWitness", "FiniteSemigroup", "GreenSummary", "HomomorphismCheck",
        "adjoin_identity", "check_homomorphism", "emit_cayley", "find_division", "green_summary",
        "idempotent_generated", "idempotents", "is_block_group", "is_j_trivial", "parse_cayley",
        "semigroup_of_relations", "subsemigroup_closure", "validate_table",
    ],
}


def test_every_export_is_the_submodule_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"hallkit.{module}")
        for name in names:
            assert getattr(hallkit, name) is getattr(home, name), name


def test_dir_and_star_import_list_every_export():
    names = {name for names in EXPORTS.values() for name in names}
    assert names <= set(dir(hallkit))
    assert set(hallkit.__all__) == names
    namespace = {}
    exec("from hallkit import *", namespace)
    assert names <= set(namespace)


def test_submodules_and_version_resolve():
    for module in EXPORTS:
        assert getattr(hallkit, module) is importlib.import_module(f"hallkit.{module}")
    assert hallkit.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hallkit.no_such_name  # noqa: B018
    assert not hasattr(hallkit, "no_such_name")


def test_rebound_submodule_attribute_is_seen_through_the_package(monkeypatch):
    # exports are looked up on each access, so wrapping a submodule function is visible
    def wrapped(r, s):
        return None

    monkeypatch.setattr(importlib.import_module("hallkit.relations"), "compose", wrapped)
    assert hallkit.compose is wrapped
