import collections
import importlib.util
import itertools
import math
import random
import sys
import time
from pathlib import Path

import pytest
from helpers import (
    brute_hall_count,
    reference_count_reflexive,
    reference_idempotent_census,
    reference_multiset_oracle,
)

from hallkit import (
    Relation,
    compose,
    count_hall,
    count_hall_inclusion_exclusion,
    count_preorders,
    count_reflexive,
    enumeration,
    hall_idempotent_census,
    is_hall,
    is_reflexive,
    materialize_hall,
    permutations_lex,
    reflexive_relations,
    relations,
    verification_campaign,
)
from hallkit.enumeration import (
    _column_images,
    _column_orbits,
    _cycle_type_representatives,
    _pair_permanents,
    _reach_masks,
    _step,
)


def test_small_counts_match_brute_force():
    for n in (1, 2, 3):
        assert count_hall(n).total_hall == brute_hall_count(n)


def test_stream_kernel_matches_is_hall_per_matrix():
    import numpy as np

    for n in (1, 2, 3):
        codes = np.arange(1 << (n * n), dtype=np.uint64)
        clear = _reach_masks(n)
        state = np.ones(codes.size, dtype=np.uint64)
        for i in range(n):
            state = _step(state, (codes >> np.uint64(i * n) & np.uint64((1 << n) - 1)).astype(
                np.uint32), clear)
        flags = state >> np.uint64((1 << n) - 1) & np.uint64(1) == 1
        for code, flag in enumerate(flags):
            assert bool(flag) == (is_hall(Relation.from_code(n, code)) is not None)


def test_known_small_counts():
    assert count_hall(1).total_hall == 1
    assert count_hall(2).total_hall == 7
    assert count_hall(3).total_hall == 247
    assert count_hall(4).total_hall == 37823
    assert count_hall(5).total_hall == 23191071


def test_report_fields():
    report = count_hall(2)
    assert report.total_reflexive == 4
    assert report.idempotent_hall == 4
    assert report.idempotents_all_reflexive is True
    assert report.worker_count == 1
    assert report.elapsed_seconds >= 0


def test_report_bounds():
    for n in (1, 2, 3, 4):
        report = count_hall(n)
        assert report.total_reflexive == 1 << (n * (n - 1))
        assert math.factorial(n) <= report.total_hall <= 1 << (n * n)
        assert report.total_hall >= report.total_reflexive


@pytest.mark.parametrize("slab", [7, 1000, relations.SLAB])
def test_count_reflexive_by_scan(monkeypatch, slab):
    # neither 7 nor 1000 divides 2^(n^2), so the reference scan ends on a partial slab
    monkeypatch.setattr(relations, "SLAB", slab)
    for n in (1, 2, 3, 4):
        assert count_reflexive(n) == reference_count_reflexive(n) == 1 << (n * (n - 1))
    for n in (5, 6):
        assert count_reflexive(n) == 1 << (n * (n - 1))


def test_worker_invariance_small():
    base = count_hall(3, workers=1)
    two = count_hall(3, workers=2)
    assert base.total_hall == two.total_hall
    assert two.worker_count == 2


def test_oracle_matches_stream():
    for n in (1, 2, 3, 4, 5):
        assert count_hall_inclusion_exclusion(n) == count_hall(n).total_hall


def test_oracle_matches_multiset_sweep():
    for n in (1, 2, 3, 4, 5):
        assert count_hall_inclusion_exclusion(n) == reference_multiset_oracle(n)


def test_two_methods_agree_at_6():
    start = time.perf_counter()
    oracle = count_hall_inclusion_exclusion(6)
    assert time.perf_counter() - start <= 20
    assert oracle == count_hall(6).total_hall == 54_812_742_655


def test_oracle_runs_no_matching(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not match rows or fold the transfer matrix")

    for name in ("_step", "_reach_masks", "_count", "count_hall"):
        monkeypatch.setattr(enumeration, name, forbidden)
    assert [count_hall_inclusion_exclusion(n) for n in (1, 2, 3, 4, 5)] == [
        1, 7, 247, 37823, 23191071]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_weights_count_ordered_row_sequences(n):
    perms = list(itertools.permutations(range(n)))

    def canonical(rows):
        return min(tuple(sorted(sum(1 << p[c] for c in range(n) if v >> c & 1) for v in rows))
                   for p in perms)

    for m in range(max(n - 2, 0), n):  # m = n-2 (the oracle's rows) and m = n-1
        sequences = itertools.product(range(1, 1 << n), repeat=m)
        groups = collections.Counter(canonical(rows) for rows in sequences)
        reps, weights = _column_orbits(n, m)
        assert dict(zip(map(tuple, reps.tolist()), weights.tolist())) == groups


def test_orbit_weights_sum_to_all_row_sequences():
    for n in (1, 2, 3, 4, 5, 6):
        for m in range(max(n - 2, 0), n):
            assert int(_column_orbits(n, m)[1].sum()) == ((1 << n) - 1) ** m


def test_column_images_move_each_bit():
    for n in (1, 2, 3, 4, 5):
        expected = [[sum(1 << p[c] for c in range(n) if v >> c & 1) for v in range(1 << n)]
                    for p in itertools.permutations(range(n))]
        assert _column_images(n).tolist() == expected


def test_pair_permanents_match_boolean_permanent():
    import numpy as np

    rng = random.Random(20261018)
    for n in (3, 4, 5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        rows = np.array([[rng.randrange(1 << n) for _ in range(n - 2)] for _ in range(40)])
        positive = _pair_permanents(rows, n) > 0
        for a, matrix in enumerate(rows.tolist()):
            for j, (c, d) in enumerate(pairs):
                kept = [col for col in range(n) if col not in (c, d)]
                deleted = Relation(n - 2, tuple(
                    sum(1 << k for k, col in enumerate(kept) if v >> col & 1) for v in matrix))
                assert positive[a, j] == bool(relations.boolean_permanent(deleted))


def test_oracle_small_terms():
    # two permutations of degree 2: 4 + 4 - 1 over the 16 matrices
    assert count_hall_inclusion_exclusion(2) == 7
    assert count_hall_inclusion_exclusion(1) == 1
    assert count_hall_inclusion_exclusion(3) == 247


def test_range_errors():
    with pytest.raises(ValueError):
        count_hall(0)
    with pytest.raises(ValueError):
        count_hall(7)
    with pytest.raises(ValueError):
        count_hall(2, workers=0)
    with pytest.raises(ValueError):
        count_hall_inclusion_exclusion(7)
    with pytest.raises(ValueError):
        count_reflexive(7)
    with pytest.raises(ValueError):
        hall_idempotent_census(5)
    with pytest.raises(ValueError):
        materialize_hall(4)


def test_census_small():
    assert hall_idempotent_census(1) == (1, True)
    assert hall_idempotent_census(2) == (4, True)


def test_census_against_direct_squaring():
    for n in (2, 3, 4):
        expected = sum(1 for r in reflexive_relations(n) if compose(r, r) == r)
        count, all_reflexive = hall_idempotent_census(n)
        assert count == expected
        assert all_reflexive


def cycle_type(image):
    seen, lengths = set(), []
    for start in range(len(image)):
        length, point = 0, start
        while point not in seen:
            seen.add(point)
            point, length = image[point], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_cycle_type_representatives():
    for n, partitions in zip((1, 2, 3, 4, 5, 6), (1, 2, 3, 5, 7, 11)):
        reps = _cycle_type_representatives(n)
        assert len(reps) == partitions
        assert reps[0] == tuple(range(n))
        assert sorted(map(cycle_type, reps)) == sorted(
            {cycle_type(p.image) for p in permutations_lex(n)})


def test_census_matches_full_sweep():
    for n in (1, 2, 3):
        assert hall_idempotent_census(n) == reference_idempotent_census(n)


def test_census_reports_planted_non_reflexive_idempotent(monkeypatch):
    # a block containing the constant map to column 0 holds the idempotent
    # whose every row is {0}, which is not reflexive for n >= 2
    reps = _cycle_type_representatives
    monkeypatch.setattr(enumeration, "_cycle_type_representatives",
                        lambda n: reps(n) + [(0,) * n])
    assert [hall_idempotent_census(n) for n in (1, 2, 3, 4)] == [
        (1, True), (4, False), (29, False), (355, False)]


def test_census_runs_no_matching(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("every swept matrix contains a permutation; no matching is needed")

    for name in ("_step", "_reach_masks", "_count"):
        monkeypatch.setattr(enumeration, name, forbidden)
    assert [hall_idempotent_census(n) for n in (1, 2, 3, 4)] == [
        (1, True), (4, True), (29, True), (355, True)]


def test_preorders_match_census():
    for n in (1, 2, 3, 4):
        assert count_preorders(n) == hall_idempotent_census(n)[0] == count_hall(n).idempotent_hall


def test_preorders_oeis_a000798():
    assert [count_preorders(n) for n in (5, 6)] == [6942, 209527]
    with pytest.raises(ValueError):
        count_preorders(0)
    with pytest.raises(ValueError):
        count_preorders(7)


def test_preorders_share_no_kernel_with_census(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_preorders must not use the census or the matching fold")

    for name in ("_step", "_count", "hall_idempotent_census"):
        monkeypatch.setattr(enumeration, name, forbidden)
    monkeypatch.setattr(relations, "compose", forbidden)
    assert [count_preorders(n) for n in (1, 2, 3, 4, 5)] == [1, 4, 29, 355, 6942]


def test_census_script_exits_1_when_idempotent_methods_disagree(monkeypatch, capsys):
    path = Path(__file__).parents[1] / "scripts" / "hall_census.py"
    spec = importlib.util.spec_from_file_location("hall_census", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["hall_census.py", "--max-n", "3"])
    script.main()
    monkeypatch.setattr(script, "count_preorders", lambda n: 0)
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().out.splitlines()[-1].split()[-3] == "NO"


def test_materialize_reflexive(refl2):
    semi, elems = refl2
    assert semi.size == 4
    assert all(is_reflexive(r) for r in elems)
    assert elems[semi.identity] == Relation.identity(2)


def test_materialize_hall_sizes(hall2, hall3):
    assert hall2[0].size == 7
    assert hall3[0].size == 247
    assert hall3[0].size == count_hall(3).total_hall
    assert hall3[1][hall3[0].identity] == Relation.identity(3)


def test_campaign_degree1():
    report = verification_campaign(1)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "reflexive-monoid-j-trivial",
        "hall-monoid-block-group",
        "block-group-idempotent-equivalence",
        "subset-embedding",
        "semidirect-surjection",
    ]


def test_campaign_degree2():
    report = verification_campaign(2)
    assert report.passed
    surjection = report.checks[-1]
    assert surjection.details["pairs"] == 8
    assert surjection.details["hall_size"] == 7
