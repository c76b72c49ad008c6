"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import time

from helpers import brute_hall_count, random_relation_semigroups

import hallkit as hk
from hallkit import (
    Relation,
    check_homomorphism,
    check_pairs_embedding,
    conjugation_action,
    count_hall,
    count_hall_inclusion_exclusion,
    count_reflexive,
    cyclic_group,
    find_division,
    green_summary,
    hall_embedding,
    hall_factorization,
    hall_idempotent_census,
    idempotent_generated,
    is_block_group,
    is_j_trivial,
    permutations_lex,
    power_semigroup,
    project_to_hall,
    semidirect_product,
    symmetric_group_table,
)
from hallkit.cli import dispatch, render


def verdict(num, ok, message):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_criterion_1_hall_counts():
    small_ok = True
    for n, expected in ((1, 1), (2, 7), (3, 247)):
        streamed = count_hall(n).total_hall
        small_ok &= streamed == expected == brute_hall_count(n)

    t0 = time.perf_counter()
    stream4 = count_hall(4).total_hall
    t4 = time.perf_counter() - t0
    oracle4 = count_hall_inclusion_exclusion(4)

    t0 = time.perf_counter()
    stream5 = count_hall(5).total_hall
    t5 = time.perf_counter() - t0
    oracle5 = count_hall_inclusion_exclusion(5)

    stream6 = count_hall(6).total_hall
    t0 = time.perf_counter()
    oracle6 = count_hall_inclusion_exclusion(6)
    t6 = time.perf_counter() - t0

    ok = (
        small_ok
        and stream4 == oracle4
        and stream5 == oracle5
        and stream6 == oracle6 == 54_812_742_655
        and t4 < 5.0
        and t5 < 300.0
        and t6 <= 20.0
    )
    verdict(
        1,
        ok,
        f"counts 1,7,247 by brute force; n=4 stream {stream4} = oracle ({t4:.2f}s);"
        f" n=5 stream {stream5} = oracle ({t5:.1f}s);"
        f" n=6 stream {stream6} = oracle ({t6:.1f}s)",
    )


def test_criterion_2_reflexive_counts():
    expected = {1: 1, 2: 4, 3: 64, 4: 4096, 5: 1_048_576, 6: 1_073_741_824}
    scanned = {n: count_reflexive(n) for n in range(1, 7)}
    ok = scanned == expected
    verdict(2, ok, f"reflexive counts by row-value scan: {scanned}")


def test_criterion_3_hall_idempotents_reflexive():
    results = {n: hall_idempotent_census(n) for n in range(1, 5)}
    ok = all(all_reflexive for _, all_reflexive in results.values())
    verdict(
        3,
        ok,
        "every idempotent Hall relation contains the diagonal for n<=4; counts "
        + str({n: c for n, (c, _) in results.items()}),
    )


def test_criterion_4_structure_checks(hall2, hall3, refl2, refl3):
    h2_block = is_block_group(hall2[0]) == (True, None)
    h3_block = is_block_group(hall3[0]) == (True, None)
    r2_jt = is_j_trivial(refl2[0])
    r3_jt = is_j_trivial(refl3[0])
    j_sizes = sorted(len(c) for c in green_summary(hall2[0]).j_classes)
    ok = h2_block and h3_block and r2_jt and r3_jt and j_sizes == [1, 2, 4]
    verdict(
        4,
        ok,
        f"H2/H3 block-groups, R2/R3 J-trivial, H2 J-class sizes {set(j_sizes)}",
    )


def test_criterion_5_embedding_catalog():
    groups = [(f"cyclic:{m}", cyclic_group(m)) for m in range(2, 7)]
    groups.append(("symmetric:3", symmetric_group_table(3)))
    t0 = time.perf_counter()
    ok = True
    total_pairs = 0
    for _, group in groups:
        injective, multiplicative, pairs = check_pairs_embedding(group, hall_embedding(group))
        ok &= injective and multiplicative
        total_pairs += pairs
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    verdict(
        5,
        ok,
        f"subset embedding injective and multiplicative over {total_pairs} pairs"
        f" for 6 catalog groups ({elapsed:.2f}s)",
    )


def test_criterion_6_semidirect_surjection(hall2, hall3, refl2, refl3):
    sizes = {}
    ok = True
    for n, (hall, hall_elems), (_, refl_elems) in (
        (2, hall2, refl2),
        (3, hall3, refl3),
    ):
        action = conjugation_action(n)
        product, pairs = semidirect_product(action.target, action.group, action)
        perms = permutations_lex(n)
        index = {r: i for i, r in enumerate(hall_elems)}
        mapping = tuple(
            index[project_to_hall(refl_elems[mi], perms[gi])] for (mi, gi) in pairs
        )
        hom = check_homomorphism(mapping, product, hall)
        roundtrip = all(
            project_to_hall(*hall_factorization(sigma)) == sigma for sigma in hall_elems
        )
        sizes[n] = (product.size, hall.size)
        ok &= hom.is_homomorphism and hom.surjective and roundtrip
    ok &= sizes == {2: (8, 7), 3: (384, 247)}
    verdict(6, ok, f"surjections verified with sizes {sizes} and full round-trips")


def test_criterion_7_equivalence_catalog(hall2, hall3, refl2, refl3, full2):
    named = [
        hall2[0], hall3[0], refl2[0], refl3[0],
        hk.materialize_hall(1)[0], hk.materialize_reflexive(1)[0],
    ]
    for m in range(2, 7):
        named.append(power_semigroup(cyclic_group(m).base)[0])
    named.append(power_semigroup(symmetric_group_table(3).base)[0])
    checked = 0
    ok = True
    for semi in named:
        ok &= is_block_group(semi)[0] == is_j_trivial(idempotent_generated(semi))
        checked += 1

    full_semi, full_elems = full2
    flag, pair = is_block_group(full_semi)
    witness_ok = (
        not flag
        and full_elems[pair[0]] == Relation.from_pairs(2, [(1, 1)])
        and full_elems[pair[1]] == Relation.from_pairs(2, [(1, 1), (2, 1)])
    )
    ok &= witness_ok
    ok &= not flag and not is_j_trivial(idempotent_generated(full_semi))
    checked += 1

    for semi in random_relation_semigroups(100):
        ok &= is_block_group(semi)[0] == is_j_trivial(idempotent_generated(semi))
        checked += 1
    verdict(
        7,
        ok,
        f"block-group flag matches idempotent-closure J-triviality on {checked}"
        " semigroups; expected witness pair reported for the full relation monoid",
    )


def test_criterion_8_determinism(tmp_path):
    payloads = []
    for workers in (1, 2, 8):
        report = count_hall(4, workers=workers)
        payloads.append(
            json.dumps(
                {
                    "n": report.n,
                    "total_hall": report.total_hall,
                    "total_reflexive": report.total_reflexive,
                    "idempotent_hall": report.idempotent_hall,
                    "idempotents_all_reflexive": report.idempotents_all_reflexive,
                },
                sort_keys=True,
            )
        )
    counts_ok = payloads[0] == payloads[1] == payloads[2]

    relfile = tmp_path / "r.rel"
    relfile.write_text("2\n11\n10\n")
    cli_ok = True
    for argv in (
        ["count-hall", "--n", "3", "--no-timing"],
        ["campaign", "--n", "2", "--no-timing"],
        ["check-hall", str(relfile)],
    ):
        first, code1 = dispatch(argv)
        second, code2 = dispatch(argv)
        cli_ok &= render(first) == render(second) and code1 == code2
    ok = counts_ok and cli_ok
    verdict(8, ok, "count_hall(4) byte-identical for workers 1/2/8; CLI reports reproducible")


def test_criterion_9_no_overclaimed_searches():
    # general division questions are answered only within explicit bounds;
    # the negative report must say so rather than claim non-division
    z2 = hk.validate_table(["e", "a"], [[0, 1], [1, 0]])
    semilattice = hk.validate_table(["one", "z"], [[0, 1], [1, 1]])
    witness = find_division(z2, semilattice)
    report, code = dispatch_divide(semilattice)
    ok = witness is None and code == 1 and "not a proof" in report["results"]["note"]
    verdict(
        9,
        ok,
        "general converses are covered by the exhaustive small-size suites;"
        " bounded searches report absence-within-bounds only",
    )


def dispatch_divide(target_semi):
    import tempfile

    from hallkit import emit_cayley

    with tempfile.TemporaryDirectory() as tmp:
        source = f"{tmp}/z2.cay"
        target = f"{tmp}/t.cay"
        with open(source, "w") as fh:
            fh.write("e,a\n1,2\n2,1\nidentity=e\n")
        with open(target, "w") as fh:
            fh.write(emit_cayley(target_semi))
        return dispatch(["divide", source, target])
