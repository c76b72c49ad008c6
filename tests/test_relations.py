import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallkit import (
    Permutation,
    Relation,
    all_relations,
    boolean_permanent,
    compose,
    conjugate,
    contains,
    emit_relmat,
    hall_relations,
    is_hall,
    is_reflexive,
    parse_relmat,
    perm_inverse,
    perm_product,
    permutations_lex,
    reflexive_relations,
    relation_of,
    transpose,
    union,
)
from hallkit import relations as relations_module
from hallkit.relations import MAX_DIM, slabs, union_product


def rel(n, *pairs):
    return Relation.from_pairs(n, pairs)


def brute_contained_perms(r):
    """Oracle: all permutations contained in r, by direct enumeration."""
    out = []
    for image in itertools.permutations(range(r.dim)):
        if all(r.rows[i] >> image[i] & 1 for i in range(r.dim)):
            out.append(image)
    return out


@st.composite
def relations(draw, min_dim=1, max_dim=6):
    n = draw(st.integers(min_dim, max_dim))
    full = (1 << n) - 1
    rows = tuple(draw(st.integers(0, full)) for _ in range(n))
    return Relation(n, rows)


@st.composite
def relation_tuples(draw, count, max_dim=6):
    n = draw(st.integers(1, max_dim))
    full = (1 << n) - 1
    return tuple(
        Relation(n, tuple(draw(st.integers(0, full)) for _ in range(n)))
        for _ in range(count)
    )


# construction and validation

def test_dimension_bounds():
    with pytest.raises(ValueError):
        Relation(0, ())
    with pytest.raises(ValueError):
        Relation(65, (0,) * 65)
    with pytest.raises(ValueError):
        Relation(2, (4, 0))  # bit outside column range
    with pytest.raises(ValueError):
        Permutation(2, (0, 0))


def test_code_roundtrip():
    for code in range(512):
        assert Relation.from_code(3, code).code == code


def test_pairs_and_membership():
    r = rel(3, (1, 2), (3, 1))
    assert r.pairs() == [(1, 2), (3, 1)]
    assert r.has(1, 2) and not r.has(2, 1)


# compose

def test_compose_identity():
    for r in itertools.islice(all_relations(3), 0, 512, 37):
        assert compose(Relation.identity(3), r) == r
        assert compose(r, Relation.identity(3)) == r


def test_compose_single_chain():
    assert compose(rel(2, (1, 2)), rel(2, (2, 1))) == rel(2, (1, 1))


def test_compose_swap_squares_to_identity():
    swap = rel(2, (1, 2), (2, 1))
    assert compose(swap, swap) == Relation.identity(2)


@pytest.mark.parametrize("slab", [1, 7, 1000, relations_module.SLAB])
def test_slabs_cover_rows_in_order(monkeypatch, slab):
    monkeypatch.setattr(relations_module, "SLAB", slab)
    for count in (0, 1, 6, 999, 1000, 1001, 12345):
        for width in (1, 3, 7, 64, slab - 1 or 1, slab, slab + 1, 3 * slab):
            ranges = list(slabs(count, width))
            rows = max(1, slab // width)
            assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(count))
            assert all(0 < hi - lo <= rows for lo, hi in ranges)
            assert len(ranges) == -(-count // rows)  # only the last slab may be partial


def test_union_product_matches_compose():
    # every pairwise product of a random set, at every dimension; the last
    # relation sets the top bit of each row (bit 63 at dimension 64)
    rng = random.Random(20261018)
    for dim in range(1, MAX_DIM + 1):
        rels = [Relation(dim, tuple(rng.getrandbits(dim) for _ in range(dim))) for _ in range(4)]
        rels.append(Relation(dim, ((1 << dim) - 1,) + (1 << (dim - 1),) * (dim - 1)))
        rows = np.array([r.rows for r in rels], dtype=np.uint64)
        out = union_product(rows, rows.T)
        assert out.dtype == np.uint64 and out.shape == (5, dim, 5)
        for i, r in enumerate(rels):
            for j, s in enumerate(rels):
                assert tuple(out[i, :, j].tolist()) == compose(r, s).rows


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(Relation.identity(2), Relation.identity(3))
    with pytest.raises(ValueError):
        conjugate(Permutation.identity(3), Relation.identity(2))
    with pytest.raises(ValueError):
        perm_product(Permutation.identity(2), Permutation.identity(3))


# reflexivity

def test_is_reflexive():
    assert is_reflexive(Relation.identity(4))
    assert is_reflexive(Relation.full(3))
    assert not is_reflexive(rel(2, (1, 2), (2, 1)))


# hall witness against brute force

def test_is_hall_all_ones_gives_identity():
    for n in (1, 2, 3, 5):
        assert is_hall(Relation.full(n)) == Permutation.identity(n)


def test_is_hall_zero_row():
    assert is_hall(rel(3, (1, 1), (3, 2))) is None


def test_is_hall_forced_swap():
    # both permutations of degree 2 checked directly: only the swap fits
    r = rel(2, (1, 2), (2, 1), (1, 1))
    assert brute_contained_perms(r) == [(1, 0)]
    assert is_hall(r) == Permutation(2, (1, 0))


def test_hall_agreement_exhaustive():
    # three routes: matching, permanent, direct permutation enumeration
    for n in (1, 2, 3):
        for r in all_relations(n):
            witness = is_hall(r)
            contained = brute_contained_perms(r)
            assert (witness is not None) == bool(contained) == bool(boolean_permanent(r))
            if contained:
                assert witness.image == min(contained)  # lexicographic minimum


def test_boolean_permanent_basics():
    assert boolean_permanent(Relation.identity(5)) == 1
    assert boolean_permanent(Relation(3, (0, 0, 0))) == 0
    with pytest.raises(ValueError):
        boolean_permanent(Relation.identity(13))


# permutations

def test_perm_product_matches_relation_product():
    for p in permutations_lex(3):
        for q in permutations_lex(3):
            assert relation_of(perm_product(p, q)) == compose(relation_of(p), relation_of(q))


def test_perm_inverse():
    for p in permutations_lex(3):
        assert perm_product(p, perm_inverse(p)) == Permutation.identity(3)
        assert perm_product(p, Permutation.identity(3)) == p


def test_perm_one_based():
    p = Permutation.from_one_based((2, 3, 1))
    assert p.one_based() == (2, 3, 1)
    assert str(p) == "231"


# conjugation

def test_conjugate_by_identity():
    for r in itertools.islice(all_relations(3), 0, 512, 41):
        assert conjugate(Permutation.identity(3), r) == r


def test_conjugate_swap_example():
    swap = Permutation(2, (1, 0))
    assert conjugate(swap, rel(2, (1, 1), (2, 2), (1, 2))) == rel(2, (1, 1), (2, 2), (2, 1))


def test_conjugate_fixes_identity_relation():
    for p in permutations_lex(3):
        assert conjugate(p, Relation.identity(3)) == Relation.identity(3)


def test_conjugate_equals_sandwich_product():
    rng = random.Random(7)
    for p in permutations_lex(3):
        for _ in range(20):
            r = Relation(3, tuple(rng.randrange(8) for _ in range(3)))
            sandwich = compose(compose(relation_of(p), r), relation_of(perm_inverse(p)))
            assert conjugate(p, r) == sandwich


def test_conjugate_action_law():
    rng = random.Random(11)
    samples = [Relation(3, tuple(rng.randrange(8) for _ in range(3))) for _ in range(100)]
    for p in permutations_lex(3):
        for q in permutations_lex(3):
            for r in samples:
                assert conjugate(perm_product(p, q), r) == conjugate(p, conjugate(q, r))


def test_conjugate_preserves_reflexive_and_hall():
    for p in permutations_lex(3):
        for r in all_relations(3):
            c = conjugate(p, r)
            assert is_reflexive(c) == is_reflexive(r)
            assert (is_hall(c) is None) == (is_hall(r) is None)


# boolean lattice helpers

def test_union_contains_transpose():
    r = rel(3, (1, 2), (2, 3))
    assert union(r, r) == r
    assert contains(Relation.full(3), r)
    assert not contains(r, Relation.full(3))
    assert transpose(transpose(r)) == r
    assert transpose(rel(2, (1, 2))) == rel(2, (2, 1))
    with pytest.raises(ValueError):
        union(r, Relation.identity(2))


# enumerations

def test_enumeration_counts():
    assert sum(1 for _ in all_relations(2)) == 16
    assert sum(1 for _ in hall_relations(2)) == 7
    refl = [r.code for r in reflexive_relations(2)]
    assert len(refl) == 4 and refl == sorted(refl)
    assert all(is_reflexive(r) for r in reflexive_relations(3))


def test_permutations_lex_order():
    perms = permutations_lex(3)
    assert len(perms) == 6
    assert perms[0] == Permutation.identity(3)
    assert [p.image for p in perms] == sorted(p.image for p in perms)


# text format

def test_parse_relmat_examples():
    assert parse_relmat("2\n10\n01\n") == Relation.identity(2)
    assert parse_relmat("2\n11\n11\n") == Relation.full(2)
    assert parse_relmat(" 2 \n\n1 0\n 01\n") == Relation.identity(2)


def test_parse_relmat_errors():
    with pytest.raises(ValueError, match="line 3"):
        parse_relmat("3\n101\n1011\n111\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_relmat("x\n10\n01\n")
    with pytest.raises(ValueError):
        parse_relmat("2\n10\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_relmat("2\n10\n01\n10\n")


@given(relations())
def test_relmat_roundtrip(r):
    assert parse_relmat(emit_relmat(r)) == r


# algebraic properties

@given(relation_tuples(3))
@settings(max_examples=150)
def test_compose_associative(rs):
    r, s, t = rs
    assert compose(compose(r, s), t) == compose(r, compose(s, t))


@given(relations())
def test_identity_element(r):
    delta = Relation.identity(r.dim)
    assert compose(delta, r) == r and compose(r, delta) == r


@given(relation_tuples(4, max_dim=5))
def test_compose_monotone(rs):
    r, s, extra_r, extra_s = rs
    bigger_r = union(r, extra_r)
    bigger_s = union(s, extra_s)
    assert contains(compose(bigger_r, bigger_s), compose(r, s))


@given(relation_tuples(2, max_dim=4))
@settings(max_examples=200)
def test_hall_closed_under_product(rs):
    r, s = rs
    if is_hall(r) is not None and is_hall(s) is not None:
        assert is_hall(compose(r, s)) is not None


@given(relation_tuples(2, max_dim=5))
def test_reflexive_closed_under_product(rs):
    r, s = rs
    dr = union(r, Relation.identity(r.dim))
    ds = union(s, Relation.identity(s.dim))
    assert is_reflexive(compose(dr, ds))


@given(relations(max_dim=5))
def test_transpose_involution(r):
    assert transpose(transpose(r)) == r
