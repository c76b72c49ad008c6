import random
import re

import numpy as np
import pytest
from helpers import (
    random_relation_semigroups,
    random_transformation_semigroups,
    reference_check_homomorphism,
    reference_generators,
    reference_green_classes,
    reference_is_block_group,
    reference_subsemigroup_closure,
    right_closure,
)

from hallkit import relations, semigroups
from hallkit import (
    FiniteSemigroup,
    Relation,
    adjoin_identity,
    check_homomorphism,
    compose,
    cyclic_group,
    emit_cayley,
    find_division,
    green_summary,
    idempotent_generated,
    idempotents,
    is_block_group,
    is_j_trivial,
    parse_cayley,
    power_semigroup,
    reflexive_relations,
    semigroup_of_relations,
    subsemigroup_closure,
    symmetric_group_table,
    validate_table,
)

Z2 = validate_table(["e", "a"], [[0, 1], [1, 0]])
Z3 = validate_table(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
SEMILATTICE = validate_table(["one", "z"], [[0, 1], [1, 1]])
LEFT_ZERO = validate_table(["a", "b"], [[0, 0], [1, 1]])


def first_bad_triple(table):
    """Oracle: the lexicographically first (x, y, z) with (xy)z != x(yz), or None."""
    k = len(table)
    return next(
        ((x, y, z)
         for x in range(k) for y in range(k) for z in range(k)
         if table[table[x][y]][z] != table[x][table[y][z]]),
        None,
    )


def greedy_generators(table):
    """The generators that semigroups._generators picks, reading the table's columns."""
    t = np.asarray(table)
    return semigroups._generators(len(t), lambda x: t[:, x])[0].tolist()


# validate_table

def test_validate_trivial():
    s = validate_table(["e"], [[0]])
    assert s.size == 1 and s.identity == 0


def test_validate_group_table():
    assert Z2.identity == 0
    assert Z2.mul(1, 1) == 0


def test_validate_rejects_nonassociative():
    with pytest.raises(ValueError, match=r"not associative.*x|y"):
        validate_table(["x", "y"], [[1, 0], [0, 0]])


@pytest.mark.parametrize("slab", [1, relations.SLAB])
def test_validate_names_first_nonassociative_triple(monkeypatch, slab):
    monkeypatch.setattr(relations, "SLAB", slab)  # slab=1: one generator row at a time
    k = 70
    table = [[max(x, y) for y in range(k)] for x in range(k)]  # a chain semilattice
    table[40][50] = 3
    table[20][60] = 10
    x, y, z = first_bad_triple(table)
    message = f"table is not associative: ({x}*{y})*{z} != {x}*({y}*{z})"
    with pytest.raises(ValueError) as exc:
        validate_table([str(i) for i in range(k)], table)
    assert str(exc.value) == message


def test_greedy_generators_reach_every_element(hall3):
    ps = power_semigroup(cyclic_group(6).base)[0]
    catalog = [ps, hall3[0], Z3, SEMILATTICE] + random_relation_semigroups(10)
    for semi in catalog:
        gens = greedy_generators(semi.table)
        assert gens == sorted(set(gens)) == reference_generators(semi.table.tolist())
        assert right_closure(semi.table, gens) == set(range(semi.size))
        t = semi.table  # and the right Cayley graph comes back with the generators
        assert np.array_equal(semigroups._generators(semi.size, lambda x: t[:, x])[1], t[:, gens].T)
        # greedy in index order: no generator is a product of the earlier ones
        for i, g in enumerate(gens):
            assert i == 0 or g not in right_closure(semi.table, gens[:i])
    assert len(greedy_generators(ps.table)) == 8


@pytest.mark.parametrize("slab", [1, relations.SLAB])
def test_validate_perturbed_power_semigroup_rows_off_the_generators(monkeypatch, slab):
    # Light's test sweeps only the 8 generator rows of this 63-element table;
    # a broken entry in any other row must still be found, and named as the
    # lexicographically first bad triple of the whole table
    monkeypatch.setattr(relations, "SLAB", slab)
    ps = power_semigroup(cyclic_group(6).base)[0]
    k = ps.size
    gens = set(greedy_generators(ps.table))
    rng = random.Random(2)
    cells = rng.sample([(r, c) for r in range(k) if r not in gens for c in range(k)], 12)
    for r, c in cells:
        table = [list(row) for row in ps.table]
        table[r][c] = (table[r][c] + rng.randrange(1, k)) % k
        bad = first_bad_triple(table)
        if bad is None:
            assert np.array_equal(validate_table(ps.labels, table).table, table)
            continue
        x, y, z = (ps.labels[i] for i in bad)
        with pytest.raises(ValueError) as exc:
            validate_table(ps.labels, table)
        assert str(exc.value) == f"table is not associative: ({x}*{y})*{z} != {x}*({y}*{z})"


def test_validate_left_zero_band_every_element_a_generator():
    # xy = x: no element is a product of others, so Light's test sweeps every row
    k = 40
    table = [[x] * k for x in range(k)]
    assert greedy_generators(table) == list(range(k))
    semi = validate_table([str(i) for i in range(k)], table)
    assert semi.identity is None
    table[k - 1][0] = 0  # breaks only the last row: (39*1)*0 = 0 but 39*(1*0) = 39
    assert first_bad_triple(table) == (39, 1, 0)
    with pytest.raises(ValueError, match=r"not associative: \(39\*1\)\*0 != 39\*\(1\*0\)"):
        validate_table([str(i) for i in range(k)], table)


@pytest.mark.parametrize("value", [0.5, 1.5, float("nan")])
def test_validate_rejects_non_integer_entries(value):
    with pytest.raises(ValueError) as exc:
        validate_table(["a", "b"], [[0, 1], [value, 0]])
    assert str(exc.value) == f"table entry at (2,1) is not an integer: {value}"
    with pytest.raises(ValueError, match=r"entry at \(1,1\) is not an integer"):
        validate_table(["a"], [[value]])


def test_validate_integral_and_bool_entries():
    assert np.array_equal(validate_table(["a", "b"], [[0.0, 1.0], [1.0, 0.0]]).table, Z2.table)
    assert validate_table(["e"], [[False]]).identity == 0
    with pytest.raises(ValueError, match=r"out of range: True"):
        validate_table(["e"], [[True]])


def test_table_is_one_read_only_uint16_array(hall2):
    made = [Z3, hall2[0], adjoin_identity(LEFT_ZERO), subsemigroup_closure(Z3, [1])[0],
            FiniteSemigroup(("a", "b"), ((0, 0), (1, 1))), power_semigroup(Z2)[0]]
    for semi in made:
        assert isinstance(semi.table, np.ndarray)
        assert semi.table.dtype == np.uint16 and semi.table.shape == (semi.size, semi.size)
        assert not semi.table.flags.writeable
    mine = np.array([[0, 0], [1, 1]], dtype=np.int32)
    semi = FiniteSemigroup(("a", "b"), mine)
    mine[0, 1] = 1  # the caller's array is copied, not adopted
    assert semi.mul(0, 1) == 0 and type(semi.mul(0, 1)) is int
    # every index of a table at the cap fits, and so does the 1-based entry emit_cayley writes
    assert semigroups.MAX_TABLE_SIZE <= np.iinfo(np.uint16).max + 1
    big = cyclic_group(semigroups.MAX_TABLE_SIZE).base
    assert big.table.dtype == np.uint16 and big.mul(1, big.size - 2) == big.size - 1
    assert int((big.table + 1).max()) == big.size == semigroups.MAX_TABLE_SIZE


def test_validate_rejects_duplicates_and_bad_entries():
    with pytest.raises(ValueError, match="duplicate"):
        validate_table(["x", "x"], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="out of range"):
        validate_table(["x", "y"], [[0, 2], [0, 0]])
    # the cap is checked before the table is read
    with pytest.raises(ValueError, match="table size 5001 exceeds the cap 5000"):
        validate_table([str(i) for i in range(5001)], [])


@pytest.mark.parametrize("slab", [1, relations.SLAB])
def test_array_kernels_match_references(monkeypatch, slab, hall3, refl3, full2):
    # slab=1 takes one row (or one source) per step, so every offset is exercised
    monkeypatch.setattr(relations, "SLAB", slab)
    right_zero = validate_table(["a", "b"], [[0, 1], [0, 1]])  # R-related idempotents
    catalog = [hall3[0], refl3[0], full2[0], LEFT_ZERO, right_zero]
    catalog += random_relation_semigroups(25)
    rng = random.Random(11)
    for semi in catalog:
        assert is_block_group(semi) == reference_is_block_group(semi)
        ids = idempotents(semi)
        for gens in [ids] + [rng.sample(range(semi.size), rng.randint(1, min(3, semi.size)))
                             for _ in range(4)]:
            sub, parent = subsemigroup_closure(semi, gens)
            want_parent, want_table = reference_subsemigroup_closure(semi, gens)
            assert parent == want_parent
            assert np.array_equal(sub.table, want_table)
            assert sub.labels == tuple(semi.labels[p] for p in parent)
        maps = [[e] * semi.size for e in ids[:2]]  # constant maps onto idempotents
        for _ in range(6):
            mapping = list(range(semi.size))
            for _ in range(rng.randint(0, 2)):
                mapping[rng.randrange(semi.size)] = rng.randrange(semi.size)
            maps.append(mapping)
        t, gens = semi.table.tolist(), reference_generators(semi.table.tolist())
        for mapping in maps:
            got = check_homomorphism(mapping, semi, semi)
            want = reference_check_homomorphism(mapping, semi, semi)
            assert got.is_homomorphism == want.is_homomorphism
            assert (got.injective, got.surjective) == (want.injective, want.surjective)
            # the reported pair is the first (x, g), g a generator, x first and
            # then g in pick order, where the map breaks the product law
            breaks = [(x, g) for x in range(semi.size) for g in gens
                      if mapping[t[x][g]] != t[mapping[x]][mapping[g]]]
            assert got.failure_pair == (breaks[0] if breaks else None)


# adjoin_identity

def test_adjoin_identity_keeps_monoids():
    assert adjoin_identity(Z2) is Z2


def test_adjoin_identity_left_zero():
    m = adjoin_identity(LEFT_ZERO)
    assert m.size == 3 and m.identity == 2
    assert m.mul(0, 1) == 0 and m.mul(2, 1) == 1
    assert adjoin_identity(m) is m


def test_adjoin_identity_checks_the_table_cap_first(monkeypatch):
    monkeypatch.setattr(semigroups, "MAX_TABLE_SIZE", 2)
    with monkeypatch.context() as m:
        m.setattr(np, "block", None)  # so the refusal comes before the bigger table is built
        with pytest.raises(ValueError, match=r"^table size 3 \(identity adjoined\) exceeds the cap 2$"):
            adjoin_identity(LEFT_ZERO)
        assert adjoin_identity(Z2) is Z2  # a monoid at the cap is returned as it is
    monkeypatch.setattr(semigroups, "MAX_TABLE_SIZE", 3)
    assert adjoin_identity(LEFT_ZERO).size == 3


# idempotents

def test_idempotents_of_groups():
    assert idempotents(Z2) == [0]
    assert idempotents(Z3) == [0]


def test_idempotents_of_semilattice():
    assert idempotents(SEMILATTICE) == [0, 1]


def test_idempotents_of_hall2(hall2):
    semi, elems = hall2
    # oracle: square all seven elements as relations
    squares = [i for i, r in enumerate(elems) if compose(r, r) == r]
    assert idempotents(semi) == squares
    expected = {
        Relation.identity(2),
        Relation.from_pairs(2, [(1, 1), (2, 2), (1, 2)]),
        Relation.from_pairs(2, [(1, 1), (2, 2), (2, 1)]),
        Relation.full(2),
    }
    assert {elems[i] for i in squares} == expected


# green_summary

def test_green_of_group():
    g = green_summary(Z3)
    assert g.r_classes == g.l_classes == g.j_classes == ((0, 1, 2),)


def _rectangular_band(rows, cols):
    """(i, j)(k, l) = (i, l), element (i, j) at index cols*i + j."""
    k = rows * cols
    return validate_table([f"{i}{j}" for i in range(rows) for j in range(cols)],
                          [[cols * (x // cols) + y % cols for y in range(k)] for x in range(k)])


def test_green_matches_ideal_oracle(refl2, hall2, full2, refl3, hall3):
    catalog = [semi for semi, _ in (refl2, hall2, full2, refl3, hall3)]
    groups = [cyclic_group(m) for m in range(1, 6)] + [symmetric_group_table(3)]
    catalog += [power_semigroup(g.base)[0] for g in groups]
    catalog += random_relation_semigroups(25)
    catalog += random_relation_semigroups(30, max_order=40, seed=7, generators=(1, 2, 3))
    catalog += random_transformation_semigroups(30)
    # J non-trivial and split by R and L; R-trivial only; L-trivial only; J-trivial
    catalog += [_rectangular_band(2, 3), LEFT_ZERO, _rectangular_band(1, 3), SEMILATTICE]
    j_trivial = set()
    for semi in catalog:
        classes = reference_green_classes(semi.table.tolist())
        g = green_summary(semi)
        assert (g.r_classes, g.l_classes, g.j_classes) == classes
        for table, partition in ((semi.table, classes[0]), (semi.table.T, classes[1])):
            least = {x: c[0] for c in partition for x in c}
            assert semigroups._least_members(table).tolist() == [least[x] for x in range(semi.size)]
        j_trivial.add(is_j_trivial(semi))
        assert is_j_trivial(semi) == all(len(c) == 1 for c in g.j_classes)
    assert j_trivial == {False, True}


def test_green_r2_all_singletons(refl2):
    semi, _ = refl2
    g = green_summary(semi)
    assert len(g.r_classes) == len(g.l_classes) == len(g.j_classes) == 4


def test_green_hall2_j_sizes(hall2):
    semi, elems = hall2
    g = green_summary(semi)
    assert sorted(len(c) for c in g.j_classes) == [1, 2, 4]
    by_size = {len(c): c for c in g.j_classes}
    assert {elems[i] for i in by_size[2]} == {
        Relation.identity(2),
        Relation.from_pairs(2, [(1, 2), (2, 1)]),
    }
    assert elems[by_size[1][0]] == Relation.full(2)


def test_green_classes_refine_j(hall3):
    semi, _ = hall3
    g = green_summary(semi)
    j_of = {x: i for i, c in enumerate(g.j_classes) for x in c}
    for c in g.r_classes + g.l_classes:
        assert len({j_of[x] for x in c}) == 1


def test_green_rectangular_band():
    # 2x3 rectangular band: R-classes are rows, L-classes columns, and D = R∘L joins everything
    band = _rectangular_band(2, 3)
    g = green_summary(band)
    assert g.r_classes == ((0, 1, 2), (3, 4, 5))
    assert g.l_classes == ((0, 3), (1, 4), (2, 5))
    assert g.j_classes == ((0, 1, 2, 3, 4, 5),)
    assert g.idempotent_indices == tuple(range(6))


def test_green_large_left_zero():
    k = 700
    semi = FiniteSemigroup(tuple(map(str, range(k))), tuple((x,) * k for x in range(k)))
    g = green_summary(semi)
    assert g.r_classes == tuple((x,) for x in range(k))
    assert g.l_classes == g.j_classes == (tuple(range(k)),)


# predicates

def test_j_trivial():
    assert is_j_trivial(validate_table(["e"], [[0]]))
    assert not is_j_trivial(Z2)
    assert is_j_trivial(SEMILATTICE)


def test_r3_is_j_trivial(refl3):
    semi, _ = refl3
    assert semi.size == 64
    assert is_j_trivial(semi)


def test_block_group_of_groups():
    assert is_block_group(Z3) == (True, None)


def test_hall2_is_block_group(hall2):
    assert is_block_group(hall2[0]) == (True, None)


def test_full_relation_monoid_witness(full2):
    semi, elems = full2
    ok, pair = is_block_group(semi)
    assert not ok
    e, f = pair
    assert elems[e] == Relation.from_pairs(2, [(1, 1)])
    assert elems[f] == Relation.from_pairs(2, [(1, 1), (2, 1)])
    # confirm the defining products directly on the relations
    assert compose(elems[e], elems[e]) == elems[e]
    assert compose(elems[f], elems[f]) == elems[f]
    assert compose(elems[e], elems[f]) == elems[e]
    assert compose(elems[f], elems[e]) == elems[f]


# closures

def test_closure_of_identity():
    sub, parent = subsemigroup_closure(Z3, [0])
    assert sub.size == 1 and parent == (0,)


def test_closure_of_swap_in_hall2(hall2):
    semi, elems = hall2
    swap = elems.index(Relation.from_pairs(2, [(1, 2), (2, 1)]))
    sub, parent = subsemigroup_closure(semi, [swap])
    assert {elems[p] for p in parent} == {Relation.identity(2), elems[swap]}


def test_closure_of_hall2_idempotents_is_r2(hall2, refl2):
    semi, elems = hall2
    sub, parent = subsemigroup_closure(semi, idempotents(semi))
    assert sub.size == 4
    assert {elems[p] for p in parent} == set(refl2[1])
    assert is_j_trivial(sub)


def test_closure_requires_generators():
    with pytest.raises(ValueError):
        subsemigroup_closure(Z2, [])


def test_idempotent_generated(hall2, full2):
    assert idempotent_generated(Z3).size == 1
    assert idempotent_generated(hall2[0]).size == 4
    assert not is_j_trivial(idempotent_generated(full2[0]))


# the block-group / idempotent-closure equivalence

def test_equivalence_on_catalog(hall2, hall3, refl2, refl3, full2):
    catalog = [Z2, Z3, SEMILATTICE, LEFT_ZERO,
               hall2[0], hall3[0], refl2[0], refl3[0], full2[0]]
    for semi in catalog:
        assert is_block_group(semi)[0] == is_j_trivial(idempotent_generated(semi))


def test_equivalence_on_random_semigroups():
    for semi in random_relation_semigroups(25):
        assert is_block_group(semi)[0] == is_j_trivial(idempotent_generated(semi))


def test_predicates_invariant_under_adjoined_identity():
    samples = [LEFT_ZERO, SEMILATTICE, Z2] + random_relation_semigroups(10, seed=5)
    for semi in samples:
        monoid = adjoin_identity(semi)
        assert is_j_trivial(semi) == is_j_trivial(monoid)
        assert is_block_group(semi)[0] == is_block_group(monoid)[0]


# homomorphisms

def test_identity_map_is_bijective_homomorphism():
    chk = check_homomorphism(range(Z3.size), Z3, Z3)
    assert chk.is_homomorphism and chk.injective and chk.surjective


def test_constant_map_to_non_idempotent_fails():
    chk = check_homomorphism([1, 1], Z2, Z2)
    assert not chk.is_homomorphism


def test_homomorphism_input_validation():
    with pytest.raises(ValueError):
        check_homomorphism([0], Z2, Z2)
    with pytest.raises(ValueError):
        check_homomorphism([0, 5], Z2, Z2)


# division search

def test_division_onto_trivial():
    trivial = validate_table(["e"], [[0]])
    witness = find_division(trivial, Z3)
    assert witness is not None
    chk = check_homomorphism(witness.mapping, witness.subsemigroup, trivial)
    assert chk.is_homomorphism and chk.surjective


def test_no_division_of_group_by_j_trivial(refl2):
    # exhaustive: every subsemigroup of the 4-element monoid arises from
    # a generating set of size at most 3
    assert find_division(Z2, refl2[0]) is None


def test_semilattice_divides_hall2(hall2):
    witness = find_division(SEMILATTICE, hall2[0])
    assert witness is not None
    chk = check_homomorphism(witness.mapping, witness.subsemigroup, SEMILATTICE)
    assert chk.is_homomorphism and chk.surjective
    again = find_division(SEMILATTICE, hall2[0])
    assert again.generator_indices == witness.generator_indices
    assert again.mapping == witness.mapping


def test_division_bounds():
    big = validate_table([str(i) for i in range(13)],
                         [[0] * 13 for _ in range(13)])
    with pytest.raises(ValueError, match="bound"):
        find_division(Z2, big)


# semigroup_of_relations

def test_relations_semigroup_trivial():
    semi, elems = semigroup_of_relations([Relation.identity(2)])
    assert semi.size == 1 and semi.identity == 0


def test_relations_semigroup_closure_checks():
    swap = Relation.from_pairs(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="element 1 \\* element 1"):
        semigroup_of_relations([swap])
    with pytest.raises(ValueError, match="duplicate"):
        semigroup_of_relations([swap, swap])
    one, full = Relation.identity(2), Relation.full(2)
    with pytest.raises(ValueError) as err:  # the first repeat in list order is named
        semigroup_of_relations([swap, full, swap, one, full, swap])
    assert str(err.value) == "duplicate relation at positions 1 and 3"
    with pytest.raises(ValueError, match="dimension"):
        semigroup_of_relations([Relation.identity(2), Relation.identity(3)])


@pytest.mark.parametrize("slab", [1, 1000, relations.SLAB])
def test_relations_semigroup_table_matches_compose(monkeypatch, slab):
    # slab=1 takes one left element per batched product, 1000 takes five
    monkeypatch.setattr(relations, "SLAB", slab)
    elems = list(reflexive_relations(3))
    semi, _ = semigroup_of_relations(elems)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert elems[semi.table[i][j]] == compose(a, b)


@pytest.mark.parametrize("slab", [1, relations.SLAB])
def test_relations_semigroup_names_first_escape_row_major(monkeypatch, slab):
    # row 1 is closed; rows 2 and 3 each escape once, with different
    # products, so a column-major search would name element 3 * element 2
    monkeypatch.setattr(relations, "SLAB", slab)
    one = Relation.from_pairs(2, [(1, 1)])
    swap = Relation.from_pairs(2, [(1, 2), (2, 1)])
    assert compose(one, swap) != compose(swap, one)
    with pytest.raises(ValueError) as err:
        semigroup_of_relations([Relation.identity(2), one, swap])
    assert str(err.value) == ("element list is not closed: element 2 * element 3"
                              f" = {compose(one, swap)} is outside the list")


def test_relations_semigroup_identity_detected(hall2):
    semi, elems = hall2
    assert semi.size == 7
    assert elems[semi.identity] == Relation.identity(2)


# cayley text format

def test_cayley_roundtrip(hall2):
    for semi in (Z2, SEMILATTICE, LEFT_ZERO, hall2[0]):
        again = parse_cayley(emit_cayley(semi))
        assert again.labels == semi.labels
        assert np.array_equal(again.table, semi.table)
        assert again.identity == semi.identity


def test_cayley_parse_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_cayley("e,a\n1\n2,1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_cayley("e,a\n1,2\n2,x\n")
    with pytest.raises(ValueError, match="not an identity"):
        parse_cayley("e,a\n1,2\n2,1\nidentity=a\n")
    with pytest.raises(ValueError, match="not associative"):
        parse_cayley("x,y\n2,1\n1,1\n")


def test_cayley_text_layer():
    text = "e,a\n1,2\n2,1\n\nidentity= a \n"
    assert relations.parse_cayley_text(text) == (["e", "a"], [(0, 1), (1, 0)], (5, "a"))
    with pytest.raises(ValueError, match="line 5: 'a' is not an identity"):
        parse_cayley(text)  # the trailer names a label; only the table layer can check it
    # a text fault is refused by the text layer, with parse_cayley's message
    for text in ("", "e,\n1\n", "e,a\n1,2\n", "e,a\n1,2\n2,1\n1,1\n", "e,a\n1,2\n2,3\n",
                 "e,a\n1,2\n2,y\n", "e,a\n1,2\n2\n", "e,e\n1,3\n1,1\n"):
        with pytest.raises(ValueError) as text_layer:
            relations.parse_cayley_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(text_layer.value))}$"):
            parse_cayley(text)
