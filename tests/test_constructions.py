import itertools
import random
import time

import numpy as np
import pytest
from helpers import reference_check_pairs_embedding, reference_generators

import hallkit as hk
from hallkit import relations
from hallkit import (
    GroupAction,
    GroupSubset,
    Permutation,
    Relation,
    as_group,
    check_pairs_embedding,
    compose,
    conjugation_action,
    contains,
    cyclic_group,
    hall_embedding,
    hall_factorization,
    is_hall,
    is_reflexive,
    perm_inverse,
    permutations_lex,
    power_semigroup,
    project_to_hall,
    relation_of,
    semidirect_product,
    subset_relation,
    symmetric_group_table,
    validate_action,
    validate_table,
)


def brute_contained_perms(r):
    return [
        image
        for image in itertools.permutations(range(r.dim))
        if all(r.rows[i] >> image[i] & 1 for i in range(r.dim))
    ]


# group constructors

def test_cyclic_group_basics():
    g1 = cyclic_group(1)
    assert g1.size == 1 and g1.identity == 0
    g2 = cyclic_group(2)
    assert g2.inverse == (0, 1)  # a is its own inverse
    g6 = cyclic_group(6)
    assert g6.mul(2, 5) == 1 and g6.inverse[2] == 4
    with pytest.raises(ValueError, match="cap"):
        cyclic_group(10**9)  # refused before its table is built


def test_symmetric_group():
    s3 = symmetric_group_table(3)
    assert s3.size == 6
    assert sum(1 for e in range(6) if s3.mul(e, e) == e) == 1
    assert any(s3.mul(i, j) != s3.mul(j, i) for i in range(6) for j in range(6))
    # table product agrees with permutation product under the lex enumeration
    perms = permutations_lex(3)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert perms[s3.mul(i, j)] == hk.perm_product(p, q)


def test_as_group_rejects_non_groups():
    semilattice = validate_table(["one", "z"], [[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="inverse"):
        as_group(semilattice)
    left_zero = validate_table(["a", "b"], [[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="identity"):
        as_group(left_zero)


@pytest.mark.parametrize("slab", [1, relations.SLAB])
def test_as_group_inverses_by_slab(monkeypatch, slab):
    monkeypatch.setattr(relations, "SLAB", slab)  # slab=1: one row at a time
    for g in (cyclic_group(6), symmetric_group_table(3)):
        again = as_group(g.base)
        for x in range(g.size):
            inv = again.inverse[x]
            assert type(inv) is int
            assert g.mul(x, inv) == g.identity == g.mul(inv, x)
    # Z2 with a zero adjoined: e and a have inverses, the zero z does not
    z2_zero = validate_table(["e", "a", "z"], [[0, 1, 2], [1, 0, 2], [2, 2, 2]])
    with pytest.raises(ValueError) as exc:
        as_group(z2_zero)
    assert str(exc.value) == "element z has no inverse; not a group"


# power semigroups

def test_power_of_z2():
    power, masks = power_semigroup(cyclic_group(2).base)
    assert power.size == 3
    assert masks == (1, 2, 3)
    a = masks.index(2)  # the subset {a}
    assert power.mul(a, a) == masks.index(1)  # {a}{a} = {e}
    everything = masks.index(3)
    for x in range(3):
        assert power.mul(everything, x) == everything
        assert power.mul(x, everything) == everything
    assert hk.idempotents(power) == [masks.index(1), masks.index(3)]


def brute_subset_product(s, x, y):
    out = 0
    for a in range(s.size):
        for b in range(s.size):
            if x >> a & 1 and y >> b & 1:
                out |= 1 << s.mul(a, b)
    return out


@pytest.mark.parametrize("base", [
    symmetric_group_table(3).base,
    validate_table(["a", "b"], [[0, 0], [1, 1]]),  # left-zero band: xy = x
], ids=["symmetric3", "left-zero"])
def test_power_semigroup_entries_are_subset_products(base):
    # both bases are non-commutative, so the opposite product would differ
    power, masks = power_semigroup(base)
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            assert masks[power.mul(i, j)] == brute_subset_product(base, x, y)


def test_power_semigroups_of_groups_are_block_groups():
    for group in (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group_table(3)):
        power, _ = power_semigroup(group.base)
        assert hk.is_block_group(power) == (True, None)


def test_power_cap():
    labels = [str(i) for i in range(17)]
    table = [[(i + j) % 17 for j in range(17)] for i in range(17)]
    with pytest.raises(ValueError, match="cap"):
        power_semigroup(validate_table(labels, table))


def test_subset_cap_checked_before_work():
    # 2^13 - 1 = 8191 subsets exceed the 5000-element table cap
    group = cyclic_group(13)
    for build in (lambda: power_semigroup(group.base), lambda: hall_embedding(group)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            build()
        assert time.perf_counter() - start < 1.0


# subset-to-relation embedding

def test_subset_relation_of_identity_singleton():
    for group in (cyclic_group(3), symmetric_group_table(3)):
        mask = 1 << group.identity
        assert subset_relation(GroupSubset(group, mask)) == Relation.identity(group.size)


def test_subset_relation_z2_swap():
    g = cyclic_group(2)
    assert subset_relation(GroupSubset(g, 2)) == Relation.from_pairs(2, [(1, 2), (2, 1)])


def test_subset_mask_validation():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        GroupSubset(g, 0)
    with pytest.raises(ValueError):
        GroupSubset(g, 4)


def test_subset_relation_order_capped_at_max_dim():
    group = cyclic_group(relations.MAX_DIM + 1)
    with pytest.raises(ValueError) as exc:
        subset_relation(GroupSubset(group, 1))
    cap = relations.MAX_DIM
    assert str(exc.value) == f"group order capped at {cap}, got {cap + 1}"


def test_subset_relation_matches_definition():
    # symmetric:3 is non-commutative, so g^{-1}h in A differs from h g^{-1} in A
    g = symmetric_group_table(3)
    for mask, rho in hall_embedding(g).items():
        assert rho == subset_relation(GroupSubset(g, mask))
        for i in range(g.size):
            for j in range(g.size):
                assert rho.has(i + 1, j + 1) == bool(mask >> g.mul(g.inverse[i], j) & 1)


def test_embedding_images_contain_translations():
    g = cyclic_group(4)
    for mask, rho in hall_embedding(g).items():
        assert is_hall(rho) is not None
        for a in range(4):
            if mask >> a & 1:
                translation = Permutation(4, tuple(g.mul(i, a) for i in range(4)))
                assert contains(rho, relation_of(translation))


def test_embedding_z3_injective_and_multiplicative():
    g = cyclic_group(3)
    table = hall_embedding(g)
    assert len(set(table.values())) == 7
    injective, multiplicative, pairs = check_pairs_embedding(g, table)
    assert injective and multiplicative and pairs == 49


@pytest.mark.parametrize("slab", [1, relations.SLAB])
def test_embedding_check_reports_failures(monkeypatch, slab):
    monkeypatch.setattr(relations, "SLAB", slab)  # slab=1: one element per step of the pick
    g = cyclic_group(3)
    table = hall_embedding(g)
    assert check_pairs_embedding(g, table) == (True, True, 49)
    swapped = dict(table)
    swapped[1], swapped[2] = table[2], table[1]  # images of {e} and {a}
    assert check_pairs_embedding(g, swapped) == (True, False, 49)
    shared = dict(table)
    shared[3] = table[5]  # {e, a} and {e, a2} share an image
    injective, _, pairs = check_pairs_embedding(g, shared)
    assert not injective and pairs == 49
    assert check_pairs_embedding(g, {}) == (True, True, 0)
    # in Z2, {a}{a} = {e} is no key, though the images below multiply consistently
    escaped = {2: Relation.identity(2), 3: Relation.full(2)}
    assert check_pairs_embedding(cyclic_group(2), escaped) == (True, False, 4)
    assert reference_check_pairs_embedding(cyclic_group(2), escaped) == (True, False, 4)
    # seeded perturbations, each against the all-pairs reference
    rng = random.Random(5)
    for g in [cyclic_group(m) for m in range(2, 7)] + [symmetric_group_table(3)]:
        table = hall_embedding(g)
        keys = sorted(table)
        cases = [table, {}, {m: r for m, r in table.items() if m != keys[-1]}]
        for _ in range(2):
            p, q = rng.sample(keys, 2)
            swapped, shared = dict(table), dict(table)
            swapped[p], swapped[q] = table[q], table[p]
            shared[p] = table[q]
            cases += [swapped, shared, {m: r for m, r in table.items() if m != p}]
        for case in cases:
            assert check_pairs_embedding(g, case) == reference_check_pairs_embedding(g, case)


def test_checks_find_a_break_off_the_generators():
    # a true homomorphism changed at one element outside the 8 greedy generators
    # of P(Z6): the law is checked on generators only, so the induction must find it
    g = cyclic_group(6)
    power, masks = power_semigroup(g.base)
    gens = reference_generators(power.table.tolist())
    assert len(gens) == 8
    table = hall_embedding(g)
    for x in range(power.size):
        if x in gens:
            continue
        other = (x + 1) % power.size
        mapping = list(range(power.size))
        mapping[x] = other
        assert not hk.check_homomorphism(mapping, power, power).is_homomorphism
        changed = dict(table)
        changed[masks[x]] = table[masks[other]]
        assert not check_pairs_embedding(g, changed)[1]


def test_embedding_catalog_orders_2_to_6():
    groups = [cyclic_group(m) for m in range(2, 7)] + [symmetric_group_table(3)]
    for g in groups:
        injective, multiplicative, _ = check_pairs_embedding(g, hall_embedding(g))
        assert injective and multiplicative


def test_embedding_as_abstract_homomorphism(hall3):
    # the same map checked at the Cayley-table level: the power semigroup of
    # the 3-element cyclic group lands injectively inside the Hall monoid
    g = cyclic_group(3)
    power, masks = power_semigroup(g.base)
    table = hall_embedding(g)
    hall_semi, hall_elems = hall3
    index = {r: i for i, r in enumerate(hall_elems)}
    mapping = [index[table[mask]] for mask in masks]
    chk = hk.check_homomorphism(mapping, power, hall_semi)
    assert chk.is_homomorphism and chk.injective and not chk.surjective


# conjugation action

def test_conjugation_action_degree2():
    action = conjugation_action(2)
    elems = list(hk.reflexive_relations(2))  # the action's target element order
    assert [str(r) for r in elems] == list(action.target.labels)
    ident = action.maps[0]
    assert ident == tuple(range(4))
    swap_map = action.maps[1]
    up = elems.index(Relation.from_pairs(2, [(1, 1), (2, 2), (1, 2)]))
    down = elems.index(Relation.from_pairs(2, [(1, 1), (2, 2), (2, 1)]))
    delta = elems.index(Relation.identity(2))
    full = elems.index(Relation.full(2))
    assert swap_map[up] == down and swap_map[down] == up
    assert swap_map[delta] == delta and swap_map[full] == full


def test_conjugation_action_degree3_is_valid():
    action = conjugation_action(3)
    assert action.target.size == 64
    validate_action(action)  # automorphism and left-composition laws


def test_validate_action_rejects_non_automorphism():
    action = conjugation_action(2)
    broken = GroupAction(action.group, action.target,
                         (action.maps[0], (1, 0, 2, 3)))
    with pytest.raises(ValueError) as exc:
        validate_action(broken)
    assert str(exc.value) == "map of 21 is not an automorphism: breaks at (10|01, 11|01)"


def test_validate_action_picks_each_generating_set_once(monkeypatch):
    from hallkit import constructions

    action = conjugation_action(3)
    pick, sizes = constructions._generators, []

    def counted(k, column):
        sizes.append(k)
        return pick(k, column)

    monkeypatch.setattr(constructions, "_generators", counted)
    validate_action(action)
    assert sizes == [action.target.size, action.group.size]  # not one pick per group element


# semidirect products

def test_semidirect_with_trivial_group_is_the_monoid(refl2):
    semi, _ = refl2
    trivial = cyclic_group(1)
    action = GroupAction(trivial, semi, (tuple(range(semi.size)),))
    product, pairs = semidirect_product(semi, trivial, action)
    assert product.size == semi.size
    assert np.array_equal(product.table, semi.table)


def test_semidirect_r2_s2():
    action = conjugation_action(2)
    product, pairs = semidirect_product(action.target, action.group, action)
    assert product.size == 8
    delta = next(
        i for i, (mi, gi) in enumerate(pairs)
        if action.target.labels[mi] == "10|01" and gi == 0
    )
    assert product.identity == delta


@pytest.mark.parametrize("n", [2, 3])
def test_semidirect_table_matches_definition(n):
    action = conjugation_action(n)
    m, g = action.target, action.group
    product, pairs = semidirect_product(m, g, action)
    index = {p: i for i, p in enumerate(pairs)}
    for i, (mi, gi) in enumerate(pairs):
        for j, (mj, gj) in enumerate(pairs):
            want = (m.table[mi][action.maps[gi][mj]], g.mul(gi, gj))
            assert product.table[i][j] == index[want]


def test_semidirect_size_cap(refl3):
    semi, _ = refl3
    group = symmetric_group_table(5)
    action = GroupAction(group, semi, (tuple(range(semi.size)),) * group.size)
    with pytest.raises(ValueError, match="cap"):
        semidirect_product(semi, group, action)


# projection and factorization

def test_project_identity_component():
    for p in permutations_lex(3):
        assert project_to_hall(Relation.identity(3), p) == relation_of(p)


def test_project_identity_permutation(refl2):
    _, elems = refl2
    for rho in elems:
        assert project_to_hall(rho, Permutation.identity(2)) == rho


def test_project_rejects_non_reflexive():
    with pytest.raises(ValueError, match="reflexive"):
        project_to_hall(Relation.from_pairs(2, [(1, 2), (2, 1)]), Permutation.identity(2))
    with pytest.raises(ValueError, match="dimension"):
        project_to_hall(Relation.identity(2), Permutation.identity(3))


def test_eight_pairs_cover_hall2(hall2, refl2):
    _, hall_elems = hall2
    _, refl_elems = refl2
    images = [
        project_to_hall(rho, p)
        for rho in refl_elems
        for p in permutations_lex(2)
    ]
    assert len(images) == 8
    assert set(images) == set(hall_elems)
    assert images.count(Relation.full(2)) == 2


def test_factorization_of_permutation_graphs():
    for p in permutations_lex(3):
        rho, tau = hall_factorization(relation_of(p))
        assert rho == Relation.identity(3) and tau == p


def test_factorization_of_full_relation():
    rho, tau = hall_factorization(Relation.full(2))
    assert tau == Permutation.identity(2)
    assert rho == Relation.full(2)


def test_factorization_pinned_example():
    sigma = Relation.from_pairs(2, [(1, 1), (1, 2), (2, 1)])
    rho, tau = hall_factorization(sigma)
    assert tau == Permutation(2, (1, 0))
    assert rho == Relation.from_pairs(2, [(1, 1), (1, 2), (2, 2)])
    assert is_reflexive(rho)
    assert project_to_hall(rho, tau) == sigma


def test_factorization_rejects_non_hall():
    with pytest.raises(ValueError):
        hall_factorization(Relation(2, (0, 3)))


def test_factorization_roundtrip_hall2(hall2):
    for sigma in hall2[1]:
        rho, tau = hall_factorization(sigma)
        assert is_reflexive(rho)
        assert project_to_hall(rho, tau) == sigma


def test_roundtrip_with_any_witness(hall3):
    # the factorization law holds for every contained permutation, not just
    # the lexicographic choice
    rng = random.Random(3)
    sample = rng.sample(hall3[1], 40)
    for sigma in sample:
        choices = brute_contained_perms(sigma)
        for image in rng.sample(choices, min(10, len(choices))):
            tau = Permutation(3, image)
            rho = compose(sigma, relation_of(perm_inverse(tau)))
            assert is_reflexive(rho)
            assert project_to_hall(rho, tau) == sigma


def test_projection_is_multiplicative_degree2(refl2):
    _, refl_elems = refl2
    perms = permutations_lex(2)
    pairs = [(rho, p) for rho in refl_elems for p in perms]
    for rho, p in pairs:
        for rho2, p2 in pairs:
            left = project_to_hall(
                compose(rho, hk.conjugate(p, rho2)), hk.perm_product(p, p2)
            )
            right = compose(project_to_hall(rho, p), project_to_hall(rho2, p2))
            assert left == right


def test_projection_is_multiplicative_degree3_sampled(refl3):
    _, refl_elems = refl3
    perms = permutations_lex(3)
    rng = random.Random(97)
    for _ in range(10_000):
        rho, rho2 = rng.choice(refl_elems), rng.choice(refl_elems)
        p, p2 = rng.choice(perms), rng.choice(perms)
        left = project_to_hall(
            compose(rho, hk.conjugate(p, rho2)), hk.perm_product(p, p2)
        )
        right = compose(project_to_hall(rho, p), project_to_hall(rho2, p2))
        assert left == right
