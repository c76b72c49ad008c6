"""Finite groups and the constructions that tie them to relation monoids:
power semigroups, the subset-to-relation embedding, the conjugation action
of the symmetric group on reflexive relations, semidirect products, and the
projection of (reflexive relation, permutation) pairs onto Hall relations.

Subsets are bitmasks; every subset product (power semigroup tables, embedded
subsets, the embedding check) is a union of the translates a * B, built once
per right operand by one helper on union_product. The semidirect product table
is index arithmetic on the factor tables and the action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relations import (
    MAX_DIM,
    Permutation,
    Relation,
    compose,
    conjugate,
    is_hall,
    is_reflexive,
    perm_inverse,
    permutations_lex,
    reflexive_relations,
    relation_of,
    slabs,
    union_product,
)
from .semigroups import (MAX_TABLE_SIZE, FiniteSemigroup, _first_break, _generators,
                         semigroup_of_relations, validate_table)

MAX_ACTION_DEGREE = 3


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group: a monoid table together with its inverse table."""

    base: FiniteSemigroup
    inverse: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def identity(self) -> int:
        return self.base.identity

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    def mul(self, i: int, j: int) -> int:
        return self.base.mul(i, j)


@dataclass(frozen=True)
class GroupSubset:
    """A nonempty subset of a group's elements, stored as a bitmask over indices."""

    group: FiniteGroup
    mask: int

    def __post_init__(self):
        if not 1 <= self.mask < 1 << self.group.size:
            raise ValueError(f"subset mask {self.mask} is empty or out of range")


@dataclass(frozen=True, eq=False)
class GroupAction:
    """An action of a group on a semigroup by automorphisms, stored extensionally.

    maps[g] is the permutation of target indices applied by g; composition is
    on the left: maps[g*h] applies h first, then g.
    """

    group: FiniteGroup
    target: FiniteSemigroup
    maps: tuple[tuple[int, ...], ...]


def as_group(s: FiniteSemigroup) -> FiniteGroup:
    """Check a semigroup is a group; a two-sided inverse is the only right inverse."""
    if s.identity is None:
        raise ValueError("no identity element; not a group")
    t, e, ar = s.table, s.identity, np.arange(s.size)
    inv = np.concatenate([(t[lo:hi] == e).argmax(axis=1) for lo, hi in slabs(s.size, s.size)])
    bad = np.flatnonzero((t[ar, inv] != e) | (t[inv, ar] != e))
    if bad.size:
        raise ValueError(f"element {s.labels[bad[0]]} has no inverse; not a group")
    return FiniteGroup(s, tuple(inv.tolist()))


def cyclic_group(m: int) -> FiniteGroup:
    """The cyclic group of order m, identity first."""
    if m < 1:
        raise ValueError("order must be at least 1")
    if m > MAX_TABLE_SIZE:
        raise ValueError(f"order {m} exceeds the table cap {MAX_TABLE_SIZE}")
    labels = ["e"] + ["a" if k == 1 else f"a{k}" for k in range(1, m)]
    return as_group(validate_table(labels, np.add.outer(np.arange(m), np.arange(m)) % m))


def symmetric_group_table(n: int) -> FiniteGroup:
    """The symmetric group of degree n; elements are permutations in
    lexicographic image order, multiplied as their relations (left to right)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    order = 1
    for d in range(2, n + 1):  # stops once the partial product passes the cap, never forming n!
        order *= d
        if order > MAX_TABLE_SIZE:
            raise ValueError(f"symmetric group of degree {n} exceeds the table cap {MAX_TABLE_SIZE}")
    perms = permutations_lex(n)
    semi, _ = semigroup_of_relations([relation_of(p) for p in perms])
    return as_group(FiniteSemigroup(tuple(map(str, perms)), semi.table, semi.identity))


def _check_subset_count(k: int) -> None:
    """Refuse, before any work, a base whose 2^k - 1 nonempty subsets exceed the table cap."""
    if k > (MAX_TABLE_SIZE + 1).bit_length() - 1:  # 2^k - 1 > cap, without forming 2^k
        raise ValueError(f"2^{k} - 1 nonempty subsets exceed the table cap {MAX_TABLE_SIZE}")


def _subset_products(s: FiniteSemigroup, left, right):
    """out[p, q] is the bitmask of left[p] * right[q] in s: the union of the
    translates a * right[q] over a in left[p], each the union of the bits a*b."""
    bit = np.left_shift(np.uint64(1), s.table.astype(np.uint64))
    return union_product(left, union_product(right, bit.T).T)


def power_semigroup(s: FiniteSemigroup):
    """The semigroup of all nonempty subsets under elementwise products.

    Returns (semigroup, masks) with subsets ordered as ascending bitmasks
    over the base element indices.
    """
    k = s.size
    _check_subset_count(k)
    subsets = np.arange(1, 1 << k, dtype=np.uint64)
    table = _subset_products(s, subsets, subsets) - np.uint64(1)  # mask m is element m - 1
    masks = tuple(subsets.tolist())
    labels = ("{" + "+".join(s.labels[i] for i in range(k) if m >> i & 1) + "}" for m in masks)
    return validate_table(labels, table), masks


def _subset_relations(group: FiniteGroup, masks) -> list[Relation]:
    """Subset relations of the masks: row g of the image of A is {g} * A."""
    n = group.size
    if n > MAX_DIM:
        raise ValueError(f"group order capped at {MAX_DIM}, got {n}")
    singletons = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    rows = _subset_products(group.base, singletons, masks).T.tolist()
    return [Relation(n, tuple(r)) for r in rows]


def subset_relation(subset: GroupSubset) -> Relation:
    """The relation pairing (g, h) whenever g^{-1} h lies in the subset.

    Contains the right-translation permutation g -> g*a for each subset
    element a, so it always contains a permutation.
    """
    return _subset_relations(subset.group, [subset.mask])[0]


def hall_embedding(group: FiniteGroup) -> dict[int, Relation]:
    """The subset-to-relation map for every nonempty subset, keyed by mask."""
    _check_subset_count(group.size)
    masks = range(1, 1 << group.size)
    return dict(zip(masks, _subset_relations(group, masks)))


def check_pairs_embedding(group: FiniteGroup, table: dict[int, Relation]):
    """Is the subset-to-relation map one-to-one, and multiplicative on a greedy generating set
    (by _first_break, with no power semigroup table; a product outside the keys fails)? Returns
    (injective, multiplicative, pairs_checked): the k^2 key pairs covered, not products formed."""
    keys = sorted(table)
    injective = len(set(table.values())) == len(keys)
    masks = np.array(keys, dtype=np.uint64)
    images = np.array([table[m].rows for m in keys], dtype=np.uint64)
    rows = np.sort(images, axis=None)  # the distinct rows, each multiplied once per generator
    rows = np.delete(rows, np.flatnonzero(rows[1:] == rows[:-1]))  # np.unique imports numpy.ma
    row_at = np.searchsorted(rows, images)
    escapes = []  # per generator x: is some y * x outside the keys? If none is, the keys are closed

    def column(x):
        products = _subset_products(group.base, masks, masks[x, None])[:, 0]
        at = np.minimum(np.searchsorted(masks, products), len(keys) - 1)
        escapes.append(not np.array_equal(masks[at], products))
        return at

    def agrees(g, xg):
        composed = union_product(rows, images[g, :, None])[row_at, 0]  # image(x) * image(g)
        return (images[xg] == composed).all(axis=1)

    picked = _generators(len(keys), column)  # fills escapes
    multiplicative = _first_break(picked, agrees) is None and not any(escapes)
    return injective, multiplicative, len(keys) ** 2


def validate_action(action: GroupAction) -> None:
    """Check the automorphism law per group element, on one pick of the target's
    generators, and left composition."""
    g, m = action.group, action.target
    if len(action.maps) != g.size:
        raise ValueError("action must assign a map to every group element")
    picked = _generators(m.size, lambda x: m.table[:, x])
    for gi, amap in enumerate(action.maps):
        if sorted(amap) != list(range(m.size)):
            raise ValueError(f"map of {g.labels[gi]} is not a permutation of the target")
        f = np.array(amap, dtype=np.intp)
        pair = _first_break(picked, lambda y, xy: f[xy] == m.table[f, f[y]])
        if pair is not None:
            x, y = (m.labels[i] for i in pair)
            raise ValueError(f"map of {g.labels[gi]} is not an automorphism: breaks at ({x}, {y})")
    acts = np.array(action.maps)  # maps[a*b] vs maps[a] o maps[b]
    pair = _first_break(_generators(g.size, lambda b: g.base.table[:, b]),
                        lambda b, ab: (acts[ab] == acts[:, acts[b]]).all(axis=1))
    if pair is not None:
        a, b = (g.labels[i] for i in pair)
        raise ValueError(f"action is not a left action: maps[{a}*{b}]"
                         f" differs from maps[{a}] o maps[{b}]")


def conjugation_action(n: int) -> GroupAction:
    """The symmetric group acting on the monoid of reflexive relations by
    conjugation; degree is capped because the target is materialized."""
    if not 1 <= n <= MAX_ACTION_DEGREE:
        raise ValueError(f"conjugation action materialized only for degree 1..{MAX_ACTION_DEGREE}")
    rels = list(reflexive_relations(n))
    target, elements = semigroup_of_relations(rels)
    index = {r: i for i, r in enumerate(elements)}
    group = symmetric_group_table(n)
    perms = permutations_lex(n)
    maps = tuple(
        tuple(index[conjugate(p, r)] for r in elements)
        for p in perms
    )
    action = GroupAction(group, target, maps)
    validate_action(action)
    return action


def semidirect_product(m: FiniteSemigroup, g: FiniteGroup, action: GroupAction):
    """Pairs (m, g) with multiplication (m,g)(m',g') = (m * (g m'), g g').

    Returns (semigroup, pairs) with pairs in lexicographic (m, g) index order.
    """
    if action.target is not m or action.group is not g:
        raise ValueError("action does not act on the given operands")
    if m.size * g.size > MAX_TABLE_SIZE:
        raise ValueError(f"semidirect product size {m.size * g.size} exceeds the cap")
    validate_action(action)
    pairs = tuple((mi, gi) for mi in range(m.size) for gi in range(g.size))
    acts = np.array(action.maps)
    # product[mi, gi, mj, gj] is the index mi' * |G| + gi' of (mi, gi)(mj, gj)
    product = (m.table[:, acts] * g.size)[:, :, :, None] + g.base.table[None, :, None, :]
    labels = tuple(f"({m.labels[mi]};{g.labels[gi]})" for (mi, gi) in pairs)
    return validate_table(labels, product.reshape(len(pairs), len(pairs))), pairs


def project_to_hall(rho: Relation, pi: Permutation) -> Relation:
    """Multiply a reflexive relation by a permutation; the result contains
    that permutation, hence is a Hall relation."""
    if rho.dim != pi.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {pi.dim}")
    if not is_reflexive(rho):
        raise ValueError("first component must be reflexive")
    return compose(rho, relation_of(pi))


def hall_factorization(sigma: Relation) -> tuple[Relation, Permutation]:
    """Split a Hall relation as (reflexive part, permutation).

    Uses the lexicographically smallest contained permutation tau and returns
    (sigma * tau^{-1}, tau); project_to_hall inverts this exactly.
    """
    tau = is_hall(sigma)
    if tau is None:
        raise ValueError("relation contains no permutation")
    rho = compose(sigma, relation_of(perm_inverse(tau)))
    return rho, tau
