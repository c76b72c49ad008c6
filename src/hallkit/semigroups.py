"""Abstract finite semigroups as Cayley tables, each held as one read-only k x k
uint16 numpy array (FiniteSemigroup.table; MAX_TABLE_SIZE < 2^16) that every
kernel reads directly: Green's relations, idempotent structure, block-group and
J-triviality predicates, closures, homomorphism checks, and a bounded division
search.

validate_table proves associativity by Light's test: the elements x with
(xy)z = x(yz) for all y, z are closed under products, so checking x over a
generating set proves the whole table, in O(k^2 |A|) instead of O(k^3).

Green's R and L classes label each element by the least member of its class,
read off the principal one-sided ideals without sorting; J is derived from
them, as J = D = R∘L in a finite semigroup. One cap, MAX_TABLE_SIZE, bounds
every table; MAX_DIVISION_TARGET bounds the division search.

Element order is always the table's row order; every search and tie-break is
deterministic (ascending indices, lexicographic generator subsets).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .relations import Relation, parse_cayley_text, slabs, union_product

MAX_TABLE_SIZE = 5000
MAX_DIVISION_TARGET = 12


@dataclass(frozen=True, eq=False)
class FiniteSemigroup:
    """Distinct element labels and a Cayley table, kept as a read-only uint16 copy;
    Green's classes label each element by the least member of its class."""

    labels: tuple[str, ...]
    table: np.ndarray
    identity: Optional[int] = None

    def __post_init__(self):
        table = np.array(self.table, dtype=np.uint16)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def size(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])


@dataclass(frozen=True)
class GreenSummary:
    """Partitions of element indices into R-, L- and J-classes, plus idempotents."""

    r_classes: tuple[tuple[int, ...], ...]
    l_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    idempotent_indices: tuple[int, ...]


@dataclass(frozen=True)
class HomomorphismCheck:
    is_homomorphism: bool
    injective: bool
    surjective: bool
    failure_pair: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class DivisionWitness:
    """A subsemigroup of the target (by generators) and a surjection onto the source."""

    generator_indices: tuple[int, ...]
    parent_indices: tuple[int, ...]
    subsemigroup: "FiniteSemigroup"
    mapping: tuple[int, ...]


def _find_identity(t) -> Optional[int]:
    """The least e whose row and column are both the identity map, or None."""
    ar = np.arange(len(t))
    hits = np.flatnonzero((t == ar).all(axis=1) & (t.T == ar).all(axis=1))
    return int(hits[0]) if hits.size else None


def _reach(right, reached, cand):
    """Mark in reached all that cand reaches in the right Cayley graph y -> y*a,
    right[j, y] = y*gens[j], a slab at a time. Duplicates go through the slot
    array, not np.unique, whose first call costs more than a whole pick on small tables."""
    slot = np.zeros(len(reached), dtype=np.intp)
    todo = []
    while True:
        cand = cand[~reached[cand]]
        order = np.arange(cand.size)
        slot[cand] = order
        fresh = cand[slot[cand] == order]
        reached[fresh] = True
        todo += [fresh[lo:hi] for lo, hi in slabs(fresh.size, len(right))]
        if not todo:
            return
        cand = right[:, todo.pop()].ravel()


def _generators(k, column):
    """A generating set, picked greedily in index order, and its right Cayley graph right[j, y] =
    y*gens[j], in O(k*|A|); column(x) = [y*x for every y] is asked once per generator. x joins
    when the graph of the earlier generators misses it, so all are left-normed products of them."""
    reached = np.zeros(k, dtype=bool)
    gens, right = [], np.empty((1, k), dtype=np.min_scalar_type(k))  # the narrowest index type
    for x in range(k):
        if not reached[x]:
            if len(gens) == len(right):  # doubled, so the columns stay in one array
                right = np.resize(right, (min(2 * len(right), k), k))
            right[len(gens)] = column(x)
            gens.append(x)
            # x itself and the products y*x of the elements already reached
            _reach(right[:len(gens)], reached, np.append(right[len(gens) - 1][reached], x))
    return np.array(gens, dtype=np.intp), right[:len(gens)]


def _first_break(picked, agrees):
    """The first (x, g) by x, then by pick order, with g a generator of picked = (gens, right),
    as _generators returns them, and agrees(g, right[j])[x] False; or None. A map that sends every
    such x*g to the product of the images is a homomorphism, by induction on m for
    x*(g1...gm) = (...(x*g1)...)*gm."""
    bad = ((int(np.argmin(ok)), int(g)) for g, xg in zip(*picked)
           if not (ok := agrees(g, xg)).all())
    return min(bad, default=None)  # generators ascend, so a tie on x goes to the first picked


def _check_associative(t, labels):
    """Raise naming the lexicographically first (x, y, z) with (xy)z != x(yz).

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    §1.2): call x left-associative when (xy)z = x(yz) for all y and z. Products
    of left-associative elements are left-associative, since (xx')y = x(x'y)
    gives ((xx')y)z = x((x'y)z) = x(x'(yz)) = (xx')(yz). So the sweep runs over
    a generating set only, in O(k^2 |A|).

    The first bad generator row is also the first bad row of the table: an
    element x outside the generating set is a product of generators below x,
    so if those all pass, x passes too. Its first bad (y, z) is thus the
    lexicographically first bad triple.
    """
    xs = _generators(len(t), lambda x: t[:, x])[0]
    for lo, hi in slabs(len(xs), t.size):  # a generator row x spans k x k pairs (y, z)
        sub = t[xs[lo:hi]]
        left = np.take(t, sub, axis=0)   # (x*y)*z
        right = np.take(sub, t, axis=1)  # x*(y*z)
        if not np.array_equal(left, right):
            i, y, z = np.argwhere(left != right)[0]
            x = xs[lo + i]
            raise ValueError(
                f"table is not associative: ({labels[x]}*{labels[y]})*{labels[z]}"
                f" != {labels[x]}*({labels[y]}*{labels[z]})"
            )


def _integral(v) -> bool:
    try:
        return v == int(v)
    except (TypeError, ValueError, OverflowError):
        return False


def validate_table(labels, table) -> FiniteSemigroup:
    """Validate a Cayley table (shape, integer entries, range, associativity); find an identity."""
    labels = tuple(str(x) for x in labels)
    k = len(labels)
    if k == 0:
        raise ValueError("a semigroup needs at least one element")
    if k > MAX_TABLE_SIZE:
        raise ValueError(f"table size {k} exceeds the cap {MAX_TABLE_SIZE}")
    if len(set(labels)) != k:
        raise ValueError("duplicate labels in element list")
    if len(table) != k or any(len(row) != k for row in table):
        raise ValueError(f"table must be {k}x{k}")
    t = np.asarray(table)
    if t.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):  # int(nan) raises; numpy would warn as well
            bad = ~np.frompyfunc(_integral, 1, 1)(t).astype(bool)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"table entry at ({i + 1},{j + 1}) is not an integer: {t[i, j]}")
    bad = ~((t >= 0) & (t < k))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"table entry at ({i + 1},{j + 1}) out of range: {t[i, j]}")
    t = t.astype(np.uint16)  # entries are below MAX_TABLE_SIZE < 2^16
    _check_associative(t, labels)
    return FiniteSemigroup(labels, t, _find_identity(t))


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """Return s itself if it is a monoid, else s with a fresh identity adjoined."""
    if s.identity is not None:
        return s
    k = s.size
    if k + 1 > MAX_TABLE_SIZE:  # checked before the (k+1) x (k+1) table is allocated
        raise ValueError(f"table size {k + 1} (identity adjoined) exceeds the cap {MAX_TABLE_SIZE}")
    fresh = "1"
    while fresh in s.labels:
        fresh += "'"
    ar = np.arange(k + 1, dtype=np.uint16)
    return FiniteSemigroup(s.labels + (fresh,), np.block([[s.table, ar[:k, None]], [ar[None]]]), k)


def idempotents(s: FiniteSemigroup) -> list[int]:
    return np.flatnonzero(np.diagonal(s.table) == np.arange(s.size)).tolist()


def _least_members(t):
    """Label each element x by the least y with xS¹ = yS¹, its R-class's least
    member (the L-class's on t.T): row x of member marks {x} ∪ xS, and
    member & member.T marks the y with x ∈ yS¹ and y ∈ xS¹."""
    k = len(t)
    member = np.eye(k, dtype=bool)
    member[np.arange(k)[:, None], t] = True
    return (member & member.T).argmax(axis=1)


def _classes(labels):
    """Group indices by label; scanning in index order lists classes by least element."""
    groups: dict[int, list[int]] = {}
    for x, c in enumerate(labels.tolist()):
        groups.setdefault(c, []).append(x)
    return tuple(tuple(g) for g in groups.values())


def green_summary(s: FiniteSemigroup) -> GreenSummary:
    """Green's R/L/J partitions, each element labelled by its class's least member.

    R and L come from the sets {x} ∪ xS, resp. {x} ∪ Sx (_least_members). In a
    finite semigroup J = D, and D = R∘L (Howie, Fundamentals of Semigroup
    Theory, Props. 2.1.3 and 2.1.4): y D x iff x R z L y for some z. So
    D(x) = ∪_{z ∈ R(x)} L(z), and its least member is the least L-label over
    the R-class of x.
    """
    k = s.size
    if k > MAX_TABLE_SIZE:
        raise ValueError(f"size {k} exceeds the table cap {MAX_TABLE_SIZE}")
    r_of = _least_members(s.table)
    l_of = _least_members(s.table.T)
    j = np.full(k, k)
    np.minimum.at(j, r_of, l_of)
    return GreenSummary(
        r_classes=_classes(r_of),
        l_classes=_classes(l_of),
        j_classes=_classes(j[r_of]),
        idempotent_indices=tuple(idempotents(s)),
    )


def is_j_trivial(s: FiniteSemigroup) -> bool:
    """True iff every J-class is a single element: as J = D = R∘L in a finite
    semigroup, iff s is both R-trivial and L-trivial, that is, iff every
    element is the least member of its R-class and of its L-class."""
    ar = np.arange(s.size)
    return bool((_least_members(s.table) == ar).all() and (_least_members(s.table.T) == ar).all())


def is_block_group(s: FiniteSemigroup):
    """Check that no two distinct idempotents are mutually translating.

    Scans ordered pairs (e, f) of distinct idempotents, a slab of rows e at a time,
    for ef=e & fe=f first, then for ef=f & fe=e; returns (False, first violating
    pair) or (True, None).
    """
    t, f = s.table, np.array(idempotents(s), dtype=np.intp)
    for swap in (False, True):
        for lo, hi in slabs(f.size, f.size):
            e = f[lo:hi, None]
            x, y = (f, e) if swap else (e, f)
            hit = (t[e, f] == x) & (t[f, e] == y) & (e != f)
            if hit.any():
                i, j = np.argwhere(hit)[0]
                return False, (int(f[lo + i]), int(f[j]))
    return True, None


def subsemigroup_closure(s: FiniteSemigroup, generators):
    """Least subset closed under the table containing the generators.

    Returns (subsemigroup, parent_indices) with elements sorted by parent index.
    """
    gens = sorted(set(generators))
    if not gens:
        raise ValueError("generator set must be nonempty")
    for g in gens:
        if not 0 <= g < s.size:
            raise ValueError(f"generator index {g} out of range")
    reached = np.zeros(s.size, dtype=bool)  # products of generators, by the right Cayley graph
    _reach(s.table[:, gens].T, reached, np.array(gens))
    parent = np.flatnonzero(reached)
    back = np.cumsum(reached) - 1
    table = back[s.table[np.ix_(parent, parent)]]
    labels = tuple(s.labels[p] for p in parent)
    return FiniteSemigroup(labels, table, _find_identity(table)), tuple(parent.tolist())


def idempotent_generated(s: FiniteSemigroup) -> FiniteSemigroup:
    """The subsemigroup generated by all idempotents."""
    ids = idempotents(s)
    if not ids:
        raise ValueError("semigroup has no idempotents")
    return subsemigroup_closure(s, ids)[0]


def check_homomorphism(mapping, s: FiniteSemigroup, t: FiniteSemigroup) -> HomomorphismCheck:
    """Does mapping send products to products (by _first_break)? Also injectivity, surjectivity."""
    mapping = tuple(mapping)
    if len(mapping) != s.size:
        raise ValueError(f"mapping must assign all {s.size} elements")
    for v in mapping:
        if not 0 <= v < t.size:
            raise ValueError(f"mapping value {v} out of range for the target")
    f = np.array(mapping, dtype=np.intp)
    pair = _first_break(_generators(s.size, lambda x: s.table[:, x]),
                        lambda g, xg: f[xg] == t.table[f, f[g]])
    if pair is not None:
        return HomomorphismCheck(False, False, False, pair)
    image = set(mapping)
    return HomomorphismCheck(True, len(image) == s.size, len(image) == t.size)


def _surjection_search(u: FiniteSemigroup, s: FiniteSemigroup):
    """Backtracking search for a surjective homomorphism u -> s, images tried ascending."""
    ku, ks = u.size, s.size
    ut, st = u.table.tolist(), s.table.tolist()  # per-element lookups run faster on lists
    mapping = [-1] * ku

    def consistent(k):
        for i in range(k + 1):
            for j in range(k + 1):
                p = ut[i][j]
                if p <= k and st[mapping[i]][mapping[j]] != mapping[p]:
                    return False
        return True

    def extend(k, image):
        if ks - len(image) > ku - k:
            return None  # not enough slots left to reach surjectivity
        if k == ku:
            return tuple(mapping) if len(image) == ks else None
        for v in range(ks):
            mapping[k] = v
            if consistent(k):
                found = extend(k + 1, image | {v})
                if found:
                    return found
        mapping[k] = -1
        return None

    return extend(0, set())


def find_division(s: FiniteSemigroup, t: FiniteSemigroup,
                  max_generators: int = 3) -> Optional[DivisionWitness]:
    """Bounded search for a witness that s divides t.

    Tries subsemigroups of t generated by up to max_generators elements
    (lexicographic subset order), then searches for a surjective homomorphism
    onto s. Returns the first witness found, or None. A None result only means
    "not found within bounds", never "does not divide".
    """
    if t.size > MAX_DIVISION_TARGET:
        raise ValueError(f"target size {t.size} exceeds the search bound {MAX_DIVISION_TARGET}")
    if max_generators < 1:
        raise ValueError("max_generators must be at least 1")
    for count in range(1, min(max_generators, t.size) + 1):
        for gens in combinations(range(t.size), count):
            sub, parent = subsemigroup_closure(t, gens)
            if sub.size < s.size:
                continue
            mapping = _surjection_search(sub, s)
            if mapping is not None:
                return DivisionWitness(gens, parent, sub, mapping)
    return None


def semigroup_of_relations(elements):
    """Cayley table over a list of relations closed under the relation product.

    Returns (semigroup, elements tuple); labels are the row bit patterns.
    Raises naming the escaping product if the list is not closed.
    """
    elements = tuple(elements)
    if not elements:
        raise ValueError("element list must be nonempty")
    if len(elements) > MAX_TABLE_SIZE:
        raise ValueError(f"element list size {len(elements)} exceeds the cap {MAX_TABLE_SIZE}")
    dim = elements[0].dim
    if any(r.dim != dim for r in elements):
        raise ValueError("elements must share one dimension")
    rows = np.array([r.rows for r in elements], dtype=np.uint64)
    # a relation's rows as one opaque key; keys sort and compare bytewise
    key = np.dtype((np.void, rows.itemsize * dim))
    order = np.argsort(rows.view(key).ravel(), kind="stable")  # repeats keep list order
    keys = rows.view(key).ravel()[order]
    twins = np.flatnonzero(keys[1:] == keys[:-1])
    if twins.size:  # the first repeat in list order follows the element it repeats
        d = twins[np.argmin(order[twins + 1])]
        raise ValueError(f"duplicate relation at positions {order[d] + 1} and {order[d + 1] + 1}")
    table = np.empty((len(rows), len(rows)), dtype=np.uint16)
    for lo, hi in slabs(len(rows), rows.size):
        # block[i, j] holds the rows of element lo+i * element j
        block = np.ascontiguousarray(union_product(rows[lo:hi], rows.T).transpose(0, 2, 1))
        found = block.view(key)[..., 0]
        at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
        missing = keys[at] != found
        if missing.any():
            i, j = np.argwhere(missing)[0]
            raise ValueError(
                f"element list is not closed: element {lo + i + 1} * element {j + 1}"
                f" = {Relation(dim, tuple(block[i, j].tolist()))} is outside the list"
            )
        table[lo:hi] = order[at]
    labels = tuple(str(r) for r in elements)
    semi = validate_table(labels, table)
    return semi, elements


def cayley_semigroup(labels, table, trailer) -> FiniteSemigroup:
    """The table layer of parse_cayley: validate_table, then a check that the
    trailer, None or (lineno, label) from parse_cayley_text, names the identity."""
    semi = validate_table(labels, table)
    if trailer is not None:
        lineno, wanted = trailer
        if wanted not in semi.labels:
            raise ValueError(f"line {lineno}: identity label {wanted!r} not in header")
        if semi.identity != semi.labels.index(wanted):
            raise ValueError(f"line {lineno}: {wanted!r} is not an identity of the table")
    return semi


def parse_cayley(text: str) -> FiniteSemigroup:
    """Parse the Cayley table text format: a label header, k rows of 1-based
    indices, and an optional identity=<label> trailer."""
    return cayley_semigroup(*parse_cayley_text(text))


def emit_cayley(s: FiniteSemigroup) -> str:
    for label in s.labels:
        if "," in label or "\n" in label:
            raise ValueError(f"label {label!r} cannot be written in the comma-separated format")
    lines = [",".join(s.labels)]
    lines += [",".join(map(str, row)) for row in s.table + 1]
    if s.identity is not None:
        lines.append(f"identity={s.labels[s.identity]}")
    return "\n".join(lines) + "\n"
