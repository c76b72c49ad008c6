"""Abstract finite semigroups as Cayley tables: Green's relations, idempotent
structure, block-group and J-triviality predicates, closures, homomorphism
checks, and a bounded division search.

validate_table proves associativity by Light's test: the elements x with
(xy)z = x(yz) for all y, z are closed under products, so checking x over a
generating set proves the whole table, in O(k^2 |A|) instead of O(k^3).

Green's R and L classes come from the principal one-sided ideals; J is derived
from them, as J = D = R∘L in a finite semigroup. One cap, MAX_TABLE_SIZE,
bounds every table.

Element order is always the table's row order; every search and tie-break is
deterministic (ascending indices, lexicographic generator subsets).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .relations import SLAB, Relation, union_product

MAX_TABLE_SIZE = 5000


@dataclass(frozen=True, eq=False)
class FiniteSemigroup:
    """A finite semigroup given by distinct element labels and a Cayley table."""

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


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


def _find_identity(table) -> Optional[int]:
    """The least e whose row and column are both the identity map, or None."""
    t = np.asarray(table)
    ar = np.arange(len(t))
    hits = np.flatnonzero((t == ar).all(axis=1) & (t.T == ar).all(axis=1))
    return int(hits[0]) if hits.size else None


def _generators(t) -> np.ndarray:
    """A generating set, picked greedily in index order.

    x joins when the right Cayley graph of the earlier generators (y -> y*a)
    has not reached it, so every element is a left-normed product of
    generators. Each element is multiplied by each generator once: O(k*|A|).
    Duplicates are dropped through the slot array, not np.unique, whose first
    call in a process costs more than a whole pick on small tables.
    """
    k = len(t)
    reached = np.zeros(k, dtype=bool)
    slot = np.zeros(k, dtype=np.intp)
    gens = []
    for x in range(k):
        if reached[x]:
            continue
        gens.append(x)
        # x itself and the products y*x of the elements already reached
        cand = np.append(t[reached, x], x)
        while True:
            cand = cand[~reached[cand]]
            if not cand.size:
                break
            order = np.arange(cand.size)
            slot[cand] = order
            fresh = cand[slot[cand] == order]
            reached[fresh] = True
            cand = t[np.ix_(fresh, gens)].ravel()
    return np.array(gens)


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
    xs = _generators(t)
    k = len(t)
    slab = max(1, (1 << 22) // (k * k))
    for lo in range(0, len(xs), slab):
        sub = t[xs[lo : lo + slab]]
        left = t[sub, :]          # (x*y)*z
        right = sub[:, t]         # x*(y*z)
        if not np.array_equal(left, right):
            i, y, z = np.argwhere(left != right)[0]
            x = xs[lo + i]
            raise ValueError(
                f"table is not associative: ({labels[x]}*{labels[y]})*{labels[z]}"
                f" != {labels[x]}*({labels[y]}*{labels[z]})"
            )


def validate_table(labels, table, max_size: int = MAX_TABLE_SIZE) -> FiniteSemigroup:
    """Validate a Cayley table (shape, range, associativity) and detect an identity."""
    labels = tuple(str(x) for x in labels)
    k = len(labels)
    if k == 0:
        raise ValueError("a semigroup needs at least one element")
    if k > max_size:
        raise ValueError(f"table size {k} exceeds the cap {max_size}")
    if len(set(labels)) != k:
        raise ValueError("duplicate labels in element list")
    table = tuple(tuple(row) for row in table)
    if len(table) != k or any(len(row) != k for row in table):
        raise ValueError(f"table must be {k}x{k}")
    t = np.asarray(table)
    bad = ~((t >= 0) & (t < k))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"table entry at ({i + 1},{j + 1}) out of range: {table[i][j]}")
    _check_associative(t.astype(np.int32), labels)
    return FiniteSemigroup(labels, table, _find_identity(t))


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """Return s itself if it is a monoid, else s with a fresh identity adjoined."""
    if s.identity is not None:
        return s
    k = s.size
    fresh = "1"
    while fresh in s.labels:
        fresh += "'"
    table = [list(row) + [i] for i, row in enumerate(s.table)]
    table.append(list(range(k + 1)))
    return FiniteSemigroup(s.labels + (fresh,), tuple(tuple(row) for row in table), k)


def idempotents(s: FiniteSemigroup) -> list[int]:
    return [e for e in range(s.size) if s.table[e][e] == e]


def _ideal_labels(t):
    """Label each element x by its principal right ideal {x} ∪ xS (row x of t)."""
    k = len(t)
    member = np.eye(k, dtype=bool)
    member[np.arange(k)[:, None], t] = True
    return np.unique(member, axis=0, return_inverse=True)[1].reshape(-1)


def _classes(labels):
    """Group indices by label; scanning in index order lists classes by least element."""
    groups: dict[int, list[int]] = {}
    for x, c in enumerate(labels.tolist()):
        groups.setdefault(c, []).append(x)
    return tuple(tuple(g) for g in groups.values())


def green_summary(s: FiniteSemigroup) -> GreenSummary:
    """Green's R/L/J partitions from the principal one-sided ideals.

    R and L label each element by the set {x} ∪ xS, resp. {x} ∪ Sx. In a finite
    semigroup J = D, and D = R∘L (Howie, Fundamentals of Semigroup Theory,
    Props. 2.1.3 and 2.1.4); an R-class and an L-class of one D-class always
    meet, so two R-classes lie in one J-class exactly when they meet the same
    L-classes.
    """
    k = s.size
    if k > MAX_TABLE_SIZE:
        raise ValueError(f"size {k} exceeds the table cap {MAX_TABLE_SIZE}")
    t = np.asarray(s.table, dtype=np.intp)
    r_of = _ideal_labels(t)
    l_of = _ideal_labels(t.T)
    meets = np.zeros((r_of.max() + 1, l_of.max() + 1), dtype=bool)
    meets[r_of, l_of] = True
    j_of = np.unique(meets, axis=0, return_inverse=True)[1].reshape(-1)[r_of]
    return GreenSummary(
        r_classes=_classes(r_of),
        l_classes=_classes(l_of),
        j_classes=_classes(j_of),
        idempotent_indices=tuple(idempotents(s)),
    )


def is_j_trivial(s: FiniteSemigroup) -> bool:
    """True iff every J-class (= D-class, as s is finite) is a single element."""
    return all(len(c) == 1 for c in green_summary(s).j_classes)


def is_block_group(s: FiniteSemigroup):
    """Check that no two distinct idempotents are mutually translating.

    Scans ordered pairs (e, f) of distinct idempotents for ef=e & fe=f first,
    then for ef=f & fe=e; returns (False, first violating pair) or (True, None).
    """
    t = s.table
    ids = idempotents(s)
    for e in ids:
        for f in ids:
            if e != f and t[e][f] == e and t[f][e] == f:
                return False, (e, f)
    for e in ids:
        for f in ids:
            if e != f and t[e][f] == f and t[f][e] == e:
                return False, (e, f)
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
    elems = list(gens)
    seen = set(gens)
    i = 0
    while i < len(elems):
        a = elems[i]
        j = 0
        while j < len(elems):
            b = elems[j]
            for c in (s.table[a][b], s.table[b][a]):
                if c not in seen:
                    seen.add(c)
                    elems.append(c)
            j += 1
        i += 1
    parent = tuple(sorted(seen))
    back = {p: i for i, p in enumerate(parent)}
    table = tuple(tuple(back[s.table[a][b]] for b in parent) for a in parent)
    labels = tuple(s.labels[p] for p in parent)
    sub = FiniteSemigroup(labels, table, _find_identity(table))
    return sub, parent


def idempotent_generated(s: FiniteSemigroup) -> FiniteSemigroup:
    """The subsemigroup generated by all idempotents."""
    ids = idempotents(s)
    if not ids:
        raise ValueError("semigroup has no idempotents")
    sub, _ = subsemigroup_closure(s, ids)
    return sub


def check_homomorphism(mapping, s: FiniteSemigroup, t: FiniteSemigroup) -> HomomorphismCheck:
    """Does mapping send products to products? Also reports injectivity/surjectivity."""
    mapping = tuple(mapping)
    if len(mapping) != s.size:
        raise ValueError(f"mapping must assign all {s.size} elements")
    for v in mapping:
        if not 0 <= v < t.size:
            raise ValueError(f"mapping value {v} out of range for the target")
    for x in range(s.size):
        for y in range(s.size):
            if mapping[s.table[x][y]] != t.table[mapping[x]][mapping[y]]:
                return HomomorphismCheck(False, False, False, (x, y))
    image = set(mapping)
    return HomomorphismCheck(True, len(image) == s.size, len(image) == t.size)


def _surjection_search(u: FiniteSemigroup, s: FiniteSemigroup):
    """Backtracking search for a surjective homomorphism u -> s, images tried ascending."""
    ku, ks = u.size, s.size
    mapping = [-1] * ku

    def consistent(k):
        for i in range(k + 1):
            for j in range(k + 1):
                p = u.table[i][j]
                if p <= k and s.table[mapping[i]][mapping[j]] != mapping[p]:
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


def find_division(s: FiniteSemigroup, t: FiniteSemigroup, max_generators: int = 3,
                  max_target_size: int = 12) -> Optional[DivisionWitness]:
    """Bounded search for a witness that s divides t.

    Tries subsemigroups of t generated by up to max_generators elements
    (lexicographic subset order), then searches for a surjective homomorphism
    onto s. Returns the first witness found, or None. A None result only means
    "not found within bounds", never "does not divide".
    """
    if t.size > max_target_size:
        raise ValueError(f"target size {t.size} exceeds the search bound {max_target_size}")
    if max_generators < 1:
        raise ValueError("max_generators must be at least 1")
    for count in range(1, max_generators + 1):
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
    index = {}
    for i, r in enumerate(elements):
        if r.rows in index:
            raise ValueError(f"duplicate relation at positions {index[r.rows] + 1} and {i + 1}")
        index[r.rows] = i
    rows = np.array([r.rows for r in elements], dtype=np.uint64)
    table = []
    step = max(1, SLAB // rows.size)
    for lo in range(0, len(rows), step):
        # block[:, j] holds the rows of element i * element j
        for i, block in enumerate(union_product(rows[lo : lo + step], rows.T), lo):
            row = [index.get(c) for c in map(tuple, block.T.tolist())]
            if None in row:
                j = row.index(None)
                raise ValueError(
                    f"element list is not closed: element {i + 1} * element {j + 1}"
                    f" = {Relation(dim, tuple(block[:, j].tolist()))} is outside the list"
                )
            table.append(tuple(row))
    labels = tuple(str(r) for r in elements)
    semi = validate_table(labels, table)
    return semi, elements


def parse_cayley(text: str) -> FiniteSemigroup:
    """Parse the Cayley table text format: a label header, k rows of 1-based
    indices, and an optional identity=<label> trailer."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped:
            entries.append((lineno, stripped))
    if not entries:
        raise ValueError("line 1: empty table file")
    lineno, head = entries[0]
    labels = [x.strip() for x in head.split(",")]
    if any(not x for x in labels):
        raise ValueError(f"line {lineno}: empty label in header")
    k = len(labels)
    trailer = None
    body = entries[1:]
    if body and body[-1][1].startswith("identity="):
        trailer = body[-1]
        body = body[:-1]
    if len(body) < k:
        raise ValueError(f"expected {k} table rows, file ends after line {entries[-1][0]}")
    if len(body) > k:
        raise ValueError(f"line {body[k][0]}: unexpected content after {k} rows")
    table = []
    for lineno, line in body:
        cells = [x.strip() for x in line.split(",")]
        if len(cells) != k:
            raise ValueError(f"line {lineno}: expected {k} entries, got {len(cells)}")
        row = []
        for cell in cells:
            try:
                v = int(cell)
            except ValueError:
                raise ValueError(f"line {lineno}: bad entry {cell!r}") from None
            if not 1 <= v <= k:
                raise ValueError(f"line {lineno}: entry {v} outside 1..{k}")
            row.append(v - 1)
        table.append(tuple(row))
    semi = validate_table(labels, table)
    if trailer is not None:
        lineno, line = trailer
        wanted = line.removeprefix("identity=").strip()
        if wanted not in semi.labels:
            raise ValueError(f"line {lineno}: identity label {wanted!r} not in header")
        if semi.identity != semi.labels.index(wanted):
            raise ValueError(f"line {lineno}: {wanted!r} is not an identity of the table")
    return semi


def emit_cayley(s: FiniteSemigroup) -> str:
    for label in s.labels:
        if "," in label or "\n" in label:
            raise ValueError(f"label {label!r} cannot be written in the comma-separated format")
    lines = [",".join(s.labels)]
    for row in s.table:
        lines.append(",".join(str(v + 1) for v in row))
    if s.identity is not None:
        lines.append(f"identity={s.labels[s.identity]}")
    return "\n".join(lines) + "\n"
