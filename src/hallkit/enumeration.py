"""Enumeration of Hall and reflexive relation monoids.

Two independent routes establish every Hall count. count_hall merges all
2^(n^2) matrices by matching state one row at a time, carrying integer
multiplicities (the transfer-matrix method). The oracle,
count_hall_inclusion_exclusion, runs no matching at all: it expands the
permanent along the last two rows, so column orbits are needed for the first
n-2 rows only. Over the column-orbit representatives of those rows, each
weighted by the row sequences it stands for, Ryser's formula gives the
permanent with every pair of columns deleted, and these decide which last two
rows complete a Hall matrix.

The Hall idempotents are counted twice too. hall_idempotent_census squares
the matrices that contain one fixed permutation per cycle type of S_n, which
is enough to show that every Hall idempotent is reflexive, and counts the
idempotents among the reflexive matrices. count_preorders counts the same
numbers, the preorders, by one-point extension in pure Python.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constructions import (
    check_pairs_embedding,
    conjugation_action,
    cyclic_group,
    hall_embedding,
    hall_factorization,
    project_to_hall,
    semidirect_product,
)
from .relations import (
    MAX_COUNT_DIM,
    check_count_dim,
    hall_relations,
    permutations_lex,
    reflexive_relations,
    slabs,
)
from .semigroups import (
    check_homomorphism,
    green_summary,
    idempotent_generated,
    is_block_group,
    is_j_trivial,
    semigroup_of_relations,
)

MAX_CENSUS_DIM = 4
MAX_MATERIALIZE_DIM = 3


@dataclass(frozen=True)
class EnumerationReport:
    """Counts for one ground-set size; census fields are None when the
    idempotent sweep is out of range."""

    n: int
    total_hall: int
    total_reflexive: int
    idempotent_hall: Optional[int]
    idempotents_all_reflexive: Optional[bool]
    worker_count: int
    elapsed_seconds: float


def _reach_masks(n):
    """reach_clear[c] = bitmap of column subsets (as state bits) avoiding column c."""
    size = 1 << n
    out = np.zeros(n, dtype=np.uint64)
    for c in range(n):
        v = 0
        for k in range(size):
            if not k >> c & 1:
                v |= 1 << k
        out[c] = v
    return out


def _step(state, row, clear):
    """Matching states after reading one more row, elementwise over arrays.

    Bit k of a state is set when column subset k is exactly matched by the
    rows read so far; the empty subset (state 1) starts, and a state of 0
    can never match every column. clear is _reach_masks(n).
    """
    new = np.zeros(state.shape, dtype=np.uint64)
    for c, mask in enumerate(clear):
        has = ((row >> np.uint32(c)) & np.uint32(1)).astype(np.uint64)
        new |= ((state & mask) << np.uint64(1 << c)) * has
    return new


def _count(n):
    """Hall matrices among all 2^(n^2), by the transfer-matrix method.

    Matrices are merged by matching state one row at a time, each distinct
    state carrying the number of row prefixes that reach it. Zero rows and
    dead states are dropped, since neither can lead to a Hall matrix.
    """
    clear = _reach_masks(n)
    rows = np.arange(1, 1 << n, dtype=np.uint32)
    states = np.ones(1, dtype=np.uint64)
    weights = np.ones(1, dtype=np.int64)
    for _ in range(n):
        nxt = _step(np.repeat(states, rows.size), np.tile(rows, states.size), clear)
        live = nxt != 0
        states, inverse = np.unique(nxt[live], return_inverse=True)
        merged = np.zeros(states.size, dtype=np.int64)
        np.add.at(merged, inverse, np.repeat(weights, rows.size)[live])
        weights = merged
    full = (states >> np.uint64((1 << n) - 1)) & np.uint64(1) == 1
    return int(weights[full].sum())


def count_hall(n: int, workers: int = 1) -> EnumerationReport:
    """Count the Hall matrices among all 2^(n^2) by the transfer-matrix method.

    The count always runs in this process; workers is only checked and echoed
    as worker_count, so the count does not depend on it.
    """
    check_count_dim(n)
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    start = time.perf_counter()
    total = _count(n)
    if n <= MAX_CENSUS_DIM:
        idem, all_reflexive = hall_idempotent_census(n)
    else:
        idem, all_reflexive = None, None
    return EnumerationReport(
        n=n,
        total_hall=total,
        total_reflexive=1 << (n * (n - 1)),
        idempotent_hall=idem,
        idempotents_all_reflexive=all_reflexive,
        worker_count=workers,
        elapsed_seconds=time.perf_counter() - start,
    )


def count_reflexive(n: int) -> int:
    """Count reflexive matrices by scanning row values, not by formula.

    A matrix is reflexive when each row i has bit i set, and its rows are
    chosen independently, so the count is the product over i of the number
    of row values, among all 2^n, with bit i set.
    """
    check_count_dim(n)
    return math.prod(sum(v >> i & 1 for v in range(1 << n)) for i in range(n))


def _column_images(n):
    """images[p, v] is row value v with its columns moved by the p-th permutation of S_n."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    bits = (np.arange(1 << n, dtype=np.uint8)[:, None] >> np.arange(n, dtype=np.uint8)) & 1
    # bit c of v moves to bit p[c]; the moved bits are distinct, so their sum is the image
    return (bits << perms[:, None, :]).sum(axis=2, dtype=np.uint8)


def _canonical_extensions(reps, images, n):
    """Column-canonical keys, with stabilizer sizes, of reps[a] plus row r for
    every representative a and nonzero row r, in that order.

    Each permutation's image of a tuple is sorted and packed into one integer,
    first row highest, so the least key over S_n is the lexicographically
    least sorted image; the permutations that reach it form the stabilizer.
    The images of reps are sorted once by a min/max network, and the image of
    r is then inserted into them by one more comparator per row. Keys take the
    narrowest unsigned type that holds n bits per row.
    """
    cols = [images[:, reps[:, i], None] for i in range(reps.shape[1])]
    for i in range(1, len(cols)):
        for j in range(i, 0, -1):
            lo, hi = cols[j - 1], cols[j]
            cols[j - 1], cols[j] = np.minimum(lo, hi), np.maximum(lo, hi)
    carry = images[:, None, 1:]
    key = np.zeros((images.shape[0], reps.shape[0], images.shape[1] - 1),
                   dtype=np.min_scalar_type((1 << n * (len(cols) + 1)) - 1))
    for col in cols:
        key = key << n | np.minimum(col, carry)
        carry = np.maximum(col, carry)
    key = key << n | carry
    least = key.min(axis=0)
    return least.ravel(), np.count_nonzero(key == least, axis=0).ravel()


def _column_orbits(n, m):
    """Column-orbit representatives of the multisets of m nonzero rows of width n, with weights.

    Level k extends every level-(k-1) representative by each nonzero row and
    keeps the distinct canonical forms. Every k-multiset is a column-permuted
    representative plus one row, so no orbit is missed. A representative A
    (sorted rows) weighs the number of ordered row sequences whose multiset
    lies in its orbit: n!/|Stab(A)| multisets times m!/prod(mult!) orderings.
    """
    size = 1 << n
    images = _column_images(n)
    reps = np.zeros((1, 0), dtype=np.int64)
    stab = np.full(1, math.factorial(n), dtype=np.int64)
    for k in range(1, m + 1):
        keys, stabs = [], []
        for lo, hi in slabs(reps.shape[0], images.shape[0] * (size - 1) * k):
            key, st = _canonical_extensions(reps[lo:hi], images, n)
            keys.append(key)
            stabs.append(st)
        keys, first = np.unique(np.concatenate(keys), return_index=True)
        stab = np.concatenate(stabs)[first]
        fields = [keys >> (n * (k - 1 - i)) & (size - 1) for i in range(k)]
        reps = np.stack(fields, axis=1).astype(np.int64)
    weights = math.factorial(n) // stab * math.factorial(m)
    # rows are sorted within a representative, so run counts the copies of
    # reps[:, i] among positions 0..i, and its product over i is prod(mult!)
    run = np.ones(reps.shape[0], dtype=np.int64)
    for i in range(1, m):
        run = np.where(reps[:, i] == reps[:, i - 1], run + 1, 1)
        weights //= run
    return reps, weights


def _popcounts(n):
    return np.array([v.bit_count() for v in range(1 << n)], dtype=np.int64)


def _pair_permanents(reps, n):
    """pair[a, j] = perm(reps[a] - {c, d}) for the j-th pair c < d of
    itertools.combinations(range(n), 2), where reps holds n-2 rows per matrix.

    Ryser's formula for the square matrix left after deleting columns c and d
    sums the same signed terms (-1)^(n-|s|) prod_i |row_i & s| as for all n
    columns, over the subsets s that miss both c and d. So one matrix product
    of every subset's term with avoid[s, j] = [s misses pair j] gives them all.
    """
    subsets = np.arange(1 << n, dtype=np.int64)
    popcount = _popcounts(n)
    terms = np.tile(np.where((n - popcount) & 1, -1, 1), (reps.shape[0], 1))
    for i in range(reps.shape[1]):
        terms *= popcount[reps[:, i, None] & subsets]
    pairs = np.array([1 << c | 1 << d for c, d in itertools.combinations(range(n), 2)])
    return terms @ (subsets[:, None] & pairs == 0).astype(np.int64)


def count_hall_inclusion_exclusion(n: int) -> int:
    """Independent oracle for count_hall: a two-row Laplace expansion of
    Ryser's permanent over column orbits.

    Expanding the permanent along its last two rows r and s gives
    perm(A + r + s) = sum perm(A - {c, d}) over c in r, d in s, c != d, where
    A - {c, d} is the first n-2 rows A without columns c and d. Every term is
    at least 0, so perm(A + r + s) > 0 iff s meets N_A(r), the union over c in
    r of adj_A[c] = {d : perm(A - {c, d}) > 0}; that holds for
    2^n - 2^(n - |N_A(r)|) rows s. The count of A is unchanged when its rows or
    columns are permuted, since r and s range over every row. So A ranges over
    the column-orbit representatives of the multisets of n-2 rows, each
    weighted by the ordered sequences it stands for: the count is
    sum_A w_A * sum_r (2^n - 2^(n - |N_A(r)|)). Pair permanents come from
    Ryser's inclusion-exclusion (_pair_permanents). The rows of A are nonzero,
    and a zero r or s meets nothing, so no matrix with a zero row is counted.
    No matching is ever run.
    """
    if not 1 <= n <= MAX_COUNT_DIM:
        raise ValueError(f"oracle supported for 1 <= n <= {MAX_COUNT_DIM}, got {n}")
    if n == 1:
        return 1  # the 1x1 matrix [1]; there are no two rows to expand along
    reps, weights = _column_orbits(n, n - 2)
    size = 1 << n
    popcount = _popcounts(n)
    total = 0
    for lo, hi in slabs(reps.shape[0], size):
        positive = _pair_permanents(reps[lo:hi], n) > 0
        adj = np.zeros((hi - lo, n), dtype=np.int64)
        for j, (c, d) in enumerate(itertools.combinations(range(n), 2)):
            adj[:, c] |= positive[:, j].astype(np.int64) << d
            adj[:, d] |= positive[:, j].astype(np.int64) << c
        # reach[a, r] = N_A(r), doubled one column at a time: r with top bit c
        # adds adj[c] to the reach of r without it
        reach = np.zeros((hi - lo, size), dtype=np.int64)
        for c in range(n):
            reach[:, 1 << c:2 << c] = reach[:, :1 << c] | adj[:, c, None]
        meets = size - (1 << (n - popcount[reach]))
        total += int(weights[lo:hi] @ meets.sum(axis=1))
    return total


def _cycle_type_representatives(n):
    """One permutation of S_n per cycle type, as image tuples, the identity first.

    Each partition of n, parts ascending, cycles runs of consecutive points of
    those lengths. Partitions come in lexicographic order, so 1+1+...+1, the
    identity, is first.
    """
    def partitions(rest, least):
        if rest == 0:
            yield ()
        for part in range(least, rest + 1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    reps = []
    for parts in partitions(n, 1):
        image, start = [], 0
        for part in parts:
            image += list(range(start + 1, start + part)) + [start]
            start += part
        reps.append(tuple(image))
    return reps


def hall_idempotent_census(n: int):
    """Count idempotent Hall relations and verify they are all reflexive.

    A Hall idempotent e contains some permutation p, so e = e^m contains p^m
    for every m >= 1, and with m the order of p it contains p^m = id: every
    Hall idempotent is reflexive. The sweep checks this rather than assuming
    it, without sweeping all 2^(n^2) matrices. Every Hall matrix e contains
    some permutation q, and q = s p s^-1 for the representative p of q's cycle
    type (_cycle_type_representatives). Conjugation e -> s^-1 e s keeps
    idempotency, reflexivity and containing a permutation, so every Hall
    idempotent is reflexive iff, for each representative p, every idempotent
    e containing p is. The sweep therefore squares, for each p, the
    2^(n(n-1)) matrices whose row i has bit p(i) set: row i takes the
    2^(n-1) values with that bit, and all blocks form one broadcast grid of
    uint8 rows. Every swept matrix contains p, so no matching is run. The
    identity comes first, and its block is exactly the reflexive matrices,
    which all contain the identity and so are Hall: the count is the number
    of idempotents in that block, which is every Hall idempotent when
    all_reflexive holds. Returns (count, all_reflexive).
    """
    if not 1 <= n <= MAX_CENSUS_DIM:
        raise ValueError(f"census supported for 1 <= n <= {MAX_CENSUS_DIM}, got {n}")
    reps = np.array(_cycle_type_representatives(n), dtype=np.intp)
    values = np.arange(1 << n, dtype=np.uint8)
    # with_bit[c] = the 2^(n-1) row values with bit c set
    with_bit = np.stack([values[values >> c & 1 == 1] for c in range(n)])
    rows = []
    for i in range(n):
        shape = [len(reps)] + [1] * n
        shape[1 + i] = -1
        rows.append(with_bit[reps[:, i]].reshape(shape))
    idem = reflexive = True
    for i in range(n):
        # row i of M^2 is the union of the rows z with bit z in row i
        square = 0
        for z in range(n):
            square = square | rows[z] * (rows[i] >> z & 1)
        idem = idem & (square == rows[i])
        reflexive = reflexive & (rows[i] >> i & 1 == 1)
    return int(np.count_nonzero(idem[0])), not bool(np.any(idem & ~reflexive))


def _point_extensions(up):
    """The pairs (D, U) of bitmasks that extend a preorder by one more point.

    up[x] is the set of points at or above x. The new point lies above the
    points of D and below those of U: D must be down-closed, U up-closed, and
    every d in D below every u in U, i.e. U within meet[D], the points above
    all of D. These are what transitivity through the new point requires, and
    together they suffice.
    """
    m = len(up)
    down = [sum(1 << y for y in range(m) if up[y] >> x & 1) for x in range(m)]
    up_close, down_close, meet = [0], [0], [(1 << m) - 1]
    for s in range(1, 1 << m):
        low, rest = (s & -s).bit_length() - 1, s & (s - 1)
        up_close.append(up_close[rest] | up[low])
        down_close.append(down_close[rest] | down[low])
        meet.append(meet[rest] & up[low])
    ups = [s for s in range(1 << m) if up_close[s] == s]
    return [(d, u) for d in range(1 << m) if down_close[d] == d for u in ups if u & meet[d] == u]


def count_preorders(n: int) -> int:
    """Count the preorders on n points by one-point extension, in pure Python.

    A reflexive relation e is idempotent iff it is transitive (e.e within e;
    e within e.e holds by reflexivity), i.e. a preorder. So this counts the
    Hall idempotents that hall_idempotent_census counts by squaring, and
    shares no kernel with it: 1, 4, 29, 355, 6942, 209527 (OEIS A000798).
    Each preorder on n points restricts to one on the first n-1, together with
    the points below and above point n (_point_extensions). The preorders on
    n-1 points are built one point at a time; their extensions are counted.
    """
    check_count_dim(n)
    level = [()]
    for m in range(n - 1):
        level = [tuple(v | (d >> x & 1) << m for x, v in enumerate(up)) + (u | 1 << m,)
                 for up in level for d, u in _point_extensions(up)]
    return sum(len(_point_extensions(up)) for up in level)


def materialize_reflexive(n: int):
    """All reflexive relations as a concrete monoid; returns (semigroup, elements)."""
    if not 1 <= n <= MAX_MATERIALIZE_DIM:
        raise ValueError(f"materialization capped at n = {MAX_MATERIALIZE_DIM}, got {n}")
    return semigroup_of_relations(list(reflexive_relations(n)))


def materialize_hall(n: int):
    """All Hall relations as a concrete monoid; returns (semigroup, elements)."""
    if not 1 <= n <= MAX_MATERIALIZE_DIM:
        raise ValueError(f"materialization capped at n = {MAX_MATERIALIZE_DIM}, got {n}")
    return semigroup_of_relations(list(hall_relations(n)))


@dataclass(frozen=True)
class CampaignCheck:
    name: str
    passed: bool
    details: dict
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class CampaignReport:
    n: int
    checks: tuple[CampaignCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _groups_of_order(n):
    """Catalog groups whose order equals n (ground sets up to 3 are cyclic-only)."""
    return [(f"cyclic:{n}", cyclic_group(n))]


def semidirect_surjection(n: int, hall, hall_elems) -> dict:
    """Check (rho, pi) -> rho*pi maps the semidirect product onto the Hall monoid
    (hall, with relations hall_elems) and that hall_factorization inverts it."""
    action = conjugation_action(n)
    sd, sd_pairs = semidirect_product(action.target, action.group, action)
    refl_elems = list(reflexive_relations(n))
    perms = permutations_lex(n)
    hall_index = {r: i for i, r in enumerate(hall_elems)}
    mapping = tuple(hall_index[project_to_hall(refl_elems[mi], perms[gi])] for mi, gi in sd_pairs)
    hom = check_homomorphism(mapping, sd, hall)
    roundtrip = all(project_to_hall(*hall_factorization(s)) == s for s in hall_elems)
    return {
        "pairs": sd.size,
        "hall_size": hall.size,
        "homomorphism": hom.is_homomorphism,
        "surjective": hom.surjective,
        "factorization_roundtrip": roundtrip,
    }


def verification_campaign(n: int) -> CampaignReport:
    """Exhaustive verification suite at one ground-set size.

    Covers: J-triviality of the reflexive monoid, the block-group property of
    the Hall monoid, the idempotent-closure equivalence, subset-embedding
    injectivity and multiplicativity for catalog groups of order n, and the
    surjection from the semidirect product onto the Hall monoid.
    """
    if not 1 <= n <= MAX_MATERIALIZE_DIM:
        raise ValueError(f"campaign supported for 1 <= n <= {MAX_MATERIALIZE_DIM}, got {n}")
    checks = []

    refl, _ = materialize_reflexive(n)
    refl_green = green_summary(refl)
    jt = all(len(c) == 1 for c in refl_green.j_classes)
    checks.append(CampaignCheck(
        name="reflexive-monoid-j-trivial",
        passed=jt,
        details={"size": refl.size},
        witnesses=() if jt else tuple(
            " ~ ".join(refl.labels[i] for i in c) for c in refl_green.j_classes if len(c) > 1
        ),
    ))

    hall, hall_elems = materialize_hall(n)
    bg, pair = is_block_group(hall)
    checks.append(CampaignCheck(
        name="hall-monoid-block-group",
        passed=bg,
        details={"size": hall.size},
        witnesses=() if bg else (f"{hall.labels[pair[0]]}, {hall.labels[pair[1]]}",),
    ))

    core = idempotent_generated(hall)
    equal = bg == is_j_trivial(core)
    checks.append(CampaignCheck(
        name="block-group-idempotent-equivalence",
        passed=equal,
        details={"idempotent_generated_size": core.size},
        witnesses=() if equal else ("block-group flag disagrees with idempotent closure",),
    ))

    embed_ok = True
    embed_details = {}
    embed_witnesses = []
    for spec, group in _groups_of_order(n):
        table = hall_embedding(group)
        injective, multiplicative, pairs_checked = check_pairs_embedding(group, table)
        embed_details[spec] = {
            "subsets": len(table),
            "injective": injective,
            "multiplicative": multiplicative,
            "pairs_checked": pairs_checked,
        }
        if not (injective and multiplicative):
            embed_ok = False
            embed_witnesses.append(spec)
    checks.append(CampaignCheck(
        name="subset-embedding",
        passed=embed_ok,
        details=embed_details,
        witnesses=tuple(embed_witnesses),
    ))

    details = semidirect_surjection(n, hall, hall_elems)
    ok = details["homomorphism"] and details["surjective"] and details["factorization_roundtrip"]
    checks.append(CampaignCheck(
        name="semidirect-surjection",
        passed=ok,
        details=details,
        witnesses=() if ok else ("surjection onto the Hall monoid failed",),
    ))

    return CampaignReport(n=n, checks=tuple(checks))
