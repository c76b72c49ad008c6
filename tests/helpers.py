import itertools
import math
import random

import numpy as np

from hallkit import (
    HomomorphismCheck,
    Relation,
    compose,
    is_hall,
    is_reflexive,
    relations,
    semigroup_of_relations,
    validate_table,
)


def random_relation_semigroups(count, max_order=20, seed=20260808, generators=(1, 2)):
    """Closure-generated semigroups of relations on n = 2 or 3 points, from a
    number of random relations drawn from generators; deterministic across runs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        gens = {
            Relation(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            for _ in range(rng.choice(generators))
        }
        elems = list(gens)
        seen = set(gens)
        i = 0
        while i < len(elems) and len(elems) <= max_order:
            j = 0
            while j < len(elems):
                for c in (compose(elems[i], elems[j]), compose(elems[j], elems[i])):
                    if c not in seen:
                        seen.add(c)
                        elems.append(c)
                j += 1
            i += 1
        if len(elems) <= max_order:
            elems.sort(key=lambda r: r.code)
            out.append(semigroup_of_relations(elems)[0])
    return out


def random_transformation_semigroups(count, max_order=60, seed=20261019):
    """Closures of 1-3 random maps on 2-4 points under composition (apply the
    left factor first), as validated Cayley tables in order of discovery."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randrange(2, 5)
        elems = list(dict.fromkeys(
            tuple(rng.randrange(d) for _ in range(d)) for _ in range(rng.randrange(1, 4))))
        index = {f: i for i, f in enumerate(elems)}
        i = 0
        while i < len(elems) <= max_order:  # every product of two listed maps gets listed
            for j in range(i + 1):
                for f, g in ((elems[i], elems[j]), (elems[j], elems[i])):
                    fg = tuple(g[x] for x in f)
                    if fg not in index:
                        index[fg] = len(elems)
                        elems.append(fg)
            i += 1
        if len(elems) <= max_order:
            table = [[index[tuple(g[x] for x in f)] for g in elems] for f in elems]
            out.append(validate_table([str(f) for f in elems], table))
    return out


def reference_green_classes(table):
    """Green's (R, L, J) partitions of a table given as nested lists: elements
    grouped by the sets {x} ∪ xS, {x} ∪ Sx and S¹xS¹, each partition a tuple of
    classes in least-element order."""
    k = len(table)
    groups = ({}, {}, {})
    for x in range(k):
        right = {x} | set(table[x])
        left = {x} | {row[x] for row in table}
        both = right | left | {table[a][table[x][b]] for a in range(k) for b in range(k)}
        for group, key in zip(groups, (right, left, both)):
            group.setdefault(frozenset(key), []).append(x)
    return tuple(tuple(tuple(c) for c in group.values()) for group in groups)


def brute_hall_count(n):
    """Oracle: try every permutation against every matrix."""
    perms = list(itertools.permutations(range(n)))
    count = 0
    for code in range(1 << (n * n)):
        rows = [(code >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        if any(all(rows[i] >> p[i] & 1 for i in range(n)) for p in perms):
            count += 1
    return count


def reference_idempotent_census(n):
    """Square every one of the 2^(n^2) matrices with compose (n <= 3): the
    number of Hall idempotents, and whether every one of them is reflexive."""
    matrices = (Relation.from_code(n, code) for code in range(1 << (n * n)))
    idempotents = [r for r in matrices if compose(r, r) == r and is_hall(r) is not None]
    return len(idempotents), all(is_reflexive(r) for r in idempotents)


def reference_count_reflexive(n):
    """Scan all 2^(n^2) matrix codes for the diagonal bits (n <= 4), one
    row range of relations.slabs at a time."""
    diag = np.uint64(sum(1 << (i * n + i) for i in range(n)))
    total = 0
    for lo, hi in relations.slabs(1 << (n * n), 1):
        codes = np.arange(lo, hi, dtype=np.uint64)
        total += int(np.count_nonzero(codes & diag == diag))
    return total


def reference_multiset_oracle(n):
    """Ryser's permanent over every sorted multiset of n nonzero rows, each
    weighted by its n!/prod(multiplicity!) orderings (n <= 5)."""
    size = 1 << n
    multisets = math.comb(size + n - 2, n)
    rows = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(1, size), n)),
        dtype=np.int64,
        count=multisets * n,
    ).reshape(multisets, n)
    # rows are sorted within a multiset, so run counts the copies of rows[:, i]
    # among positions 0..i, and its product over i is prod(multiplicity!)
    orderings = np.full(multisets, math.factorial(n), dtype=np.int64)
    run = np.ones(multisets, dtype=np.int64)
    for i in range(1, n):
        run = np.where(rows[:, i] == rows[:, i - 1], run + 1, 1)
        orderings //= run
    popcount = np.array([s.bit_count() for s in range(size)], dtype=np.int64)
    permanent = np.zeros(multisets, dtype=np.int64)
    for s in range(1, size):
        term = popcount[rows[:, 0] & s]
        for i in range(1, n):
            term *= popcount[rows[:, i] & s]
        if (n - popcount[s]) & 1:
            permanent -= term
        else:
            permanent += term
    return int(orderings[permanent > 0].sum())


# Pure-Python references for the array kernels of hallkit.semigroups. They read
# the table as nested lists and follow the textbook loops, so they share no code
# with the numpy versions they check.

def reference_check_homomorphism(mapping, s, t):
    """Every pair (x, y) in row-major order; the first with f(xy) != f(x)f(y) fails."""
    st, tt = s.table.tolist(), t.table.tolist()
    mapping = tuple(mapping)
    for x in range(s.size):
        for y in range(s.size):
            if mapping[st[x][y]] != tt[mapping[x]][mapping[y]]:
                return HomomorphismCheck(False, False, False, (x, y))
    image = set(mapping)
    return HomomorphismCheck(True, len(image) == s.size, len(image) == t.size)


def right_closure(table, gens):
    """Oracle: every left-normed product of gens, by search on the right Cayley graph."""
    seen, todo = set(gens), list(gens)
    while todo:
        x = todo.pop()
        for a in gens:
            if table[x][a] not in seen:
                seen.add(table[x][a])
                todo.append(table[x][a])
    return seen


def reference_generators(table):
    """The greedy pick in index order: x joins unless it is a left-normed
    product of the generators picked before it."""
    gens, reached = [], set()
    for x in range(len(table)):
        if x not in reached:
            gens.append(x)
            reached = right_closure(table, gens)
    return gens


def reference_is_block_group(s):
    """Pairs of distinct idempotents with ef=e & fe=f first, then ef=f & fe=e."""
    t = s.table.tolist()
    ids = [e for e in range(s.size) if t[e][e] == e]
    for e in ids:
        for f in ids:
            if e != f and t[e][f] == e and t[f][e] == f:
                return False, (e, f)
    for e in ids:
        for f in ids:
            if e != f and t[e][f] == f and t[f][e] == e:
                return False, (e, f)
    return True, None


def reference_subsemigroup_closure(s, generators):
    """Pairwise closure: (parent indices ascending, sub-table over them)."""
    t = s.table.tolist()
    elems = sorted(set(generators))
    seen = set(elems)
    i = 0
    while i < len(elems):
        a = elems[i]
        j = 0
        while j < len(elems):
            b = elems[j]
            for c in (t[a][b], t[b][a]):
                if c not in seen:
                    seen.add(c)
                    elems.append(c)
            j += 1
        i += 1
    parent = tuple(sorted(seen))
    back = {p: i for i, p in enumerate(parent)}
    return parent, [[back[t[a][b]] for b in parent] for a in parent]


def reference_check_pairs_embedding(group, table):
    """Every ordered pair (p, q) of keys: the subset product pq, formed by loops
    over the group table, must be a key whose image is the relation product of
    the images of p and q. Returns (injective, multiplicative, pairs)."""
    mul = group.base.table.tolist()

    def product(p, q):
        out = 0
        for a in range(group.size):
            for b in range(group.size):
                if p >> a & 1 and q >> b & 1:
                    out |= 1 << mul[a][b]
        return out

    keys = sorted(table)
    multiplicative = all(
        product(p, q) in table and table[product(p, q)] == compose(table[p], table[q])
        for p in keys for q in keys
    )
    return len(set(table.values())) == len(keys), multiplicative, len(keys) ** 2
