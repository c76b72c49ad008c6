import itertools
import random

from hallkit import HomomorphismCheck, Relation, compose, semigroup_of_relations


def random_relation_semigroups(count, max_order=20, seed=20260808):
    """Closure-generated semigroups of relations, deterministic across runs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        gens = {
            Relation(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            for _ in range(rng.choice((1, 2)))
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


def brute_hall_count(n):
    """Oracle: try every permutation against every matrix."""
    perms = list(itertools.permutations(range(n)))
    count = 0
    for code in range(1 << (n * n)):
        rows = [(code >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        if any(all(rows[i] >> p[i] & 1 for i in range(n)) for p in perms):
            count += 1
    return count


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
