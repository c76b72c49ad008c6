import itertools
import random

from hallkit import Relation, compose, semigroup_of_relations


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


def brute_hall_count(n, top=None):
    """Oracle: try every permutation against every matrix (with first row
    equal to top, when given)."""
    perms = list(itertools.permutations(range(n)))
    count = 0
    for code in range(1 << (n * n)):
        rows = [(code >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        if top is not None and rows[0] != top:
            continue
        if any(all(rows[i] >> p[i] & 1 for i in range(n)) for p in perms):
            count += 1
    return count
