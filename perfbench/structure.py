"""structure: Green's classes, block-group and J-triviality verdicts, embeddings
and the verification campaign, in-process.

One pass runs, in this order:
  * verification_campaign(n) for n = 1..3;
  * power_semigroup of cyclic_group(k), k = 1..9, and of symmetric_group_table(3),
    each followed by green_summary, is_block_group and idempotent_generated;
  * hall_embedding + check_pairs_embedding for cyclic groups of order 1..8
    and for symmetric:3;
  * seeded relation semigroups on n = 4, one per size band, each through
    semigroup_of_relations, green_summary and is_block_group. The check
    compares the block-group flag with the J-triviality of the
    idempotent-generated subsemigroup, outside the timed region: the size of
    that subsemigroup, and so its cost, varies widely from seed to seed.

The seed picks the generators; one semigroup per narrow size band keeps the
amount of work nearly the same for every seed.
"""

from __future__ import annotations

import random

import hallkit

from common import Op

NAME = "structure"
MIN_PASSES = 3
LAYER_PASSES = 2
# A caller waits for the whole suite; its cases differ in cost by three orders
# of magnitude, so per-case percentiles would jump from case to case.
REQUEST_IS_PASS = True

BANDS = ((120, 135), (150, 165), (180, 195), (210, 225))
TINY_BANDS = ((6, 20),)


def warmup():
    hallkit.verification_campaign(1)
    power, _ = hallkit.power_semigroup(hallkit.cyclic_group(1).base)
    hallkit.green_summary(power)
    hallkit.is_block_group(power)
    hallkit.idempotent_generated(power)
    group = hallkit.cyclic_group(1)
    hallkit.check_pairs_embedding(group, hallkit.hall_embedding(group))
    semi, _ = hallkit.semigroup_of_relations([hallkit.Relation.identity(2)])
    hallkit.green_summary(semi)
    hallkit.is_block_group(semi)


def _product(a, b):
    """Relation product on row tuples, independent of hallkit."""
    out = []
    for row in a:
        acc = z = 0
        while row:
            if row & 1:
                acc |= b[z]
            row >>= 1
            z += 1
        out.append(acc)
    return tuple(out)


def _closure(gens, cap):
    elems = list(dict.fromkeys(gens))
    seen = set(elems)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(i + 1):
            b = elems[j]
            for c in (_product(a, b), _product(b, a)):
                if c not in seen:
                    seen.add(c)
                    elems.append(c)
                    if len(elems) > cap:
                        return None
        i += 1
    return elems


def _code(rows, n):
    return sum(row << (i * n) for i, row in enumerate(rows))


def seeded_semigroups(seed, bands, n=4):
    """One closure of 2-3 random generators per size band, in band order."""
    rng = random.Random(seed)
    cap = max(hi for _, hi in bands)
    found = {}
    while len(found) < len(bands):
        gens = [tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(rng.choice((2, 3)))]
        elems = _closure(gens, cap)
        if elems is None:
            continue
        for band in bands:
            if band not in found and band[0] <= len(elems) < band[1]:
                found[band] = sorted(elems, key=lambda r: _code(r, n))
                break
    return [(n, found[band]) for band in bands]


def make_inputs(seed, workdir, tiny=False):
    if tiny:
        return {"campaign": (1, 2), "cyclic_power": range(1, 5), "cyclic_embed": range(1, 5),
                "symmetric": 3, "semigroups": seeded_semigroups(seed, TINY_BANDS, n=3)}
    return {"campaign": (1, 2, 3), "cyclic_power": range(1, 10), "cyclic_embed": range(1, 9),
            "symmetric": 3, "semigroups": seeded_semigroups(seed, BANDS)}


def _campaign_op(n):
    def check(report):
        failed = [c.name for c in report.checks if not c.passed]
        if failed:
            return f"campaign checks failed: {failed}"
        if len(report.checks) != 5:
            return f"expected 5 campaign checks, got {len(report.checks)}"
        return None
    return Op(f"campaign n={n}", lambda: hallkit.verification_campaign(n), check)


def _partition_ok(classes, size):
    members = sorted(i for c in classes for i in c)
    return members == list(range(size))


def _power_op(label, make_group):
    def run():
        group = make_group()
        power, masks = hallkit.power_semigroup(group.base)
        green = hallkit.green_summary(power)
        block, _ = hallkit.is_block_group(power)
        core = hallkit.idempotent_generated(power)
        return group.size, power.size, green, block, core.size

    def check(value):
        order, size, green, block, core_size = value
        if size != (1 << order) - 1:
            return f"power semigroup has {size} elements, expected {(1 << order) - 1}"
        if not block:
            return "power semigroup of a group is not a block group"
        for kind in ("r_classes", "l_classes", "j_classes"):
            if not _partition_ok(getattr(green, kind), size):
                return f"{kind} do not partition the elements"
        if not 1 <= core_size <= size:
            return f"idempotent-generated subsemigroup has {core_size} elements"
        return None

    return Op(f"power {label}", run, check)


def _embed_op(label, make_group):
    def run():
        group = make_group()
        table = hallkit.hall_embedding(group)
        return group.size, table, hallkit.check_pairs_embedding(group, table)

    def check(value):
        order, table, (injective, multiplicative, pairs) = value
        subsets = (1 << order) - 1
        if not (injective and multiplicative):
            return f"embedding injective={injective} multiplicative={multiplicative}"
        if len(table) != subsets or len(set(table.values())) != subsets:
            return "subset images are not distinct"
        if pairs != subsets * subsets:
            return f"checked {pairs} pairs, expected {subsets * subsets}"
        return None

    return Op(f"embed {label}", run, check)


def _semigroup_op(index, n, rows):
    def run():
        elems = [hallkit.Relation(n, r) for r in rows]
        semi, _ = hallkit.semigroup_of_relations(elems)
        green = hallkit.green_summary(semi)
        block, _ = hallkit.is_block_group(semi)
        return semi, green, block

    def check(value):
        semi, green, block = value
        size = semi.size
        if size != len(rows):
            return f"semigroup has {size} elements, expected {len(rows)}"
        core_j_trivial = hallkit.is_j_trivial(hallkit.idempotent_generated(semi))
        if block != core_j_trivial:
            return (f"block-group flag {block} differs from J-triviality {core_j_trivial}"
                    " of the idempotent-generated subsemigroup")
        if not _partition_ok(green.j_classes, size):
            return "J-classes do not partition the elements"
        return None

    return Op(f"semigroup #{index} ({len(rows)} elements)", run, check)


def ops(inputs):
    sym = inputs["symmetric"]
    out = [_campaign_op(n) for n in inputs["campaign"]]
    out += [_power_op(f"cyclic:{k}", lambda k=k: hallkit.cyclic_group(k))
            for k in inputs["cyclic_power"]]
    out.append(_power_op(f"symmetric:{sym}", lambda: hallkit.symmetric_group_table(sym)))
    out += [_embed_op(f"cyclic:{k}", lambda k=k: hallkit.cyclic_group(k))
            for k in inputs["cyclic_embed"]]
    out.append(_embed_op(f"symmetric:{sym}", lambda: hallkit.symmetric_group_table(sym)))
    out += [_semigroup_op(i, n, rows) for i, (n, rows) in enumerate(inputs["semigroups"])]
    return out


layer_ops = ops


def extras(inputs, layer_passes, next_index):
    return {}, []
