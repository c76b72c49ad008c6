"""Binary relations on {1, ..., n} as bit-packed Boolean matrices, plus permutations.

A relation is stored as one machine word per row (column j of row i is bit j),
which keeps relation product, union and containment down to a few integer ops.
union_product is the batched numpy product behind relation-semigroup tables,
subset products and the embedding check; compose stays the single product.
SLAB is the one working-set budget of the slabbed kernels; slabs is its only reader.
The text formats are parsed here, the Cayley table's text layer included, so
that a bad input file is refused without numpy.
All public I/O is 1-based; internal indices are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

MAX_DIM = 64
PERMANENT_MAX_DIM = 12
MAX_COUNT_DIM = 6  # Hall and reflexive counts, by both methods
SLAB = 1 << 18  # cells per slab: the one working-set budget, read only by slabs


def _bits(mask):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Relation:
    """A binary relation on {1, ..., dim}; rows[i] holds the successors of i+1."""

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"relation dimension must be in 1..{MAX_DIM}, got {self.dim}")
        if len(self.rows) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(self.rows)}")
        full = (1 << self.dim) - 1
        for i, row in enumerate(self.rows):
            if row < 0 or row & ~full:
                raise ValueError(f"row {i + 1} has bits outside columns 1..{self.dim}")

    @classmethod
    def identity(cls, n: int) -> "Relation":
        """The equality relation (diagonal matrix)."""
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "Relation":
        """The all-ones relation."""
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Relation":
        """Build from 1-based (i, j) pairs."""
        rows = [0] * n
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i},{j}) outside ground set 1..{n}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(n, tuple(rows))

    @classmethod
    def from_code(cls, n: int, code: int) -> "Relation":
        """Decode an n^2-bit integer; bit i*n+j is entry (i+1, j+1)."""
        if not 0 <= code < 1 << (n * n):
            raise ValueError(f"code {code} out of range for dimension {n}")
        full = (1 << n) - 1
        return cls(n, tuple((code >> (i * n)) & full for i in range(n)))

    @property
    def code(self) -> int:
        """Inverse of from_code."""
        c = 0
        for i, row in enumerate(self.rows):
            c |= row << (i * self.dim)
        return c

    def pairs(self):
        """The 1-based pairs of the relation, sorted."""
        return [(i + 1, j + 1) for i, row in enumerate(self.rows) for j in _bits(row)]

    def has(self, i: int, j: int) -> bool:
        """Membership test for the 1-based pair (i, j)."""
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def __str__(self):
        return "|".join(format(row, f"0{self.dim}b")[::-1] for row in self.rows)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1, ..., dim}; image[i] is the 0-based image of i."""

    dim: int
    image: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"permutation dimension must be in 1..{MAX_DIM}, got {self.dim}")
        if len(self.image) != self.dim or sorted(self.image) != list(range(self.dim)):
            raise ValueError(f"image {self.image} is not a bijection on 0..{self.dim - 1}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    @classmethod
    def from_one_based(cls, image) -> "Permutation":
        return cls(len(image), tuple(i - 1 for i in image))

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.image)

    def __str__(self):
        if self.dim <= 9:
            return "".join(str(i + 1) for i in self.image)
        return ",".join(str(i + 1) for i in self.image)


def relation_of(p: Permutation) -> Relation:
    """The permutation viewed as a relation: exactly the pairs (i, i·p)."""
    return Relation(p.dim, tuple(1 << j for j in p.image))


def compose(r: Relation, s: Relation) -> Relation:
    """Relation product: (i, j) in the result iff some z has (i, z) in r and (z, j) in s."""
    if r.dim != s.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {s.dim}")
    out = []
    for row in r.rows:
        acc = 0
        for z in _bits(row):
            acc |= s.rows[z]
        out.append(acc)
    return Relation(r.dim, tuple(out))


def check_count_dim(n: int) -> None:
    """Refuse a count outside 1..MAX_COUNT_DIM; needs no numpy, so it can run first."""
    if not 1 <= n <= MAX_COUNT_DIM:
        raise ValueError(f"counting supported for 1 <= n <= {MAX_COUNT_DIM}, got {n}")


def slabs(count, width):
    """Row ranges (lo, hi) covering range(count) in order, max(1, SLAB // width) rows at most."""
    step = max(1, SLAB // max(1, width))
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)


def union_product(masks, values):
    """Batched product of bit-packed sets: out[..., q] is the OR of values[z, q]
    over the set bits z of masks[...], in uint64.

    Row i of r*s is the union of the rows of s picked by row i of r, and a
    subset product AB the union of the translates aB picked by A. Only the
    output is allocated at full size; callers bound it by slabs of masks.
    """
    import numpy as np  # here only, so the pure-relation commands start without numpy

    masks = np.asarray(masks, dtype=np.uint64)[..., None]
    values = np.asarray(values, dtype=np.uint64)
    out = np.zeros(masks.shape[:-1] + values.shape[1:], dtype=np.uint64)
    for z, row in enumerate(values):
        np.bitwise_or(out, row, out=out, where=(masks >> np.uint64(z) & np.uint64(1)) == 1)
    return out


def is_reflexive(r: Relation) -> bool:
    """True iff every diagonal entry is set."""
    return all(row >> i & 1 for i, row in enumerate(r.rows))


def union(r: Relation, s: Relation) -> Relation:
    if r.dim != s.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {s.dim}")
    return Relation(r.dim, tuple(a | b for a, b in zip(r.rows, s.rows)))


def contains(r: Relation, s: Relation) -> bool:
    """True iff s is a subset of r (as pair sets)."""
    if r.dim != s.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {s.dim}")
    return all(b & ~a == 0 for a, b in zip(r.rows, s.rows))


def transpose(r: Relation) -> Relation:
    out = [0] * r.dim
    for i, row in enumerate(r.rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return Relation(r.dim, tuple(out))


def _can_match_all(rows, n: int, start: int, banned: int) -> bool:
    """Can rows[start:] be matched to distinct columns outside `banned`?

    Deterministic augmenting-path search in fixed row order.
    """
    owner = [-1] * n  # column -> row currently matched to it

    def augment(i, state):
        free = rows[i] & ~banned & ~state[0]
        for c in _bits(free):
            state[0] |= 1 << c
            if owner[c] < 0 or augment(owner[c], state):
                owner[c] = i
                return True
        return False

    for i in range(start, n):
        if not augment(i, [0]):
            return False
    return True


def is_hall(r: Relation):
    """Return the lexicographically smallest permutation contained in r, or None.

    Existence is decided by augmenting-path bipartite matching; the witness is
    then minimized greedily, fixing each row to its smallest feasible column.
    """
    n = r.dim
    rows = r.rows
    if not _can_match_all(rows, n, 0, 0):
        return None
    used = 0
    image = []
    for i in range(n):
        for c in _bits(rows[i] & ~used):
            if _can_match_all(rows, n, i + 1, used | (1 << c)):
                image.append(c)
                used |= 1 << c
                break
    return Permutation(n, tuple(image))


def boolean_permanent(r: Relation) -> int:
    """1 iff the relation contains a permutation, by Ryser's inclusion-exclusion.

    Evaluates the integer permanent as a signed sum over column subsets and
    collapses it to {0, 1}; an oracle independent of the matching search.
    """
    n = r.dim
    if n > PERMANENT_MAX_DIM:
        raise ValueError(f"permanent oracle capped at dimension {PERMANENT_MAX_DIM}, got {n}")
    total = 0
    for s in range(1, 1 << n):
        prod = 1
        for row in r.rows:
            prod *= (row & s).bit_count()
            if not prod:
                break
        if (n - s.bit_count()) & 1:
            total -= prod
        else:
            total += prod
    return 1 if total else 0


def perm_product(p: Permutation, q: Permutation) -> Permutation:
    """First apply p, then q; matches the relation product of their graphs."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return Permutation(p.dim, tuple(q.image[i] for i in p.image))


def perm_inverse(p: Permutation) -> Permutation:
    inv = [0] * p.dim
    for i, j in enumerate(p.image):
        inv[j] = i
    return Permutation(p.dim, tuple(inv))


def conjugate(p: Permutation, r: Relation) -> Relation:
    """The relation p r p^{-1}; entry (i, j) of the result is entry (i·p, j·p) of r."""
    if p.dim != r.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {r.dim}")
    n = r.dim
    out = []
    for i in range(n):
        src = r.rows[p.image[i]]
        row = 0
        for j in range(n):
            if src >> p.image[j] & 1:
                row |= 1 << j
        out.append(row)
    return Relation(n, tuple(out))


def all_relations(n: int):
    """All relations on n points in ascending code order."""
    for code in range(1 << (n * n)):
        yield Relation.from_code(n, code)


def reflexive_relations(n: int):
    """All reflexive relations on n points in ascending code order."""
    diag = Relation.identity(n).code
    offdiag = [b for b in range(n * n) if not diag >> b & 1]
    for combo in range(1 << len(offdiag)):
        code = diag
        for k in _bits(combo):
            code |= 1 << offdiag[k]
        yield Relation.from_code(n, code)


def hall_relations(n: int):
    """All relations on n points containing a permutation, ascending code order."""
    for r in all_relations(n):
        if is_hall(r) is not None:
            yield r


def permutations_lex(n: int):
    """All permutations of degree n, ordered lexicographically by image array."""
    return [Permutation(n, image) for image in itertools.permutations(range(n))]


def parse_relmat(text: str) -> Relation:
    """Parse the relation text format: a dimension line, then n rows of 0/1 characters.

    Whitespace-tolerant: blank lines are skipped and spacing inside rows is ignored.
    """
    entries = []  # (lineno, stripped content)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = "".join(ch for ch in raw if not ch.isspace())
        if stripped:
            entries.append((lineno, stripped))
    if not entries:
        raise ValueError("line 1: empty relation file")
    lineno, head = entries[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {lineno}: expected a dimension, got {head!r}") from None
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"line {lineno}: dimension must be in 1..{MAX_DIM}, got {n}")
    if len(entries) < n + 1:
        raise ValueError(f"expected {n} matrix rows, file ends after line {entries[-1][0]}")
    if len(entries) > n + 1:
        raise ValueError(f"line {entries[n + 1][0]}: unexpected content after {n} rows")
    rows = []
    for i in range(n):
        lineno, line = entries[i + 1]
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: expected {n} characters from 0/1, got {line!r}")
        rows.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
    return Relation(n, tuple(rows))


def parse_cayley_text(text: str):
    """The text layer of the Cayley table format (semigroups.parse_cayley): a label
    header, k rows of 1-based indices in 1..k, and an optional identity=<label>
    trailer. Returns (labels, rows of 0-based entries, trailer), with trailer None
    or (lineno, label); needs no numpy, so a bad file is refused before it loads."""
    entries = [(n, raw.strip()) for n, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    if not entries:
        raise ValueError("line 1: empty table file")
    lineno, head = entries[0]
    labels = [x.strip() for x in head.split(",")]
    if any(not x for x in labels):
        raise ValueError(f"line {lineno}: empty label in header")
    k = len(labels)
    body = entries[1:]
    trailer = body.pop() if body and body[-1][1].startswith("identity=") else None
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
    if trailer is not None:
        lineno, line = trailer
        trailer = lineno, line.removeprefix("identity=").strip()
    return labels, table, trailer


def emit_relmat(r: Relation) -> str:
    lines = [str(r.dim)]
    for row in r.rows:
        lines.append("".join("1" if row >> j & 1 else "0" for j in range(r.dim)))
    return "\n".join(lines) + "\n"
