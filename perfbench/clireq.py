"""cli: a closed loop with one client, one fresh `python -m hallkit.cli`
process per request, on input files generated from the seed.

Each request is checked for the exit-code contract (0 pass, 1 mathematical
failure, 2 usage or input error), a JSON report with schema
"hallkit-report v1" on stdout, no traceback on stderr, a report identical to
the one of the first pass (all requests use --no-timing), and an answer that
the benchmark confirms on its own: contained-permutation witnesses, "not Hall"
verdicts by boolean_permanent (n <= 12) or by a planted Hall violator, the
relation product, Green's classes by brute force, counts against the
published table, and division witnesses as surjective homomorphisms.

Two requests probe known seed defects (ROADMAP item 5) and are reported as
known defects rather than as failures of the benchmark:
  * HALLKIT_WORKERS=abc count-hall --n 2 exits 1 with a traceback (expected:
    exit 2 with a JSON error report);
  * embed --group cyclic:12 has no up-front cap and runs past the per-request
    deadline (expected: a refusal with exit 2, or the answer, within it).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

import hallkit
import hallkit.cli

from common import OUT, ROOT, Op, child_env, nearest_rank, run_pass, tail_percentile

NAME = "cli"
MIN_PASSES = 3
LAYER_PASSES = 5
# One request is one CLI process, timed from spawn to exit.
REQUEST_IS_PASS = False
DEADLINE_S = 2.5
SCHEMA = "hallkit-report v1"
HALL = {1: 1, 2: 7, 3: 247, 4: 37823}
REFLEXIVE = {1: 1, 2: 4, 3: 64, 4: 4096}
IDEMPOTENTS = {1: 1, 2: 4, 3: 29, 4: 355}
CHECK_HALL_SIZES = ((2, 4), (5, 8), (9, 12), (13, 24), (25, 48), (49, 64))


@dataclass
class Request:
    name: str
    argv: list
    expect: tuple  # acceptable exit codes
    verify: Callable[[dict], Optional[str]] = lambda report: None
    env: dict = field(default_factory=dict)
    # Run only as a subprocess: at seed it exceeds the deadline.
    deadline_probe: bool = False
    known_defect: Optional[Callable[["Reply"], bool]] = None


@dataclass
class Reply:
    code: Optional[int]
    stdout: str
    stderr: str
    timed_out: bool = False
    dispatch_s: float = 0.0
    render_s: float = 0.0


# ---------------------------------------------------------------- inputs


def _emit_relmat(n, rows):
    return f"{n}\n" + "".join(
        "".join("1" if row >> j & 1 else "0" for j in range(n)) + "\n" for row in rows)


def _hall_rows(rng, n, density):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(1 << perm[i]) | sum(1 << j for j in range(n) if rng.random() < density)
            for i in range(n)]


def _non_hall_rows(rng, n, density):
    """Rows where some k rows only reach k-1 columns; returns (rows, rows S, columns T)."""
    k = rng.randint(2, max(2, n // 2))
    rows_s = rng.sample(range(n), k)
    cols_t = rng.sample(range(n), k - 1)
    tmask = sum(1 << c for c in cols_t)
    rows = []
    for i in range(n):
        row = sum(1 << j for j in range(n) if rng.random() < density)
        if i in rows_s:
            row = (row & tmask) or (1 << rng.choice(cols_t))
        rows.append(row)
    return rows, rows_s, tmask


def _product(a, b):
    out = []
    for row in a:
        acc = 0
        for z in range(len(b)):
            if row >> z & 1:
                acc |= b[z]
        out.append(acc)
    return out


def _parse_relmat(text):
    lines = text.split()
    n = int(lines[0])
    return n, [sum(1 << j for j, ch in enumerate(line) if ch == "1") for line in lines[1:]]


def _closure_table(gens):
    elems = list(dict.fromkeys(gens))
    seen = set(elems)
    i = 0
    while i < len(elems):
        for j in range(len(elems)):
            for c in (tuple(_product(elems[i], elems[j])), tuple(_product(elems[j], elems[i]))):
                if c not in seen:
                    seen.add(c)
                    elems.append(c)
        i += 1
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple(_product(a, b))] for b in elems] for a in elems]


def _cyclic_table(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def _emit_cayley(labels, table):
    return ",".join(labels) + "\n" + "".join(
        ",".join(str(v + 1) for v in row) + "\n" for row in table)


def _labels(k, prefix="x"):
    return [f"{prefix}{i}" for i in range(k)]


# --------------------------------------------------------------- checks


CONTRACT = "contract: "


def _contract_error(reply, req):
    """The parsed report, or an error text when the CLI contract is broken."""
    if reply.timed_out:
        return f"{CONTRACT}missed the {DEADLINE_S:g} s deadline"
    if "Traceback (most recent call last)" in reply.stderr:
        return f"{CONTRACT}traceback on stderr (exit {reply.code})"
    if reply.code not in req.expect:
        return f"{CONTRACT}exit {reply.code}, expected one of {req.expect}"
    try:
        report = json.loads(reply.stdout)
    except ValueError:
        return f"{CONTRACT}stdout is not a JSON document"
    if report.get("schema") != SCHEMA:
        return f"{CONTRACT}schema {report.get('schema')!r} is not {SCHEMA!r}"
    if reply.code == 2 and (report.get("status") != "error" or not report.get("witnesses")):
        return f"{CONTRACT}a refusal must report status 'error' with a message"
    return report


def _witness_error(report, n, rows):
    res = report["results"]
    if res.get("dim") != n or res.get("hall") is not True:
        return f"expected a Hall verdict on dimension {n}"
    w = res.get("witness")
    if not isinstance(w, list) or sorted(w) != list(range(1, n + 1)):
        return f"witness {w} is not a permutation of 1..{n}"
    if any(not rows[i] >> (w[i] - 1) & 1 for i in range(n)):
        return "witness permutation is not contained in the relation"
    return None


def _not_hall_error(report, n, rows, rows_s, tmask):
    res = report["results"]
    if res.get("dim") != n or res.get("hall") is not False or res.get("witness") is not None:
        return f"expected a not-Hall verdict on dimension {n}"
    if n <= hallkit.relations.PERMANENT_MAX_DIM:
        if hallkit.boolean_permanent(hallkit.Relation(n, tuple(rows))) != 0:
            return "boolean_permanent says the relation is Hall"
    elif not (all(rows[i] & ~tmask == 0 for i in rows_s) and tmask.bit_count() < len(rows_s)):
        return "planted Hall violator does not hold"
    return None


def _green_classes(table, right):
    k = len(table)
    groups = {}
    for x in range(k):
        if right:
            ideal = frozenset([x] + table[x])
        else:
            ideal = frozenset([x] + [table[s][x] for s in range(k)])
        groups.setdefault(ideal, []).append(x)
    return groups


def _j_classes(table):
    k = len(table)
    groups = {}
    for x in range(k):
        left = {x} | {table[s][x] for s in range(k)}
        ideal = frozenset(left | {table[y][t] for y in left for t in range(k)})
        groups.setdefault(ideal, []).append(x)
    return groups


def _analyze_error(report, labels, table):
    res = report["results"]
    k = len(table)

    def as_sets(groups):
        return {frozenset(labels[i] for i in g) for g in groups.values()}

    def reported(key):
        return {frozenset(c) for c in res.get(key, [])}

    ids = [e for e in range(k) if table[e][e] == e]
    if res.get("size") != k:
        return f"size {res.get('size')} != {k}"
    if res.get("idempotents") != [labels[e] for e in ids]:
        return "idempotents differ from the table's"
    j = _j_classes(table)
    for key, groups in (("r_classes", _green_classes(table, True)),
                        ("l_classes", _green_classes(table, False)), ("j_classes", j)):
        if reported(key) != as_sets(groups):
            return f"{key} differ from a brute-force computation"
    if res.get("is_j_trivial") != all(len(g) == 1 for g in j.values()):
        return "is_j_trivial is wrong"
    block = not any(e != f and ((table[e][f] == e and table[f][e] == f)
                                or (table[e][f] == f and table[f][e] == e))
                    for e in ids for f in ids)
    if res.get("is_block_group") != block:
        return f"is_block_group {res.get('is_block_group')} != {block}"
    return None


def _divide_error(report, source, target):
    (s_labels, s_table), (t_labels, t_table) = source, target
    res = report["results"]
    if res.get("found") is not True:
        return "no division witness found"
    t_index = {lab: i for i, lab in enumerate(t_labels)}
    s_index = {lab: i for i, lab in enumerate(s_labels)}
    sub = res["subsemigroup"]
    image = {t_index[a]: s_index[res["mapping"][a]] for a in sub}
    for a in image:
        for b in image:
            ab = t_table[a][b]
            if ab not in image:
                return "witness subsemigroup is not closed"
            if image[ab] != s_table[image[a]][image[b]]:
                return "witness mapping is not a homomorphism"
    if set(image.values()) != set(range(len(s_labels))):
        return "witness mapping is not onto the source"
    return None


def _expect(results, **want):
    for key, value in want.items():
        if results.get(key) != value:
            return f"{key} = {results.get(key)!r}, expected {value!r}"
    return None


# -------------------------------------------------------------- requests


def make_inputs(seed, workdir, tiny=False):
    """Write the seeded input files and return the request list of one pass."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    reqs = []
    for lo, hi in CHECK_HALL_SIZES[:2] if tiny else CHECK_HALL_SIZES:
        n = rng.randint(lo, hi)
        density = rng.uniform(0.1, 0.4)
        rows = _hall_rows(rng, n, density)
        path = write(f"hall-{n}.rel", _emit_relmat(n, rows))
        reqs.append(Request(f"check-hall hall n={n}", ["check-hall", path], (0,),
                            lambda r, n=n, rows=rows: _witness_error(r, n, rows)))
        rows, rows_s, tmask = _non_hall_rows(rng, n, density)
        path = write(f"nothall-{n}.rel", _emit_relmat(n, rows))
        reqs.append(Request(
            f"check-hall not-hall n={n}", ["check-hall", path], (1,),
            lambda r, n=n, rows=rows, s=rows_s, t=tmask: _not_hall_error(r, n, rows, s, t)))

    for c in range(1 if tiny else 2):
        n = rng.randint(3, 8)
        left = [rng.randrange(1 << n) for _ in range(n)]
        right = [rng.randrange(1 << n) for _ in range(n)]
        lp = write(f"left-{c}.rel", _emit_relmat(n, left))
        rp = write(f"right-{c}.rel", _emit_relmat(n, right))
        want = _product(left, right)
        reqs.append(Request(f"compose #{c} n={n}", ["compose", lp, rp], (0,),
                            lambda r, n=n, want=want: None
                            if _parse_relmat(r["results"]["relation"]) == (n, want)
                            else "relation product differs"))

    tables = [_cyclic_table(rng.randint(2, 6))]
    while len(tables) < (2 if tiny else 3):
        n = rng.choice((2, 3))
        gens = [tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(rng.choice((1, 2)))]
        table = _closure_table(gens)
        if 4 <= len(table) <= 24:
            tables.append(table)
    for i, table in enumerate(tables):
        labels = _labels(len(table))
        path = write(f"semigroup-{i}.cay", _emit_cayley(labels, table))
        reqs.append(Request(f"analyze #{i} ({len(table)} elements)", ["analyze", path], (0,),
                            lambda r, lab=labels, t=table: _analyze_error(r, lab, t)))

    k = rng.randint(3, 6)
    reqs.append(Request(f"power-group cyclic:{k}", ["power-group", "--group", f"cyclic:{k}"], (0,),
                        lambda r, k=k: _expect(r["results"], power_order=(1 << k) - 1,
                                               group_order=k, is_block_group=True)))
    for spec, order in ((f"cyclic:{rng.randint(2, 5)}", None), ("symmetric:3", 6)):
        order = order or int(spec.split(":")[1])
        subsets = (1 << order) - 1
        reqs.append(Request(f"embed {spec}", ["embed", "--group", spec], (0,),
                            lambda r, s=subsets: _expect(
                                r["results"], subsets=s, injective=True, multiplicative=True,
                                pairs_checked=s * s)))
    if not tiny:
        reqs.append(Request("semidirect n=2", ["semidirect", "--n", "2"], (0,),
                            lambda r: _expect(r["results"], semidirect_order=8, hall_order=7,
                                              homomorphism=True, surjective=True,
                                              factorization_roundtrip=True)))
    n = rng.randint(2, 3 if tiny else 4)
    reqs.append(Request(f"count-hall n={n}", ["count-hall", "--n", str(n)], (0,),
                        lambda r, n=n: _expect(r["results"], total_hall=HALL[n],
                                               total_reflexive=REFLEXIVE[n],
                                               idempotent_hall=IDEMPOTENTS[n],
                                               idempotents_all_reflexive=True)))
    reqs.append(Request("campaign n=2", ["campaign", "--n", "2"], (0,),
                        lambda r: None
                        if [c["passed"] for c in r["results"]["checks"]] == [True] * 5
                        else "a campaign check failed"))

    source = (["e", "a"], _cyclic_table(2))
    m = 2 * rng.randint(2, 6)
    target = (_labels(m, "g"), _cyclic_table(m))
    sp = write("source.cay", _emit_cayley(*source))
    tp = write("target.cay", _emit_cayley(*target))
    reqs.append(Request(f"divide cyclic:2 cyclic:{m}", ["divide", sp, tp], (0,),
                        lambda r, s=source, t=target: _divide_error(r, s, t)))

    # Refusals: exit 2 with a JSON error report.
    bad_rel = write("malformed.rel", f"3\n101\n{'1' * rng.randint(4, 6)}\n111\n")
    bad_cay = write("malformed.cay", "a,b\n1,2\n2,3\n" if rng.random() < 0.5 else "a,b\n2,1\n2,2\n")
    reqs += [
        Request("refuse missing file", ["check-hall", str(workdir / f"missing-{seed}.rel")], (2,)),
        Request("refuse malformed relmat", ["check-hall", bad_rel], (2,)),
        Request("refuse malformed cayley", ["analyze", bad_cay], (2,)),
        Request("refuse count-hall n=9", ["count-hall", "--n", "9"], (2,)),
        Request("refuse bad group spec",
                ["power-group", "--group", rng.choice(("dihedral:4", "cyclic", "cyclic:x"))], (2,)),
    ]

    # Known seed defects (ROADMAP item 5).
    reqs.append(Request("HALLKIT_WORKERS=abc count-hall n=2", ["count-hall", "--n", "2"], (2,),
                        env={"HALLKIT_WORKERS": "abc"},
                        known_defect=lambda reply: reply.code == 1
                        and "Traceback (most recent call last)" in reply.stderr))
    if not tiny:
        # Either the answer or an up-front refusal (exit 2) is acceptable.
        reqs.append(Request(
            "embed cyclic:12 (uncapped)", ["embed", "--group", "cyclic:12"], (0, 2),
            lambda r: _expect(r["results"], subsets=4095, injective=True, multiplicative=True),
            deadline_probe=True, known_defect=lambda reply: reply.timed_out))
    return {"requests": reqs, "workdir": workdir}


def _spawn(req):
    argv = [sys.executable, "-m", "hallkit.cli", *req.argv, "--no-timing"]
    try:
        p = subprocess.run(argv, env=child_env(**req.env), cwd=ROOT, capture_output=True,
                           text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return Reply(None, "", "", timed_out=True)
    return Reply(p.returncode, p.stdout, p.stderr)


def _in_process(req):
    argv = [*req.argv, "--no-timing"]
    saved = {k: os.environ.get(k) for k in req.env}
    os.environ.update(req.env)
    try:
        t0 = time.perf_counter()
        report, code = hallkit.cli.dispatch(argv)
        t1 = time.perf_counter()
        text = hallkit.cli.render(report) if report is not None else ""
        return Reply(code, text, "", dispatch_s=t1 - t0, render_s=time.perf_counter() - t1)
    except Exception:
        return Reply(1, "", traceback.format_exc())
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _ops(inputs, runner, include_deadline_probes):
    first_stdout = {}

    def make(req):
        def check(reply):
            report = _contract_error(reply, req)
            if isinstance(report, str):
                return report
            if reply.stdout != first_stdout.setdefault(id(req), reply.stdout):
                return "--no-timing report differs from the first pass"
            return req.verify(report) if reply.code != 2 else None
        return Op(req.name, lambda: runner(req), check, req.known_defect)

    return [make(r) for r in inputs["requests"] if include_deadline_probes or not r.deadline_probe]


def ops(inputs):
    return _ops(inputs, _spawn, True)


def layer_ops(inputs):
    """The same requests through hallkit.cli.dispatch and render in-process."""
    return _ops(inputs, _in_process, False)


def warmup():
    """Smallest request of each command kind through dispatch, in-process."""
    workdir = OUT / "warmup"
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir / "one.rel"
    rel.write_text("1\n1\n")
    cay = workdir / "one.cay"
    cay.write_text("e\n1\n")
    for argv in (["check-hall", rel], ["compose", rel, rel], ["analyze", cay],
                 ["power-group", "--group", "cyclic:1"], ["embed", "--group", "cyclic:1"],
                 ["semidirect", "--n", "1"], ["count-hall", "--n", "1", "--workers", "1"],
                 ["campaign", "--n", "1"], ["divide", cay, cay]):
        report, _ = hallkit.cli.dispatch([str(a) for a in argv] + ["--no-timing"])
        hallkit.cli.render(report)


def contract_violations(passes):
    """Requests per subprocess pass that broke the exit-code/JSON/traceback/deadline contract."""
    return median([sum(1 for r in p.ops if r.error and r.error.startswith(CONTRACT))
                   for p in passes])


def _spawn_ms(code, count):
    """Median milliseconds from spawn to exit of `python -c code`."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       capture_output=True, check=True, timeout=60)
        samples.append((time.perf_counter() - t0) * 1000)
    return median(samples)


def extras(inputs, layer_passes, next_index):
    """Interpreter and import floors, in-process dispatch and render times, and
    the contract violations of one subprocess pass (returned for the tally)."""
    subprocess_passes = [run_pass(ops(inputs), next_index)]
    dispatch = [r.value.dispatch_s * 1000 for p in layer_passes for r in p.ops
                if r.value is not None and r.error is None]
    q = tail_percentile(len(layer_passes[0].ops) * len(layer_passes)) if layer_passes else 100
    renders = [median([r.value.render_s * 1000 for r in p.ops if r.value is not None])
               for p in layer_passes]
    interp = _spawn_ms("pass", 5)
    return {
        "interp_ms": interp,
        "import_ms": _spawn_ms("import hallkit.cli", 5) - interp,
        "dispatch_p50_ms": median(dispatch) if dispatch else 0.0,
        "dispatch_tail_ms": nearest_rank(dispatch, q) if dispatch else 0.0,
        "dispatch_tail_percentile": q,
        "render_ms": median(renders) if renders else 0.0,
        "contract_violations": contract_violations(subprocess_passes),
    }, subprocess_passes
