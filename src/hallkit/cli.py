"""Command-line front end.

Every command emits one JSON report document on stdout (schema
"hallkit-report v1") and exits 0 when the check passed, 1 when a mathematical
check failed, and 2 on usage or input errors. `--pretty` renders the report
as text instead; `--no-timing` drops timing fields so reports are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# Only the pure-Python relation layer is loaded up front. The handlers of the
# table-engine commands import semigroups, constructions and enumeration (and
# with them numpy) when they run, so check-hall, compose and most refusals
# start a fresh process without numpy.
from .relations import (
    Relation,
    check_count_dim,
    compose,
    emit_relmat,
    is_hall,
    parse_cayley_text,
    parse_relmat,
)

SCHEMA = "hallkit-report v1"


def _named(path: str, parse, *args):
    """parse(*args); an error names the path of the input file."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_file(path: str, parse):
    """Read and parse one input file; every error names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    return _named(path, parse, text)


def parse_relation_file(path: str) -> Relation:
    return _parse_file(path, parse_relmat)


def parse_cayley_files(*paths: str):
    """The semigroups of Cayley table files, as semigroups.parse_cayley reads them.
    The text layer runs on every file before the table layer imports numpy."""
    texts = [_parse_file(path, parse_cayley_text) for path in paths]
    from .semigroups import cayley_semigroup

    return [_named(path, cayley_semigroup, *text) for path, text in zip(paths, texts)]


def parse_cayley_file(path: str):
    return parse_cayley_files(path)[0]


def _bad_spec(spec: str, problem: str) -> ValueError:
    """A refusal that names the group spec, its repr cut to 40 characters."""
    shown = repr(spec)
    return ValueError(f"group spec {shown[:40]}{'...' if len(shown) > 40 else ''} {problem}")


def _load_group(spec: str):
    """The group of a spec, for the commands that take all its 2^k - 1 subsets.

    The kind and the order are checked before the table engine is imported, and
    the order meets the subset cap before the group is built; every refusal
    names the spec."""
    kind, sep, arg = spec.partition(":")
    if not sep or kind not in ("cyclic", "symmetric", "file"):
        raise _bad_spec(spec, "must look like cyclic:<m>, symmetric:<n> or file:<path>")
    if kind == "file":
        table = parse_cayley_file(arg)
        from .constructions import as_group

        return as_group(table)
    try:
        order = int(arg)
    except ValueError:  # also raised past Python's digit limit for int()
        raise _bad_spec(spec, "must give an integer order") from None
    if order < 1:
        raise _bad_spec(spec, "must give an order of at least 1")
    from .constructions import _check_subset_count, cyclic_group, symmetric_group_table
    from .semigroups import MAX_TABLE_SIZE

    try:  # 13! is past the table cap, so n! is formed for n <= 13 only
        _check_subset_count(order if kind == "cyclic" else math.factorial(min(order, 13)))
    except ValueError:
        raise _bad_spec(spec, f"has more nonempty subsets than the table cap {MAX_TABLE_SIZE}") from None
    return cyclic_group(order) if kind == "cyclic" else symmetric_group_table(order)


def _labels(semi, indices):
    return [semi.labels[i] for i in indices]


def _cmd_check_hall(args):
    r = parse_relation_file(args.relation)
    witness = is_hall(r)
    results = {
        "dim": r.dim,
        "hall": witness is not None,
        "witness": list(witness.one_based()) if witness else None,
    }
    if witness is not None:
        return results, "pass", []
    return results, "fail", ["no permutation is contained in the relation"]


def _cmd_compose(args):
    r = parse_relation_file(args.left)
    s = parse_relation_file(args.right)
    out = compose(r, s)
    return {"dim": out.dim, "relation": emit_relmat(out)}, "pass", []


def _cmd_analyze(args):
    semi = parse_cayley_file(args.cayley)
    from .semigroups import green_summary, is_block_group

    green = green_summary(semi)
    block, pair = is_block_group(semi)
    results = {
        "size": semi.size,
        "identity": semi.labels[semi.identity] if semi.identity is not None else None,
        "idempotents": _labels(semi, green.idempotent_indices),
        "r_classes": [_labels(semi, c) for c in green.r_classes],
        "l_classes": [_labels(semi, c) for c in green.l_classes],
        "j_classes": [_labels(semi, c) for c in green.j_classes],
        "is_j_trivial": all(len(c) == 1 for c in green.j_classes),
        "is_block_group": block,
        "block_group_witness": _labels(semi, pair) if pair else None,
    }
    return results, "pass", []


def _cmd_power_group(args):
    group = _load_group(args.group)
    from .constructions import power_semigroup
    from .semigroups import is_block_group

    power, _masks = power_semigroup(group.base)
    block, pair = is_block_group(power)
    results = {
        "group": args.group,
        "group_order": group.size,
        "power_order": power.size,
        "is_block_group": block,
        "witness": _labels(power, pair) if pair else None,
    }
    if block:
        return results, "pass", []
    return results, "fail", [f"idempotent pair {results['witness']}"]


def _cmd_embed(args):
    group = _load_group(args.group)
    from .constructions import check_pairs_embedding, hall_embedding

    table = hall_embedding(group)
    injective, multiplicative, pairs = check_pairs_embedding(group, table)
    results = {
        "group": args.group,
        "group_order": group.size,
        "subsets": len(table),
        "injective": injective,
        "multiplicative": multiplicative,
        "pairs_checked": pairs,
    }
    if injective and multiplicative:
        return results, "pass", []
    witnesses = []
    if not injective:
        witnesses.append("two subsets map to the same relation")
    if not multiplicative:
        witnesses.append("some product of images differs from the image of the product")
    return results, "fail", witnesses


def _cmd_semidirect(args):
    from . import enumeration

    n = args.n
    hall, hall_elems = enumeration.materialize_hall(n)
    check = enumeration.semidirect_surjection(n, hall, hall_elems)
    results = {
        "n": n,
        "semidirect_order": check["pairs"],
        "hall_order": check["hall_size"],
        "homomorphism": check["homomorphism"],
        "surjective": check["surjective"],
        "factorization_roundtrip": check["factorization_roundtrip"],
    }
    if check["homomorphism"] and check["surjective"] and check["factorization_roundtrip"]:
        return results, "pass", []
    return results, "fail", ["projection onto the Hall monoid failed a check"]


def _worker_count(args):
    """--workers, else HALLKIT_WORKERS, else 1; only checked (at least 1) and echoed."""
    if args.workers is not None:
        return args.workers
    text = os.environ.get("HALLKIT_WORKERS", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"HALLKIT_WORKERS must be an integer, got {text!r}") from None


def _cmd_count_hall(args):
    check_count_dim(args.n)  # an n out of range is refused before numpy loads
    from . import enumeration

    report = enumeration.count_hall(args.n, _worker_count(args))
    results = {
        "n": report.n,
        "total_hall": report.total_hall,
        "total_reflexive": report.total_reflexive,
        "idempotent_hall": report.idempotent_hall,
        "idempotents_all_reflexive": report.idempotents_all_reflexive,
    }
    if not args.no_timing:
        results["elapsed_seconds"] = round(report.elapsed_seconds, 6)
    return results, "pass", []


def _cmd_campaign(args):
    from . import enumeration

    start = time.perf_counter()
    report = enumeration.verification_campaign(args.n)
    results = {
        "n": report.n,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "details": c.details,
                "witnesses": list(c.witnesses),
            }
            for c in report.checks
        ],
    }
    if not args.no_timing:
        results["elapsed_seconds"] = round(time.perf_counter() - start, 6)
    if report.passed:
        return results, "pass", []
    return results, "fail", [c.name for c in report.checks if not c.passed]


def _cmd_divide(args):
    source, target = parse_cayley_files(args.source, args.target)
    from .semigroups import find_division

    witness = find_division(source, target, max_generators=args.max_generators)
    if witness is None:
        note = (
            f"no witness within bounds (generator subsets up to size {args.max_generators});"
            " absence within bounds is not a proof of non-division"
        )
        return {"found": False, "note": note}, "fail", [note]
    sub = witness.subsemigroup
    results = {
        "found": True,
        "generators": _labels(target, witness.generator_indices),
        "subsemigroup": list(sub.labels),
        "mapping": {sub.labels[i]: source.labels[v] for i, v in enumerate(witness.mapping)},
    }
    return results, "pass", []


def _render_pretty(report):
    lines = [f"{report['command'] or 'hallkit'}: {report['status']}"]
    for key, value in sorted(report["inputs"].items()):
        lines.append(f"  input {key} = {value}")

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            lines.append(f"  {prefix[:-1]} = {json.dumps(value)}")
        else:
            lines.append(f"  {prefix[:-1]} = {value}")

    emit("", report["results"])
    for w in report["witnesses"]:
        lines.append(f"  witness: {w}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, to be reported like any input error."""

    def error(self, message):
        # argparse repeats a bad value in full; the cut keeps the witness short
        raise ValueError(message if len(message) <= 180 else message[:177] + "...")


def _build_parser():
    parser = _Parser(prog="hallkit", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="render a text report instead of JSON")
    common.add_argument("--no-timing", action="store_true", help="omit timing fields from the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hall", parents=[common], help="find a contained permutation")
    p.add_argument("relation")
    p.set_defaults(handler=_cmd_check_hall, echo=lambda a: {"relation": a.relation})

    p = sub.add_parser("compose", parents=[common], help="relation product of two files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_compose, echo=lambda a: {"left": a.left, "right": a.right})

    p = sub.add_parser("analyze", parents=[common], help="Green's classes and structure checks")
    p.add_argument("cayley")
    p.set_defaults(handler=_cmd_analyze, echo=lambda a: {"cayley": a.cayley})

    p = sub.add_parser("power-group", parents=[common], help="power semigroup block-group check")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_power_group, echo=lambda a: {"group": a.group})

    p = sub.add_parser("embed", parents=[common], help="subset-to-relation embedding check")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_embed, echo=lambda a: {"group": a.group})

    p = sub.add_parser("semidirect", parents=[common], help="semidirect product surjection check")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_semidirect, echo=lambda a: {"n": a.n})

    p = sub.add_parser(
        "count-hall", parents=[common], help="count Hall matrices by the transfer-matrix method"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, help="echoed only; the count runs in process")
    p.set_defaults(handler=_cmd_count_hall, echo=lambda a: {"n": a.n, "workers": _worker_count(a)})

    p = sub.add_parser("campaign", parents=[common], help="run the verification campaign")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_campaign, echo=lambda a: {"n": a.n})

    p = sub.add_parser("divide", parents=[common], help="bounded division witness search")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--max-generators", type=int, default=3)
    p.set_defaults(
        handler=_cmd_divide,
        echo=lambda a: {"source": a.source, "target": a.target, "max_generators": a.max_generators},
    )
    return parser


def dispatch(argv):
    """Run one command; returns (report dict, exit code), or (None, 0) after --help."""
    report = {"schema": SCHEMA, "command": None, "inputs": {}}
    try:
        args = _build_parser().parse_args(argv)
        report["command"] = args.command
        report["inputs"] = args.echo(args)
        results, status, witnesses = args.handler(args)
    except SystemExit as exc:  # --help; usage errors raise ValueError instead
        return None, 2 if exc.code else 0
    except ValueError as exc:
        report["results"] = {}
        report["status"] = "error"
        report["witnesses"] = [str(exc)]
        return report, 2
    report["results"] = results
    report["status"] = status
    report["witnesses"] = witnesses
    return report, 0 if status == "pass" else 1


def render(report, pretty: bool = False) -> str:
    if pretty:
        return _render_pretty(report)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None):
    """The hallkit console script. Unlike dispatch, it sets the environment of its process."""
    # Before any handler imports numpy: hallkit makes no BLAS call (its arrays are
    # integer or boolean), so an OpenBLAS worker thread would only spin on another core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if argv is None:
        argv = sys.argv[1:]
    report, code = dispatch(argv)
    if report is not None:
        sys.stdout.write(render(report, pretty="--pretty" in argv))
    sys.exit(code)


if __name__ == "__main__":
    main()
