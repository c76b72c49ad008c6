#!/usr/bin/env python3
"""Benchmark hallkit end to end (--trace 0) or per layer (--trace 1).

Usage:
  python3 perfbench/run.py --workload {census,structure,cli} --seed N --seconds S --trace {0,1}

Run from a checkout holding src/hallkit; nothing needs building. Every answer
is checked. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name each metric with its
unit and sample count, the fail ratio (known seed defects included) and the
machine facts. Full results, and the spans of a traced run, are written under
.perfbench_out/ in the checkout.

End to end, a run imports hallkit, warms up, times SETUP_PROBES fresh set-ups,
then repeats timed passes until the workload's minimum pass count is reached
and --seconds have elapsed. A traced run makes the workload's layer passes
untraced, then again with every public hallkit function wrapped (see
tracing.py), and adds the workload's own layer measurements.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "structure", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(module, inputs, seconds, common):
    setup = common.setup_samples(module.NAME)
    passes = common.run_passes(module.ops(inputs), module.MIN_PASSES, seconds)
    if module.REQUEST_IS_PASS:
        latencies = [p.wall_s * 1000 for p in passes]
        q = common.tail_percentile(module.MIN_PASSES)
    else:
        latencies = [r.seconds * 1000 for p in passes for r in p.ops]
        q = common.tail_percentile(len(passes[0].ops) * module.MIN_PASSES)
    metrics = {
        "setup_s": (median(setup), "s", len(setup)),
        "solve_s": (median([p.wall_s for p in passes]), "s", len(passes)),
        "cpu_s": (median([p.cpu_s for p in passes]), "s", len(passes)),
        "peak_rss_mib": (common.peak_rss_mib(), "MiB", 1),
        "req_p50_ms": (median(latencies), "ms", len(latencies)),
        "req_tail_ms": (common.nearest_rank(latencies, q), "ms", len(latencies)),
    }
    notes = {"tail_percentile": q, "setup_samples_s": setup,
             "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                         "ops": [[r.name, r.seconds] for r in p.ops]} for p in passes]}
    return metrics, passes, notes


def traced(module, inputs, common, tracing):
    lops = module.layer_ops(inputs)
    untraced = common.run_passes(lops, module.LAYER_PASSES, 0)
    tracer = tracing.Tracer()
    rebound = tracing.install(tracer)
    try:
        traced_passes = common.run_passes(lops, module.LAYER_PASSES, 0, tracer, len(untraced))
    finally:
        tracing.uninstall(rebound)
    extra_values, extra_passes = module.extras(
        inputs, untraced, len(untraced) + len(traced_passes))
    untraced_solve = median([p.wall_s for p in untraced])
    values = tracing.layer_values(tracer.nodes, extra_values, untraced_solve)
    breakdown = tracing.pass_breakdown(tracer.nodes)
    accounting = {
        pid: {"solve_s": b["solve_s"], "layer_self_s": b["layer_self_s"],
              "unattributed_s": b["unattributed_s"]}
        for pid, b in breakdown.items()
    }
    closes = all(
        abs(a["layer_self_s"] + a["unattributed_s"] - a["solve_s"]) <= 1e-6 * (1 + a["solve_s"])
        for a in accounting.values())
    metrics = {name: (v["value"], v["unit"], len(traced_passes)) for name, v in values.items()}
    notes = {"untraced_solve_s": untraced_solve, "accounting": accounting,
             "accounting_closes": closes, "extras": extra_values,
             "untraced_workers_note": "work inside count_hall worker processes is not traced"}
    spans = {"nodes": [n.as_dict() for n in tracer.nodes]}
    return metrics, untraced + traced_passes + extra_passes, notes, spans, closes


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "hallkit" / "__init__.py").is_file():
        print(f"perfbench: no hallkit sources at {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import hallkit

    if SRC not in Path(hallkit.__file__).resolve().parents:
        print(f"perfbench: imported hallkit from {hallkit.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import common
    import tracing

    load_start = common.loadavg()
    module = importlib.import_module(common.WORKLOAD_MODULES[args.workload])
    module.warmup()
    t0 = time.perf_counter()
    inputs = module.make_inputs(args.seed, common.OUT / f"{args.workload}-seed{args.seed}")
    inputs_s = time.perf_counter() - t0

    spans = None
    correct = True
    if args.trace:
        metrics, passes, notes, spans, correct = traced(module, inputs, common, tracing)
    else:
        metrics, passes, notes = end_to_end(module, inputs, args.seconds, common)
    attempted, failed, defects, errors = common.tally(passes)
    correct = correct and failed == 0
    prov = common.provenance(common.workers_available(), load_start)

    print(f"hallkit benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
          f" passes={len(passes)} inputs_s={inputs_s:.3f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  (samples: {samples})")
    if "tail_percentile" in notes:
        print(f"  req_tail_ms is p{notes['tail_percentile']}")
    print(f"  fail_ratio = {(failed + defects) / attempted:.4f}  ({failed} failed and"
          f" {defects} known seed defects of {attempted} attempted)")
    for err in errors[:20]:
        print(f"  {'known defect' if err['known_defect'] else 'FAILED'}: pass {err['pass']}"
              f" {err['op']}: {err['error']}")
    print("  machine: " + json.dumps(prov, sort_keys=True))

    common.OUT.mkdir(parents=True, exist_ok=True)
    stem = common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct, "attempted": attempted,
              "failed": failed, "known_defects": defects, "errors": errors,
              "fail_ratio": (failed + defects) / attempted, "inputs_s": inputs_s,
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()},
              "notes": notes, "provenance": prov}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
