#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Usage: python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree and the tail
percentile rule; runs tiny census, structure and cli passes and requires them
to check clean; requires a deliberately wrong expected value to be counted as
a failure (raising fail_ratio); requires a traced tiny pass to account for
its whole time; and requires BENCHMARK.json to list exactly the per-layer
metrics of layers.py.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import census  # noqa: E402
import clireq  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import structure  # noqa: E402
import tracing  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def close(a, b):
    return abs(a - b) < 1e-9


def test_self_times():
    N = tracing.Node
    nodes = [
        N(tracing.SPAN, "op:x", None, 0, 0.0, 10.0, 1, 10.0),   # 0 root
        N(tracing.SPAN, "a", 0, 0, 1.0, 4.0, 1, 3.0),           # 1 child of root
        N(tracing.SPAN, "b", 0, 0, 3.0, 6.0, 1, 3.0),           # 2 overlaps a: union 1..6
        N(tracing.SPAN, "c", 1, 0, 2.0, 3.0, 1, 1.0),           # 3 child of a
        N(tracing.AGG, "leaf", 0, 0, count=3, total=2.0),       # 4 aggregate under root
        N(tracing.AGG, "leaf2", 4, 0, count=5, total=0.5),      # 5 aggregate under 4
    ]
    got = tracing.self_times(nodes)
    want = [10 - 5 - 2, 3 - 1, 3.0, 1.0, 2 - 0.5, 0.5]
    expect(all(close(g, w) for g, w in zip(got, want)), f"self times {got} == {want}")

    # Without overlap, self times plus the remainder add up to the pass.
    nodes = [
        N(tracing.SPAN, "op:y", None, 7, 0.0, 4.0, 1, 4.0),
        N(tracing.SPAN, "semigroups.green_summary", 0, 7, 0.5, 2.5, 1, 2.0),
        N(tracing.AGG, "relations.compose", 1, 7, count=10, total=0.75),
        N(tracing.AGG, "relations.compose", 0, 7, count=2, total=0.25),
    ]
    b = tracing.pass_breakdown(nodes)[7]
    expect(close(b["solve_s"], 4.0) and close(b["unattributed_s"], 1.75)
           and close(b["self"]["relations.compose"], 1.0) and b["calls"]["relations.compose"] == 12
           and close(b["layer_self_s"] + b["unattributed_s"], b["solve_s"]),
           "pass breakdown: 4.0 s = 2.25 s of layers + 1.75 s unattributed")


def test_percentiles():
    expect(common.tail_percentile(93) == 89, "93 samples: tail is p89")
    expect(common.tail_percentile(52) == 80, "52 samples: tail is p80")
    expect(common.tail_percentile(5) == 100, "5 samples: tail is the maximum")
    values = list(range(1, 94))
    expect(sum(v > common.nearest_rank(values, 89) for v in values) == 10,
           "p89 of 93 samples leaves 10 beyond it")


def fail_ratio(passes):
    attempted, failed, defects, _ = common.tally(passes)
    return (failed + defects) / attempted, failed, defects


def test_census(workdir):
    inputs = census.make_inputs(0, workdir, tiny=True)
    ratio, failed, _ = fail_ratio([common.run_pass(census.ops(inputs), 0)])
    expect(failed == 0 and ratio == 0, "tiny census checks clean")
    wrong = copy.deepcopy(census.EXPECTED)
    wrong["hall"][3] = 248
    ratio, failed, _ = fail_ratio([common.run_pass(census.ops(inputs, wrong), 0)])
    expect(failed == 1 and ratio > 0, "a wrong expected Hall count raises fail_ratio")


def test_structure(workdir):
    inputs = structure.make_inputs(5, workdir, tiny=True)
    ops = structure.ops(inputs)
    ratio, failed, _ = fail_ratio([common.run_pass(ops, 0)])
    expect(failed == 0, "tiny structure checks clean")

    tracer = tracing.Tracer()
    rebound = tracing.install(tracer)
    try:
        traced = common.run_pass(ops, 1, tracer)
    finally:
        tracing.uninstall(rebound)
    import hallkit

    expect(hallkit.compose.__name__ == "compose" and not hasattr(hallkit.compose, "__wrapped__"),
           "uninstall restores the original functions")
    b = tracing.pass_breakdown(tracer.nodes)[1]
    expect(abs(b["layer_self_s"] + b["unattributed_s"] - b["solve_s"]) < 1e-6,
           "traced pass: layer self times plus the remainder account for the pass")
    expect(abs(b["solve_s"] - traced.wall_s) < 0.05 * traced.wall_s + 1e-3,
           "traced pass: operation spans cover the timed pass")
    values = tracing.layer_values(tracer.nodes, {}, traced.wall_s)
    expect(set(values) == {m.name for m in layers.METRICS}, "every per-layer metric is reported")
    expect(values["relations.compose.calls"]["value"] > 0
           and values["semigroups.green_summary.elements"]["value"] > 0,
           "cross-module calls (semigroups -> compose) are traced")


def test_cli(workdir):
    inputs = clireq.make_inputs(3, workdir, tiny=True)
    ops = clireq.ops(inputs)
    ratio, failed, defects = fail_ratio([common.run_pass(ops, 0)])
    expect(failed == 0 and defects == 1, "tiny cli checks clean apart from the known defect")
    refusal = next(r for r in inputs["requests"] if r.name == "refuse count-hall n=9")
    refusal.expect = (0,)
    ratio, failed, _ = fail_ratio([common.run_pass(clireq.ops(inputs), 0)])
    expect(failed == 1 and ratio > 0, "a wrong expected exit code raises fail_ratio")


def test_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(listed == [(m.name, m.unit, m.better) for m in layers.METRICS],
           "BENCHMARK.json per_layer matches layers.py")


def main():
    test_self_times()
    test_percentiles()
    test_benchmark_json()
    common.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT) as tmp:
        test_census(Path(tmp) / "census")
        test_structure(Path(tmp) / "structure")
        test_cli(Path(tmp) / "cli")
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
