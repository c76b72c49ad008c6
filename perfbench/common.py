"""Shared machinery: operations, timed passes, percentiles, set-up probes and
provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
WORKLOAD_MODULES = {"census": "census", "structure": "structure", "cli": "clireq"}


def child_env(**extra):
    """Environment for hallkit child processes: this checkout's sources, no
    inherited HALLKIT_* settings, and bytecode caching on as for an installed
    package, whatever the caller's environment says."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HALLKIT_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


@dataclass
class Op:
    """One answer-producing unit of work, and the check of its answer."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # error text, or None when the answer is right
    # True when a wrong result is exactly the known seed defect this op probes.
    known_defect: Optional[Callable[[Any], bool]] = None


@dataclass
class OpResult:
    name: str
    seconds: float
    value: Any
    error: Optional[str]
    known_defect: bool


@dataclass
class PassResult:
    index: int
    wall_s: float
    cpu_s: float
    ops: list


def cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _check(op, value):
    try:
        return op.check(value)
    except Exception as exc:  # a check that crashes is a failed answer, not a crashed run
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(ops, index, tracer=None):
    """Run every op once. Wall and CPU time cover producing answers only;
    checking happens outside the timed region and outside any trace."""
    results = []
    wall = cpu = 0.0
    for op in ops:
        c0 = cpu_now()
        if tracer is not None:
            tracer.open_op(op.name, index)
        t0 = time.perf_counter()
        raised = None
        try:
            value = op.run()
        except Exception as exc:
            value, raised = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close_op()
        cpu += cpu_now() - c0
        wall += t1 - t0
        error = raised or _check(op, value)
        defect = (error is not None and raised is None and op.known_defect is not None
                  and op.known_defect(value))
        results.append(OpResult(op.name, t1 - t0, value, error, defect))
    return PassResult(index, wall, cpu, results)


def run_passes(ops, min_passes, seconds, tracer=None, first_index=0):
    """Passes until at least min_passes ran and seconds have elapsed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, first_index + len(passes), tracer))
    return passes


def tail_percentile(n_min):
    """Highest whole percentile with at least ten samples beyond it when there
    are n_min samples; 100 (the maximum) when there are ten or fewer."""
    if n_min <= 10:
        return 100
    return math.floor(100 * (n_min - 10) / n_min)


def nearest_rank(values, q):
    s = sorted(values)
    return s[max(1, math.ceil(q / 100 * len(s))) - 1]


def tally(passes):
    """attempted, unexpected failures, known-defect failures, and the errors."""
    attempted = failed = defects = 0
    errors = []
    for p in passes:
        for r in p.ops:
            attempted += 1
            if r.error is None:
                continue
            if r.known_defect:
                defects += 1
            else:
                failed += 1
            errors.append({"pass": p.index, "op": r.name, "error": r.error,
                           "known_defect": r.known_defect})
    return attempted, failed, defects, errors


def peak_rss_mib():
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_samples(workload, count=SETUP_PROBES):
    """Seconds from spawning a fresh interpreter until it has imported hallkit
    and run the workload's warm-up jobs, once per probe."""
    samples = []
    for _ in range(count):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {out.returncode}): {out.stderr[-2000:]}")
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown: git unavailable"
    return out.stdout.strip() or "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hallkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workers, load_start):
    import hallkit
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hallkit": hallkit.__version__,
        "commit": _commit(),
        "hallkit_sources_sha256": _source_digest(),
        "workers": workers,
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }


def workers_available():
    return min(2, len(os.sched_getaffinity(0)))
