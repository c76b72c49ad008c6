"""census: the two-method Hall census of scripts/hall_census.py, in-process.

For each n = 1..5 one operation runs the streamed count (with the benchmark's
worker count), the independent oracle and the reflexive count, and checks them
against the published table. Inputs are fixed; the seed is unused.
"""

from __future__ import annotations

import time

import hallkit

from common import Op, workers_available

NAME = "census"
MIN_PASSES = 1
LAYER_PASSES = 1
# A caller waits for the whole census, as scripts/hall_census.py prints it.
REQUEST_IS_PASS = True

EXPECTED = {
    "hall": {1: 1, 2: 7, 3: 247, 4: 37823, 5: 23191071},
    "reflexive": {1: 1, 2: 4, 3: 64, 4: 4096, 5: 1048576},
    "idempotents": {1: 1, 2: 4, 3: 29, 4: 355},
}


def warmup():
    workers = workers_available()
    hallkit.count_hall(1, workers=workers)
    hallkit.count_hall_inclusion_exclusion(1)
    hallkit.count_reflexive(1)


def make_inputs(seed, workdir, tiny=False):
    return {"max_n": 3 if tiny else 5, "workers": workers_available()}


def _check_row(n, expected, value):
    stream, oracle, reflexive = value
    errors = []
    hall = expected["hall"][n]
    if stream.total_hall != hall:
        errors.append(f"stream count {stream.total_hall} != {hall}")
    if oracle != hall:
        errors.append(f"oracle count {oracle} != {hall}")
    if oracle != stream.total_hall:
        errors.append("stream and oracle disagree")
    refl = expected["reflexive"][n]
    if stream.total_reflexive != refl or reflexive != refl:
        errors.append(f"reflexive counts {stream.total_reflexive}, {reflexive} != {refl}")
    if n in expected["idempotents"]:
        if stream.idempotent_hall != expected["idempotents"][n]:
            errors.append(f"idempotents {stream.idempotent_hall} != {expected['idempotents'][n]}")
        if stream.idempotents_all_reflexive is not True:
            errors.append("a Hall idempotent is not reflexive")
    return "; ".join(errors) or None


def ops(inputs, expected=EXPECTED):
    workers = inputs["workers"]

    def row(n):
        def run():
            stream = hallkit.count_hall(n, workers=workers)
            oracle = hallkit.count_hall_inclusion_exclusion(n)
            return stream, oracle, hallkit.count_reflexive(n)
        return Op(f"census n={n}", run, lambda value: _check_row(n, expected, value))

    return [row(n) for n in range(1, inputs["max_n"] + 1)]


layer_ops = ops


def extras(inputs, layer_passes, next_index):
    """Parallel efficiency of the streamed count at the largest n, untraced:
    t(workers=1) / (workers * t(workers))."""
    n, workers = inputs["max_n"], inputs["workers"]
    t0 = time.perf_counter()
    hallkit.count_hall(n, workers=1)
    t1 = time.perf_counter()
    hallkit.count_hall(n, workers=workers)
    t2 = time.perf_counter()
    return {"parallel_efficiency": (t1 - t0) / (workers * (t2 - t1))}, []
