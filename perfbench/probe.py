"""Set-up probe: import hallkit, run one workload's warm-up jobs, then print
the wall-clock time at which a first timed pass could start.

Usage: python3 perfbench/probe.py <workload>
"""

import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402

importlib.import_module(common.WORKLOAD_MODULES[sys.argv[1]]).warmup()
print(repr(time.time()))
