"""The repo's one perf ledger: four streaming workloads, end to end and
layer by layer, under one schema (``/BENCHMARK.json``).

Run ``python -m benchmarks.ledger --help``; ``README.md`` beside this
file says what each workload and metric is for.
"""

import sys
from pathlib import Path

#: The checkout this package sits in.  Its own ``src`` goes first on the
#: path: the ledger measures this tree, never an installed copy.
ROOT = Path(__file__).resolve().parents[2]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
