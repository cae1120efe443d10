import sys
from pathlib import Path

# the benchmark's modules and the tornzeta sources it measures
_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]
