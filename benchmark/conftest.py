import sys
from pathlib import Path

# the benchmark's tests measure the source tree next to them, like run.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
