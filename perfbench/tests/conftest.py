"""Make the program importable for the instrumentation tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
