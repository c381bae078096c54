"""Make the benchmark's flat modules and the program importable."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]

for path in (str(REPO / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
