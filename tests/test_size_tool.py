"""`tools/size.py`, the line counter by kind, runs and accounts for every
line of every `src/matedrip` module."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "matedrip"


def test_size_counts_sum_to_each_module_line_count():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py")], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    header, *rows, total = [line.split() for line in out]
    assert header == ["module", "code", "docstring", "comment", "blank"]
    assert [name for name, *_ in rows] == sorted(path.name for path in SOURCES.glob("*.py"))
    sums = [0, 0, 0, 0]
    for name, *counts in rows:
        counts = [int(count.replace(",", "")) for count in counts]
        lines = (SOURCES / name).read_text(encoding="utf-8").splitlines()
        assert sum(counts) == len(lines), name
        sums = [a + b for a, b in zip(sums, counts)]
    assert total == ["total", *(f"{n:,}" for n in sums)]
