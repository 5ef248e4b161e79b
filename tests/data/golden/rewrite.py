"""Rewrite the golden reports of `tests/test_golden_reports.py` from the
code on the path:

    PYTHONPATH=src python tests/data/golden/rewrite.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from test_golden_reports import CASES, golden_path, report  # noqa: E402

for name, (argv, want_code) in sorted(CASES.items()):
    code, text = report(argv)
    if code != want_code:
        sys.exit(f"{name}: exit code {code}, expected {want_code}")
    golden_path(name).write_text(text)
    print(f"wrote {golden_path(name)}")
