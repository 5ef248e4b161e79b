"""Full-size reference timings of single lorentzkit commands.

    python3 perfbench/reference.py

The workloads of run.py use reduced input sizes so that a run fits its time
budget; this script times the full-size commands once each, in one process
after one import, and prints one line per command. It checks nothing and is
not part of the benchmark's measurements.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import io
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["check", "builtin:schwarzschild_ef", "--condition", "FP",
     "--points", "40", "--dirs", "16"],
    ["check", "builtin:desitter", "--condition", "O"],
    ["perturb", "builtin:torus_quotient", "--theorem", "3.3",
     "--submanifold", "S", "--at", "0,0", "--nmax", "8"],
    ["perturb", "builtin:minkowski", "--theorem", "4.2", "--at", "0,0,0,0",
     "--witness", "v=1,0,0,0", "w=0,0,1,0", "--nmax", "8"],
    ["geodesic", "builtin:schwarzschild_ef", "--from", "0,3,1.5707,0",
     "--dir", "1,-1,0,0", "--length", "2", "--transport", "0,1,0,0"],
    ["classify", "builtin:schwarzschild_ef", "--submanifold", "horizon_sphere"],
]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import lorentzkit as lk
    import lorentzkit.cli as cli
    print(f"{time.perf_counter() - t0:8.3f} s  import lorentzkit, lorentzkit.cli")
    for argv in COMMANDS:
        t0 = time.perf_counter()
        code = cli.run(argv, io.StringIO())
        print(f"{time.perf_counter() - t0:8.3f} s  exit {code}  {' '.join(argv)}")

    import numpy as np
    field = lk.catalog.load("schwarzschild_static").field
    p = np.array([0.0, 5.0, 1.3, 0.4])
    t0 = time.perf_counter()
    chart = lk.NormalChart(field, p, lk.orthonormal_frame_from(field, p),
                           radius=0.4)
    print(f"{time.perf_counter() - t0:8.3f} s  NormalChart schwarzschild_static "
          f"radius 0.4 at {p.tolist()}")
    x = np.array([0.1, 0.05, -0.1, 0.05])
    q = chart.forward(x)
    t0 = time.perf_counter()
    chart.inverse(q)
    print(f"{time.perf_counter() - t0:8.3f} s  one inverse of that chart")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{rss:8.1f} MB peak resident memory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
