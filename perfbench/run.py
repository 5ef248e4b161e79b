"""lorentzkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lorentzkit is imported from its `src/`.
Queries run one at a time (`--jobs 1`), with BLAS capped at 2 threads.

A run spreads its measurements over the `S` seconds, because this class of
shared machine drifts in speed over tens of seconds. It is SAMPLES samples,
one after another, each a fresh interpreter (the first is this process, the
next a child process, started and awaited) with its own share of the `S`
seconds:

1. set-up: import lorentzkit and load every spacetime the workload uses;
2. a cold pass over the workload's queries, then warm passes: at least one,
   and more while the next is expected to end within the sample's share;
3. peak resident memory is read.

`setup_s`, `cold_pass_s` and `peak_rss_mb` are medians over the samples,
`pass_s` the median over all their warm passes. Only then is the sympy
oracle imported, and the outputs of this process's cold pass checked; every
other pass of every sample must reproduce them byte for byte.

With `--trace 1` there is one sample, this process: after its cold pass it
makes untraced warm passes within half of `S` (at least one), then traced
ones with the wrappers of `spans.py` within the rest (at least MIN_TRACED);
the per-layer metrics and the tracing overhead are reported instead of the
end-to-end ones.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import os

# BLAS capped at the machine's 2 cores, before numpy is first imported;
# child samples inherit the setting
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLES = 2
MIN_TRACED = 2
SAMPLE_TIMEOUT_S = 150
WORKLOAD_NAMES = ("scan-grids", "families-curves")

RUN_SECONDS = 55

# end-to-end metrics: name -> (unit, bound); lower is better for all four.
# A bound is the share of the parent's median by which the metric may worsen.
# The timing bounds are wide because this class of shared 2-core machine
# drifts in speed by 15-25% over tens of seconds to minutes (README.md, "Noise").
END_TO_END = {
    "setup_s": ("s", 0.25),
    "cold_pass_s": ("s", 0.25),
    "pass_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}


class Raised:
    """Stands for the output of a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def run_pass(queries) -> tuple[float, list]:
    results = []
    t0 = time.perf_counter()
    for q in queries:
        try:
            results.append(q.run())
        except Exception as exc:          # a failed query, counted below
            results.append(Raised(exc))
    return time.perf_counter() - t0, results


def digest(q, result) -> str:
    """Fingerprint of a query's output, the same in every interpreter."""
    text = result.text if isinstance(result, Raised) else q.digest(result)
    return hashlib.sha256(text.encode()).hexdigest()


def load(workload: str, seed: int):
    """Set-up and the query list; returns (setup_s, set-up, queries)."""
    # set-up time counts numpy's import too: workloads imports it first
    t0 = time.perf_counter()
    import workloads as wl
    s = wl.setup(workload)
    setup_s = time.perf_counter() - t0
    import numpy as np
    return setup_s, s, wl.build(workload, s, np.random.default_rng(seed), seed)


def sample(queries, until: float) -> tuple[dict, list]:
    """A cold pass and warm passes until `until` (perf_counter); returns the
    sample's figures (without set-up) and the cold pass's outputs."""
    cold_s, cold = run_pass(queries)
    digests = [[digest(q, r) for q, r in zip(queries, cold)]]
    warm = []
    while not warm or time.perf_counter() + warm[-1] <= until:
        dt, out = run_pass(queries)
        warm.append(dt)
        digests.append([digest(q, r) for q, r in zip(queries, out)])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"cold_pass_s": cold_s, "pass_s": warm, "peak_rss_mb": rss_mb,
            "digests": digests}, cold


def child_sample(workload: str, seed: int, seconds: float) -> dict:
    """A sample in a fresh interpreter that ends its warm passes within
    `seconds`; awaited."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--sample"],
        cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="length of the measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sample", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-benchmark", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_benchmark:
        ap.error("--workload is required")
    return args


def benchmark_json() -> dict:
    """BENCHMARK.json: the command, workloads and metrics defined here."""
    import spans
    import workloads
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workloads.WHY[name]}
                      for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": name, "unit": unit, "better": "lower",
                        "bound": bound}
                       for name, (unit, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in spans.LAYER_METRICS.items()],
    }


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lorentzkit" / "__init__.py").is_file():
        print(f"error: no lorentzkit sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.write_benchmark:
        with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    sys.path.insert(0, str(src))
    setup_s, s, queries = load(args.workload, args.seed)
    if Path(s.lk.__file__).resolve().parent != (src / "lorentzkit").resolve():
        print(f"error: lorentzkit imported from {s.lk.__file__}", file=sys.stderr)
        return 2
    if args.sample:
        figures = sample(queries, start + args.seconds)[0]
        print(json.dumps({"setup_s": setup_s, **figures}))
        return 0

    deadline = start + args.seconds
    layer = None
    if args.trace:
        cold_s, cold = run_pass(queries)
        passes = [[digest(q, r) for q, r in zip(queries, cold)]]
        warm = []
        while not warm or time.perf_counter() + warm[-1] <= start + args.seconds / 2:
            dt, out = run_pass(queries)
            warm.append(dt)
            passes.append([digest(q, r) for q, r in zip(queries, out)])
        import spans
        tracer = spans.Tracer()
        tracer.install()
        per_pass = []
        try:
            while len(per_pass) < MIN_TRACED or \
                    time.perf_counter() + per_pass[-1][0] <= deadline:
                tracer.reset()
                dt, out = run_pass(queries)
                per_pass.append((dt, tracer.layer_metrics()))
                passes.append([digest(q, r) for q, r in zip(queries, out)])
        finally:
            tracer.uninstall()
            tracer.reset()
        layer = reduce_layers(spans, per_pass, warm, s)
        print(f"cold pass {cold_s:.3f} s, warm passes "
              f"{', '.join(f'{t:.3f}' for t in warm)} s, traced passes "
              f"{', '.join(f'{t:.3f}' for t, _ in per_pass)} s", file=sys.stderr)
    else:
        share = args.seconds / SAMPLES
        first, cold = sample(queries, start + share)
        samples = [{"setup_s": setup_s, **first}]
        for i in range(1, SAMPLES):
            left = start + (i + 1) * share - time.perf_counter()
            samples.append(child_sample(args.workload, args.seed, left))
        passes = [d for x in samples for d in x["digests"]]
        for x in samples:
            print(f"sample: set-up {x['setup_s']:.3f} s, cold pass "
                  f"{x['cold_pass_s']:.3f} s, warm passes "
                  f"{', '.join(f'{t:.3f}' for t in x['pass_s'])} s, "
                  f"{x['peak_rss_mb']:.1f} MB", file=sys.stderr)

    # checks: outside the timed sections, after every memory reading
    import workloads as wl
    failed_queries = {}
    for i, (q, r) in enumerate(zip(queries, cold)):
        if isinstance(r, Raised):
            problems = [f"raised {r.text}"]
        else:
            try:
                problems = q.check(r)
            except Exception as exc:      # a check that cannot read the output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed_queries[i] = problems
    reference = passes[0]
    mismatched = [sum(d[i] != reference[i] for d in passes)
                  for i in range(len(queries))]
    failed = 0
    for i in range(len(queries)):
        failed += len(passes) if i in failed_queries else mismatched[i]
        if mismatched[i] and i not in failed_queries:
            failed_queries[i] = [f"output differs from the first cold pass "
                                 f"in {mismatched[i]} passes"]
    allowed = {" ".join(wl.FAULTY_FAMILY)}
    correct = all(queries[i].label in allowed and not mismatched[i]
                  for i in failed_queries)
    for i, problems in failed_queries.items():
        print(f"FAILED {queries[i].label}: {'; '.join(problems)}", file=sys.stderr)

    if layer is not None:
        metrics = layer
    else:
        values = {k: statistics.median(x[k] for x in samples)
                  for k in ("setup_s", "cold_pass_s", "peak_rss_mb")}
        values["pass_s"] = statistics.median(t for x in samples for t in x["pass_s"])
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _) in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries "
          f"x {len(passes)} passes, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": len(queries) * len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


def reduce_layers(spans, per_pass, warm, s) -> dict:
    """Per-layer metrics: counts from the first traced pass (they must repeat
    in every other), times as medians over the traced passes."""
    first = per_pass[0][1]
    for _, m in per_pass[1:]:
        moved = [k for k in spans.COUNT_METRICS if k in m and m[k] != first[k]]
        if moved:
            print(f"warning: counts differ between traced passes: {moved}",
                  file=sys.stderr)
    values = {}
    for key in first:
        if key in spans.COUNT_METRICS:
            values[key] = first[key]
        else:
            values[key] = statistics.median(m[key] for _, m in per_pass)
    values["setup.import_s"] = s.import_s
    values["catalog.load_s"] = s.catalog_s
    values["specfile.parse_s"] = s.spec_s
    traced = statistics.median(t for t, _ in per_pass)
    values["trace.overhead_pct"] = 100.0 * (traced / statistics.median(warm) - 1.0)
    return {k: {"value": values[k], "unit": unit}
            for k, (unit, _) in spans.LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
