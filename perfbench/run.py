"""blockseq benchmark: closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload seq-partition --seed 1 --seconds 32 --trace 0

One caller runs the workload's operations one at a time, in whole passes over
the seeded input set, until the next pass would overrun ``--seconds``.  Every
output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the full record: environment, raw per-path latencies with sample
counts and percentiles, quality counts and the failed operations.  Without
``--workload`` every workload runs, each in its own process.

Reported times are scaled to a reference kernel timed throughout the run (see
``REF_NOMINAL_S``); the record keeps the raw times as well.

The package is imported from ``src/`` of the checkout the script sits in; the
run stops with exit code 2 when it is missing.  Scratch files and span dumps
go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager, nullcontext
import functools
import json
import math
import os
from pathlib import Path
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("seq-partition", "graph-paginate", "geometry-cli")
SETUP_REPEATS = 7
#: reference-kernel calls before, between and after the set-up interpreters
SETUP_REFS = 4
#: share of a traced run spent on untraced passes, for the overhead figure
UNTRACED_SHARE = 0.45
#: Median time of ``reference_point`` on the 2-core machine the baseline was
#: taken on.  The speed of that machine drifts by up to 1.5x over seconds to
#: minutes (one partition call read 0.58 s in one run and 0.86 s two runs
#: later), so the reference kernel is timed before every pass and after every
#: operation, and each time is reported as raw * REF_NOMINAL_S / ref, where
#: ref is the mean of those reference times over the run: a long call sees
#: the run's average speed, not its typical one.
REF_NOMINAL_S = 0.021
#: per-path median latency metric, keyed by op kind
PATH_METRICS = {
    "partition": "partition_s",
    "greedy": "greedy_s",
    "extract": "extract_s",
    "blocksize": "blocksize_s",
    "paginate": "paginate_s",
    "avoid": "avoid_s",
    "ramsey": "ramsey_s",
    "cli": "cli_s",
}
COUNT_METRICS = ("partition_parts", "greedy_parts", "pages")
TIME_SUFFIXES = ("_s", "_us", "_ns_per_cell")
SIDE_METRICS = ("cli.startup_s", "cli.gen_s", "cli.extract_s", "cli.verify_s", "cli.verify_all_s")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def blas_threads() -> int:
    """BLAS threads: one, like the single caller, unless OPENBLAS_NUM_THREADS
    or OMP_NUM_THREADS asks for more; never more than ``nproc``."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return max(1, min(int(asked) if asked else 1, nproc))


def prepare_environment() -> int:
    """Point imports and child interpreters at ``src/``; cap BLAS threads."""
    if sys.flags.optimize:
        fail("refusing to run under python -O, which deletes the package's guards")
    if not (SRC / "blockseq" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'blockseq'}")
    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    import blockseq

    if not Path(blockseq.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported blockseq from {blockseq.__file__}, not from {SRC}")
    return threads


def environment(seed: int, threads: int) -> dict:
    import numpy
    import blockseq.extract

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "kernel": "numba" if blockseq.extract._HAVE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "seed": seed,
    }


# -- the reference kernel -------------------------------------------------------

@functools.cache
def _reference_input():
    import numpy as np

    return np.random.default_rng(211201750).permutation(1000).astype(float)


def _reference_kernel() -> int:
    """Fixed work in the package's three styles: a Python loop of small
    numpy steps shaped like one gapped-chain DP, plain Python over tuples
    and dicts, and a small matrix product.  It calls nothing in the package,
    so no change to the package moves it."""
    import numpy as np

    vals = _reference_input()
    below = np.zeros(len(vals), dtype=np.int64)
    hits = 0
    for i in range(1, len(vals)):
        prev = vals[:i]
        under = prev < vals[i]
        cum = np.cumsum(under)
        window = (cum[-1] - cum) - below[:i]
        hits += int(np.count_nonzero(under & (window >= 2)))
        below[:i] += prev > vals[i]
    pairs = sorted((float(v), i) for i, v in enumerate(vals.tolist() * 8))
    index = {p: i for i, p in enumerate(pairs)}
    hits += sum(index[p] & 1 for p in pairs[::3])
    square = np.resize(vals, (256, 256)) / len(vals)
    for _ in range(6):
        square = np.tanh(square @ square.T)
    return hits + int(square.sum() > 0)


def reference_point() -> float:
    """Seconds of one reference-kernel call."""
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, ref: float) -> float:
    return seconds * REF_NOMINAL_S / ref


def geomean(values) -> float:
    return math.exp(statistics.fmean([math.log(v) for v in values]))


# -- measurement ----------------------------------------------------------------

def run_pass(workload, index: int, tracer=None) -> dict:
    from workloads import CheckFailed

    span = (lambda name: nullcontext()) if tracer is None else tracer.span
    records = []
    start = time.perf_counter()
    with nullcontext() if tracer is None else tracer.paused():
        ops = workload.ops_for(index)
    refs = [reference_point()]
    for op in ops:
        rec = {"kind": op.kind, "label": op.label, "may_fail": op.may_fail,
               "ok": False, "wrong": False, "counts": {}}
        t0 = time.perf_counter()
        try:
            with span("op"):
                result = op.call()
        except Exception as exc:  # a raising op counts as failed; the loop goes on
            rec["seconds"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["wrong"] = not op.may_fail
        else:
            rec["seconds"] = time.perf_counter() - t0
            try:
                rec["counts"] = op.check(result)
                rec["ok"] = True
            except CheckFailed as exc:
                rec["wrong"] = True
                rec["error"] = f"CheckFailed: {exc}"
        refs.append(reference_point())
        records.append(rec)
    done = {"wall": time.perf_counter() - start, "ops": records, "refs": refs, "probe_error": None}
    if tracer is not None and workload.probe is not None:
        try:
            workload.probe(tracer)
        except CheckFailed as exc:
            done["probe_error"] = str(exc)
    return done


def run_passes(workload, budget: float, first: int = 0, tracer=None) -> list[dict]:
    """Whole passes, numbered from ``first``, until the next one, at the mean
    pass time so far, would end after ``budget`` seconds.  At least one pass
    runs."""
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + statistics.fmean(p["wall"] for p in passes) <= budget
    ):
        passes.append(run_pass(workload, first + len(passes), tracer))
    return passes


def summarize(passes: list[dict]) -> dict:
    """Throughput, per-path latencies and quality counts of some passes.

    Operations are grouped by slot (label).  A path's scaled time is the
    geometric mean, over its slots, of each slot's median checked call;
    ``path_geomean_s`` weighs the paths equally in the same way.  Latencies
    and throughput cover the same slots whatever the calls return: every
    slot but the ``may_fail`` ones, which the record lists on their own."""
    records = [r for p in passes for r in p["ops"]]
    ok = [r for r in records if r["ok"]]
    ref = statistics.fmean(x for p in passes for x in p["refs"])
    slots: dict = {}
    for r in records:
        slots.setdefault(r["label"], []).append(r)
    ops, path_slots = {}, {}
    for label, recs in slots.items():
        good = [scaled(r["seconds"], ref) for r in recs if r["ok"]]
        ops[label] = {"samples": len(good), "attempted": len(recs)}
        if recs[0]["may_fail"]:
            ops[label]["may_fail"] = True
            ops[label]["all_calls_scaled_s"] = scaled(statistics.median(r["seconds"] for r in recs), ref)
        elif good:  # a fixed slot without a good call has made the run incorrect
            ops[label]["scaled_s"] = statistics.median(good)
            path_slots.setdefault(recs[0]["kind"], []).append(ops[label]["scaled_s"])
    fixed = [r for r in ok if not r["may_fail"]]
    paths = {}
    for kind, slot_medians in path_slots.items():
        raw = sorted(r["seconds"] for r in fixed if r["kind"] == kind)
        entry = {"samples": len(raw), "median_s": statistics.median(raw),
                 "scaled_s": geomean(slot_medians)}
        # the highest percentile with at least ten samples beyond it
        pct = math.floor(100 * (len(raw) - 10) / len(raw))
        if pct > 50:
            entry[f"p{pct}_s"] = statistics.quantiles(raw, n=100)[pct - 1]
        paths[kind] = entry
    # A median pass over the fixed slots: every call at its slot's median
    # time, so that one stalled call does not move the figure.
    median_busy = sum(
        scaled(statistics.median(r["seconds"] for r in recs), ref) * len(recs)
        for recs in slots.values() if not recs[0]["may_fail"]
    )
    counts: dict = {}
    for r in passes[0]["ops"]:
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0) + value
    failures = {f"{r['label']}: {r['error']}" for r in records if not r["ok"]}
    failures |= {f"probe: {p['probe_error']}" for p in passes if p["probe_error"]}
    return {
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "ref_s": ref,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "wrong": sum(r["wrong"] for r in records) + sum(bool(p["probe_error"]) for p in passes),
        "ops_per_s": len(fixed) / median_busy,
        "path_geomean_s": geomean(p["scaled_s"] for p in paths.values()),
        "paths": paths,
        "ops": ops,
        "counts": counts,
        "failures": sorted(failures),
    }


def full_metrics(summary: dict) -> dict:
    """Per-path scaled latencies, first-pass quality counts, failure share."""
    out = {PATH_METRICS[k]: v["scaled_s"] for k, v in summary["paths"].items()}
    out.update(summary["counts"])
    out["failed_ratio"] = summary["failed"] / summary["attempted"]
    return out


def setup_seconds(name: str, seed: int) -> tuple[list[float], float]:
    """Wall times of fresh interpreters that import the package, generate the
    first pass's inputs from the seed and make one warm-up call per op kind,
    and the median reference time taken around them."""
    times, refs = [], [reference_point() for _ in range(SETUP_REFS)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.DEVNULL,
            timeout=170,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up of {name} exited {proc.returncode}")
        refs += [reference_point() for _ in range(SETUP_REFS)]
    return times, statistics.median(refs)


def measure_untraced(workload, seconds: float, record: dict, units: dict) -> tuple[dict, bool, dict]:
    raw_setup, setup_ref = setup_seconds(workload.name, record["seed"])
    summary = summarize(run_passes(workload, seconds))
    metrics = {
        "setup_s": scaled(statistics.median(raw_setup), setup_ref),
        "ops_per_s": summary["ops_per_s"],
        "path_geomean_s": summary["path_geomean_s"],
        "ok_ratio": 1 - summary["failed"] / summary["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update(
        setup_raw_s=raw_setup,
        setup_ref_s=setup_ref,
        full_metrics={
            name: {"value": value, "unit": units[name]}
            for name, value in {
                "setup_s": metrics["setup_s"],
                "ops_per_s": metrics["ops_per_s"],
                **full_metrics(summary),
                "peak_rss_mb": metrics["peak_rss_mb"],
            }.items()
        },
        **{k: summary[k] for k in ("passes", "pass_wall_s", "ref_s", "paths", "ops", "failures")},
    )
    return metrics, summary["wrong"] == 0, summary


def measure_traced(workload, seconds: float, record: dict) -> tuple[dict, bool, dict]:
    from tracing import Tracer

    start = time.perf_counter()
    untraced = summarize(run_passes(workload, UNTRACED_SHARE * seconds))
    tracer = Tracer()
    tracer.install()
    try:
        remaining = seconds - (time.perf_counter() - start)
        traced = summarize(run_passes(workload, remaining, untraced["passes"], tracer))
    finally:
        tracer.remove()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{record['seed']}.json")
    layers = tracer.layer_metrics(traced["passes"])
    layers.update(tracer.cross_check())
    side = workload.side
    layers.update({k: statistics.median(side[k]) if side.get(k) else 0.0 for k in SIDE_METRICS})
    scale = REF_NOMINAL_S / traced["ref_s"]
    metrics = {k: v * scale if k.endswith(TIME_SUFFIXES) else v for k, v in layers.items()}
    paths = full_metrics(untraced)
    for name in (*PATH_METRICS.values(), *COUNT_METRICS, "failed_ratio"):
        metrics[name] = paths.get(name, 0)
    metrics["trace.ops_per_s"] = traced["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    metrics["trace.speed_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    record.update(
        passes={"untraced": untraced["passes"], "traced": traced["passes"]},
        ref_s={"untraced": untraced["ref_s"], "traced": traced["ref_s"]},
        paths=untraced["paths"],
        failures=sorted(set(untraced["failures"]) | set(traced["failures"])),
    )
    correct = untraced["wrong"] == 0 and traced["wrong"] == 0
    correct = correct and metrics["rangecount.mismatches"] == 0
    total = {k: untraced[k] + traced[k] for k in ("attempted", "failed")}
    return metrics, correct, total


@contextmanager
def scratch_dir():
    """A fresh directory under ``.perfbench/`` for this process's artifacts."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, trace: bool, threads: int) -> tuple[dict, dict]:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    record = {"workload": name, "seed": seed, "trace": int(trace), "env": environment(seed, threads)}
    with scratch_dir() as workdir:
        workload = workloads.build(name, seed, workdir)
        if trace:
            metrics, correct, counts = measure_traced(workload, seconds, record)
        else:
            metrics, correct, counts = measure_untraced(workload, seconds, record, units)
    if set(metrics) != set(reported):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(reported))}")
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in reported},
    }
    return record, result


def run_all(args) -> int:
    """Every workload in its own process; their output passes through."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=180,
        )
        code = code or proc.returncode
    return code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    threads = prepare_environment()
    if args.workload is None:
        sys.exit(run_all(args))
    if args.setup_only:
        import workloads

        with scratch_dir() as workdir:
            workloads.build(args.workload, args.seed, workdir)
        return
    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), threads)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
