#!/usr/bin/env python3
"""Benchmark of nearex: time to validated results, checked, with per-layer tracing.

Usage (from the root of a checkout)::

    python3 benchmark/run.py --workload fixtures --seed 0 --seconds 20 --trace 0

Workloads (see benchmark/README.md for why each exists):

* ``fixtures`` - one recovery of each fast fixture per pass;
* ``detect6r`` - the 6R total-degree detection (256 paths) per pass;
* ``study``    - posdim and multiplicity_line Monte Carlo samples per pass.

Passes repeat while the next one is expected to end within ``--seconds``;
at least one always runs.  ``--trace 0`` prints the end-to-end metrics of
untraced passes, with item times rescaled to a reference machine speed
(``calibration.py``).  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics of the traced ones (per pass) plus the
tracing overhead; the spans go to ``.bench_out/trace-<workload>.npz``.
BLAS threads are left as the environment sets them and recorded in the header.

Every result is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The first line
is the environment header, and the line before the result has the
ungated details.  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 1 and
prints no result.
"""

import time

_T0 = time.perf_counter()  # a setup probe times its imports from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
WARMUP_FIXTURE = "double_root"


def use_checkout_source():
    """Put the checkout's ``src/`` first on the path and import nearex from it."""
    src = ROOT / "src"
    if not (src / "nearex" / "__init__.py").is_file():
        raise SystemExit(f"error: no nearex sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import nearex

    if Path(nearex.__file__).resolve().parent != (src / "nearex").resolve():
        raise SystemExit(f"error: nearex was imported from {nearex.__file__}, not {src}")


def setup_probe(workload):
    """Child-process body: import the program and load the workload's problems.

    Prints the set-up time, then the machine's speed right after it, while
    the program is idle.
    """
    use_checkout_source()
    import workloads

    workloads.setup(workload, ROOT)
    seconds = time.perf_counter() - _T0
    import calibration

    probe = calibration.SpeedProbe()
    print(repr(seconds), repr(statistics.median(probe.kernel_cpu_s() for _ in range(5))))


def measure_setup(workload, calibration):
    """Set-up times of fresh interpreters (imports count only once per process).

    Returns the raw times and the times at reference speed.
    """
    raw, adjusted = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, kernel_s = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        adjusted.append(seconds * calibration.KERNEL_REF_S / kernel_s)
    return raw, adjusted


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(args):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nearex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def warm_up():
    """One small recovery, untimed, so lazy imports and first calls are paid."""
    from nearex.problem import ProblemFile

    ProblemFile.load(str(ROOT / "fixtures" / f"{WARMUP_FIXTURE}.json")).run()


def run_untraced(wl, seconds, probe):
    """Passes under the speed probe; returns each pass's items."""
    durations, passes = [], []
    with probe:
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(wl.run_pass())
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - t_start + statistics.median(durations) > seconds:
                return durations, passes


def run_traced(wl, seconds, tracer):
    """Alternate untraced and traced passes; returns both duration lists."""
    plain, traced, items = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items += wl.run_pass()
        plain.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            items += wl.run_pass(on_item_start=tracer.request)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - t_start + pair > seconds:
            return plain, traced, items


def peak_rss_mb():
    """Peak resident set of this process or of its largest child so far."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(wl, passes, probe, setup_s, rss_mb):
    """End-to-end metrics from item times rescaled to reference machine speed.

    Also returns each distinct item's median time over the passes.
    """
    import numpy as np

    adjusted = [[probe.adjust(it.start, it.seconds) for it in items] for items in passes]
    pass_s = [sum(a) for a in adjusted]
    by_item = {}
    for items, times in zip(passes, adjusted):
        for it, t in zip(items, times):
            by_item.setdefault(it.name, []).append(t)
    per_item = {name: statistics.median(v) for name, v in by_item.items()}
    item_s = np.array(list(per_item.values()))
    n_items = sum(len(items) for items in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_s), "s"),
        "recover_s.geomean": (float(np.exp(np.mean(np.log(item_s)))), "s"),
        "recover_s.p90": (float(np.percentile(item_s, 90)), "s"),
        "throughput": (n_items * wl.UNITS_PER_ITEM / sum(pass_s), "1/s"),
        "ok_share": (sum(it.ok for items in passes for it in items) / n_items, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, per_item


def contract():
    """End-to-end and per-layer metric names, in the order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def _as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("fixtures", "detect6r", "study"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    use_checkout_source()
    import calibration
    import tracing
    import workloads

    print(json.dumps({"env": environment(args)}), flush=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    warm_up()

    end_to_end_names, per_layer_names = contract()
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, items = run_traced(wl, args.seconds, tracer)
        layers = tracer.layer_metrics(n_passes=len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        layers = {k: (v, tracing.unit_of(k)) for k, v in layers.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}.npz")
        # the full table, including times of layers this workload never calls
        print(json.dumps({"layers": _as_json(layers)}))
        metrics = {k: layers[k] for k in per_layer_names}
    else:
        probe = calibration.SpeedProbe()
        durations, passes = run_untraced(wl, args.seconds, probe)
        rss_mb = peak_rss_mb()  # before the set-up probes, which are children too
        setup_raw, setup_adjusted = measure_setup(args.workload, calibration)
        items = [it for items in passes for it in items]
        metrics, per_item = end_to_end(wl, passes, probe, statistics.median(setup_adjusted),
                                       rss_mb)
        if list(metrics) != end_to_end_names:
            raise RuntimeError(f"end-to-end metrics {list(metrics)} != {end_to_end_names}")
        detail = {k: (v, "s") for k, v in wl.detail(per_item).items()}
        detail["fail_share"] = (1.0 - metrics["ok_share"][0], "share")
        detail["slowdown"] = (probe.slowdown(), "x")
        detail = _as_json(detail)
        detail["raw_pass_s"] = durations
        detail["raw_setup_s"] = setup_raw
        print(json.dumps({"detail": detail}))

    for it in items:
        if not it.ok:
            print(f"{'WRONG' if it.wrong else 'failed'}: {it.name}: {it.reason}",
                  file=sys.stderr)
    failed = sum(not it.ok for it in items)
    print(f"{args.workload}: {len(items)} items, {failed} failed "
          f"(fail_share {failed / len(items):.4f})", file=sys.stderr)
    result = {
        "correct": not any(it.wrong for it in items),
        "attempted": len(items),
        "failed": failed,
        "metrics": _as_json(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
