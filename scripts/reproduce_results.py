#!/usr/bin/env python3
"""Run every shipped recovery fixture and print the headline numbers.

For each fixture this runs the full detection + stabilization + descent
pipeline and reports the status, the stabilization dimension/size tables,
the recovered parameters, and their distance to the shipped reference
values.  The 6R fixture only runs its detection stage.

Usage:
    python3 scripts/reproduce_results.py [fixture ...]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nearex.fixtures import load  # noqa: E402
from nearex.problem import ProblemFile  # noqa: E402
from nearex.structure import cluster_points  # noqa: E402
from nearex.tracker import solve_total_degree  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DEFAULT = ["double_root", "infinity_example", "infinity_example_2hom",
           "posdim", "zeke_quartic", "multiplicity_line", "fourbar", "stewart_gough"]


def run_fixture(name):
    prob = ProblemFile.load(str(FIXTURES / f"{name}.json"))
    _, _, _, p_ref = load(name.replace("_2hom", ""))
    t0 = time.monotonic()
    out = prob.run()
    dt = time.monotonic() - t0
    res = out.result
    print(f"{name}: {res.status} ({dt:.1f} s)"
          + ("" if out.validated else "  [NOT VALIDATED]"))
    print(f"  image dims : {out.stabilization.dims}")
    print(f"  sizes      : {out.stabilization.sizes}")
    p = np.real(res.p_star)
    with np.printoptions(precision=6, suppress=True):
        print(f"  p*         : {p}")
    if p_ref is not None and np.shape(p_ref) == p.shape:
        print(f"  |p*-ref|   : {np.max(np.abs(p - p_ref)):.2e}")
    print(f"  |p*-p_hat| : {res.distance:.6f}")


def run_sixr_detection():
    f, _, p_hat, _ = load("sixR")
    t0 = time.monotonic()
    results = solve_total_degree(f.substitute_params(p_hat), seed=0)
    good = [r.endpoint for r in results if r.success]
    ids = cluster_points(good, radius=1e-6)
    reps = {}
    for pt, i in zip(good, ids):
        reps.setdefault(i, pt)
    pts = list(reps.values())
    i0, i9 = f.names.index("x0"), f.names.index("x9")
    th = 1e-4
    n0 = sum(1 for p in pts if abs(p[i0]) / np.linalg.norm(p) < th)
    n9 = sum(1 for p in pts if abs(p[i9]) / np.linalg.norm(p) < th)
    dt = time.monotonic() - t0
    print(f"sixR detection: {len(results)} paths, {len(pts)} distinct "
          f"solutions ({dt:.1f} s)")
    print(f"  clusters   : {n0} with x0~0, {n9} with x9~0, "
          f"{len(pts) - n0 - n9} regular")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fixtures", nargs="*", help="fixture names (default: all)")
    args = ap.parse_args()
    names = args.fixtures or DEFAULT
    for name in names:
        if name == "sixR":
            run_sixr_detection()
        else:
            run_fixture(name)
    if not args.fixtures:
        run_sixr_detection()


if __name__ == "__main__":
    main()
