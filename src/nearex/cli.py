"""Batch front end: run a recovery or a sampling study from a problem file.

``nearex recover problem.json`` runs detection → stabilization → descent →
validation and writes ``report.json`` plus ``points.csv`` (the classified
detection points with residuals and homogenizing-coordinate magnitudes, for
plotting).  Exit code 0 means a validated recovery, 2 a failed or
non-validated recovery, 1 an input error (including a usage error).  A
recovery that fails before its descent, because detection found nothing to
impose or no fiber product could be stabilized, still writes ``report.json``
with its status and the reason.

``nearex study problem.json --n 500 --sigma 0.1`` repeats the recovery over
Gaussian perturbations of the nominal parameters ``p_tilde`` and writes
``study.csv`` and ``hist.json`` (binned marginals per coordinate and along
the intrinsic scatter direction).

All outputs are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .engine import DEDUPE_RADIUS, StructureNotFoundError
from .fiberprod import StabilizationError
from .problem import OPTIONS, ProblemError, ProblemFile
from .recover import histogram_data, report, sample_study, study_csv
from .structure import cluster_points

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RECOVERY_FAILED = 2


def _add_common_flags(sub):
    sub.add_argument("problem", help="path to a problem JSON file")
    sub.add_argument("--seed", type=int, default=None, help="override the run seed")
    sub.add_argument("--tol-rank", type=float, default=None,
                     help="numerical rank tolerance for stabilization")
    sub.add_argument("--tol-infinity", type=float, default=None,
                     help="relative magnitude below which a homogenizing "
                          "coordinate counts as at infinity (infinity "
                          "problems only)")
    sub.add_argument("--max-components", type=int, default=None,
                     help="fix the number of component systems to stack "
                          "(not for infinity problems)")
    sub.add_argument("--out-dir", default=".", help="directory for output files")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nearex",
        description="Recover nearby parameter values where a polynomial "
                    "system acquires special solution structure.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    rec = subs.add_parser("recover", help="run one detection + recovery")
    _add_common_flags(rec)
    stu = subs.add_parser("study", help="repeat a recovery over Gaussian "
                                        "perturbations of p_tilde")
    _add_common_flags(stu)
    stu.add_argument("--n", type=int, default=500, help="number of samples")
    stu.add_argument("--sigma", type=float, default=0.1,
                     help="perturbation standard deviation")
    return parser


def _overrides(args):
    return {key: getattr(args, key) for key in OPTIONS if getattr(args, key) is not None}


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"


def points_csv(points):
    """Classified detection points as CSV: clusters of points within
    ``DEDUPE_RADIUS``, labels, residuals, magnitudes."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    n_coord = len(points[0].point) if points else 0
    header = ["index", "cluster", "labels", "residual", "hom_magnitudes"]
    header += [f"abs_x{i+1}" for i in range(n_coord)]
    w.writerow(header)
    clusters = cluster_points(points, DEDUPE_RADIUS)
    for i, (cp, cluster) in enumerate(zip(points, clusters)):
        row = [
            i,
            cluster,
            ";".join(sorted(cp.labels)),
            f"{cp.residual_full_system:.16g}",
            ";".join(f"{m:.16g}" for m in cp.homogenizing_magnitudes),
        ]
        row += [f"{abs(v):.16g}" for v in cp.point]
        w.writerow(row)
    return buf.getvalue()


def _run_report(prob, outcome):
    stab = outcome.stabilization
    extra = {
        "problem": prob.name,
        "structure": outcome.structure,
        "validated": outcome.validated,
        "dimension_sequence": list(stab.dims),
        "system_sizes": list(stab.sizes),
    }
    return report(outcome.result, fiber=outcome.fiber, extra=extra)


def cmd_recover(args):
    prob = ProblemFile.load(args.problem)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = prob.run(overrides=_overrides(args))
    except (StructureNotFoundError, StabilizationError) as exc:
        _write(out_dir / "report.json", _json_dump({
            "problem": prob.name, "status": exc.status,
            "validated": False, "detail": str(exc),
        }))
        print(f"recovery failed: {exc}", file=sys.stderr)
        return EXIT_RECOVERY_FAILED
    _write(out_dir / "report.json", _json_dump(_run_report(prob, outcome)))
    _write(out_dir / "points.csv", points_csv(outcome.points))
    if outcome.validated:
        print(f"recovered p* at distance {outcome.result.distance:.6g}")
        return EXIT_OK
    print("recovery not validated", file=sys.stderr)
    return EXIT_RECOVERY_FAILED


def cmd_study(args):
    prob = ProblemFile.load(args.problem)
    if prob.p_tilde is None:
        raise ProblemError("study requires a p_tilde nominal point in the problem file")
    if args.n < 1:
        raise ProblemError("--n must be at least 1")
    if not (np.isfinite(args.sigma) and args.sigma > 0):
        raise ProblemError(f"--sigma must be a positive finite number, got {args.sigma!r}")
    overrides = _overrides(args)
    # a bad option is rejected before the first sample; sample i runs at seed + i
    base_seed = prob.options_with(overrides).get("seed", 0)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_one(p_hat, sample_seed):
        shifted = dataclasses.replace(prob, p_hat=np.asarray(p_hat, dtype=complex))
        return shifted.run(seed=sample_seed, overrides=overrides).result

    p_tilde = np.real(prob.p_tilde)
    rows = sample_study(run_one, p_tilde, args.sigma, args.n, seed=base_seed)
    _write(out_dir / "study.csv", study_csv(rows, len(p_tilde)))
    _write(out_dir / "hist.json",
           _json_dump(histogram_data(rows, p_tilde, args.sigma)))
    n_ok = sum(1 for r in rows if r.get("chi2stat") is not None)
    print(f"{n_ok}/{args.n} samples recovered")
    return EXIT_OK


def _attach_negative_values(argv):
    """``--flag -1e-6`` as ``--flag=-1e-6``.  argparse takes an argument that
    starts with ``-`` for a value only when it reads like ``-2`` or ``-0.5``,
    so it would read ``-1e-6`` or ``-inf`` as an unknown option."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag and _is_negative_number(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def _is_negative_number(arg):
    try:
        float(arg)
    except ValueError:
        return False
    return arg.startswith("-")


def main(argv=None):
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "recover":
            return cmd_recover(args)
        return cmd_study(args)
    except (ProblemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
