#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload input, over every output bit.

A change that claims to make nearex faster without changing its arithmetic
must print the same lines as its parent commit, at the same OpenBLAS thread
count.  The inputs are those of the benchmark's workloads
(``benchmark/workloads.py``), at seeds 0 and 1:

* ``detect6r``: all 256 total-degree paths of the 6R system at p-hat
  (solver seed 0 and 1): endpoint bytes, status, residual, steps, final t;
* ``study``: every ``sample_study`` row of posdim and multiplicity_line at
  sigma = 0.1, 150 samples each (study seed 0 and 1), run the way
  ``nearex study`` runs a sample;
* ``fixtures``: the seven fast fixtures recovered at run seed 0 and 1:
  status, p* bytes, validation dict and the stabilization tables, plus the
  exit code and the bytes of ``report.json`` and ``points.csv`` that
  ``nearex recover --seed <seed>`` writes for the same file.

After these six lines comes one line per fixture and seed, hashed over that
fixture's share of the ``fixtures`` lines, so that a change which moves
fixture bits on purpose can name the fixtures that moved.

Floats are hashed by their bytes, never by a rounded rendering.  The script
takes no options; it runs for a few minutes on two cores.

Usage:
    python3 scripts/output_digest.py
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from nearex.cli import main as nearex_main  # noqa: E402
from nearex.fixtures import load  # noqa: E402
from nearex.recover import sample_study  # noqa: E402
from nearex.tracker import solve_total_degree  # noqa: E402
from workloads import (  # noqa: E402  (the benchmark's inputs)
    FAST_FIXTURES,
    STUDY_FIXTURES,
    STUDY_SAMPLES,
    STUDY_SIGMA,
    load_problems,
)

SEEDS = (0, 1)


def feed(h, obj):
    """Hash ``obj`` into ``h``, tagged by type so that no two values collide."""
    if obj is None or isinstance(obj, (bool, str)):
        h.update(f"{type(obj).__name__}:{obj}|".encode())
    elif isinstance(obj, bytes):
        h.update(f"bytes{len(obj)}:".encode())
        h.update(obj)
    elif isinstance(obj, (int, np.integer)):
        h.update(f"int:{int(obj)}|".encode())
    elif isinstance(obj, (float, complex, np.generic, np.ndarray)):
        arr = np.asarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}:".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            feed(h, item)
        h.update(b"]")
    else:
        raise TypeError(f"cannot hash a {type(obj).__name__}")


def sixr_paths(seed):
    system, _, p_hat, _ = load("sixR")
    results = solve_total_degree(system, params=p_hat, seed=seed)
    return [[r.endpoint, r.status, r.residual, r.steps, r.final_t] for r in results]


def study_rows(seed):
    rows = []
    for prob in load_problems(ROOT, STUDY_FIXTURES).values():

        def run_one(p_hat, sample_seed, prob=prob):
            shifted = dataclasses.replace(prob, p_hat=np.asarray(p_hat, dtype=complex))
            return shifted.run(seed=sample_seed).result

        rows += sample_study(run_one, np.real(prob.p_tilde), STUDY_SIGMA,
                             STUDY_SAMPLES, seed=seed)
    return rows


def fixture_outcomes(seed):
    out = []
    for nm, prob in load_problems(ROOT, FAST_FIXTURES).items():
        try:
            run = prob.run(seed=seed)
        except Exception as exc:  # a raising recovery is an output too
            out.append([nm, f"{type(exc).__name__}: {exc}"])
            continue
        stab = run.stabilization
        tables = None if stab is None else [list(stab.dims), list(stab.sizes)]
        res = run.result
        out.append([nm, res.status, res.p_star, res.validation, tables,
                    cli_recover(ROOT / "fixtures" / f"{nm}.json", seed)])
    return out


def cli_recover(path, seed):
    """Exit code and the bytes of every file ``nearex recover`` writes."""
    with tempfile.TemporaryDirectory() as out_dir:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = nearex_main(["recover", str(path), "--seed", str(seed),
                                "--out-dir", out_dir])
        return [code] + [[f.name, f.read_bytes()] for f in sorted(Path(out_dir).iterdir())]


WORKLOADS = [("detect6r", sixr_paths), ("study", study_rows),
             ("fixtures", fixture_outcomes)]


def digest(obj):
    h = hashlib.sha256()
    feed(h, obj)
    return h.hexdigest()


def main():
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    per_fixture = []
    for name, outputs in WORKLOADS:
        for seed in SEEDS:
            items = outputs(seed)
            print(f"{name:9s} seed {seed}  {len(items):3d} items  {digest(items)}",
                  flush=True)
            if name == "fixtures":
                per_fixture += [(item[0], seed, digest(item)) for item in items]
    for nm, seed, hexdigest in per_fixture:
        print(f"  {nm:21s} seed {seed}  {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
