import itertools

import numpy as np
import pytest

from nearex.engine import TRACE_TOL, _dedupe
from nearex.fixtures import load
from nearex.structure import AMBIGUOUS, NEAR_SOLUTION, trace_data, witness_superset


@pytest.fixture
def near_zero_pairs():
    """``pairs(name, seed)``: the witness pairs whose trace is below
    ``TRACE_TOL`` of the scale at the factor detection of ``seed``, as
    ``recover_factor`` detects on its first attempt.

    Which pairs these are depends on the order of the witness points, and
    that order on the BLAS thread count; a test that names the validated
    subset by its indices holds at one thread count only."""
    def pairs(name, seed=0):
        f, _, p_hat, _ = load(name)
        ws = witness_superset(f, np.asarray(p_hat, dtype=complex), 1, seed=seed)
        witness = _dedupe([cp for cp in ws.points if cp.labels & {NEAR_SOLUTION, AMBIGUOUS}])
        td = trace_data(ws.sliced_system, [cp.point for cp in witness], alpha_seed=seed)
        return [list(s) for s in itertools.combinations(range(len(witness)), 2)
                if abs(td.trace(s)) < TRACE_TOL * td.scale]
    return pairs
