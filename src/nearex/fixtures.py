"""The shipped problems, with the reference values the regression tests use.

Each problem is defined once, by its file ``fixtures/<name>.json`` in the
repository: the parameterized system, the perturbed point ``p_hat`` and the
nominal point ``p_tilde`` where the special structure holds exactly.  This
module reads those files and adds only the reference recovered values
``p_star``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .problem import ProblemFile

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"

# double root of x^2 + p x + 2 nearest to the truncated coefficient
DOUBLE_ROOT_ONE_PARAM = (-1.414213562373095, 2.828427124746190)
# nearest (x, p1, p2) with a double root, both coefficients free
DOUBLE_ROOT_TWO_PARAM = (-1.414213558248730, 2.828427116497461, 1.999999988334534)

# Reference p* per fixture that load() serves (double_root: see the two
# tuples above).  Stewart-Gough parameters are leg-major (a_x, a_y, a_z, b_x,
# b_y, b_z, d) per leg; 6R parameters are row-major over its four bilinear rows.
P_STAR = {
    "double_root": None,
    "infinity_example": np.array([-2.36891717, 0.96814820, -0.52506952]),
    "posdim": np.array([1.0992, -2.1984]),
    "zeke_quartic": np.array([
        -30.0000003, 19.9999994, 18.0000003, -11.9999997, 12.0000057,
        -8.0000019, -0.0000014, -5.0000002, 2.9999992, 2.0000006,
    ]),
    "multiplicity_line": np.array([1.0479, 1.0980]),
    "fourbar": np.array([1.0062, 2.0057, 1.0062, 2.0057]),
    "stewart_gough": np.array([
        0.000000000320, 0.000000000982, 0.000000000477, -0.000000000269,
        -0.000000000606, 1.499999999482, 3.249999999724, 1.000000000272,
        -0.000000001236, 0.249999998434, 1.000000001671, -0.000000000402,
        0.999999999525, 1.562499999240, 0.999999999839, 0.999999999918,
        -0.000000000010, 0.999999998641, 0.999999998940, 1.499999999531,
        3.250000000350, -0.499999999750, 0.500000000171, 0.000000000893,
        -0.499999999127, 0.499999999351, 1.000000000073, 2.000000000779,
        0.499999999761, 1.500000000405, 0.000000000622, 0.499999999776,
        1.500000000194, 0.999999999086, 1.999999998693, -0.249999999931,
        1.250000000155, 0.250000001515, -0.249999999292, 1.250000000228,
        1.000000000437, 1.562499999676,
    ]),
    "sixR": np.array([
        -2.491506848757833e-1, 1.609135324728055e0, 2.794234123846178e-1,
        1.434801543598025e0, 2.329107073061927e-8, 4.002638399151275e-1,
        -8.005276506597172e-1, 1.339330350134300e-8, 1.250163518996785e-1,
        -6.866073304900900e-1, -1.192281095708419e-1, -7.199404481832083e-1,
        -4.324192773933984e-1, 1.358542627603532e-8, -1.039184803095887e-9,
        -8.648385383114613e-1, -6.355500280163283e-1, -1.157199361445811e-1,
        -6.664044436579097e-1, 1.103620867759053e-1, 2.907020211729024e-1,
        1.258776710166779e0, -6.293883708977084e-1, 5.814040462810132e-1,
        1.489477303748473e0, 2.306233954795566e-1, 1.328107268535429e0,
        -2.586450384436285e-1, 1.165171916593329e0, -2.690849292497942e-1,
        5.381698714725988e-1, 5.825859575485448e-1,
    ]),
}


def _real(values):
    return None if values is None else np.array(values.real)


def load(name):
    """Return (system, p_tilde, p_hat, p_star) for a named fixture.

    The points are real float arrays; ``p_tilde`` and ``p_star`` of
    ``double_root`` are None.
    """
    if name not in P_STAR:
        raise KeyError(f"unknown fixture {name!r}")
    prob = ProblemFile.load(FIXTURE_DIR / f"{name}.json")
    return prob.build_system(), _real(prob.p_tilde), _real(prob.p_hat), P_STAR[name]
