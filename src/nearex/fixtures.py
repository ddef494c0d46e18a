"""Benchmark problem families with reference parameter values.

Each fixture provides the parameterized system (as grammar source or a
builder), the nominal parameters ``p_tilde`` where the special structure
holds exactly, a perturbed point ``p_hat``, and the reference recovered
values ``p_star`` used by the regression tests.
"""

from __future__ import annotations

import numpy as np

from .algebra import PARAMETER, VARIABLE, Polynomial, PolySystem, parse_system
from .quaternion import leg_constraint

# -- double root of a univariate quadratic ----------------------------------

DOUBLE_ROOT_SOURCE = """
vars x1;
params p1, p2;
poly x1^2 + p1*x1 + p2;
"""

DOUBLE_ROOT_P_HAT = np.array([2.8284271, 2.0])
# double root of x^2 + p x + 2 nearest to the truncated coefficient
DOUBLE_ROOT_ONE_PARAM = (-1.414213562373095, 2.828427124746190)
# nearest (x, p1, p2) with a double root, both coefficients free
DOUBLE_ROOT_TWO_PARAM = (-1.414213558248730, 2.828427116497461, 1.999999988334534)

# -- one solution escapes to infinity ---------------------------------------

INFINITY_SOURCE = """
vars x1, x2;
params p1, p2, p3;
poly x1^2 + p1*x1 + p2;
poly (x1 + p3)*x2 + 2*x1 - 3;
"""

INFINITY_P_TILDE = np.array([-2.3716, 0.98608803, -0.5377])
INFINITY_P_HAT = np.array([-2.37284227, 0.96067280, -0.53492792])
INFINITY_P_STAR = np.array([-2.36891717, 0.96814820, -0.52506952])

# -- an isolated point degenerates into a line ------------------------------

POSDIM_SOURCE = """
vars x1, x2;
params p1, p2;
poly x1*x2 - 2*x1 + p1*x2 + p2;
poly x1^2 - 2*x1 + p1*x1 + p2;
"""

POSDIM_P_TILDE = np.array([1.0, -2.0])
POSDIM_P_HAT = np.array([0.9876, -2.2542])
POSDIM_P_STAR = np.array([1.0992, -2.1984])

# -- a quartic plane curve that factors into two quadratics -----------------

ZEKE_SOURCE = """
vars x1, x2;
params p1, p2, p3, p4, p5, p6, p7, p8, p9, p10;
poly p1 + p2*x1 + p3*x1^2 + p4*x1^3 + p5*x1*x2 + p6*x1^2*x2 + p7*x1^3*x2
   + p8*x2^2 + p9*x1^2*x2^2 + p10*x1*x2^3;
"""

ZEKE_P_TILDE = np.array([-30.0, 20, 18, -12, 12, -8, 0, -5, 3, 2])
ZEKE_P_HAT = np.array([-30.0, 20, 18, -12, 12.000007, -8, 0.0000003, -5, 3, 2])
ZEKE_P_STAR = np.array([
    -30.0000003, 19.9999994, 18.0000003, -11.9999997, 12.0000057,
    -8.0000019, -0.0000014, -5.0000002, 2.9999992, 2.0000006,
])

# -- a line of multiplicity two ---------------------------------------------

MULTIPLICITY_SOURCE = """
vars x1, x2;
params p1, p2;
poly x1^3 - 2*p1*x1^2 - 2*x1^2 + p1^2*x1 + 4*p1*x1 - p1^2 - p2;
poly x1^2*x2 - 2*x1^2 - 2*p1*x1*x2 + 4*p1*x1 + p1^2*x2 - p1^2 - p2;
"""

MULTIPLICITY_P_TILDE = np.array([1.0, 1.0])
MULTIPLICITY_P_HAT = np.array([1.2346, 1.0089])
MULTIPLICITY_P_STAR = np.array([1.0479, 1.0980])

# -- four-bar linkage coupler curve -----------------------------------------

FOURBAR_SOURCE = """
vars x1, x2, x3, x4;
params p1, p2, p3, p4;
poly x1^2 + x2^2 - p1^2;
poly (x3 - p2)^2 + x4^2 - p3^2;
poly (x1 - x3)^2 + (x2 - x4)^2 - p4^2;
"""

FOURBAR_P_TILDE = np.array([1.0, 2.0, 1.0, 2.0])
FOURBAR_P_HAT = np.array([1.0025, 2.0101, 1.0098, 2.0014])
FOURBAR_P_STAR = np.array([1.0062, 2.0057, 1.0062, 2.0057])

# -- Stewart-Gough platform --------------------------------------------------
# Parameter layout per leg j = 1..6: (a_x, a_y, a_z, b_x, b_y, b_z, d),
# 42 parameters total.  Variables: rotation quaternion (e0 fixed to 1,
# e1, e2, e3) and translation quaternion (g0, g1, g2, g3).

_SG_ROWS = [
    # (tilde, hat, star) per parameter, leg-major order
    (0.0000, 0.000000000251, 0.000000000320),
    (0.0000, 0.000000001013, 0.000000000982),
    (0.0000, 0.000000000980, 0.000000000477),
    (0.0000, -0.000000000200, -0.000000000269),
    (0.0000, -0.000000000637, -0.000000000606),
    (1.5000, 1.499999998979, 1.499999999482),
    (3.2500, 3.249999999891, 3.249999999724),
    (1.0000, 1.000000000136, 1.000000000272),
    (0.0000, -0.000000000753, -0.000000001236),
    (0.2500, 0.249999998300, 0.249999998434),
    (1.0000, 1.000000001806, 1.000000001671),
    (0.0000, -0.000000000886, -0.000000000402),
    (1.0000, 0.999999999658, 0.999999999525),
    (1.5625, 1.562499999151, 1.562499999240),
    (1.0000, 0.999999999712, 0.999999999839),
    (1.0000, 0.999999999733, 0.999999999918),
    (0.0000, 0.000000000109, -0.000000000010),
    (1.0000, 0.999999998769, 0.999999998641),
    (1.0000, 0.999999999125, 0.999999998940),
    (1.5000, 1.499999999413, 1.499999999531),
    (3.2500, 3.250000000389, 3.250000000350),
    (-0.5000, -0.500000000115, -0.499999999750),
    (0.5000, 0.500000000098, 0.500000000171),
    (0.0000, 0.000000000167, 0.000000000893),
    (-0.5000, -0.499999998762, -0.499999999127),
    (0.5000, 0.499999999424, 0.499999999351),
    (1.0000, 1.000000000799, 1.000000000073),
    (2.0000, 2.000000000415, 2.000000000779),
    (0.5000, 0.500000000717, 0.499999999761),
    (1.5000, 1.500000000939, 1.500000000405),
    (0.0000, 0.000000000105, 0.000000000622),
    (0.5000, 0.499999998819, 0.499999999776),
    (1.5000, 1.499999999660, 1.500000000194),
    (1.0000, 0.999999999603, 0.999999999086),
    (2.0000, 1.999999998435, 1.999999998693),
    (-0.2500, -0.250000000190, -0.249999999931),
    (1.2500, 1.249999999364, 1.250000000155),
    (0.2500, 0.250000002270, 0.250000001515),
    (-0.2500, -0.249999999033, -0.249999999292),
    (1.2500, 1.250000001020, 1.250000000228),
    (1.0000, 0.999999999682, 1.000000000437),
    (1.5625, 1.562500000179, 1.562499999676),
]

SG_P_TILDE = np.array([r[0] for r in _SG_ROWS])
SG_P_HAT = np.array([r[1] for r in _SG_ROWS])
SG_P_STAR = np.array([r[2] for r in _SG_ROWS])


def stewart_gough_system():
    """Six leg constraints plus the Study quadric, with e0 fixed to 1.

    Variables: e1, e2, e3, g0, g1, g2, g3 (7).  Parameters: 42 anchor
    coordinates and squared leg lengths, leg-major.
    """
    n_var, n_par = 7, 42
    arity = n_var + n_par

    def var(i):
        return Polynomial.variable(i, arity)

    one = Polynomial.constant(1.0, arity)
    zero = Polynomial.constant(0.0, arity)
    e = (one, var(0), var(1), var(2))
    g = (var(3), var(4), var(5), var(6))
    polys = []
    for j in range(6):
        base = n_var + 7 * j
        a = (zero, var(base), var(base + 1), var(base + 2))
        b = (zero, var(base + 3), var(base + 4), var(base + 5))
        d = var(base + 6)
        q = leg_constraint(e, g, a, b, d)
        polys.append(q[0])
    # Study quadric g.e = 0 with e0 = 1
    polys.append(g[0] * e[0] + g[1] * e[1] + g[2] * e[2] + g[3] * e[3])
    names = ["e1", "e2", "e3", "g0", "g1", "g2", "g3"]
    for j in range(6):
        names += [f"a{j + 1}{c}" for c in "xyz"]
        names += [f"b{j + 1}{c}" for c in "xyz"]
        names += [f"d{j + 1}"]
    roles = [VARIABLE] * n_var + [PARAMETER] * n_par
    return PolySystem(polys, roles, names)


# -- family containing the 6R inverse kinematics problem ---------------------
# Eight quadrics on P^4 x P^4 with homogenizing coordinates x0 and x9,
# dehomogenized on the patches x1 = 1 and x3 = 1.  The 32 coefficients of
# monomials not vanishing at infinity are parameters; the 36 coefficients of
# monomials vanishing on V(x0) u V(x9) are fixed constants.

# coefficient k of row j multiplies the monomial with these variable pairs
_SIXR_MONOMIALS = [
    (1, 3), (1, 4), (2, 3), (2, 4), (5, 7), (5, 8), (6, 7), (6, 8),
    (1, 9), (2, 9), (3, 0), (4, 0), (5, 9), (6, 9), (7, 0), (8, 0), (0, 9),
]

SIXR_CONSTANTS = np.array([
    [7.4052387e-2, -8.3050031e-2, -3.8615960e-1, -7.5526603e-1,
     5.0420168e-1, -1.0916286e0, 0.0, 4.0026384e-1, 4.9207289e-2],
    [-3.7157270e-2, 3.5436895e-2, 8.5383480e-2, 0.0,
     -3.9251967e-2, 0.0, -4.3241927e-1, 0.0, 1.3873009e-2],
    [1.9594662e-1, -1.2280341e0, 0.0, -7.9034219e-2,
     2.6387877e-2, -5.7131429e-2, -1.1628081e0, 1.2587767e0, 2.1625749e0],
    [-2.0816985e-1, 2.6868319e0, -6.9910317e-1, 3.5744412e-1,
     1.2499117e0, 1.4677360e0, 1.1651719e0, 1.0763397e0, -6.9686807e-1],
])

_SIXR_PARAM_ROWS = [
    # (single precision = perturbed, double precision = initial, recovered)
    (-2.4915068e-1, -2.491506811232596e-1, -2.491506848757833e-1),
    (1.6091353e0, 1.609135378745045e0, 1.609135324728055e0),
    (2.7942342e-1, 2.794234261384628e-1, 2.794234123846178e-1),
    (1.4348015e0, 1.434801588307759e0, 1.434801543598025e0),
    (0.0, 0.0, 2.329107073061927e-8),
    (4.0026384e-1, 4.002638420852447e-1, 4.002638399151275e-1),
    (-8.0052768e-1, -8.005276841704895e-1, -8.005276506597172e-1),
    (0.0, 0.0, 1.339330350134300e-8),
    (1.2501635e-1, 1.250163503697273e-1, 1.250163518996785e-1),
    (-6.8660735e-1, -6.866073590276054e-1, -6.866073304900900e-1),
    (-1.1922811e-1, -1.192281166678474e-1, -1.192281095708419e-1),
    (-7.1994046e-1, -7.199404684195284e-1, -7.199404481832083e-1),
    (-4.3241927e-1, -4.324192730334479e-1, -4.324192773933984e-1),
    (0.0, 0.0, 1.358542627603532e-8),
    (0.0, 0.0, -1.039184803095887e-9),
    (-8.6483854e-1, -8.648385460668959e-1, -8.648385383114613e-1),
    (-6.3555007e-1, -6.355500706536143e-1, -6.355500280163283e-1),
    (-1.1571992e-1, -1.157199224063992e-1, -1.157199361445811e-1),
    (-6.6640447e-1, -6.664044734656436e-1, -6.664044436579097e-1),
    (1.1036211e-1, 1.103621115850889e-1, 1.103620867759053e-1),
    (2.9070203e-1, 2.907020322913935e-1, 2.907020211729024e-1),
    (1.2587767e0, 1.258776724480555e0, 1.258776710166779e0),
    (-6.2938836e-1, -6.293883622402776e-1, -6.293883708977084e-1),
    (5.8140406e-1, 5.814040645827871e-1, 5.814040462810132e-1),
    (1.4894773e0, 1.489477341316300e0, 1.489477303748473e0),
    (2.3062341e-1, 2.306234136720304e-1, 2.306233954795566e-1),
    (1.3281073e0, 1.328107307376312e0, 1.328107268535429e0),
    (-2.5864502e-1, -2.586450259957599e-1, -2.586450384436285e-1),
    (1.1651719e0, 1.165171951133394e0, 1.165171916593329e0),
    (-2.6908493e-1, -2.690849358556267e-1, -2.690849292497942e-1),
    (5.3816987e-1, 5.381698717112534e-1, 5.381698714725988e-1),
    (5.8258597e-1, 5.825859755666972e-1, 5.825859575485448e-1),
]

SIXR_P_HAT = np.array([r[0] for r in _SIXR_PARAM_ROWS])
SIXR_P_TILDE = np.array([r[1] for r in _SIXR_PARAM_ROWS])
SIXR_P_STAR = np.array([r[2] for r in _SIXR_PARAM_ROWS])


def sixR_system():
    """Eight quadrics in (x0, x2, x4, x5, x6, x7, x8, x9) after fixing
    x1 = x3 = 1; parameters are the 32 coefficients of monomials that do
    not vanish at infinity.
    """
    var_names = ["x0", "x2", "x4", "x5", "x6", "x7", "x8", "x9"]
    coord = {0: 0, 2: 1, 4: 2, 5: 3, 6: 4, 7: 5, 8: 6, 9: 7}  # x1 = x3 = 1
    n_var = 8
    n_par = 32
    arity = n_var + n_par

    def mono(pair, coeff):
        e = [0] * arity
        for c in pair:
            if c in (1, 3):
                continue
            e[coord[c]] += 1
        return Polynomial({tuple(e): coeff}, arity)

    polys = []
    for j in range(4):
        p = Polynomial.constant(0.0, arity)
        for k in range(8):
            param = Polynomial.variable(n_var + 8 * j + k, arity)
            p = p + param * mono(_SIXR_MONOMIALS[k], 1.0)
        for k in range(8, 17):
            p = p + mono(_SIXR_MONOMIALS[k], SIXR_CONSTANTS[j, k - 8])
        polys.append(p)

    def sq(c):
        if c in (1, 3):
            return Polynomial.constant(1.0, arity)
        return Polynomial.variable(coord[c], arity) ** 2

    polys.append(sq(1) + sq(2) - sq(0))
    polys.append(sq(5) + sq(6) - sq(0))
    polys.append(sq(3) + sq(4) - sq(9))
    polys.append(sq(7) + sq(8) - sq(9))

    names = var_names + [f"a{j}{k}" for j in range(4) for k in range(8)]
    roles = [VARIABLE] * n_var + [PARAMETER] * n_par
    return PolySystem(polys, roles, names)


def load(name):
    """Return (system, p_tilde, p_hat, p_star) for a named fixture."""
    table = {
        "double_root": (parse_system(DOUBLE_ROOT_SOURCE), None,
                        DOUBLE_ROOT_P_HAT, None),
        "infinity_example": (parse_system(INFINITY_SOURCE), INFINITY_P_TILDE,
                             INFINITY_P_HAT, INFINITY_P_STAR),
        "posdim": (parse_system(POSDIM_SOURCE), POSDIM_P_TILDE,
                   POSDIM_P_HAT, POSDIM_P_STAR),
        "zeke_quartic": (parse_system(ZEKE_SOURCE), ZEKE_P_TILDE,
                         ZEKE_P_HAT, ZEKE_P_STAR),
        "multiplicity_line": (parse_system(MULTIPLICITY_SOURCE),
                              MULTIPLICITY_P_TILDE, MULTIPLICITY_P_HAT,
                              MULTIPLICITY_P_STAR),
        "fourbar": (parse_system(FOURBAR_SOURCE), FOURBAR_P_TILDE,
                    FOURBAR_P_HAT, FOURBAR_P_STAR),
        "stewart_gough": (stewart_gough_system(), SG_P_TILDE, SG_P_HAT,
                          SG_P_STAR),
        "sixR": (sixR_system(), SIXR_P_TILDE, SIXR_P_HAT, SIXR_P_STAR),
    }
    if name not in table:
        raise KeyError(f"unknown fixture {name!r}")
    return table[name]
