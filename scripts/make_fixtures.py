"""Regenerate the two derived problem files from their kinematic derivations.

Every problem in ``fixtures/`` is defined by its JSON file.  Seven of them
are written by hand; the systems of ``stewart_gough.json`` and ``sixR.json``
are derived here, the first from Study coordinates of the platform and the
second from the eight quadrics of the 6R inverse kinematics family.  The
script rewrites only the ``system`` field of those two files and keeps their
``p_hat``, ``p_tilde``, ``structure`` and ``options``.

Usage:
    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nearex.algebra import (  # noqa: E402
    PARAMETER,
    VARIABLE,
    Polynomial,
    PolySystem,
    format_system,
)
from nearex.problem import ProblemFile  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


# -- quaternions over polynomial entries --------------------------------------
# A quaternion is a length-4 tuple (q0, q1, q2, q3) of objects that support
# +, - and *, here Polynomials.


def qmul(a, b):
    """Hamilton product a * b."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qconj(a):
    a0, a1, a2, a3 = a
    return (a0, -a1, -a2, -a3)


def leg_constraint(e, g, a, b, d):
    """Squared-distance constraint of one platform leg in Study coordinates.

    ``e`` and ``g`` are quaternions (rotation and translation part of a dual
    quaternion), ``a`` and ``b`` are pure quaternions for the anchor points,
    and ``d`` is the squared leg length.  The vector parts of the terms cancel
    in conjugate pairs, so the scalar component carries the whole constraint.
    """
    ec, gc = qconj(e), qconj(g)
    ac, bc = qconj(a), qconj(b)
    aa = qmul(a, ac)[0]
    bb = qmul(b, bc)[0]
    terms = [
        tuple((aa + bb - d) * c for c in qmul(e, ec)),
        tuple(-c for c in qmul(qmul(qmul(e, b), ec), ac)),
        tuple(-c for c in qmul(qmul(qmul(a, e), bc), ec)),
        qmul(qmul(g, bc), ec),
        qmul(qmul(e, b), gc),
        tuple(-c for c in qmul(qmul(g, ec), ac)),
        tuple(-c for c in qmul(qmul(a, e), gc)),
        qmul(g, gc),
    ]
    total = terms[0]
    for t in terms[1:]:
        total = tuple(x + y for x, y in zip(total, t))
    return total


# -- Stewart-Gough platform ----------------------------------------------------
# Parameter layout per leg j = 1..6: (a_x, a_y, a_z, b_x, b_y, b_z, d),
# 42 parameters total.  Variables: rotation quaternion (e0 fixed to 1,
# e1, e2, e3) and translation quaternion (g0, g1, g2, g3).


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
SIXR_MONOMIALS = [
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
            p = p + param * mono(SIXR_MONOMIALS[k], 1.0)
        for k in range(8, 17):
            p = p + mono(SIXR_MONOMIALS[k], SIXR_CONSTANTS[j, k - 8])
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


# problem file name -> the function that derives its system
DERIVED = {"stewart_gough": stewart_gough_system, "sixR": sixR_system}


def main():
    for name, build in DERIVED.items():
        path = OUT / f"{name}.json"
        prob = ProblemFile.load(path)
        prob.source = format_system(build())
        reloaded = ProblemFile.from_dict(prob.to_dict())  # validate before writing
        path.write_text(reloaded.to_json(), encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()
