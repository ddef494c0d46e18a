import numpy as np
import pytest

from nearex.algebra import PARAMETER, parse_system
from nearex.fiberprod import (
    FiberProductSystem,
    build_hilbert_condition,
    build_trace_condition,
    build_witness_condition,
    image_dimension,
    stabilize,
)
from nearex.fixtures import load
from nearex.structure import witness_superset


def posdim_detection(seed=0):
    f, _, p_hat, _ = load("posdim")
    p_hat = np.asarray(p_hat, dtype=complex)
    ws = witness_superset(f, p_hat, 1, seed=seed)
    cands = sorted(
        (cp for cp in ws.points if np.all(np.isfinite(cp.point))),
        key=lambda cp: cp.residual_full_system,
    )
    return f, p_hat, ws, cands


# -- condition builders ------------------------------------------------------


def test_witness_condition_start_block_nearly_satisfies_it():
    f, p_hat, ws, cands = posdim_detection()
    comp = build_witness_condition(f, 1, [cands[0]], seed=5, detection=ws)
    full = np.concatenate([comp.start_block, p_hat])
    # f(x; p_hat) is only nearly zero (p_hat is perturbed) but the fresh
    # slice rows hold exactly, since the start point was tracked onto them
    res = comp.system.evaluate(full)
    assert abs(res[-1]) < 1e-8  # the slice row
    assert np.linalg.norm(res) < 1.0  # near-solution residual scale


def test_trace_condition_requires_square_curve_setup():
    f, p_hat, ws, cands = posdim_detection()
    square = f.with_polynomials(f.polynomials + f.polynomials[:1])
    with pytest.raises(ValueError, match="n-1"):
        build_trace_condition(square, cands[:1], seed=0, p_hat=p_hat, detection=ws)
    with pytest.raises(ValueError):
        build_trace_condition(f, [], seed=0, p_hat=p_hat, detection=ws)


def test_hilbert_condition_restricted_to_multiplicity_two():
    f, _, p_hat, _ = load("multiplicity_line")
    p_hat = np.asarray(p_hat, dtype=complex)
    ws = witness_superset(f, p_hat, 1, seed=0)
    sliced = ws.parameterized
    cand = min(ws.points, key=lambda cp: cp.residual_full_system)
    comp = build_hilbert_condition(sliced, cand, seed=0, p_hat=p_hat)
    n = len(sliced.indices("variable", "auxiliary"))
    assert comp.block_size == n + (n - 1)  # point plus null-vector auxiliaries


# -- fiber products ----------------------------------------------------------


def test_fiber_product_shares_the_parameter_block():
    f, p_hat, ws, cands = posdim_detection()
    c1 = build_witness_condition(f, 1, [cands[0]], seed=1, detection=ws)
    c2 = build_witness_condition(f, 1, [cands[0]], seed=2, detection=ws)
    F = FiberProductSystem([c1, c2], p_hat)
    assert F.n_parameters == 2
    assert F.n_block_unknowns == c1.block_size + c2.block_size
    assert F.system_size() == F.n_equations + F.n_block_unknowns + 2
    sp = F.start_point()
    assert np.array_equal(sp[F.param_indices()], p_hat)


def test_image_dimension_single_witness_condition():
    f, p_hat, ws, cands = posdim_detection()
    c1 = build_witness_condition(f, 1, [cands[0]], seed=1, detection=ws)
    F = FiberProductSystem([c1], p_hat)
    dim, pt = image_dimension(F)
    assert dim == 1  # one witness condition cuts the parameter plane to a curve
    assert np.linalg.norm(F.full_system.evaluate(pt)) < 1e-8


def test_image_dimension_is_monotone_under_appends():
    f, p_hat, ws, cands = posdim_detection()
    prev = None
    comps = []
    for k in range(3):
        comps.append(build_witness_condition(f, 1, [cands[0]], seed=k, detection=ws))
        F = FiberProductSystem(list(comps), p_hat)
        dim, _ = image_dimension(F)
        if prev is not None:
            assert dim <= prev
        prev = dim


# -- stabilization -----------------------------------------------------------


@pytest.mark.parametrize("cumulative", [True, False], ids=["cumulative", "non-cumulative"])
def test_stabilize_cumulative_records_growing_sizes(cumulative):
    f, p_hat, ws, cands = posdim_detection()

    def builder(cand, seed):
        return build_witness_condition(f, 1, [cands[0]], seed=seed, detection=ws)

    stab = stabilize(builder, range(3), p_hat,
                     stop_on_plateau=False, cumulative=cumulative)
    assert len(stab.dims) == 3
    # dimension stabilizes at 1 (the exceptional line) and the product keeps
    # only the shortest prefix achieving it
    assert stab.dims[-1] == stab.dims[-2]
    if cumulative:
        # every tried copy stays in the assembly while scanning
        assert stab.sizes == [7, 12, 17]
        assert len(stab.fiber_product.components) <= 2
    else:
        # a copy that does not drop the dimension is discarded before the next
        assert stab.sizes == [7, 12, 12]
        assert stab.accepted == [True, False, False]
        assert len(stab.fiber_product.components) == 1


def test_stabilize_plateau_stops_early():
    f, p_hat, ws, cands = posdim_detection()
    calls = []

    def builder(cand, seed):
        calls.append(cand)
        return build_witness_condition(f, 1, [cands[0]], seed=seed, detection=ws)

    stab = stabilize(builder, range(5), p_hat,
                     stop_on_plateau=True, cumulative=True)
    assert len(calls) < 5
    assert stab.dims[-1] == stab.dims[-2]


def test_stabilize_requires_candidates():
    f, p_hat, ws, cands = posdim_detection()
    with pytest.raises(ValueError):
        stabilize(lambda c, s: None, [], p_hat)


def test_stabilize_seeds_are_deterministic():
    f, p_hat, ws, cands = posdim_detection()
    seeds = []

    def builder(cand, seed):
        seeds.append(seed)
        return build_witness_condition(f, 1, [cands[0]], seed=seed, detection=ws)

    stabilize(builder, range(2), p_hat, seed=7,
              stop_on_plateau=False, cumulative=True)
    assert seeds == [7 + 1000, 7 + 2000]
