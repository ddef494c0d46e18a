import dataclasses
import importlib.util
import inspect
import json
import pathlib

import numpy as np
import pytest

from nearex.algebra import format_system
from nearex.fixtures import P_STAR
from nearex.problem import OPTIONS, PIPELINES, ProblemError, ProblemFile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "fixtures"

MINIMAL = {
    "system": "vars x; params p1, p2; poly x^2 + p1*x + p2;",
    "p_hat": [2.8284271, 2.0],
    "structure": {"kind": "multiplicity", "dim": 0},
}


def test_minimal_problem_parses():
    prob = ProblemFile.from_dict(MINIMAL)
    assert prob.kind == "multiplicity"
    assert np.array_equal(prob.p_hat, np.array([2.8284271, 2.0], dtype=complex))


def test_missing_fields_raise_problem_error():
    for drop in ("system", "p_hat", "structure"):
        data = {k: v for k, v in MINIMAL.items() if k != drop}
        with pytest.raises(ProblemError):
            ProblemFile.from_dict(data)


def test_unknown_structure_kind_rejected():
    data = dict(MINIMAL, structure={"kind": "mystery"})
    with pytest.raises(ProblemError):
        ProblemFile.from_dict(data)


def test_parameter_count_mismatch_rejected():
    data = dict(MINIMAL, p_hat=[1.0])
    with pytest.raises(ProblemError):
        ProblemFile.from_dict(data)


def test_bad_group_name_rejected():
    data = dict(
        MINIMAL,
        structure={"kind": "infinity", "groups": [["nope"]]},
    )
    with pytest.raises(ProblemError):
        ProblemFile.from_dict(data)


def test_invalid_json_raises_problem_error():
    with pytest.raises(ProblemError):
        ProblemFile.from_json("{not json")
    with pytest.raises(ProblemError):
        ProblemFile.from_json("[1, 2, 3]")


def test_complex_entries_as_pairs():
    data = dict(MINIMAL, p_hat=[[2.8, 0.1], 2.0])
    prob = ProblemFile.from_dict(data)
    assert prob.p_hat[0] == complex(2.8, 0.1)
    with pytest.raises(ProblemError):
        ProblemFile.from_dict(dict(MINIMAL, p_hat=["x", 2.0]))


def test_a_null_optional_field_is_left_out():
    prob = ProblemFile.from_dict(dict(MINIMAL, name=None, p_tilde=None, options=None))
    assert prob == ProblemFile.from_dict(MINIMAL)
    assert prob.options == {} and prob.name == "" and prob.p_tilde is None


def test_every_field_and_option_is_a_keyword_of_its_pipeline():
    for kind, (pipeline, fields) in PIPELINES.items():
        keywords = set(inspect.signature(pipeline).parameters)
        other_kind = "max_components" if kind == "infinity" else "tol_infinity"
        assert set(fields.values()) <= keywords, kind
        assert {OPTIONS[name] for name in OPTIONS if name != other_kind} <= keywords, kind


def test_run_passes_what_the_file_gives_and_nothing_else(monkeypatch):
    calls = []
    pipeline, fields = PIPELINES["multiplicity"]
    monkeypatch.setitem(PIPELINES, "multiplicity", (lambda *a, **kw: calls.append(kw), fields))
    ProblemFile.from_dict(MINIMAL).run()
    ProblemFile.from_dict(dict(MINIMAL, options={"seed": 3, "max_components": 2})).run(
        seed=5, overrides={"tol_rank": 1e-7})
    assert calls == [{"dim_D": 0}, {"dim_D": 0, "seed": 5, "n_trials": 2, "rank_tol": 1e-7}]


def test_round_trip_preserves_equality():
    prob = ProblemFile.from_dict(MINIMAL)
    again = ProblemFile.from_json(prob.to_json())
    assert again == prob


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_fixtures_round_trip(path):
    prob = ProblemFile.load(path)
    again = ProblemFile.from_json(prob.to_json())
    assert again == prob
    # serialization is stable: the shipped file already is the canonical form
    assert prob.to_json() == path.read_text(encoding="utf-8")


def test_derived_fixtures_match_their_derivation():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    for name, build in make_fixtures.DERIVED.items():
        prob = ProblemFile.load(FIXTURE_DIR / f"{name}.json")
        assert format_system(build()) == prob.source, name


@pytest.mark.parametrize("name, p_star, tol", [
    ("double_root", [2.828427116497461, 1.999999988334534], 1e-6),
    ("infinity_example", P_STAR["infinity_example"], 1e-4),
    ("fourbar", P_STAR["fourbar"], 1e-3),
], ids=["double_root", "infinity_example", "fourbar"])
def test_run_dispatches_to_the_kinds_pipeline(name, p_star, tol):
    prob = ProblemFile.load(FIXTURE_DIR / f"{name}.json")
    outcome = prob.run(seed=0)
    assert outcome.structure == prob.kind
    assert outcome.validated
    assert outcome.result.p_star == pytest.approx(p_star, abs=tol)


def test_tol_rank_reaches_every_image_dimension(monkeypatch):
    import nearex.fiberprod

    tols = []
    image_dimension = nearex.fiberprod.image_dimension

    def spy(F, tol):
        tols.append(tol)
        return image_dimension(F, tol=tol)

    monkeypatch.setattr(nearex.fiberprod, "image_dimension", spy)
    prob = ProblemFile.load(FIXTURE_DIR / "posdim.json")
    prob.run(seed=0, overrides={"tol_rank": 3e-7})
    assert tols and all(t == 3e-7 for t in tols)


def test_load_and_run_parse_the_source_once(monkeypatch):
    import nearex.problem

    calls = []
    parse = nearex.problem.parse_system

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(nearex.problem, "parse_system", counted)
    nearex.problem._parse.cache_clear()  # an earlier test may have parsed it
    prob = ProblemFile.load(FIXTURE_DIR / "double_root.json")
    outcome = prob.run(seed=0)
    assert outcome.validated
    # the samples of a study: copies with p_hat replaced, as `nearex study` makes them
    for k in range(5):
        shifted = dataclasses.replace(prob, p_hat=prob.p_hat + 0.01 * (k + 1))
        shifted.run(seed=k)
    assert len(calls) == 1
