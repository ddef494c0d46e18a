import json
import math
import pathlib

import pytest

from nearex.cli import main
from nearex.problem import ProblemFile

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(*args):
    return main([str(a) for a in args])


def test_recover_posdim_exits_zero_and_writes_reports(tmp_path):
    code = run_cli("recover", FIXTURE_DIR / "posdim.json", "--out-dir", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["validated"] is True
    assert doc["structure"] == "positive_dim"
    p_star = [v[0] if isinstance(v, list) else v for v in doc["p_star"]]
    assert p_star[0] == pytest.approx(1.0992, abs=1e-3)
    assert p_star[1] == pytest.approx(-2.1984, abs=1e-3)
    lines = (tmp_path / "points.csv").read_text().strip().split("\n")
    assert lines[0].startswith("index,cluster,labels,residual")
    assert len(lines) > 1
    # every point is clustered, not only the ones a pipeline deduplicated
    clusters = [line.split(",")[1] for line in lines[1:]]
    assert all(c.isdigit() for c in clusters)
    assert clusters[0] == "0"


def test_recover_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("recover", FIXTURE_DIR / "multiplicity_line.json", "--out-dir", a) == 0
    assert run_cli("recover", FIXTURE_DIR / "multiplicity_line.json", "--out-dir", b) == 0
    for name in ("report.json", "points.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_malformed_problem_file_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": "vars x; poly x;"}')
    assert run_cli("recover", bad, "--out-dir", tmp_path) == 1
    assert run_cli("recover", tmp_path / "missing.json") == 1


def test_unknown_flag_is_an_input_error(tmp_path):
    # --tol-residual was once parsed and then ignored; it is no longer a flag
    assert run_cli("recover", FIXTURE_DIR / "posdim.json", "--tol-residual", "1e-3",
                   "--out-dir", tmp_path) == 1
    assert run_cli("recover") == 1  # missing problem argument
    assert run_cli("--help") == 0


@pytest.mark.parametrize("fixture, flag, value", [
    ("infinity_example", "--max-components", 2),
    ("posdim", "--tol-infinity", 1e-3),
], ids=["max-components-on-infinity", "tol-infinity-on-posdim"])
def test_option_of_another_kind_is_rejected(tmp_path, fixture, flag, value):
    problem = FIXTURE_DIR / f"{fixture}.json"
    assert run_cli("recover", problem, flag, value, "--out-dir", tmp_path) == 1
    assert not (tmp_path / "report.json").exists()
    assert run_cli("study", problem, "--n", 1, flag, value,
                   "--out-dir", tmp_path) == 1
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("fixture, flag, value", [
    ("posdim", "--max-components", 0),
    ("multiplicity_line", "--max-components", 0),
    ("multiplicity_line", "--max-components", -2),
    ("posdim", "--tol-rank", 0),
    ("multiplicity_line", "--tol-rank", -0.5),
    ("infinity_example", "--tol-infinity", 0),
    ("infinity_example", "--tol-infinity", -0.5),
    ("posdim", "--tol-rank", "inf"),
    ("infinity_example", "--tol-infinity", "inf"),
    ("multiplicity_line", "--seed", -1),
], ids=["max-components-0-posdim", "max-components-0-multiplicity", "max-components-negative",
        "tol-rank-0", "tol-rank-negative", "tol-infinity-0", "tol-infinity-negative",
        "tol-rank-inf", "tol-infinity-inf", "seed-negative"])
def test_option_out_of_range_is_rejected(tmp_path, fixture, flag, value):
    problem = FIXTURE_DIR / f"{fixture}.json"
    assert run_cli("recover", problem, flag, value, "--out-dir", tmp_path) == 1
    assert not (tmp_path / "report.json").exists()
    assert run_cli("study", problem, "--n", 1, flag, value,
                   "--out-dir", tmp_path) == 1
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("fixture, section, fields", [
    ("posdim", "options", {"max_components": 0}),
    ("posdim", "options", {"tol_rank": 0.0}),
    ("posdim", "options", {"tol_rank": 10 ** 400}),
    ("posdim", "options", {"tol_rank": True}),
    ("infinity_example", "options", {"tol_infinity": 0.0}),
    ("posdim", "options", {"tol_ranks": 1.0}),
    ("posdim", "options", {"seed": 1.5}),
    ("posdim", "structure", {"dimension": 5}),
    ("posdim", "structure", {"dim": 1.7}),
    ("posdim", "structure", {"dim": 2}),
    ("posdim", "structure", {"degree": 0}),
    ("fourbar", "structure", {"dim": 2}),
    ("fourbar", "structure", {"subset_size": 0}),
    ("multiplicity_line", "structure", {"prefix": [1, 2]}),
    ("multiplicity_line", "structure", {"dim": True}),
    ("infinity_example_2hom", "structure", {"groups": [["x1"]]}),
    ("posdim", None, {"p_tidle": [1.1, -2.2]}),
    ("posdim", None, {"options": [1, 2]}),
    ("posdim", None, {"options": "ab"}),
    ("posdim", None, {"system": 3}),
    ("posdim", None, {"p_tilde": 3}),
    ("posdim", None, {"p_hat": [math.inf, -2.2]}),
    ("posdim", None, {"p_hat": [math.nan, -2.2]}),
    ("posdim", None, {"p_hat": [True, -2.2]}),
    ("posdim", None, {"p_tilde": [[1.1, math.inf], -2.2]}),
    ("posdim", None, {"structure": None}),
    ("posdim", None, {"p_hat": 3}),
    ("posdim", None, {"name": 3}),
    ("posdim", None, {"p_tilde": [[1.0, 0.5], -2.0]}),
], ids=["max-components", "tol-rank", "tol-rank-beyond-float", "tol-rank-bool",
        "tol-infinity", "unknown-option", "seed-not-whole",
        "unknown-structure-field", "dim-not-whole", "dim-above-range", "degree-0",
        "factor-dim-2", "subset-size-0", "prefix-1-2", "dim-bool", "groups-not-a-partition",
        "unknown-top-level-field", "options-a-list", "options-a-string", "system-a-number",
        "p-tilde-a-number", "p-hat-infinite", "p-hat-nan", "p-hat-bool",
        "p-tilde-pair-infinite", "structure-null", "p-hat-a-number", "name-a-number",
        "p-tilde-complex"])
def test_option_out_of_range_in_the_file_is_rejected(tmp_path, capsys, fixture, section,
                                                     fields):
    doc = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())
    (doc if section is None else doc[section]).update(fields)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # rejected on loading, before any detection and before any output, by a
    # message that names the field
    assert run_cli("recover", problem, "--out-dir", out) == 1
    assert all(key in capsys.readouterr().err for key in fields)
    assert run_cli("study", problem, "--n", 3, "--out-dir", out) == 1
    assert not out.exists()


@pytest.mark.parametrize("fixture, equations, structure", [
    ("fourbar", "repeat-first", None),
    ("fourbar", "drop-last", None),
    ("infinity_example", "repeat-first", None),
    ("infinity_example", "drop-last", None),
    ("multiplicity_line", "drop-last", {"kind": "multiplicity", "dim": 0}),
    ("fourbar", "drop-last", {"kind": "positive_dim", "dim": 1}),
], ids=["factor-too-many", "factor-too-few", "infinity-too-many", "infinity-too-few",
        "multiplicity-too-few", "positive-dim-too-few"])
def test_equation_count_out_of_range_in_the_file_is_rejected(tmp_path, capsys, fixture,
                                                            equations, structure):
    """infinity needs n equations, factor n − dim, positive_dim and
    multiplicity at least n − dim: the first ``poly`` repeated or the last
    dropped is rejected on loading, like a field out of range."""
    doc = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())
    lines = doc["system"].splitlines()
    polys = [ln for ln in lines if ln.startswith("poly")]
    polys = polys[:1] + polys if equations == "repeat-first" else polys[:-1]
    doc["system"] = "\n".join([ln for ln in lines if not ln.startswith("poly")] + polys)
    doc["structure"] = structure or doc["structure"]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("recover", problem, "--out-dir", out) == 1
    assert "equations" in capsys.readouterr().err
    assert run_cli("study", problem, "--n", 3, "--out-dir", out) == 1
    assert not out.exists()


def test_a_stabilization_failure_is_reported_and_exits_two(tmp_path, monkeypatch):
    import nearex.fiberprod

    def fail(*args):
        raise RuntimeError("slice-moving homotopy failed: step-failure")

    monkeypatch.setattr(nearex.fiberprod, "move_to_slice", fail)
    assert run_cli("recover", FIXTURE_DIR / "zeke_quartic.json", "--out-dir", tmp_path) == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "stabilization-failed" and doc["validated"] is False
    assert "slice-moving homotopy failed: step-failure" in doc["detail"]


@pytest.mark.parametrize("command, fixture, flag", [
    ("recover", "posdim", "--tol-rank"),
    ("recover", "infinity_example", "--tol-infinity"),
    ("study", "posdim", "--sigma"),
], ids=["tol-rank", "tol-infinity", "sigma"])
def test_negative_value_in_exponent_form_reaches_the_range_check(tmp_path, capsys, command,
                                                                 fixture, flag):
    problem = FIXTURE_DIR / f"{fixture}.json"
    assert run_cli(command, problem, flag, "-1e-6", "--out-dir", tmp_path) == 1
    assert "must be a positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_seed_override_changes_nothing_essential(tmp_path):
    # a different seed still recovers the same parameter point
    code = run_cli("recover", FIXTURE_DIR / "posdim.json", "--seed", 5,
                   "--out-dir", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    p_star = [v[0] if isinstance(v, list) else v for v in doc["p_star"]]
    assert p_star[0] == pytest.approx(1.0992, abs=1e-3)


def test_study_single_sample_writes_one_row(tmp_path):
    code = run_cli("study", FIXTURE_DIR / "posdim.json", "--n", 1,
                   "--sigma", 0.05, "--out-dir", tmp_path)
    assert code == 0
    lines = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header + one sample
    assert lines[0] == "sample,status,p_hat1,p_hat2,p_star1,p_star2,distance,chi2stat"
    hist = json.loads((tmp_path / "hist.json").read_text())
    assert "bin_edges" in hist and "coordinates" in hist


@pytest.mark.parametrize("sigma", ["0", "-0.1", "inf", "nan"])
def test_study_rejects_a_sigma_that_is_not_positive_and_finite(tmp_path, sigma):
    out = tmp_path / "out"
    assert run_cli("study", FIXTURE_DIR / "posdim.json", "--n", 2, "--sigma", sigma,
                   "--out-dir", out) == 1
    assert not out.exists()


def test_study_requires_nominal_point(tmp_path):
    prob = tmp_path / "nop.json"
    text = (FIXTURE_DIR / "double_root.json").read_text()
    assert '"p_tilde"' not in text
    prob.write_text(text)
    assert run_cli("study", prob, "--n", 1, "--out-dir", tmp_path) == 1


def test_study_with_a_null_seed_runs_as_without_it(tmp_path):
    # a null option is left out: the study draws at the default seed 0
    doc = json.loads((FIXTURE_DIR / "posdim.json").read_text())
    doc["options"]["seed"] = None
    problem = tmp_path / "null-seed.json"
    problem.write_text(json.dumps(doc))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("study", problem, "--n", 3, "--out-dir", a) == 0
    assert run_cli("study", FIXTURE_DIR / "posdim.json", "--n", 3, "--out-dir", b) == 0
    assert (a / "study.csv").read_bytes() == (b / "study.csv").read_bytes()


def test_study_whose_every_sample_errors_exits_2_and_names_the_error(tmp_path, monkeypatch,
                                                                      capsys):
    def raising(*args, **kwargs):
        raise RuntimeError("no recovery")
    monkeypatch.setattr(ProblemFile, "run", raising)
    assert run_cli("study", FIXTURE_DIR / "posdim.json", "--n", 3, "--out-dir", tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == "0/3 samples recovered\n"
    assert "the first a RuntimeError: no recovery" in err
    rows = (tmp_path / "study.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[1] for row in rows] == ["error: RuntimeError"] * 3
    assert (tmp_path / "hist.json").exists()


def test_study_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run_cli("study", FIXTURE_DIR / "posdim.json", "--n", 3,
                       "--sigma", 0.1, "--out-dir", d) == 0
    for name in ("study.csv", "hist.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
