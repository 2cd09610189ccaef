import json
from pathlib import Path

import pytest
from jsonschema import validate

from cartaneds import cli, pfaffian
from cartaneds.cli import fixture_text, main
from cartaneds.exterior import CoframeDegenerate
from cartaneds.pfaffian import NotLinearPfaffian
from cartaneds.problems import parse_problem
from cartaneds.report import analyze, emit
from cartaneds.scalars import AllSamplesDegenerate

FIXDIR = Path(__file__).resolve().parent.parent / "src" / "cartaneds" / "fixtures"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "cartaneds" / "schema"
     / "report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_involutive_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "integrability.prob"))
    assert code == 0
    assert "verdict: involutive" in out
    assert "fiber: Zu_z = 0" in out


def test_analyze_empty_locus_exit_one(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "inconsistent.prob"))
    assert code == 1
    assert "verdict: empty" in out


def test_out_into_missing_directory_exit_73(capsys, tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("analyze ran before the --out directory was checked")
    monkeypatch.setattr(cli, "analyze", must_not_run)
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "analyze", str(FIXDIR / "affine.prob"),
                             "--out", str(target))
    assert code == 73
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_out_write_failure_exit_73(capsys, tmp_path):
    # the directory exists, but the path names a directory, not a file
    code, out, err = run_cli(capsys, "analyze", str(FIXDIR / "affine.prob"),
                             "--out", str(tmp_path))
    assert code == 73
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


NONLINEAR_PROBLEM = """name = nonlinear

[chart]
independent = x1 x2
field = y1 y2 y3

[forms]
theta = y3*d(y1)/\\d(y2)

[lepage]
mode = explicit
"""


def test_nonlinear_hamilton_equation_exit_2(capsys, tmp_path):
    path = tmp_path / "nonlinear.prob"
    path.write_text(NONLINEAR_PROBLEM)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("nonlinear constraint: ") and err.count("\n") == 1


def test_vacuous_lepage_exit_65(capsys):
    code, _, err = run_cli(capsys, "analyze", str(FIXDIR / "vacuous-lepage.prob"))
    assert code == 65
    assert "vertical degree 2" in err and "vacuous" in err


def test_parse_error_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("name = b\n[chart]\nfield = u\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 65
    assert "independent" in err


def test_usage_exit_64(capsys):
    assert main(["analyze"]) == 64
    assert main(["bogus"]) == 64


@pytest.mark.parametrize("flag", ["--max-prolong", "--max-steps"])
def test_budget_below_one_exit_64(capsys, flag):
    # exit 1 would read as the empty-locus verdict
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "maxwell.prob"), flag, "0")
    assert code == 64
    assert "verdict" not in out


@pytest.mark.parametrize("err", [
    AllSamplesDegenerate("every sample point hit a vanishing denominator"),
    ArithmeticError("Cartan inequality violated: rank sampling failed"),
    CoframeDegenerate("coframe coefficient matrix is not of full rank"),
    NotLinearPfaffian("pi/\\pi term"),
    RuntimeError("prolongation coordinate u_x collides with the chart"),
], ids=lambda e: type(e).__name__)
def test_internal_error_exit_70(capsys, monkeypatch, err):
    def fail(*args, **kwargs):
        raise err
    monkeypatch.setattr(pfaffian, "prolongation_dim", fail)
    code, out, errout = run_cli(capsys, "analyze", str(FIXDIR / "integrability.prob"))
    assert code == 70
    assert out == ""
    assert errout.startswith("error: ") and errout.count("\n") == 1


@pytest.mark.parametrize("metric, size", [("diag(-1,1,1)", 3), ("diag(-1,1,1,1,1)", 5)])
def test_metric_size_mismatch_exit_65(tmp_path, capsys, metric, size):
    # a short metric used to crash with a KeyError traceback (exit 1, the
    # empty-locus code); a long one silently rescaled eta
    bad = tmp_path / "maxwell.prob"
    bad.write_text(fixture_text("maxwell").replace("diag(-1,1,1,1)", metric))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 65
    assert out == ""
    assert f"metric has {size} diagonal entries for 4 independent" in err


GRIFFITHS_PROBLEM = """name = g
[chart]
independent = x y
field = u
jet = u : u_x u_y
[forms]
lagrangian = u_x^2
generator = th : d(u) - u_x*d(x) - u_y*d(y)
[lepage]
mode = griffiths
multiplier = th : p*d(x)
"""


@pytest.mark.parametrize("text, message", [
    ("name = e\n[chart]\nindependent = x y\nfield = u\n[forms]\nlagrangian = u\n"
     "[lepage]\nmode = explicit\n", "mode = explicit requires a theta"),
    (fixture_text("maxwell").replace("g[i,j]*g[k,l]", "g[5,5]*g[k,l]"),
     "g indices must lie in 1..m"),
    (fixture_text("maxwell").replace("P[i,j]*eta[i,j])", "P[i,j)"),
     "expected ',' or ']' in index list"),
    (GRIFFITHS_PROBLEM.replace("p*d(x)", "g*d(x)"), "undeclared name 'g'"),
    (GRIFFITHS_PROBLEM.replace("p*d(x)", "p*d(x) + d(p)"), "d() of a new multiplier name"),
    (fixture_text("saunders").replace("w_x*d(x) - w_y*d(y)", "w_x*d(x) - w_y"),
     "cannot add a 0-form to a 1-form (line 16, col 17)"),
    (fixture_text("sundermeyer").replace("= 1/2*v1^2", "= (alpha-1)^-2*v1 + 1/2*v1^2"),
     "division by zero (line 12, col 10)"),
    (fixture_text("sundermeyer").replace("= 1/2*v1^2", "= (q1-q1)^-1 + 1/2*v1^2"),
     "division by zero (line 12, col 8)"),
], ids=["explicit-without-theta", "metric-index-out-of-range",
        "unclosed-multiplier-index", "multiplier-uses-builtin", "multiplier-differential",
        "generator-mixes-form-degrees", "zero-parameter-to-negative-power",
        "zero-to-negative-power"])
def test_malformed_input_exit_65(tmp_path, capsys, text, message):
    # the first three, the last but two and the last two used to escape as
    # KeyError/IndexError/ValueError/DomainError (exit 70)
    bad = tmp_path / "bad.prob"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_problem_file_exit_65(tmp_path, capsys, kind):
    # both used to escape as IsADirectoryError/UnicodeDecodeError (exit 70)
    path = tmp_path / "bad.prob"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(fixture_text("maxwell").encode("utf-8") + b"# \xff\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 65
    assert out == ""
    assert err.startswith(f"error: cannot read problem file {path}: ") and err.count("\n") == 1


TORSION_X_PROBLEM = """[chart]
independent = x y
field = u
[forms]
lagrangian = 0
generator = th1 : d(u)/\\d(y)
generator = th2 : d(u)/\\d(x) - (1/2)*x^2*d(x)/\\d(y)
[lepage]
mode = griffiths
multiplier = th1 : p1
multiplier = th2 : p2
"""


def test_torsion_among_independents_is_empty_exit_1(tmp_path, capsys):
    # the essential torsion x = 0 relates the independents alone, so no
    # integral manifold exists; it used to be carried as a zero-form that
    # came back unchanged until max_steps ran out (exit 3)
    path = tmp_path / "torsion.prob"
    path.write_text(TORSION_X_PROBLEM)
    rep = analyze(parse_problem(TORSION_X_PROBLEM))
    assert rep.verdict == "empty"
    assert [s["kind"] for s in rep.steps] == ["empty_locus"]
    assert rep.steps[0]["base_constraints"] == ["x"]
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "verdict: empty" in out


@pytest.mark.parametrize("lagrangian, lo_hi, message", [
    ("sum(i : u_x u_y)", "1 2", "expected ')', found 'u_y'"),
    ("sum(i : u_x^2)", "2 1", "range must be non-empty"),
], ids=["sum-body-trailing-input", "empty-range"])
def test_sum_body_and_range_errors_exit_65(tmp_path, capsys, lagrangian, lo_hi, message):
    # a sum body is one expression: its trailing input used to be dropped
    text = GRIFFITHS_PROBLEM.replace("field = u", f"field = u\nrange = i : {lo_hi}")
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace("lagrangian = u_x^2", f"lagrangian = {lagrangian}"))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_unexpected_exception_exit_70(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise KeyError((1, 4))
    monkeypatch.setattr(cli, "analyze", fail)
    code, out, err = run_cli(capsys, "analyze", str(FIXDIR / "integrability.prob"))
    assert code == 70
    assert out == ""
    assert err == "error: KeyError: (1, 4)\n"


def test_budget_exceeded_exit_three(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "strong-integrability.prob"),
                           "--max-prolong", "1")
    assert code == 3
    assert "verdict: budget_exceeded" in out


def test_param_override_and_structured_out(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "analyze", str(FIXDIR / "sundermeyer.prob"),
                         "--param", "alpha=0", "--param", "beta=0",
                         "--format", "structured", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    validate(payload, SCHEMA)
    assert payload["problem"]["params"] == {"alpha": "0", "beta": "0"}
    assert payload["verdict"] == "involutive"


def test_param_named_like_a_coordinate_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text(fixture_text("sundermeyer").replace("beta = 2", "beta = 2\nq1 = 3"))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 65
    assert out == ""
    assert "chart names must be unique across independents, dependents and parameters" in err


def test_param_named_like_a_later_coordinate_is_substituted(tmp_path, capsys):
    # Zq1_t is a Grassmann coordinate of the analysis, not of the problem
    # chart; the parameter is substituted at parse time and the analysis runs
    path = tmp_path / "extra.prob"
    path.write_text(fixture_text("sundermeyer").replace("beta = 2", "beta = 2\nZq1_t = 3"))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    _, want, _ = run_cli(capsys, "analyze", str(FIXDIR / "sundermeyer.prob"))
    assert code == 0
    assert "params: Zq1_t=3, alpha=1, beta=2" in out
    assert out.split("seed:", 1)[1] == want.split("seed:", 1)[1]


def test_analyze_multiple_files(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "integrability.prob"),
                           str(FIXDIR / "affine.prob"))
    assert code == 0
    assert out.count("verdict: involutive") == 2


def test_fixtures_list(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "list")
    assert code == 0
    for name in ("maxwell", "saunders", "sundermeyer [alpha=0 beta=0]"):
        assert name in out


def test_emission_is_byte_identical():
    for name in ("sundermeyer", "affine"):
        doc1 = parse_problem(fixture_text(name))
        doc2 = parse_problem(fixture_text(name))
        a = emit(analyze(doc1), "structured")
        b = emit(analyze(doc2), "structured")
        assert a == b
        assert emit(analyze(doc1), "text") == emit(analyze(doc2), "text")


def test_structured_round_trip_and_schema():
    doc = parse_problem(fixture_text("saunders"))
    rep = analyze(doc)
    data = emit(rep, "structured")
    payload = json.loads(data)
    validate(payload, SCHEMA)
    assert payload["steps"] == rep.steps
    assert payload["verdict"] == rep.verdict
    assert payload["final_generators"] == rep.final_generators
    assert list(payload) == ["problem", "seed", "verdict", "steps", "final_generators"]


def test_timing_not_emitted():
    doc = parse_problem(fixture_text("affine"))
    rep = analyze(doc)
    assert b"timing" not in emit(rep, "structured")
    assert b"timing" not in emit(rep, "text")


def test_empty_ladder_structured_steps():
    doc = parse_problem(fixture_text("inconsistent"))
    rep = analyze(doc)
    payload = json.loads(emit(rep, "structured"))
    assert payload["steps"] == []
    assert payload["verdict"] == "empty"


def test_byte_identity_across_processes():
    # hash randomization must not leak into emission order
    import subprocess, sys, os
    cmd = [sys.executable, "-m", "cartaneds.cli", "analyze",
           str(FIXDIR / "saunders.prob"), "--format", "structured"]
    outs = []
    # the child imports the same package as this process, installed or not
    path = os.pathsep.join(filter(None, [str(FIXDIR.parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_seed_flag_overrides_run_section(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "analyze", str(FIXDIR / "affine.prob"),
                         "--seed", "99", "--format", "structured", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["seed"] == 99


def test_fixtures_run_smoke(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "run")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all("involutive" in l for l in lines)
    assert "maxwell: involutive" in out
