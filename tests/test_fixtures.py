"""Golden regressions for the bundled fixtures: step kinds, reported
character trails, and metric and seed independence of the rank
computations."""

from fractions import Fraction

import pytest

from cartaneds.cli import fixture_text
from cartaneds.pfaffian import cartan_characters, prolongation_dim, structure_equations
from cartaneds.problems import parse_problem
from cartaneds.report import analyze


def trail(rep):
    return [(s["kind"], tuple(s["characters"])) for s in rep.steps]


GOLDEN = {
    ("sundermeyer", (("alpha", 1), ("beta", 2))): [
        ("zero_forms", ()), ("zero_forms", ()), ("zero_forms", ()),
        ("involutive", (0,))],
    ("sundermeyer", (("alpha", 1), ("beta", 1))): [
        ("zero_forms", ()), ("involutive", (1,))],
    ("sundermeyer", (("alpha", 0), ("beta", 1))): [
        ("zero_forms", ()), ("zero_forms", ()), ("zero_forms", ()),
        ("involutive", (0,))],
    ("sundermeyer", (("alpha", 0), ("beta", 0))): [
        ("zero_forms", ()), ("involutive", (1,))],
    ("maxwell", ()): [
        ("zero_forms", ()), ("torsion", (10, 9, 7, 4)), ("involutive", (10, 9, 6, 1))],
    ("integrability", ()): [
        ("torsion", (3, 2, 1)), ("involutive", (2, 2, 1))],
    ("strong-integrability", ()): [
        ("torsion", (7, 6, 5)), ("prolongation", (7, 5, 2)),
        ("torsion", (13, 5, 2)), ("prolongation", (12, 5, 2)),
        ("torsion", (17, 6, 2)), ("prolongation", (16, 6, 2)),
        ("involutive", (22, 7, 2))],
    ("field-prolongation", ()): [
        ("zero_forms", ()), ("zero_forms", ()), ("zero_forms", ()),
        ("torsion", (6, 5, 5)), ("prolongation", (6, 3, 1)),
        ("torsion", (10, 3, 1)), ("torsion", (9, 3, 1)),
        ("prolongation", (9, 2, 1)), ("torsion", (11, 2, 1)),
        ("involutive", (11, 1, 1))],
    ("affine", ()): [
        ("zero_forms", ()), ("involutive", (5, 5))],
    ("saunders", ()): [
        ("zero_forms", ()), ("torsion", (4, 5)), ("zero_forms", ()),
        ("involutive", (2, 2))],
}


@pytest.fixture(scope="module")
def reports():
    """Each fixture case analyzed once, shared by the tests of this module."""
    cache = {}

    def get(name, params):
        if (name, params) not in cache:
            doc = parse_problem(fixture_text(name),
                                param_overrides={k: Fraction(v) for k, v in params})
            cache[(name, params)] = analyze(doc)
        return cache[(name, params)]
    return get


@pytest.mark.parametrize("name,params", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_ladder_trails(reports, name, params):
    rep = reports(name, params)
    assert rep.verdict == "involutive"
    assert trail(rep) == GOLDEN[(name, params)]


@pytest.mark.parametrize("name,params", sorted(GOLDEN), ids=lambda v: str(v))
def test_final_ranks_do_not_depend_on_seed(reports, name, params):
    rep = reports(name, params)
    se = structure_equations(rep.ladder.final_system)
    seen = {(cartan_characters(se, seed, flag="coordinate").s,
             cartan_characters(se, seed, flag="generic").s,
             prolongation_dim(se)) for seed in range(21)}
    assert len(seen) == 1
    (coordinate, _, _), = seen
    assert coordinate == tuple(rep.steps[-1]["characters"])


@pytest.mark.parametrize("metric", ["diag(-1,1,1,1)", "diag(1,1,1,1)", "diag(-1,1,1,-4)"])
def test_maxwell_characters_are_metric_independent(metric):
    text = fixture_text("maxwell").replace("diag(-1,1,1,1)", metric)
    rep = analyze(parse_problem(text))
    assert rep.verdict == "involutive"
    assert [tuple(s["characters"]) for s in rep.steps if s["characters"]] == \
        [(10, 9, 7, 4), (10, 9, 6, 1)]
