"""Golden regressions for the bundled fixtures: step kinds, reported
character trails, report bytes, and metric and seed independence of the
rank computations."""

import hashlib
from fractions import Fraction

import pytest

from cartaneds import ladder, scalars
from cartaneds.cli import FIXTURE_CASES, FIXTURE_NAMES, fixture_text
from cartaneds.hamilton import DegreeMismatch
from cartaneds.pfaffian import cartan_characters, prolongation_dim, structure_equations
from cartaneds.problems import parse_problem
from cartaneds.report import analyze, emit
from cartaneds.scalars import ZERO, Scalar, solve_linear


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


# sha256 of emit(rep, "text") + emit(rep, "structured") for each fixture case
# at the file's seed and at seeds 1 and 3
REPORT_SEEDS = (None, 1, 3)
REPORT_DIGESTS = {
    ("sundermeyer", "alpha=1 beta=2"): (
        "7999603b9eaa219fea630472a5edfb15abe731decae3cb0d47249024297f1369",
        "43ffad0acfd5a167e67661660a88e8255a39e37de686679eb67e63c6c974a881",
        "a38bc807e5c50585d6de6243bbea2fe5084a350f2cecc6aba685246cac29afcb",
    ),
    ("sundermeyer", "alpha=1 beta=1"): (
        "f0618cfa13385556365ed20d07e0abeddfb0dff9baaa049b2195a65a228d81ef",
        "f04988208ccb01ef4aa392105f8d1be97a7d3f7bb0ab5f91167cab3942b25648",
        "71cb9a8d0d04bb304a2f83ef16bd86bafabb219be9cc8e12ba096611750c2e25",
    ),
    ("sundermeyer", "alpha=0 beta=1"): (
        "857df7195a7d2f112a8aa384ff805435bb283221e66de2b158376d3519f0acc6",
        "94b206c2ff13119e45234254798536b7f17ec5a0ef43e740d0b44c794d3f7d3d",
        "46c03a8b7da124de6f46eec90f03629862bf6b7081eec2e09166bde5ba10c5d7",
    ),
    ("sundermeyer", "alpha=0 beta=0"): (
        "d86de2c843a62cc9e50e696ee9cafb3ec72de604b0ccfb9881c60fe48dbddbf6",
        "809963ae756210aa662d2a8965394ec2ce665acbdaadeab028583bd7e152b404",
        "88f4a8770f98ef7ccad25cbba047ab8fc61fa2715d18eee9872e0beae3afb029",
    ),
    ("maxwell", ""): (
        "826cbf8f465f877cd8941d2425f18a720aa97f712a45fb43aa95e87d17749833",
        "492759803955c83b6d27e638ef034e77a2e9e9aa6272c884c371e8ca504df2b3",
        "cbde54f27c23d8b23c0ad5439d36f8cbc55978ef8398248e3d11aa993a7c7e9f",
    ),
    ("integrability", ""): (
        "11948bf1be9cee77ecfa6b219cad46f5f3ae24fbbe7c88e445809864d7cf5daa",
        "329f3824c4dda91bc4f56c3e1c56a9bbbaf1e8d4c42b00c09b83cabddffbcfdd",
        "d6504fc352b90d725c3484b1174784234ed7386657a876a77d271779351d5b74",
    ),
    ("strong-integrability", ""): (
        "76ea659aadab3c3aa1cbd4bb08600baece2bfa4bb5df13fb9b1be1df7582998f",
        "b3a5ee6f9e24a930b663380a6c7244a9f3fb7613c23c7c0e99bd0340fbfe20cd",
        "18a498d55f007aa9de2c26186471ec96e8d46cbc21fa44b16d6687a0b56b7fcc",
    ),
    ("field-prolongation", ""): (
        "072412977bdd5b24120c8a172c6f84ba48f4c12b1e130974109dfb4e90dc7d19",
        "6936dcd31e2ba5c3d6b8c9632d999eea1b41a0aebebb91dee4ea593d18542f79",
        "7ebc305550fc453c9f834f6b205d124c6bb9af74a2a78f3ff9582e7797ec6b7c",
    ),
    ("affine", ""): (
        "c1177ecd925311da366b8322ac80d821d3b6524831ee4f993c999aa6802c0bd7",
        "60bf9cbb3b8ed3ec72e6ff12ed8dec84b28dc0ffc6360c6c875228746ceaf03e",
        "8b70c27e5ac1e50985bade3cc3360de9a62b984647290906b79736779e3d6c4b",
    ),
    ("saunders", ""): (
        "96302b5abd86aeb597a9d1bc863404123a348436e701ccc58223fe80bf9dfa1b",
        "e0d0acfc0965c3c9900ab48a6085665514a3468c2594e3cc029d6054f67db9cc",
        "9e18da880232d838a9607476451b25993c973ef5003c6ee91e85581349ca27ce",
    ),
    ("inconsistent", ""): (
        "74e91a8a67de5050e7d9a49452360de619e5089baef3bf39def575d0b0be06ab",
        "74e91a8a67de5050e7d9a49452360de619e5089baef3bf39def575d0b0be06ab",
        "0362b30889a4e1a4bb02d6b3fb71a3cb60a89c7c7220a473a5594dea7c019868",
    ),
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


def _fixture_cases():
    return [(n, label, overrides) for n in FIXTURE_NAMES
            for label, overrides in FIXTURE_CASES.get(n, [("", {})])]


@pytest.mark.parametrize("name,label,overrides", _fixture_cases(),
                         ids=[f"{n}-{label}".strip("-").replace(" ", "-")
                              for n, label, _ in _fixture_cases()])
def test_report_bytes_match_golden_digests(name, label, overrides):
    params = {k: Fraction(v) for k, v in overrides.items()}
    if name == "vacuous-lepage":
        with pytest.raises(DegreeMismatch, match="vacuous"):
            analyze(parse_problem(fixture_text(name), param_overrides=params))
        return
    got = []
    for seed in REPORT_SEEDS:
        rep = analyze(parse_problem(fixture_text(name), param_overrides=params), seed=seed)
        got.append(hashlib.sha256(emit(rep, "text") + emit(rep, "structured")).hexdigest())
    assert tuple(got) == REPORT_DIGESTS[(name, label)]


def test_characters_rank_once_per_sample(reports, monkeypatch):
    # the m - 1 nested polar spaces are leading blocks of one stacked
    # matrix, ranked in one rank_fractions call per drawn sample point;
    # on the coordinate flag, maxwell's final tableau meets its term ranks
    # (10, 19, 25) on the first sample; the generic flag's are (10, 20, 26)
    # and its generic ranks (10, 19, 25), so it takes every sample
    se = structure_equations(reports("maxwell", ()).ladder.final_system)
    assert se.m - 1 == 3
    calls, points = [], []
    rank, draw = scalars.rank_fractions, scalars.sample_point
    monkeypatch.setattr(scalars, "rank_fractions", lambda *a: calls.append(1) or rank(*a))
    monkeypatch.setattr(scalars, "sample_point", lambda *a: points.append(1) or draw(*a))
    for flag, samples in (("coordinate", 1), ("generic", scalars.SAMPLES)):
        calls.clear()
        points.clear()
        cartan_characters(se, seed=0, flag=flag)
        assert len(calls) == len(points) == samples


def test_generic_flag_only_where_the_coordinate_flag_falls_short(reports, monkeypatch):
    # maxwell's final tableau meets dim A^(1) on the coordinate flag, so the
    # generic flag is not sampled; saunders' torsion step falls short of it
    from cartaneds import pfaffian
    se = structure_equations(reports("maxwell", ()).ladder.final_system)
    calls = []
    characters = pfaffian.cartan_characters
    monkeypatch.setattr(pfaffian, "cartan_characters",
                        lambda *a, **k: calls.append(k["flag"]) or characters(*a, **k))
    rep = pfaffian.cartan_test(se, seed=0)
    assert calls == ["coordinate"]
    assert rep.characters_generic is rep.characters and rep.involutive
    calls.clear()
    ladder_test = ladder.cartan_test
    tests = []

    def counted(se, seed):
        calls.clear()
        rep = ladder_test(se, seed)
        tests.append((bool(rep.torsion_essential), list(calls)))
        return rep
    monkeypatch.setattr(ladder, "cartan_test", counted)
    analyze(parse_problem(fixture_text("saunders")))
    assert tests[0] == (True, ["coordinate", "generic"])


def test_maxwell_ladder_evaluates_no_scalar(monkeypatch):
    # every sampled rank reduces its entries mod p; none needs the exact value
    calls = []
    evaluate = Scalar.evaluate
    monkeypatch.setattr(Scalar, "evaluate",
                        lambda self, point: calls.append(1) or evaluate(self, point))
    assert analyze(parse_problem(fixture_text("maxwell"))).verdict == "involutive"
    assert calls == []


def scalar_absorption_equations(se):
    """The absorption system of se with each row packed into one Scalar over
    a common denominator, the encoding solve_linear splits again: the
    reference for the rows structure_equations hands to solve_rows."""
    eqs = []
    for a in range(se.s0):
        for i in range(se.m):
            for j in range(i + 1, se.m):
                eq = se.torsion_raw.get((a, i, j), ZERO)
                for e in range(se.t):
                    aej = se.tableau.get((a, e, j))
                    if aej is not None and not aej.is_zero():
                        eq = eq + aej * Scalar.var(se.slopes[(e, i)])
                    aei = se.tableau.get((a, e, i))
                    if aei is not None and not aei.is_zero():
                        eq = eq - aei * Scalar.var(se.slopes[(e, j)])
                if not eq.is_zero():
                    eqs.append(eq)
    return eqs


def maxwell_text(n):
    """maxwell.prob in n dimensions: only its range and metric lines change."""
    return fixture_text("maxwell").replace("i j k l : 1 4", f"i j k l : 1 {n}") \
        .replace("diag(-1,1,1,1)", "diag(-1" + ",1" * (n - 1) + ")")


# wider tableaux; their trails come from the engine, so only the verdict, the
# agreement of both flags and s_n = 1 are checked, not the trail
SCALED_MAXWELL = {f"maxwell-n{n}": maxwell_text(n) for n in (3, 5, 6)}


@pytest.mark.parametrize("name,params", sorted(GOLDEN) + [(n, ()) for n in SCALED_MAXWELL],
                         ids=lambda v: str(v))
def test_absorption_rows_solve_as_scalar_equations(name, params, monkeypatch):
    built = []

    def build(sys):
        built.append(structure_equations(sys))
        return built[-1]
    monkeypatch.setattr(ladder, "structure_equations", build)
    rep = analyze(parse_problem(SCALED_MAXWELL.get(name) or fixture_text(name),
                                param_overrides={k: Fraction(v) for k, v in params}))
    assert built
    if name in SCALED_MAXWELL:
        last = rep.ladder.steps[-1]
        assert rep.verdict == "involutive"
        assert last.characters == last.characters_generic
        assert last.characters.s[-1] == 1
    for se in built:
        unknowns = [se.slopes[k] for k in sorted(se.slopes, reverse=True)]
        want = solve_linear(scalar_absorption_equations(se), unknowns)
        got = se.absorption
        assert list(got.solved.items()) == list(want.solved.items())
        assert (got.residual, got.free, got.assumptions) == \
            (want.residual, want.free, want.assumptions)
