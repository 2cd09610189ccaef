import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartaneds.cli import FIXTURE_NAMES, fixture_text
from cartaneds.scalars import (Chart, Dependent, NonLinearInUnknowns, Scalar,
                               ONE, ZERO)
from cartaneds.exterior import Form, volume_form
from cartaneds.pfaffian import EmptyLocus
from cartaneds.problems import parse_problem
from cartaneds.hamilton import (DegreeMismatch, MissingJetStructure,
                                VariationalProblem, _hamilton_form,
                                build_lepage_classical, build_lepage_explicit,
                                build_lepage_griffiths, grassmann_extend,
                                grassmann_name, hamilton_equations,
                                residual_check, solve_hamilton_locus)


def V(n):
    return Scalar.var(n)


def mechanics_chart():
    return Chart(["t"], [Dependent("q1", "field"), Dependent("q2", "field"),
                         Dependent("v1", "jet", 0, ("q1", "t")),
                         Dependent("v2", "jet", 0, ("q2", "t"))])


def mechanics_lagrangian(ch, alpha, beta):
    L = V("v1") ** 2 / 2 + V("q2") * V("v1") + (1 - alpha) * V("q1") * V("v2") \
        + Fraction(beta, 2) * (V("q1") - V("q2")) ** 2
    return volume_form(ch).scale(L)


def mechanics_lepage(alpha=1, beta=2):
    ch = mechanics_chart()
    vp = VariationalProblem(chart=ch, lagrangian=mechanics_lagrangian(ch, alpha, beta),
                            generators=[])
    return build_lepage_classical(vp, {"q1": ["p1"], "q2": ["p2"]})


def test_classical_theta_is_L_dt_plus_p_contact():
    ls = mechanics_lepage(alpha=1, beta=2)
    ch = ls.chart
    d = lambda n: Form.differential(ch, n)
    L = V("v1") ** 2 / 2 + V("q2") * V("v1") + (V("q1") - V("q2")) ** 2
    want = volume_form(ch).scale(L) \
        + d("q1").scale(V("p1")) - d("t").scale(V("p1") * V("v1")) \
        + d("q2").scale(V("p2")) - d("t").scale(V("p2") * V("v2"))
    assert (ls.theta - want).is_zero()
    assert ls.omega.d().is_zero()
    assert ls.multipliers == ["p1", "p2"]


def test_classical_requires_jets_and_momenta():
    ch = Chart(["t"], [Dependent("q", "field")])
    vp = VariationalProblem(chart=ch, lagrangian=Form(ch, 1, {}), generators=[])
    with pytest.raises(MissingJetStructure):
        build_lepage_classical(vp, {"q": ["p"]})
    ch2 = mechanics_chart()
    vp2 = VariationalProblem(chart=ch2, lagrangian=Form(ch2, 1, {}), generators=[])
    with pytest.raises(MissingJetStructure):
        build_lepage_classical(vp2, {"q1": ["p1"]})


def test_zero_lagrangian_pure_constraint_theta():
    ch = mechanics_chart()
    vp = VariationalProblem(chart=ch, lagrangian=Form(ch, 1, {}), generators=[])
    ls = build_lepage_classical(vp, {"q1": ["p1"], "q2": ["p2"]})
    d = lambda n: Form.differential(ls.chart, n)
    want = (d("q1") - d("t").scale(V("v1"))).scale(V("p1")) \
        + (d("q2") - d("t").scale(V("v2"))).scale(V("p2"))
    assert (ls.theta - want).is_zero()


def test_griffiths_multiplier_counts():
    # theta + two 3-form generators: multipliers (A,B,C) and two scalars
    ch = Chart(["x", "y", "z"], [Dependent(n, "field") for n in ("phi", "p", "q", "r")])
    d = lambda n: Form.differential(ch, n)
    th = d("phi") - d("x").scale(V("p")) - d("y").scale(V("q")) - d("z").scale(V("r"))
    g1 = d("x").wedge(d("y")).wedge(d("r")) + d("y").wedge(d("z")).wedge(d("p")).scale(V("y"))
    g2 = d("x").wedge(d("z")).wedge(d("q"))
    vp = VariationalProblem(chart=ch, lagrangian=Form(ch, 3, {}),
                            generators=[("th", th), ("g1", g1), ("g2", g2)])
    shapes = [("th", [("A", d("x").wedge(d("y"))), ("B", d("x").wedge(d("z"))),
                      ("C", d("y").wedge(d("z")))]),
              ("g1", [("l1", Form.scalar(ch, 1))]),
              ("g2", [("l2", Form.scalar(ch, 1))])]
    ls = build_lepage_griffiths(vp, shapes)
    assert ls.multipliers == ["A", "B", "C", "l1", "l2"]
    assert ls.omega.d().is_zero()


def test_griffiths_degree_mismatch():
    ch = Chart(["x", "y"], [Dependent("u", "field")])
    d = lambda n: Form.differential(ch, n)
    th = d("u")
    vp = VariationalProblem(chart=ch, lagrangian=Form(ch, 2, {}), generators=[("th", th)])
    with pytest.raises(DegreeMismatch):
        build_lepage_griffiths(vp, [("th", [("k", Form.scalar(ch, 1))])])  # needs degree 1
    with pytest.raises(DegreeMismatch):
        build_lepage_griffiths(vp, [("th", [("k", d("u"))])])  # not horizontal


def test_vacuous_lepage_diagnostic():
    ch = Chart(["x", "y"], [Dependent("u", "field"), Dependent("v", "field")])
    d = lambda n: Form.differential(ch, n)
    bad = d("u").wedge(d("v"))
    vp = VariationalProblem(chart=ch, lagrangian=Form(ch, 2, {}), generators=[("bad", bad)])
    with pytest.raises(DegreeMismatch, match="vertical degree 2"):
        build_lepage_griffiths(vp, [("bad", [("k", Form.scalar(ch, 1))])])


def test_grassmann_extend_counts_and_names():
    ls = mechanics_lepage()
    g = grassmann_extend(ls)
    z = [d.name for d in g.dependent if d.level == 1]
    assert z == ["Zq1_t", "Zq2_t", "Zv1_t", "Zv2_t", "Zp1_t", "Zp2_t"]
    # m independents x n dependents in general
    ch = Chart(["x1", "x2"], [Dependent(f"y{i}", "field") for i in (1, 2)]
               + [Dependent(f"v{i}{j}", "jet", 0, (f"y{i}", f"x{j}"))
                  for i in (1, 2) for j in (1, 2)])
    ls2 = build_lepage_explicit(ch, Form(ch, 2, {(("x1"), ("x2")): ONE}))
    g2 = grassmann_extend(ls2)
    assert sum(1 for d in g2.dependent if d.level == 1) == 2 * 6


def test_hamilton_equations_sundermeyer():
    ls = mechanics_lepage(alpha=1, beta=2)
    g = grassmann_extend(ls)
    eqs = hamilton_equations(ls, g)
    hl = solve_hamilton_locus(ls, g, eqs)
    b = hl.solved.bindings
    q12 = V("q1") - V("q2")
    assert b["Zq1_t"] == V("v1")
    assert b["Zq2_t"] == V("v2")
    assert b["Zp1_t"] == 2 * q12            # beta (q1 - q2) + (1 - alpha) v2
    assert b["Zp2_t"] == V("v1") - 2 * q12
    assert b["p1"] == V("q2") + V("v1")
    assert b["p2"] == ZERO
    # Legendre relations: p_A - dL/dv_A among the Z-free residuals
    assert any((c - (V("p1") - V("q2") - V("v1"))).is_zero() or
               (c + (V("p1") - V("q2") - V("v1"))).is_zero()
               for c in hl.base_constraints)


def test_hamilton_equations_empty_for_closed_theta():
    ch = Chart(["x"], [Dependent("u", "field")])
    ls = build_lepage_explicit(ch, Form.differential(ch, "x"))
    assert ls.omega.is_zero()
    g = grassmann_extend(ls)
    assert hamilton_equations(ls, g) == []
    hl = solve_hamilton_locus(ls, g, [])
    assert hl.base_constraints == [] and hl.solved.bindings == {}


def test_inconsistent_theta_raises_empty_locus():
    ch = Chart(["x"], [Dependent("u", "field")])
    ls = build_lepage_explicit(ch, Form(ch, 1, {("x",): V("u")}))
    g = grassmann_extend(ls)
    with pytest.raises(EmptyLocus):
        solve_hamilton_locus(ls, g, hamilton_equations(ls, g))


def test_residual_check_positive_and_negative():
    ls = mechanics_lepage()
    g = grassmann_extend(ls)
    hl = solve_hamilton_locus(ls, g, hamilton_equations(ls, g))
    assert residual_check(hl, ls)
    # negative control: drop one binding
    from cartaneds.exterior import Substitution
    broken = dict(hl.solved.bindings)
    dropped = broken.pop("Zp1_t")
    hl.solved = Substitution(hl.grassmann_chart.drop(broken.keys()), broken)
    assert not residual_check(hl, ls)


def test_affine_products_drop_on_base_locus():
    ch = Chart(["x1", "x2"], [Dependent("y1", "field"), Dependent("y2", "field")]
               + [Dependent(f"v{i}{j}", "jet", 0, (f"y{i}", f"x{j}"))
                  for i in (1, 2) for j in (1, 2)])
    d = lambda n: Form.differential(ch, n)
    alpha = d("x1").wedge(d("x2")).scale(V("y1") * V("y2")) \
        - d("y1").wedge(d("x1")).scale(V("x2") * V("y1")) \
        - d("y2").wedge(d("x1")).scale(V("x2") * V("y2"))
    ls = build_lepage_explicit(ch, alpha)
    g = grassmann_extend(ls)
    # the quadratic product is sigma's dx1 coefficient, which is not solved
    product = (V("y1") - V("y2")) * (V("Zy1_x1") - V("Zy2_x1"))
    dx1 = _hamilton_form(ls, g).terms[("x1",)]
    assert product == dx1 or product == -dx1
    hl = solve_hamilton_locus(ls, g, hamilton_equations(ls, g))
    assert hl.base_constraints == [V("y1") - V("y2")]
    assert hl.solved.bindings == {"y1": V("y2")}
    assert residual_check(hl, ls)
    assert hl.pfaffian.zero_forms == [V("Zy1_x1") - V("Zy2_x1"),
                                      V("Zy1_x2") - V("Zy2_x2")]


def fixture_lepage(name):
    doc = parse_problem(fixture_text(name))
    vp = VariationalProblem(chart=doc.chart, lagrangian=doc.lagrangian,
                            generators=doc.generators)
    if doc.mode == "classical":
        return build_lepage_classical(vp, doc.momenta)
    if doc.mode == "griffiths":
        return build_lepage_griffiths(vp, doc.multiplier_shapes)
    return build_lepage_explicit(doc.chart, doc.theta)


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "vacuous-lepage"])
def test_horizontal_components_follow_from_vertical(name):
    # sigma(Z_i) = 0: each dx^i coefficient is -sum_A Z^A_i sigma_A
    ls = fixture_lepage(name)
    g = grassmann_extend(ls)
    sigma = _hamilton_form(ls, g)
    for x in ls.chart.independent:
        want = ZERO
        for d in ls.chart.dependent:
            want = want - V(grassmann_name(d.name, x)) * sigma.terms.get((d.name,), ZERO)
        assert sigma.terms.get((x,), ZERO) == want


def test_hamilton_equations_are_the_vertical_components():
    ls = fixture_lepage("maxwell")
    g = grassmann_extend(ls)
    eqs = hamilton_equations(ls, g)
    assert len(eqs) == 16
    terms = _hamilton_form(ls, g).terms
    assert eqs == [terms[(d.name,)] for d in ls.chart.dependent if (d.name,) in terms]


def vertical_components(ls, g):
    """The du^A coefficients of the successive contraction, in chart order."""
    terms = _hamilton_form(ls, g).terms
    return [terms[(d.name,)] for d in ls.chart.dependent if (d.name,) in terms]


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "vacuous-lepage"])
def test_one_pass_equations_match_the_contraction_on_fixtures(name):
    ls = fixture_lepage(name)
    g = grassmann_extend(ls)
    assert hamilton_equations(ls, g) == vertical_components(ls, g)


@st.composite
def explicit_lepage(draw):
    """An explicit Theta of degree m = 1..3 and vertical degree <= 2, so that
    dTheta has terms with two vertical names besides du^A."""
    m = draw(st.integers(1, 3))
    xs = [f"x{i}" for i in range(1, m + 1)]
    ys = ["y1", "y2", "y3"]
    ch = Chart(xs, [Dependent(n, "field") for n in ys])
    names = xs + ys
    shapes = [c for c in itertools.combinations(names, m) if sum(n in ys for n in c) <= 2]
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.sampled_from(shapes))
        coef = Scalar.const(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
        for n in draw(st.lists(st.sampled_from(names), max_size=3)):
            coef = coef * V(n)
        terms[idx] = terms.get(idx, ZERO) + coef
    return build_lepage_explicit(ch, Form(ch, m, terms))


@settings(max_examples=200, deadline=None)
@given(explicit_lepage())
def test_one_pass_equations_match_the_contraction_on_explicit_theta(ls):
    g = grassmann_extend(ls)
    assert hamilton_equations(ls, g) == vertical_components(ls, g)


def test_one_pass_equations_sum_every_bijection():
    # Omega = y3 dy1/\dy2/\dy3 on (x1, x2): sigma_3 = y3 (Zy1_x1 Zy2_x2 - Zy2_x1 Zy1_x2)
    ch = Chart(["x1", "x2"], [Dependent(f"y{i}", "field") for i in (1, 2, 3)])
    d = lambda n: Form.differential(ch, n)
    ls = build_lepage_explicit(ch, d("y1").wedge(d("y2")).scale(V("y3") ** 2 / 2))
    g = grassmann_extend(ls)
    eqs = hamilton_equations(ls, g)
    assert eqs == vertical_components(ls, g)
    assert eqs[2] == V("y3") * (V("Zy1_x1") * V("Zy2_x2") - V("Zy2_x1") * V("Zy1_x2"))


def test_equation_quadratic_in_z_raises_nonlinear():
    # an explicit Theta of vertical degree 2 gives Hamilton equations that
    # are quadratic in Z and stay so on the base locus
    ch = Chart(["x1", "x2"], [Dependent(f"y{i}", "field") for i in (1, 2, 3)])
    d = lambda n: Form.differential(ch, n)
    ls = build_lepage_explicit(ch, d("y1").wedge(d("y2")).scale(V("y3")))
    g = grassmann_extend(ls)
    with pytest.raises(NonLinearInUnknowns):
        solve_hamilton_locus(ls, g, hamilton_equations(ls, g))


def test_base_residual_empties_locus_before_a_nonlinear_equation():
    # p1 - 1 and p1 - 2 are inconsistent on the base whatever p1*p2 = 0
    # asks, so the locus is empty and no branch is needed
    ls = fixture_lepage("sundermeyer")
    g = grassmann_extend(ls)
    with pytest.raises(EmptyLocus):
        solve_hamilton_locus(ls, g, [V("p1") * V("p2"), V("p1") - 1, V("p1") - 2])


def test_integral_sections_solve_equations_of_motion():
    # free-particle regime: final relation is dq1/dt = v1, dv1/dt = 0;
    # a linear section q1 = a + b t, v1 = b annihilates every generator
    ls = mechanics_lepage(alpha=0, beta=0)
    g = grassmann_extend(ls)
    hl = solve_hamilton_locus(ls, g, hamilton_equations(ls, g))
    from cartaneds.ladder import run
    lad = run(hl, seed=3)
    assert lad.verdict == "involutive"
    a, b, c, e = (V(n) for n in ("ca", "cb", "cc", "ce"))
    t = V("t")
    section = {"q1": a + b * t, "v1": b, "q2": c + e * t, "v2": e,
               "p1": b + c + e * t, "p2": a + b * t}
    for d in lad.final_system.chart.dependent:
        if d.level == 1 and d.parent is not None:
            section[d.name] = section[d.parent[0]].partial("t")
    for gform in lad.final_system.generators:
        pulled_terms = ZERO
        for idx, coef in gform.terms.items():
            coef = coef.substitute(section)
            if idx == ("t",):
                pulled_terms = pulled_terms + coef
            else:
                inner = section.get(idx[0], V(idx[0]))
                pulled_terms = pulled_terms + coef * inner.partial("t")
        assert pulled_terms.is_zero()
