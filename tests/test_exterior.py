from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartaneds.scalars import Chart, Dependent, Scalar, ONE, ZERO
from cartaneds.exterior import (CoframeDegenerate, CoframeExpansion, Form,
                                Substitution, identity_substitution,
                                vertical_degree, volume_contraction, volume_form)

CH = Chart(["x", "y", "z"], [Dependent("u"), Dependent("p"), Dependent("q"),
                             Dependent("r")])


def D(name, chart=CH):
    return Form.differential(chart, name)


def V(name):
    return Scalar.var(name)


# ---------------------------------------------------------------------------
# wedge / d / contraction examples
# ---------------------------------------------------------------------------

def test_wedge_anticommutativity():
    assert D("x").wedge(D("y")) == D("x").wedge(D("y"))
    assert (D("y").wedge(D("x")) + D("x").wedge(D("y"))).is_zero()
    assert D("x").wedge(D("x")).is_zero()


def test_wedge_bilinearity():
    p, q, r = V("p"), V("q"), V("r")
    got = D("x").scale(p).wedge(D("y").scale(q) + D("z").scale(r))
    want = D("x").wedge(D("y")).scale(p * q) + D("x").wedge(D("z")).scale(p * r)
    assert (got - want).is_zero()


def test_d_simple():
    udx = D("x").scale(V("u"))
    assert (udx.d() - D("u").wedge(D("x"))).is_zero()


def test_d_contact_form():
    theta = D("u") - D("x").scale(V("p")) - D("y").scale(V("q")) - D("z").scale(V("r"))
    want = -(D("p").wedge(D("x"))) - D("q").wedge(D("y")) - D("r").wedge(D("z"))
    assert (theta.d() - want).is_zero()


def test_dd_zero_simple():
    f = Form.scalar(CH, V("u") ** 2 * V("y") + V("p") * V("q") / (V("y") + 1))
    assert f.d().d().is_zero()


def test_contract_vector_examples():
    dxdy = D("x").wedge(D("y"))
    assert dxdy.contract({"x": ONE}) == D("y")
    assert (dxdy.contract({"y": ONE}) + D("x")).is_zero()
    # (d/dt + v d/dq) .| dt = 1  (on a 1d chart)
    ch = Chart(["t"], [Dependent("q"), Dependent("v")])
    dt = Form.differential(ch, "t")
    got = dt.contract({"t": ONE, "q": Scalar.var("v")})
    assert got.as_scalar() == ONE


def test_contract_multivector_convention():
    # Z_1 /\ Z_2 acts by successive contractions, Z_1 first
    def by_z(form):
        return form.contract({"x": ONE}).contract({"y": ONE})
    assert by_z(D("x").wedge(D("y")).wedge(D("z"))) == D("z")
    assert by_z(D("x").wedge(D("y"))).as_scalar() == ONE
    ch = Chart(["t"], [Dependent("q"), Dependent("v")])
    dtdq = Form.differential(ch, "t").wedge(Form.differential(ch, "q"))
    got = dtdq.contract({"t": ONE, "q": Scalar.var("v")})
    want = Form.differential(ch, "q") - Form.differential(ch, "t").scale(Scalar.var("v"))
    assert (got - want).is_zero()


def test_wedge_beyond_dimension_is_zero():
    ch = Chart(["x"], [Dependent("u")])
    a = Form.differential(ch, "x").wedge(Form.differential(ch, "u"))
    assert a.degree == 2
    assert a.wedge(Form.differential(ch, "x")).is_zero()


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_constraint_kills_difference():
    ch = Chart(["t"], [Dependent("q1"), Dependent("q2")])
    target = ch.drop(["q1"])
    sub = Substitution(target, {"q1": Scalar.var("q2")})
    a = Form.differential(ch, "q1") - Form.differential(ch, "q2")
    assert sub.form(a).is_zero()


def test_pullback_identity():
    a = D("u").wedge(D("x")).scale(V("p"))
    assert (identity_substitution(CH).form(a) - a).is_zero()


def test_pullback_chain_rule():
    # p -> L(q, v) - pl*vl : d(p) picks up all partial derivatives
    ch = Chart(["t"], [Dependent("p"), Dependent("q"), Dependent("v"),
                       Dependent("pl"), Dependent("vl")])
    L = Scalar.var("q") ** 2 + Scalar.var("v") ** 3
    binding = L - Scalar.var("pl") * Scalar.var("vl")
    target = ch.drop(["p"])
    sub = Substitution(target, {"p": binding})
    got = sub.form(Form.differential(ch, "p"))
    want = Form.scalar(target, binding).d()
    assert (got - want).is_zero()
    assert got.terms[("q",)] == 2 * Scalar.var("q")
    assert got.terms[("pl",)] == -Scalar.var("vl")


@st.composite
def small_form(draw, chart=CH, max_degree=2):
    deg = draw(st.integers(0, max_degree))
    names = list(chart.names)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        idx = tuple(sorted(draw(st.permutations(names)).copy()[:deg],
                           key=chart.position))
        if len(set(idx)) != deg:
            continue
        coef = Scalar.const(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        for n in ("u", "y"):
            coef = coef * Scalar.var(n) ** draw(st.integers(0, 2))
        terms[idx] = terms.get(idx, ZERO) + coef
    return Form(chart, deg, terms)


@settings(max_examples=500, deadline=None)
@given(small_form())
def test_dd_is_zero(a):
    assert a.d().d().is_zero()


@settings(max_examples=500, deadline=None)
@given(small_form(), small_form())
def test_graded_anticommutativity(a, b):
    ab = a.wedge(b)
    ba = b.wedge(a)
    sign = (-1) ** (a.degree * b.degree)
    assert (ab - (ba if sign > 0 else -ba)).is_zero()


@settings(max_examples=500, deadline=None)
@given(small_form(), small_form())
def test_d_is_antiderivation(a, b):
    lhs = a.wedge(b).d()
    rhs = a.d().wedge(b)
    db = a.wedge(b.d())
    rhs = rhs + (db if a.degree % 2 == 0 else -db)
    assert (lhs - rhs).is_zero()


@settings(max_examples=500, deadline=None)
@given(small_form(max_degree=2), small_form(max_degree=2),
       st.integers(-3, 3), st.integers(-3, 3))
def test_contraction_is_antiderivation(a, b, c1, c2):
    X = {"x": Scalar.const(c1), "u": Scalar.const(c2) * Scalar.var("y")}
    if a.degree + b.degree == 0 or a.degree + b.degree > CH.dim:
        return
    lhs = a.wedge(b).contract(X) if a.wedge(b).degree >= 1 else None
    if lhs is None:
        return
    ia = a.contract(X).wedge(b) if a.degree >= 1 else Form(CH, b.degree, {})
    ib = a.wedge(b.contract(X)) if b.degree >= 1 else Form(CH, a.degree, {})
    rhs = ia + (ib if a.degree % 2 == 0 else -ib)
    assert (lhs - rhs).is_zero()


@settings(max_examples=500, deadline=None)
@given(small_form(max_degree=2))
def test_pullback_commutes_with_d(a):
    target = CH.drop(["p"])
    sub = Substitution(target, {"p": Scalar.var("u") * Scalar.var("y") + 1})
    assert (sub.form(a.d()) - sub.form(a).d()).is_zero()


@settings(max_examples=200, deadline=None)
@given(small_form(max_degree=2), small_form(max_degree=2))
def test_form_terms_hold_no_zero_coefficient(a, b):
    X = {"x": Scalar.const(1), "u": Scalar.var("y")}
    results = [a.wedge(b), a.d(), b.d()]
    results += [f.contract(X) for f in (a, b) if f.degree >= 1]
    if a.degree == b.degree:
        results += [a + b, a - b]
    for f in results:
        assert all(not c.is_zero() for c in f.terms.values())


# ---------------------------------------------------------------------------
# expansion modulo the generators of a reduced system
# ---------------------------------------------------------------------------

CH1 = Chart(["x"], [Dependent("u"), Dependent("p")])
TH = Form.differential(CH1, "u") - Form.differential(CH1, "x").scale(Scalar.var("p"))


def two_form_coefficients(a, generators=(), pivots=()):
    exp = CoframeExpansion(a.chart, generators, pivots)
    return {(exp.labels[i], exp.labels[j]): c for (i, j), c in exp.expand_two_form(a).items()}


def test_coefficients_examples():
    assert two_form_coefficients(D("x").wedge(D("y"))) == {("x", "y"): ONE}
    # du = p dx modulo TH
    exp = CoframeExpansion(CH1, [TH], ["u"])
    assert exp.labels == ["x", "p"]
    assert exp.coords["u"] == [(0, Scalar.var("p"))]
    got = two_form_coefficients(
        Form.differential(CH1, "u").wedge(Form.differential(CH1, "p")), [TH], ["u"])
    assert got == {("x", "p"): Scalar.var("p")}
    assert two_form_coefficients(TH.d(), [TH], ["u"]) == {("x", "p"): ONE}


def test_coefficients_reassembly():
    a = TH.d() + Form.differential(CH1, "p").wedge(Form.differential(CH1, "u")).scale(Scalar.var("u"))
    back = Form(CH1, 2, {})
    for (la, lb), c in two_form_coefficients(a, [TH], ["u"]).items():
        back = back + Form.differential(CH1, la).wedge(Form.differential(CH1, lb)).scale(c)
    assert not (back - a).is_zero()
    assert (back - a).wedge(TH).is_zero()


def test_coframe_degenerate():
    # the pivot coefficient must be 1, and each generator needs its own pivot
    with pytest.raises(CoframeDegenerate, match="no unit at its pivot u"):
        CoframeExpansion(CH1, [TH.scale(2)], ["u"])
    with pytest.raises(CoframeDegenerate, match="pivot of its own"):
        CoframeExpansion(CH1, [TH, TH], ["u", "u"])


def test_term_at_another_pivot_is_degenerate():
    other = Form(CH1, 1, {("p",): ONE, ("u",): V("x")})
    with pytest.raises(CoframeDegenerate, match="term at the pivot u"):
        CoframeExpansion(CH1, [TH, other], ["u", "p"])


def rational(draw, nonzero=False):
    num = st.integers(-3, 3).filter(bool) if nonzero else st.integers(-3, 3)
    return Scalar.const(Fraction(draw(num), draw(st.integers(1, 3))))


@st.composite
def polynomial(draw):
    # the expansion divides by nothing, so entries may be any polynomials
    c = ZERO
    for _ in range(draw(st.integers(1, 2))):
        term = rational(draw, True)
        for n in draw(st.lists(st.sampled_from(CH.names), max_size=2)):
            term = term * V(n)
        c = c + term
    return c


@st.composite
def reduced_system(draw):
    """Generators with a unit at their own pivot, no term at another pivot
    and polynomial entries at the other coordinates."""
    pivots = draw(st.lists(st.sampled_from([d.name for d in CH.dependent]), unique=True))
    gens = []
    for p in pivots:
        terms = {(p,): ONE}
        for n in CH.names:
            if n not in pivots and draw(st.integers(0, 2)) == 0:
                terms[(n,)] = draw(polynomial())
        gens.append(Form(CH, 1, terms))
    return gens, pivots


@settings(max_examples=60, deadline=None)
@given(reduced_system(), st.lists(st.tuples(st.permutations(list(CH.names)),
                                                 polynomial()), max_size=3))
def test_expansion_is_the_two_form_modulo_the_generators(system, two_terms):
    # a minus its expansion lies in the ideal: its wedge with every
    # generator vanishes
    gens, pivots = system
    exp = CoframeExpansion(CH, gens, pivots)
    assert exp.labels == [n for n in CH.names if n not in pivots]
    a = Form(CH, 2, {})
    for names, c in two_terms:
        a = a + D(names[0]).wedge(D(names[1])).scale(c)
    expanded = exp.expand_two_form(a)
    assert all(not c.is_zero() for c in expanded.values())
    rest = a
    for (i, j), c in expanded.items():
        assert i < j
        rest = rest - D(exp.labels[i]).wedge(D(exp.labels[j])).scale(c)
    for g in gens:
        rest = rest.wedge(g)
    assert rest.is_zero()


def test_vertical_degree_and_volume():
    assert vertical_degree(TH) == 1
    assert vertical_degree(volume_form(CH)) == 0
    assert volume_contraction(CH, ["x"]) == D("y").wedge(D("z"))
    assert (volume_contraction(CH, ["y"]) + D("x").wedge(D("z"))).is_zero()
    assert volume_contraction(CH, ["x", "y"]) == D("z")
