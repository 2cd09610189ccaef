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
# coframe coefficients
# ---------------------------------------------------------------------------

CH1 = Chart(["x"], [Dependent("u"), Dependent("p")])
TH = Form.differential(CH1, "u") - Form.differential(CH1, "x").scale(Scalar.var("p"))
COFRAME = [("th", TH), ("dx", Form.differential(CH1, "x")),
           ("dp", Form.differential(CH1, "p"))]


def two_form_coefficients(a, coframe):
    exp = CoframeExpansion(a.chart, coframe)
    return {(exp.labels[i], exp.labels[j]): c for (i, j), c in exp.expand_two_form(a).items()}


def test_coefficients_examples():
    got = two_form_coefficients(
        D("x").wedge(D("y")),
        [("dx", D("x")), ("dy", D("y")), ("dz", D("z")),
         ("du", D("u")), ("dp", D("p")), ("dq", D("q")), ("dr", D("r"))])
    assert got == {("dx", "dy"): ONE}
    # du = th + p dx
    got = two_form_coefficients(
        Form.differential(CH1, "u").wedge(Form.differential(CH1, "p")), COFRAME)
    assert got == {("th", "dp"): ONE, ("dx", "dp"): Scalar.var("p")}
    got = two_form_coefficients(TH.d(), COFRAME)
    assert got == {("dx", "dp"): ONE}


def test_coefficients_reassembly():
    a = TH.d() + Form.differential(CH1, "p").wedge(Form.differential(CH1, "u")).scale(Scalar.var("u"))
    exp = two_form_coefficients(a, COFRAME)
    frame = dict(COFRAME)
    back = Form(CH1, 2, {})
    for (la, lb), c in exp.items():
        back = back + frame[la].wedge(frame[lb]).scale(c)
    assert (back - a).is_zero()


def test_coframe_degenerate():
    bad = [("a", D("x", CH1)), ("b", D("x", CH1)), ("c", D("p", CH1))]
    with pytest.raises(CoframeDegenerate):
        CoframeExpansion(CH1, bad)


def test_non_triangular_coframe_is_degenerate():
    # of full rank, but once d(p) is expressed, both remaining forms still
    # hold the two differentials dx and du
    frame = [("a", D("x", CH1) + D("u", CH1)), ("b", D("x", CH1) - D("u", CH1)),
             ("c", D("p", CH1))]
    with pytest.raises(CoframeDegenerate, match="not triangular"):
        CoframeExpansion(CH1, frame)


def rational(draw, nonzero=False):
    num = st.integers(-3, 3).filter(bool) if nonzero else st.integers(-3, 3)
    return Scalar.const(Fraction(draw(num), draw(st.integers(1, 3))))


@st.composite
def coframe_coefficient(draw, nonzero=False, multivariate=False):
    # univariate coframes pivot on powers of x + 1, with entries affine in x;
    # multivariate ones pivot on monomials such as u/2 or -2uy/3, with
    # entries affine in x, u and y (mixing the two makes the gcds slow)
    if nonzero and multivariate:
        return rational(draw, True) * V("u") ** draw(st.integers(0, 2)) \
            * V("y") ** draw(st.integers(0, 1))
    if nonzero:
        return rational(draw, True) * (V("x") + 1) ** draw(st.integers(0, 2))
    names = ("x", "u", "y") if multivariate else ("x",)
    return rational(draw) + sum((rational(draw) * V(n) for n in names), ZERO)


@st.composite
def triangular_coframe(draw):
    """The forms of a drawn coordinate order, each adding its own coordinate's
    differential with a nonzero coefficient to some of the earlier ones,
    listed in a drawn order."""
    multivariate = draw(st.booleans())
    order = draw(st.permutations(list(CH.names)))
    forms = []
    for k, own in enumerate(order):
        terms = {(own,): draw(coframe_coefficient(True, multivariate))}
        for n in order[:k]:
            if draw(st.integers(0, 2)) == 0:
                terms[(n,)] = draw(coframe_coefficient(False, multivariate))
        forms.append(Form(CH, 1, terms))
    return [(j, forms[j]) for j in draw(st.permutations(range(len(forms))))]


@settings(max_examples=60, deadline=None)
@given(triangular_coframe(), st.lists(st.tuples(st.permutations(list(CH.names)),
                                                 coframe_coefficient()), max_size=3))
def test_back_substitution_inverts_triangular_coframes(coframe, two_terms):
    exp = CoframeExpansion(CH, coframe)
    for n in CH.names:
        back = Form(CH, 1, {})
        for j, c in exp.coords[n]:
            back = back + exp.forms[j].scale(c)
        assert back == D(n)
    a = Form(CH, 2, {})
    for names, c in two_terms:
        a = a + D(names[0]).wedge(D(names[1])).scale(c)
    expanded = exp.expand_two_form(a)
    assert all(not c.is_zero() for n in CH.names for _, c in exp.coords[n])
    assert all(not c.is_zero() for c in expanded.values())
    back = Form(CH, 2, {})
    for (i, j), c in expanded.items():
        back = back + exp.forms[i].wedge(exp.forms[j]).scale(c)
    assert (back - a).is_zero()


def test_vertical_degree_and_volume():
    assert vertical_degree(TH) == 1
    assert vertical_degree(volume_form(CH)) == 0
    assert volume_contraction(CH, ["x"]) == D("y").wedge(D("z"))
    assert (volume_contraction(CH, ["y"]) + D("x").wedge(D("z"))).is_zero()
    assert volume_contraction(CH, ["x", "y"]) == D("z")
