from fractions import Fraction
from pathlib import Path

import pytest

from cartaneds.cli import fixture_text
from cartaneds.problems import ExprContext, ParseError, parse_expression, parse_problem
from cartaneds.scalars import Chart, Dependent, Scalar


def ctx_for(chart, **kw):
    return ExprContext(chart=chart, params=kw.get("params", {}),
                       ranges=kw.get("ranges", {}), antisym=kw.get("antisym", {}),
                       metric=kw.get("metric"))


CH = Chart(["x", "y", "z"], [Dependent("u"), Dependent("p")])


def test_scalar_expression_basics():
    c = ctx_for(CH, params={"alpha": Fraction(1, 2)})
    f = parse_expression("1/2*u^2 + alpha*(x - y)", c)
    got = f.as_scalar()
    u, x, y = Scalar.var("u"), Scalar.var("x"), Scalar.var("y")
    assert got == u ** 2 / 2 + (x - y) / 2


def test_degree_three_generator():
    c = ctx_for(CH)
    f = parse_expression("d(u)/\\d(y)/\\(d(x) - y*d(z))", c)
    assert f.degree == 3
    assert len(f.terms) == 2


def test_wedge_precedence_and_power():
    c = ctx_for(CH)
    f = parse_expression("y^2*d(x)/\\d(u) - d(y)/\\d(p)", c)
    assert f.degree == 2
    assert f.terms[("x", "u")] == Scalar.var("y") ** 2


def test_parse_errors_carry_position():
    c = ctx_for(CH)
    with pytest.raises(ParseError, match="undeclared name"):
        parse_expression("bogus + 1", c, line=12)
    with pytest.raises(ParseError, match="line 3"):
        parse_expression("u + ", c, line=3)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("u ? 1", c, line=1)


def test_division_by_form_rejected():
    c = ctx_for(CH)
    with pytest.raises(ParseError):
        parse_expression("u / d(x)", c)


def test_parse_problem_sundermeyer():
    doc = parse_problem(fixture_text("sundermeyer"),
                        param_overrides={"alpha": Fraction(1), "beta": Fraction(2)})
    assert doc.name == "sundermeyer"
    assert doc.chart.independent == ("t",)
    assert [d.name for d in doc.chart.dependent] == ["q1", "q2", "v1", "v2"]
    assert doc.chart.role_of("v1") == "jet"
    assert doc.mode == "classical"
    assert doc.momenta == {"q1": ["p1"], "q2": ["p2"]}
    assert doc.params == {"alpha": Fraction(1), "beta": Fraction(2)}
    assert doc.seed == 7


def test_empty_chart_rejected():
    with pytest.raises(ParseError, match="at least one independent"):
        parse_problem("name = x\n[chart]\nfield = u\n")


def test_unknown_override_rejected():
    with pytest.raises(ParseError, match="does not override"):
        parse_problem(fixture_text("sundermeyer"), param_overrides={"gamma": Fraction(1)})


@pytest.mark.parametrize("extra, momentum", [("", "v1"), ("\ngamma = 3", "gamma"),
                                              ("", "p1")])
def test_momentum_names_must_be_new(extra, momentum):
    # a momentum becomes a chart coordinate, so it may reuse no coordinate,
    # parameter (substituted at parse time) or other momentum
    text = fixture_text("sundermeyer").replace("beta = 2", "beta = 2" + extra)
    with pytest.raises(ParseError, match=f"momentum '{momentum}' is already"):
        parse_problem(text.replace("momenta = q2 : p2", f"momenta = q2 : {momentum}"))


def test_run_section_values_validated():
    text = fixture_text("maxwell")
    for bad in ("max_prolongations = 0", "max_prolongations = four"):
        with pytest.raises(ParseError, match="max_prolongations"):
            parse_problem(text.replace("max_prolongations = 4", bad))
    with pytest.raises(ParseError, match="max_steps"):
        parse_problem(text.replace("max_steps = 32", "max_steps = -1"))


def test_round_trip_parse_serialize_parse():
    for name in ("sundermeyer", "maxwell", "saunders", "affine"):
        text = fixture_text(name)
        doc1 = parse_problem(text)
        doc2 = parse_problem(doc1.source)
        assert doc1.name == doc2.name
        assert doc1.chart.names == doc2.chart.names
        assert doc1.params == doc2.params
        assert doc1.mode == doc2.mode
        assert (doc1.lagrangian - doc2.lagrangian).is_zero()
        assert len(doc1.generators) == len(doc2.generators)
        for (n1, f1), (n2, f2) in zip(doc1.generators, doc2.generators):
            assert n1 == n2 and (f1 - f2).is_zero()


def test_maxwell_expansion():
    doc = parse_problem(fixture_text("maxwell"))
    names = [d.name for d in doc.chart.dependent]
    assert names[:4] == ["A_1", "A_2", "A_3", "A_4"]
    assert names[4:] == ["F_12", "F_13", "F_14", "F_23", "F_24", "F_34"]
    assert doc.chart.independent == ("x_1", "x_2", "x_3", "x_4")
    # antisymmetric resolution: F[2,1] enters with a minus sign
    assert len(doc.generators) == 1
    gen = doc.generators[0][1]
    assert gen.degree == 2
    # 2 F_12 dx1 dx2 from the double sum
    assert gen.terms[("x_1", "x_2")] == 2 * Scalar.var("F_12")
    assert gen.terms[("x_1", "A_1")] == Scalar.const(1)  # -dA_1 /\ dx_1
    # multiplier shapes: 6 antisymmetric multipliers with 2-form bases
    (gname, basis), = doc.multiplier_shapes
    assert gname == "mx"
    assert [n for n, _ in basis] == ["P_12", "P_13", "P_14", "P_23", "P_24", "P_34"]
    assert all(b.degree == 2 for _, b in basis)
    # lorentz metric with |det| = 1
    assert doc.metric[(1, 1)] == Fraction(-1) and doc.metric[(2, 2)] == Fraction(1)


def test_metric_requires_square_determinant():
    bad = """name = b
[chart]
independent = x y
field = u
[forms]
lagrangian = u
[params]
metric = diag(2,1)
[lepage]
mode = explicit
"""
    with pytest.raises(ParseError, match="perfect square"):
        parse_problem(bad)


@pytest.mark.parametrize("entry, root", [((10 ** 30 + 1) ** 2, 10 ** 30 + 1),
                                         (10 ** 400, 10 ** 200)],
                         ids=["beyond-float-precision", "beyond-float-range"])
def test_metric_square_root_is_exact(entry, root):
    text = f"""name = b
[chart]
independent = x y
field = u
[forms]
lagrangian = u
[params]
metric = diag({entry},1)
[lepage]
mode = explicit
"""
    doc = parse_problem(text)
    assert doc.lagrangian.terms[("x", "y")] == Scalar.const(root) * Scalar.var("u")


def test_sum_requires_declared_range():
    text = """name = s
[chart]
independent = x
field = u
[forms]
lagrangian = sum(i : u)
[lepage]
mode = explicit
"""
    with pytest.raises(ParseError, match="no declared range"):
        parse_problem(text)


def test_multiplier_must_introduce_new_names():
    text = """name = s
[chart]
independent = x y
field = u
jet = u : u_x u_y
[forms]
lagrangian = 0
generator = th : d(u) - u_x*d(x) - u_y*d(y)
[lepage]
mode = griffiths
multiplier = th : u*d(x)
"""
    with pytest.raises(ParseError, match="no new coordinate"):
        parse_problem(text)


def test_multiplier_nonlinear_rejected():
    text = """name = s
[chart]
independent = x y
field = u
jet = u : u_x u_y
[forms]
lagrangian = 0
generator = th : d(u) - u_x*d(x) - u_y*d(y)
[lepage]
mode = griffiths
multiplier = th : k^2*d(x)
"""
    with pytest.raises(ParseError, match="linear"):
        parse_problem(text)


@pytest.mark.parametrize("expr, names", [
    ("sum(i : Q[i]*eta[i])", ["Q_1", "Q_2", "Q_3"]),
    ("sum(i : Q[i,i]*eta[i])", ["Q_11", "Q_22", "Q_33"]),
    # first occurrence in evaluation order: the first sum index runs outermost
    ("sum(j,i : Q[i,j]*eta[i])", ["Q_11", "Q_21", "Q_31", "Q_12", "Q_22", "Q_32",
                                  "Q_13", "Q_23", "Q_33"]),
], ids=["vector", "diagonal", "transposed-sum"])
def test_multiplier_names_in_first_occurrence_order(expr, names):
    text = f"""name = s
[chart]
range = i j : 1 3
independent = x[i]
field = u
jet = u : u_1 u_2 u_3
[forms]
lagrangian = 0
generator = th : d(u) - sum(i : u[i]*d(x[i]))
[lepage]
mode = griffiths
multiplier = th : {expr}
"""
    (gname, basis), = parse_problem(text).multiplier_shapes
    assert gname == "th"
    assert [n for n, _ in basis] == names
    assert all(b.degree == 2 and len(b.terms) == 1 for _, b in basis)


def test_sum_body_is_one_expression():
    c = ctx_for(CH, ranges={"i": [1, 2]})
    assert parse_expression("sum(i : u + sum(i : p))", c).as_scalar() == \
        2 * Scalar.var("u") + 4 * Scalar.var("p")
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse_expression("sum(i : u p)", c)
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse_expression("sum(i : u", c)


def maxwell_context():
    doc = parse_problem(fixture_text("maxwell"))
    return ctx_for(doc.chart, ranges={n: [1, 2, 3, 4] for n in "ijkl"},
                   antisym={"F": True, "P": True}, metric=doc.metric)


def test_sum_body_is_parsed_once(monkeypatch):
    from cartaneds.problems import ExprParser
    c = maxwell_context()
    lagrangian, = (line.split("=", 1)[1] for line in fixture_text("maxwell").splitlines()
                   if line.startswith("lagrangian ="))
    atom, atoms = ExprParser.atom, []
    monkeypatch.setattr(ExprParser, "atom", lambda self: atoms.append(1) or atom(self))
    got = parse_expression(lagrangian, c).as_scalar()
    # (1/4) reads three atoms and sum(...) one; its body reads four, not
    # four for each of its 256 bindings
    assert len(atoms) == 3 + 1 + 4
    g = (-1, 1, 1, 1)
    want = sum((Fraction(g[i - 1] * g[k - 1], 2) * Scalar.var(f"F_{i}{k}") ** 2
                for i in range(1, 5) for k in range(i + 1, 5)), Scalar.const(0))
    assert got == want


def test_zero_factor_still_resolves_the_other_factors():
    c = maxwell_context()
    with pytest.raises(ParseError, match="undeclared name 'Q_11'"):
        parse_expression("sum(i,j : g[i,j]*Q[i,j])", c)
    with pytest.raises(ParseError, match=r"g indices must lie in 1\.\.m"):
        parse_expression("sum(i,j : g[i,j]*g[i,9])", c)
    # g[1,2] = 0 skips the product, but each later factor is still read
    with pytest.raises(ParseError, match="undeclared name 'Q'"):
        parse_expression("g[1,2]*F[1,2]*Q", c)
    with pytest.raises(ParseError, match=r"g indices must lie in 1\.\.m"):
        parse_expression("g[1,2]*g[1,9]", c)
    zero = parse_expression("g[1,2]*F[1,2]", c)
    assert zero.is_zero() and zero.degree == 0


def test_syntax_error_is_reported_before_an_error_of_value(tmp_path, capsys):
    from cartaneds.cli import main
    c = ctx_for(CH)
    with pytest.raises(ParseError, match="division by zero"):
        parse_expression("u + 1/0", c)
    with pytest.raises(ParseError, match=r"trailing input at '\)'"):
        parse_expression("u + 1/0 )", c)
    with pytest.raises(ParseError, match="unexpected token None"):
        parse_expression("u + 1/0 +", c)
    with pytest.raises(ParseError, match="unexpected token None"):
        parse_expression("bogus + (", c)
    text = fixture_text("maxwell")
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace("*F[j,l])\n", "*F[j,l]) + 1/0 )\n", 1))
    assert bad.read_text() != text
    assert main(["analyze", str(bad)]) == 65
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: trailing input at ')' (line 12, col ")


def test_documented_example_parses():
    doc_text = (Path(__file__).resolve().parent.parent / "docs" / "problem-format.md").read_text()
    block = doc_text.split("```")[1]
    doc = parse_problem(block)
    assert doc.name == "saunders"
    assert doc.mode == "griffiths"
    assert doc.seed == 7


def test_names_resolve_once_per_context_and_fresh_names_keep_parse_order():
    from dataclasses import replace
    ch = Chart(["x", "y"], [Dependent("u"), Dependent("F_12")])
    c = ctx_for(ch, params={"alpha": Fraction(2)}, ranges={"i": [1, 2]},
                antisym={"F": True})
    assert c.lookup("u", 1) is c.lookup("u", 2)
    assert c.lookup("alpha", 1) is c.lookup("alpha", 3)
    assert c.lookup_indexed("F", [2, 1], 1) is c.lookup_indexed("F", [2, 1], 4)
    assert c.lookup_indexed("F", [2, 1], 1).as_scalar() == -Scalar.var("F_12")
    finder = replace(c, fresh=[])
    parse_expression("sum(i : P[i]*d(x)) + Q*d(y) + P[1]*d(y) + R*d(x)", finder)
    assert finder.fresh == ["P_1", "P_2", "Q", "R"]
    # a context that collects fresh names keeps none of its lookups
    assert finder.resolved == {}


def test_sum_adds_its_bodies_by_the_rule_of_form_addition():
    ch = Chart(["x", "y"], [Dependent("u"), Dependent("F_12")])
    c = ctx_for(ch, ranges={"i": [1, 2]}, antisym={"F": True})
    got = parse_expression("sum(i : F[1,i]*d(x) + u*d(y))", c)
    assert got.degree == 1
    assert got.terms == {("x",): Scalar.var("F_12"), ("y",): 2 * Scalar.var("u")}
    # zero bodies of any degree: the sum is zero and takes the last one's degree
    assert parse_expression("sum(i : F[i,i]*d(x))", c).is_zero()
    assert parse_expression("sum(i : F[i,i]*d(x))", c).degree == 1
    # F[1,1] + F[1,2] d(x) is a nonzero 1-form, F[2,1] + F[2,2] d(x) a nonzero
    # 0-form: the bodies cannot be added
    with pytest.raises(ValueError, match="cannot add forms of different degree"):
        parse_expression("sum(i : F[i,1] + F[i,2]*d(x))", c)
