from fractions import Fraction

import pytest

from cartaneds import scalars
from cartaneds.scalars import Chart, Dependent, Scalar, ONE, SeedStream, sample_point
from cartaneds.exterior import CoframeExpansion, Form, Substitution
from cartaneds.hamilton import contact_forms
from cartaneds.pfaffian import (EmptyLocus, cartan_characters, cartan_test,
                                essential_torsion, make_system,
                                prolong, prolongation_dim, prune_constraints,
                                restrict, structure_equations)


def V(n):
    return Scalar.var(n)


def contact_chart(m_names, fields_with_jets):
    deps = []
    for f, js in fields_with_jets.items():
        deps.append(Dependent(f, "field"))
    for f, js in fields_with_jets.items():
        for x, j in zip(m_names, js):
            deps.append(Dependent(j, "jet", 0, (f, x)))
    return Chart(m_names, deps)


def contact_system(chart):
    return make_system(chart, [f for _, f in contact_forms(chart)])


J1R3 = contact_chart(["x", "y", "z"], {"u": ["p", "q", "r"]})
SYS_J1R3 = contact_system(J1R3)

J1R2 = contact_chart(["x", "y"], {"u": ["p", "q"]})
SYS_J1R2 = contact_system(J1R2)


# ---------------------------------------------------------------------------
# brute-force polar-space oracle (independent of the tableau machinery)
# ---------------------------------------------------------------------------

def brute_force_characters(sys, seed=23, mix="coordinate"):
    """Polar codimensions from first principles: rank of the linear
    conditions {theta(Y) = 0} + {dtheta(v_j, Y) = 0} at a sample point for
    a flag inside a sampled integral element.

    mix="coordinate" walks the element's adapted frame in order;
    mix="generic" takes random combinations of the frame vectors.
    """
    from cartaneds.scalars import rank_fractions, residue
    chart = sys.chart
    names = list(chart.names)
    m = chart.m
    stream = SeedStream(seed)
    point = sample_point(set(names), stream)
    # a generic integral element: solve the absorption system numerically
    se = structure_equations(sys)
    comp = sys.complement
    res = se.absorption
    slope_point = dict(point)
    for n in res.free:
        slope_point[n] = stream.fraction()
    slopes = {}
    for e, en in enumerate(comp):
        for i, xn in enumerate(chart.independent):
            n_ = f"{en}_{xn}"
            val = res.solved[n_].evaluate(slope_point) if n_ in res.solved else slope_point[n_]
            slopes[(en, xn)] = val
    # frame vectors e_i = d/dx_i + sum slopes * d/dZ + generator-implied parts
    # generator theta^a = du_a - sum c dx: on an integral element theta = 0
    # fixes the pivot components; build e_i components over all names
    gen_rows = [{n: c.evaluate(point) for (n,), c in g.terms.items()} for g in sys.generators]
    frame = []
    for i, xn in enumerate(chart.independent):
        vec = {xn: Fraction(1)}
        for en in comp:
            vec[en] = slopes[(en, xn)]
        # solve theta^a(e_i) = 0 for the pivot components
        for row, piv in zip(gen_rows, sys.pivots):
            total = sum(row.get(n, 0) * vec.get(n, 0) for n in row if n != piv)
            vec[piv] = -total / row[piv]
        frame.append(vec)
    if mix == "generic":
        combos = [[stream.fraction() for _ in range(m)] for _ in range(m)]
        frame = [{n: sum(c[i] * frame[i].get(n, Fraction(0)) for i in range(m))
                  for n in names} for c in combos]
    # polar conditions on Y for the flag E_k = span(frame[0..k-1])
    dthetas = [g.d() for g in sys.generators]
    def polar_rank(k):
        rows = []
        for row in gen_rows:
            rows.append({c: row[n] for c, n in enumerate(names) if n in row})
        for j in range(k):
            v = frame[j]
            for dth in dthetas:
                cond = {n: Fraction(0) for n in names}
                for (na, nb), c in dth.terms.items():
                    cv = c.evaluate(point)
                    # dth(Y, v) with Y symbolic: c*(dna(Y) dnb(v) - dna(v) dnb(Y))
                    cond[na] += cv * v.get(nb, Fraction(0))
                    cond[nb] -= cv * v.get(na, Fraction(0))
                rows.append({c: cond[n] for c, n in enumerate(names)})
        return rank_fractions(lambda p: [{c: residue(v, p) for c, v in row.items()}
                                         for row in rows], [len(rows)])[0]
    codims = [polar_rank(k) for k in range(m)]
    s = [codims[0]]
    for k in range(1, m):
        s.append(codims[k] - codims[k - 1])
    s_m = (len(names) - m) - codims[m - 1]
    return tuple(s[1:] + [s_m]), tuple(codims)


def test_characters_match_brute_force_on_contact_j1r3():
    se = structure_equations(SYS_J1R3)
    cv = cartan_characters(se, seed=7)
    s_brute, codims_brute = brute_force_characters(SYS_J1R3)
    assert cv.s == (1, 1, 1)
    assert cv.s == s_brute
    assert cv.polar_codims == codims_brute == (1, 2, 3)


def test_character_flavors_match_brute_force_where_they_differ():
    # the terminal system of the singular-Lagrangian fixture has coordinate
    # characters (2,2) but generic characters (4,0); both flavors must agree
    # with the from-scratch polar computation under the matching flag mix
    from fractions import Fraction as F
    from cartaneds.cli import fixture_text
    from cartaneds.problems import parse_problem
    from cartaneds.report import analyze
    rep = analyze(parse_problem(fixture_text("saunders")))
    final = rep.ladder.final_system
    se = structure_equations(final)
    coord = cartan_characters(se, 7, flag="coordinate").s
    gen = cartan_characters(se, 7, flag="generic").s
    assert coord == (2, 2) and gen == (4, 0)
    s_coord, _ = brute_force_characters(final, mix="coordinate")
    s_gen, _ = brute_force_characters(final, mix="generic")
    assert tuple(s_coord) == coord
    assert tuple(s_gen) == gen


def test_characters_match_brute_force_on_mixed_system():
    # theta = du - y v dx with fiber coordinates y, v: tableau has two entries
    ch = Chart(["x"], [Dependent("u"), Dependent("y"), Dependent("v")])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("y") * V("v")})
    sys = make_system(ch, [th])
    se = structure_equations(sys)
    assert se.torsion_raw == {}
    assert se.tableau[(0, se.complement.index("y"), 0)] == -V("v")
    assert se.tableau[(0, se.complement.index("v"), 0)] == -V("y")
    cv = cartan_characters(se, seed=3)
    s_brute, _ = brute_force_characters(sys)
    assert cv.s == s_brute == (2,)


# ---------------------------------------------------------------------------
# structure equations and torsion
# ---------------------------------------------------------------------------

def test_adapt_coframe_contact_systems():
    ch = contact_chart(["t"], {"q": ["v"]})
    sys = contact_system(ch)
    assert sys.complement == ["v"]
    assert SYS_J1R3.complement == ["p", "q", "r"]


def test_structure_equations_contact_j1r2():
    se = structure_equations(SYS_J1R2)
    assert se.torsion_raw == {}
    assert se.tableau == {(0, 0, 0): -ONE, (0, 1, 1): -ONE}


def test_essential_torsion_closed_generators():
    ch = Chart(["x", "y"], [Dependent("u"), Dependent("w")])
    sys = make_system(ch, [Form.differential(ch, "u")])
    assert essential_torsion(structure_equations(sys)) == []


def test_essential_torsion_integrability_model():
    # du + (Z/y) dx - Z dz carries torsion Z (numerator-normalized)
    ch = Chart(["x", "y", "z"], [Dependent("u"), Dependent("Z", "grassmann", 1)])
    th = Form(ch, 1, {("u",): ONE, ("x",): V("Z") / V("y"), ("z",): -V("Z")})
    sys = make_system(ch, [th])
    tor = essential_torsion(structure_equations(sys))
    assert tor == [V("Z")]


def test_essential_torsion_complement_independent():
    # the fiber coordinate W = Z - u*y has the complement dW = dZ - y du - u dy;
    # the torsion Z is the same function, written in W
    ch = Chart(["x", "y", "z"], [Dependent("u"), Dependent("Z", "grassmann", 1)])
    th = Form(ch, 1, {("u",): ONE, ("x",): V("Z") / V("y"), ("z",): -V("Z")})
    assert essential_torsion(structure_equations(make_system(ch, [th]))) == [V("Z")]
    ch2 = Chart(["x", "y", "z"], [Dependent("u"), Dependent("W", "grassmann", 1)])
    pulled = Substitution(ch2, {"Z": V("W") + V("u") * V("y")}).form(th)
    sys = make_system(ch2, [pulled])
    assert sys.complement == ["W"]
    assert essential_torsion(structure_equations(sys)) == [V("u") * V("y") + V("W")]


def test_structure_equations_split_no_equation(monkeypatch):
    # the absorption rows go to the eliminator as built, without a round
    # trip through one Scalar per row
    calls = []
    split = scalars._linear_split
    monkeypatch.setattr(scalars, "_linear_split", lambda *a: calls.append(1) or split(*a))
    ch = Chart(["x", "y", "z"], [Dependent("u"), Dependent("Z", "grassmann", 1)])
    torsion = make_system(ch, [Form(ch, 1, {("u",): ONE, ("x",): V("Z") / V("y"),
                                            ("z",): -V("Z")})])
    assert prolongation_dim(structure_equations(SYS_J1R3)) == 6
    assert essential_torsion(structure_equations(torsion)) == [V("Z")]
    assert calls == []


# ---------------------------------------------------------------------------
# characters / prolongation / test
# ---------------------------------------------------------------------------

def test_frobenius_zero_characters():
    ch = Chart(["x", "y"], [Dependent("u")])
    sys = make_system(ch, [Form.differential(ch, "u")])
    se = structure_equations(sys)
    cv = cartan_characters(se, seed=1)
    assert cv.s == (0, 0)
    assert prolongation_dim(se) == 0
    rep = cartan_test(se, seed=1)
    assert rep.involutive and rep.torsion_essential == []
    out, added = prolong(se)
    assert added == []


def test_contact_j1r3_test_and_prolongation():
    se = structure_equations(SYS_J1R3)
    assert prolongation_dim(se) == 6  # symmetric second derivatives
    rep = cartan_test(se, seed=7)
    assert rep.involutive
    assert rep.characters.s == (1, 1, 1)
    assert rep.cartan_sum == 6 == rep.prolongation_dim


def test_prolong_contact_j1r2_adds_three():
    out, added = prolong(structure_equations(SYS_J1R2))
    assert len(added) == 3
    rep = cartan_test(structure_equations(out), seed=9)
    assert rep.involutive
    assert sum(rep.characters.s) == 3


def test_character_monotonicity_and_inequality():
    for sys in (SYS_J1R2, SYS_J1R3):
        rep = cartan_test(structure_equations(sys), seed=13)
        s = rep.characters_generic.s
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))
        assert all(v >= 0 for v in s)
        assert rep.prolongation_dim <= rep.cartan_sum


def test_seed_determinism():
    se = structure_equations(SYS_J1R3)
    a = cartan_characters(se, seed=99)
    b = cartan_characters(se, seed=99)
    assert a == b


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_empty_constraint_list():
    out, sub = restrict(SYS_J1R3, [])
    assert out is SYS_J1R3
    assert sub.bindings == {}


def test_restrict_constant_raises_empty_locus():
    with pytest.raises(EmptyLocus):
        restrict(SYS_J1R3, [Scalar.const(1)])


def test_restrict_residual_among_independents_is_empty():
    # u - x and u - 1 leave x - 1, a relation among the independents alone:
    # no integral manifold satisfies the independence condition there
    ch = Chart(["x"], [Dependent("u"), Dependent("Zu", "grassmann", 1)])
    sys = make_system(ch, [Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})])
    with pytest.raises(EmptyLocus):
        restrict(sys, [V("u") - V("x"), V("u") - 1])


def test_restrict_residual_precedes_nonlinear_constraint():
    # u*v needs a branch, but u - x and u - 1 already leave x - 1
    ch = Chart(["x"], [Dependent("u"), Dependent("v"), Dependent("Zu", "grassmann", 1)])
    sys = make_system(ch, [Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})])
    with pytest.raises(EmptyLocus):
        restrict(sys, [V("u") - V("x"), V("u") * V("v"), V("u") - 1])


def test_make_system_normalizes_zero_forms():
    ch = Chart(["x"], [Dependent("u"), Dependent("w")])
    sys = make_system(ch, [], zero_forms=[-2 * (V("w") + 1) * (V("u") - 1),
                                          (V("w") + 1) * (V("u") - 1), V("u") / 3])
    assert sys.zero_forms == [(V("w") + 1) * (V("u") - 1), V("u")]


def test_restrict_records_assumption_and_substitutes():
    # y Z + 2w restricts Z with pivot y
    ch = Chart(["x", "y"], [Dependent("w"), Dependent("Z", "grassmann", 1)])
    th = Form(ch, 1, {("w",): ONE, ("x",): -V("Z")})
    sys = make_system(ch, [th])
    out, sub = restrict(sys, [V("y") * V("Z") + 2 * V("w")])
    assert sub.bindings["Z"] == -2 * V("w") / V("y")
    assert any(a == V("y") for a in out.assumptions)


def test_restrict_demotes_degenerate_generator():
    # two generators collapsing onto each other leave a horizontal residue
    ch = Chart(["x"], [Dependent("y1"), Dependent("y2"),
                       Dependent("Y1", "grassmann", 1), Dependent("Y2", "grassmann", 1)])
    th1 = Form(ch, 1, {("y1",): ONE, ("x",): -V("Y1")})
    th2 = Form(ch, 1, {("y2",): ONE, ("x",): -V("Y2")})
    sys = make_system(ch, [th1, th2])
    out, sub = restrict(sys, [V("y1") - V("y2")])
    assert len(out.generators) == 1
    assert out.zero_forms == [V("Y1") - V("Y2")]


def test_restrict_substitution_consistency():
    ch = Chart(["x"], [Dependent("y1"), Dependent("y2"),
                       Dependent("Y1", "grassmann", 1), Dependent("Y2", "grassmann", 1)])
    th1 = Form(ch, 1, {("y1",): ONE, ("x",): -V("Y1")})
    th2 = Form(ch, 1, {("y2",): ONE, ("x",): -V("Y2")})
    sys = make_system(ch, [th1, th2])
    out, sub = restrict(sys, [V("y1") - V("y2")])
    # pulled-back originals reduce into the restricted generators + zero-forms
    from cartaneds.pfaffian import reduce_generators
    pulled = [sub.form(g) for g in sys.generators]
    gens, pivots, extra_zero, _ = reduce_generators(out.chart, list(out.generators) + pulled)
    assert len(gens) == len(out.generators)
    for z in extra_zero:
        assert z in out.zero_forms


def test_extract_zero_forms_contact_is_empty():
    assert SYS_J1R3.zero_forms == []


def test_nonlinear_pfaffian_rejected():
    from cartaneds.pfaffian import NotLinearPfaffian
    ch = Chart(["x"], [Dependent("u"), Dependent("v"), Dependent("w")])
    th = Form(ch, 1, {("u",): ONE, ("w",): -V("v")})  # dtheta = -dv /\ dw
    sys = make_system(ch, [th])
    with pytest.raises(NotLinearPfaffian):
        structure_equations(sys)


def test_reduction_divides_each_entry_once(monkeypatch):
    # 2du + 4dv + 6dx is normalized at the pivot u by one division per entry
    ch = Chart(["x"], [Dependent("u"), Dependent("v")])
    form = Form(ch, 1, {("u",): 2, ("v",): 4, ("x",): 6})
    calls = []
    div = scalars.Scalar.__truediv__
    monkeypatch.setattr(scalars.Scalar, "__truediv__",
                        lambda self, other: calls.append(1) or div(self, other))
    sys = make_system(ch, [form])
    assert len(calls) == 3
    assert sys.pivots == ["u"]
    assert sys.generators[0] == Form(ch, 1, {("u",): 1, ("v",): 2, ("x",): 3})


def test_prune_constraints_drops_multiples():
    y, c = V("y"), V("w") + 1
    got = prune_constraints([c, y * c, c])
    assert got == [c]


def test_reconstruction_of_structure_equations():
    # reassemble dtheta from tableau and torsion: the remainder vanishes
    # modulo the generators
    ch = Chart(["x", "y"], [Dependent("u"), Dependent("v"),
                            Dependent("Z1", "grassmann", 1), Dependent("Z2", "grassmann", 1)])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Z1") * V("v"), ("y",): -V("Z2")})
    th2 = Form(ch, 1, {("v",): ONE, ("x",): -V("Z2"), ("y",): V("u")})
    sys = make_system(ch, [th, th2])
    se = structure_equations(sys)
    oms = [Form.differential(ch, n) for n in ch.independent]
    pis = [Form.differential(ch, n) for n in sys.complement]
    exp = CoframeExpansion(ch, sys.generators, sys.pivots)
    for a, g in enumerate(sys.generators):
        assembled = Form(ch, 2, {})
        for (aa, e, i), c in se.tableau.items():
            if aa == a:
                assembled = assembled + pis[e].wedge(oms[i]).scale(c)
        for (aa, i, j), c in se.torsion_raw.items():
            if aa == a:
                assembled = assembled + oms[i].wedge(oms[j]).scale(c)
        rest = g.d() - assembled
        assert exp.expand_two_form(rest) == {}
        for h in sys.generators:
            rest = rest.wedge(h)
        assert rest.is_zero()


def test_prolonged_system_is_reduced():
    # the old generator du + dp - p dx - q dy has coefficient 1 at the new
    # pivot p; prolong clears it with dp - p_x dx - p_y dy, so every
    # generator has a unit at its own pivot and none at the others
    ch = Chart(["x", "y"], [Dependent("u"), Dependent("p"), Dependent("q")])
    th = Form(ch, 1, {("u",): ONE, ("p",): ONE, ("x",): -V("p"), ("y",): -V("q")})
    sys = make_system(ch, [th])
    assert sys.pivots == ["u"]
    out, _ = prolong(structure_equations(sys))
    assert out.pivots[0] == "u" and "p" in out.pivots
    for g, own in zip(out.generators, out.pivots):
        assert g.terms[(own,)] == ONE
        assert all((other,) not in g.terms for other in out.pivots if other != own)
    reduced = make_system(out.chart, out.generators)
    assert reduced.pivots == out.pivots
    assert reduced.generators == out.generators
    se = structure_equations(out)
    assert (essential_torsion(se), cartan_characters(se, seed=5).s,
            cartan_characters(se, seed=5, flag="generic").s,
            prolongation_dim(se)) == ([], (2, 1), (2, 1), 4)
