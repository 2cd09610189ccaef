from fractions import Fraction

import pytest

from cartaneds.scalars import Chart, Dependent, Scalar, ONE
from cartaneds.exterior import Form, identity_substitution
from cartaneds.pfaffian import make_system
from cartaneds.ladder import (classify_constraint, redundant_assumption,
                              run, run_system)


def V(n):
    return Scalar.var(n)


def mechanics_locus(alpha, beta):
    from cartaneds.hamilton import (VariationalProblem, build_lepage_classical,
                                    grassmann_extend, hamilton_equations,
                                    solve_hamilton_locus)
    from cartaneds.exterior import volume_form
    ch = Chart(["t"], [Dependent("q1", "field"), Dependent("q2", "field"),
                       Dependent("v1", "jet", 0, ("q1", "t")),
                       Dependent("v2", "jet", 0, ("q2", "t"))])
    L = V("v1") ** 2 / 2 + V("q2") * V("v1") + (1 - alpha) * V("q1") * V("v2") \
        + Fraction(beta, 2) * (V("q1") - V("q2")) ** 2
    vp = VariationalProblem(chart=ch, lagrangian=volume_form(ch).scale(L), generators=[])
    ls = build_lepage_classical(vp, {"q1": ["p1"], "q2": ["p2"]})
    g = grassmann_extend(ls)
    return solve_hamilton_locus(ls, g, hamilton_equations(ls, g))


def test_free_particle_regime_single_fiber_step():
    lad = run(mechanics_locus(0, 0), seed=3)
    assert lad.verdict == "involutive"
    assert [s.kind for s in lad.steps] == ["zero_forms", "involutive"]
    assert lad.steps[0].new_fiber_constraints == [V("Zv1_t")]
    assert lad.steps[0].new_base_constraints == []


def test_constraint_chain_alpha0_beta1():
    lad = run(mechanics_locus(0, 1), seed=3)
    assert lad.verdict == "involutive"
    bases = [c for s in lad.steps for c in s.new_base_constraints]
    assert any(c == V("q1") - V("q2") for c in bases)
    assert any(c == V("v1") - V("v2") for c in bases)
    fibers = [c for s in lad.steps for c in s.new_fiber_constraints]
    assert any(c == V("Zv2_t") for c in fibers)


def test_classify_constraint():
    ch = Chart(["t"], [Dependent("v", "field"),
                       Dependent("Zv1", "grassmann", 1),
                       Dependent("Zq_x_x", "grassmann", 2)])
    assert classify_constraint(V("v"), ch) == ("base", 0)
    assert classify_constraint(V("Zv1"), ch) == ("fiber", 1)
    assert classify_constraint(V("Zq_x_x") + V("v"), ch) == ("fiber", 2)


def test_levels_strictly_increase_and_terminal_kinds():
    lad = run(mechanics_locus(1, 2), seed=3)
    levels = [s.level for s in lad.steps]
    assert levels == sorted(set(levels))
    assert lad.steps[-1].kind in ("involutive", "empty_locus")


def test_idempotence_at_fixpoint():
    lad = run(mechanics_locus(1, 2), seed=3)
    again = run_system(lad.final_system, identity_substitution(lad.final_system.chart), seed=3)
    assert again.verdict == "involutive"
    assert [s.kind for s in again.steps] == ["involutive"]
    assert again.steps[0].characters.s == lad.steps[-1].characters.s


def test_terminal_system_is_clean():
    lad = run(mechanics_locus(1, 2), seed=3)
    from cartaneds.pfaffian import essential_torsion, structure_equations
    assert lad.final_system.zero_forms == []
    assert essential_torsion(structure_equations(lad.final_system)) == []


def test_composed_substitution_is_resolved():
    lad = run(mechanics_locus(0, 1), seed=3)
    bound = set(lad.substitution.bindings)
    for value in lad.substitution.bindings.values():
        assert not (value.variables() & bound)


def test_budget_exceeded():
    lad = run(mechanics_locus(1, 2), seed=3, max_steps=2)
    assert lad.verdict == "budget_exceeded"
    with pytest.raises(ValueError):
        run(mechanics_locus(1, 2), seed=3, max_prolongations=0)


def test_needs_user_branch_on_irreducible_product():
    ch = Chart(["x"], [Dependent("u", "field"), Dependent("w", "field"),
                       Dependent("Zu", "grassmann", 1, ("u", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})
    sys = make_system(ch, [th], zero_forms=[V("u") * V("w") - V("u")])
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "needs_user_branch"


def test_torsion_step_needing_a_branch_keeps_its_characters():
    # du - x(uv - v) dy carries the essential torsion uv - v, a product of
    # unknowns with no factor that vanishes or is assumed nonzero
    ch = Chart(["x", "y"], [Dependent("u", "field"), Dependent("v", "field"),
                            Dependent("w", "field"),
                            Dependent("Zw", "grassmann", 1, ("w", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("y",): -V("x") * (V("u") * V("v") - V("v"))})
    sys = make_system(ch, [th, Form.differential(ch, "v"),
                           Form(ch, 1, {("w",): ONE, ("x",): -V("Zw")})])
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "needs_user_branch"
    assert lad.final_system is sys
    (step,) = lad.steps
    assert step.kind == "torsion"
    assert step.new_base_constraints == [V("u") * V("v") - V("v")]
    assert step.characters.s == step.characters_generic.s == (1, 0)


def test_branch_policy_drops_zero_factor():
    ch = Chart(["x"], [Dependent("u", "field"), Dependent("w", "field"),
                       Dependent("Zu", "grassmann", 1, ("u", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})
    sys = make_system(ch, [th],
                      zero_forms=[V("u") - V("w"), (V("u") - V("w")) * (V("Zu") - 1)])
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "involutive"
    assert lad.substitution.bindings["u"] == V("w")
    assert "Zu" not in lad.substitution.bindings  # the product was dropped


def test_branch_policy_divides_by_assumption():
    ch = Chart(["x"], [Dependent("u", "field"), Dependent("w", "field"),
                       Dependent("Zu", "grassmann", 1, ("u", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})
    sys = make_system(ch, [th], zero_forms=[(V("w") + 1) * (V("Zu") - 1)],
                      assumptions=[V("w") + 1])
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "involutive"
    assert lad.substitution.bindings["Zu"] == Scalar.const(1)


@pytest.mark.parametrize("c", [1, -2])
@pytest.mark.parametrize("k", [1, 9, 12])
def test_branch_policy_divides_every_power_of_an_assumption(k, c):
    # every power of the recorded factor goes, and a zero-form given with a
    # constant factor is the same constraint as its normalized copy
    ch = Chart(["x"], [Dependent("u", "field"), Dependent("w", "field"),
                       Dependent("Zu", "grassmann", 1, ("u", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})
    sys = make_system(ch, [th], zero_forms=[c * (V("w") + 1) ** k * (V("Zu") - 1)],
                      assumptions=[V("w") + 1])
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "involutive"
    assert lad.substitution.bindings["Zu"] == Scalar.const(1)


def test_empty_locus_verdict():
    ch = Chart(["x"], [Dependent("u", "field"),
                       Dependent("Zu", "grassmann", 1, ("u", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})
    sys = make_system(ch, [th], zero_forms=[V("u"), V("u") - 1])
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "empty"
    assert lad.steps[-1].kind == "empty_locus"
    assert lad.final_system is None


@pytest.mark.parametrize("zero_forms", [
    [V("x"), V("u") * V("v")],
    [V("u") - V("x"), V("u") * V("v"), V("u") - 1],
])
def test_empty_locus_wins_over_a_needed_branch(zero_forms):
    # a relation among the independents empties the locus whatever the
    # branch of u*v = 0, so the ladder ends empty after one step
    ch = Chart(["x"], [Dependent("u", "field"), Dependent("v", "field"),
                       Dependent("Zu", "grassmann", 1, ("u", "x"))])
    th = Form(ch, 1, {("u",): ONE, ("x",): -V("Zu")})
    sys = make_system(ch, [th], zero_forms=zero_forms)
    lad = run_system(sys, identity_substitution(ch), seed=1)
    assert lad.verdict == "empty"
    assert [s.kind for s in lad.steps] == ["empty_locus"]


def test_redundant_assumption():
    y = V("y")
    assert redundant_assumption(y ** 2, [y])
    assert redundant_assumption(3 * y, [y])
    assert not redundant_assumption(y + 1, [y])


@pytest.mark.parametrize("k", [2, 16, 20])
def test_redundant_assumption_any_power(k):
    y = Scalar.var("y")
    assert redundant_assumption(y ** k, [y])
    assert redundant_assumption(-3 * (y + 1) ** 2 * y ** k, [y, y + 1])
    assert not redundant_assumption((y - 1) * y ** k, [y])


def test_redundant_assumption_does_not_depend_on_list_order():
    # x is a factor of a: once x is divided out, a itself no longer divides
    # the quotient x^2 - y, but it still shares that factor with it
    x, y = V("x"), V("y")
    a = x ** 3 - x * y
    assert redundant_assumption(a, [x, a])
    assert redundant_assumption(a, [a, x])
    assert redundant_assumption(a, [x * (y + 1), (x ** 2 - y) * (y + 2)])
    assert not redundant_assumption(a, [x * (y + 1)])


def test_ladder_replay_reaches_same_final_system():
    # imposing all recorded base constraints at once on the initial system
    # reaches the same terminal system
    hl = mechanics_locus(0, 1)
    lad = run(hl, seed=3)
    bases = [c for s in lad.steps for c in s.new_base_constraints]
    from cartaneds.pfaffian import restrict
    replayed, _ = restrict(hl.pfaffian, bases)
    lad2 = run_system(replayed, identity_substitution(replayed.chart), seed=3)
    assert lad2.verdict == "involutive"
    assert [str(g) for g in lad2.final_system.generators] == \
        [str(g) for g in lad.final_system.generators]


def test_sundermeyer_locus_complement_is_remaining_velocity_slopes():
    hl = mechanics_locus(1, 2)
    assert hl.pfaffian.complement == ["Zv1_t", "Zv2_t"]


def test_trivial_closed_theta_single_involutive_step():
    from cartaneds.hamilton import build_lepage_explicit, grassmann_extend, solve_hamilton_locus
    ch = Chart(["x"], [Dependent("u", "field")])
    ls = build_lepage_explicit(ch, Form.differential(ch, "x"))
    g = grassmann_extend(ls)
    hl = solve_hamilton_locus(ls, g, [])
    lad = run(hl, seed=1)
    assert lad.verdict == "involutive"
    assert [s.kind for s in lad.steps] == ["involutive"]


def test_summarize_shape():
    from cartaneds.report import _steps_payload
    lad = run(mechanics_locus(1, 1), seed=3)
    assert lad.verdict == "involutive"
    assert all(set(step) == {"level", "kind", "base_constraints", "fiber_constraints",
                             "characters", "assumptions", "added_coordinates"}
               for step in _steps_payload(lad))


@pytest.mark.parametrize("name", ["strong-integrability", "field-prolongation"])
def test_structure_equations_built_once_per_system(monkeypatch, name):
    # every step after the zero-form restrictions reads torsion, characters,
    # the Cartan test and the prolongation off one build of the structure
    # equations, one absorption solve and one Cartan test
    from cartaneds import ladder, pfaffian
    from cartaneds.cli import fixture_text
    from cartaneds.problems import parse_problem
    from cartaneds.report import analyze
    calls = {n: 0 for n in ("structure_equations", "cartan_test", "essential_torsion")}
    for n in calls:
        original = getattr(pfaffian, n)

        def counted(*args, n=n, original=original, **kwargs):
            calls[n] += 1
            return original(*args, **kwargs)
        for module in (pfaffian, ladder):
            if getattr(module, n, None) is original:
                monkeypatch.setattr(module, n, counted)
    rep = analyze(parse_problem(fixture_text(name)))
    assert rep.verdict == "involutive"
    built = sum(s["kind"] != "zero_forms" for s in rep.steps)
    assert built == 7
    assert calls == dict.fromkeys(calls, built)
