"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance] criterion N: PASS` line (visible with
pytest -s) and enforces the stated runtime budget.  Symbolic expectations are
checked up to canonical form (content/sign-normalized constraints, membership
under the recorded substitutions); character lists are compared exactly
against the step records, which carry both the coordinate-flag flavor (the
reported one) and the generic flavor behind Cartan's test.
"""

import time
from fractions import Fraction

import pytest

from cartaneds.cli import fixture_text
from cartaneds.hamilton import DegreeMismatch, residual_check
from cartaneds.pfaffian import cartan_test, structure_equations
from cartaneds.problems import parse_problem
from cartaneds.report import analyze, emit, lepage_space
from cartaneds.scalars import Scalar


def V(n):
    return Scalar.var(n)


_CACHE = {}


def run_fixture(name, **params):
    key = (name, tuple(sorted(params.items())))
    if key not in _CACHE:
        doc = parse_problem(fixture_text(name),
                            param_overrides={k: Fraction(v) for k, v in params.items()})
        t0 = time.monotonic()
        rep = analyze(doc)
        _CACHE[key] = (rep, time.monotonic() - t0)
    return _CACHE[key]


def bindings_of(rep):
    return rep.ladder.substitution.bindings


def vanishes(expr, rep):
    return expr.substitute(bindings_of(rep)).is_zero()


def char_trail(rep):
    out = []
    for s in rep.ladder.steps:
        coord = s.characters.s if s.characters else None
        gen = s.characters_generic.s if s.characters_generic else None
        if coord is not None or gen is not None:
            out.append((s.kind, coord, gen))
    return out


def assert_char_sequence(rep, expected):
    """Every expected list must be attained (either flavor), in order."""
    trail = char_trail(rep)
    i = 0
    for want in expected:
        while i < len(trail) and want not in (trail[i][1], trail[i][2]):
            i += 1
        assert i < len(trail), f"character list {want} not found in order in {trail}"
        i += 1


def steps_of_kind(rep, kind):
    return [s for s in rep.ladder.steps if s.kind == kind]


def ok(n, msg):
    print(f"[acceptance] criterion {n}: PASS - {msg}")


# ---------------------------------------------------------------------------

def test_criterion_01_sundermeyer_case_1a():
    rep, secs = run_fixture("sundermeyer", alpha=1, beta=2)
    assert rep.verdict == "involutive"
    q12 = V("q1") - V("q2")
    for expr in (V("p1") - V("q2") - V("v2"), V("p2"),
                 V("v1") - 2 * q12, V("v2") - 2 * q12):
        assert vanishes(expr, rep)
    b = bindings_of(rep)
    assert b["Zq1_t"] == 2 * q12 and b["Zq2_t"] == 2 * q12
    assert secs < 5
    ok(1, f"case 1.A constraints and motion dq/dt = (beta/alpha)(q1-q2) in {secs:.2f}s")


def test_criterion_02_sundermeyer_case_1b():
    rep, secs = run_fixture("sundermeyer", alpha=1, beta=1)
    rep_a, _ = run_fixture("sundermeyer", alpha=1, beta=2)
    assert rep.verdict == "involutive"
    restrictions = [s for s in rep.ladder.steps if s.kind in ("zero_forms", "torsion")]
    restrictions_a = [s for s in rep_a.ladder.steps if s.kind in ("zero_forms", "torsion")]
    assert len(restrictions) < len(restrictions_a)
    b = bindings_of(rep)
    assert b["Zq1_t"] == V("q1") - V("q2")          # alpha (q1 - q2)
    assert "v2" not in b and "q2" not in b          # q2 unconstrained
    assert "v2" in rep.ladder.final_system.chart
    assert secs < 5
    ok(2, f"case 1.B terminates earlier, q2 free, in {secs:.2f}s")


def test_criterion_03_sundermeyer_case_2a():
    rep, secs = run_fixture("sundermeyer", alpha=0, beta=1)
    assert rep.verdict == "involutive"
    bases = [c for s in rep.ladder.steps for c in s.new_base_constraints]
    fibers = [c for s in rep.ladder.steps for c in s.new_fiber_constraints]
    i_q = next(i for i, c in enumerate(bases) if c == V("q1") - V("q2"))
    i_v = next(i for i, c in enumerate(bases) if c == V("v1") - V("v2"))
    assert i_q < i_v
    assert any(c == V("Zv2_t") for c in fibers)
    assert secs < 5
    ok(3, f"case 2.A chain q1=q2 -> v1=v2 -> Zv2=0, involutive, in {secs:.2f}s")


def test_criterion_04_sundermeyer_case_2b():
    rep, secs = run_fixture("sundermeyer", alpha=0, beta=0)
    assert rep.verdict == "involutive"
    assert [s.kind for s in rep.ladder.steps] == ["zero_forms", "involutive"]
    step = rep.ladder.steps[0]
    assert step.new_fiber_constraints == [V("Zv1_t")]
    assert step.new_base_constraints == []
    assert secs < 5
    ok(4, f"case 2.B: single fiber constraint Zv1=0, involutive immediately, in {secs:.2f}s")


def test_criterion_05_maxwell():
    rep, secs = run_fixture("maxwell")
    assert rep.verdict == "involutive"
    hl = rep.ladder.hamilton
    g = {1: Fraction(-1), 2: Fraction(1), 3: Fraction(1), 4: Fraction(1)}
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    # P proportional to F with one common derived constant
    consts = []
    for i, j in pairs:
        val = hl.solved.bindings[f"P_{i}{j}"] / (g[i] * g[j] * V(f"F_{i}{j}"))
        consts.append(val.as_constant())
    assert all(c == consts[0] and c is not None for c in consts)
    # true equations of motion: the P-divergences vanish on G0
    def zp(i, k, x):
        return V(f"ZP_{i}{k}_x_{x}") if i < k else -V(f"ZP_{k}{i}_x_{x}")
    for i in range(1, 5):
        div = sum((zp(i, k, k) for k in range(1, 5) if k != i), Scalar.const(0))
        assert div.substitute(hl.solved.bindings).is_zero()
    # ladder shape: zero-forms, then torsion with characters (10,9,7,4)
    kinds = [s.kind for s in rep.ladder.steps]
    assert kinds == ["zero_forms", "torsion", "involutive"]
    torsion_step = rep.ladder.steps[1]
    assert torsion_step.characters.s == (10, 9, 7, 4)
    assert len(torsion_step.new_fiber_constraints) == 4
    # essential torsion is equivalent to the cyclic sums
    for (i, j, k) in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
        def zf(a, b, x):
            return V(f"ZF_{a}{b}_x_{x}") if a < b else -V(f"ZF_{b}{a}_x_{x}")
        cyc = zf(i, j, k) + zf(k, i, j) + zf(j, k, i)
        assert vanishes(cyc, rep)
    assert rep.ladder.steps[2].characters.s == (10, 9, 6, 1)
    assert b"characters: [10, 9, 6, 1]" in emit(rep, "text")
    assert secs < 120
    print(f"[acceptance]   derived P = c * g g F with c = {consts[0]} (source text: 1/32)")
    ok(5, f"Maxwell ladder with characters (10,9,7,4) -> (10,9,6,1) in {secs:.2f}s")


def test_criterion_06_integrability():
    rep, secs = run_fixture("integrability")
    hl = rep.ladder.hamilton
    b = hl.solved.bindings
    assert b["Zu_y"].is_zero()
    assert (V("y") * V("Zu_x") + V("Zu_z")).substitute(b).is_zero()
    assert (V("y") * V("Zp1_x") + V("Zp1_z") + V("Zp2_y")).substitute(b).is_zero()
    torsion_steps = steps_of_kind(rep, "torsion")
    assert len(torsion_steps) == 1
    assert torsion_steps[0].new_fiber_constraints == [V("Zu_z")]
    assert rep.verdict == "involutive"
    assert secs < 10
    ok(6, f"integrability model: torsion exactly {{Zu_z}} in {secs:.2f}s")


def test_criterion_07_strong_integrability():
    rep, secs = run_fixture("strong-integrability")
    assert rep.verdict == "involutive"
    # characters: initial (7,6,5); post-torsion (7,5,2); after the first
    # prolongation's torsion restriction (12,5,2); then (17,6,1)
    assert_char_sequence(rep, [(7, 6, 5), (7, 5, 2), (12, 5, 2), (17, 6, 1)])
    steps = rep.ladder.steps
    first_prolong = next(i for i, s in enumerate(steps) if s.kind == "prolongation")
    after = steps[first_prolong + 1]
    assert after.kind == "torsion"
    assert after.new_fiber_constraints == [V("Zq_x_x")]
    second_prolong = next(i for i, s in enumerate(steps)
                          if s.kind == "prolongation" and i > first_prolong)
    after2 = steps[second_prolong + 1]
    assert after2.kind == "torsion"
    assert after2.new_fiber_constraints == [V("Zr_x_x_z")]
    # no base-coordinate restrictions anywhere
    assert all(not s.new_base_constraints for s in steps)
    assert sum(1 for s in steps if s.kind == "prolongation") == 3
    assert secs < 300
    ok(7, f"strong-integrability: 3 prolongations, torsions Zq_x_x and Zr_x_x_z, "
          f"characters through (17,6,1), in {secs:.2f}s")


@pytest.mark.xfail(strict=True, reason=(
    "the source's final character list {22,8,1} has weighted sum 41, but the "
    "final system's integral-element fiber dimension is exactly 40 (verified "
    "symbolically), which Cartan's test requires to equal the weighted sum of "
    "generic characters; the list is attainable under no flag convention here "
    "- see the decisions ledger"))
def test_criterion_07_final_characters_as_printed():
    rep, _ = run_fixture("strong-integrability")
    final = rep.ladder.steps[-1]
    assert final.kind == "involutive"
    assert (22, 8, 1) in (final.characters.s, final.characters_generic.s)


def test_criterion_08_field_prolongation():
    rep, secs = run_fixture("field-prolongation")
    assert rep.verdict == "involutive"
    hl = rep.ladder.hamilton
    y = V("y")
    legendre = [V("At") - V("u_t"), V("Ax") - y * V("u_x"), V("Ay") - V("v_y"),
                V("By") - V("u_y"), V("Bt"), V("Bx"), V("Ct"), V("Cx"), V("Cy")]
    for expr in legendre:
        assert expr.substitute(hl.solved.bindings).is_zero()
    steps = rep.ladder.steps
    assert steps[0].kind == "zero_forms"
    assert V("v") in steps[0].new_base_constraints
    later_bases = [c for s in steps[1:] for c in s.new_base_constraints]
    for n in ("v_t", "v_x", "v_y"):
        assert V(n) in later_bases
    first_prolong = next(i for i, s in enumerate(steps) if s.kind == "prolongation")
    after = steps[first_prolong + 1]
    assert after.kind == "torsion"
    third_order = (2 * V("ZAx_x") - 2 * y * V("ZAx_x_y")
                   - y ** 2 * V("Zw_t_t") - y ** 3 * V("Zw_x_x")).constraint_normal()
    assert third_order in after.new_fiber_constraints
    assert_char_sequence(rep, [(6, 3, 1), (9, 3, 0), (11, 2, 0)])
    assert secs < 300
    ok(8, f"field theory with prolongations: v=0 chain, third-order torsion, "
          f"characters (6,3,1)->(9,3,0)->(11,2,0), in {secs:.2f}s")


def test_criterion_09_affine():
    rep, secs = run_fixture("affine")
    assert rep.verdict == "involutive"
    hl = rep.ladder.hamilton
    assert hl.base_constraints == [V("y1") - V("y2")]
    zero_steps = steps_of_kind(rep, "zero_forms")
    assert zero_steps[0].new_fiber_constraints == [V("Zy1_x1") - V("Zy2_x1"),
                                                   V("Zy1_x2") - V("Zy2_x2")]
    assert secs < 10
    ok(9, f"affine model: base y1=y2, fiber Y1_i=Y2_i via branch policy, in {secs:.2f}s")


def test_criterion_10_saunders():
    rep, secs = run_fixture("saunders")
    assert rep.verdict == "involutive"
    hl = rep.ladder.hamilton
    for expr in (V("u_x") + V("n"), V("w_x") + V("v_y") + V("q"),
                 V("p"), V("s"), V("m"), V("r") + V("n")):
        assert expr.substitute(hl.solved.bindings).is_zero()
    torsion_steps = steps_of_kind(rep, "torsion")
    want = (V("y") * V("w_y") + V("w")).constraint_normal()
    assert any(want in s.new_base_constraints for s in torsion_steps)
    assumptions = [a for s in rep.steps for a in s["assumptions"]]
    assumptions += rep.problem["hamilton"]["assumptions"]
    assert "y != 0" in assumptions
    final = rep.ladder.steps[-1]
    assert final.kind == "involutive"
    assert (4, 0) in (final.characters.s, final.characters_generic.s)
    assert secs < 30
    ok(10, f"saunders: locus relations, torsion containing y*w_y + w, assumption "
           f"y != 0, terminal characters (4,0), in {secs:.2f}s")


def test_criterion_11_property_suites():
    import test_exterior as ext
    for fn in (ext.test_dd_is_zero, ext.test_graded_anticommutativity,
               ext.test_d_is_antiderivation, ext.test_pullback_commutes_with_d):
        assert fn._hypothesis_internal_use_settings.max_examples >= 500
    # residual_check on every Hamilton locus; involutive fixpoints verified
    fixtures = [("sundermeyer", {"alpha": 1, "beta": 2}),
                ("sundermeyer", {"alpha": 1, "beta": 1}),
                ("sundermeyer", {"alpha": 0, "beta": 1}),
                ("sundermeyer", {"alpha": 0, "beta": 0}),
                ("maxwell", {}), ("integrability", {}),
                ("strong-integrability", {}), ("field-prolongation", {}),
                ("affine", {}), ("saunders", {})]
    for name, params in fixtures:
        rep, _ = run_fixture(name, **params)
        doc = parse_problem(fixture_text(name),
                            param_overrides={k: Fraction(v) for k, v in params.items()})
        assert residual_check(rep.ladder.hamilton, lepage_space(doc)), name
        report = cartan_test(structure_equations(rep.ladder.final_system), seed=rep.seed)
        assert report.involutive
        assert report.prolongation_dim == report.cartan_sum
    # seed determinism: every report byte-exact across repeated fresh runs
    for name, params in fixtures:
        doc1 = parse_problem(fixture_text(name),
                             param_overrides={k: Fraction(v) for k, v in params.items()})
        doc2 = parse_problem(fixture_text(name),
                             param_overrides={k: Fraction(v) for k, v in params.items()})
        assert emit(analyze(doc1), "structured") == emit(analyze(doc2), "structured")
    ok(11, "law suites >= 500 cases, residual checks, Cartan equality at fixpoints, "
           "byte-exact determinism")


def test_criterion_12_negative_fixtures():
    with pytest.raises(DegreeMismatch, match="vertical degree 2") as err:
        doc = parse_problem(fixture_text("vacuous-lepage"))
        analyze(doc)
    assert "vacuous" in str(err.value)
    rep = analyze(parse_problem(fixture_text("inconsistent")))
    assert rep.verdict == "empty"
    assert rep.steps == []
    from cartaneds.cli import main
    import cartaneds.cli as cli_mod
    from pathlib import Path
    fixdir = Path(cli_mod.__file__).parent / "fixtures"
    assert main(["analyze", str(fixdir / "vacuous-lepage.prob")]) == 65
    assert main(["analyze", str(fixdir / "inconsistent.prob")]) == 1
    ok(12, "vacuous Lepage space diagnosed (exit 65); inconsistent system exits empty (1)")
