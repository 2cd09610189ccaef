import random
import signal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cartaneds import poly, scalars
from cartaneds.poly import DomainError, p_add, p_gcd, p_leading, p_mul, p_sub
from cartaneds.scalars import (_PRIMES, SAMPLES, AllSamplesDegenerate, Chart,
                               Dependent, Scalar, ONE, ZERO, SeedStream, generic_ranks,
                               _linear_split, add_into, rank_fractions, random_rank,
                               sample_point, solve_linear, solve_rows, term_ranks)


def V(name):
    return Scalar.var(name)


def C(value):
    return Scalar.const(value)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_gcd_cancellation():
    x, y = V("x"), V("y")
    assert (x ** 2 - y ** 2) / (x - y) == x + y


def test_gcd_of_bivariate_pair_terminates():
    # the pseudo-remainder sequence of this coprime pair used to grow its
    # rational coefficients without bound and ran for minutes
    x, y = V("x"), V("y")
    num = x ** 4 - 3 * x ** 3 * y - Fraction(13, 2) * x * y ** 4 - x * y ** 3 \
        + Fraction(7, 2) * y ** 3 - 3
    den = Fraction(7, 3) * x ** 4 * y ** 3 - 5 * x ** 3 * y ** 4 \
        - Fraction(7, 2) * x ** 4 * y ** 2 - 2 * x ** 3 * y ** 3 + Fraction(1, 3) * x ** 2 \
        - Fraction(2, 3) * x * y ** 2 - Fraction(2, 3) * y ** 3

    def timed_out(signum, frame):
        raise TimeoutError("p_gcd did not finish within 20 s")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(20)
    try:
        q = num / den
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert q * den == num
    assert q.den == (den * 6).num  # coprime: only the rational content moves


def test_trivariate_sum_gcd_is_exact_and_bounded():
    # five rational terms in x, u, y over affine factors: the last sum takes
    # about 1.3 s on a 2-core x86 host, most of it in p_gcd's content gcds
    # and pseudo-remainder sequence
    x, u, y = V("x"), V("u"), V("y")
    r = random.Random(3)

    def aff():
        return r.randint(-3, 3) + r.randint(-3, 3) * x + r.randint(-3, 3) * u \
            + r.randint(-3, 3) * y
    terms = []
    for k in range(5):
        num = C(1)
        for _ in range(k + 1):
            num = num * aff()
        terms.append(num / ((x + 1) ** (k % 3) * aff() * aff()))
    acc = terms[0] + terms[1] + terms[2] + terms[3]

    def timed_out(signum, frame):
        raise TimeoutError("the trivariate sum did not finish within 20 s")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(20)
    try:
        total = acc + terms[4]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    points = random.Random(5)
    checked = 0
    while checked < 3:
        point = {n: Fraction(points.randint(-9, 9), points.randint(1, 5)) for n in "xuy"}
        try:
            want = sum(t.evaluate(point) for t in terms)
        except ZeroDivisionError:  # a pole of some term
            continue
        assert total.evaluate(point) == want
        checked += 1


def test_commutativity_cancels():
    x, y = V("x"), V("y")
    assert (x * y - y * x).is_zero()


def test_parameter_binding_normalization():
    # beta*(q1 - q2) - alpha*v2 with beta = 2, alpha = 1
    beta, alpha = Fraction(2), Fraction(1)
    s = beta * (V("q1") - V("q2")) - alpha * V("v2")
    assert str(s) == "2*q1 - 2*q2 - v2"


def test_zero_is_unique():
    x = V("x")
    z = (x + 1) - x - 1
    assert z.is_zero()
    assert z == ZERO
    assert z.num == {} and z.den == {(): 1}


def test_is_zero_examples():
    x, y = V("x"), V("y")
    assert C(0).is_zero()
    assert ((x + y) - x - y).is_zero()
    assert not (y * V("w") ** 2).is_zero()


def test_denominator_sign_normalized():
    x = V("x")
    a = C(1) / (C(0) - x)
    b = C(-1) / x
    assert a == b


def test_division_by_zero_polynomial():
    with pytest.raises(DomainError):
        V("x") / (V("x") - V("x"))


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------

def test_partial_examples():
    y, w = V("y"), V("w")
    assert (y * w ** 2).partial("y") == w ** 2
    ux, wx, vy = V("u_x"), V("w_x"), V("v_y")
    assert (ux * (wx + vy)).partial("u_x") == wx + vy
    assert (C(1) / y).partial("y") == C(-1) / (y ** 2)


def test_partial_cancels_a_denominator_factor_free_of_the_variable():
    # for a/b = (x + 1 + xy)/(y^2 (x + 1)), a'b - ab' = y^3: y does not
    # involve x, and its multiplicity 3 exceeds the 2 that
    # gcd(a'b - ab', b) = y^2 takes out of b^2
    x, y = V("x"), V("y")
    got = ((x + 1 + x * y) / (y ** 2 * (x + 1))).partial("x")
    assert got == ONE / (y * (x + 1) ** 2)
    assert_canonical(got)


@st.composite
def repeated_factor_quotient(draw):
    """a/b over Q[x, y] with b a product of powers of one or two nonconstant
    factors of degree at most 1 in each variable, built by the general
    constructor."""
    coeff = st.integers(-3, 3)

    def poly():
        total = C(0)
        for _ in range(draw(st.integers(1, 3))):
            total = total + Fraction(draw(coeff), draw(st.integers(1, 3))) \
                * V("x") ** draw(st.integers(0, 1)) * V("y") ** draw(st.integers(0, 1))
        return total

    den = ONE
    for _ in range(draw(st.integers(1, 2))):
        factor = poly()
        assume(factor.as_constant() is None)
        den = den * factor ** draw(st.integers(1, 3))
    return poly() / den


@settings(max_examples=150, deadline=None)
@given(repeated_factor_quotient(), st.sampled_from("xy"))
def test_partial_equals_canonicalization_from_scratch(s, name):
    a, b = s.num, s.den
    want = Scalar(p_sub(p_mul(poly.p_diff(a, name), b), p_mul(a, poly.p_diff(b, name))),
                  p_mul(b, b))
    got = s.partial(name)
    assert got.num == want.num and got.den == want.den
    assert_canonical(got)


def test_substitute_examples():
    q1, q2 = V("q1"), V("q2")
    assert (q1 - q2).substitute({"q1": q2}).is_zero()
    x = V("x")
    assert x.substitute({}) == x
    L = V("q") ** 2 + V("v")
    p, pl, vl = V("p"), V("pl"), V("vl")
    expr = p - (L - pl * vl)
    assert expr.substitute({"p": L - pl * vl}).is_zero()


def test_substitute_zero_denominator():
    y = V("y")
    s = C(1) / y
    with pytest.raises(DomainError):
        s.substitute({"y": ZERO})


# ---------------------------------------------------------------------------
# linear solving
# ---------------------------------------------------------------------------

def test_solve_linear_legendre_relations():
    # alpha = 1 specialization
    p1, p2, q1, q2, v2 = (V(n) for n in ("p1", "p2", "q1", "q2", "v2"))
    res = solve_linear([p1 - q2 - v2, p2 - (1 - 1) * q1], ["p1", "p2"])
    assert res.solved["p1"] == q2 + v2
    assert res.solved["p2"] == ZERO
    assert res.residual == []


def test_solve_linear_trivial_equation():
    x = V("x")
    res = solve_linear([x - x], ["x"])
    assert res.solved == {}
    assert res.free == ["x"]
    assert res.residual == []


def test_solve_linear_inconsistent():
    a, z = V("a"), V("z")
    res = solve_linear([a * z - 1, a * z - 2], ["z"])
    assert res.solved["z"] == C(1) / a
    assert len(res.residual) == 1
    assert res.residual[0].as_constant() is not None
    assert res.residual[0].as_constant() != 0
    assert a in res.assumptions  # nonconstant pivot recorded


def test_solve_linear_rejects_quadratic():
    # a quadratic equation is set aside, not solved and not a residual
    z = V("z")
    res = solve_linear([z ** 2 - 1], ["z"])
    assert res.nonlinear == [z ** 2 - 1]
    assert res.solved == {} and res.residual == [] and res.free == ["z"]


def test_solve_linear_sets_nonlinear_aside_in_input_order():
    # the linear equations are still solved, and their residual is kept
    # apart from the equations set aside
    u, v, w, x = V("u"), V("v"), V("w"), V("x")
    eqs = [u * v, u - x, w / u, v ** 2 - 1, u - 1]
    res = solve_linear(eqs, ["u", "v", "w"])
    assert res.nonlinear == [u * v, w / u, v ** 2 - 1]
    assert res.solved == {"u": x}
    assert res.residual == [x - 1]
    assert res.free == ["v", "w"]


def test_solve_linear_triangular_resolution():
    a, b, c = V("a"), V("b"), V("c")
    res = solve_linear([a - b, b - c], ["a", "b"])
    # a's right-hand side must not mention b (which is itself solved)
    assert res.solved["a"] == c
    assert res.solved["b"] == c


@st.composite
def small_scalar(draw, names=("x", "y", "z")):
    total = C(0)
    for _ in range(draw(st.integers(0, 3))):
        term = C(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        for n in names:
            term = term * V(n) ** draw(st.integers(0, 2))
        total = total + term
    return total


@settings(max_examples=200, deadline=None)
@given(small_scalar(), small_scalar(), small_scalar())
def test_field_laws(a, b, c):
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()
    assert (a * b - b * a).is_zero()
    if not a.is_zero():
        assert (a * (ONE / a) - 1).is_zero()


@settings(max_examples=150, deadline=None)
@given(small_scalar(), small_scalar())
def test_canonical_form_idempotent(a, b):
    if b.is_zero():
        b = b + 1
    s = a / b
    again = Scalar(dict(s.num), dict(s.den))
    assert again.num == s.num and again.den == s.den


def assert_canonical(s):
    """gcd(num, den) = 1 and den is an integer polynomial with content 1 and
    a positive grlex leading coefficient; zero is 0/1."""
    if not s.num:
        assert s.den == {(): 1}
        return
    assert p_gcd(s.num, s.den) == {(): 1}
    assert all(c.denominator == 1 for c in s.den.values())
    assert gcd(*(c.numerator for c in s.den.values())) == 1
    assert p_leading(s.den)[1] > 0


def assert_coefficients_normal(s):
    """Numerator coefficients are ints, or Fractions that are no integer;
    denominator coefficients are ints."""
    for c in s.num.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
    assert all(type(c) is int for c in s.den.values()), s.den


@settings(max_examples=150, deadline=None)
@given(small_scalar(("x", "y")), small_scalar(("x", "y")), small_scalar(("x", "y")),
       st.sampled_from("xy"))
def test_coefficients_are_ints_where_integral(a, b, c, name):
    # two variables: a quotient of two trivariate quotients can reach the
    # pseudo-remainder gcd, which takes seconds (ROADMAP item 3)
    results = [a + b, a - b, a * b, a.partial(name), (a * b + c).partial(name)]
    if not b.is_zero():
        q = a / b
        results += [q, q + c, q - c, q * c, q.partial(name)]
        if not c.is_zero():
            results += [q / c, (q / c).partial(name)]
        try:
            results.append(q.substitute({name: c}))
        except DomainError:
            pass
    for s in results:
        assert_coefficients_normal(s)


def test_exact_quotient_by_an_integer_is_rational():
    q = poly.p_div_exact(p_add(poly.p_var("x"), poly.p_const(1)), poly.p_const(2))
    assert q == {(("x", 1),): Fraction(1, 2), (): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in q.values())


@settings(max_examples=100, deadline=None)
@given(small_scalar(), small_scalar())
def test_kernels_leave_their_arguments_unchanged(a, b):
    # a product by 1 may return the other factor itself, which is safe only
    # while no kernel updates a polynomial it was given
    polys = [a.num, b.num, a.den, (a / b).den if not b.is_zero() else b.den,
             poly.p_const(1), poly.p_const(Fraction(-2, 3))]
    for p in polys:
        for q in polys:
            before = dict(p), dict(q)
            p_add(p, q)
            pq = p_mul(p, q)
            p_gcd(p, q)
            if q:
                poly.p_div_exact(p, q)
                poly.p_div_exact(pq, q)
            assert (p, q) == before


@st.composite
def rational_pair(draw):
    """Two rational functions over Q[x, y] with nonconstant denominators,
    built by the general constructor; a drawn factor is often shared between
    denominators and across numerators and denominators."""
    xy = ("x", "y")
    coeff = st.integers(-3, 3)

    def poly():
        # up to two terms of degree at most 1 in each of x and y
        total = C(0)
        for _ in range(draw(st.integers(1, 2))):
            total = total + draw(coeff) * V("x") ** draw(st.integers(0, 1)) \
                * V("y") ** draw(st.integers(0, 1))
        return total.num or {(): Fraction(1)}

    common = poly()

    def part(denominator):
        p = poly()
        if denominator:
            # a factor c0 + c1*v + c2*w with c1 != 0 keeps it nonconstant
            v, w = draw(st.permutations(xy))
            linear = C(draw(coeff)) + draw(coeff.filter(bool)) * V(v) + draw(coeff) * V(w)
            p = p_mul(p, linear.num)
        return p_mul(p, common) if draw(st.booleans()) else p

    a, b = Scalar(part(False), part(True)), Scalar(part(False), part(True))
    assume(a.den != {(): 1} and b.den != {(): 1})
    return a, b


@settings(max_examples=60, deadline=None)
@given(rational_pair())
def test_arithmetic_equals_canonicalization_from_scratch(pair):
    a, b = pair
    # the second pair mostly has equal denominators; in the third, the sum
    # b - a + a must cancel against the shared factor of the denominators
    for f, g in (pair, (a, Scalar(b.num, a.den)), (b - a, a)):
        cross = p_mul(f.den, g.den)
        expected = [(f + g, Scalar(p_add(p_mul(f.num, g.den), p_mul(g.num, f.den)), cross)),
                    (f - g, Scalar(p_sub(p_mul(f.num, g.den), p_mul(g.num, f.den)), cross)),
                    (f * g, Scalar(p_mul(f.num, g.num), cross)),
                    (f / g, Scalar(p_mul(f.num, g.den), p_mul(f.den, g.num)))]
        for got, want in expected:
            assert got.num == want.num and got.den == want.den
            assert_canonical(got)


def grlex_cmp(a, b):
    """Reference graded lex comparison of monomials: 1 when a > b, -1 when
    a < b, 0 when equal; ties in degree go to the larger exponent at the
    first name (ascending) where the two differ."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ea, eb = dict(a), dict(b)
    for n in sorted(set(ea) | set(eb)):
        if ea.get(n, 0) != eb.get(n, 0):
            return 1 if ea.get(n, 0) > eb.get(n, 0) else -1
    return 0


monomials = st.dictionaries(st.sampled_from([f"x{i}" for i in range(8)]),
                            st.integers(1, 3), max_size=4) \
    .map(lambda exps: tuple(sorted(exps.items())))


@settings(max_examples=500, deadline=None)
@given(monomials, monomials)
def test_monomial_key_is_the_grlex_order(a, b):
    # the leading (grlex-largest) monomial sorts first
    ka, kb = poly._mono_key(a), poly._mono_key(b)
    assert (ka < kb) - (ka > kb) == grlex_cmp(a, b)
    if a != b:
        lead = a if grlex_cmp(a, b) > 0 else b
        assert p_leading({a: Fraction(1), b: Fraction(2)})[0] == lead


def count_calls(monkeypatch, calls, *names):
    """Record every call of the named poly kernels in `calls`, both the calls
    Scalar makes through its scalars binding and the recursive calls inside
    poly."""
    for name in names:
        kernel = getattr(poly, name)

        def counted(*args, name=name, kernel=kernel):
            calls.append((name,) + args)
            return kernel(*args)
        monkeypatch.setattr(poly, name, counted)
        monkeypatch.setattr(scalars, name, counted)


def test_trivial_operands_skip_the_gcd(monkeypatch):
    x, y = V("x"), V("y")
    s = (x ** 2 + y) / (3 * x * y + 1)
    scaled = Scalar({m: c * Fraction(2, 3) for m, c in s.num.items()}, s.den)
    a, b = (x + 2) / (x + 1), (y - 3) / (y + 1)
    calls = []
    count_calls(monkeypatch, calls, "p_gcd", "p_div_exact")
    assert s + 0 == s and 0 + s == s and s - 0 == s
    assert s * 1 == s and 1 * s == s
    assert s * Fraction(2, 3) == scaled and C(Fraction(2, 3)) * s == scaled
    assert calls == []
    total = a + b
    # Henrici: coprime denominators leave nothing to cancel in the sum
    assert calls == [("p_gcd", a.den, b.den)]
    monkeypatch.undo()
    assert total == Scalar(p_add(p_mul(a.num, b.den), p_mul(b.num, a.den)), p_mul(a.den, b.den))


def test_gcd_with_a_monomial_takes_no_remainder_sequence(monkeypatch):
    # Henrici with denominators u^2 y and u y^2: gcd(b, d) = u y and
    # gcd(numerator, u y) = 1 are both read off the common monomial
    x, u, y = V("x"), V("u"), V("y")
    a = ((x + u + y + 1) ** 2 - 3 * x * u * y) / (u ** 2 * y)
    b = ((2 * x - u + 3 * y - 1) ** 2 + x * u) / (u * y ** 2)
    calls = []
    count_calls(monkeypatch, calls, "p_gcd")
    total = a + b
    assert len(calls) == 2
    monkeypatch.undo()
    assert total == Scalar(p_add(p_mul(a.num, b.den), p_mul(b.num, a.den)), p_mul(a.den, b.den))
    assert total.den == (u ** 2 * y ** 2).num
    assert p_gcd((x * u ** 2 * y + u * y ** 3).num, (u ** 3 * y ** 2).num) == (u * y).num


def _span_contains(base, extra):
    """Rational-span membership via monomial coefficient vectors."""
    monos = sorted({m for s in base + [extra] for m in s.num})
    rows = [[s.num.get(m, Fraction(0)) for m in monos] for s in base]
    row = [extra.num.get(m, Fraction(0)) for m in monos]
    return exact_rank(rows) == exact_rank(rows + [row])


affine_rows = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                small_scalar(("x", "y"))), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(affine_rows)
def test_solve_linear_back_substitution(rows):
    # equations with rational coefficients on the unknowns and arbitrary
    # scalar inhomogeneities: substituting `solved` back must land every
    # equation in the rational span of the residual scalars
    u, v = V("u"), V("v")
    eqs = [C(a) * u + C(b) * v + s for a, b, s in rows]
    res = solve_linear(eqs, ["u", "v"])
    for eq in eqs:
        r = eq.substitute(res.solved)
        if not res.residual:
            assert r.is_zero()
        elif not r.is_zero():
            assert _span_contains(res.residual, r)


@settings(max_examples=100, deadline=None)
@given(affine_rows)
def test_solve_rows_leaves_no_zero_coefficient(rows):
    # the coefficient dicts are updated in place; an entry whose sum cancels
    # is removed, not kept as an explicit zero
    u, v = V("u"), V("v")
    split = [_linear_split(C(a) * u + C(b) * v + s, ["u", "v"]) for a, b, s in rows]
    coeffs = [c for c, _ in split]
    res = solve_rows(split, ["u", "v"])
    assert all(not c.is_zero() for row in coeffs for c in row.values())
    assert all(not r.is_zero() for r in res.residual)


def test_add_into_inserts_accumulates_and_drops_cancelled_keys():
    row = {}
    add_into(row, "u", C(2))
    assert row == {"u": C(2)}
    add_into(row, "u", V("x"))
    add_into(row, "v", C(1))
    assert row == {"u": V("x") + 2, "v": C(1)}
    add_into(row, "u", -V("x") - 2)
    assert row == {"v": C(1)}
    add_into(row, "w", ZERO)
    assert row == {"v": C(1)}


# ---------------------------------------------------------------------------
# randomized rank
# ---------------------------------------------------------------------------

def exact_rank(rows):
    """Independent oracle: fraction Gaussian elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    while rank < len(mat) and mat and col < len(mat[0]):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = [v / mat[rank][col] for v in mat[rank]]
        mat[rank] = prow
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * p for v, p in zip(mat[r], prow)]
        rank += 1
        col += 1
    return rank


def reduce_mod(value, p):
    """A Fraction modulo p, which must not divide its denominator."""
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def mod_rows(rows, p):
    """rank_fractions' input for rows of Fractions: their residues mod p."""
    return [{c: reduce_mod(v, p) for c, v in row.items()} for row in rows]


def sparse(matrix):
    """random_rank's input for a dense matrix of scalars: its nonzero entries."""
    return [{j: c for j, c in enumerate(row) if not c.is_zero()} for row in matrix]


def test_random_rank_identity():
    I3 = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert random_rank(sparse(I3), seed=1) == 3


def test_random_rank_proportional_rows():
    x = V("x")
    assert random_rank(sparse([[x, x], [ONE, ONE]]), seed=3) == 1


def test_random_rank_contact_tableau():
    # the 1x3 tableau of the contact system on J1(R^3, R) contracted with a
    # generic direction: entries (v1, v2, v3), rank 1
    v = [V("v1"), V("v2"), V("v3")]
    assert random_rank(sparse([v]), seed=5) == 1


def test_random_rank_determinism():
    x, y = V("x"), V("y")
    m = [[x, y, x * y], [y, x, x + y], [x + y, x - y, ONE]]
    a = random_rank(sparse(m), seed=42)
    b = random_rank(sparse(m), seed=42)
    assert a == b


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_random_rank_matches_exact_rank_on_rationals(rows):
    scalars = [[C(v) for v in r] for r in rows]
    assert random_rank(sparse(scalars), seed=11) == exact_rank(rows)


@settings(max_examples=150, deadline=None)
@given(small_scalar(), small_scalar(), st.sampled_from(_PRIMES),
       st.lists(st.integers(-30, 30), min_size=3, max_size=3))
def test_residue_is_the_reduction_of_the_rational_value(a, b, p, coords):
    assume(not b.is_zero())
    s = a / b
    assume(s.den != {(): 1})
    got = s.residue({n: v % p for n, v in zip("xyz", coords)}, p)
    if got is not None:
        assert got == reduce_mod(s.evaluate(dict(zip("xyz", map(Fraction, coords)))), p)


def test_residue_is_none_without_a_value_mod_p():
    P1, P2 = _PRIMES
    x, y = V("x"), V("y")
    # P1 divides a coefficient's denominator: no value mod P1 at any point
    s = x / P1 + 1
    assert s.residue({"x": 3}, P1) is None
    assert s.residue({"x": 3}, P2) == reduce_mod(Fraction(3, P1) + 1, P2)
    # a denominator that vanishes at the point
    t = ONE / (x - y)
    for p in _PRIMES:
        assert t.residue({"x": 5, "y": 5}, p) is None
        assert t.residue({"x": 5, "y": 4}, p) == 1


def test_a_point_on_a_pole_is_redrawn(monkeypatch):
    x, y = V("x"), V("y")
    points = iter([{"x": 1, "y": 1}, {"x": 2, "y": 1}])
    monkeypatch.setattr(scalars, "sample_point", lambda names, stream, p: next(points))
    assert random_rank(sparse([[ONE / (x - y)]]), seed=0) == 1
    assert next(points, None) is None


def test_sampling_stops_at_full_rank(monkeypatch):
    calls = []
    rank = scalars.rank_fractions
    monkeypatch.setattr(scalars, "rank_fractions", lambda *a: calls.append(1) or rank(*a))
    x = V("x")
    assert random_rank(sparse([[x, ONE], [ONE, x]]), seed=2) == 2
    assert len(calls) == 1
    calls.clear()
    assert random_rank(sparse([[x, x], [ONE, ONE]]), seed=3) == 1
    assert len(calls) == SAMPLES


def test_no_usable_prime_is_not_rank_zero():
    # a rank-2 matrix whose entries have a denominator divisible by both primes
    P1, P2 = _PRIMES
    f = Fraction(1, P1 * P2)
    with pytest.raises(AllSamplesDegenerate):
        random_rank(sparse([[C(f), ZERO], [ZERO, C(f)]]), seed=0)
    # the sampling kernel redraws such a point instead of counting it
    good = ([{0: 1}, {1: 1}], [2])
    draws = iter([None, None] + [good] * SAMPLES)
    assert generic_ranks(lambda point, p: next(draws), [], SeedStream(0)) == (2,)


def test_generic_ranks_keep_each_block_at_its_best_sample():
    # every sampled block rank can only fall short, so each block keeps its
    # largest sample: (3, 4) and (2, 5) give (3, 5), not the larger tuple
    unit = [{c: 1} for c in range(5)]
    samples = [(unit[:4] + unit[:2], [3, 6]), (unit[:2] + [unit[0]] + unit[2:], [3, 6])]
    assert [rank_fractions(*m, _PRIMES[0]) for m in samples] == [(3, 4), (2, 5)]
    draws = iter(samples * SAMPLES)
    assert generic_ranks(lambda point, p: next(draws), [], SeedStream(0)) == (3, 5)


@st.composite
def sparse_blocks(draw):
    """A sparse rational matrix as {column: entry} rows, and nondecreasing
    block cuts into its rows."""
    ncols = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
                         max_size=8))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return rows, cuts


def _dense(rows):
    ncols = 1 + max((c for row in rows for c in row), default=0)
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_blocks(), st.sampled_from(_PRIMES))
def test_prefix_ranks_match_exact_rank(case, p):
    rows, cuts = case
    assert rank_fractions(mod_rows(rows, p), cuts, p) == tuple(exact_rank(_dense(rows[:k]))
                                                               for k in cuts)


def ranked_primes(monkeypatch):
    """The prime of every rank_fractions call from now on, in call order."""
    primes = []
    rank = scalars.rank_fractions
    monkeypatch.setattr(scalars, "rank_fractions",
                        lambda rows, cuts, p: primes.append(p) or rank(rows, cuts, p))
    return primes


def test_a_sample_whose_prime_divides_a_coefficient_is_skipped(monkeypatch):
    # no point gives 1/P1 a value mod P1, so the first sample is skipped
    # and the second, at P2, serves
    P1, P2 = _PRIMES
    primes = ranked_primes(monkeypatch)
    assert random_rank(sparse([[C(Fraction(1, P1))]]), seed=0) == 1
    assert primes == [P2]


def test_samples_alternate_the_primes(monkeypatch):
    P1, P2 = _PRIMES
    primes = ranked_primes(monkeypatch)
    x = V("x")
    assert random_rank(sparse([[x, x], [ONE, ONE]]), seed=3) == 1
    assert primes == [P1, P2, P1]
    primes.clear()
    assert random_rank(sparse([[x, ONE], [ONE, x]]), seed=2) == 2
    assert primes == [P1]


def test_random_rank_evaluates_only_nonzero_entries(monkeypatch):
    # 100 x 100 with 292 nonzero entries: a unit diagonal plus two
    # polynomial off-diagonals, of full rank
    x, y = V("x"), V("y")
    n = 100
    matrix = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = ONE
        if i + 1 < n:
            matrix[i][i + 1] = x * y + i
        if i + 7 < n:
            matrix[i][i + 7] = x - i
    nnz = sum(not c.is_zero() for row in matrix for c in row)
    calls, reduced = [], []
    evaluate, reduce = Scalar.evaluate, Scalar.residue
    monkeypatch.setattr(Scalar, "evaluate",
                        lambda self, point: calls.append(1) or evaluate(self, point))
    monkeypatch.setattr(Scalar, "residue",
                        lambda self, *a: reduced.append(1) or reduce(self, *a))
    assert random_rank(sparse(matrix), seed=4) == n
    assert len(calls) <= SAMPLES * nnz
    # full rank: one sample at one prime, and no exact value needed
    assert len(reduced) == nnz and not calls


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_chart_validation():
    with pytest.raises(ValueError):
        Chart([], [Dependent("u")])
    with pytest.raises(ValueError):
        Chart(["x"], [Dependent("x")])
    ch = Chart(["x"], [Dependent("u"), Dependent("p", "multiplier"),
                       Dependent("v", "jet", 0, ("u", "x"))])
    assert ch.m == 1
    assert ch.solve_order() == ["p", "v", "u"]
    assert ch.level_of("u") == 0 and ch.role_of("p") == "multiplier"


def test_chart_drop_protects_independents():
    ch = Chart(["x"], [Dependent("u")])
    with pytest.raises(ValueError):
        ch.drop(["x"])
    assert [d.name for d in ch.drop(["u"]).dependent] == []


# ---------------------------------------------------------------------------
# coefficients given from outside; the work of the sparse kernels
# ---------------------------------------------------------------------------

def test_integral_fraction_coefficients_given_from_outside_become_ints():
    assert Scalar({(("x", 1),): Fraction(2)}).num == {(("x", 1),): 2}
    assert type(Scalar({(("x", 1),): Fraction(2)}).num[(("x", 1),)]) is int
    assert type(Scalar({(): Fraction(3)}).num[()]) is int
    for s in (Scalar({(("x", 1),): Fraction(2)}), Scalar({(): Fraction(3)}),
              Scalar({(("x", 1),): Fraction(2)}, {(("y", 1),): Fraction(1)}),
              Scalar({(("x", 1),): Fraction(1, 2)}, {(("y", 1),): Fraction(4)})):
        assert_coefficients_normal(s)
    # nothing to mend: the polynomial itself is kept
    half = {(("x", 1),): Fraction(1, 2), (): 3}
    assert poly.p_normal(half) is half
    assert Scalar(half).num is half


class _LoggedRow(dict):
    """A coefficient row that logs every unknown it is read or popped at."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)

    def pop(self, key, *default):
        self.log.append(key)
        return super().pop(key, *default)

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)


def test_solve_rows_touches_only_the_rows_holding_each_pivot_unknown(monkeypatch):
    # k independent blocks x_b + y_b + b = 0, x_b + 2 y_b = 0: choosing each
    # pivot and eliminating its unknown reads the two rows of its block only,
    # and each block takes one update, of y_b in its second row
    k = 12
    logs = [[] for _ in range(2 * k)]
    rows = []
    for b in range(k):
        x, y = f"x{b}", f"y{b}"
        rows.append((_LoggedRow({x: ONE, y: ONE}, logs[2 * b]), C(b)))
        rows.append((_LoggedRow({x: ONE, y: C(2)}, logs[2 * b + 1]), ZERO))
    unknowns = [n for b in range(k) for n in (f"x{b}", f"y{b}")]
    updates = []
    add = scalars.add_into
    monkeypatch.setattr(scalars, "add_into",
                        lambda row, key, value: updates.append(key) or add(row, key, value))
    res = solve_rows(rows, unknowns)
    assert updates == [f"y{b}" for b in range(k)]
    for b in range(k):
        assert set(logs[2 * b]) | set(logs[2 * b + 1]) <= {f"x{b}", f"y{b}"}
    assert res.solved == {n: C(v) for b in range(k) for n, v in ((f"x{b}", -2 * b), (f"y{b}", b))}
    assert (res.residual, res.free, res.assumptions) == ([], [], [])


@settings(max_examples=200, deadline=None)
@given(sparse_blocks(), st.sampled_from(_PRIMES), st.randoms(use_true_random=False))
def test_prefix_ranks_do_not_depend_on_the_row_order_within_blocks(case, p, rnd):
    rows, cuts = case
    rows = mod_rows(rows, p)
    shuffled, done = [], 0
    for k in list(cuts) + [len(rows)]:
        block = rows[done:k]
        rnd.shuffle(block)
        shuffled += block
        done = k
    assert rank_fractions(shuffled, cuts, p) == rank_fractions(rows, cuts, p)


# ---------------------------------------------------------------------------
# term ranks and the sampling stop
# ---------------------------------------------------------------------------

def brute_matching(pattern):
    """Largest matching of rows to columns over a pattern, by trying every
    column (or none) for each row in turn."""
    def best(r, used):
        if r == len(pattern):
            return 0
        return max([best(r + 1, used)] + [1 + best(r + 1, used | {c})
                                          for c in pattern[r] if c not in used])
    return best(0, frozenset())


@st.composite
def patterns_with_cuts(draw):
    ncols = draw(st.integers(1, 5))
    pattern = draw(st.lists(st.sets(st.integers(0, ncols - 1), max_size=ncols), max_size=6))
    cuts = sorted(draw(st.lists(st.integers(0, len(pattern)), max_size=4)))
    return ncols, pattern, cuts


@settings(max_examples=200, deadline=None)
@given(patterns_with_cuts(), st.randoms(use_true_random=False))
def test_term_ranks_are_largest_matchings_and_bound_the_rank(case, rnd):
    ncols, pattern, cuts = case
    got = term_ranks(pattern, cuts)
    assert got == tuple(brute_matching(pattern[:k]) for k in cuts)
    # a rational matrix with that nonzero pattern ranks no higher
    rows = [[Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 3), rnd.randint(1, 2))
             if c in row else Fraction(0) for c in range(ncols)] for row in pattern]
    for k, t in zip(cuts, got):
        assert exact_rank(rows[:k]) <= t


@st.composite
def polynomial_blocks(draw):
    """Sparse rows of integer polynomials in x, y, some of them sums of
    earlier rows, so that ranks often fall below the term rank, and
    nondecreasing block cuts into them."""
    ncols = draw(st.integers(1, 5))
    entry = st.builds(lambda a, b, i, j: C(a) * V("x") ** i + C(b) * V("y") ** j,
                      st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2),
                      st.integers(0, 2))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            row = dict(rows[i])
            for c, v in rows[j].items():
                add_into(row, c, v)
        else:
            row = {c: v for c, v in draw(st.dictionaries(st.integers(0, ncols - 1), entry,
                                                         max_size=ncols)).items()
                   if not v.is_zero()}
        rows.append(row)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=4)))
    return rows, cuts


@settings(max_examples=150, deadline=None)
@given(polynomial_blocks(), st.integers(0, 2 ** 32))
def test_the_term_rank_stop_returns_what_every_sample_gives(case, seed):
    rows, cuts = case
    names = {n for row in rows for v in row.values() for n in v.variables()}

    def sampled(point, p):
        return [{c: v.residue(point, p) for c, v in row.items()} for row in rows], cuts
    got = generic_ranks(sampled, names, SeedStream(seed), pattern=rows)
    # all SAMPLES samples, drawn as generic_ranks draws them (integer
    # polynomials have a value at every point)
    stream, every = SeedStream(seed), []
    for k in range(SAMPLES):
        p = _PRIMES[k % 2]
        every.append(rank_fractions(*sampled(sample_point(names, stream, p), p), p))
    assert got == tuple(map(max, *every))


def test_sampling_stops_at_the_term_rank(monkeypatch):
    # rank 1 of 2 rows whose entries share one column: the term rank is 1,
    # so the first sample is final; proportional rows of a full pattern are
    # not, and take every sample
    calls = []
    rank = scalars.rank_fractions
    monkeypatch.setattr(scalars, "rank_fractions", lambda *a: calls.append(1) or rank(*a))
    x = V("x")
    assert random_rank([{0: x}, {0: ONE + x}], seed=1) == 1
    assert len(calls) == 1
    calls.clear()
    assert random_rank([{0: x, 1: x}, {0: ONE, 1: ONE}], seed=3) == 1
    assert len(calls) == SAMPLES
