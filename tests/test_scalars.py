import signal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cartaneds import scalars
from cartaneds.scalars import (_PRIMES, SAMPLES, AllSamplesDegenerate, Chart,
                               Dependent, DomainError, Scalar,
                               ONE, ZERO, SeedStream, generic_ranks, p_add, p_gcd,
                               _linear_split, add_into, p_leading, p_mul, p_sub,
                               rank_fractions, random_rank, residue, sample_point,
                               solve_linear, solve_rows)


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
    want = Scalar(p_sub(p_mul(scalars.p_diff(a, name), b), p_mul(a, scalars.p_diff(b, name))),
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
    ka, kb = scalars._mono_key(a), scalars._mono_key(b)
    assert (ka < kb) - (ka > kb) == grlex_cmp(a, b)
    if a != b:
        lead = a if grlex_cmp(a, b) > 0 else b
        assert p_leading({a: Fraction(1), b: Fraction(2)})[0] == lead


def test_trivial_operands_skip_the_gcd(monkeypatch):
    x, y = V("x"), V("y")
    s = (x ** 2 + y) / (3 * x * y + 1)
    scaled = Scalar({m: c * Fraction(2, 3) for m, c in s.num.items()}, s.den)
    a, b = (x + 2) / (x + 1), (y - 3) / (y + 1)
    calls = []
    for name in ("p_gcd", "p_div_exact"):
        kernel = getattr(scalars, name)
        monkeypatch.setattr(scalars, name, lambda *args, name=name, kernel=kernel:
                            calls.append((name,) + args) or kernel(*args))
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
    kernel = scalars.p_gcd
    monkeypatch.setattr(scalars, "p_gcd", lambda *args: calls.append(args) or kernel(*args))
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


def mod_rows(rows):
    """rank_fractions' input for rows of Fractions: their residues mod p."""
    return lambda p: [{c: residue(v, p) for c, v in row.items()} for row in rows]


def test_random_rank_identity():
    I3 = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert random_rank(I3, seed=1) == 3


def test_random_rank_proportional_rows():
    x = V("x")
    assert random_rank([[x, x], [ONE, ONE]], seed=3) == 1


def test_random_rank_contact_tableau():
    # the 1x3 tableau of the contact system on J1(R^3, R) contracted with a
    # generic direction: entries (v1, v2, v3), rank 1
    v = [V("v1"), V("v2"), V("v3")]
    assert random_rank([v], seed=5) == 1


def test_random_rank_determinism():
    x, y = V("x"), V("y")
    m = [[x, y, x * y], [y, x, x + y], [x + y, x - y, ONE]]
    a = random_rank(m, seed=42)
    b = random_rank(m, seed=42)
    assert a == b


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_random_rank_matches_exact_rank_on_rationals(rows):
    scalars = [[C(v) for v in r] for r in rows]
    assert random_rank(scalars, seed=11) == exact_rank(rows)


@settings(max_examples=150, deadline=None)
@given(small_scalar(), small_scalar(), st.sampled_from(_PRIMES), st.integers(0, 2 ** 64 - 1))
def test_residue_is_the_reduction_of_the_rational_value(a, b, p, seed):
    assume(not b.is_zero())
    s = a / b
    assume(s.den != {(): 1})
    point = sample_point("xyz", SeedStream(seed))
    residues = {n: residue(v, p) for n, v in point.items()}
    try:
        value = s.evaluate(point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            s.residue(point, residues, p)
        return
    assert s.residue(point, residues, p) == residue(value, p)


def test_residue_falls_back_to_the_exact_value():
    P1, P2 = _PRIMES
    x, y = V("x"), V("y")

    def at(s, p, **coords):
        point = {n: Fraction(v) for n, v in coords.items()}
        return s.residue(point, {n: residue(v, p) for n, v in point.items()}, p)

    # a coefficient with denominator P1: the value decides, not the coefficient
    s = x / P1 + 1
    assert at(s, P1, x=P1) == 2
    assert at(s, P1, x=3) is None
    assert at(s, P2, x=3) == residue(Fraction(3, P1) + 1, P2)
    # a denominator that P1 divides at the point: P1 cuts, P2 serves
    t = ONE / (x - y)
    assert at(t, P1, x=P1 + 1, y=1) is None
    assert at(t, P2, x=P1 + 1, y=1) == residue(Fraction(1, P1), P2)
    # a pole over Q raises for every prime
    for p in _PRIMES:
        with pytest.raises(ZeroDivisionError):
            at(t, p, x=Fraction(1, 2), y=Fraction(1, 2))


def test_a_point_on_a_pole_is_redrawn(monkeypatch):
    x, y = V("x"), V("y")
    points = iter([{"x": Fraction(1, 2), "y": Fraction(1, 2)},
                   {"x": Fraction(_PRIMES[0] + 1), "y": Fraction(1)}])
    monkeypatch.setattr(scalars, "sample_point", lambda names, stream: next(points))
    assert random_rank([[ONE / (x - y)]], seed=0) == 1
    assert next(points, None) is None


def test_sampling_stops_at_full_rank(monkeypatch):
    calls = []
    rank = scalars.rank_fractions
    monkeypatch.setattr(scalars, "rank_fractions", lambda *a: calls.append(1) or rank(*a))
    x = V("x")
    assert random_rank([[x, ONE], [ONE, x]], seed=2) == 2
    assert len(calls) == 1
    calls.clear()
    assert random_rank([[x, x], [ONE, ONE]], seed=3) == 1
    assert len(calls) == SAMPLES


def test_no_usable_prime_is_not_rank_zero():
    # a rank-2 matrix whose entries have a denominator divisible by both primes
    P1, P2 = _PRIMES
    f = Fraction(1, P1 * P2)
    bad = [{0: f}, {1: f}]
    with pytest.raises(ZeroDivisionError):
        rank_fractions(mod_rows(bad), [2])
    with pytest.raises(AllSamplesDegenerate):
        random_rank([[C(f), ZERO], [ZERO, C(f)]], seed=0)
    # the sampling kernel redraws such a point instead of counting it
    good = [{0: Fraction(1)}, {1: Fraction(1)}]
    draws = iter([bad, bad] + [good] * SAMPLES)
    assert generic_ranks(lambda point: (mod_rows(next(draws)), [2]), [], SeedStream(0)) == (2,)


def test_generic_ranks_keep_each_block_at_its_best_sample():
    # every sampled block rank can only fall short, so each block keeps its
    # largest sample: (3, 4) and (2, 5) give (3, 5), not the larger tuple
    unit = [{c: Fraction(1)} for c in range(5)]
    samples = [(mod_rows(unit[:4] + unit[:2]), [3, 6]),
               (mod_rows(unit[:2] + [unit[0]] + unit[2:]), [3, 6])]
    assert [rank_fractions(*m) for m in samples] == [(3, 4), (2, 5)]
    draws = iter(samples * SAMPLES)
    assert generic_ranks(lambda point: next(draws), [], SeedStream(0)) == (3, 5)


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
@given(sparse_blocks())
def test_prefix_ranks_match_exact_rank(case):
    rows, cuts = case
    assert rank_fractions(mod_rows(rows), cuts) == tuple(exact_rank(_dense(rows[:k]))
                                                         for k in cuts)


@settings(max_examples=100, deadline=None)
@given(sparse_blocks(), st.data())
def test_prefix_ranks_survive_a_row_one_prime_divides(case, data):
    # P1 divides a denominator of one inserted row: P2 still ranks every
    # block, the blocks ending before that row included
    rows, cuts = case
    P1, _ = _PRIMES
    at = data.draw(st.integers(0, len(rows)))
    rows = rows[:at] + [{0: Fraction(1, P1)}] + rows[at:]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=4)))
    assert rank_fractions(mod_rows(rows), cuts) == tuple(exact_rank(_dense(rows[:k]))
                                                         for k in cuts)


@settings(max_examples=100, deadline=None)
@given(sparse_blocks(), st.data())
def test_no_prime_for_a_later_block_raises(case, data):
    # a row whose denominator both primes divide leaves every block that
    # contains it without a usable prime; the blocks before it keep theirs
    rows, cuts = case
    P1, P2 = _PRIMES
    at = data.draw(st.integers(0, len(rows)))
    rows = rows[:at] + [{0: Fraction(1, P1 * P2)}] + rows[at:]
    before = [k for k in cuts if k <= at]
    assert rank_fractions(mod_rows(rows), before) == tuple(exact_rank(_dense(rows[:k]))
                                                           for k in before)
    with pytest.raises(ZeroDivisionError):
        rank_fractions(mod_rows(rows),
                       sorted(cuts + [data.draw(st.integers(at + 1, len(rows)))]))


def test_second_prime_only_when_a_block_falls_short(monkeypatch):
    passes = []
    rank_mod = scalars._rank_mod
    monkeypatch.setattr(scalars, "_rank_mod",
                        lambda rows, cuts, p: passes.append(p) or rank_mod(rows, cuts, p))
    identity = [{i: Fraction(1)} for i in range(100)]
    assert rank_fractions(mod_rows(identity), [50, 100]) == (50, 100)
    assert len(passes) == 1
    passes.clear()
    deficient = identity[:99] + [{0: Fraction(3)}]
    assert rank_fractions(mod_rows(deficient), [50, 100]) == (50, 99)
    assert len(passes) == 2


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
    assert random_rank(matrix, seed=4) == n
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
