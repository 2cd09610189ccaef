"""Differential checks of the exact arithmetic against sympy.

sympy is an optional test oracle: the module is skipped when it is not
installed.  Each property compares one kernel of ``cartaneds.poly`` (the
gcd) or ``cartaneds.scalars`` with an independent implementation on small
random inputs over Q[x, y].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from cartaneds.poly import p_div_exact, p_gcd  # noqa: E402
from cartaneds.scalars import Scalar, random_rank, solve_linear, solve_rows  # noqa: E402

X, Y = sympy.symbols("x y")


def to_sympy(p):
    """A cartaneds polynomial dict as a sympy expression in x, y."""
    total = sympy.Integer(0)
    for mono, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        total += term
    return total


@st.composite
def poly(draw, max_terms, max_dx, max_dy):
    """A Scalar polynomial with up to max_terms terms of bounded degrees."""
    total = Scalar.const(0)
    for _ in range(draw(st.integers(0, max_terms))):
        c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        total = total + (Scalar.const(c) * Scalar.var("x") ** draw(st.integers(0, max_dx))
                         * Scalar.var("y") ** draw(st.integers(0, max_dy)))
    return total


entry = poly(2, 2, 1)


@st.composite
def affine_system(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeffs = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    consts = [draw(entry) for _ in range(rows)]
    return coeffs, consts


def sparse(matrix):
    """random_rank's input for a dense matrix of scalars: its nonzero entries."""
    return [{j: c for j, c in enumerate(row) if not c.is_zero()} for row in matrix]


def field_rank(rows):
    m = sympy.Matrix([[to_sympy(c.num) for c in row] for row in rows])
    return DomainMatrix.from_Matrix(m).to_field().rank()


@settings(max_examples=100, deadline=None)
@given(affine_system())
def test_solve_linear_rank_matches_sympy(system):
    coeffs, consts = system
    unknowns = [f"u{j}" for j in range(len(coeffs[0]))]
    eqs = []
    for row, b in zip(coeffs, consts):
        eq = b
        for c, u in zip(row, unknowns):
            eq = eq + c * Scalar.var(u)
        eqs.append(eq)
    res = solve_linear(eqs, unknowns)
    rank = field_rank(coeffs)
    # the solved count is the exact rank over Q(x, y), which is what
    # prolongation_dim reads as a nullity
    assert len(res.solved) == rank
    assert len(res.free) == len(unknowns) - rank
    augmented = [row + [b] for row, b in zip(coeffs, consts)]
    assert (not res.residual) == (field_rank(augmented) == rank)


@st.composite
def square_matrix(draw):
    """An n x n matrix of polynomials, n in 2..4, whose last rows may be
    polynomial combinations of the first, so that deficient ranks are common."""
    n = draw(st.integers(2, 4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
    while len(rows) < n:
        coeffs = [draw(poly(1, 1, 1)) for _ in rows]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Scalar.const(0))
                     for j in range(n)])
    return rows


@settings(max_examples=60, deadline=None)
@given(square_matrix(), st.integers(0, 2 ** 32))
def test_random_rank_matches_sympy(rows, seed):
    # the sampled generic rank against sympy's exact rank over Q(x, y)
    assert random_rank(sparse(rows), seed) == field_rank(rows)


linear = st.one_of(poly(2, 1, 0), poly(2, 0, 1))
quadratic = poly(3, 1, 1)


@settings(max_examples=150, deadline=None)
@given(linear, quadratic, quadratic)
def test_p_gcd_matches_sympy(common, f, g):
    # products of degree <= 3 with a shared factor, so the gcd is often
    # nontrivial
    a, b = (common * f).num, (common * g).num
    ours = to_sympy(p_gcd(a, b))
    theirs = sympy.gcd(to_sympy(a), to_sympy(b))
    if theirs == 0:
        assert ours == 0
        return
    ratio = sympy.cancel(ours / theirs)
    assert ratio.is_Rational and ratio != 0


term = poly(1, 3, 3).filter(lambda s: not s.is_zero())


@settings(max_examples=150, deadline=None)
@given(term, poly(4, 3, 3), st.booleans())
def test_single_term_p_gcd_matches_sympy(t, f, swap):
    # a single-term operand: the gcd is the monomial of the least common
    # exponents, with coefficient 1, on either side
    a, b = (f.num, t.num) if swap else (t.num, f.num)
    ours = p_gcd(a, b)
    assert len(ours) == 1 and list(ours.values()) == [1]
    theirs = sympy.gcd(to_sympy(a), to_sympy(b))
    ratio = sympy.cancel(to_sympy(ours) / theirs)
    assert ratio.is_Rational and ratio != 0


@settings(max_examples=150, deadline=None)
@given(poly(4, 3, 3), term, st.booleans())
def test_division_by_a_single_term_matches_sympy(f, t, multiple):
    # f * t is divisible by t; f itself often is not, and gives None
    a = (f * t).num if multiple else f.num
    got = p_div_exact(a, t.num)
    q, r = sympy.div(to_sympy(a), to_sympy(t.num), X, Y)
    if r != 0:
        assert got is None
    else:
        assert got is not None and sympy.expand(to_sympy(got) - q) == 0
    if multiple:
        assert got == f.num


def grlex_leading_coefficient(expr):
    return sympy.Poly(expr, X, Y).coeffs(order="grlex")[0]


def assert_is_cancel(q, expr):
    """q equals sympy.cancel(expr), normalized to a primitive integer
    denominator with positive grlex leading coefficient."""
    num, den = to_sympy(q.num), to_sympy(q.den)
    n, d = sympy.fraction(sympy.cancel(expr))
    # the same reduced fraction up to a rational factor ...
    k = sympy.cancel(den / d)
    assert k.is_Rational and k != 0
    assert sympy.expand(num - k * n) == 0
    # ... normalized to a primitive integer denominator with positive
    # leading coefficient
    assert all(c.is_Integer for c in sympy.Poly(den, X, Y).coeffs())
    assert sympy.Poly(den, X, Y).primitive()[0] == 1
    assert grlex_leading_coefficient(den) > 0


@settings(max_examples=150, deadline=None)
@given(poly(3, 2, 2), poly(3, 2, 2), poly(2, 1, 1))
def test_scalar_quotient_is_sympy_cancel(f, g, common):
    if g.is_zero() or common.is_zero():
        return
    q = (f * common) / (g * common)
    assert_is_cancel(q, to_sympy((f * common).num) / to_sympy((g * common).num))


@settings(max_examples=100, deadline=None)
@given(poly(2, 1, 1), poly(2, 1, 1), poly(2, 1, 1), poly(2, 1, 1), poly(2, 1, 1))
def test_scalar_sum_and_product_are_sympy_cancel(f, g, h, k, common):
    # rational operands whose denominators share `common` (Henrici's sum) and
    # whose numerator and denominator share it across the product
    if g.is_zero() or k.is_zero() or common.is_zero():
        return
    a = f / (g * common)
    b = h / (k * common)
    c = (h * common) / k
    fa = to_sympy(f.num) / (to_sympy(g.num) * to_sympy(common.num))
    fb = to_sympy(h.num) / (to_sympy(k.num) * to_sympy(common.num))
    fc = to_sympy(h.num) * to_sympy(common.num) / to_sympy(k.num)
    assert_is_cancel(a + b, fa + fb)
    assert_is_cancel(a - b, fa - fb)
    assert_is_cancel(a * b, fa * fb)
    assert_is_cancel(a * c, fa * fc)


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


@st.composite
def sparse_rational_system(draw):
    """Rows of rational coefficients, about two thirds of them zero, and
    their constants."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    value = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    def entry():
        return draw(value) if draw(st.integers(0, 2)) == 0 else Fraction(0)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)], \
        [entry() for _ in range(nrows)]


@settings(max_examples=200, deadline=None)
@given(sparse_rational_system())
def test_solve_rows_matches_sympy_rref(system):
    # rows sum_j A[r][j] u_j + b[r] = 0; the pivots of the augmented rref
    # outside its last column are those of A, in column order
    A, b = system
    names = [f"u{j}" for j in range(len(A[0]))]
    rows = [({n: Scalar.const(a) for n, a in zip(names, row) if a}, Scalar.const(c))
            for row, c in zip(A, b)]
    res = solve_rows(rows, names)
    M = sympy.Matrix([[rational(a) for a in row] + [-rational(c)] for row, c in zip(A, b)])
    R, pivots = M.rref()
    rank = M[:, :-1].rank()
    pivot_cols = [j for j in pivots if j < len(names)]
    assert res.free == [n for j, n in enumerate(names) if j not in pivot_cols]
    assert list(res.solved) == [names[j] for j in pivot_cols]
    assert bool(res.residual) == (M.rank() > rank)
    assert len(res.residual) <= len(A) - rank
    if res.residual:
        return
    for r, j in enumerate(pivot_cols):
        want = Scalar.const(Fraction(int(R[r, -1].p), int(R[r, -1].q)))
        for f, n in enumerate(names):
            if f not in pivot_cols and R[r, f] != 0:
                want = want - Scalar.const(Fraction(int(R[r, f].p), int(R[r, f].q))) * Scalar.var(n)
        assert res.solved[names[j]] == want
