"""Multivariate polynomials with rational coefficients: the ring under the
scalar field of scalars.py, and the one module that reads the format.

A polynomial is a dict mapping monomials to nonzero coefficients: an int
when the value is an integer, else a Fraction, never a float (_coeff and
_quo make every one).  A monomial is a sorted tuple of ``(name, exponent)``
pairs.  The monomial order is graded lexicographic over name-sorted
variables, which is chart independent and deterministic.  The zero
polynomial is the empty dict.

No polynomial is mutated once built (in-place updates only touch dicts the
function made), so a result may be an argument: p_mul by 1 returns it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Callable, Iterable, Mapping, Optional

Monomial = tuple  # tuple[tuple[str, int], ...]
Poly = dict  # dict[Monomial, int | Fraction]

_ONE_MONO: Monomial = ()


class DomainError(ArithmeticError):
    """Division by the zero polynomial, or a substitution hit a zero denominator."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial) -> tuple:
    """Sort key of the graded lex order: the leading monomial sorts first.

    Higher degree comes first; within a degree, the larger exponent at the
    first name (ascending) where two monomials differ.  At the first pair
    where their (name, -exponent) tuples differ, either the names agree and
    the larger exponent sorts first, or the earlier name is present in one
    monomial only, which therefore sorts first.
    """
    return (-_mono_degree(m), tuple((name, -e) for name, e in m))


def _coeff(c):
    """The int or Fraction c as a coefficient."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def p_normal(a: Poly) -> Poly:
    """a with integral Fraction coefficients made ints; a itself if none is."""
    for c in a.values():
        if type(c) is not int and c.denominator == 1:
            return {m: _coeff(c) for m, c in a.items()}
    return a


def _quo(a, b):
    """The exact quotient a/b of coefficients as a coefficient."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(a / b)


def p_const(c) -> Poly:
    c = _coeff(c if type(c) is int else Fraction(c))
    return {_ONE_MONO: c} if c else {}


def p_var(name: str, e: int = 1) -> Poly:
    """The monomial name^e, for e >= 1."""
    return {((name, e),): 1}


def p_is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(_ONE_MONO) == 1


def p_constant(p: Poly):
    """The value of a constant polynomial (0 for zero), or None if variables occur."""
    if not p:
        return 0
    return p.get(_ONE_MONO) if len(p) == 1 else None


def _add_term(p: Poly, m: Monomial, c) -> None:
    """p[m] += c, dropping m where the sum cancels, so p holds no zero."""
    s = p.get(m, 0) + c
    if s:
        p[m] = _coeff(s)
    else:
        p.pop(m, None)


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():  # _add_term inlined in this hot loop
        s = out.get(m, 0) + c
        if s:
            out[m] = _coeff(s)
        else:
            out.pop(m, None)
    return out


def p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1 and _ONE_MONO in a:
        return p_scale(b, a[_ONE_MONO])
    if len(b) == 1 and _ONE_MONO in b:
        return p_scale(a, b[_ONE_MONO])
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():  # _add_term inlined in this hot loop
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = _coeff(s)
            else:
                out.pop(m, None)
    return out


def p_scale(a: Poly, c) -> Poly:
    """c*a for a coefficient c != 0: no terms merge or vanish."""
    if c == 1:
        return a
    return {m: _coeff(ca * c) for m, ca in a.items()}


def p_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power at polynomial level")
    out = p_const(1)
    base = a
    while n:
        if n & 1:
            out = p_mul(out, base)
        base_needed = n >> 1
        if base_needed:
            base = p_mul(base, base)
        n >>= 1
    return out


def p_diff(a: Poly, name: str) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        for i, (n, e) in enumerate(m):
            if n == name:
                if e == 1:
                    mm = m[:i] + m[i + 1:]
                else:
                    mm = m[:i] + ((n, e - 1),) + m[i + 1:]
                _add_term(out, mm, c * e)
                break
    return out


def p_eval(a: Poly, const: Callable, power: Callable):
    """a in any ring: const(c) for a coefficient c, power(name, e) for a
    variable power, combined term by term by the ring's * and +."""
    total = const(0)
    for m, c in a.items():
        term = const(c)
        for name, e in m:
            term = term * power(name, e)
        total = total + term
    return total


def _residue(value, p: int) -> Optional[int]:
    """A rational coefficient modulo p, or None when p divides its denominator."""
    if type(value) is int:
        return value % p
    d = value.denominator
    if d % p:
        return value.numerator * pow(d, -1, p) % p
    return None


def p_residue(a: Poly, point: Mapping[str, int], p: int) -> Optional[int]:
    """a at a point of residues, modulo p, or None when p divides the
    denominator of a coefficient."""
    total = 0
    for m, c in a.items():
        v = _residue(c, p)
        if v is None:
            return None
        for name, e in m:
            v = v * (point[name] if e == 1 else pow(point[name], e, p)) % p
        total += v
    return total % p


def p_variables(a: Poly) -> set:
    vs: set = set()
    for m in a:
        for name, _ in m:
            vs.add(name)
    return vs


def p_degree(a: Poly) -> int:
    return max((_mono_degree(m) for m in a), default=0)


def p_leading(a: Poly):
    m = min(a, key=_mono_key)
    return m, a[m]


def p_content_sign(a: Poly):
    """Rational content and leading sign: a == sign*content*primitive."""
    if not a:
        return 1, {}
    g = 0
    lcm = 1
    for c in a.values():
        g = _int_gcd(g, c.numerator)
        d = c.denominator
        if d != 1:
            lcm = lcm * d // _int_gcd(lcm, d)
    if p_leading(a)[1] < 0:
        g = -g
    if g == 1 and lcm == 1:
        return 1, a
    prim = {m: (c.numerator // g) * (lcm // c.denominator) for m, c in a.items()}
    return _quo(g, lcm), prim


def p_clear_den_content(num: Poly, den: Poly):
    """num and den divided by the signed content of den, so that den is
    primitive with a positive leading coefficient and num/den is unchanged.

    A constant den is its own signed content: num is divided by it and den
    becomes 1, with no content scan.
    """
    if len(den) == 1 and _ONE_MONO in den:
        c = den[_ONE_MONO]
        return (num, den) if c == 1 else ({m: _quo(a, c) for m, a in num.items()}, p_const(1))
    content, prim = p_content_sign(den)
    if content == 1:
        return num, prim
    return {m: _quo(c, content) for m, c in num.items()}, prim


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    db = dict(b)
    return all(db.get(n, 0) >= e for n, e in a)


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    db = dict(a)
    for n, e in b:
        db[n] -= e
        if not db[n]:
            del db[n]
    return tuple(sorted(db.items()))


def p_div_exact(a: Poly, b: Poly) -> Optional[Poly]:
    """Exact polynomial quotient a/b, or None when b does not divide a.

    A single-term b divides term by term: the exponents are subtracted, and
    the first term they do not cover gives None.  Otherwise the leading
    terms are divided until the remainder is zero.
    """
    if not b:
        raise DomainError("division by the zero polynomial")
    if not a:
        return {}
    if len(b) == 1:
        (mb, cb), = b.items()
        if not mb:
            return a if cb == 1 else {m: _quo(c, cb) for m, c in a.items()}
        quot = {}
        for ma, ca in a.items():
            da = dict(ma)
            for n, e in mb:
                r = da.get(n, 0) - e
                if r < 0:
                    return None
                if r:
                    da[n] = r
                else:
                    del da[n]
            quot[tuple(sorted(da.items()))] = _quo(ca, cb)
        return quot
    quot: Poly = {}
    rem = dict(a)
    mb, cb = p_leading(b)
    while rem:
        ma, ca = p_leading(rem)
        if not _mono_divides(mb, ma):
            return None
        mq = _mono_div(ma, mb)
        cq = _quo(ca, cb)
        quot[mq] = quot.get(mq, 0) + cq
        rem = p_sub(rem, p_mul({mq: cq}, b))
    return {m: c for m, c in quot.items() if c}


def _as_univariate(a: Poly, x: str) -> dict:
    """Split off x: dict degree-in-x -> Poly in the remaining variables."""
    out: dict = {}
    for m, c in a.items():
        dx = 0
        rest = []
        for n, e in m:
            if n == x:
                dx = e
            else:
                rest.append((n, e))
        _add_term(out.setdefault(dx, {}), tuple(rest), c)
    return {d: c for d, c in out.items() if c}


def _from_univariate(u: dict, x: str) -> Poly:
    out: Poly = {}
    for d, coeff in u.items():
        for m, c in coeff.items():
            _add_term(out, _mono_mul(m, ((x, d),) if d else ()), c)
    return out


def _u_degree(u: dict) -> int:
    return max(u) if u else -1


def _u_pseudo_rem(a: dict, b: dict, x: str) -> dict:
    """Pseudo-remainder of univariate-in-x polynomials with Poly coefficients."""
    da, db = _u_degree(a), _u_degree(b)
    lb = b[db]
    rem = {d: dict(c) for d, c in a.items()}
    while rem and _u_degree(rem) >= db:
        dr = _u_degree(rem)
        lr = rem[dr]
        # rem := lb*rem - lr*x^(dr-db)*b
        new: dict = {}
        for d, c in rem.items():
            new[d] = p_mul(c, lb)
        for d, c in b.items():
            t = p_mul(lr, c)
            dd = d + dr - db
            new[dd] = p_sub(new.get(dd, {}), t)
        rem = {d: c for d, c in new.items() if c}
    return rem


def _p_content_poly(u: dict) -> Poly:
    """gcd of the Poly coefficients of a univariate decomposition."""
    coeffs = list(u.values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = p_gcd(g, c)
        if p_degree(g) == 0:
            break
    return g


def p_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive positive-leading gcd over the rationals.

    When either operand is a single term, the gcd is the monomial of the
    least exponents common to every term of both, with coefficient 1 (1
    when no variable is common to all of them); it is read off the
    exponents directly.
    """
    if not a and not b:
        return {}
    if not a:
        _, prim = p_content_sign(b)
        return prim
    if not b:
        _, prim = p_content_sign(a)
        return prim
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        (ma,) = a
        common = dict(ma)
        for m in b:
            if not common:
                break
            dm = dict(m)
            common = {n: min(e, dm[n]) for n, e in common.items() if n in dm}
        return {tuple(sorted(common.items())): 1} if common else p_const(1)
    # common monomial factor (cheap and frequent)
    common: dict = None
    for p in (a, b):
        for m in p:
            dm = dict(m)
            if common is None:
                common = dm
            else:
                common = {n: min(e, dm.get(n, 0)) for n, e in common.items() if dm.get(n, 0)}
            if not common:
                break
        if not common:
            break
    mono = tuple(sorted((n, e) for n, e in (common or {}).items() if e))
    if mono:
        a = {_mono_div(m, mono): c for m, c in a.items()}
        b = {_mono_div(m, mono): c for m, c in b.items()}
        mono_g: Poly = {mono: 1}
    else:
        mono_g = p_const(1)
    va, vb = p_variables(a), p_variables(b)
    shared = sorted(va & vb)
    if not shared:
        return mono_g
    x = shared[0]
    ua, ub = _as_univariate(a, x), _as_univariate(b, x)
    ca, cb = _p_content_poly(ua), _p_content_poly(ub)
    cont_g = p_gcd(ca, cb)
    pa = {d: p_div_exact(c, ca) for d, c in ua.items()}
    pb = {d: p_div_exact(c, cb) for d, c in ub.items()}
    if _u_degree(pa) < _u_degree(pb):
        pa, pb = pb, pa
    while pb:
        r = _u_pseudo_rem(pa, pb, x)
        if r:
            # clear the polynomial and the rational content, or the
            # coefficients of the remainder sequence grow without bound
            cr = _p_content_poly(r)
            r = {d: p_div_exact(c, cr) for d, c in r.items()}
            r = _as_univariate(p_content_sign(_from_univariate(r, x))[1], x)
        pa, pb = pb, r
    g = p_mul(p_mul(_from_univariate(pa, x), cont_g), mono_g)
    _, prim = p_content_sign(g)
    return prim


def p_strip_factors(num: Poly, factors: Iterable[Poly]) -> Poly:
    """The nonzero num with every irreducible factor it shares with one of
    factors divided out, as often as it divides.

    Dividing by g = gcd(num, f) until g is constant takes out every factor
    num shares with f, whatever the order of factors, and f need not divide
    num.  Each division lowers the degree, so every loop ends; once num
    shares nothing with f, no later quotient does, so one pass suffices.
    """
    for f in factors:
        g = p_gcd(num, f)
        while p_constant(g) is None:
            num = p_div_exact(num, g)
            g = p_gcd(num, g)
    return num


def p_linear_split(a: Poly, unknowns: set):
    """a as sum(coeffs[u] * u) + const over u in unknowns, with coeffs (a
    dict of nonzero polynomials) and const free of the unknowns; or None
    when a is not affine-linear in them."""
    coeffs: dict = {}
    const: Poly = {}
    for m, c in a.items():
        hit = None
        for name, e in m:
            if name in unknowns:
                if hit is not None or e > 1:
                    return None
                hit = name
        if hit is None:
            _add_term(const, m, c)
        else:
            _add_term(coeffs.setdefault(hit, {}), tuple(p for p in m if p[0] != hit), c)
    return {u: p for u, p in coeffs.items() if p}, const


def p_str(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=_mono_key):
        c = a[m]
        factors = []
        for name, e in m:
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        mag = abs(c)
        if body:
            txt = body if mag == 1 else f"{mag}*{body}"
        else:
            txt = str(mag)
        parts.append(("-" if c < 0 else "+", txt))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, txt in parts[1:]:
        out += f" {sign} {txt}"
    return out
