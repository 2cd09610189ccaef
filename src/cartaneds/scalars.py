"""Exact arithmetic over multivariate rational functions with rational coefficients.

Everything downstream (differential forms, Pfaffian systems, the constraint
ladder) runs over the field implemented here.  There is no floating point
anywhere: zero tests are decidable, canonical forms are unique, and every
randomized computation is driven by an explicit seed.

A polynomial is a dict mapping monomials to nonzero ``Fraction`` coefficients;
a monomial is a sorted tuple of ``(name, exponent)`` pairs.  The monomial
order is graded lexicographic over name-sorted variables, which is chart
independent and deterministic.

Sparse rows of scalars (form terms, two-form expansions modulo the
generators, the rows of a linear solve) never hold an explicit zero.  Every
accumulation goes through add_into, which drops a key whose sum cancels, so
code reading such a row never re-tests its entries for zero.

Generic ranks are sampled at seeded rational points modulo two large primes;
entries are reduced mod p straight from the rational draws, and sampling
stops once every block has full rank (see generic_ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Callable, Iterable, Mapping, Optional, Sequence

Monomial = tuple  # tuple[tuple[str, int], ...]
Poly = dict  # dict[Monomial, Fraction]

_ONE_MONO: Monomial = ()


class DomainError(ArithmeticError):
    """Division by the zero polynomial, or a substitution hit a zero denominator."""


class NonLinearInUnknowns(ValueError):
    """An equation a restriction must solve is not affine-linear in its unknowns."""

    def __init__(self, equation: "Scalar"):
        self.equation = equation
        super().__init__(f"equation is not affine-linear in the unknowns: {equation}")


class AllSamplesDegenerate(ArithmeticError):
    """Every random sample hit a denominator zero during rank estimation."""


# ---------------------------------------------------------------------------
# polynomial layer
# ---------------------------------------------------------------------------

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


def p_const(c) -> Poly:
    c = Fraction(c)
    return {_ONE_MONO: c} if c else {}


def p_var(name: str) -> Poly:
    return {((name, 1),): Fraction(1)}


def p_is_zero(p: Poly) -> bool:
    return not p


def p_is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(_ONE_MONO) == 1


def p_is_const(p: Poly) -> bool:
    """True for a nonzero constant polynomial."""
    return len(p) == 1 and _ONE_MONO in p


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
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
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


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
                s = out.get(mm, 0) + c * e
                if s:
                    out[mm] = s
                else:
                    out.pop(mm, None)
                break
    return out


def p_eval(a: Poly, point: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in a.items():
        v = c
        for name, e in m:
            v *= point[name] ** e
        total += v
    return total


def residue(value, p: int) -> Optional[int]:
    """A Fraction or int modulo p, or None when p divides its denominator."""
    d = value.denominator
    if d == 1:
        return value.numerator % p
    if d % p:
        return value.numerator * pow(d, -1, p) % p
    return None


def _p_residue(a: Poly, point: Mapping[str, int], p: int) -> Optional[int]:
    """a at a point of residues, modulo p, or None when p divides the
    denominator of a coefficient."""
    total = 0
    for m, c in a.items():
        v = residue(c, p)
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
        return Fraction(1), {}
    num_gcd = 0
    den_lcm = 1
    for c in a.values():
        num_gcd = _int_gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    _, lead = p_leading(a)
    if lead < 0:
        content = -content
    return content, {m: c / content for m, c in a.items()}


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
    """Exact polynomial quotient a/b, or None when b does not divide a."""
    if not b:
        raise DomainError("division by the zero polynomial")
    if not a:
        return {}
    quot: Poly = {}
    rem = dict(a)
    mb, cb = p_leading(b)
    while rem:
        ma, ca = p_leading(rem)
        if not _mono_divides(mb, ma):
            return None
        mq = _mono_div(ma, mb)
        cq = ca / cb
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
        coeff = out.setdefault(dx, {})
        key = tuple(rest)
        s = coeff.get(key, 0) + c
        if s:
            coeff[key] = s
        else:
            coeff.pop(key, None)
    return {d: c for d, c in out.items() if c}


def _from_univariate(u: dict, x: str) -> Poly:
    out: Poly = {}
    for d, coeff in u.items():
        for m, c in coeff.items():
            mm = _mono_mul(m, ((x, d),) if d else ())
            s = out.get(mm, 0) + c
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
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
    """Primitive positive-leading gcd over the rationals."""
    if not a and not b:
        return {}
    if not a:
        _, prim = p_content_sign(b)
        return prim
    if not b:
        _, prim = p_content_sign(a)
        return prim
    if p_degree(a) == 0 or p_degree(b) == 0:
        return p_const(1)
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
        mono_g: Poly = {mono: Fraction(1)}
    else:
        mono_g = p_const(1)
    if len(a) == 1 or len(b) == 1:
        # a gcd with a single term is a monomial, and no variable is common
        # to every term any more
        return mono_g
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


def _cancel(a: Poly, b: Poly):
    """a and b divided by their primitive positive-leading gcd."""
    g = p_gcd(a, b)
    if p_is_one(g):
        return a, b
    return p_div_exact(a, g), p_div_exact(b, g)


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


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class Scalar:
    """A multivariate rational function in canonical form.

    Canonical form: gcd(num, den) = 1, the denominator is a primitive integer
    polynomial with positive leading coefficient, and zero is 0/1.  Equality
    of canonical forms is literal dict equality.

    Arithmetic keeps this form without a gcd of the full products, as
    fractions.Fraction does over the integers (Knuth, TAOCP vol. 2, 4.5.1).
    By Gauss's lemma a product of primitive positive-leading polynomials is
    primitive positive-leading, and so is the quotient of one by a primitive
    positive-leading factor of it, so cross-cancelled products need no
    content clearing.  A product a/b * c/d divides out gcd(a, d) and
    gcd(c, b) only; a quotient divides out gcd(a, c) and gcd(d, b).  A sum
    with a denominator 1 is already canonical; for other denominators
    (Henrici's rule) only g = gcd(b, d) can share a factor with
    a*(d/g) + c*(b/g), so the sum needs no gcd at all when g = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if not isinstance(num, dict):
            num = p_const(num)
        if den is None:
            den = p_const(1)
        elif not isinstance(den, dict):
            den = p_const(den)
        if _canonical:
            self.num, self.den = num, den
            return
        if p_is_zero(den):
            raise DomainError("division by the zero polynomial")
        if p_is_zero(num):
            self.num, self.den = {}, p_const(1)
            return
        if not p_is_one(den):
            num, den = _cancel(num, den)
            content, prim = p_content_sign(den)
            den = prim
            num = {m: c / content for m, c in num.items()}
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Scalar":
        return Scalar(p_const(c), None, _canonical=True)

    @staticmethod
    def var(name: str) -> "Scalar":
        return Scalar(p_var(name), None, _canonical=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def as_constant(self) -> Optional[Fraction]:
        """The value as a rational constant, or None when variables occur."""
        if not self.num:
            return Fraction(0)
        if p_is_one(self.den) and p_is_const(self.num):
            return self.num[_ONE_MONO]
        return None

    def variables(self) -> set:
        return p_variables(self.num) | p_variables(self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            return self
        if not self.num:
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        if b == d:
            num = p_add(a, c)
            if not num:
                return Scalar.const(0)
            if not p_is_one(b):
                num, b = _cancel(num, b)
            return Scalar(num, b, _canonical=True)
        if p_is_one(b):
            return Scalar(p_add(p_mul(a, d), c), d, _canonical=True)
        if p_is_one(d):
            return Scalar(p_add(a, p_mul(c, b)), b, _canonical=True)
        g = p_gcd(b, d)
        if p_is_one(g):
            return Scalar(p_add(p_mul(a, d), p_mul(c, b)), p_mul(b, d), _canonical=True)
        b, d = p_div_exact(b, g), p_div_exact(d, g)
        num = p_add(p_mul(a, d), p_mul(c, b))
        num, g = _cancel(num, g)
        return Scalar(num, p_mul(p_mul(b, d), g), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(p_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.num or not o.num:
            return Scalar.const(0)
        a, b, c, d = self.num, self.den, o.num, o.den
        if not (p_is_one(d) or p_is_const(a)):
            a, d = _cancel(a, d)
        if not (p_is_one(b) or p_is_const(c)):
            c, b = _cancel(c, b)
        den = d if p_is_one(b) else b if p_is_one(d) else p_mul(b, d)
        return Scalar(p_mul(a, c), den, _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise DomainError("division by the zero polynomial")
        if not self.num:
            return Scalar.const(0)
        a, b, c, d = self.num, self.den, o.num, o.den
        if not p_is_one(c):
            a, c = _cancel(a, c)
        if not (p_is_one(b) or p_is_one(d)):
            d, b = _cancel(d, b)
        num = p_mul(a, d)
        if not p_is_one(c):
            content, c = p_content_sign(c)
            num = {m: v / content for m, v in num.items()}
        return Scalar(num, p_mul(b, c), _canonical=True)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        if n == 0:
            return Scalar.const(1)
        if n < 0:
            return Scalar.const(1) / self ** -n
        return Scalar(p_pow(self.num, n), p_pow(self.den, n), _canonical=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- calculus / substitution -------------------------------------------

    def partial(self, name: str) -> "Scalar":
        """d/d(name) of a/b = (a'b - ab')/b^2, reduced by two small gcds.

        For an irreducible q with b = q^k c: if q involves name, q divides
        neither a, c nor q', so q^(k-1) exactly divides a'b - ab'
        (characteristic 0); if not, q' = 0 and q^v divides it for some
        v >= k ((x + 1 + xy)/(y^2 (x + 1)) gives y^3 for name x).  So
        g1 = gcd(a'b - ab', b) takes out q^(k-1), respectively q^k, and
        g2 = gcd((a'b - ab')/g1, g1) the min(v - k, k) factors q that b^2
        still shares.  (b/g1)(b/g2) is primitive and positive-leading
        (Gauss's lemma).
        """
        dn = p_diff(self.num, name)
        dd = p_diff(self.den, name)
        if not dd:
            return Scalar(dn, self.den)
        num = p_sub(p_mul(dn, self.den), p_mul(self.num, dd))
        g1 = p_gcd(num, self.den)
        if p_is_one(g1):
            return Scalar(num, p_mul(self.den, self.den), _canonical=True)
        num = p_div_exact(num, g1)
        g2 = p_gcd(num, g1)
        if not p_is_one(g2):
            num = p_div_exact(num, g2)
        return Scalar(num, p_mul(p_div_exact(self.den, g1), p_div_exact(self.den, g2)),
                      _canonical=True)

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Simultaneous substitution of names by scalars, then canonicalization."""
        if not bindings:
            return self
        mine = self.variables()
        if not any(n in mine for n in bindings):
            return self
        num = _p_subst(self.num, bindings)
        den = _p_subst(self.den, bindings)
        if den.is_zero():
            raise DomainError(f"substitution produced a zero denominator in {self}")
        return num / den

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        d = p_eval(self.den, point)
        if d == 0:
            raise ZeroDivisionError("denominator vanished at the sample point")
        return p_eval(self.num, point) / d

    def residue(self, point: Mapping[str, Fraction], residues: Mapping[str, int],
                p: int) -> Optional[int]:
        """The value at a rational point mod p, or None when p divides its
        denominator; residues holds the point's coordinates mod p.

        Numerator and denominator are evaluated with int arithmetic mod p.
        When the denominator's residue is 0, or p divides a coefficient's
        denominator, this entry alone is evaluated exactly, so a pole over
        Q still raises ZeroDivisionError.
        """
        n = _p_residue(self.num, residues, p)
        d = 1 if p_is_one(self.den) else _p_residue(self.den, residues, p)
        if n is None or not d:
            return residue(self.evaluate(point), p)
        return n if d == 1 else n * pow(d, -1, p) % p

    # -- normalization for reporting ----------------------------------------

    def constraint_normal(self) -> "Scalar":
        """The numerator, content-cleared and sign-fixed: same zero locus.

        Denominators consist of pivots already assumed nonzero, so the zero
        locus of a constraint is the zero locus of its numerator.
        """
        if not self.num:
            return Scalar.const(0)
        _, prim = p_content_sign(self.num)
        return Scalar(prim, None, _canonical=True)

    def __str__(self):
        if p_is_one(self.den):
            return p_str(self.num)
        ns = p_str(self.num)
        ds = p_str(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


ZERO = Scalar.const(0)
ONE = Scalar.const(1)


def add_into(row: dict, key, value: Scalar) -> None:
    """row[key] += value on a zero-free sparse row, dropping the key at zero."""
    s = row.get(key, ZERO) + value
    if s.is_zero():
        row.pop(key, None)
    else:
        row[key] = s


def _p_subst(p: Poly, bindings: Mapping[str, Scalar]) -> Scalar:
    total = Scalar.const(0)
    for m, c in p.items():
        term = Scalar.const(c)
        for name, e in m:
            b = bindings.get(name)
            term = term * (b ** e if b is not None else Scalar({((name, e),): Fraction(1)}, None, _canonical=True))
        total = total + term
    return total


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

ROLE_FIELD = "field"
ROLE_JET = "jet"
ROLE_MULTIPLIER = "multiplier"
ROLE_GRASSMANN = "grassmann"

_ROLE_SOLVE_RANK = {ROLE_MULTIPLIER: 0, ROLE_JET: 1, ROLE_FIELD: 2, ROLE_GRASSMANN: 0}


@dataclass(frozen=True)
class Dependent:
    """A dependent chart coordinate with its role and prolongation level.

    parent ties jets to (field, independent) and Grassmann coordinates to the
    (coordinate, independent) pair they prolong.
    """

    name: str
    role: str = ROLE_FIELD
    level: int = 0
    parent: Optional[tuple] = None


class Chart:
    """A single coordinate chart: ordered independents and tagged dependents."""

    def __init__(self, independent: Sequence[str], dependent: Sequence[Dependent]):
        self.independent = tuple(independent)
        self.dependent = tuple(dependent)
        if len(self.independent) < 1:
            raise ValueError("at least one independent coordinate is required")
        names = list(self.independent) + [d.name for d in self.dependent]
        if len(set(names)) != len(names):
            raise ValueError("chart names must be unique across independents and dependents")
        self._pos = {n: i for i, n in enumerate(names)}
        self._dep = {d.name: d for d in self.dependent}

    @property
    def m(self) -> int:
        return len(self.independent)

    @property
    def names(self) -> tuple:
        return tuple(self._pos)

    @property
    def dim(self) -> int:
        return len(self._pos)

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def position(self, name: str) -> int:
        return self._pos[name]

    def is_independent(self, name: str) -> bool:
        return name in self._pos and self._pos[name] < len(self.independent)

    def level_of(self, name: str) -> int:
        d = self._dep.get(name)
        return d.level if d else 0

    def role_of(self, name: str) -> Optional[str]:
        d = self._dep.get(name)
        return d.role if d else None

    def extend(self, new_dependents: Sequence[Dependent]) -> "Chart":
        return Chart(self.independent, self.dependent + tuple(new_dependents))

    def drop(self, names: Iterable[str]) -> "Chart":
        gone = set(names)
        if gone & set(self.independent):
            raise ValueError("independent coordinates cannot be eliminated")
        return Chart(self.independent, tuple(d for d in self.dependent if d.name not in gone))

    def solve_order(self) -> list:
        """Default elimination order: highest level first, multipliers before
        jets before fields within level 0, declaration order as tiebreak."""
        deps = list(self.dependent)
        deps.sort(key=lambda d: (-d.level, _ROLE_SOLVE_RANK.get(d.role, 1), self._pos[d.name]))
        return [d.name for d in deps]

    def __repr__(self):
        return f"Chart({list(self.independent)} | {[d.name for d in self.dependent]})"


# ---------------------------------------------------------------------------
# linear solving
# ---------------------------------------------------------------------------

@dataclass
class LinearSolveResult:
    """Triangular-resolved solution of an affine-linear system over the field.

    solved maps eliminated unknowns to right-hand sides free of every solved
    unknown; residual holds the unknown-free compatibility scalars; free lists
    unknowns left undetermined; assumptions records nonconstant pivots that
    were divided by (each is assumed nonzero); nonlinear holds, in input
    order, the equations set aside as not affine-linear in the unknowns.
    """

    solved: dict
    residual: list
    free: list
    assumptions: list
    nonlinear: list = field(default_factory=list)


def _linear_split(eq: Scalar, unknowns: Sequence[str]):
    """Write eq as sum(coeff[u]*u) + const, or None when not affine-linear."""
    uset = set(unknowns)
    if p_variables(eq.den) & uset:
        return None
    coeffs: dict = {}
    const: Poly = {}
    for m, c in eq.num.items():
        hit = None
        for name, e in m:
            if name in uset:
                if hit is not None or e > 1:
                    return None
                hit = name
        if hit is None:
            s = const.get(m, 0) + c
            if s:
                const[m] = s
            else:
                const.pop(m, None)
        else:
            rest = tuple(p for p in m if p[0] != hit)
            cur = coeffs.setdefault(hit, {})
            s = cur.get(rest, 0) + c
            if s:
                cur[rest] = s
            else:
                cur.pop(rest, None)
    den = Scalar(eq.den, None, _canonical=True)
    out = {u: Scalar(p, None) / den for u, p in coeffs.items() if p}
    return out, Scalar(const, None) / den


def solve_linear(eqs: Sequence[Scalar], unknowns: Sequence[str]) -> LinearSolveResult:
    """Gaussian elimination over the scalar field, of equations given as scalars.

    Each nonzero equation is split into its coefficients and constant and
    the rows are handed to solve_rows; an equation that is not affine-linear
    in the unknowns is set aside in the result's nonlinear list.
    """
    split = [(eq, _linear_split(eq, unknowns)) for eq in eqs if not eq.is_zero()]
    res = solve_rows([row for _, row in split if row is not None], unknowns)
    res.nonlinear = [eq for eq, row in split if row is None]
    return res


def solve_rows(rows: Sequence[tuple], unknowns: Sequence[str]) -> LinearSolveResult:
    """Gaussian elimination over the scalar field.

    A row is (coefficients, constant) for the equation
    sum(coefficients[u] * u) + constant = 0, with coefficients mapping
    unknowns to nonzero scalars free of the unknowns; the coefficient dicts
    are consumed, updated in place through add_into, and so stay zero-free.
    Pivots follow the given unknown order (earlier unknowns are eliminated
    first); among candidate rows for an unknown, constant pivot coefficients
    are preferred, then sparser ones.  A nonconstant pivot is recorded as a
    genericity assumption.
    """
    rows = list(rows)
    solved: dict = {}
    order: list = []
    assumptions: list = []
    for u in unknowns:
        best = None
        for idx, (coeffs, _) in enumerate(rows):
            c = coeffs.get(u)
            if c is None:
                continue
            rank = (0 if c.as_constant() is not None else 1, len(c.num), idx)
            if best is None or rank < best[0]:
                best = (rank, idx)
        if best is None:
            continue
        _, idx = best
        coeffs, const = rows.pop(idx)
        pivot = coeffs.pop(u)
        if pivot.as_constant() is None:
            assumptions.append(pivot.constraint_normal())
        rhs = {v: -(c / pivot) for v, c in coeffs.items()}
        rhs_const = -(const / pivot)
        solved[u] = (rhs, rhs_const)
        order.append(u)
        for k, (oc, ocst) in enumerate(rows):
            fac = oc.pop(u, None)
            if fac is not None:
                for v, c in rhs.items():
                    add_into(oc, v, fac * c)
                rows[k] = (oc, ocst + fac * rhs_const)
    # back-substitute so right-hand sides are free of every solved unknown
    resolved: dict = {}
    for u in reversed(order):
        rhs, rhs_const = solved[u]
        expr = rhs_const
        for v, c in rhs.items():
            if v in resolved:
                expr = expr + c * resolved[v]
            else:
                expr = expr + c * Scalar.var(v)
        resolved[u] = expr
    residual = []
    for coeffs, const in rows:
        if coeffs:  # unreachable for a consistent elimination, kept as a guard
            expr = const
            for v, c in coeffs.items():
                expr = expr + c * Scalar.var(v)
            residual.append(expr)
        elif not const.is_zero():
            residual.append(const)
    free = [u for u in unknowns if u not in resolved]
    return LinearSolveResult(solved={u: resolved[u] for u in order},
                             residual=residual, free=free, assumptions=assumptions)


# ---------------------------------------------------------------------------
# seeded sampling and modular rank
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_PRIMES = ((1 << 61) - 1, (1 << 89) - 1)
SAMPLE_BOUND = 10_000
SAMPLES = 3                 # most sample points per generic rank


class SeedStream:
    """SplitMix64: a tiny, fully deterministic random stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def fraction(self) -> Fraction:
        num = self.randint(-(SAMPLE_BOUND - 1), SAMPLE_BOUND - 1)
        den = self.randint(1, SAMPLE_BOUND - 1)
        return Fraction(num, den)


def sample_point(names: Iterable[str], stream: SeedStream) -> dict:
    return {n: stream.fraction() for n in sorted(names)}


def rank_fractions(reduce: Callable[[int], Sequence[Mapping[int, Optional[int]]]],
                   cuts: Sequence[int]) -> tuple:
    """Ranks of the leading blocks rows[:k], for k in cuts, of a sparse rational matrix.

    reduce(p) gives the rows modulo p: a row maps a column to the residue
    of its entry, or to None where p divides the entry's denominator.  Only
    the entries present are read, so callers pass the nonzero ones.  One
    echelon pass modulo each of two large primes yields the rank of every
    block, and each block takes the larger of its two modular ranks (a
    modular rank never exceeds the rational one).  When the first prime
    already gives every block its row count, the most any prime can give,
    the second is neither reduced to nor run.
    A prime that divides the denominator of an entry still serves the blocks
    that end before that entry's row.  A block that no prime serves raises
    ZeroDivisionError, so that no matrix reads as rank 0 for want of a usable
    prime.  cuts must be nondecreasing.
    """
    best = [-1] * len(cuts)
    for p in _PRIMES:
        for j, r in enumerate(_rank_mod(reduce(p), cuts, p)):
            best[j] = max(best[j], r)
        if best == list(cuts):
            break
    if -1 in best:
        raise ZeroDivisionError("every prime divides a denominator of the matrix")
    return tuple(best)


def _rank_mod(rows, cuts, p: int) -> list:
    """Ranks modulo p of the leading blocks rows[:k] of a matrix of residues
    mod p, for the k in cuts that end before the first row with a None."""
    echelon: dict = {}  # least column of a reduced row -> the row, scaled to 1 there
    ranks = []
    done = 0
    for k in cuts:
        for row in rows[done:k]:
            red = {}
            for c, x in row.items():
                if x is None:
                    return ranks
                if x:
                    red[c] = x
            while red:
                c = min(red)
                piv = echelon.get(c)
                if piv is None:
                    inv = pow(red[c], -1, p)
                    echelon[c] = {j: x * inv % p for j, x in red.items()}
                    break
                f = red[c]
                for j, x in piv.items():
                    y = (red.get(j, 0) - f * x) % p
                    if y:
                        red[j] = y
                    else:
                        del red[j]
        done = k
        ranks.append(len(echelon))
    return ranks


def generic_ranks(matrices: Callable[[dict], tuple], names: Iterable[str],
                  stream: SeedStream) -> tuple:
    """Generic ranks of the leading blocks of a point-dependent rational matrix,
    by seeded sampling.

    matrices(point) returns (reduce, cuts) at a point drawn over names: the
    rows mod p as rank_fractions takes them, and the row counts of the
    leading blocks to rank.  matrices may draw further values from stream
    (flag directions); reduce runs once per prime and must not.  A point
    where either raises ZeroDivisionError (a vanishing denominator) is
    redrawn, up to 8 times per sample.  The result is the componentwise
    maximum of the block ranks over at most SAMPLES samples, stopping once
    every block has its row count, which no sample could raise; each caller
    has its own stream, so that shifts no other draw.

    The error is one-sided: a sampled rank never exceeds the generic rank r.
    A minor that vanishes identically vanishes at every point and modulo
    every prime, so a sample can only fall short of r, and only when the
    point is a zero of a nonzero r x r minor or the prime divides its value.
    For a minor of degree D and coordinates drawn uniformly from a finite
    set S the former has probability at most D/|S| (Schwartz 1980; Zippel
    1979).  Maximizing each block's rank over samples thus only moves it
    toward its r.
    """
    best = None
    for _ in range(SAMPLES):
        full = False
        for _retry in range(8):
            point = sample_point(names, stream)
            try:
                reduce, cuts = matrices(point)
                got = rank_fractions(reduce, cuts)
            except ZeroDivisionError:
                continue
            best = got if best is None else tuple(map(max, best, got))
            full = best == tuple(cuts)
            break
        if full:
            break
    if best is None:
        raise AllSamplesDegenerate("every sample point hit a vanishing denominator")
    return best


def random_rank(matrix: Sequence[Sequence[Scalar]], seed: int) -> int:
    """Generic rank of a matrix of scalars: max modular rank over seeded samples.

    Only the nonzero entries are reduced; a zero has denominator 1 and
    could never make a sample point fail.  A matrix of full row rank takes
    one sample.
    """
    rows = [{j: c for j, c in enumerate(row) if not c.is_zero()} for row in matrix]
    names = set()
    for row in rows:
        for c in row.values():
            names |= c.variables()

    def sampled(point):
        def reduce(p):
            res = {n: residue(v, p) for n, v in point.items()}
            return [{j: c.residue(point, res, p) for j, c in row.items()} for row in rows]
        return reduce, (len(rows),)

    (rank,) = generic_ranks(sampled, names, SeedStream(seed))
    return rank
