"""Exact arithmetic over multivariate rational functions with rational coefficients.

Everything downstream (differential forms, Pfaffian systems, the constraint
ladder) runs over the field implemented here.  There is no floating point
anywhere: zero tests are decidable, canonical forms are unique, and every
randomized computation is driven by an explicit seed.  A Scalar is a
quotient of two polynomials of poly.py, and reaches their terms only
through poly's functions.

Sparse rows of scalars (form terms, two-form expansions modulo the
generators, the rows of a linear solve) never hold an explicit zero.  Every
accumulation goes through add_into, which drops a key whose sum cancels, so
code reading such a row never re-tests its entries for zero.

Generic ranks are sampled at seeded points of F_p, one prime per sample,
alternating between two large primes: each entry is reduced mod p at the
point, the matrix is ranked in one echelon pass, and sampling stops once
every block meets the term rank of its nonzero pattern (see generic_ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .poly import (DomainError, Poly, p_add, p_clear_den_content, p_const, p_constant,
                   p_content_sign, p_diff, p_div_exact, p_eval, p_gcd, p_is_one,
                   p_linear_split, p_mul, p_neg, p_normal, p_pow, p_residue, p_scale,
                   p_str, p_strip_factors, p_sub, p_var, p_variables)


class NonLinearInUnknowns(ValueError):
    """An equation a restriction must solve is not affine-linear in its unknowns."""

    def __init__(self, equation: "Scalar"):
        self.equation = equation
        super().__init__(f"equation is not affine-linear in the unknowns: {equation}")


class AllSamplesDegenerate(ArithmeticError):
    """Every random sample hit a denominator zero during rank estimation."""


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

_ONE = p_const(1)


def _cancel(a: Poly, b: Poly):
    """a and b divided by their primitive positive-leading gcd."""
    g = p_gcd(a, b)
    if p_is_one(g):
        return a, b
    return p_div_exact(a, g), p_div_exact(b, g)


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
    gcd(c, b) only, and a constant operand only scales the other's
    numerator; a quotient divides out gcd(a, c) and gcd(d, b).  A sum
    with a denominator 1 is already canonical; for other denominators
    (Henrici's rule) only g = gcd(b, d) can share a factor with
    a*(d/g) + c*(b/g), so the sum needs no gcd at all when g = 1.

    Scalar(num, den) always canonicalises (p_normal makes integral Fraction
    coefficients ints); results canonical by these rules are built by
    _canonical, which takes its parts as they are.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = p_normal(num) if isinstance(num, dict) else p_const(num)
        if den is None:
            den = _ONE
        else:
            den = p_normal(den) if isinstance(den, dict) else p_const(den)
        if not den:
            raise DomainError("division by the zero polynomial")
        if not num:
            self.num, self.den = {}, _ONE
            return
        if not p_is_one(den):
            num, den = p_clear_den_content(*_cancel(num, den))
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Scalar":
        return _canonical(p_const(c), _ONE)

    @staticmethod
    def var(name: str) -> "Scalar":
        return _canonical(p_var(name), _ONE)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def as_constant(self):
        """The value as a rational constant, or None when variables occur."""
        return p_constant(self.num) if p_is_one(self.den) else None

    def is_compound(self) -> bool:
        """True when str(self) is a quotient or a sum, which a product brackets."""
        return not p_is_one(self.den) or len(self.num) > 1

    def is_multiple_of(self, other: "Scalar") -> bool:
        """True when the numerator of other divides the numerator of self."""
        return p_div_exact(self.num, other.num) is not None

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
            return _canonical(num, b)
        if p_is_one(b):
            return _canonical(p_add(p_mul(a, d), c), d)
        if p_is_one(d):
            return _canonical(p_add(a, p_mul(c, b)), b)
        g = p_gcd(b, d)
        if p_is_one(g):
            return _canonical(p_add(p_mul(a, d), p_mul(c, b)), p_mul(b, d))
        b, d = p_div_exact(b, g), p_div_exact(d, g)
        num = p_add(p_mul(a, d), p_mul(c, b))
        num, g = _cancel(num, g)
        return _canonical(num, p_mul(p_mul(b, d), g))

    __radd__ = __add__

    def __neg__(self):
        return _canonical(p_neg(self.num), self.den)

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
        ka, kc = p_constant(a), p_constant(c)
        # a constant operand k scales the other's numerator: gcd(k*a, b) = gcd(a, b)
        if kc is not None and p_is_one(d):
            return self if kc == 1 else _canonical(p_scale(a, kc), b)
        if ka is not None and p_is_one(b):
            return o if ka == 1 else _canonical(p_scale(c, ka), d)
        if ka is None and not p_is_one(d):
            a, d = _cancel(a, d)
        if kc is None and not p_is_one(b):
            c, b = _cancel(c, b)
        den = d if p_is_one(b) else b if p_is_one(d) else p_mul(b, d)
        return _canonical(p_mul(a, c), den)

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
            num, c = p_clear_den_content(num, c)
        return _canonical(num, p_mul(b, c))

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
        return _canonical(p_pow(self.num, n), p_pow(self.den, n))

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
            return _canonical(num, p_mul(self.den, self.den))
        num = p_div_exact(num, g1)
        g2 = p_gcd(num, g1)
        if not p_is_one(g2):
            num = p_div_exact(num, g2)
        return _canonical(num, p_mul(p_div_exact(self.den, g1), p_div_exact(self.den, g2)))

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Simultaneous substitution of names by scalars, then canonicalization."""
        if not bindings:
            return self
        mine = self.variables()
        if not any(n in mine for n in bindings):
            return self

        def power(name, e):
            b = bindings.get(name)
            return b ** e if b is not None else _canonical(p_var(name, e), _ONE)
        num = p_eval(self.num, Scalar.const, power)
        den = p_eval(self.den, Scalar.const, power)
        if den.is_zero():
            raise DomainError(f"substitution produced a zero denominator in {self}")
        return num / den

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        def power(name, e):
            return point[name] ** e
        d = p_eval(self.den, Fraction, power)
        if d == 0:
            raise ZeroDivisionError("denominator vanished at the sample point")
        return p_eval(self.num, Fraction, power) / d

    def residue(self, point: Mapping[str, int], p: int) -> Optional[int]:
        """The value mod p at a point of residues mod p, or None when it has
        none there: the denominator vanishes at the point, or p divides the
        denominator of a coefficient.

        Numerator and denominator are evaluated with int arithmetic mod p.
        """
        n = p_residue(self.num, point, p)
        if p_is_one(self.den):
            return n
        d = p_residue(self.den, point, p)
        return None if n is None or not d else n * pow(d, -1, p) % p

    # -- normalization for reporting ----------------------------------------

    def constraint_normal(self) -> "Scalar":
        """The numerator, content-cleared and sign-fixed: same zero locus.

        Denominators consist of pivots already assumed nonzero, so the zero
        locus of a constraint is the zero locus of its numerator.
        """
        if not self.num:
            return Scalar.const(0)
        _, prim = p_content_sign(self.num)
        return _canonical(prim, _ONE)

    def strip_factors(self, factors: Iterable["Scalar"]) -> "Scalar":
        """The numerator with every factor it shares with a nonconstant one of
        factors divided out, as often as it divides (poly.p_strip_factors)."""
        nonconstant = (f.num for f in factors if f.as_constant() is None)
        return _canonical(p_strip_factors(self.num, nonconstant), _ONE)

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


def _canonical(num: Poly, den: Poly) -> Scalar:
    """The Scalar num/den of canonical parts."""
    s = object.__new__(Scalar)
    s.num, s.den = num, den
    return s


ZERO = Scalar.const(0)
ONE = Scalar.const(1)


def add_into(row: dict, key, value: Scalar) -> None:
    """row[key] += value on a zero-free sparse row, dropping the key at zero;
    an absent key takes the value itself."""
    old = row.get(key)
    s = value if old is None else old + value
    if s.num:
        row[key] = s
    else:
        row.pop(key, None)


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
    split = None if p_variables(eq.den) & uset else p_linear_split(eq.num, uset)
    if split is None:
        return None
    coeffs, const = split
    den = _canonical(eq.den, _ONE)
    return {u: Scalar(p, None) / den for u, p in coeffs.items()}, Scalar(const, None) / den


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


def pivot_key(c: Scalar) -> tuple:
    """Pivot preference, least first: constants, then fewer numerator terms.
    Each caller appends its own tie-break."""
    return (c.as_constant() is None, len(c.num))


def solve_rows(rows: Sequence[tuple], unknowns: Sequence[str]) -> LinearSolveResult:
    """Gaussian elimination over the scalar field.

    A row is (coefficients, constant) for the equation
    sum(coefficients[u] * u) + constant = 0, with coefficients mapping
    unknowns to nonzero scalars free of the unknowns; the coefficient dicts
    are consumed, updated in place through add_into, and so stay zero-free.
    Pivots follow the given unknown order (earlier unknowns are eliminated
    first); the pivot row has the least (pivot_key, row index).  A
    nonconstant pivot is recorded as a genericity assumption.  holders
    maps each unknown to the live rows holding it, so a pivot search and an
    elimination touch those rows only (Duff, Erisman and Reid, 1986).
    """
    coeffs = [c for c, _ in rows]
    consts = [k for _, k in rows]
    holders: dict = {}
    for r, row in enumerate(coeffs):
        for u in row:
            holders.setdefault(u, set()).add(r)
    pivot_rows: set = set()
    solved: dict = {}
    order: list = []
    assumptions: list = []
    for u in unknowns:
        hold = holders.pop(u, None)
        if not hold:
            continue
        r = min(hold, key=lambda r: (pivot_key(coeffs[r][u]), r))
        hold.discard(r)
        pivot_rows.add(r)
        row = coeffs[r]
        pivot = row.pop(u)
        for v in row:
            holders[v].discard(r)
        if pivot.as_constant() is None:
            assumptions.append(pivot.constraint_normal())
        inv = -(ONE / pivot)
        rhs = {v: c * inv for v, c in row.items()}
        rhs_const = consts[r] * inv
        solved[u] = (rhs, rhs_const)
        order.append(u)
        for k in sorted(hold):
            oc = coeffs[k]
            fac = oc.pop(u)
            for v, c in rhs.items():
                add_into(oc, v, fac * c)
                if v in oc:
                    holders[v].add(k)
                else:
                    holders[v].discard(k)
            consts[k] = consts[k] + fac * rhs_const
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
    # every key of a row is an unknown, eliminated from every row left at its
    # turn; rows gain keys only from pivot rows, so the rows left are empty
    residual = [c for r, c in enumerate(consts) if r not in pivot_rows and not c.is_zero()]
    free = [u for u in unknowns if u not in resolved]
    return LinearSolveResult(solved={u: resolved[u] for u in order},
                             residual=residual, free=free, assumptions=assumptions)


# ---------------------------------------------------------------------------
# seeded sampling and modular rank
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_PRIMES = ((1 << 61) - 1, (1 << 89) - 1)
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

    def residue(self, p: int) -> int:
        """A uniform residue mod p < 2^128, by rejection from p.bit_length() bits."""
        while True:
            x = (self.next_u64() << 64 | self.next_u64()) >> (128 - p.bit_length())
            if x < p:
                return x


def sample_point(names: Iterable[str], stream: SeedStream, p: int) -> dict:
    return {n: stream.residue(p) for n in sorted(names)}


def rank_fractions(rows: Sequence[Mapping[int, int]], cuts: Sequence[int], p: int) -> tuple:
    """Ranks modulo p of the leading blocks rows[:k], for k in cuts, of a
    sparse matrix of residues mod p, by one echelon pass.

    A row maps a column to its residue; only the entries present are read,
    so callers pass the nonzero ones.  cuts must be nondecreasing.

    Each block's rows go sparsest first: ranks stay, fill-in falls, and
    on [G; I] the unit rows clear the labels before any row of G.
    """
    echelon: dict = {}  # least column of a reduced row -> the row, scaled to 1 there
    ranks = []
    done = 0
    for k in cuts:
        for row in sorted(rows[done:k], key=len):
            red = {c: x for c, x in row.items() if x}
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
    return tuple(ranks)


def _augment(pattern: Sequence[Iterable], owner: dict, r: int, seen: set) -> bool:
    """Match row r, moving matched rows along an augmenting path; False
    when the columns reachable from r (outside seen) are all taken."""
    for c in pattern[r]:
        if c not in seen:
            seen.add(c)
            o = owner.get(c)
            if o is None or _augment(pattern, owner, o, seen):
                owner[c] = r
                return True
    return False


def term_ranks(pattern: Sequence[Iterable], cuts: Sequence[int]) -> tuple:
    """Term ranks of the leading blocks pattern[:k], for k in cuts: the size
    of a largest matching of rows to columns, where a row lists the columns
    of its nonzero entries.  No matrix of that nonzero pattern has a larger
    rank (Konig; Duff, Erisman and Reid, 1986, ch. 6).

    Kuhn's augmenting paths, one row at a time: a largest matching of the
    rows before a row grows by one exactly when a path from that row
    augments it, so every prefix is counted on the way.
    """
    owner: dict = {}          # column -> the row matched to it
    ranks, done = [], 0
    for k in cuts:
        for r in range(done, k):
            _augment(pattern, owner, r, set())
        done = k
        ranks.append(len(owner))
    return tuple(ranks)


def generic_ranks(matrices: Callable[[dict, int], Optional[tuple]], names: Iterable[str],
                  stream: SeedStream, pattern: Optional[Sequence[Iterable]] = None) -> tuple:
    """Generic ranks of the leading blocks of a point-dependent rational matrix,
    by seeded sampling over F_p.

    Sample k draws a point of residues mod p = _PRIMES[k % 2] over names.
    matrices(point, p) returns the rows mod p, as rank_fractions takes them,
    and the row counts of the leading blocks to rank; or None when an entry
    has no value mod p there, and the point is redrawn, up to 8 times per
    sample.  matrices may draw further values (flag directions) from stream;
    each caller has its own stream, so that shifts no other draw.  Each
    block keeps its largest rank over at most SAMPLES samples.  If no sample
    served, AllSamplesDegenerate is raised, so that no matrix reads as rank 0.

    Sampling stops once every block's rank meets its term rank (term_ranks),
    the bound that the nonzero pattern of the rational matrix puts on the
    rank of the matrix and of each of its samples: pattern lists, row by
    row as matrices returns them, the columns of the entries that are not
    identically zero.  It comes from the caller's symbolic entries, never
    from a sample, whose residues may vanish by chance.  Without a pattern
    the bound is the row counts.  The term ranks are matched only once a
    sample falls short of the row counts.

    The error is one-sided: a sampled rank never exceeds the generic rank r,
    since a minor that vanishes identically vanishes at every point mod p.
    A sample falls short only where p divides every coefficient of a nonzero
    r x r minor, or its point is a zero of the minor's reduction mod p; for
    a minor of degree D and a uniform point of F_p^n the latter has
    probability at most D/p, with p >= 2^61 - 1 (Schwartz, J. ACM 27, 1980;
    Zippel 1979).  The generic rank r never exceeds the term rank, so a
    sample that meets the term rank has r, and no later sample could raise
    it: the stop returns the ranks that all SAMPLES samples would.
    """
    best = bound = None
    for k in range(SAMPLES):
        p = _PRIMES[k % 2]
        for _retry in range(8):
            got = matrices(sample_point(names, stream, p), p)
            if got is not None:
                break
        else:
            continue
        rows, cuts = got
        ranks = rank_fractions(rows, cuts, p)
        best = ranks if best is None else tuple(map(max, best, ranks))
        if best == tuple(cuts):
            break
        if pattern is not None:
            if bound is None:
                bound = term_ranks(pattern, cuts)
            if best == bound:
                break
    if best is None:
        raise AllSamplesDegenerate("no sample point gave every entry a value mod p")
    return best


def random_rank(rows: Sequence[Mapping[int, Scalar]], seed: int) -> int:
    """Generic rank of a sparse matrix of scalars: max modular rank over
    seeded samples.

    A row maps a column to its entry and holds no zero, as rank_fractions
    takes the residues; the rows are also the pattern of generic_ranks, so
    a matrix of full row rank, or one whose first sample meets its term
    rank, takes one sample.
    """
    names = set()
    for row in rows:
        for c in row.values():
            names |= c.variables()

    def sampled(point, p):
        reduced = [{j: c.residue(point, p) for j, c in row.items()} for row in rows]
        if any(None in row.values() for row in reduced):
            return None
        return reduced, (len(rows),)

    (rank,) = generic_ranks(sampled, names, SeedStream(seed), pattern=rows)
    return rank
