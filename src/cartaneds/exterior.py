"""Graded exterior algebra of differential forms on a chart.

Forms are sparse: a degree-k form maps strictly increasing coordinate index
tuples (in chart order) to scalars, with the canonical sign absorbed into the
coefficient.  Interior products are taken one vector at a time
(Form.contract); a multivector Z_1 /\\ ... /\\ Z_k acts by successive
contractions, Z_1 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .scalars import Chart, Scalar, ZERO, ONE, add_into, random_rank


class CoframeDegenerate(ValueError):
    """Generators are not in reduced form, or their coframe fails the
    full-rank check."""


def _sort_with_sign(names: Sequence[str], chart: Chart):
    """Sort coordinate names by chart position; return (tuple, sign) or None on repeats."""
    order = [chart.position(n) for n in names]
    if len(set(order)) != len(order):
        return None
    perm = sorted(range(len(order)), key=lambda i: order[i])
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    sign = -1 if inv % 2 else 1
    return tuple(names[i] for i in perm), sign


class Form:
    """A differential form on a chart; degree 0 wraps a single scalar."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Optional[Mapping] = None):
        self.chart = chart
        self.degree = degree
        self.terms = {}
        if terms:
            for idx, coef in terms.items():
                if not isinstance(coef, Scalar):
                    coef = Scalar(coef)
                if coef.is_zero():
                    continue
                self.terms[tuple(idx)] = coef

    # -- constructors --------------------------------------------------------

    @staticmethod
    def scalar(chart: Chart, value) -> "Form":
        v = value if isinstance(value, Scalar) else Scalar(value)
        return Form(chart, 0, {(): v} if not v.is_zero() else {})

    @staticmethod
    def differential(chart: Chart, name: str) -> "Form":
        if name not in chart:
            raise KeyError(f"unknown coordinate {name!r}")
        return Form(chart, 1, {(name,): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def as_scalar(self) -> Scalar:
        if self.degree != 0:
            raise ValueError("not a degree-0 form")
        return self.terms.get((), ZERO)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.terms and other.terms and self.degree != other.degree:
            return False
        return self.terms == other.terms

    __hash__ = None

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add forms of different degree")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            add_into(terms, idx, c)
        return _form(self.chart, self.degree if self.terms else other.degree, terms)

    def __neg__(self) -> "Form":
        return _form(self.chart, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, s) -> "Form":
        s = s if isinstance(s, Scalar) else Scalar(s)
        if s.is_zero():
            return Form(self.chart, self.degree, {})
        return Form(self.chart, self.degree, {i: c * s for i, c in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        deg = self.degree + other.degree
        if deg > self.chart.dim:
            return Form(self.chart, deg, {})
        terms: dict = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                sorted_idx = _sort_with_sign(ia + ib, self.chart)
                if sorted_idx is None:
                    continue
                idx, sign = sorted_idx
                add_into(terms, idx, ca * cb if sign > 0 else -(ca * cb))
        return _form(self.chart, deg, terms)

    def d(self) -> "Form":
        """Exterior derivative."""
        terms: dict = {}
        for idx, coef in self.terms.items():
            for name in sorted(coef.variables()):
                if name not in self.chart:
                    continue
                dc = coef.partial(name)
                if dc.is_zero():
                    continue
                sorted_idx = _sort_with_sign((name,) + idx, self.chart)
                if sorted_idx is None:
                    continue
                full, sign = sorted_idx
                add_into(terms, full, dc if sign > 0 else -dc)
        return _form(self.chart, self.degree + 1, terms)

    def contract(self, vector: Mapping[str, Scalar]) -> "Form":
        """Interior product with a vector field given by its components."""
        if self.degree < 1:
            raise ValueError("cannot contract a degree-0 form")
        terms: dict = {}
        for idx, coef in self.terms.items():
            for k, name in enumerate(idx):
                comp = vector.get(name)
                if comp is None or (isinstance(comp, Scalar) and comp.is_zero()):
                    continue
                c = coef * comp
                add_into(terms, idx[:k] + idx[k + 1:], -c if k % 2 else c)
        return _form(self.chart, self.degree - 1, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=lambda i: tuple(self.chart.position(n) for n in i)):
            coef = self.terms[idx]
            wedge = "/\\".join(f"d({n})" for n in idx)
            cs = str(coef)
            if idx:
                if cs == "1":
                    parts.append(wedge)
                elif cs == "-1":
                    parts.append(f"-{wedge}")
                else:
                    if coef.is_compound():
                        cs = f"({cs})"
                    parts.append(f"{cs}*{wedge}")
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _form(chart: Chart, degree: int, terms: dict) -> Form:
    """A Form of zero-free terms, taken as they are (Form() filters them)."""
    f = object.__new__(Form)
    f.chart, f.degree, f.terms = chart, degree, terms
    return f


# ---------------------------------------------------------------------------
# substitution / pullback
# ---------------------------------------------------------------------------

class Substitution:
    """Coordinate substitution (locus restriction): bound names with scalar values.

    Right-hand sides must only reference retained names (triangular-resolved);
    pullback of a differential uses d of the binding, so pullback commutes
    with the exterior derivative.  It is never mutated, so pulled
    differentials are kept.
    """

    def __init__(self, chart: Chart, bindings: Mapping[str, Scalar]):
        self.chart = chart  # the retained (target) chart
        self.bindings = {n: (v if isinstance(v, Scalar) else Scalar(v)) for n, v in bindings.items()}
        for name, value in self.bindings.items():
            bad = value.variables() & set(self.bindings)
            if bad:
                raise ValueError(f"substitution not resolved: {name} -> {value} references {sorted(bad)}")
        self._pulled: dict = {}

    def scalar(self, s: Scalar) -> Scalar:
        return s.substitute(self.bindings)

    def _pulled_d(self, name: str) -> Form:
        """The pullback of d(name): d of its binding, or d(name) when unbound."""
        dn = self._pulled.get(name)
        if dn is None:
            b = self.bindings.get(name)
            dn = Form.differential(self.chart, name) if b is None else Form.scalar(self.chart, b).d()
            self._pulled[name] = dn
        return dn

    def form(self, a: Form) -> Form:
        terms: dict = {}
        for idx, coef in a.terms.items():
            c = self.scalar(coef)
            if c.is_zero():
                continue
            if len(idx) == 1:
                term = {i: c * v for i, v in self._pulled_d(idx[0]).terms.items()}
            else:
                f = Form.scalar(self.chart, c)
                for name in idx:
                    f = f.wedge(self._pulled_d(name))
                term = f.terms
            for i, v in term.items():
                add_into(terms, i, v)
        return _form(self.chart, a.degree, terms)

    def compose(self, later: "Substitution") -> "Substitution":
        """The substitution 'first self, then later' as a single resolved map."""
        merged = {n: later.scalar(v) for n, v in self.bindings.items()}
        for n, v in later.bindings.items():
            if n not in merged:
                merged[n] = v
        return Substitution(later.chart, merged)

    def __repr__(self):
        inner = ", ".join(f"{n} -> {v}" for n, v in sorted(self.bindings.items()))
        return f"Substitution({inner})"


def identity_substitution(chart: Chart) -> Substitution:
    return Substitution(chart, {})


# ---------------------------------------------------------------------------
# coframe expansion
# ---------------------------------------------------------------------------

class CoframeExpansion:
    """Expansion of coordinate differentials modulo the generators of a
    reduced Pfaffian system.

    Each generator theta_a has a unit at its own pivot coordinate and no
    term at any other pivot, so modulo the generators
    d(pivot_a) = -sum_c g_a[c] dc over the non-pivot coordinates c, and
    d(c) is its own label.  The labels are the non-pivot coordinates in
    chart order: the independents (omega), then the complement (pi).  A
    generator out of reduced form, or a pivot shared by two generators,
    raises CoframeDegenerate.
    """

    def __init__(self, chart: Chart, generators: Sequence[Form], pivots: Sequence[str]):
        taken = set(pivots)
        if len(taken) != len(pivots):
            raise CoframeDegenerate("each generator needs a pivot of its own")
        self.labels = [n for n in chart.names if n not in taken]
        self.label = label = {n: k for k, n in enumerate(self.labels)}
        # coords[name] = list of (label index, Scalar): d(name) = sum c * d(label)
        self.coords = {n: [(k, ONE)] for n, k in label.items()}
        for g, p in zip(generators, pivots):
            if g.terms.get((p,)) != ONE:
                raise CoframeDegenerate(f"generator {g} has no unit at its pivot {p}")
            row = []
            for (n,), c in g.terms.items():
                if n in label:
                    row.append((label[n], -c))
                elif n != p:
                    raise CoframeDegenerate(f"generator {g} has a term at the pivot {n}")
            self.coords[p] = sorted(row)
        # implied by the reduced form, whose matrix is unit triangular up to
        # a permutation of columns; one sample, as the matrix has full rank,
        # and kept while perfbench/layers.py requires random_rank to be
        # reached (ROADMAP item 1).  [G; I] goes as sparse rows by chart
        # position: the generators, then a unit row per label
        pos = chart.position
        rows = [{pos(n): c for (n,), c in g.terms.items()} for g in generators]
        rows += [{pos(n): ONE} for n in self.labels]
        if random_rank(rows, seed=0) != chart.dim:
            raise CoframeDegenerate("coframe coefficient matrix is not of full rank")

    def expand_two_form(self, f: Form) -> dict:
        """Coefficients over ordered label pairs (i < j) of the wedge basis
        of the labels, modulo the generators."""
        out: dict = {}
        for (na, nb), coef in f.terms.items():
            for ja, ca in self.coords[na]:
                cc = coef * ca
                for jb, cb in self.coords[nb]:
                    if ja == jb:
                        continue
                    key = (ja, jb) if ja < jb else (jb, ja)
                    c = cc * cb
                    add_into(out, key, -c if jb < ja else c)
        return out


def vertical_degree(a: Form) -> int:
    """Largest number of non-independent differentials in any term."""
    chart = a.chart
    best = 0
    for idx in a.terms:
        v = sum(1 for n in idx if not chart.is_independent(n))
        best = max(best, v)
    return best


def contact_form(chart: Chart, name: str, slopes: Sequence[Scalar]) -> Form:
    """d(name) - sum_i slopes[i] d(x^i), slopes in the order of chart.independent."""
    terms = {(name,): ONE}
    for x, s in zip(chart.independent, slopes):
        terms[(x,)] = -s
    return Form(chart, 1, terms)


def volume_form(chart: Chart) -> Form:
    return Form(chart, chart.m, {tuple(chart.independent): ONE})


def volume_contraction(chart: Chart, names: Sequence[str]) -> Form:
    """eta_{i...}: successive interior products of the volume by coordinate directions."""
    f = volume_form(chart)
    for n in names:
        f = f.contract({n: ONE})
    return f
