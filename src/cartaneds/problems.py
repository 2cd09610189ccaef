"""Problem-file parsing: a line-oriented key = value format with sections
[chart] [forms] [lepage] [params] [run], a small expression grammar for
scalars and forms, and an index-range preprocessor for families like F[i,j].

The expression grammar (shared with the CLI):
    identifiers  [A-Za-z][A-Za-z0-9_]*
    rationals    integer literals combined with / (exact arithmetic)
    operators    + - * / ^ (integer exponents) and /\\ (wedge)
    d(expr)      differential of a degree-0 expression
    eta, eta[i], eta[i,j]   volume form and its contractions by d/dx_i
    name[i,j]    indexed families, expanded to flat names (F_12, ...)
    sum(i,j : expr)         summation over declared index ranges

See docs/problem-format.md and docs/problem-grammar.ebnf for the format.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .scalars import Chart, Dependent, Scalar, ROLE_FIELD, ROLE_JET
from .exterior import Form, volume_contraction, volume_form


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = f" (line {line}" + (f", col {column})" if column is not None else ")") if line else ""
        super().__init__(message + where)


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NAMED = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*:\s*(.+)")
_BUILTIN_NAMES = {"d", "sum", "eta", "g"}
_TOKEN = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<wedge>/\\)
  | (?P<op>[-+*/^()\[\],:])
  | (?P<ws>\s+)
""", re.VERBOSE)


def tokenize(text: str, line_no: int):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup == "num":
            out.append(("num", int(m.group()), pos))
        elif m.lastgroup == "name":
            out.append(("name", m.group(), pos))
        elif m.lastgroup == "wedge":
            out.append(("op", "/\\", pos))
        elif m.lastgroup == "op":
            out.append(("op", m.group(), pos))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


def flat_name(base: str, indices) -> str:
    return f"{base}_{''.join(str(i) for i in indices)}"


@dataclass
class ExprContext:
    """Name resolution for expression evaluation.

    With fresh set to a list, an undeclared name that is not a built-in
    resolves to a variable outside the chart and is appended to fresh on
    first occurrence; the parser rejects d() of such a name.
    """
    chart: Chart
    params: dict                     # name -> Fraction
    ranges: dict                     # index name -> list[int]
    antisym: dict                    # family base -> True
    metric: Optional[dict] = None    # (i, j) -> Fraction
    fresh: Optional[list] = None

    def lookup(self, name: str, line: int):
        if name in self.chart:
            return Form.scalar(self.chart, Scalar.var(name))
        if name in self.params:
            return Form.scalar(self.chart, Scalar.const(self.params[name]))
        if self.fresh is None or name in _BUILTIN_NAMES:
            raise ParseError(f"undeclared name {name!r}", line)
        if name not in self.fresh:
            self.fresh.append(name)
        return Form.scalar(self.chart, Scalar.var(name))

    def lookup_indexed(self, base: str, indices, line: int):
        if base == "g":
            if self.metric is None:
                raise ParseError("metric entries g[i,j] need a metric declaration", line)
            if len(indices) != 2:
                raise ParseError("g takes two indices", line)
            entry = self.metric.get(tuple(indices))
            if entry is None:
                raise ParseError("g indices must lie in 1..m", line)
            return Form.scalar(self.chart, Scalar.const(entry))
        if base == "eta":
            return eta_form(self.chart, indices, self.metric, line)
        sign = 1
        idx = list(indices)
        if base in self.antisym:
            if len(idx) != 2:
                raise ParseError(f"antisymmetric family {base!r} takes two indices", line)
            if idx[0] == idx[1]:
                return Form.scalar(self.chart, Scalar.const(0))
            if idx[0] > idx[1]:
                idx = [idx[1], idx[0]]
                sign = -1
        name = flat_name(base, idx)
        got = self.lookup(name, line)
        return got if sign > 0 else -got


def eta_form(chart: Chart, indices, metric, line: int) -> Form:
    scale = metric_volume_scale(metric) if metric else Fraction(1)
    if not indices:
        return volume_form(chart).scale(scale)
    if any(not isinstance(i, int) or not (1 <= i <= chart.m) for i in indices):
        raise ParseError("eta indices must lie in 1..m", line)
    # eta[i,j] = d/dx_i .| (d/dx_j .| eta): contract the rightmost index first
    names = [chart.independent[i - 1] for i in reversed(indices)]
    return volume_contraction(chart, names).scale(scale)


def metric_volume_scale(metric) -> Fraction:
    det = Fraction(1)
    n = max(i for i, _ in metric)
    for i in range(1, n + 1):
        det *= metric[(i, i)]
    det = abs(det)
    num, den = det.numerator, det.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        raise ParseError("sqrt|det g| must be rational: |det| has to be a perfect square")
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


class ExprParser:
    """Recursive descent over the token list; values are Forms (degree 0 = scalar)."""

    def __init__(self, tokens, ctx: ExprContext, line: int):
        self.toks = tokens
        self.i = 0
        self.ctx = ctx
        self.line = line
        self.bindings = {}

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val):
        kind, v, pos = self.next()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v!r}", self.line, pos + 1)

    def parse(self) -> Form:
        v = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at {val!r}", self.line, pos + 1)
        return v

    def expr(self) -> Form:
        v = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                if v.degree != rhs.degree and v.terms and rhs.terms:
                    raise ParseError(f"cannot add a {rhs.degree}-form to a {v.degree}-form",
                                     self.line, pos + 1)
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self) -> Form:
        v = self.power()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in ("*", "/", "/\\"):
                self.next()
                rhs = self.power()
                if val == "/":
                    if rhs.degree != 0:
                        raise ParseError("division by a form of positive degree", self.line, pos + 1)
                    if rhs.as_scalar().is_zero():
                        raise ParseError("division by zero", self.line, pos + 1)
                    v = v.scale(Scalar.const(1) / rhs.as_scalar())
                else:
                    v = v.wedge(rhs) if v.degree or rhs.degree else Form.scalar(
                        self.ctx.chart, v.as_scalar() * rhs.as_scalar())
            else:
                return v

    def power(self) -> Form:
        v = self.unary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            e = self.exponent()
            if v.degree != 0:
                raise ParseError("only degree-0 expressions take powers", self.line, pos + 1)
            if e < 0 and v.is_zero():
                raise ParseError("division by zero", self.line, pos + 1)
            return Form.scalar(self.ctx.chart, v.as_scalar() ** e)
        return v

    def exponent(self) -> int:
        kind, val, pos = self.next()
        neg = False
        if kind == "op" and val in "+-":
            neg = val == "-"
            kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("exponent must be an integer literal", self.line, pos + 1)
        return -val if neg else val

    def unary(self) -> Form:
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            v = self.unary()
            return v if val == "+" else -v
        return self.atom()

    def atom(self) -> Form:
        kind, val, pos = self.next()
        if kind == "num":
            return Form.scalar(self.ctx.chart, Scalar.const(val))
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect(")")
            return v
        if kind == "name":
            nk, nv, npos = self.peek()
            if val == "d" and nk == "op" and nv == "(":
                self.next()
                inner = self.expr()
                self.expect(")")
                if inner.degree != 0:
                    raise ParseError("d() takes a degree-0 expression", self.line, npos + 1)
                if self.ctx.fresh and inner.as_scalar().variables() & set(self.ctx.fresh):
                    raise ParseError("d() of a new multiplier name", self.line, npos + 1)
                return inner.d()
            if val == "sum" and nk == "op" and nv == "(":
                self.next()
                return self.summation()
            if nk == "op" and nv == "[":
                self.next()
                indices = self.index_list()
                return self.ctx.lookup_indexed(val, indices, self.line)
            if val == "eta":
                return eta_form(self.ctx.chart, (), self.ctx.metric, self.line)
            if val in self.bindings:
                return Form.scalar(self.ctx.chart, Scalar.const(self.bindings[val]))
            return self.ctx.lookup(val, self.line)
        raise ParseError(f"unexpected token {val!r}", self.line, pos + 1)

    def index_list(self):
        out = []
        while True:
            kind, val, pos = self.next()
            if kind == "num":
                out.append(val)
            elif kind == "name":
                if val in self.bindings:
                    out.append(self.bindings[val])
                else:
                    raise ParseError(f"unbound index {val!r}", self.line, pos + 1)
            else:
                raise ParseError("expected an index", self.line, pos + 1)
            kind, val, pos = self.next()
            if val == "]":
                return out
            if val != ",":
                raise ParseError("expected ',' or ']' in index list", self.line, pos + 1)

    def summation(self) -> Form:
        names = []
        while True:
            kind, val, pos = self.next()
            if kind != "name":
                raise ParseError("expected an index name in sum(...)", self.line, pos + 1)
            names.append(val)
            kind, val, pos = self.next()
            if val == ":":
                break
            if val != ",":
                raise ParseError("expected ',' or ':' in sum(...)", self.line, pos + 1)
        for n in names:
            if n not in self.ctx.ranges:
                raise ParseError(f"index {n!r} has no declared range", self.line)
        # ranges are non-empty, so the body is parsed at least once
        start, outer = self.i, self.bindings
        total = Form.scalar(self.ctx.chart, Scalar.const(0))
        for values in itertools.product(*(self.ctx.ranges[n] for n in names)):
            self.i = start
            self.bindings = {**outer, **dict(zip(names, values))}
            total = total + self.expr()
        self.bindings = outer
        self.expect(")")
        return total


def parse_expression(text: str, ctx: ExprContext, line: int = 0) -> Form:
    return ExprParser(tokenize(text, line), ctx, line).parse()


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------

@dataclass
class ProblemDocument:
    name: str
    source: str
    chart: Chart
    metric: Optional[dict]
    params: dict                       # resolved name -> Fraction
    lagrangian: Form
    generators: list                   # [(name, Form)]
    mode: str                          # classical | griffiths | explicit
    momenta: dict                      # classical: field -> [names]
    multiplier_shapes: list            # griffiths: [(gen, [(mult, Form basis)])]
    theta: Optional[Form]              # explicit
    seed: int = 0
    max_prolongations: int = 4
    max_steps: int = 32


_SECTIONS = ("chart", "forms", "lepage", "params", "run")


def _split_sections(text: str):
    sections = {s: [] for s in _SECTIONS}
    sections["top"] = []
    current = "top"
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            name = s[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", ln)
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected key = value", ln)
        key, value = line.split("=", 1)
        sections[current].append((ln, key.strip(), value.strip()))
    return sections


def _parse_rational(text: str, ln: int) -> Fraction:
    try:
        return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number, got {text!r}", ln)


def _named(value: str, ln: int, syntax: str):
    """Split a `name : rest` value; syntax is the usage shown on failure."""
    m = _NAMED.fullmatch(value)
    if not m:
        raise ParseError(f"{syntax.split()[0]} syntax: {syntax}", ln)
    return m.group(1), m.group(2)


def _expand_family(token: str, ranges: dict, antisym: dict, ln: int):
    """A chart-name token: plain name or base[idx,...]; returns flat names."""
    m = re.fullmatch(r"([A-Za-z][A-Za-z0-9_]*)\s*\[([^\]]*)\]", token)
    if not m:
        if not _IDENT.fullmatch(token):
            raise ParseError(f"bad coordinate name {token!r}", ln)
        return [token]
    base, idxs = m.group(1), [s.strip() for s in m.group(2).split(",")]
    for i in idxs:
        if i not in ranges:
            raise ParseError(f"index {i!r} has no declared range", ln)
    combos = itertools.product(*(ranges[i] for i in idxs))
    if base in antisym:
        if len(idxs) != 2:
            raise ParseError(f"antisymmetric family {base!r} takes two indices", ln)
        combos = [c for c in combos if c[0] < c[1]]
    return [flat_name(base, c) for c in combos]


def parse_problem(text: str, param_overrides: Optional[dict] = None) -> ProblemDocument:
    sections = _split_sections(text)
    name = "problem"
    for ln, key, value in sections["top"]:
        if key == "name":
            name = value
        else:
            raise ParseError(f"unknown top-level key {key!r}", ln)

    params: dict = {}
    metric = None
    metric_line, metric_size = None, 0
    for ln, key, value in sections["params"]:
        if key == "metric":
            m = re.fullmatch(r"diag\s*\(([^)]*)\)", value)
            if not m:
                raise ParseError("metric must look like diag(a,b,...)", ln)
            entries = [_parse_rational(s, ln) for s in m.group(1).split(",")]
            if 0 in entries:
                raise ParseError("metric is degenerate", ln)
            metric_line, metric_size = ln, len(entries)
            metric = {(i, j): entries[i - 1] if i == j else Fraction(0)
                      for i, j in itertools.product(range(1, metric_size + 1), repeat=2)}
        else:
            params[key] = _parse_rational(value, ln)
    for k, v in (param_overrides or {}).items():
        if k not in params:
            raise ParseError(f"--param {k!r} does not override anything declared in [params]")
        params[k] = Fraction(v)

    ranges: dict = {}
    antisym: dict = {}
    independent: list = []
    dependents: list = []
    jet_lines: list = []
    for ln, key, value in sections["chart"]:
        if key == "range":
            m = re.fullmatch(r"(.+):\s*(\d+)\s+(\d+)", value)
            if not m:
                raise ParseError("range syntax: range = i j : 1 4", ln)
            lo, hi = int(m.group(2)), int(m.group(3))
            if lo > hi:
                raise ParseError("range must be non-empty: range = i : lo hi needs lo <= hi", ln)
            for idx in m.group(1).split():
                ranges[idx] = list(range(lo, hi + 1))
        elif key == "antisym":
            for fam in value.split():
                antisym[fam] = True
        elif key == "independent":
            for tok in value.split():
                independent.extend(_expand_family(tok, ranges, antisym, ln))
        elif key in ("field", "dependent"):
            for tok in value.split():
                for n in _expand_family(tok, ranges, antisym, ln):
                    dependents.append(Dependent(n, ROLE_FIELD))
        elif key == "jet":
            fieldname, jets = _named(value, ln, "jet = field : j1 j2 ... (one per independent)")
            jet_lines.append((ln, fieldname, jets.split()))
        else:
            raise ParseError(f"unknown chart key {key!r}", ln)
    if not independent:
        raise ParseError("at least one independent coordinate is required")
    if metric is not None and metric_size != len(independent):
        raise ParseError(f"metric has {metric_size} diagonal entries for "
                         f"{len(independent)} independent coordinates", metric_line)
    for ln, fieldname, jets in jet_lines:
        if fieldname not in {d.name for d in dependents}:
            raise ParseError(f"jet line references unknown field {fieldname!r}", ln)
        if len(jets) != len(independent):
            raise ParseError(f"field {fieldname!r} needs {len(independent)} jets", ln)
        for jn, xn in zip(jets, independent):
            if not _IDENT.fullmatch(jn):
                raise ParseError(f"bad jet name {jn!r}", ln)
            dependents.append(Dependent(jn, ROLE_JET, 0, (fieldname, xn)))
    try:
        chart = Chart(independent, dependents)
    except ValueError as err:
        raise ParseError(str(err))
    if any(k in chart for k in params):
        raise ParseError("chart names must be unique across independents, dependents and parameters")

    ctx = ExprContext(chart=chart, params=params, ranges=ranges,
                      antisym=antisym, metric=metric)
    lagrangian = Form(chart, chart.m, {})
    generators: list = []
    theta = None
    for ln, key, value in sections["forms"]:
        if key == "lagrangian":
            density = parse_expression(value, ctx, ln)
            if density.degree == 0:
                lagrangian = eta_form(chart, (), metric, ln).scale(density.as_scalar())
            elif density.degree == chart.m:
                lagrangian = density
            else:
                raise ParseError("lagrangian must be degree 0 (a density) or degree m", ln)
        elif key == "generator":
            gname, expr_text = _named(value, ln, "generator = name : expr")
            generators.append((gname, parse_expression(expr_text, ctx, ln)))
        elif key == "theta":
            theta = parse_expression(value, ctx, ln)
        else:
            raise ParseError(f"unknown forms key {key!r}", ln)

    mode = "classical"
    momenta: dict = {}
    declared: set = set()
    multiplier_shapes: list = []
    for ln, key, value in sections["lepage"]:
        if key == "mode":
            if value not in ("classical", "griffiths", "explicit"):
                raise ParseError(f"unknown lepage mode {value!r}", ln)
            mode = value
        elif key == "momenta":
            fieldname, names = _named(value, ln, "momenta = field : p1 p2 ...")
            momenta[fieldname] = names.split()
            for n in momenta[fieldname]:
                if n in chart or n in params or n in declared:
                    raise ParseError(f"momentum {n!r} is already a coordinate, "
                                     "parameter or momentum", ln)
                declared.add(n)
        elif key == "multiplier":
            multiplier_shapes.append((ln, *_named(value, ln, "multiplier = generator : expr")))
        else:
            raise ParseError(f"unknown lepage key {key!r}", ln)

    run = {"seed": 0, "max_prolongations": 4, "max_steps": 32}
    for ln, key, value in sections["run"]:
        if key not in run:
            raise ParseError(f"unknown run key {key!r}", ln)
        try:
            run[key] = int(value)
        except ValueError:
            raise ParseError(f"run key {key!r} needs an integer, got {value!r}", ln)
        if key != "seed" and run[key] < 1:
            raise ParseError(f"{key} must be >= 1", ln)
    seed, maxp, maxs = run["seed"], run["max_prolongations"], run["max_steps"]

    shapes = _resolve_multiplier_shapes(multiplier_shapes, generators, ctx) \
        if mode == "griffiths" else []
    return ProblemDocument(
        name=name, source=text, chart=chart, metric=metric, params=params,
        lagrangian=lagrangian, generators=generators, mode=mode, momenta=momenta,
        multiplier_shapes=shapes, theta=theta,
        seed=seed, max_prolongations=maxp, max_steps=maxs)


def _resolve_multiplier_shapes(lines, generators, ctx: ExprContext):
    """Parse multiplier expressions, discovering new multiplier coordinates.

    One parse collects the undeclared names in the order the parser meets
    them (a sum runs its first index outermost) and gives the expression,
    whose coefficients may hold those names; d() of one is rejected.

    An expression must be linear-homogeneous in its new names with horizontal
    coefficients; each new name becomes one multiplier coordinate whose basis
    element is its coefficient form.
    """
    gen_names = {n for n, _ in generators}
    shapes = []
    for ln, gname, expr_text in lines:
        if gname not in gen_names:
            raise ParseError(f"multiplier for unknown generator {gname!r}", ln)
        finder = replace(ctx, fresh=[])
        form = parse_expression(expr_text, finder, ln)
        new_names = finder.fresh
        if not new_names:
            raise ParseError("multiplier expression introduces no new coordinate", ln)
        basis = []
        for n in new_names:
            coeff_terms = {}
            for idx, c in form.terms.items():
                dc = c.partial(n)
                if not dc.is_zero():
                    if dc.variables() & set(new_names):
                        raise ParseError(f"multiplier expression is not linear in {n!r}", ln)
                    coeff_terms[idx] = dc
            b = Form(ctx.chart, form.degree, coeff_terms)
            if not b.is_zero():
                basis.append((n, b))
        check = Form(ctx.chart, form.degree, {})
        for n, b in basis:
            check = check + b.scale(Scalar.var(n))
        if not (form - check).is_zero():
            raise ParseError("multiplier expression must be linear-homogeneous in the new names", ln)
        shapes.append((gname, basis))
    return shapes
