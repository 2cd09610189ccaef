"""From a variational problem to its Hamilton Pfaffian.

Builds the Lepage-equivalent space (W, Theta) by adjoining multiplier
coordinates to the problem's chart, extends to the Grassmann bundle with
independence-adapted fiber coordinates Z^A_i, derives the equations
Z .| dTheta = 0 for the decomposable multivector Z = /\\_i (d/dx^i + Z^A_i
d/du^A), solves them for the Hamilton submanifold, and induces the linear
Pfaffian of pulled-back contact forms on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .scalars import (Chart, Dependent, NonLinearInUnknowns, ROLE_FIELD,
                      ROLE_GRASSMANN, ROLE_JET, ROLE_MULTIPLIER, Scalar, ONE,
                      _linear_split, solve_linear, solve_rows)
from .exterior import (Form, MultiVector, Substitution, vertical_degree,
                       volume_contraction)
from .pfaffian import EmptyLocus, PfaffianSystem, _dedupe, make_system


class MissingJetStructure(ValueError):
    """Classical construction requires every field to carry one jet per independent."""


class DegreeMismatch(ValueError):
    """A generator or multiplier shape is incompatible with the Lepage space."""


@dataclass
class VariationalProblem:
    chart: Chart
    lagrangian: Form                  # the full degree-m Lagrangian form
    generators: list                  # [(name, Form)] algebraic generators of the restriction ideal

    def __post_init__(self):
        m = self.chart.m
        if self.lagrangian.terms and self.lagrangian.degree != m:
            raise DegreeMismatch("the Lagrangian form must have top horizontal degree")


@dataclass
class LepageSpace:
    chart: Chart                      # extended with multiplier coordinates
    theta: Form
    omega: Form                       # d(theta), closed by construction
    provenance: str                   # classical | griffiths | explicit
    multipliers: list                 # multiplier coordinate names, declaration order


@dataclass
class HamiltonLocus:
    grassmann_chart: Chart
    solved: Substitution              # eliminations defining G0 (fiber and base)
    base_constraints: list            # Z-free relations on the Lepage chart
    assumptions: list                 # nonvanishing pivots recorded while solving
    pfaffian: PfaffianSystem          # the induced linear Pfaffian on G0


MAX_VERTICAL_DEGREE = 1  # the Lepage space of 2-horizontal forms


def _lift(form: Form, chart: Chart) -> Form:
    return Form(chart, form.degree, dict(form.terms))


def build_lepage_griffiths(vp: VariationalProblem, multiplier_shapes: Sequence,
                           provenance: str = "griffiths") -> LepageSpace:
    """Theta = lambda + sum_s mu_s /\\ beta_s with multiplier coordinates as
    the coefficients of each mu_s over its declared horizontal basis.

    multiplier_shapes: [(generator_name, [(multiplier_name, basis Form)])];
    a degree-m generator takes a single scalar multiplier with basis 1.
    """
    m = vp.chart.m
    shapes = {name: list(spec) for name, spec in multiplier_shapes}
    gen_map = dict(vp.generators)
    new_names: list = []
    for name, form in vp.generators:
        if name not in shapes:
            raise DegreeMismatch(f"no multiplier shape declared for generator {name!r}")
        v = vertical_degree(form)
        if v > MAX_VERTICAL_DEGREE:
            raise DegreeMismatch(
                f"generator {name!r} has vertical degree {v}; the 2-horizontal "
                f"Lepage space admits at most {MAX_VERTICAL_DEGREE}, so the "
                f"construction is vacuous for it")
        want = m - form.degree
        if want < 0:
            raise DegreeMismatch(f"generator {name!r} exceeds the base degree")
        for mult_name, basis in shapes[name]:
            if basis.degree != want:
                raise DegreeMismatch(
                    f"multiplier {mult_name!r} for generator {name!r} must have "
                    f"degree {want}, got {basis.degree}")
            if vertical_degree(basis) > 0:
                raise DegreeMismatch(f"multiplier basis for {mult_name!r} is not horizontal")
            new_names.append(mult_name)
    chart = vp.chart.extend([Dependent(n, role=ROLE_MULTIPLIER) for n in new_names])
    theta = _lift(vp.lagrangian, chart)
    for name, form in vp.generators:
        beta = _lift(form, chart)
        for mult_name, basis in shapes[name]:
            mu = _lift(basis, chart).scale(Scalar.var(mult_name))
            theta = theta + mu.wedge(beta)
    return LepageSpace(chart=chart, theta=theta, omega=theta.d(),
                       provenance=provenance, multipliers=new_names)


def contact_forms(chart: Chart) -> list:
    """theta^A = du^A - u^A_k dx^k for every field with declared jets."""
    jets: dict = {}
    for d in chart.dependent:
        if d.role == ROLE_JET and d.parent is not None:
            jets.setdefault(d.parent[0], {})[d.parent[1]] = d.name
    out = []
    for d in chart.dependent:
        if d.role != ROLE_FIELD:
            continue
        js = jets.get(d.name, {})
        missing = [x for x in chart.independent if x not in js]
        if missing:
            raise MissingJetStructure(
                f"field {d.name!r} lacks jet coordinates for {missing}")
        terms = {(d.name,): ONE}
        for x in chart.independent:
            terms[(x,)] = -Scalar.var(js[x])
        out.append((d.name, Form(chart, 1, terms)))
    return out


def build_lepage_classical(vp: VariationalProblem,
                           momenta: Mapping[str, Sequence[str]]) -> LepageSpace:
    """The classical first-order construction: Theta = p_A^k du^A /\\ eta_k
    + (L - p_A^l u^A_l) eta, realized as the Griffiths build over the contact
    generators with the eta_k multiplier basis."""
    chart = vp.chart
    gens = contact_forms(chart)
    if not gens:
        raise MissingJetStructure("classical construction needs at least one field with jets")
    shapes = []
    for name, _ in gens:
        if name not in momenta:
            raise MissingJetStructure(f"no momentum names declared for field {name!r}")
        names = list(momenta[name])
        if len(names) != chart.m:
            raise DegreeMismatch(
                f"field {name!r} needs {chart.m} momentum names, got {len(names)}")
        basis = [(pn, volume_contraction(chart, [x]))
                 for pn, x in zip(names, chart.independent)]
        shapes.append((name, basis))
    vp2 = VariationalProblem(chart=chart, lagrangian=vp.lagrangian, generators=gens)
    return build_lepage_griffiths(vp2, shapes, provenance="classical")


def build_lepage_explicit(chart: Chart, theta: Form) -> LepageSpace:
    if theta.degree != chart.m:
        raise DegreeMismatch("an explicit Theta must have degree m")
    return LepageSpace(chart=chart, theta=theta, omega=theta.d(),
                       provenance="explicit", multipliers=[])


# ---------------------------------------------------------------------------
# Grassmann bundle and Hamilton equations
# ---------------------------------------------------------------------------

def grassmann_name(dep: str, ind: str) -> str:
    return f"Z{dep}_{ind}"


def grassmann_extend(ls: LepageSpace) -> Chart:
    """Adjoin one level-1 fiber coordinate Z^A_i per (dependent, independent)."""
    new = []
    for d in ls.chart.dependent:
        for x in ls.chart.independent:
            n = grassmann_name(d.name, x)
            if n in ls.chart:
                raise ValueError(f"Grassmann coordinate {n} collides with the chart")
            new.append(Dependent(n, role=ROLE_GRASSMANN, level=1, parent=(d.name, x)))
    return ls.chart.extend(new)


def hamilton_multivector(ls: LepageSpace, gchart: Chart) -> MultiVector:
    factors = []
    for x in ls.chart.independent:
        vec = {x: ONE}
        for d in ls.chart.dependent:
            vec[d.name] = Scalar.var(grassmann_name(d.name, x))
        factors.append(vec)
    return MultiVector(gchart, factors)


def hamilton_equations(ls: LepageSpace, gchart: Chart) -> list:
    """All coframe coefficients of Z .| dTheta as scalars on the Grassmann chart.

    The du^A coefficients are affine-linear in the Z fiber coordinates; the
    dx^i coefficients equal -Z^A_i times the former (sigma(Z_i) = 0), hence
    are polynomial consequences of them.
    """
    omega = _lift(ls.omega, gchart)
    sigma = hamilton_multivector(ls, gchart).contract(omega)
    eqs = []
    for idx in sorted(sigma.terms, key=lambda i: gchart.position(i[0])):
        eqs.append(sigma.terms[idx])
    return eqs


def solve_hamilton_locus(ls: LepageSpace, gchart: Chart,
                         eqs: Sequence[Scalar]) -> HamiltonLocus:
    """Cut the Hamilton submanifold out of the Grassmann bundle.

    Z-free equations are solved first (multipliers before jets before fields)
    and substituted through; this repeats to a fixpoint, so equations whose
    coefficients vanish on the base locus drop out before the fiber solve.
    Residual equations quadratic in the Z coordinates must vanish on the
    locus (they are the independence-direction coefficients); a nonvanishing
    one is surfaced as NonLinearInUnknowns.
    """
    znames = [d.name for d in gchart.dependent if d.level >= 1]
    zset = set(znames)
    base_names = [n for n in gchart.solve_order() if gchart.level_of(n) == 0]
    bindings: dict = {}
    base_constraints: list = []
    assumptions: list = []
    pending = [e for e in eqs if not e.is_zero()]

    def merge(new_solved: dict, new_assumptions: list):
        nonlocal bindings
        if new_assumptions:
            assumptions.extend(new_assumptions)
        if not new_solved:
            return
        bindings = {k: v.substitute(new_solved) for k, v in bindings.items()}
        bindings.update(new_solved)

    def residual_guard(res):
        for r in res:
            k = r.as_constant()
            if k is not None and k != 0:
                raise EmptyLocus("Hamilton equations are inconsistent")

    progress = True
    while progress:
        progress = False
        pending = [e2 for e2 in (e.substitute(bindings) for e in pending)
                   if not e2.is_zero()]
        zfree = [e for e in pending if not (e.variables() & zset)]
        if zfree:
            live = [n for n in base_names if n not in bindings]
            res = solve_linear(zfree, live)
            residual_guard(res.residual)
            if any(r.as_constant() is None for r in res.residual):
                raise EmptyLocus("base constraints restrict the independent coordinates")
            base_constraints.extend(c.constraint_normal() for c in zfree)
            merge(res.solved, res.assumptions)
            pending = [e for e in pending if e not in zfree]
            progress = True
            continue
        live = [n for n in znames if n not in bindings]
        rows, nonlinear = [], []
        for e in pending:
            try:
                rows.append(_linear_split(e, live))
            except NonLinearInUnknowns:
                nonlinear.append(e)
        if rows:
            res = solve_rows(rows, live)
            residual_guard(res.residual)
            merge(res.solved, res.assumptions)
            pending = nonlinear + [r for r in res.residual if not r.is_zero()]
            progress = True
            continue
        if pending:
            # quadratic leftovers: try to peel an already-assumed nonzero factor
            still = []
            for e in pending:
                peeled = _peel_assumed_factor(e, assumptions)
                if peeled is None:
                    raise NonLinearInUnknowns(e)
                if not peeled.is_zero():
                    still.append(peeled)
                progress = True
            pending = still

    new_chart = gchart.drop(bindings.keys())
    subst = Substitution(new_chart, bindings)
    thetas = []
    for d in ls.chart.dependent:
        terms = {(d.name,): ONE}
        for x in ls.chart.independent:
            terms[(x,)] = -Scalar.var(grassmann_name(d.name, x))
        thetas.append(subst.form(Form(gchart, 1, terms)))
    system = make_system(new_chart, thetas, assumptions=assumptions)
    return HamiltonLocus(grassmann_chart=gchart, solved=subst,
                         base_constraints=_dedupe(base_constraints),
                         assumptions=_dedupe(system.assumptions),
                         pfaffian=system)


def _peel_assumed_factor(eq: Scalar, assumptions: Sequence[Scalar]):
    from .scalars import p_div_exact
    for a in assumptions:
        q = p_div_exact(eq.num, a.num)
        if q is not None:
            return Scalar(q, eq.den)
    return None


def residual_check(hl: HamiltonLocus, ls: LepageSpace) -> bool:
    """True iff Z .| dTheta vanishes identically on the solved locus."""
    eqs = hamilton_equations(ls, hl.grassmann_chart)
    for e in eqs:
        if not hl.solved.scalar(e).is_zero():
            return False
    return True
