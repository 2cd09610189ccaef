"""From a variational problem to its Hamilton Pfaffian.

Builds the Lepage-equivalent space (W, Theta) by adjoining multiplier
coordinates to the problem's chart, extends to the Grassmann bundle with
independence-adapted fiber coordinates Z^A_i, derives the equations
Z .| dTheta = 0 for the decomposable Z = /\\_i (d/dx^i + Z^A_i d/du^A),
solves them for the Hamilton submanifold, and induces the linear Pfaffian of
pulled-back contact forms on it.  Only the du^A components sigma_A of
sigma = Z .| dTheta are solved: its dx^i component is -sum_A Z^A_i sigma_A.
They are read off dTheta in one pass, as sigma_A = dTheta(Z_1, ..., Z_m,
d/du^A) (hamilton_equations); the successive contraction by Z_1, ..., Z_m
(_hamilton_form) is kept as the independent check of the solved locus
(residual_check).  The sigma_A are affine-linear in Z when Theta has
vertical degree at most 1, which the classical and Griffiths builds
guarantee; an explicit Theta may not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .scalars import (Chart, Dependent, NonLinearInUnknowns, ROLE_FIELD,
                      ROLE_GRASSMANN, ROLE_JET, ROLE_MULTIPLIER, Scalar, ONE,
                      add_into, solve_linear)
from .exterior import (Form, Substitution, contact_form, vertical_degree,
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
    multipliers: list                 # multiplier coordinate names, declaration order


@dataclass
class HamiltonLocus:
    grassmann_chart: Chart
    solved: Substitution              # eliminations defining G0 (fiber and base)
    base_constraints: list            # Z-free relations on the Lepage chart
    pfaffian: PfaffianSystem          # the induced linear Pfaffian on G0


MAX_VERTICAL_DEGREE = 1  # the Lepage space of 2-horizontal forms


def _lift(form: Form, chart: Chart) -> Form:
    return Form(chart, form.degree, dict(form.terms))


def build_lepage_griffiths(vp: VariationalProblem, multiplier_shapes: Sequence) -> LepageSpace:
    """Theta = lambda + sum_s mu_s /\\ beta_s with multiplier coordinates as
    the coefficients of each mu_s over its declared horizontal basis.

    multiplier_shapes: [(generator_name, [(multiplier_name, basis Form)])];
    a degree-m generator takes a single scalar multiplier with basis 1.
    """
    m = vp.chart.m
    shapes = {name: list(spec) for name, spec in multiplier_shapes}
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
    return LepageSpace(chart=chart, theta=theta, omega=theta.d(), multipliers=new_names)


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
        slopes = [Scalar.var(js[x]) for x in chart.independent]
        out.append((d.name, contact_form(chart, d.name, slopes)))
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
    return build_lepage_griffiths(vp2, shapes)


def build_lepage_explicit(chart: Chart, theta: Optional[Form]) -> LepageSpace:
    if theta is None:
        raise DegreeMismatch("mode = explicit requires a theta")
    if theta.degree != chart.m:
        raise DegreeMismatch("an explicit Theta must have degree m")
    return LepageSpace(chart=chart, theta=theta, omega=theta.d(), multipliers=[])


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
            new.append(Dependent(grassmann_name(d.name, x), role=ROLE_GRASSMANN,
                                 level=1, parent=(d.name, x)))
    return ls.chart.extend(new)


def _hamilton_form(ls: LepageSpace, gchart: Chart) -> Form:
    """sigma = Z .| dTheta for Z = Z_1 /\\ ... /\\ Z_m, Z_1 contracted first.

    Z_i = d/dx^i + Z^A_i d/du^A; with Z = d/dx /\\ d/dy the contraction
    takes dx/\\dy/\\dz to dz (a global sign never changes a zero locus).
    """
    sigma = _lift(ls.omega, gchart)
    for x in ls.chart.independent:
        vec = {x: ONE}
        for d in ls.chart.dependent:
            vec[d.name] = Scalar.var(grassmann_name(d.name, x))
        sigma = sigma.contract(vec)
    return sigma


def _parity(seq: Sequence[int]) -> int:
    """+1 or -1: the sign of the permutation seq of 0..n-1."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def hamilton_equations(ls: LepageSpace, gchart: Chart) -> list:
    """The du^A coefficients sigma_A = Omega(Z_1, ..., Z_m, d/du^A) of
    sigma = Z .| dTheta, in chart order and without zeros, as scalars on the
    Grassmann chart; equal to those of the successive contraction
    _hamilton_form.

    They are read off Omega = dTheta term by term.  Since dx^k(Z_i) is the
    Kronecker delta, a term c dy^(j_0) /\\ ... /\\ dy^(j_m) holding du^A
    gives sigma_A the determinant of its columns at the rows Z_1, ..., Z_m,
    d/du^A: each of its dx^i fills the row of Z_i, and its other vertical
    names fill the rows of the slots i whose dx^i it lacks, in every
    bijection, each with the sign of its permutation and the product of the
    Z^B_i it picks.  A term of vertical degree v has v - 1 such slots, so
    the classical and Griffiths builds (v <= 2) take one product per term
    and du^A.

    Since sigma(Z_i) = 0, the dx^i coefficient of sigma is
    -sum_A Z^A_i sigma_A and adds nothing to these.  They are affine-linear
    in the Z fiber coordinates when Theta has vertical degree at most 1,
    which the classical and Griffiths builds guarantee; an explicit Theta
    may not.
    """
    chart = ls.chart
    xs, m = chart.independent, chart.m
    slot = {x: i for i, x in enumerate(xs)}
    sigma: dict = {}
    for idx, c in ls.omega.terms.items():
        h = 0                               # horizontal names come first in chart order
        while h < len(idx) and idx[h] in slot:
            h += 1
        rows = [None] * (m + 1)             # row r (Z_(r+1), then d/du^A) -> column of idx
        for col in range(h):
            rows[slot[idx[col]]] = col
        free = [r for r in range(m) if rows[r] is None]
        for a in range(h, len(idx)):
            rows[m] = a
            others = [col for col in range(h, len(idx)) if col != a]
            for cols in itertools.permutations(others):
                term = c
                for r, col in zip(free, cols):
                    rows[r] = col
                    term = term * Scalar.var(grassmann_name(idx[col], xs[r]))
                add_into(sigma, idx[a], term if _parity(rows) > 0 else -term)
    return [sigma[d.name] for d in chart.dependent if d.name in sigma]


def solve_hamilton_locus(ls: LepageSpace, gchart: Chart,
                         eqs: Sequence[Scalar]) -> HamiltonLocus:
    """Cut the Hamilton submanifold out of the Grassmann bundle.

    Each pass solves either every Z-free equation over the base coordinates
    (multipliers before jets before fields), or, when none is Z-free, the
    equations affine-linear in the Z coordinates; the new bindings are then
    substituted through, so equations whose coefficients vanish on the base
    locus drop out before the fiber solve.  A residual of the Z-free solve
    empties the locus before any of its nonlinear equations is read.  Every
    recorded assumption is a Z-free pivot, so an equation linear in neither
    sense stays so and is surfaced as NonLinearInUnknowns.
    """
    znames = [d.name for d in gchart.dependent if d.level >= 1]
    zset = set(znames)
    base_names = [n for n in gchart.solve_order() if gchart.level_of(n) == 0]
    bindings: dict = {}
    base_constraints: list = []
    assumptions: list = []
    pending = [e for e in eqs if not e.is_zero()]
    while pending:
        zfree = [e for e in pending if not (e.variables() & zset)]
        if zfree:
            res = solve_linear(zfree, [n for n in base_names if n not in bindings])
            if res.residual:
                raise EmptyLocus("Hamilton equations are inconsistent on the base")
            if res.nonlinear:
                raise NonLinearInUnknowns(res.nonlinear[0])
            base_constraints.extend(c.constraint_normal() for c in zfree)
            pending = [e for e in pending if e.variables() & zset]
        else:
            res = solve_linear(pending, [n for n in znames if n not in bindings])
            if not res.solved:
                raise NonLinearInUnknowns(res.nonlinear[0])
            pending = res.nonlinear + res.residual
        assumptions.extend(res.assumptions)
        bindings = {k: v.substitute(res.solved) for k, v in bindings.items()}
        bindings.update(res.solved)
        pending = [e2 for e2 in (e.substitute(res.solved) for e in pending)
                   if not e2.is_zero()]

    new_chart = gchart.drop(bindings.keys())
    subst = Substitution(new_chart, bindings)
    thetas = []
    for d in ls.chart.dependent:
        slopes = [Scalar.var(grassmann_name(d.name, x)) for x in gchart.independent]
        thetas.append(subst.form(contact_form(gchart, d.name, slopes)))
    system = make_system(new_chart, thetas, assumptions=assumptions)
    return HamiltonLocus(grassmann_chart=gchart, solved=subst,
                         base_constraints=_dedupe(base_constraints), pfaffian=system)


def residual_check(hl: HamiltonLocus, ls: LepageSpace) -> bool:
    """True iff Z .| dTheta vanishes identically on the solved locus."""
    sigma = _hamilton_form(ls, hl.grassmann_chart)
    return all(hl.solved.scalar(e).is_zero() for e in sigma.terms.values())
