"""Linear Pfaffian systems with independence condition and the per-step
machinery of the Cartan algorithm.

A system carries 1-form generators kept in reduced form: each generator has a
designated fiber pivot coordinate with unit coefficient, distinct across
generators, and no term at any other pivot.  The complement coframe is then
simply the differentials of the remaining fiber coordinates, and modulo the
generators d(pivot_a) = -sum_n g_a[n] dn over the non-pivot coordinates n,
so the structure equations are read off the reduced form itself.
Structure equations, the absorption system and the integral-element
dimension are computed exactly, once per system; the absorption system goes
to solve_rows as rows of tableau and torsion entries.  Only the polar
codimensions behind the Cartan characters are ranks sampled at
seed-derived generic points, and the generic flag only when the coordinate
flag does not already meet the integral-element dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import (Chart, Dependent, LinearSolveResult, NonLinearInUnknowns,
                      ROLE_GRASSMANN, Scalar, SeedStream, ZERO, add_into,
                      generic_ranks, p_div_exact, residue, solve_linear, solve_rows)
from .exterior import (CoframeExpansion, Form, Substitution, contact_form,
                       identity_substitution)


class EmptyLocus(ValueError):
    """A restriction is inconsistent: there are no integral manifolds."""


class NotLinearPfaffian(ValueError):
    """Structure equations contain pi /\\ pi terms."""


@dataclass
class PfaffianSystem:
    chart: Chart
    generators: list          # reduced degree-1 Forms
    pivots: list              # fiber pivot coordinate per generator
    zero_forms: list          # normalized Scalars carried by the ideal
    assumptions: list         # nonvanishing pivots accumulated so far

    @property
    def m(self) -> int:
        return self.chart.m

    @property
    def complement(self) -> list:
        taken = set(self.pivots)
        return [d.name for d in self.chart.dependent if d.name not in taken]

    def __repr__(self):
        return (f"PfaffianSystem(m={self.m}, generators={len(self.generators)}, "
                f"complement={len(self.complement)}, zero_forms={len(self.zero_forms)})")


def _dedupe(scalars: Sequence[Scalar]) -> list:
    return list(dict.fromkeys(s for s in scalars if not s.is_zero()))


def prune_constraints(scalars: Sequence[Scalar]) -> list:
    """Drop constraints that are polynomial multiples of another listed one
    (their zero locus already contains the other's)."""
    items = _dedupe(scalars)
    out: list = []
    for i, s in enumerate(items):
        redundant = False
        for j, t in enumerate(items):
            if i == j or t.as_constant() is not None:
                continue
            if p_div_exact(s.num, t.num) is not None and (j < i or p_div_exact(t.num, s.num) is None):
                redundant = True
                break
        if not redundant:
            out.append(s)
    return out


def reduce_generators(chart: Chart, forms: Sequence[Form]):
    """Gauss-reduce 1-forms over the fiber differentials.

    Returns (generators, pivots, zero_forms, assumptions).  A row whose fiber
    part vanishes degenerates: each of its independence coefficients becomes
    a zero-form.
    """
    fiber = [d.name for d in chart.dependent]
    kept_rows: list = []    # dicts name -> Scalar, unit pivot, zero at other pivots
    pivots: list = []
    zero_forms: list = []
    assumptions: list = []
    for form in forms:
        if form.is_zero():
            continue
        row = {idx[0]: c for idx, c in form.terms.items()}
        for krow, kp in zip(kept_rows, pivots):
            c = row.get(kp)
            if c is None:
                continue
            for n, v in krow.items():
                add_into(row, n, -(c * v))
        live = [(n, row[n]) for n in fiber if n in row]
        if not live:
            for n in chart.independent:
                c = row.get(n)
                if c is not None:
                    zero_forms.append(c.constraint_normal())
            continue
        live.sort(key=lambda nc: (0 if nc[1].as_constant() is not None else 1,
                                  len(nc[1].num), chart.position(nc[0])))
        pname, pc = live[0]
        if pc.as_constant() is None:
            assumptions.append(pc.constraint_normal())
        row = {n: v / pc for n, v in row.items()}
        # keep earlier rows clean at the new pivot column
        for krow in kept_rows:
            c = krow.get(pname)
            if c is None:
                continue
            for n, v in row.items():
                add_into(krow, n, -(c * v))
        kept_rows.append(row)
        pivots.append(pname)
    gens = [Form(chart, 1, {(n,): c for n, c in row.items()}) for row in kept_rows]
    return gens, pivots, zero_forms, assumptions


def make_system(chart: Chart, forms: Sequence[Form], zero_forms: Sequence[Scalar] = (),
                assumptions: Sequence[Scalar] = ()) -> PfaffianSystem:
    """A reduced system whose zero-forms are numerator-normalized and, like
    its assumptions, deduplicated in first-occurrence order."""
    gens, pivots, extra_zero, extra_assumptions = reduce_generators(chart, forms)
    zero = [z.constraint_normal() for z in zero_forms] + extra_zero
    return PfaffianSystem(chart=chart, generators=gens, pivots=pivots,
                          zero_forms=_dedupe(zero),
                          assumptions=_dedupe(list(assumptions) + extra_assumptions))


# ---------------------------------------------------------------------------
# structure equations
# ---------------------------------------------------------------------------

@dataclass
class StructureEquations:
    system: PfaffianSystem
    tableau: dict             # (a, e, i) -> Scalar, for  A^a_{ei} pi^e /\ om^i
    torsion_raw: dict         # (a, i, j) i<j -> Scalar
    absorption: LinearSolveResult  # the absorption system, solved for the slopes
    slopes: dict              # (e, i) -> name of the omega^i-slope of pi^e

    @property
    def complement(self) -> list:
        return self.system.complement

    @property
    def s0(self) -> int:
        return len(self.system.generators)

    @property
    def t(self) -> int:
        return len(self.complement)

    @property
    def m(self) -> int:
        return self.system.m


def structure_equations(sys: PfaffianSystem) -> StructureEquations:
    """Exact tableau and raw torsion of dtheta^a modulo the generators,
    with the absorption system solved once for everything read off it."""
    m = sys.m
    exp = CoframeExpansion(sys.chart, sys.generators, sys.pivots)
    tableau: dict = {}
    torsion: dict = {}
    for a, g in enumerate(sys.generators):
        # labels run omega (below m), then pi, and keys satisfy i < j, so a
        # pair is (om, om), (om, pi) or (pi, pi)
        for (i, j), c in exp.expand_two_form(g.d()).items():
            if j < m:
                torsion[(a, i, j)] = c
            elif i < m:
                tableau[(a, j - m, i)] = -c
            else:
                raise NotLinearPfaffian(f"pi/\\pi term with coefficient {c} in d(theta_{a})")
    rows, unknowns, slopes = _absorption_system(sys, tableau, torsion)
    return StructureEquations(system=sys, tableau=tableau, torsion_raw=torsion,
                              absorption=solve_rows(rows, unknowns), slopes=slopes)


def _absorption_system(sys: PfaffianSystem, tableau: dict, torsion: dict):
    """The inhomogeneous linear system for integral elements over a point,
    as solve_rows rows.

    Unknown p_{e,i} is the omega^i-slope of pi^e; its name doubles as the
    coordinate name a prolongation would introduce.  The row of generator a
    and independence pair i < j reads
    T^a_{ij} + sum_e (A^a_{ej} p_{e,i} - A^a_{ei} p_{e,j}) = 0; each slope
    occurs in it at most once, so the tableau entries are its coefficients.
    The elimination order is reversed declaration order, which keeps the
    slopes of earlier complement directions free (the parametrization whose
    coordinate names the worked character ladders are calibrated against).
    """
    m = sys.m
    complement = sys.complement
    rows = []
    unknowns = []
    uname = {}
    for e, en in enumerate(complement):
        for i, xn in enumerate(sys.chart.independent):
            n = f"{en}_{xn}"
            if n in sys.chart:
                raise RuntimeError(f"prolongation coordinate {n} collides with the chart")
            uname[(e, i)] = n
            unknowns.append(n)
    unknowns.reverse()
    for a in range(len(sys.generators)):
        for i in range(m):
            for j in range(i + 1, m):
                coeffs = {}
                for e in range(len(complement)):
                    aej = tableau.get((a, e, j))
                    if aej is not None:
                        coeffs[uname[(e, i)]] = aej
                    aei = tableau.get((a, e, i))
                    if aei is not None:
                        coeffs[uname[(e, j)]] = -aei
                const = torsion.get((a, i, j), ZERO)
                if coeffs or not const.is_zero():
                    rows.append((coeffs, const))
    return rows, unknowns, uname


def essential_torsion(se: StructureEquations) -> list:
    """Compatibility residue of the integral-element system.

    Empty exactly when the raw torsion is absorbable, i.e. an integral
    element exists over the generic point of the current locus.
    """
    return prune_constraints([r.constraint_normal() for r in se.absorption.residual])


@dataclass
class CharacterVector:
    s0: int
    s: tuple                  # (s_1, ..., s_m)
    polar_codims: tuple       # (c_0, ..., c_{m-1})

    def cartan_sum(self) -> int:
        return sum((k + 1) * sk for k, sk in enumerate(self.s))


def cartan_characters(se: StructureEquations, seed: int,
                      flag: str = "coordinate") -> CharacterVector:
    """Cartan characters from polar-space codimensions of a flag.

    c_k = s_0 + rank of the stacked tableau evaluated on k flag directions;
    s_k are the increments and s_m = t - (c_{m-1} - s_0).  These are tableau
    ranks only, so systems still carrying torsion have well-defined
    characters.

    flag="coordinate" uses the independence directions in declared order,
    which is what the reported character lists are calibrated against;
    flag="generic" draws seed-derived directions and maximizes the rank
    vector, which is the flavor Cartan's test needs.  The two coincide
    whenever the coordinate flag is generic for the tableau.

    Each sample draws the point, then the flag directions, and reduces
    only the nonzero tableau entries modulo each prime it ranks by.  The
    polar rows of all m - 1 flag directions are stacked once; the k-th
    polar space is the leading block of its first k directions, exactly the
    rational matrix of that prefix, so one rank_fractions call per sample
    yields every c_k.
    """
    sys = se.system
    m, t, s0 = sys.m, se.t, se.s0
    entries = [(a, e, i, v) for (a, e, i), v in se.tableau.items()]
    names = set()
    for *_, v in entries:
        names |= v.variables()
    stream = SeedStream(seed ^ 0xC0FFEE)
    cuts = [s0 * (k + 1) for k in range(m - 1)]

    def polar_matrices(point):
        if flag == "coordinate":
            dirs = [[1 if i == k else 0 for i in range(m)] for k in range(max(m - 1, 0))]
        else:
            dirs = [[stream.fraction() for _ in range(m)] for _ in range(max(m - 1, 0))]

        def reduce(p):
            res = {n: residue(x, p) for n, x in point.items()}
            values = [(a, e, i, v.residue(point, res, p)) for a, e, i, v in entries]
            rows = [{} for _ in range(s0 * (m - 1))]
            for k, direction in enumerate(dirs):
                direction = [residue(x, p) for x in direction]
                for a, e, i, v in values:
                    if direction[i]:
                        row = rows[s0 * k + a]
                        old = row.get(e, 0)
                        if v is None or old is None:   # p cannot reduce the entry
                            row[e] = None
                        else:
                            row[e] = (old + v * direction[i]) % p
            return rows
        return reduce, cuts

    best = generic_ranks(polar_matrices, names, stream)
    codims = (s0,) + tuple(s0 + r for r in best)
    s = []
    prev = 0
    for r in best:
        s.append(r - prev)
        prev = r
    s.append(t - prev)
    return CharacterVector(s0=s0, s=tuple(s), polar_codims=codims)


def prolongation_dim(se: StructureEquations) -> int:
    """Fiber dimension of the space of integral elements over a generic point.

    The nullity of the absorption system in the p_{e,i} unknowns, read off
    its exact solve; equals the cartan_sum exactly when the system is
    involutive.
    """
    return len(se.absorption.free)


@dataclass
class InvolutivityReport:
    characters: CharacterVector           # coordinate-flag (reported) characters
    characters_generic: CharacterVector   # generic-flag characters behind the test
    prolongation_dim: int
    cartan_sum: int                       # generic-flag weighted sum s_1+2s_2+...+m*s_m
    involutive: bool
    torsion_essential: list


def cartan_test(se: StructureEquations, seed: int) -> InvolutivityReport:
    """Cartan's involutivity test at a generic point of the current locus.

    The one report a ladder step reads off a build of the structure
    equations: essential torsion, both character flavors and the verdict.
    The test compares the exact integral-element fiber dimension against the
    weighted sum of generic-flag characters; the reported character list
    uses the coordinate flag.  Cartan's bound dim A^(1) <= s_1 + 2 s_2 + ...
    + m s_m holds for any tableau, whatever its torsion, and a short sampled
    polar rank or a non-generic flag only raises the sum, so a violated
    Cartan inequality means rank sampling is broken: an internal error,
    never retried.

    The generic flag is sampled only when the coordinate flag does not
    already meet the bound (the flag is then delta-regular; Seiler,
    Involution, 2010, ch. 4).  With sums of the weighted characters,

        dim A^(1) <= generic sum <= coordinate sum <= sampled coordinate sum,

    since generic polar ranks are the largest of any flag and a sampled
    rank only falls short.  Each sum is m t - (r_1 + ... + r_(m-1)) for the
    polar ranks r_k of its flag, and each generic r_k is at least the
    coordinate one, which is at least its sample; so when the two ends are
    equal, every r_k agrees and the generic characters are the coordinate
    ones.
    """
    if se.system.zero_forms:
        raise ValueError("cartan_test requires an empty zero-form list")
    torsion = essential_torsion(se)
    chars = cartan_characters(se, seed, flag="coordinate")
    pdim = prolongation_dim(se)
    if pdim == chars.cartan_sum():
        gen = chars
    else:
        gen = cartan_characters(se, seed, flag="generic")
    csum = gen.cartan_sum()
    if pdim > csum:
        raise ArithmeticError("Cartan inequality violated: rank sampling failed")
    involutive = (not torsion) and pdim == csum
    return InvolutivityReport(characters=chars, characters_generic=gen,
                              prolongation_dim=pdim, cartan_sum=csum,
                              involutive=involutive, torsion_essential=torsion)


# ---------------------------------------------------------------------------
# prolongation and restriction
# ---------------------------------------------------------------------------

def prolong(se: StructureEquations):
    """Pass to the space of integral elements with its contact system.

    Only the free parameters of the integral-element solution become new
    (level + 1) coordinates; solved slopes are substituted into the new
    contact forms.  Returns (system, added_coordinate_names).
    """
    sys, res, uname, complement = se.system, se.absorption, se.slopes, se.complement
    if res.residual:
        raise ValueError("cannot prolong: essential torsion present")
    chart = sys.chart
    new_deps = []
    for e, en in enumerate(complement):
        lvl = chart.level_of(en) + 1
        for i, xn in enumerate(chart.independent):
            n = uname[(e, i)]
            if n in res.free:
                new_deps.append(Dependent(name=n, role=ROLE_GRASSMANN, level=lvl,
                                          parent=(en, xn)))
    new_chart = chart.extend(new_deps)

    def slope(e, i):
        n = uname[(e, i)]
        if n in res.solved:
            return res.solved[n]
        return Scalar.var(n)

    contact = [contact_form(new_chart, en, [slope(e, i) for i in range(chart.m)])
               for e, en in enumerate(complement)]
    # the new pivots are the complement directions: clear the old generators
    # there, so that the output stays in reduced form
    gens = []
    for g in sys.generators:
        g = Form(new_chart, 1, g.terms)
        for en, th in zip(complement, contact):
            c = g.terms.get((en,))
            if c is not None:
                g = g - th.scale(c)
        gens.append(g)
    out = PfaffianSystem(chart=new_chart, generators=gens + contact,
                         pivots=sys.pivots + complement,
                         zero_forms=[], assumptions=_dedupe(sys.assumptions + res.assumptions))
    return out, [d.name for d in new_deps]


def restrict(sys: PfaffianSystem, constraints: Sequence[Scalar]):
    """Cut the zero locus of affine-linear constraints out of the system.

    Solves for coordinates along the chart's elimination order (highest
    prolongation level first, multipliers before jets before fields),
    pulls everything back through the substitution, demotes degenerated
    generators to zero-forms, and records pivot genericity assumptions.
    Every dependent is an unknown of the solve, so a residual relates the
    independents alone; integral manifolds satisfy the independence
    condition, so any residual means an empty locus, even when another
    constraint is not affine-linear; only then is that NonLinearInUnknowns.
    """
    cons = _dedupe([c.constraint_normal() for c in constraints])
    if not cons:
        return sys, identity_substitution(sys.chart)
    res = solve_linear(cons, sys.chart.solve_order())
    if res.residual:
        raise EmptyLocus("restriction is inconsistent: there are no integral manifolds")
    if res.nonlinear:
        raise NonLinearInUnknowns(res.nonlinear[0])
    new_chart = sys.chart.drop(res.solved.keys())
    subst = Substitution(new_chart, res.solved)
    pulled = [subst.form(g) for g in sys.generators]
    zero = [subst.scalar(z) for z in sys.zero_forms]
    if any(z.as_constant() not in (None, 0) for z in zero):
        raise EmptyLocus("restriction contradicts a carried zero-form")
    return make_system(new_chart, pulled, zero,
                       sys.assumptions + res.assumptions), subst
