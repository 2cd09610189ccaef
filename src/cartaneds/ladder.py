"""The top-level constraint algorithm: the Cartan algorithm for linear
Pfaffian systems.

Each pass restricts by the zero-forms the system carries or, when there are
none, builds the structure equations and runs Cartan's test on them once;
that one report gives the essential torsion, the characters and the verdict.
Zero-form and torsion constraints share one restriction path under the
branch policy; a system without torsion stops when involutive and is
prolonged otherwise.  Every step is recorded with its constraints (base vs
fiber), Cartan characters and new genericity assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .scalars import (NonLinearInUnknowns, Poly, Scalar, p_div_exact, p_gcd,
                      p_is_const)
from .exterior import Substitution
from .hamilton import HamiltonLocus
from .pfaffian import (CharacterVector, EmptyLocus, InvolutivityReport,
                       PfaffianSystem, cartan_test, prolong, prune_constraints,
                       restrict, structure_equations)


class NeedsUserBranch(ValueError):
    """A constraint is nonlinear in every permissible unknown and does not
    split off a linear factor under the recorded assumptions."""

    def __init__(self, constraint: Scalar):
        self.constraint = constraint
        super().__init__(f"constraint needs a case split: {constraint} = 0")


VERDICT_INVOLUTIVE = "involutive"
VERDICT_EMPTY = "empty"
VERDICT_BUDGET = "budget_exceeded"
VERDICT_BRANCH = "needs_user_branch"


@dataclass
class LadderStep:
    level: int
    kind: str                         # zero_forms|torsion|prolongation|involutive|empty_locus
    new_base_constraints: list
    new_fiber_constraints: list
    characters: Optional[CharacterVector]            # coordinate-flag flavor
    assumptions: list                 # rendered "expr != 0", new at this step
    added_coordinates: list
    characters_generic: Optional[CharacterVector] = None


@dataclass
class ConstraintLadder:
    steps: list
    final_system: Optional[PfaffianSystem]
    verdict: str
    substitution: Substitution        # composed: Grassmann chart -> final chart
    hamilton: Optional[HamiltonLocus] = None


def _strip_factors(num: Poly, factors: Sequence[Scalar]) -> Poly:
    """The nonzero numerator num with every irreducible factor it shares
    with a nonconstant recorded factor divided out, as often as it divides.

    A recorded factor is nonzero, so each of its factors is: dividing by
    g = gcd(num, f) until g is constant takes out every factor num shares
    with f, whatever the order of the list, and f need not divide num.
    Each division lowers the degree, so every loop ends; once num shares
    nothing with f, no later quotient does, so one pass suffices.
    """
    for f in factors:
        if f.as_constant() is not None:
            continue
        g = p_gcd(num, f.num)
        while not p_is_const(g):
            num = p_div_exact(num, g)
            g = p_gcd(num, g)
    return num


def redundant_assumption(a: Scalar, seen: Sequence[Scalar]) -> bool:
    """True when a's nonvanishing already follows from recorded assumptions
    (a is a product of powers of them, up to a constant)."""
    return p_is_const(_strip_factors(a.num, seen))


def classify_constraint(c: Scalar, chart) -> tuple:
    """('base', 0) when only level-0 coordinates occur, else ('fiber', max level)."""
    level = 0
    for n in c.variables():
        if n in chart:
            level = max(level, chart.level_of(n))
    return ("base", 0) if level == 0 else ("fiber", level)


def _split_constraints(cons: Sequence[Scalar], chart):
    base, fiber = [], []
    for c in cons:
        kind, _ = classify_constraint(c, chart)
        (base if kind == "base" else fiber).append(c)
    return base, fiber


def _branch_policy(sys: PfaffianSystem, constraints: list, offending: Scalar) -> list:
    """Replace a nonlinear constraint per the declared branch policy.

    Drop every listed multiple of another listed constraint, it among them;
    else divide out every factor recorded as nonzero; otherwise the caller
    must branch.  The first list holds every carried zero-form, and each
    later one a divisor of each, so pruning sees every vanishing factor.
    """
    cons = prune_constraints(constraints)
    if offending not in cons:
        return cons  # a factor is already zero on the locus
    stripped = _strip_factors(offending.num, sys.assumptions)
    if stripped == offending.num:
        raise NeedsUserBranch(offending)
    return [c for c in cons if c != offending] + [Scalar(stripped).constraint_normal()]


def _restrict_with_policy(sys: PfaffianSystem, constraints: Sequence[Scalar]):
    """restrict under the branch policy.

    The retry list holds normalized constraints (make_system normalizes the
    zero-forms, essential torsion is normalized), so the offending equation
    restrict reports is one of them.  Each retry drops constraints, it
    among them, or replaces it by a copy of lower degree that no recorded
    factor divides, so the total degree of the list falls and the loop ends.
    """
    cons = list(constraints)
    while True:
        try:
            return restrict(sys, cons)
        except NonLinearInUnknowns as err:
            cons = _branch_policy(sys, cons, err.equation)


def run_system(sys: PfaffianSystem, subst: Substitution, seed: int,
               max_prolongations: int = 4, max_steps: int = 32,
               hamilton: Optional[HamiltonLocus] = None) -> ConstraintLadder:
    """Drive the constraint loop on an existing Pfaffian system."""
    if max_prolongations < 1 or max_steps < 1:
        raise ValueError("budgets must be >= 1")
    steps: list = []
    prolongations = 0
    seen: list = list(sys.assumptions)

    def new_assumptions(s: PfaffianSystem) -> list:
        fresh = []
        for a in s.assumptions:
            if not redundant_assumption(a, seen):
                seen.append(a)
                fresh.append(f"{a} != 0")
        return fresh

    def record(kind, constraints=(), report: Optional[InvolutivityReport] = None,
               added=(), system=None, sub=None):
        base, fiber = _split_constraints(list(constraints), sys.chart)
        if sub is not None:
            # a restriction may eliminate base coordinates while solving fiber
            # relations (e.g. a field forced to zero); surface those too
            for name, value in sub.bindings.items():
                if sys.chart.level_of(name) == 0:
                    derived = (Scalar.var(name) - value).constraint_normal()
                    if all(derived != c for c in base):
                        base.append(derived)
        steps.append(LadderStep(
            level=len(steps) + 1, kind=kind,
            new_base_constraints=base, new_fiber_constraints=fiber,
            characters=report.characters if report else None,
            characters_generic=report.characters_generic if report else None,
            assumptions=new_assumptions(system if system is not None else sys),
            added_coordinates=list(added)))

    while len(steps) < max_steps:
        report = None
        kind, constraints = "zero_forms", sys.zero_forms
        if not constraints:
            se = structure_equations(sys)
            report = cartan_test(se, seed)
            kind, constraints = "torsion", report.torsion_essential
        if not constraints:
            if report.involutive:
                record("involutive", report=report)
                return ConstraintLadder(steps, sys, VERDICT_INVOLUTIVE, subst, hamilton)
            if prolongations >= max_prolongations:
                break
            sys, added = prolong(se)
            prolongations += 1
            record("prolongation", report=report, added=added, system=sys)
            continue
        try:
            nxt, sub = _restrict_with_policy(sys, constraints)
        except EmptyLocus:
            record("empty_locus", constraints, report)
            return ConstraintLadder(steps, None, VERDICT_EMPTY, subst, hamilton)
        except NeedsUserBranch:
            record(kind, constraints, report)
            return ConstraintLadder(steps, sys, VERDICT_BRANCH, subst, hamilton)
        record(kind, constraints, report, system=nxt, sub=sub)
        sys, subst = nxt, subst.compose(sub)
    return ConstraintLadder(steps, sys, VERDICT_BUDGET, subst, hamilton)


def run(hl: HamiltonLocus, seed: int, max_prolongations: int = 4,
        max_steps: int = 32) -> ConstraintLadder:
    """Run the constraint algorithm on a Hamilton Pfaffian."""
    return run_system(hl.pfaffian, hl.solved, seed,
                      max_prolongations=max_prolongations,
                      max_steps=max_steps, hamilton=hl)
