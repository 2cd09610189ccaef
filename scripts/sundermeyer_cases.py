#!/usr/bin/env python3
"""The four parameter regimes of the two-field singular mechanics fixture.

Symbolic case splits are out of scope by design: each regime is one run with
concrete rational parameters, and the constraint chains differ per regime.
The regimes are those `cartaneds fixtures run` analyzes:

    alpha=1 beta=2   generic: both velocities pinned to (beta/alpha)(q1-q2)
    alpha=1 beta=1   beta = alpha^2: one restriction fewer, q2 free
    alpha=0 beta=1   alpha = 0: base chain q1=q2, then v1=v2
    alpha=0 beta=0   free particle in disguise: single fiber constraint
"""

from fractions import Fraction

from cartaneds.cli import FIXTURE_CASES, fixture_text
from cartaneds.problems import parse_problem
from cartaneds.report import analyze


def main():
    for label, params in FIXTURE_CASES["sundermeyer"]:
        doc = parse_problem(fixture_text("sundermeyer"),
                            param_overrides={k: Fraction(v) for k, v in params.items()})
        rep = analyze(doc)
        print(f"{label}:")
        for s in rep.steps:
            cons = s["base_constraints"] + s["fiber_constraints"]
            print(f"  step {s['level']} {s['kind']}: {', '.join(cons) if cons else ''}")
        print(f"  verdict: {rep.verdict}")
        motion = rep.ladder.substitution.bindings.get("Zq1_t")
        if motion is not None:
            print(f"  dq1/dt = {motion}")
        print()


if __name__ == "__main__":
    main()
