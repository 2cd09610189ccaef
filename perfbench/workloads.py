"""Seeded problem generators and hand-written expected answers.

Every workload is an endless sequence of rounds.  A round is a fixed list of
problem texts drawn from ``random.Random`` keyed by the workload seed and the
round index, so the same seed gives the same problems on every commit.  The
engine seed of each problem is written into its ``[run]`` section and its
parameters into ``[params]``; the engine sees nothing but the text.

The expected answers below are written by hand from the paper's worked cases
and the repository's golden ladders.  None is read from the engine's output.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cartaneds" / "fixtures"

ZF = ("zero_forms", ())

# Ladder trails: (step kind, coordinate-flag characters) per step.
TRAILS = {
    # beta != alpha^2: case 1.A (alpha != 0) and case 2.A (alpha = 0)
    "sundermeyer-3": (ZF, ZF, ZF, ("involutive", (0,))),
    # beta = alpha^2: case 1.B (alpha != 0) and case 2.B (alpha = 0)
    "sundermeyer-1": (ZF, ("involutive", (1,))),
    "maxwell": (ZF, ("torsion", (10, 9, 7, 4)), ("involutive", (10, 9, 6, 1))),
    "integrability": (("torsion", (3, 2, 1)), ("involutive", (2, 2, 1))),
    "strong-integrability": (
        ("torsion", (7, 6, 5)), ("prolongation", (7, 5, 2)),
        ("torsion", (13, 5, 2)), ("prolongation", (12, 5, 2)),
        ("torsion", (17, 6, 2)), ("prolongation", (16, 6, 2)),
        ("involutive", (22, 7, 2))),
    "field-prolongation": (
        ZF, ZF, ZF, ("torsion", (6, 5, 5)), ("prolongation", (6, 3, 1)),
        ("torsion", (10, 3, 1)), ("torsion", (9, 3, 1)),
        ("prolongation", (9, 2, 1)), ("torsion", (11, 2, 1)),
        ("involutive", (11, 1, 1))),
    "affine": (ZF, ("involutive", (5, 5))),
    "saunders": (ZF, ("torsion", (4, 5)), ZF, ("involutive", (2, 2))),
    "inconsistent": (),
}


@dataclass(frozen=True)
class Problem:
    label: str
    text: str
    verdict: Optional[str] = None        # expected verdict, or None when it must raise
    trail: tuple = ()
    raises: Optional[str] = None         # expected exception class name
    motion: Optional[Fraction] = None    # c in the binding Zq1_t = c*(q1 - q2)


def _set(text: str, key: str, value) -> str:
    """Replace the value of a ``key = ...`` line that the fixture declares."""
    out, n = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", text)
    if n != 1:
        raise ValueError(f"fixture has {n} lines for key {key!r}")
    return out


def _engine_seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


def _nonzero(rng: random.Random) -> Fraction:
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q:
            return q


def _sundermeyer(base: str, rng: random.Random, alpha: Fraction, beta: Fraction,
                 label: str) -> Problem:
    text = _set(_set(_set(base, "alpha", alpha), "beta", beta), "seed", _engine_seed(rng))
    # beta = alpha^2 (cases 1.B and 2.B) stops after one restriction
    trail = TRAILS["sundermeyer-3" if beta != alpha * alpha else "sundermeyer-1"]
    # for alpha != 0 the motion is dq1/dt = (beta/alpha)(q1 - q2)
    motion = beta / alpha if alpha else None
    return Problem(label, text, "involutive", trail, motion=motion)


def _generic_sundermeyer(base: str, rng: random.Random) -> Problem:
    """Case 1.A: the draw rejects alpha = 0 and beta = alpha^2."""
    while True:
        alpha, beta = _nonzero(rng), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if beta != alpha * alpha:
            return _sundermeyer(base, rng, alpha, beta, "sundermeyer 1.A")


def _fixed(name: str, rng: random.Random, base: str) -> Problem:
    text = _set(base, "seed", _engine_seed(rng))
    if name == "vacuous-lepage":
        return Problem(name, text, raises="DegreeMismatch")
    verdict = "empty" if name == "inconsistent" else "involutive"
    return Problem(name, text, verdict, TRAILS[name])


def _metric(rng: random.Random) -> str:
    """Diagonal metric with entries +-(a/b)^2, so sqrt|det g| is rational."""
    entries = []
    for _ in range(4):
        q = Fraction(rng.randint(1, 7), rng.randint(1, 7)) ** 2
        entries.append(str(q * rng.choice((-1, 1))))
    return f"diag({','.join(entries)})"


def _ladder_deep(fx: dict, rng: random.Random) -> list:
    # two deep ladders per shallower one keeps the median on the 100-coordinate chart
    return [_fixed(n, rng, fx[n]) for n in
            ("strong-integrability", "strong-integrability", "field-prolongation")]


def _maxwell_metrics(fx: dict, rng: random.Random) -> list:
    out = []
    for _ in range(4):
        text = _set(fx["maxwell"], "metric", _metric(rng))
        out.append(Problem("maxwell", _set(text, "seed", _engine_seed(rng)),
                           "involutive", TRAILS["maxwell"]))
    return out


def _mechanics_batch(fx: dict, rng: random.Random) -> list:
    base = fx["sundermeyer"]
    out = [_generic_sundermeyer(base, rng) for _ in range(4)]
    a = _nonzero(rng)
    out += [
        _sundermeyer(base, rng, a, a * a, "sundermeyer 1.B"),
        _sundermeyer(base, rng, Fraction(0), _nonzero(rng), "sundermeyer 2.A"),
        _sundermeyer(base, rng, Fraction(0), Fraction(0), "sundermeyer 2.B"),
    ]
    out += [_fixed(n, rng, fx[n]) for n in
            ("integrability", "affine", "saunders", "vacuous-lepage", "inconsistent")]
    return out


WORKLOADS = {
    "ladder-deep": _ladder_deep,
    "maxwell-metrics": _maxwell_metrics,
    "mechanics-batch": _mechanics_batch,
}


class Rounds:
    """The rounds of one workload under one seed; fixtures are read once."""

    def __init__(self, workload: str, seed: int):
        self.make_round = WORKLOADS[workload]
        self.name, self.seed = workload, seed
        self.fx = {p.stem: p.read_text() for p in sorted(FIXTURES.glob("*.prob"))}

    def round(self, index: int) -> list:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        return self.make_round(self.fx, rng)
