"""Analysis orchestration and bit-stable report emission.

analyze() runs a parsed problem through the Lepage build, the Hamilton locus
and the constraint ladder; emit() renders the result as human-readable text
or as a frozen-schema JSON object.  Emission is byte-identical for a fixed
problem and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .hamilton import (LepageSpace, VariationalProblem, build_lepage_classical,
                       build_lepage_explicit, build_lepage_griffiths,
                       grassmann_extend, hamilton_equations,
                       solve_hamilton_locus)
from .ladder import ConstraintLadder, run as run_ladder
from .pfaffian import EmptyLocus
from .problems import ProblemDocument


@dataclass
class ReportDocument:
    problem: dict                 # echo: name, params, chart, hamilton block
    seed: int
    verdict: str
    steps: list                   # frozen per-step dicts
    final_generators: list
    ladder: Optional[ConstraintLadder] = None


def analyze(doc: ProblemDocument, seed: Optional[int] = None,
            max_prolongations: Optional[int] = None,
            max_steps: Optional[int] = None) -> ReportDocument:
    """Deterministic end-to-end analysis of a problem document."""
    seed = doc.seed if seed is None else seed
    maxp = doc.max_prolongations if max_prolongations is None else max_prolongations
    maxs = doc.max_steps if max_steps is None else max_steps
    ls = lepage_space(doc)
    gchart = grassmann_extend(ls)
    eqs = hamilton_equations(ls, gchart)
    try:
        hl = solve_hamilton_locus(ls, gchart, eqs)
    except EmptyLocus:
        problem = _problem_echo(doc, None, ls)
        return ReportDocument(problem=problem, seed=seed, verdict="empty",
                              steps=[], final_generators=[])
    lad = run_ladder(hl, seed, max_prolongations=maxp, max_steps=maxs)
    steps = _steps_payload(lad)
    problem = _problem_echo(doc, hl, ls)
    final = [str(g) for g in lad.final_system.generators] if lad.final_system else []
    return ReportDocument(problem=problem, seed=seed, verdict=lad.verdict,
                          steps=steps, final_generators=final, ladder=lad)


def lepage_space(doc: ProblemDocument) -> LepageSpace:
    """The Lepage space of a problem document, built as its mode says."""
    if doc.mode == "explicit":
        return build_lepage_explicit(doc.chart, doc.theta)
    vp = VariationalProblem(chart=doc.chart, lagrangian=doc.lagrangian,
                            generators=doc.generators)
    if doc.mode == "classical":
        return build_lepage_classical(vp, doc.momenta)
    return build_lepage_griffiths(vp, doc.multiplier_shapes)


def _problem_echo(doc: ProblemDocument, hl, ls) -> dict:
    echo = {
        "name": doc.name,
        "mode": doc.mode,
        "independent": list(doc.chart.independent),
        "dependent": [d.name for d in doc.chart.dependent],
        "multipliers": list(ls.multipliers) if ls is not None else [],
        "params": {k: str(v) for k, v in sorted(doc.params.items())},
    }
    if hl is not None:
        echo["hamilton"] = {
            "base_constraints": [str(c) for c in hl.base_constraints],
            "solved": {k: str(v) for k, v in sorted(hl.solved.bindings.items())},
            "assumptions": [f"{a} != 0" for a in hl.assumptions],
        }
    return echo


def _steps_payload(lad: ConstraintLadder) -> list:
    steps = []
    for s in lad.steps:
        steps.append({
            "level": s.level,
            "kind": s.kind,
            "base_constraints": [str(c) for c in s.new_base_constraints],
            "fiber_constraints": [str(c) for c in s.new_fiber_constraints],
            "characters": list(s.characters.s) if s.characters else [],
            "assumptions": list(s.assumptions),
            "added_coordinates": list(s.added_coordinates),
        })
    return steps


def emit(report: ReportDocument, format: str = "text") -> bytes:
    if format == "structured":
        payload = {
            "problem": report.problem,
            "seed": report.seed,
            "verdict": report.verdict,
            "steps": report.steps,
            "final_generators": report.final_generators,
        }
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    out = []
    out.append(f"problem: {report.problem['name']}")
    out.append(f"mode: {report.problem['mode']}")
    if report.problem.get("params"):
        pairs = ", ".join(f"{k}={v}" for k, v in report.problem["params"].items())
        out.append(f"params: {pairs}")
    out.append(f"seed: {report.seed}")
    ham = report.problem.get("hamilton")
    if ham:
        out.append("hamilton locus:")
        for c in ham["base_constraints"]:
            out.append(f"  base: {c} = 0")
        for a in ham["assumptions"]:
            out.append(f"  assume: {a}")
    for s in report.steps:
        out.append(f"step {s['level']}: {s['kind']}")
        if s["characters"]:
            out.append(f"  characters: {s['characters']}")
        for c in s["base_constraints"]:
            out.append(f"  base: {c} = 0")
        for c in s["fiber_constraints"]:
            out.append(f"  fiber: {c} = 0")
        for a in s["assumptions"]:
            out.append(f"  assume: {a}")
        if s["added_coordinates"]:
            out.append(f"  added: {' '.join(s['added_coordinates'])}")
    out.append(f"verdict: {report.verdict}")
    if report.final_generators:
        out.append("final generators:")
        for g in report.final_generators:
            out.append(f"  {g}")
    return ("\n".join(out) + "\n").encode()

