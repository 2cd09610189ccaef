"""Per-layer tracing from outside the package.

The engine is not edited.  ``Tracer.install`` wraps public functions of the
``cartaneds`` modules and rebinds every module attribute that refers to the
original, so a call through a ``from .scalars import ...`` binding is traced
as well as one through ``scalars.<name>``.  A span records calls and self
time (its duration minus the time covered by spans nested inside it);
the kernels ``p_gcd`` and ``p_mul`` run too often to time and are only
counted.

``LAYERS`` is also the map from each per-layer metric to the end-to-end
metric it should move and the workload on which it should move it.  A later
performance change cites these names.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    name: str            # metric stem, <module>.<function>
    targets: tuple       # "<module>.<attribute>[.<method>]" wrapped under this name
    kind: str            # "span": calls and self time; "count": calls only
    moves: str           # end-to-end metric this layer should move ...
    on: tuple            # ... on these workloads, where it must also be reached


DEEP, MAXWELL, BATCH = "ladder-deep", "maxwell-metrics", "mechanics-batch"
ALL = (DEEP, MAXWELL, BATCH)

LAYERS = (
    # coframe inverse, its full-rank check and the structure-equation rebuilds;
    # about half the run at chart dimension 100, about 30% on maxwell-metrics
    Layer("exterior.CoframeExpansion", ("exterior.CoframeExpansion.__init__",),
          "span", "verdict_s.p50", (DEEP, MAXWELL)),
    Layer("scalars.random_rank", ("scalars.random_rank",), "span", "verdict_s.p50",
          (DEEP, MAXWELL)),
    Layer("pfaffian.structure_equations", ("pfaffian.structure_equations",), "span",
          "verdict_s.p50", (DEEP, MAXWELL)),
    # character and rank sampling: about 48% of maxwell-metrics, small on the batch
    Layer("pfaffian.cartan_characters", ("pfaffian.cartan_characters",), "span",
          "verdict_s.p50", (MAXWELL,)),
    Layer("pfaffian.prolongation_dim", ("pfaffian.prolongation_dim",), "span",
          "verdict_s.p50", (MAXWELL,)),
    Layer("scalars.rank_fractions", ("scalars.rank_fractions",), "span",
          "verdict_s.p50", (MAXWELL,)),
    # fixed costs of a problem: about 20% of mechanics-batch, under 2% of ladder-deep
    Layer("problems.parse_problem", ("problems.parse_problem",), "span",
          "problems_per_s", (BATCH,)),
    Layer("hamilton.build_lepage",
          ("hamilton.build_lepage_classical", "hamilton.build_lepage_griffiths",
           "hamilton.build_lepage_explicit"), "span", "problems_per_s", (BATCH,)),
    Layer("hamilton.hamilton_equations", ("hamilton.hamilton_equations",), "span",
          "problems_per_s", (BATCH,)),
    Layer("hamilton.solve_hamilton_locus", ("hamilton.solve_hamilton_locus",), "span",
          "problems_per_s", (BATCH,)),
    Layer("pfaffian.restrict", ("pfaffian.restrict",), "span", "problems_per_s",
          (BATCH,)),
    Layer("report.emit", ("report.emit",), "span", "problems_per_s", (BATCH,)),
    # the ladder loop itself
    Layer("scalars.solve_linear", ("scalars.solve_linear",), "span", "verdict_s.p50",
          (DEEP,)),
    Layer("pfaffian.essential_torsion", ("pfaffian.essential_torsion",), "span",
          "verdict_s.p50", (DEEP,)),
    Layer("pfaffian.prolong", ("pfaffian.prolong",), "span", "verdict_s.p50", (DEEP,)),
    Layer("ladder.run_system", ("ladder.run_system",), "span", "verdict_s.p50",
          (DEEP,)),
    # polynomial kernels, about 120k calls per fixture pass: counted, never timed
    Layer("scalars.p_gcd", ("scalars.p_gcd",), "count", "verdict_s.p50", ALL),
    Layer("scalars.p_mul", ("scalars.p_mul",), "count", "verdict_s.p50", ALL),
)


# figures recorded from the arguments and results of wrapped calls; the sizes
# explain why a workload is costly, they are not gains
EXTRA_UNITS = {
    "report.emit.bytes": "bytes",
    "ladder.steps": "count",
    "ladder.prolongations": "count",
    "pfaffian.cartan_test.retries": "count",   # prolongation_dim calls on the retry path
    "hamilton.grassmann_dim": "coords",        # largest Grassmann chart
    "pfaffian.max_chart_dim": "coords",        # largest chart a ladder step works on
    "pfaffian.tableau_entries": "entries",     # largest tableau
}


def _resolve(modules: dict, target: str):
    """(owner, attribute, original) for a wrapped target."""
    parts = target.split(".")
    owner = modules["cartaneds." + parts[0]]
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans and counts of the layers in ``LAYERS``, plus sizes."""

    def __init__(self):
        self._saved: list = []
        self.calls = {l.name: 0 for l in LAYERS}
        self.self_s = {l.name: 0.0 for l in LAYERS if l.kind == "span"}
        self.extra = dict.fromkeys(EXTRA_UNITS, 0)
        self._stack: list = []   # child time accumulated per open span

    def reset(self):
        """Zero every figure in place; installed wrappers keep writing here."""
        for d in (self.calls, self.self_s, self.extra):
            for k in d:
                d[k] = 0

    # -- what some layers also record about their arguments and results --

    def _observe(self, name: str, args, kwargs, result, fn):
        x = self.extra
        if name == "report.emit":
            x["report.emit.bytes"] += len(result)
        elif name == "ladder.run_system":
            x["ladder.steps"] += len(result.steps)
            x["ladder.prolongations"] += sum(s.kind == "prolongation" for s in result.steps)
        elif name == "pfaffian.prolongation_dim":
            # cartan_test's retry path asks for more samples than the default
            bound = inspect.signature(fn).bind(*args, **kwargs)
            if bound.arguments.get("samples", 3) > 3:
                x["pfaffian.cartan_test.retries"] += 1
        elif name == "pfaffian.structure_equations":
            x["pfaffian.max_chart_dim"] = max(x["pfaffian.max_chart_dim"],
                                              args[0].chart.dim)
            x["pfaffian.tableau_entries"] = max(x["pfaffian.tableau_entries"],
                                                len(result.tableau))
        elif name == "hamilton.hamilton_equations":
            x["hamilton.grassmann_dim"] = max(x["hamilton.grassmann_dim"], args[1].dim)

    def _span(self, name: str, fn):
        calls, self_s, stack, observe = self.calls, self.self_s, self._stack, self._observe

        def span(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            observe(name, args, kwargs, result, fn)
            return result
        return span

    def _count(self, name: str, fn):
        calls = self.calls

        def count(*args):
            calls[name] += 1
            return fn(*args)
        return count

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "cartaneds" or n.startswith("cartaneds.")}
        for layer in LAYERS:
            for target in layer.targets:
                owner, attr, original = _resolve(modules, target)
                make = self._span if layer.kind == "span" else self._count
                wrapper = make(layer.name, original)
                if isinstance(owner, type):
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """name -> (value, unit) of everything recorded since the last reset."""
        out = {}
        for l in LAYERS:
            out[f"{l.name}.calls"] = (self.calls[l.name], "count")
            if l.kind == "span":
                out[f"{l.name}.s"] = (self.self_s[l.name], "s")
        out.update({k: (v, EXTRA_UNITS[k]) for k, v in self.extra.items()})
        c = self.calls
        out["pfaffian.structure_equations.per_step"] = (
            c["pfaffian.structure_equations"] / max(self.extra["ladder.steps"], 1),
            "builds/step")
        samplers = (c["scalars.random_rank"] + c["pfaffian.cartan_characters"]
                    + c["pfaffian.prolongation_dim"])
        out["scalars.rank_samples_per_call"] = (
            c["scalars.rank_fractions"] / max(samplers, 1), "samples/call")
        return out

    def unreached(self, workload: str) -> list:
        """Layers that this workload must reach but that recorded no call."""
        return [l.name for l in LAYERS if workload in l.on and not self.calls[l.name]]
