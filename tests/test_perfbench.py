"""The benchmark's trace contract: round 0 of every workload reaches each
layer that ``perfbench/layers.py`` requires of it, with every answer right.

``perfbench/selftest.py`` checks the same in full runs of a minute; this
catches a renamed or unreached traced name within the unit tests.
"""

import importlib.util
import sys
from pathlib import Path

import cartaneds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_round_zero_reaches_every_traced_layer(monkeypatch):
    layers, run, workloads = (load(n, monkeypatch) for n in ("layers", "run", "workloads"))
    for workload in layers.ALL:
        batch = workloads.Rounds(workload, 1).round(0)
        tracer = layers.Tracer()
        tracer.install()
        try:
            result = run.run_pass(batch, cartaneds)
        finally:
            tracer.uninstall()
        assert result.failures == [], workload
        assert tracer.unreached(workload) == [], workload
