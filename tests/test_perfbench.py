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


REPORT_SHA256 = {
    "ladder-deep": "c2cb0d68075c5165b78d13b1e4b04148b89139fafd1c6e6a6db36716e018a624",
    "maxwell-metrics": "ae2f71a79c443ad0c48afb5c52dac39f8d8e6b08cb4449847dd434a4ef59aa23",
    "mechanics-batch": "237f3c3ba89c646ac91c72ccad21775ac95dfb5c08c5c00789309b06f1d68091",
}


def test_round_zero_reports_keep_their_digests(monkeypatch):
    # the golden fixture digests hold maxwell at its default metric only;
    # these cover the seeded rational metrics and parameters of each workload
    run, workloads = (load(n, monkeypatch) for n in ("run", "workloads"))
    for workload, digest in REPORT_SHA256.items():
        result = run.run_pass(workloads.Rounds(workload, 1).round(0), cartaneds)
        assert result.failures == [], workload
        assert result.digest == digest, workload
