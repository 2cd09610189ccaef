"""Self-test of the benchmark: a short run of every workload in both modes.

    python3 perfbench/selftest.py

Each run must be correct with ``fail_ratio`` 0 and print every metric that
``BENCHMARK.json`` names, with its unit, on a ``metric`` line and in the final
JSON object; ``mechanics-batch`` must also print ``verdict_s.p90``.  The traced
and untraced runs of a workload must print the same report digest.  Takes
about a minute, most of it one round of ladder-deep in each mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "4"


def run(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise SystemExit(f"{workload} --trace {trace} exited {out.returncode}:\n{out.stderr}")
    return out.stdout.splitlines()


def check(workload: str, trace: int, lines: list, spec: dict) -> list:
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace == 0:
        want["fail_ratio"] = "1"
        if workload == "mechanics-batch":
            want["verdict_s.p90"] = "s"
    errors = []
    if not result["correct"] or result["failed"]:
        errors.append("not correct: " + "; ".join(l for l in lines if l.startswith("FAIL")))
    if trace == 0 and printed.get("fail_ratio", (None,))[0] != 0:
        errors.append(f"fail_ratio {printed.get('fail_ratio')}")
    for name, unit in want.items():
        if printed.get(name, (None, None))[1] != unit:
            errors.append(f"metric line for {name} [{unit}]: {printed.get(name)}")
    reported = {n: m["unit"] for n, m in result["metrics"].items()}
    expected = {n: u for n, u in want.items() if n not in ("fail_ratio", "verdict_s.p90")}
    if reported != expected:
        errors.append(f"JSON metrics {sorted(reported.items())} != {sorted(expected.items())}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace in (0, 1):
            lines = run(workload, trace)
            digests |= {l.split()[1] for l in lines if l.startswith("report_sha256 ")}
            errors = check(workload, trace, lines, spec)
            if len(digests) != 1:
                errors.append(f"report digests differ: {sorted(digests)}")
            failed |= bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}")
            for e in errors:
                print(f"     {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
