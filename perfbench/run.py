"""Benchmark of the cartaneds engine: time to verdict and throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from ``src/``.
One process with one thread drives the library in a closed loop: a problem
text goes through ``parse_problem``, ``analyze`` and ``emit`` (text and
structured), its outcome is checked against the hand-written answer, and only
then does the next problem start.  The workload is a sequence of rounds of
problems generated from ``--seed`` (see ``workloads.py``); the loop starts
rounds while fewer than ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats round 0
in pairs, untraced then traced with the wrappers of ``layers.py``, and prints
the per-layer metrics and the tracing overhead between the two.  Both print
``report_sha256``, a digest over every report emitted for round 0, which must
match between the two modes and between commits.  Each metric goes on a
``metric <name> <value> <unit>`` line; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 7
P90_MIN_PROBLEMS = 100      # so that at least ten samples lie beyond the p90

# a child that sets up exactly as the benchmark does, then reports ready
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "run.set_up(sys.argv[2], int(sys.argv[3])); print('ready', flush=True)")


def import_engine():
    sys.path.insert(0, str(SRC))
    try:
        import cartaneds
    except ImportError as err:
        sys.exit(f"perfbench: cannot import cartaneds from {SRC}: {err}")
    if Path(cartaneds.__file__).resolve().parent != SRC / "cartaneds":
        sys.exit(f"perfbench: imported cartaneds from {cartaneds.__file__}, not {SRC}")
    return cartaneds


def set_up(workload: str, seed: int):
    """Import the engine, read the fixtures and generate the first round."""
    cartaneds = import_engine()
    from workloads import Rounds
    rounds = Rounds(workload, seed)
    return cartaneds, rounds, rounds.round(0)


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from process start until the first problem is ready."""
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(HERE), workload,
                               str(seed)], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode:
            sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


@dataclass
class Pass:
    times: list          # seconds per problem, text to emitted bytes
    failures: list       # "label: reason" per problem whose outcome is wrong
    digest: str          # sha256 over every emitted report, in order
    wall: float


def check(prob, rep, structured, err):
    """None when the outcome matches the expected answer, else the reason."""
    from cartaneds.scalars import Scalar
    if prob.raises:
        if err is None:
            return f"expected {prob.raises}, got verdict {rep.verdict}"
        return None if type(err).__name__ == prob.raises else \
            f"expected {prob.raises}, raised {type(err).__name__}: {err}"
    if err is not None:
        return f"raised {type(err).__name__}: {err}"
    payload = json.loads(structured)
    trail = tuple((s["kind"], tuple(s["characters"])) for s in payload["steps"])
    if payload["verdict"] != prob.verdict or trail != prob.trail:
        return f"verdict {payload['verdict']} trail {trail}"
    if prob.motion is not None:
        want = Scalar.const(prob.motion) * (Scalar.var("q1") - Scalar.var("q2"))
        got = rep.ladder.substitution.bindings.get("Zq1_t")
        if got != want:
            return f"Zq1_t = {got}, expected {want}"
    return None


def run_pass(batch, cartaneds) -> Pass:
    parse, analyze, emit = (cartaneds.problems.parse_problem, cartaneds.report.analyze,
                            cartaneds.report.emit)
    digest = hashlib.sha256()
    times, failures = [], []
    start = perf_counter()
    for prob in batch:
        rep = text = structured = err = None
        t0 = perf_counter()
        try:
            rep = analyze(parse(prob.text))
            text, structured = emit(rep, "text"), emit(rep, "structured")
        except Exception as e:    # an outcome to check against the answer
            err = e
        times.append(perf_counter() - t0)
        if err is None:
            digest.update(text + structured)
        else:
            digest.update(f"error {type(err).__name__}: {err}\n".encode())
        why = check(prob, rep, structured, err)
        if why:
            failures.append(f"{prob.label}: {why}")
    return Pass(times, failures, digest.hexdigest(), perf_counter() - start)


def end_to_end(args, cartaneds, rounds, first) -> tuple:
    setup_s = setup_seconds(args.workload, args.seed)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        batch = rounds.round(len(passes)) if passes else first
        passes.append(run_pass(batch, cartaneds))
    wall = perf_counter() - start
    times = [t for p in passes for t in p.times]
    failures = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "problems_per_s": ((len(times) - failures) / wall, "1/s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = dict(metrics, fail_ratio=(failures / len(times), "1"))
    if len(times) >= P90_MIN_PROBLEMS:
        shown["verdict_s.p90"] = (statistics.quantiles(times, n=10)[8], "s")
    return metrics, shown, passes, []


def per_layer(args, cartaneds, first) -> tuple:
    from layers import Tracer
    tracer = Tracer()
    plain, traced, figures, broken = [], [], [], []

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            return run_pass(first, cartaneds)
        finally:
            tracer.uninstall()

    start = perf_counter()
    while True:
        # every pass repeats round 0, so counts must repeat exactly; the order
        # within a pair alternates so that warm-up and drift favour neither side
        if len(plain) % 2:
            traced.append(traced_pass())
            plain.append(run_pass(first, cartaneds))
        else:
            plain.append(run_pass(first, cartaneds))
            traced.append(traced_pass())
        figures.append(tracer.metrics())
        pair = plain[-1].wall + traced[-1].wall
        if perf_counter() - start + pair > args.seconds:
            break
    if len({p.digest for p in plain + traced}) != 1:
        broken.append("report digest differs between traced and untraced passes")
    broken += [f"layer {name} was never reached" for name in tracer.unreached(args.workload)]
    metrics = {}
    for name, (value, unit) in figures[0].items():
        values = [f[name][0] for f in figures]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) != 1:
            broken.append(f"{name} differs between repeats of round 0: {values}")
        metrics[name] = (value, unit)
    overhead = (statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1) * 100
    metrics["trace.overhead"] = (overhead, "%")
    return metrics, metrics, plain + traced, broken


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    cartaneds, rounds, first = set_up(args.workload, args.seed)
    if args.trace:
        metrics, shown, passes, broken = per_layer(args, cartaneds, first)
    else:
        metrics, shown, passes, broken = end_to_end(args, cartaneds, rounds, first)
    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures + broken:
        print(f"FAIL {f}")
    print(f"problems {attempted} in {args.workload}, seed {args.seed}")
    print(f"report_sha256 {passes[0].digest}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not broken, "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
