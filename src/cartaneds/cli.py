"""Command-line interface.

    cartaneds analyze FILE... [--param name=p/q] [--seed N] [--max-prolong N]
                      [--max-steps N] [--format text|structured] [--out PATH]
    cartaneds fixtures list
    cartaneds fixtures run [--seed N]

Exit codes: 0 involutive, 1 empty locus, 2 needs-user-branch,
3 budget exceeded, 64 usage (including a budget below 1),
65 parse/validation error (including a problem file that cannot be read or
is not UTF-8), 70 internal error (degenerate rank sampling, generators out
of reduced form, a nonlinear Pfaffian, a violated Cartan inequality, a
colliding prolongation coordinate name, or any other unexpected exception),
73 the --out file cannot be created (its directory is checked before the
analysis runs).  Exits 65, 70 and 73 print one `error:` line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .hamilton import DegreeMismatch, MissingJetStructure
from .ladder import VERDICT_BRANCH, VERDICT_BUDGET, VERDICT_EMPTY, VERDICT_INVOLUTIVE
from .problems import ParseError, parse_problem
from .report import analyze, emit
from .scalars import NonLinearInUnknowns

EXIT_FOR_VERDICT = {
    VERDICT_INVOLUTIVE: 0,
    VERDICT_EMPTY: 1,
    VERDICT_BRANCH: 2,
    VERDICT_BUDGET: 3,
}
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SOFTWARE = 70
EXIT_CANTCREAT = 73

FIXTURE_NAMES = sorted(f.name.removesuffix(".prob")
                       for f in resources.files("cartaneds").joinpath("fixtures").iterdir()
                       if f.name.endswith(".prob"))

# per-fixture parameter cases (name, overrides)
FIXTURE_CASES = {
    "sundermeyer": [
        ("alpha=1 beta=2", {"alpha": "1", "beta": "2"}),
        ("alpha=1 beta=1", {"alpha": "1", "beta": "1"}),
        ("alpha=0 beta=1", {"alpha": "0", "beta": "1"}),
        ("alpha=0 beta=0", {"alpha": "0", "beta": "0"}),
    ],
}


def fixture_text(name: str) -> str:
    ref = resources.files("cartaneds").joinpath(f"fixtures/{name}.prob")
    return ref.read_text()


def _parse_params(pairs):
    out = {}
    for p in pairs or ():
        if "=" not in p:
            raise ParseError(f"--param expects name=value, got {p!r}")
        k, v = p.split("=", 1)
        try:
            out[k.strip()] = Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"--param {k!r} needs a rational value, got {v!r}")
    return out


def _cannot_create(path: Path, reason) -> int:
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return EXIT_CANTCREAT


def cmd_analyze(args) -> int:
    overrides = _parse_params(args.param)
    out = Path(args.out) if args.out else None
    if out is not None and not out.parent.is_dir():
        return _cannot_create(out, f"no directory {out.parent}")
    texts = []
    for f in args.files:
        path = Path(f)
        if not path.exists():
            raise ParseError(f"no such problem file: {f}")
        try:
            texts.append(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise ParseError(f"cannot read problem file {f}: {getattr(err, 'strerror', None) or err}")
    reports = [analyze(parse_problem(text, param_overrides=overrides), seed=args.seed,
                       max_prolongations=args.max_prolong, max_steps=args.max_steps)
               for text in texts]
    payload = b"".join(emit(rep, args.format) for rep in reports)
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    else:
        try:
            out.write_bytes(payload)
        except OSError as err:
            return _cannot_create(out, err.strerror or err)
    return max(EXIT_FOR_VERDICT.get(rep.verdict, 3) for rep in reports)


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for n in FIXTURE_NAMES:
            cases = FIXTURE_CASES.get(n)
            if cases:
                for label, _ in cases:
                    print(f"{n} [{label}]")
            else:
                print(n)
        return 0
    worst = 0
    for n in FIXTURE_NAMES:
        if n in ("vacuous-lepage", "inconsistent"):
            continue  # negative fixtures are exercised by the test suite
        for label, overrides in FIXTURE_CASES.get(n, [("", {})]):
            doc = parse_problem(fixture_text(n),
                                param_overrides={k: Fraction(v) for k, v in overrides.items()})
            rep = analyze(doc, seed=args.seed)
            chars = next((s["characters"] for s in reversed(rep.steps) if s["characters"]), [])
            tag = f" [{label}]" if label else ""
            print(f"{n}{tag}: {rep.verdict}  steps={len(rep.steps)}  characters={chars}")
            worst = max(worst, EXIT_FOR_VERDICT.get(rep.verdict, 3))
    return worst


def _budget(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"budgets must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cartaneds",
                                 description="Cartan constraint algorithm for variational problems")
    sub = ap.add_subparsers(dest="command", required=True)
    a = sub.add_parser("analyze", help="analyze problem files")
    a.add_argument("files", nargs="+")
    a.add_argument("--param", action="append", metavar="name=p/q")
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--max-prolong", type=_budget, default=None, dest="max_prolong")
    a.add_argument("--max-steps", type=_budget, default=None, dest="max_steps")
    a.add_argument("--format", choices=("text", "structured"), default="text")
    a.add_argument("--out")
    f = sub.add_parser("fixtures", help="list or run the bundled fixtures")
    f.add_argument("action", choices=("list", "run"))
    f.add_argument("--seed", type=int, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0,) else 0
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_fixtures(args)
    except (ParseError, DegreeMismatch, MissingJetStructure) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except NonLinearInUnknowns as err:
        print(f"nonlinear constraint: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # failures of the engine itself, never of the input; exit 1 is the
        # empty-locus verdict, so no traceback may escape
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
