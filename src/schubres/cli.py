"""Command-line front end: every verification as a subcommand with JSON output.

Each (command, action) pair maps to the one domain function that builds
its report; this module parses and validates arguments, dispatches and
prints.

Exit codes: 0 when all non-informational checks pass, 1 on a check
failure (the report is still emitted), 2 on invalid configuration
(including exceeded enumeration budgets and an ``--out`` path that
cannot be opened for writing), 3 on an internal error: any
other exception raised while a report is built, which is a fault in the
program rather than in its input.  A run that exits 2 or 3 leaves no
new ``--out`` file, and an existing one as it was.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from schubres import biflag, bottsamelson, building, embres, grassfib, permcomb, suite, wflag
from schubres.exactlin import DEFAULT_BUDGET, BudgetExceededError, check_field
from schubres.permcomb import Permutation


class ConfigError(ValueError):
    pass


def _validate(args: argparse.Namespace) -> None:
    """Check --perm, --n/--beta, --field and --out before any report is
    built, storing the permutation as ``args.w`` and the frame as
    ``args.cfg``.  --out is opened for appending, which leaves an existing
    file as it is; a file that this creates is removed again, so a run
    that writes no report leaves none."""
    what = "bad --field"
    try:
        if getattr(args, "field", None) is not None:
            check_field(args.field)
        if getattr(args, "perm", None) is not None:
            what = f"bad permutation {args.perm!r}"
            args.w = Permutation(tuple(int(x) for x in args.perm.split(",")))
        if getattr(args, "beta", None) is not None:
            what = f"bad multi-index {args.beta!r} for n={args.n}"
            beta = tuple(int(x) for x in args.beta.split(","))
            args.cfg = grassfib.make_frame(args.n, args.field, beta)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if args.out is not None:
        new = not os.path.exists(args.out)
        try:
            open(args.out, "a").close()
            if new:
                os.remove(args.out)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` makes a
    fresh namespace on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="schubres",
        description="Exact finite-field verification of Schubert-variety resolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, perm=False, frame=False, field=False, budget=False):
        if perm:
            p.add_argument("--perm", required=True, help="one-line notation, e.g. 2,3,1")
        if frame:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--beta", required=True, help="multi-index, e.g. 2,4")
        if field:
            p.add_argument("--field", type=int, default=2)
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--json", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--out", default=None, help="also write the JSON report here")

    common(sub.add_parser("rankmatrix"), perm=True)
    common(sub.add_parser("building"), perm=True)
    common(sub.add_parser("bubblesort"), perm=True)

    p = sub.add_parser("biflag")
    p.add_argument("action", choices=["enumerate", "verify"])
    p.add_argument("--variety", choices=["shat", "flw"], default="shat")
    common(p, perm=True, field=True, budget=True)

    p = sub.add_parser("bs")
    p.add_argument("action", choices=["enumerate", "iso"])
    common(p, perm=True, field=True, budget=True)

    p = sub.add_parser("grass")
    p.add_argument("action", choices=["verify-phi", "verify-phistar", "verify-transversal"])
    common(p, frame=True, field=True, budget=True)

    p = sub.add_parser("wflag")
    p.add_argument("action", choices=["enumerate", "lift", "verify"])
    common(p, frame=True, field=True, budget=True)

    p = sub.add_parser("embres")
    p.add_argument("action", choices=["verify"])
    common(p, frame=True, field=True, budget=True)

    common(sub.add_parser("suite"), budget=True)
    return parser


# the lambdas look the report functions up at call time, so a wrapper
# installed on the domain module (a tracer, a test double) is honoured
REPORTS = {
    ("rankmatrix", None): lambda a: permcomb.rank_matrix_report(a.w),
    ("building", None): lambda a: building.building_report(a.w),
    ("bubblesort", None): lambda a: permcomb.bubblesort_report(a.w),
    ("biflag", "enumerate"): lambda a: biflag.enumerate_report(
        a.w, a.variety, a.field, a.budget
    ),
    ("biflag", "verify"): lambda a: biflag.verify_flres(a.w, a.field, a.budget),
    ("bs", "enumerate"): lambda a: bottsamelson.enumerate_report(a.w, a.field, a.budget),
    ("bs", "iso"): lambda a: bottsamelson.bbs_iso(a.w, a.field, a.budget),
    ("grass", "verify-phi"): lambda a: grassfib.verify_phi(a.cfg, a.budget),
    ("grass", "verify-phistar"): lambda a: grassfib.verify_phi_star(a.cfg, a.budget),
    ("grass", "verify-transversal"): lambda a: grassfib.verify_transversal_identity(
        a.cfg, a.budget
    ),
    ("wflag", "enumerate"): lambda a: wflag.enumerate_report(a.cfg, a.budget),
    ("wflag", "lift"): lambda a: wflag.lift_report(a.cfg, a.budget),
    ("wflag", "verify"): lambda a: wflag.verify_chain_resolution(a.cfg, a.budget),
    ("embres", "verify"): lambda a: embres.verify_report(a.cfg, a.budget),
    ("suite", None): lambda a: suite.suite_report(a.budget),
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or an argument argparse refuses (2)
        return 0 if exc.code is None else exc.code
    try:
        _validate(args)
        report = REPORTS[args.command, getattr(args, "action", None)](args)
    except (ConfigError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # loaded only on this path: it adds to every run's memory

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    text = report.to_json()
    if args.json:
        print(text)
    else:
        print(f"{report.command}: {'PASS' if report.passed else 'FAIL'}")
        for c in report.checks:
            print(f"  {'ok' if c.passed else 'FAIL'} {c.name} {c.detail}".rstrip())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if report.passed else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
