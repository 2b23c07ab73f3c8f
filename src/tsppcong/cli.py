"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 check failure, 2 usage or
parse error, 3 proof failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tspp
from .documents import canonical_json, load_eta_spec, load_instance, report_to_doc
from .prover import ORACLE_MAX, PROVED, oracle_check, prove_tspp_congruence, regression_suite
from .series import INTEGERS, eta_quotient, residues_mod


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsppcong",
        description=(
            "Expand the shell-partition counting series and its eta-quotient "
            "relatives, and produce machine-checkable congruence certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="write coefficients, one 'n<TAB>value' per line")
    expand.add_argument(
        "--seq",
        required=True,
        choices=("f", "g", "gap", "eta"),
        help="f: shell partition counts; g: slice eta quotient; "
        "gap: slice variant (needs --alpha/--p); eta: quotient from --spec",
    )
    expand.add_argument("--order", type=int, required=True, help="highest exponent to write")
    expand.add_argument("--mod", type=int, help="reduce coefficients modulo this")
    expand.add_argument("--alpha", type=int, help="slice variant exponent parameter")
    expand.add_argument("--p", type=int, help="slice variant prime")
    expand.add_argument("--spec", help="JSON file {\"M\": level, \"r\": {divisor: exponent}}")
    expand.add_argument("--out", help="output path (default: stdout)")

    prove = sub.add_parser("prove", help="prove the claim in an instance file")
    prove.add_argument("--instance", required=True, help="instance JSON file")
    prove.add_argument("--out", required=True, help="where to write the certificate document")

    sub.add_parser("regress", help="run the full regression suite")
    return parser


def _expand_series(args):
    if args.seq != "gap" and (args.alpha is not None or args.p is not None):
        raise ValueError("--alpha and --p apply only to --seq gap")
    if args.seq != "eta" and args.spec is not None:
        raise ValueError("--spec applies only to --seq eta")
    ring = INTEGERS if args.mod is None else residues_mod(args.mod)
    if args.seq == "f":
        return tspp.tspp_series(args.order, ring)
    if args.seq == "g":
        return tspp.slice_series(args.order, ring)
    if args.seq == "gap":
        if args.alpha is None or args.p is None:
            raise ValueError("--seq gap needs --alpha and --p")
        return tspp.slice_variant_series(args.alpha, args.p, args.order, ring)
    if args.spec is None:
        raise ValueError("--seq eta needs --spec")
    return eta_quotient(load_eta_spec(args.spec), args.order, ring)


def _check_output(out: Path) -> None:
    """Refuse an output path that cannot be written, before any work is done."""
    if not out.parent.is_dir():
        raise FileNotFoundError(f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise IsADirectoryError(f"output path {out} is a directory")


def _cmd_expand(args) -> int:
    if args.out:
        _check_output(Path(args.out))
    series = _expand_series(args)
    lines = "".join(f"{n}\t{c}\n" for n, c in enumerate(series.coeffs))
    if args.out:
        Path(args.out).write_text(lines, encoding="utf-8")
    else:
        sys.stdout.write(lines)
    return 0


def _cmd_prove(args) -> int:
    out = Path(args.out)
    doc = load_instance(args.instance)
    _check_output(out)
    report = prove_tspp_congruence(doc.claim, doc.hints)
    oracle = oracle_check(doc.claim, ORACLE_MAX, residues_mod(doc.claim.modulus))
    out.write_text(canonical_json(report_to_doc(report, oracle)), encoding="utf-8")
    print(f"{doc.claim.describe()}: {report.verdict}")
    if report.verdict != PROVED:
        if report.detail:
            print(report.detail, file=sys.stderr)
        return 3
    if not oracle.passed:
        print(
            f"warning: oracle disagrees with the certificate: {oracle.detail}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_regress() -> int:
    suite = regression_suite()
    width = max(len(e.name) for e in suite.entries) + 2
    for entry in suite.entries:
        print(f"{entry.name:<{width}} {entry.status.upper():<5} {entry.detail}")
    print(f"{'overall':<{width}} {'PASS' if suite.passed else 'FAIL'}")
    return 0 if suite.passed else 1


def main(argv=None) -> int:
    """Run one command.  A file that cannot be read, parsed or written, and an
    input the package refuses, end here as one error line and exit 2."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "prove":
            return _cmd_prove(args)
        return _cmd_regress()
    except (OSError, ValueError) as exc:  # a DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
