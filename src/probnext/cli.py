"""Command line interface.

Exit codes: 0 for a positive verdict (SAT, valid, derivable, accepted,
holds), 1 for the corresponding negative verdict, 2 for malformed input,
a file that cannot be read or written included, 3 when an internal search
limit was exceeded or the input is nested too deeply to process, 4 for an
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import canonical, decide, models, proof
from .enumeration import enum_formula
from .prokhorov import IncompatibleSupports, load_measure, prokhorov
from .formula import IndexOutOfRange
from .parser import FormulaSyntaxError, parse, render


def _natural(text: str) -> int:
    """argparse type of indices and budgets."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a natural number: {text!r}")
    return int(text)


def _parse_formula(text: str):
    try:
        return parse(text)
    except (FormulaSyntaxError, IndexOutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(args, payload: dict, plain: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(plain)


def _cmd_sat(args) -> int:
    f = _parse_formula(args.formula)
    verdict = decide.sat(f)
    _emit(args, {"status": verdict.status}, verdict.status)
    return 0 if verdict.status == "SAT" else 1


def _cmd_valid(args) -> int:
    ok = decide.valid(_parse_formula(args.formula))
    _emit(args, {"valid": ok}, "valid" if ok else "not valid")
    return 0 if ok else 1


def _cmd_prove(args) -> int:
    hyps = [_parse_formula(h) for h in args.hyp]
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            text = fh.read()
        try:
            derivation = proof.parse_derivation(text, hyps if args.hyp else None)
        except (ValueError, FormulaSyntaxError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = proof.check_derivation(derivation)
        if result.accepted:
            _emit(args, {"accepted": True}, "derivation accepted")
            return 0
        payload = {
            "accepted": False,
            "step": result.step,
            "reason": result.reason,
        }
        _emit(args, payload, f"rejected at step {result.step}: {result.reason}")
        return 1
    f = _parse_formula(args.formula)
    ok = proof.derives(hyps, f)
    _emit(args, {"derivable": ok}, "derivable" if ok else "not derivable")
    return 0 if ok else 1


def _cmd_witness(args) -> int:
    f = _parse_formula(args.formula)
    found = decide.witness(f)
    if found is None:
        _emit(args, {"status": "UNSAT"}, "UNSAT")
        return 1
    model, root = found
    if args.out:
        models.save_model(model, args.out)
        _emit(args, {"status": "SAT", "root": root, "out": args.out},
              f"SAT at {root} (model written to {args.out})")
    else:
        payload = models.model_to_dict(model)
        payload["root"] = root
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_check(args) -> int:
    try:
        model = models.load_model(args.model)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load model: {exc}", file=sys.stderr)
        return 2
    problems = model.validate()
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2
    f = _parse_formula(args.formula)
    try:
        ok = model.check(args.world, f)
    except models.UnknownWorld:
        print(f"error: unknown world {args.world!r}", file=sys.stderr)
        return 2
    _emit(args, {"holds": ok}, "holds" if ok else "does not hold")
    return 0 if ok else 1


def _cmd_lindenbaum(args) -> int:
    w = canonical.lindenbaum(_parse_formula(args.seed), args.budget)
    data = canonical.prefix_to_dict(w)
    if args.out:
        canonical.save_prefix(w, args.out)
        _emit(args, {"out": args.out, "budget": w.budget},
              f"prefix written to {args.out}")
    else:
        print(json.dumps(data, indent=2))
    return 0


def _cmd_dist_dc(args) -> int:
    w1 = canonical.lindenbaum(_parse_formula(args.seed1), 0)
    w2 = canonical.lindenbaum(_parse_formula(args.seed2), 0)
    d = canonical.metric_dc(w1, w2, args.budget)
    kind = "exact" if d.exact else "upper bound"
    value = models.fraction_to_str(d.value)
    _emit(args, {"exact": d.exact, "value": value}, f"{kind}: {value}")
    return 0


def _cmd_dist_prokhorov(args) -> int:
    try:
        mu = load_measure(args.measure1)
        nu = load_measure(args.measure2)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load measure: {exc}", file=sys.stderr)
        return 2
    for m, name in ((mu, args.measure1), (nu, args.measure2)):
        problems = m.validate()
        if problems:
            for p in problems:
                print(f"error: {name}: {p}", file=sys.stderr)
            return 2
    try:
        d = prokhorov(mu, nu)
    except IncompatibleSupports as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    value = models.fraction_to_str(d)
    _emit(args, {"value": value}, value)
    return 0


def _cmd_enum(args) -> int:
    print(render(enum_formula(args.index)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="probnext",
        description="Exact decision tools for a probability logic with a "
        "next-time operator.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="decide satisfiability")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("valid", help="decide validity")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("prove", help="decide derivability, or check a derivation")
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--hyp", action="append", default=[], metavar="FORMULA")
    p.add_argument("--check", metavar="FILE", help="derivation file to check")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("witness", help="extract a satisfying model")
    p.add_argument("formula")
    p.add_argument("--out", metavar="FILE", help="write the model as JSON")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("check", help="model-check a formula at a world")
    p.add_argument("model", metavar="MODEL.json")
    p.add_argument("formula")
    p.add_argument("--world", default="w0")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lindenbaum", help="build a saturated-set prefix")
    p.add_argument("seed")
    p.add_argument("--budget", type=_natural, default=20)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_lindenbaum)

    p = sub.add_parser("dist", help="distances")
    dist_sub = p.add_subparsers(dest="metric", required=True)
    q = dist_sub.add_parser("dc", help="first-disagreement ultrametric")
    q.add_argument("seed1")
    q.add_argument("seed2")
    q.add_argument("--budget", type=_natural, default=20)
    q.set_defaults(func=_cmd_dist_dc)
    q = dist_sub.add_parser("prokhorov", help="exact Prokhorov distance")
    q.add_argument("measure1", metavar="MEASURE1.json")
    q.add_argument("measure2", metavar="MEASURE2.json")
    q.set_defaults(func=_cmd_dist_prokhorov)

    p = sub.add_parser("enum", help="print the i-th enumerated formula")
    p.add_argument("index", type=_natural)
    p.set_defaults(func=_cmd_enum)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # malformed arguments exit 2
        if args.command == "prove" and (args.check is None) == (args.formula is None):
            print("error: prove needs a formula or --check FILE, not both", file=sys.stderr)
            return 2
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except canonical.InconsistentSeed:
        print("error: seed is inconsistent", file=sys.stderr)
        return 2
    except (
        canonical.ExtensionLimitExceeded,
        canonical.NotFoundWithinBound,
        RecursionError,  # input nested deeper than the recursive traversals reach
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # Any other failure is a fault of the program, never a verdict.
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
