"""Command line interface.

Every command prints one document to stdout: compact JSON by default,
or csv / plain renderings of the same data.  Exit codes: 0 success (and
verification passed), 1 a verification ran and did not pass, 2 invalid
input, 3 a resource guard tripped (raise --max-rank / --memo-budget to
proceed).  With a fixed format and --no-timing the bytes are identical
across runs.  Traces are evaluated in one thread; --workers is accepted
and has no effect.

Start-up loads only what the command runs: this module needs argparse,
json and config, and each handler imports the engine names it calls.
--help loads nothing more; symbol, family list / pairing-matrix and
enumerate commands load symbols (with shapes and halflaurent); mn eval
loads hecke without symbols; flambda, fab, verify, diagnose and family
involution-check load almost, and with it the whole engine.  csv loads
only for --format csv.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import Config, ResourceGuardError

__all__ = ["main"]


def _common_flags() -> argparse.ArgumentParser:
    limits = Config()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    common.add_argument("--max-rank", type=int, default=limits.max_rank, metavar="N")
    common.add_argument("--workers", type=int, default=0, metavar="W",
                        help="accepted and ignored: traces run in one thread")
    common.add_argument("--memo-budget", type=int, default=limits.memo_budget, metavar="E")
    common.add_argument("--no-timing", action="store_true",
                        help="omit elapsed-time fields (for byte-stable output)")
    return common


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} is not valid JSON: {e}") from None


def _parse_row(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _parse_symbol(args):
    from .symbols import shift_canonicalize
    if args.symbol is not None:
        if args.S is not None or args.T is not None:
            raise ValueError("give the symbol either as --symbol or as --S/--T, not both")
        obj = _json_arg(args.symbol, "--symbol")
        return shift_canonicalize(obj["S"], obj["T"])
    return shift_canonicalize(_parse_row(args.S or ""), _parse_row(args.T or ""))


def _parse_bipartition(text: str):
    from .shapes import BiPartition
    obj = _json_arg(text, "--lambda")
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ValueError("--lambda must be a JSON pair [[...],[...]]")
    return BiPartition.from_json_obj(obj)


def _parse_cycles(text: str) -> tuple:
    obj = _json_arg(text, "--cycles")
    if not isinstance(obj, list) or any(
        isinstance(c, bool) or not isinstance(c, int) for c in obj
    ):
        raise ValueError("--cycles must be a JSON list of nonzero integers")
    return tuple(obj)


# ---------------------------------------------------------------------------
# command handlers: return (exit_code, document)
# ---------------------------------------------------------------------------


def _cmd_symbol_info(args, config):
    from .symbols import family_decompose, is_degenerate, is_special, rank_defect
    s = _parse_symbol(args)
    rank, defect = rank_defect(s)
    doc = {
        "symbol": s.to_json_obj(),
        "rank": rank,
        "defect": defect,
        "special": is_special(s),
        "degenerate": is_degenerate(s),
    }
    if args.kind:
        dec = family_decompose(s, args.kind)
        doc["family"] = {
            "kind": dec.kind,
            "Z1": list(dec.Z1),
            "Z2": list(dec.Z2),
            "M": list(dec.M),
            "M0": list(dec.M0),
            "d1": dec.d1,
            "f": dec.f,
        }
    return 0, doc


def _cmd_family_list(args, config):
    from .symbols import enumerate_symbols
    config.check_rank(args.n)
    fams = enumerate_symbols(args.n, args.kind)
    return 0, [fam.to_json_obj() for fam in fams]


def _family_key(args):
    if args.symbol is not None or args.S is not None or args.T is not None:
        if args.Z1 is not None or args.Z2 is not None:
            raise ValueError("give the family either as a symbol or as --Z1/--Z2, not both")
        from .symbols import family_decompose
        dec = family_decompose(_parse_symbol(args), args.kind)
        return dec.Z1, dec.Z2
    if args.Z1 is None:
        raise ValueError("give either --symbol, --S/--T or --Z1/--Z2")
    rows = _parse_row(args.Z1), _parse_row(args.Z2 or "")
    for flag, row in zip(("--Z1", "--Z2"), rows):
        if len(set(row)) != len(row):
            raise ValueError(f"{flag} repeats an entry: {','.join(map(str, row))}")
        if any(x < 0 for x in row):
            raise ValueError(f"{flag} has a negative entry: {','.join(map(str, row))}")
    return tuple(rows[0]), tuple(rows[1])


def _cmd_family_pairing_matrix(args, config):
    from .halflaurent import frac_str
    from .symbols import family_members, pairing, rank_defect, symbol_from_label
    z1, z2 = _family_key(args)
    config.check_rank(rank_defect(symbol_from_label(z1, z2, ()))[0])
    members = family_members(args.kind, z1, z2)
    matrix = [
        [frac_str(pairing(a, b, args.kind)) for b in members]
        for a in members
    ]
    doc = {
        "Z1": list(z1),
        "Z2": list(z2),
        "members": [m.to_json_obj() for m in members],
        "matrix": matrix,
    }
    return 0, doc


def _report_doc(args, report):
    return (0 if report.passed else 1), report.to_json_obj(include_timing=not args.no_timing)


def _cmd_family_involution_check(args, config):
    from . import almost
    return _report_doc(args, almost.involution_check(args.n, args.kind, config))


def _cmd_mn_eval(args, config):
    from .hecke import br_from_cycles, mn_trace
    lam = _parse_bipartition(getattr(args, "lambda"))
    br = br_from_cycles(args.kind, _parse_cycles(args.cycles))
    value = mn_trace(args.kind, lam, br, config=config)
    return 0, value.to_json_obj()


def _cmd_flambda(args, config):
    from . import almost
    from .halflaurent import frac_str
    s = _parse_symbol(args)
    cycles = _parse_cycles(args.cycles)
    value = almost.f_lambda(args.kind, s, cycles, config)
    doc = {
        "kind": args.kind,
        "symbol": s.to_json_obj(),
        "cycles": list(cycles),
        "value": value.to_json_obj(),
        "value_at_1": frac_str(value.eval_one()),
    }
    return 0, doc


def _cmd_fab(args, config):
    from . import almost
    from .halflaurent import frac_str
    cycles = _parse_cycles(args.cycles)
    value = almost.f_ab(args.a, args.b, cycles, config)
    doc = {
        "a": args.a,
        "b": args.b,
        "cycles": list(cycles),
        "value": value.to_json_obj(),
        "value_at_1": frac_str(value.eval_one()),
    }
    return 0, doc


def _cmd_verify_nonvanishing(kind):
    def handler(args, config):
        from . import almost
        return _report_doc(args, almost.verify_nonvanishing(kind, args.d, config))

    return handler


def _cmd_verify_recursion(args, config):
    from . import almost
    report = almost.recursion_check(args.a, args.b, _parse_cycles(args.cycles), config)
    return _report_doc(args, report)


def _cmd_verify_orthogonality(args, config):
    from . import almost
    return _report_doc(args, almost.orthogonality_check(args.n, config))


def _cmd_verify_m2(args, config):
    from . import almost
    kinds = ("B", "D") if args.kind == "both" else (args.kind,)
    reports = [almost.m2_check(args.n, k, config) for k in kinds]
    code = 0 if all(r.passed for r in reports) else 1
    docs = [r.to_json_obj(include_timing=not args.no_timing) for r in reports]
    return code, (docs[0] if len(docs) == 1 else docs)


def _cmd_enumerate_pab(args, config):
    from .symbols import enumerate_P_ab
    if None not in (args.a, args.pos_a) or None not in (args.b, args.pos_b):
        raise ValueError("give each box side once, as a positional or as a flag")
    a = args.a if args.a is not None else args.pos_a
    b = args.b if args.b is not None else args.pos_b
    if a is None or b is None:
        raise ValueError("give the box as positionals `pab A B` or flags --a/--b")
    if a < 0 or b < 0:
        raise ValueError("box dimensions must be nonnegative")
    config.check_rank(a * b)
    pairs = enumerate_P_ab(a, b, unordered=args.unordered)
    return 0, [bp.to_json_obj() for bp in pairs]


def _cmd_diagnose_d_swap(args, config):
    from . import almost
    return _report_doc(args, almost.d_swap_diagnostic(args.n, config))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(doc, fmt: str) -> str:
    if fmt == "json":
        return _compact(doc) + "\n"
    if isinstance(doc, list):
        rows = [["index", "value"]] + [[str(i), _compact(x)] for i, x in enumerate(doc)]
    elif isinstance(doc, dict):
        rows = [["key", "value"]] + [[k, _compact(v)] for k, v in doc.items()]
    else:
        rows = [["value"], [_compact(doc)]]
    if fmt == "csv":
        import csv  # loaded only for --format csv
        import io
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    width = max(len(r[0]) for r in rows[1:]) if len(rows) > 1 else 0
    lines = [f"{r[0].ljust(width)}  {r[1]}" if len(r) > 1 else r[0] for r in rows[1:]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="almostchar",
        description="Symbols, families, Hecke traces and verification reports.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    symbol = groups.add_parser("symbol").add_subparsers(dest="action", required=True)
    info = symbol.add_parser("info", parents=[common])
    info.add_argument("--S", default=None, help="comma separated row, e.g. 0,2")
    info.add_argument("--T", default=None)
    info.add_argument("--symbol", default=None, help='JSON {"S":[...],"T":[...]}')
    info.add_argument("--kind", choices=("B", "D"), default=None)
    info.set_defaults(func=_cmd_symbol_info)

    family = groups.add_parser("family").add_subparsers(dest="action", required=True)
    flist = family.add_parser("list", parents=[common])
    flist.add_argument("--kind", choices=("B", "D"), required=True)
    flist.add_argument("--n", type=int, required=True)
    flist.set_defaults(func=_cmd_family_list)
    fmat = family.add_parser("pairing-matrix", parents=[common])
    fmat.add_argument("--kind", choices=("B", "D"), required=True)
    fmat.add_argument("--symbol", default=None)
    fmat.add_argument("--S", default=None)
    fmat.add_argument("--T", default=None)
    fmat.add_argument("--Z1", default=None)
    fmat.add_argument("--Z2", default=None)
    fmat.set_defaults(func=_cmd_family_pairing_matrix)
    finv = family.add_parser("involution-check", parents=[common])
    finv.add_argument("--kind", choices=("B", "D"), required=True)
    finv.add_argument("--n", type=int, required=True, help="check every rank up to n")
    finv.set_defaults(func=_cmd_family_involution_check)

    mn = groups.add_parser("mn").add_subparsers(dest="action", required=True)
    meval = mn.add_parser("eval", parents=[common])
    meval.add_argument("--kind", choices=("B", "D"), required=True)
    meval.add_argument("--lambda", required=True, help="JSON [[alpha],[beta]]")
    meval.add_argument("--cycles", required=True, help="JSON signed list, e.g. [-2]")
    meval.set_defaults(func=_cmd_mn_eval)

    fl = groups.add_parser("flambda", parents=[common])
    fl.add_argument("--kind", choices=("B", "D"), required=True)
    fl.add_argument("--symbol", default=None)
    fl.add_argument("--S", default=None)
    fl.add_argument("--T", default=None)
    fl.add_argument("--cycles", required=True)
    fl.set_defaults(func=_cmd_flambda)

    fab = groups.add_parser("fab", parents=[common])
    fab.add_argument("--a", type=int, required=True)
    fab.add_argument("--b", type=int, required=True)
    fab.add_argument("--cycles", required=True)
    fab.set_defaults(func=_cmd_fab)

    verify = groups.add_parser("verify").add_subparsers(dest="action", required=True)
    v713 = verify.add_parser("prop713", parents=[common])
    v713.add_argument("--d", type=int, required=True)
    v713.set_defaults(func=_cmd_verify_nonvanishing("B"))
    v714 = verify.add_parser("prop714", parents=[common])
    v714.add_argument("--d", type=int, required=True)
    v714.set_defaults(func=_cmd_verify_nonvanishing("D"))
    vrec = verify.add_parser("recursion", parents=[common])
    vrec.add_argument("--a", type=int, required=True)
    vrec.add_argument("--b", type=int, required=True)
    vrec.add_argument("--cycles", required=True)
    vrec.set_defaults(func=_cmd_verify_recursion)
    vorth = verify.add_parser("orthogonality", parents=[common])
    vorth.add_argument("--n", type=int, required=True)
    vorth.set_defaults(func=_cmd_verify_orthogonality)
    vm2 = verify.add_parser("m2", parents=[common])
    vm2.add_argument("--n", type=int, required=True)
    vm2.add_argument("--kind", choices=("B", "D", "both"), default="both")
    vm2.set_defaults(func=_cmd_verify_m2)

    enum = groups.add_parser("enumerate").add_subparsers(dest="action", required=True)
    pab = enum.add_parser("pab", parents=[common])
    pab.add_argument("pos_a", nargs="?", type=int, default=None, metavar="A")
    pab.add_argument("pos_b", nargs="?", type=int, default=None, metavar="B")
    pab.add_argument("--a", type=int, default=None)
    pab.add_argument("--b", type=int, default=None)
    pab.add_argument("--unordered", action="store_true")
    pab.set_defaults(func=_cmd_enumerate_pab)

    diagnose = groups.add_parser("diagnose").add_subparsers(dest="action", required=True)
    dswap = diagnose.add_parser("d-swap", parents=[common])
    dswap.add_argument("--n", type=int, required=True)
    dswap.set_defaults(func=_cmd_diagnose_d_swap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 0:
            raise ValueError("--workers must be >= 0")
        config = Config(max_rank=args.max_rank, memo_budget=args.memo_budget)
        code, doc = args.func(args, config)
    except ResourceGuardError as e:
        print(f"almostchar: resource guard: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError) as e:
        print(f"almostchar: invalid input: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(_emit(doc, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
