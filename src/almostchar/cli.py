"""Command line interface.

Every command prints one document to stdout, as compact JSON, and each
input has one spelling: a symbol is --S/--T, a family --Z1/--Z2, a box
the positionals A B.  Exit codes: 0 success (and verification passed),
1 a verification ran and did not pass, 2 invalid input (argparse's usage
error included), 3 a resource guard tripped (raise --max-rank /
--memo-budget to proceed).  Reports carry no clock: this module times
each check it runs and ends its document in "ms", the milliseconds the
check took, unless --no-timing is given, which makes the bytes identical
across runs.  Traces are evaluated in one thread; --workers is accepted
and has no effect.

Start-up loads only what the command runs: this module needs argparse,
json, time and config, and each handler imports the engine names it calls.
--help loads nothing more; symbol, family list / pairing-matrix and
enumerate commands load symbols (with shapes and halflaurent); mn eval
and verify orthogonality load hecke (with shapes and halflaurent) but
neither symbols nor almost; flambda, fab, the other verify commands,
diagnose and family involution-check load almost, and with it the whole
engine.

The parser is built from one table, _COMMANDS: a row per command,
(group, action or None, handler, flags), in the order --help lists them.
A flag that several commands share is one (name, keywords) spec, changed
per row through _opt where a command gives it other help or keywords; a
new command is a new row.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .config import Config, ResourceGuardError

__all__ = ["main"]


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} is not valid JSON: {e}") from None


def _parse_row(text: str | None, flag: str) -> list:
    """The integers of a comma separated row.  Every symbol row and family
    key row is a set, so a repeated entry is a typo, not a merge."""
    text = (text or "").strip()
    try:
        row = [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"{flag} must be a comma separated row of integers (e.g. 0,2), "
                         f"got {text}") from None
    if len(set(row)) != len(row):
        raise ValueError(f"{flag} repeats an entry: {','.join(map(str, row))}")
    return row


def _parse_symbol(args):
    from .symbols import shift_canonicalize
    return shift_canonicalize(_parse_row(args.S, "--S"), _parse_row(args.T, "--T"))


def _parse_bipartition(text: str):
    from .shapes import BiPartition
    return BiPartition.from_json_obj(_json_arg(text, "--lambda"), "--lambda")


def _parse_cycles(text: str) -> tuple:
    obj = _json_arg(text, "--cycles")
    if not (isinstance(obj, list) and all(type(x) is int for x in obj)):
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


def _cmd_family_pairing_matrix(args, config):
    from fractions import Fraction
    from .halflaurent import frac_str
    from .symbols import _family, _family_key, _label_symbol, fourier_sign, rank_defect
    z1, z2 = _parse_row(args.Z1, "--Z1"), _parse_row(args.Z2, "--Z2")
    key = _family_key(args.kind, z1, z2)  # a bad key exits 2 before the rank guard
    config.check_rank(rank_defect(_label_symbol(*key, ()))[0])
    decs = _family(args.kind, *key)
    doc = {
        "Z1": z1,
        "Z2": z2,
        "members": [_label_symbol(d.Z1, d.Z2, d.M).to_json_obj() for d in decs],
        "matrix": [[frac_str(Fraction(fourier_sign(a, b), 2 ** a.f)) for b in decs] for a in decs],
    }
    return 0, doc


def _report_doc(args, check, *params):
    """check(*params) as a document, ending in the call's "ms" unless --no-timing."""
    t0 = time.monotonic()
    report = check(*params)
    ms = int((time.monotonic() - t0) * 1000)
    doc = report.to_json_obj()
    if not args.no_timing:
        doc["ms"] = ms
    return (0 if report.passed else 1), doc


def _cmd_family_involution_check(args, config):
    from . import almost
    return _report_doc(args, almost.involution_check, args.n, args.kind, config)


def _cmd_mn_eval(args, config):
    from .hecke import br_from_cycles, mn_trace
    lam = _parse_bipartition(getattr(args, "lambda"))
    br = br_from_cycles(args.kind, _parse_cycles(args.cycles))
    value = mn_trace(args.kind, lam, br, config=config)
    return 0, value.to_json_obj()


def _value_doc(fields, cycles, value):
    from .halflaurent import frac_str
    return 0, {**fields, "cycles": list(cycles), "value": value.to_json_obj(),
               "value_at_1": frac_str(value.eval_one())}


def _cmd_flambda(args, config):
    from . import almost
    s = _parse_symbol(args)
    cycles = _parse_cycles(args.cycles)
    value = almost.f_lambda(args.kind, s, cycles, config)
    return _value_doc({"kind": args.kind, "symbol": s.to_json_obj()}, cycles, value)


def _cmd_fab(args, config):
    from . import almost
    cycles = _parse_cycles(args.cycles)
    value = almost.f_ab(args.a, args.b, cycles, config)
    return _value_doc({"a": args.a, "b": args.b}, cycles, value)


def _cmd_verify_nonvanishing(kind):
    def handler(args, config):
        from . import almost
        return _report_doc(args, almost.verify_nonvanishing, kind, args.d, config)

    return handler


def _cmd_verify_recursion(args, config):
    from . import almost
    cycles = _parse_cycles(args.cycles)
    return _report_doc(args, almost.recursion_check, args.a, args.b, cycles, config)


def _cmd_verify_orthogonality(args, config):
    from .hecke import orthogonality_check
    return _report_doc(args, orthogonality_check, args.n, config)


def _cmd_verify_m2(args, config):
    from . import almost
    kinds = ("B", "D") if args.kind == "both" else (args.kind,)
    codes, docs = zip(*(_report_doc(args, almost.m2_check, args.n, k, config) for k in kinds))
    return max(codes), (docs[0] if len(docs) == 1 else list(docs))


def _cmd_enumerate_pab(args, config):
    from .symbols import _box_sides, enumerate_P_ab
    _box_sides(args.a, args.b)  # before the guard: two negative sides have a positive product
    config.check_rank(args.a * args.b)
    pairs = enumerate_P_ab(args.a, args.b, unordered=args.unordered)
    return 0, [bp.to_json_obj() for bp in pairs]


def _cmd_diagnose_d_swap(args, config):
    from . import almost
    return _report_doc(args, almost.d_swap_diagnostic, args.n, config)


# ---------------------------------------------------------------------------
# parser assembly.  argparse prints groups and flags in the order they are
# added, so the rows and flags of _COMMANDS are in --help order.
# ---------------------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    limits = Config()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-rank", type=int, default=limits.max_rank, metavar="N")
    common.add_argument("--workers", type=int, default=0, metavar="W",
                        help="accepted and ignored: traces run in one thread")
    common.add_argument("--memo-budget", type=int, default=limits.memo_budget, metavar="E")
    common.add_argument("--no-timing", action="store_true",
                        help="omit elapsed-time fields (for byte-stable output)")
    return common


def _opt(flag, **changes):  # flag with some of its keywords changed
    return flag[0], {**flag[1], **changes}


_INT = {"type": int, "required": True}
_N, _A, _B, _D = ("--n", _INT), ("--a", _INT), ("--b", _INT), ("--d", _INT)
_KIND = "--kind", {"choices": ("B", "D"), "required": True}
_CYCLES = "--cycles", {"required": True}
_S, _T = ("--S", {}), ("--T", {})

_COMMANDS = (
    ("symbol", "info", _cmd_symbol_info,
     (_opt(_S, help="comma separated row, e.g. 0,2"), _T, _opt(_KIND, required=False))),
    ("family", "list", _cmd_family_list, (_KIND, _N)),
    ("family", "pairing-matrix", _cmd_family_pairing_matrix,
     (_KIND, ("--Z1", {"required": True}), ("--Z2", {}))),
    ("family", "involution-check", _cmd_family_involution_check,
     (_KIND, _opt(_N, help="check every rank up to n"))),
    ("mn", "eval", _cmd_mn_eval,
     (_KIND, ("--lambda", {"required": True, "help": "JSON [[alpha],[beta]]"}),
      _opt(_CYCLES, help="JSON signed list, e.g. [-2]"))),
    ("flambda", None, _cmd_flambda, (_KIND, _S, _T, _CYCLES)),
    ("fab", None, _cmd_fab, (_A, _B, _CYCLES)),
    ("verify", "prop713", _cmd_verify_nonvanishing("B"), (_D,)),
    ("verify", "prop714", _cmd_verify_nonvanishing("D"), (_D,)),
    ("verify", "recursion", _cmd_verify_recursion, (_A, _B, _CYCLES)),
    ("verify", "orthogonality", _cmd_verify_orthogonality, (_N,)),
    ("verify", "m2", _cmd_verify_m2,
     (_N, _opt(_KIND, choices=("B", "D", "both"), default="both", required=False))),
    ("enumerate", "pab", _cmd_enumerate_pab,
     (("a", {"type": int, "metavar": "A"}), ("b", {"type": int, "metavar": "B"}),
      ("--unordered", {"action": "store_true"}))),
    ("diagnose", "d-swap", _cmd_diagnose_d_swap, (_N,)),
)


def build_parser() -> argparse.ArgumentParser:
    parents = [_common_flags()]
    parser = argparse.ArgumentParser(
        prog="almostchar",
        description="Symbols, families, Hecke traces and verification reports.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {}  # group -> its subcommands, made at the group's first row
    for group, action, handler, flags in _COMMANDS:
        if action is not None and group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(dest="action", required=True)
        where = groups if action is None else actions[group]
        command = where.add_parser(action or group, parents=parents)
        for name, options in flags:
            command.add_argument(name, **options)
        command.set_defaults(func=handler)
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
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
