"""Command-line front end.

Subcommands: froot | tau | fjump | hexpand | sset | jumps | bfun | graphgen.
Exit codes: 0 success, 1 user error (bad flags, parse or validation failure),
2 resource-limit failure, 3 internal error (a failed internal consistency
check, which signals a bug).  All exact rationals cross the boundary as
{"num": ..., "den": ...} pairs; floating point is rejected on input.
JSON output is byte-identical across runs for identical inputs.
run(argv) may be called repeatedly in one process: it builds its parser, the
JSON encoder and the variable pattern once.  A module result is printed as
`str` of each element of its reduced basis, so every entry goes through the
one term formatter, `Poly.__str__`.  The --limit-pairs cap is entered through `modgb.pair_limit`, a context-manager
class that sets the cap for the call, restores it on exit and refuses a cap
below 1 (exit 1).
A call that names a subcommand and gives only its flags, each required one,
and values that convert and do not start with '-' is read by a table taken
from the subcommand's argparse actions; argparse parses any other call and
writes every help, usage and error text.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import FsingError, InternalConsistencyError, ResourceLimitExceeded
from .frobenius import frobenius_root
from .modgb import DEFAULT_PAIR_LIMIT, Submodule, VectorR, pair_limit
from .polyring import MAX_VARS, CharConfig, Ring, poly_parse

_ALPHA_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")
_VAR_RE = re.compile(r"x([0-9]+)")
# writes the bytes of json.dumps(obj, sort_keys=True); `encode` keeps no
# state between calls
_JSON = json.JSONEncoder(sort_keys=True)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this artifact reserves 2
    for resource limits, so user errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _frac_arg(text: str) -> Fraction:
    m = _ALPHA_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected an exact rational 'num' or 'num/den', got {text!r}"
        )
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise argparse.ArgumentTypeError("denominator must be nonzero")
    return Fraction(num, den)


def _add_common_flags(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--limit-pairs", type=int, default=DEFAULT_PAIR_LIMIT,
                     help="cap on the Groebner S-pair queue")


def _add_char_flags(sub):
    sub.add_argument("-p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--gamma", type=int, default=1, help="q = p^gamma (default 1)")
    _add_common_flags(sub)


def _add_input_flag(sub):
    sub.add_argument("--input", required=True, help="problem JSON file")
    _add_common_flags(sub)


def _infer_num_vars(texts: List[str], given: Optional[int]) -> int:
    if given is None:
        try:
            indices = [int(m) for t in texts for m in _VAR_RE.findall(t)]
        except ValueError:  # an index past int's digit limit
            raise FsingError("a variable index is too long to read") from None
        given = max(indices, default=-1) + 1
    if given > MAX_VARS:
        raise FsingError(f"{given} ring variables exceed the cap of {MAX_VARS}")
    return given


def _parse_gens(text: str, ring: Ring) -> List[VectorR]:
    vectors = []
    for chunk in text.split(";"):
        entries = [poly_parse(cell, ring) for cell in chunk.split(",")]
        vectors.append(VectorR(entries))
    ranks = {v.rank for v in vectors}
    if len(ranks) > 1:
        raise FsingError("generators have inconsistent ranks")
    return vectors


def _frac_obj(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _emit(obj: dict, as_json: bool, text_lines: List[str]) -> None:
    if as_json:
        print(_JSON.encode(obj))
    else:
        for line in text_lines:
            print(line)


def _submodule_report(N: Submodule, as_json: bool) -> None:
    gens = [str(v) for v in N.reduced_basis()]
    _emit({"generators": gens}, as_json, gens or ["0"])


def _sset_obj(report) -> list:
    """The jumps m/q^{e+1} as {"num", "den"} pairs, reduced by one gcd each."""
    return [{"num": num, "den": den} for num, den in (g.reduced() for g in report.jumps)]


def _chain_obj(c) -> dict:
    return {
        "start_e": c.start_e,
        "witnesses": [_frac_obj(w) for w in c.witnesses],
        "limit": _frac_obj(c.limit) if c.limit is not None else None,
        "preperiod": c.preperiod,
        "period": c.period,
        "reached_emax": c.reached_emax,
        "resolved": c.resolved,
    }


def _cmd_froot(args) -> int:
    ring = Ring(args.p, _infer_num_vars([args.gens], args.num_vars))
    cfg = CharConfig(args.p, args.gamma)
    gens = _parse_gens(args.gens, ring)
    N = Submodule(gens[0].rank, gens, ring)
    _submodule_report(frobenius_root(N, args.e, cfg), args.json)
    return 0


def _cmd_tau(args) -> int:
    import fsing.testideal as testideal

    ring = Ring(args.p, _infer_num_vars([args.f], args.num_vars))
    cfg = CharConfig(args.p, args.gamma)
    f = poly_parse(args.f, ring)
    if args.e is not None:
        ideal = testideal.tau_f(f, args.alpha, args.e, cfg)
    else:
        ideal = testideal.tau_f_stable(f, args.alpha, cfg)
    _submodule_report(ideal, args.json)
    return 0


def _cmd_fjump(args) -> int:
    import fsing.testideal as testideal

    ring = Ring(args.p, _infer_num_vars([args.f], args.num_vars))
    cfg = CharConfig(args.p, args.gamma)
    f = poly_parse(args.f, ring)
    exps = testideal.f_jumping_exponents(f, cfg, args.e_max)
    _emit(
        {"exponents": [_frac_obj(x) for x in exps]},
        args.json,
        [str(x) for x in exps],
    )
    return 0


def _cmd_hexpand(args) -> int:
    import fsing.listmod as listmod

    problem, cfg = listmod.load_problem_file(args.input)
    fam = listmod.h_expand(problem, args.e, cfg)
    table = {
        str(n): [[str(entry) for entry in row] for row in mat]
        for n, mat in sorted(fam.table.items())
    }
    lines = [f"e = {fam.e}, tau bound = {fam.tau_bound}"]
    for n, mat in sorted(fam.table.items()):
        lines.append(f"H^{fam.e}_{n}:")
        for row in mat:
            lines.append("  [" + ", ".join(str(x) for x in row) + "]")
    _emit(
        {"e": fam.e, "tau_bound": fam.tau_bound, "table": table},
        args.json,
        lines,
    )
    return 0


def _cmd_sset(args) -> int:
    import fsing.listmod as listmod

    problem, cfg = listmod.load_problem_file(args.input)
    report = listmod.s_set(problem, args.e, cfg)
    _emit(
        {"e": args.e, "s_set": _sset_obj(report)},
        args.json,
        [str(g) for g in report.jumps] or ["(empty)"],
    )
    return 0


def _cmd_jumps(args) -> int:
    import fsing.listmod as listmod

    problem, cfg = listmod.load_problem_file(args.input)
    report = listmod.estimate_jumping_numbers(problem, cfg, args.e_max)
    obj = {
        "s_sets": {str(e): _sset_obj(r) for e, r in report.s_sets.items()},
        "chains": [_chain_obj(c) for c in report.chains],
        "estimates": [_frac_obj(x) for x in report.estimates],
    }
    lines = [f"estimates: {', '.join(str(x) for x in report.estimates) or '(none)'}"]
    for c in report.chains:
        status = "resolved" if c.resolved else "unresolved"
        lines.append(
            f"chain from e={c.start_e}: "
            + " -> ".join(str(w) for w in c.witnesses)
            + f" [{status}"
            + (f", limit {c.limit}]" if c.limit is not None else "]")
        )
    _emit(obj, args.json, lines)
    return 0


def _cmd_bfun(args) -> int:
    import fsing.bfun as bfun
    import fsing.listmod as listmod

    problem, cfg = listmod.load_problem_file(args.input)
    result = bfun.b_function(problem, cfg, args.e_max)
    obj = {
        "roots": [_frac_obj(r) for r in result.roots],
        "shift_N": result.shift_N,
        "unresolved": [_chain_obj(c) for c in result.unresolved],
        "s_sets": {str(e): _sset_obj(r) for e, r in result.s_sets.items()},
    }
    lines = [
        "roots: " + (", ".join(str(r) for r in result.roots) or "(none)"),
        f"shift N: {result.shift_N}",
    ]
    lines.extend(result.diagnostics)
    _emit(obj, args.json, lines)
    return 0


def _cmd_graphgen(args) -> int:
    import fsing.bfun as bfun

    num_vars = _infer_num_vars([args.f], args.num_vars)
    ring = Ring(args.p, num_vars)
    cfg = CharConfig(args.p, args.gamma)
    f = poly_parse(args.f, ring)
    A = bfun.graph_generator(f, cfg)
    obj = {
        "p": args.p,
        "gamma": args.gamma,
        "num_vars": num_vars,
        "rank": 1,
        "matrix": [[str(entry) for entry in row] for row in A.mat],
    }
    _emit(obj, True, [])
    return 0


def _flag_table(sub: _Parser) -> tuple:
    """(option string -> action of `sub`'s single-value and store-const flags,
    the defaults its parse starts from, its required actions)."""
    flags = {
        opt: action for action in sub._actions
        if isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))
        and action.nargs in (None, 0) and action.choices is None
        for opt in action.option_strings
    }
    defaults = dict(sub._defaults)
    defaults.update(
        (a.dest, a.default) for a in sub._actions if argparse.SUPPRESS not in (a.dest, a.default)
    )
    return flags, defaults, [a for a in sub._actions if a.required]


def _read(table: tuple, argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse makes of argv, or None where argv is not one
    the reader takes (see the module docstring)."""
    flags, defaults, required = table
    seen = {}
    tokens = iter(argv)
    try:
        for opt in tokens:
            action = flags[opt]
            if action.nargs == 0:
                seen[action] = action.const
                continue
            value = next(tokens)
            if value[:1] == "-":
                return None
            seen[action] = value if action.type is None else action.type(value)
    except (KeyError, StopIteration, TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    if any(action not in seen for action in required):
        return None
    args = argparse.Namespace(**defaults)
    for action, value in seen.items():
        setattr(args, action.dest, value)
    return args


@functools.cache
def _build_parser() -> Tuple[_Parser, Dict[str, tuple]]:
    parser = _Parser(prog="fsing", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    froot = subs.add_parser("froot", help="Frobenius root of a submodule")
    _add_char_flags(froot)
    froot.add_argument("--gens", required=True,
                       help="generators: vectors ';'-separated, entries ','-separated")
    froot.add_argument("--num-vars", type=int, default=None)
    froot.add_argument("--e", type=int, required=True)
    froot.set_defaults(func=_cmd_froot)

    tau = subs.add_parser("tau", help="test ideal of f^alpha")
    _add_char_flags(tau)
    tau.add_argument("--f", required=True)
    tau.add_argument("--alpha", type=_frac_arg, required=True,
                     help="exact rational, e.g. 1/3")
    tau.add_argument("--e", type=int, default=None,
                     help="chain level; omitted means the stable value")
    tau.add_argument("--num-vars", type=int, default=None)
    tau.set_defaults(func=_cmd_tau)

    fjump = subs.add_parser("fjump", help="F-jumping exponents in (0, 1]")
    _add_char_flags(fjump)
    fjump.add_argument("--f", required=True)
    fjump.add_argument("--e-max", type=int, required=True)
    fjump.add_argument("--num-vars", type=int, default=None)
    fjump.set_defaults(func=_cmd_fjump)

    hx = subs.add_parser("hexpand", help="H^e_n(tau) expansion of A(t)^{e-1}")
    _add_input_flag(hx)
    hx.add_argument("--e", type=int, required=True)
    hx.set_defaults(func=_cmd_hexpand)

    ss = subs.add_parser("sset", help="jump set S_e of a matrix list")
    _add_input_flag(ss)
    ss.add_argument("--e", type=int, required=True)
    ss.set_defaults(func=_cmd_sset)

    jp = subs.add_parser("jumps", help="estimate exact jumping numbers")
    _add_input_flag(jp)
    jp.add_argument("--e-max", type=int, required=True)
    jp.set_defaults(func=_cmd_jumps)

    bf = subs.add_parser("bfun", help="b-function roots")
    _add_input_flag(bf)
    bf.add_argument("--e-max", type=int, default=5)
    bf.set_defaults(func=_cmd_bfun)

    gg = subs.add_parser("graphgen", help="graph generator (f - t)^{q-1} as problem JSON")
    _add_char_flags(gg)
    gg.add_argument("--f", required=True)
    gg.add_argument("--num-vars", type=int, default=None)
    gg.set_defaults(func=_cmd_graphgen)

    return parser, {name: _flag_table(sub) for name, sub in subs.choices.items()}


def _parse(argv: List[str]) -> argparse.Namespace:
    """argv read by the flag reader of the subcommand argv[0] names, or
    parsed by the full parser, which prints every message."""
    parser, tables = _build_parser()
    table = tables.get(argv[0]) if argv else None
    args = _read(table, argv[1:]) if table else None
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def run(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # --limit-pairs caps this call only
        with pair_limit(args.limit_pairs):
            return args.func(args)
    except ResourceLimitExceeded as exc:
        print(f"fsing: resource limit: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"fsing: internal error: {exc}", file=sys.stderr)
        return 3
    except (FsingError, ValueError) as exc:
        print(f"fsing: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
