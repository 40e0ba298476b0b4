"""Command-line front end.

Every subcommand prints machine-readable output (json, csv or text) that is
byte-identical across runs for the same flags; timing is opt-in via
--timing (json only) so the default output stays reproducible.

Each run takes one path: argparse parses the flags, each integer flag's
type checks its lower bound (--r, --n, --a and --h-max >= 1; --h, --max-j,
--t and --limit-ops >= 0), run_command builds the field once, the handler
computes, and run_command writes stdout once, JSON through _dumps, which
writes the json module's sorted, 2-space layout directly.  Each subcommand's
parser is built at its first run_command and serves every later call; only
-h and a missing or unknown command build the parser of every subcommand.
Flags may also be supplied through environment variables with the
KLOOSTERCODES_ prefix (e.g. KLOOSTERCODES_H_MAX=6, or KLOOSTERCODES_TIMING=1
for the --timing switch, 0 leaving it off); these are read at every call,
for the chosen subcommand's flags only, and such a value passes the flag's
own type, bound and choices, or the command exits 2 naming the variable and
the flag.

Exit status: 0 on success or full verification; 1 on a verification
mismatch or a failed internal consistency check; 2 on a usage error (a
refusal names the flag) or a refused work limit; 141 (killed by SIGPIPE,
with nothing on stderr) when the console script finds stdout closed, as
under `kloostercodes kloosterman --r 8 | head -1`.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import charsums, gauss, moments, ogroups
from .codes import weight_prefix
from .errors import CapacityError, ConsistencyError, DomainError, FieldConstructionError, admit
from .gf3r import DEFAULT_MODULI, field_create, format_poly, load_modulus_config
from .ogroups import GroupId

ENV_PREFIX = "KLOOSTERCODES_"

_CODES = sorted(gid.value for gid in GroupId)


def _at_least(low):
    """The type of an integer flag whose values start at low; argparse names
    the flag in the refusal."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value
    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


def _parse_poly(text):
    return tuple(int(c) for c in text.replace(",", " ").split())


@functools.cache  # parse_args leaves a parser as it was, so one serves every call
def _build_parser(command=None):
    """The parser of one subcommand, or of all of them when command is None
    (for -h and a missing or unknown command).  A one-command parser shows
    every command in its usage line, so its refusals read as the full one's."""
    parser = argparse.ArgumentParser(
        prog="kloostercodes",
        description="Exact Kloosterman-sum moments via ternary codes of the "
        "minus-type orthogonal groups over GF(3^r).",
    )
    common = argparse.ArgumentParser(add_help=False)
    _flag(common, "--r", type=_at_least(1), default=1, help="field exponent, q = 3^r (default 1)")
    _flag(common, "--poly", type=_parse_poly,
          help="modulus coefficients c0,c1,...,cr (low degree first)")
    _flag(common, "--poly-file", help="config file mapping r to modulus coefficients")
    _flag(common, "--format", choices=("json", "csv", "text"), default="text",
          help="output format")
    _flag(common, "--limit-ops", type=_at_least(0), default=charsums.DEFAULT_OPS_LIMIT,
          help="work limit in estimated operations (default %d)" % charsums.DEFAULT_OPS_LIMIT)

    def leaf(subparsers, name, text):  # its usage line heads the refusals of its flags
        p = subparsers.add_parser(name, parents=[common], help=text)
        p.set_defaults(leaf=p)
        return p

    def wanted(name):
        return command in (None, name)

    # a metavar would also name the argument in the full parser's refusals
    metavar = None if command is None else "{%s}" % ",".join(_HANDLERS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    if wanted("field"):
        leaf(sub, "field", "describe the field GF(3^r)")
    if wanted("kloosterman"):
        p = leaf(sub, "kloosterman", "exact Kloosterman sums")
        _flag(p, "--a", type=_at_least(1), help="argument index (default: all nonzero a)")

    # the common flags go after the mode (moments direct --r 2), so the
    # mode parsers alone take them: given before the mode, a flag is an error
    if wanted("moments"):
        p = sub.add_parser("moments", help="moments over square arguments")
        msub = p.add_subparsers(dest="mode", required=True)
        pd = leaf(msub, "direct", "direct power sums")
        _flag(pd, "--h", type=_at_least(0), default=4, help="highest moment")
        pr = leaf(msub, "recursive", "moments generated by the code recursion")
        _flag(pr, "--h", type=_at_least(0), default=4, help="highest moment")
        _flag(pr, "--code", choices=_CODES, default="so2")

    if wanted("weights"):
        p = leaf(sub, "weights", "truncated weight distribution of a group code")
        _flag(p, "--code", choices=_CODES, default="so2")
        _flag(p, "--max-j", type=_at_least(0), default=8, help="largest weight to report")

    if wanted("groups"):
        p = sub.add_parser("groups", help="group enumeration")
        gsub = p.add_subparsers(dest="mode", required=True)
        ge = leaf(gsub, "enumerate", "order and trace histogram")
        _flag(ge, "--group", choices=_CODES, default="so2")
        gd = leaf(gsub, "dump", "emit the element matrices")
        _flag(gd, "--group", choices=_CODES, default="so2")

    if wanted("gauss"):
        p = leaf(sub, "gauss", "character sums over the groups, closed form")
        _flag(p, "--group", choices=_CODES + ["gl"],
              help="so2, o2, so4 or gl (default so2 unless --n is given)")
        _flag(p, "--a", type=_at_least(1), default=1, help="character scaling")
        _flag(p, "--t", type=_at_least(0), help="GL rank, with --group gl only (default 1)")
        _flag(p, "--n", type=_at_least(1), help="n of SO-/O-(2n,q), in place of --group")
        _flag(p, "--variant", choices=("so", "o"), help="with --n only: SO- or O- (default so)")

    if wanted("verify"):
        p = leaf(sub, "verify", "check the recursions against direct moments")
        _flag(p, "--h-max", type=_at_least(1), default=10)
        _flag(p, "--timing", action="store_true", default=False, help="add elapsed_ms to json reports")

    return parser


def _make_ctx(args):
    """The field of --r, and with it the refusals no flag type can make: two
    modulus sources, an --r without a shipped modulus and an --a outside the
    field.  Past the shipped moduli the tables are admitted under --limit-ops
    at q*r."""
    poly = args.poly
    if args.poly_file is not None:
        if poly is not None:
            raise DomainError("--poly %s and --poly-file %s both name the modulus; give one"
                              % (",".join(map(str, poly)), args.poly_file))
        try:
            table = load_modulus_config(args.poly_file)
        except (OSError, DomainError) as exc:  # unreadable or malformed
            raise DomainError("--poly-file: %s" % exc) from None
        if args.r not in table:
            raise DomainError("--poly-file %s has no modulus for r=%d (entries: %s)"
                              % (args.poly_file, args.r, sorted(table) or "none"))
        poly = table[args.r]
    if args.r not in DEFAULT_MODULI:
        if poly is None:
            raise DomainError("--r %d has no shipped modulus (r <= %d); give one with --poly "
                              "or --poly-file" % (args.r, max(DEFAULT_MODULI)))
        # field_create refuses a modulus of another degree before any table,
        # and q = 3^r alone would take minutes at an --r of 10^8
        if len(poly) == args.r + 1:
            q = 3 ** args.r
            admit("building the field tables of GF(%d) past the shipped moduli (q*r)" % q,
                  q * args.r, args.limit_ops)
    ctx = field_create(args.r, poly)
    if getattr(args, "a", None) is not None and args.a >= ctx.q:
        raise DomainError("--a %d is not a nonzero element of GF(%d): give 1 <= --a < %d"
                          % (args.a, ctx.q, ctx.q))
    return ctx


# each handler maps (args, ctx) to (exit status, json payload, csv rows, text lines)

def _cmd_field(args, ctx):
    payload = {
        "r": ctx.r,
        "q": ctx.q,
        "modulus": list(ctx.modulus),
        "modulus_str": format_poly(ctx.modulus),
        "epsilon": ctx.epsilon,
        "num_squares": (ctx.q - 1) // 2,
    }
    rows = [("key", "value")] + [(k, payload[k]) for k in sorted(payload)]
    text = ["GF(%d), modulus %s" % (ctx.q, payload["modulus_str"]),
            "epsilon (least nonsquare) = %d" % ctx.epsilon,
            "nonzero squares: %d" % payload["num_squares"]]
    return 0, payload, rows, text


def _cmd_kloosterman(args, ctx):
    targets = [args.a] if args.a is not None else list(range(1, ctx.q))
    values = {a: charsums.kloosterman(ctx, a, ops_limit=args.limit_ops) for a in targets}
    payload = {"q": ctx.q, "values": {str(a): str(v) for a, v in values.items()}}
    rows = [("a", "K")] + [(a, v) for a, v in sorted(values.items())]
    text = ["K(%d) = %d" % (a, v) for a, v in sorted(values.items())]
    return 0, payload, rows, text


def _cmd_moments(args, ctx):
    if args.mode == "direct":
        vals = [charsums.sk_moment(ctx, h, ops_limit=args.limit_ops) for h in range(args.h + 1)]
        step, key, label = 1, "source", "direct"
    else:
        gid = GroupId(args.code)
        vals = moments.recursive_moments(ctx, gid, args.h, ops_limit=args.limit_ops)
        # the SO-(2n,q) chain holds SK^0, SK^n, ..., SK^{nh}
        step = gid.n
        key = "source" if gid.n == 1 else "code"
        label = args.code
    hs = [step * i for i in range(len(vals))]
    payload = {
        "q": ctx.q, "r": ctx.r, key: label,
        "rows": [{"h": h, "sk": str(v)} for h, v in zip(hs, vals)],
    }
    rows = [("h", "sk")] + list(zip(hs, vals))
    text = ["SK^%d = %d" % hv for hv in zip(hs, vals)]
    return 0, payload, rows, text


def _cmd_weights(args, ctx):
    prefix = weight_prefix(GroupId(args.code), ctx, args.max_j, ops_limit=args.limit_ops)
    payload = {
        "q": ctx.q, "r": ctx.r, "code": args.code, "max_j": args.max_j,
        "counts": {str(j): str(c) for j, c in enumerate(prefix)},
    }
    rows = [("j", "count")] + list(enumerate(prefix))
    text = ["C_%d = %d" % (j, c) for j, c in enumerate(prefix)]
    return 0, payload, rows, text


def _cmd_groups(args, ctx):
    gid = GroupId(args.group)
    enum = ogroups.enumerate_group(ctx, gid, ops_limit=args.limit_ops)
    payload = {"group": args.group, "q": ctx.q, "order": len(enum.elements)}
    if args.mode == "enumerate":
        hist = sorted(enum.histogram.as_dict().items())
        payload["histogram"] = {str(b): c for b, c in hist}
        rows = [("beta", "count")] + hist
        text = ["|%s(%d)| = %d" % (args.group, ctx.q, len(enum.elements)),
                "trace histogram: " + ", ".join("%d:%d" % bc for bc in hist)]
    else:
        payload["elements"] = [list(w) for w in enum.elements]
        rows = [("element",)] + [(" ".join(map(str, w)),) for w in enum.elements]
        text = [" ".join(map(str, w)) for w in enum.elements]
    return 0, payload, rows, text


def _cmd_gauss(args, ctx):
    if args.group == "gl" and (args.n, args.variant) != (None, None):
        raise DomainError("--n and --variant do not apply to --group gl")
    if args.group != "gl" and args.t is not None:
        raise DomainError("--t applies to --group gl only")
    if args.n is None and args.variant is not None:
        raise DomainError("--variant applies with --n only; --group o2 is O-(2,q)")
    if args.group is not None and args.n is not None:
        raise DomainError("--group %s and --n %d both name the group; give one"
                          % (args.group, args.n))
    if args.group == "gl":
        t = 1 if args.t is None else args.t
        val = gauss.kloosterman_gl(ctx, t, args.a, ops_limit=args.limit_ops)
        payload = {"q": ctx.q, "group": "gl", "t": t, "a": args.a, "value": str(val)}
        text = ["K_GL(%d, %d)(a=%d) = %d" % (t, ctx.q, args.a, val)]
    else:
        if args.n is not None:
            n, variant = args.n, args.variant or "so"
        else:
            gid = GroupId(args.group or "so2")
            n, variant = gid.n, gid.variant
        req = gauss.GaussSumRequest(n=n, variant=variant, a=args.a)
        val = gauss.gauss_sum_closed(ctx, req, ops_limit=args.limit_ops)
        payload = {"q": ctx.q, "n": n, "variant": variant, "a": args.a, "value": str(val)}
        text = ["gauss sum %s-(2*%d, %d), a=%d: %d" % (variant, n, ctx.q, args.a, val)]
    return 0, payload, [("value",), (val,)], text


def _cmd_verify(args, ctx):
    if args.timing and args.format != "json":
        raise DomainError("--timing adds elapsed_ms under --format json only")
    reports = moments.verify_report(ctx, args.h_max, ops_limit=args.limit_ops)
    payload, rows, text = [], [("code", "h", "direct", "recursive", "match")], []
    for rep in reports:
        report = {"q": ctx.q, "r": ctx.r, "code": rep.code, "rows": []}
        if args.timing:
            report["elapsed_ms"] = round(rep.elapsed_ms, 3)
        payload.append(report)
        for row in rep.rows:
            report["rows"].append({"h": row.h, "direct": str(row.direct),
                                   "recursive": str(row.recursive), "match": row.match})
            rows.append((rep.code, row.h, row.direct, row.recursive, row.match))
            text.append("%s h=%d direct=%d recursive=%d %s"
                        % (rep.code, row.h, row.direct, row.recursive,
                           "ok" if row.match else "MISMATCH"))
    ok = all(rep.all_match for rep in reports)
    text.append("verified: all moments match" if ok else "verification FAILED")
    return (0 if ok else 1), payload, rows, text


_HANDLERS = {
    "field": _cmd_field,
    "kloosterman": _cmd_kloosterman,
    "moments": _cmd_moments,
    "weights": _cmd_weights,
    "groups": _cmd_groups,
    "gauss": _cmd_gauss,
    "verify": _cmd_verify,
}


def run_command(argv) -> int:
    """Parse argv, build the field, run the subcommand and print its output;
    returns the exit status."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact values pass 4300 digits
        sys.set_int_max_str_digits(0)
    parser = _build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
        for dest, value in list(vars(args).items()):
            if isinstance(value, _EnvValue):
                setattr(args, dest, value.parse(args.leaf))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, payload, csv_rows, text_lines = _HANDLERS[args.command](args, _make_ctx(args))
    except (DomainError, FieldConstructionError, CapacityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        text_lines = [_dumps(payload)]
    elif args.format == "csv":
        text_lines = [",".join(str(c) for c in row) for row in csv_rows]
    for line in text_lines:
        print(line)
    return status


def _dumps(value, indent="\n"):
    """json.dumps(value, sort_keys=True, indent=2), written directly: with
    indent set, the json module encodes in pure Python, value by value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is bool:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in value) + indent + "]"
    return json.dumps(value)  # None and floats


def main():
    import signal  # the console script alone needs it; `import kloostercodes` stays lighter

    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run quietly, status 141
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_command(sys.argv[1:]))


class _EnvValue:
    """A flag's default: KLOOSTERCODES_<FLAG> when it is set at parse time,
    parsed by the flag's own type, bound included, and choices once the
    flag's subcommand is known, and otherwise the flag's plain default."""

    def __init__(self, flag, default, kind, choices):
        self.var = ENV_PREFIX + flag[2:].upper().replace("-", "_")
        self.flag, self.default, self.kind, self.choices = flag, default, kind, choices

    def parse(self, parser):
        raw = os.environ.get(self.var)
        if raw is None:
            return self.default
        try:
            value = self.kind(raw) if self.kind else raw
            if self.choices is None or value in self.choices:
                return value
        except argparse.ArgumentTypeError as exc:  # below the flag's bound
            parser.error("%s=%r is not a valid value for %s: %s" % (self.var, raw, self.flag, exc))
        except (TypeError, ValueError):
            pass
        parser.error("%s=%r is not a valid value for %s" % (self.var, raw, self.flag))


def _switch(text):
    """The environment value of an on/off flag: 1 turns it on, 0 leaves it off."""
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _flag(parser, flag, default=None, **kw):
    kind = _switch if kw.get("action") == "store_true" else kw.get("type")
    env = _EnvValue(flag, default, kind, kw.get("choices"))
    return parser.add_argument(flag, default=env, **kw)


if __name__ == "__main__":
    main()
