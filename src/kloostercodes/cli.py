"""Command-line front end.

Every subcommand prints machine-readable output (json, csv or text) that is
byte-identical across runs for the same flags; timing is opt-in via
--timing (json only) so the default output stays reproducible.

Each run takes one path: argparse parses the flags, each integer flag's
type checks its lower bound (--r, --n, --a and --h-max >= 1; --h, --max-j,
--t and --limit-ops >= 0), run_command builds the field once, the handler
computes and returns its records once (_Records), and run_command writes
stdout once, shaped by one of _text, _csv and _json for the format asked
for and by no other.  The records hold the json document itself, and
_dumps, the one JSON writer, writes it whole in the json module's sorted,
2-space layout, each record list in it (a _Rows block) through one
%-template per record shape.  Each subcommand's parser is built at its
first run_command and serves every later call; only -h and a missing or
unknown command build the parser of every subcommand.
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
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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


class _Records(namedtuple("_Records", "doc rows fields text csv", defaults=(None,))):
    """A subcommand's output, one field per format.  doc is the json
    document (a list of documents for verify), with each record list in it
    a _Rows block; _json is _dumps(doc).  rows are tuples under the csv
    header fields, each written by the csv %-template (by default every
    column by str); text is a row's %-template, or a function giving every
    line."""


class _Rows(namedtuple("_Rows", "rows fields json")):
    """A record list inside a json document, written by _dumps one
    %-template per record: with json a %-template, an object of one member
    per row, ordered by its key as a string; with json a tuple of
    per-column %-formats, a list of one object per row under the names
    fields, None leaving a column out and "bool" writing true or false."""


def _cmd_field(args, ctx):
    doc = {
        "r": ctx.r,
        "q": ctx.q,
        "modulus": list(ctx.modulus),
        "modulus_str": format_poly(ctx.modulus),
        "epsilon": ctx.epsilon,
        "num_squares": (ctx.q - 1) // 2,
    }
    return 0, _Records(doc, sorted(doc.items()), ("key", "value"), lambda: [
        "GF(%(q)d), modulus %(modulus_str)s" % doc, "epsilon (least nonsquare) = %(epsilon)d" % doc,
        "nonzero squares: %(num_squares)d" % doc])


def _cmd_kloosterman(args, ctx):
    span = slice(1, None) if args.a is None else slice(args.a, args.a + 1)
    k = charsums._kloosterman_table(ctx, args.limit_ops)[span].tolist()  # one admission, one read
    rows = list(zip(range(span.start, ctx.q), k))
    values = _Rows(rows, ("a", "K"), '"%d": "%d"')
    return 0, _Records({"q": ctx.q, "values": values}, rows, values.fields, "K(%d) = %d")


def _cmd_moments(args, ctx):
    if args.mode == "direct":
        vals = charsums.sk_moments(ctx, args.h, ops_limit=args.limit_ops)
        step, doc = 1, {"source": "direct"}
    else:
        gid = GroupId(args.code)
        vals = moments.recursive_moments(ctx, gid, args.h, ops_limit=args.limit_ops)
        # the SO-(2n,q) chain holds SK^0, SK^n, ..., SK^{nh}
        step, doc = gid.n, {"source" if gid.n == 1 else "code": args.code}
    block = _Rows([(step * h, v) for h, v in enumerate(vals)], ("h", "sk"), ("%d", '"%d"'))
    doc.update(q=ctx.q, r=ctx.r, rows=block)
    return 0, _Records(doc, block.rows, block.fields, "SK^%d = %d")


def _cmd_weights(args, ctx):
    prefix = weight_prefix(GroupId(args.code), ctx, args.max_j, ops_limit=args.limit_ops)
    counts = _Rows(list(enumerate(prefix)), ("j", "count"), '"%d": "%d"')
    doc = {"q": ctx.q, "r": ctx.r, "code": args.code, "max_j": args.max_j, "counts": counts}
    return 0, _Records(doc, counts.rows, counts.fields, "C_%d = %d")


def _cmd_groups(args, ctx):
    enum = ogroups.enumerate_group(ctx, GroupId(args.group), ops_limit=args.limit_ops)
    doc = {"group": args.group, "q": ctx.q, "order": len(enum.elements)}
    if args.mode == "enumerate":
        hist = doc["histogram"] = _Rows(sorted(enum.histogram.as_dict().items()),
                                        ("beta", "count"), '"%d": %d')
        return 0, _Records(doc, hist.rows, hist.fields, lambda: [
            "|%(group)s(%(q)d)| = %(order)d" % doc,
            "trace histogram: " + ", ".join("%d:%d" % bc for bc in hist.rows)])
    doc["elements"] = enum.elements
    line = " ".join(["%d"] * len(enum.elements[0]))
    return 0, _Records(doc, enum.elements, ("element",), line, csv=line)


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
        doc = {"q": ctx.q, "group": "gl", "t": t, "a": args.a}
        line = "K_GL(%d, %d)(a=%d) = %%d" % (t, ctx.q, args.a)
    else:
        if args.n is not None:
            n, variant = args.n, args.variant or "so"
        else:
            gid = GroupId(args.group or "so2")
            n, variant = gid.n, gid.variant
        req = gauss.GaussSumRequest(n=n, variant=variant, a=args.a)
        val = gauss.gauss_sum_closed(ctx, req, ops_limit=args.limit_ops)
        doc = {"q": ctx.q, "n": n, "variant": variant, "a": args.a}
        line = "gauss sum %s-(2*%d, %d), a=%d: %%d" % (variant, n, ctx.q, args.a)
    doc["value"] = str(val)
    return 0, _Records(doc, [(val,)], ("value",), line)


def _cmd_verify(args, ctx):
    if args.timing and args.format != "json":
        raise DomainError("--timing adds elapsed_ms under --format json only")
    reports = moments.verify_report(ctx, args.h_max, ops_limit=args.limit_ops)
    fields = ("code", "h", "direct", "recursive", "match")
    kinds = (None, "%d", '"%d"', '"%d"', "bool")
    docs, rows = [], []
    for rep in reports:
        part = [(rep.code, row.h, row.direct, row.recursive, row.match) for row in rep.rows]
        docs.append({"q": ctx.q, "r": ctx.r, "code": rep.code, "rows": _Rows(part, fields, kinds)})
        if args.timing:
            docs[-1]["elapsed_ms"] = round(rep.elapsed_ms, 3)
        rows += part
    ok = all(rep.all_match for rep in reports)

    def text():
        return ["%s h=%d direct=%d recursive=%d %s" % (*row[:4], "ok" if row[4] else "MISMATCH")
                for row in rows] + ["verified: all moments match" if ok else "verification FAILED"]

    return (0 if ok else 1), _Records(docs, rows, fields, text)


def _text(out):
    return out.text() if callable(out.text) else [out.text % row for row in out.rows]


def _csv(out):
    line = out.csv or ",".join(["%s"] * len(out.fields))
    return [",".join(out.fields)] + [line % row for row in out.rows]


def _json(out):
    return [_dumps(out.doc)]


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
        status, records = _HANDLERS[args.command](args, _make_ctx(args))
    except (DomainError, FieldConstructionError, CapacityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 1
    for line in {"json": _json, "csv": _csv, "text": _text}[args.format](records):
        print(line)
    return status


def _dumps(value, indent="\n"):
    """json.dumps(value, sort_keys=True, indent=2), written directly, a _Rows
    block as the object or list of its records: with indent set, the json
    module encodes in pure Python, value by value."""
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
    if isinstance(value, _Rows):
        lines, ends = _records(value, inner)
        return ends[0] + inner + ("," + inner).join(lines) + indent + ends[1] if lines else ends
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in value) + indent + "]"
    return json.dumps(value)  # None and floats


def _records(block, indent):
    """The json lines of a _Rows block's records, one per row at indent
    (an object's keys sorted once for every row), and the brackets around
    them."""
    if isinstance(block.json, str):
        return [block.json % row for row in sorted(block.rows, key=lambda row: str(row[0]))], "{}"
    inner = indent + "  "
    cols = sorted((name, i, kind) for i, (name, kind) in enumerate(zip(block.fields, block.json))
                  if kind)
    pick = itemgetter(*[i for _, i, kind in cols if kind != "bool"])
    flag = [i for _, i, kind in cols if kind == "bool"]
    templates = ["{" + inner + ("," + inner).join('"%s": %s' % (name, word if kind == "bool" else kind)
                                                  for name, _, kind in cols) + indent + "}"
                 for word in ("false", "true")]
    if not flag:
        return [templates[0] % pick(row) for row in block.rows], "[]"
    return [templates[row[flag[0]]] % pick(row) for row in block.rows], "[]"


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
