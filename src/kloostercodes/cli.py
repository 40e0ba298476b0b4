"""Command-line front end.

Every subcommand prints machine-readable output (json, csv or text) that is
byte-identical across runs for the same flags; timing is opt-in via
--timing so the default output stays reproducible.  Exit status: 0 on
success or full verification, 1 on a verification mismatch, 2 on usage or
capacity errors.  Flags may also be supplied through environment variables
with the KLOOSTERCODES_ prefix (e.g. KLOOSTERCODES_H_MAX=6).
"""

import argparse
import json
import os
import sys

from . import charsums, gauss, moments, ogroups
from .codes import weight_prefix
from .errors import CapacityError, ConsistencyError, DomainError, FieldConstructionError
from .gf3r import field_create, format_poly, load_modulus_config
from .ogroups import GroupId

ENV_PREFIX = "KLOOSTERCODES_"

_CODE_IDS = {"so2": GroupId.SO2, "o2": GroupId.O2, "so4": GroupId.SO4}


def _env(name, cast, fallback=None):
    raw = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))
    if raw is None:
        return fallback
    return cast(raw)


def _parse_poly(text):
    return tuple(int(c) for c in text.replace(",", " ").split())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kloostercodes",
        description="Exact Kloosterman-sum moments via ternary codes of the "
        "minus-type orthogonal groups over GF(3^r).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--r", type=int, default=_env("r", int, 1),
                        help="field exponent, q = 3^r (default 1)")
    common.add_argument("--poly", type=_parse_poly, default=_env("poly", _parse_poly),
                        help="modulus coefficients c0,c1,...,cr (low degree first)")
    common.add_argument("--poly-file", default=_env("poly_file", str),
                        help="config file mapping r to modulus coefficients")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=_env("format", str, "text"), help="output format")
    common.add_argument("--limit-ops", type=int,
                        default=_env("limit_ops", int, charsums.DEFAULT_OPS_LIMIT),
                        help="work limit in estimated operations (default %d)"
                        % charsums.DEFAULT_OPS_LIMIT)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("field", parents=[common], help="describe the field GF(3^r)")

    p = sub.add_parser("kloosterman", parents=[common], help="exact Kloosterman sums")
    p.add_argument("--a", type=int, default=_env("a", int),
                   help="argument index (default: all nonzero a)")

    # the common flags go after the mode (moments direct --r 2), so the
    # mode parsers alone take them: given before the mode, a flag is an error
    p = sub.add_parser("moments", help="moments over square arguments")
    msub = p.add_subparsers(dest="mode", required=True)
    pd = msub.add_parser("direct", parents=[common], help="direct power sums")
    pd.add_argument("--h", type=int, default=_env("h", int, 4), help="highest moment")
    pr = msub.add_parser("recursive", parents=[common],
                         help="moments generated by the code recursion")
    pr.add_argument("--h", type=int, default=_env("h", int, 4), help="highest moment")
    pr.add_argument("--code", choices=sorted(_CODE_IDS), default=_env("code", str, "so2"))

    p = sub.add_parser("weights", parents=[common],
                       help="truncated weight distribution of a group code")
    p.add_argument("--code", choices=sorted(_CODE_IDS), default=_env("code", str, "so2"))
    p.add_argument("--max-j", type=int, default=_env("max_j", int, 8),
                   help="largest weight to report")

    p = sub.add_parser("groups", help="group enumeration")
    gsub = p.add_subparsers(dest="mode", required=True)
    ge = gsub.add_parser("enumerate", parents=[common], help="order and trace histogram")
    ge.add_argument("--group", choices=sorted(_CODE_IDS), default=_env("group", str, "so2"))
    gd = gsub.add_parser("dump", parents=[common], help="emit the element matrices")
    gd.add_argument("--group", choices=sorted(_CODE_IDS), default=_env("group", str, "so2"))

    p = sub.add_parser("gauss", parents=[common],
                       help="character sums over the groups, closed form")
    p.add_argument("--group", choices=sorted(_CODE_IDS) + ["gl"],
                   default=_env("group", str, "so2"))
    p.add_argument("--a", type=int, default=_env("a", int, 1), help="character scaling")
    p.add_argument("--t", type=int, default=_env("t", int, 1), help="GL rank (with --group gl)")
    p.add_argument("--n", type=int, default=_env("n", int),
                   help="explicit half-rank 2n (overrides --group; needs --variant)")
    p.add_argument("--variant", choices=("so", "o"), default=_env("variant", str, "so"))

    p = sub.add_parser("verify", parents=[common],
                       help="check the recursions against direct moments")
    p.add_argument("--h-max", type=int, default=_env("h_max", int, 10))
    p.add_argument("--timing", action="store_true", help="include elapsed_ms in reports")

    return parser


def _make_ctx(args):
    poly = args.poly
    if poly is None and args.poly_file:
        try:
            table = load_modulus_config(args.poly_file)
        except (OSError, DomainError) as exc:  # unreadable or malformed
            raise DomainError("--poly-file: %s" % exc) from None
        if args.r not in table:
            raise DomainError("--poly-file %s has no modulus for r=%d (entries: %s)"
                              % (args.poly_file, args.r, sorted(table) or "none"))
        poly = table[args.r]
    return field_create(args.r, poly)


def _emit(args, payload, csv_rows, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(c) for c in row))
    else:
        for line in text_lines:
            print(line)


def _cmd_field(args):
    ctx = _make_ctx(args)
    payload = {
        "r": ctx.r,
        "q": ctx.q,
        "modulus": list(ctx.modulus),
        "modulus_str": format_poly(ctx.modulus),
        "epsilon": ctx.epsilon,
        "num_squares": len(ctx.squares()),
    }
    rows = [("key", "value")] + [(k, payload[k]) for k in sorted(payload)]
    text = ["GF(%d), modulus %s" % (ctx.q, payload["modulus_str"]),
            "epsilon (least nonsquare) = %d" % ctx.epsilon,
            "nonzero squares: %d" % payload["num_squares"]]
    _emit(args, payload, rows, text)
    return 0


def _cmd_kloosterman(args):
    ctx = _make_ctx(args)
    targets = [args.a] if args.a is not None else list(range(1, ctx.q))
    values = {a: charsums.kloosterman(ctx, a, ops_limit=args.limit_ops) for a in targets}
    payload = {"q": ctx.q, "values": {str(a): str(v) for a, v in values.items()}}
    rows = [("a", "K")] + [(a, v) for a, v in sorted(values.items())]
    text = ["K(%d) = %d" % (a, v) for a, v in sorted(values.items())]
    _emit(args, payload, rows, text)
    return 0


def _cmd_moments(args):
    if args.h < 0:
        raise DomainError("--h must be nonnegative, got %d" % args.h)
    ctx = _make_ctx(args)
    if args.mode == "direct":
        vals = [moments.sk_initial(ctx.q)] + [
            charsums.sk_moment(ctx, h, ops_limit=args.limit_ops) for h in range(1, args.h + 1)
        ]
        step, key, label = 1, "source", "direct"
    else:
        gid = _CODE_IDS[args.code]
        vals = moments.recursive_moments(ctx, gid, args.h, ops_limit=args.limit_ops)
        # the rank-4 chain holds the even moments SK^0, SK^2, ..., SK^{2h}
        step = gid.dim // 2
        key = "code" if gid is GroupId.SO4 else "source"
        label = args.code
    hs = [step * i for i in range(len(vals))]
    payload = {
        "q": ctx.q, "r": ctx.r, key: label,
        "rows": [{"h": h, "sk": str(v)} for h, v in zip(hs, vals)],
    }
    rows = [("h", "sk")] + list(zip(hs, vals))
    text = ["SK^%d = %d" % hv for hv in zip(hs, vals)]
    _emit(args, payload, rows, text)
    return 0


def _cmd_weights(args):
    if args.max_j < 0:
        raise DomainError("--max-j must be nonnegative, got %d" % args.max_j)
    ctx = _make_ctx(args)
    gid = _CODE_IDS[args.code]
    hist = ogroups.histogram_closed_form(ctx, gid, ops_limit=args.limit_ops)
    prefix = weight_prefix(hist, ctx, args.max_j, ops_limit=args.limit_ops)
    payload = {
        "q": ctx.q, "r": ctx.r, "code": args.code, "max_j": args.max_j,
        "counts": {str(j): str(c) for j, c in enumerate(prefix.counts)},
    }
    rows = [("j", "count")] + list(enumerate(prefix.counts))
    text = ["C_%d = %d" % (j, c) for j, c in enumerate(prefix.counts)]
    _emit(args, payload, rows, text)
    return 0


def _cmd_groups(args):
    ctx = _make_ctx(args)
    gid = _CODE_IDS[args.group]
    enum = ogroups.enumerate_group(ctx, gid, ops_limit=args.limit_ops)
    hist = enum.histogram.as_dict()
    if args.mode == "enumerate":
        payload = {
            "group": args.group, "q": ctx.q, "order": len(enum.elements),
            "histogram": {str(b): c for b, c in hist.items()},
        }
        rows = [("beta", "count")] + sorted(hist.items())
        text = ["|%s(%d)| = %d" % (args.group, ctx.q, len(enum.elements)),
                "trace histogram: " + ", ".join("%d:%d" % bc for bc in sorted(hist.items()))]
        _emit(args, payload, rows, text)
        return 0
    payload = {
        "group": args.group, "q": ctx.q, "order": len(enum.elements),
        "elements": [list(w) for w in enum.elements],
    }
    rows = [("element",)] + [(" ".join(map(str, w)),) for w in enum.elements]
    text = [" ".join(map(str, w)) for w in enum.elements]
    _emit(args, payload, rows, text)
    return 0


def _cmd_gauss(args):
    ctx = _make_ctx(args)
    if args.group == "gl":
        val = gauss.kloosterman_gl(ctx, args.t, args.a, ops_limit=args.limit_ops)
        payload = {"q": ctx.q, "group": "gl", "t": args.t, "a": args.a, "value": str(val)}
        text = ["K_GL(%d, %d)(a=%d) = %d" % (args.t, ctx.q, args.a, val)]
    else:
        if args.n is not None:
            n, variant = args.n, args.variant
        else:
            n = 2 if args.group == "so4" else 1
            variant = "o" if args.group == "o2" else "so"
        req = gauss.GaussSumRequest(n=n, variant=variant, a=args.a)
        val = gauss.gauss_sum_closed(ctx, req, ops_limit=args.limit_ops)
        payload = {"q": ctx.q, "n": n, "variant": variant, "a": args.a, "value": str(val)}
        text = ["gauss sum %s-(2*%d, %d), a=%d: %d" % (variant, n, ctx.q, args.a, val)]
    _emit(args, payload, [("value",), (val,)], text)
    return 0


def _cmd_verify(args):
    ctx = _make_ctx(args)
    reports = moments.verify_report(ctx, args.h_max, ops_limit=args.limit_ops)
    payload = [rep.to_dict(include_timing=args.timing) for rep in reports]
    rows = [("code", "h", "direct", "recursive", "match")]
    text = []
    ok = True
    for rep in reports:
        for row in rep.rows:
            rows.append((rep.code, row.h, row.direct, row.recursive, row.match))
            text.append("%s h=%d direct=%d recursive=%d %s"
                        % (rep.code, row.h, row.direct, row.recursive,
                           "ok" if row.match else "MISMATCH"))
            ok = ok and row.match
    text.append("verified: all moments match" if ok else "verification FAILED")
    _emit(args, payload, rows, text)
    return 0 if ok else 1


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
    if hasattr(sys, "set_int_max_str_digits"):  # exact values pass 4300 digits
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (DomainError, FieldConstructionError, CapacityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
