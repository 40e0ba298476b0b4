"""Power moments of Kloosterman sums with square arguments.

The Pless power moment identity ties the h-th powers of the dual-codeword
weights to the truncated weight distribution of each group code.  Unwinding
it gives exact recursions for the moments SK^h (rank-2 groups) and for the
even moments SK^{2h} (rank 4).  All intermediate terms carrying negative
powers of 2 or q are accumulated as exact rationals; every final moment is
asserted integral.
"""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from . import charsums
from .codes import codeword_weight_formula, weight_prefix
from .combinat import stirling2, trinomial  # noqa: F401  (re-exported helpers)
from .errors import ConsistencyError, DomainError
from .ogroups import GroupId, group_order, histogram_closed_form


def sk_initial(q: int) -> int:
    """SK^0: the number of nonzero squares."""
    return (q - 1) // 2


def _prefix_count(prefix, j: int) -> int:
    return prefix.counts[j] if j <= prefix.j_max else 0


def _moment_inner_sum(n: int, h: int, j: int):
    """sum_{t=j}^{h} t! S(h,t) 3^{h-t} 2^{t-h-j-1} C(n-j, n-t), exact rational."""
    total = Fraction(0)
    for t in range(j, min(h, n) + 1):
        total += (
            factorial(t)
            * stirling2(h, t)
            * 3 ** (h - t)
            * Fraction(2) ** (t - h - j - 1)
            * comb(n - j, t - j)
        )
    return total


def sk_recursive(ctx, gid: GroupId, h: int, prefix, lower=None) -> int:
    """SK^h from the rank-2 recursion for the given group code.

    `prefix` must hold the code's weight counts for j <= min(N, h); `lower`
    is the sequence SK^0..SK^{h-1} (computed by the recursion itself when
    omitted).
    """
    if gid not in (GroupId.SO2, GroupId.O2):
        raise DomainError("the single-step recursion applies to the rank-2 codes")
    if h < 1:
        raise DomainError("h must be positive")
    q = ctx.q
    n = group_order(gid, q)
    if prefix.j_max < min(n, h):
        raise DomainError(
            "weight prefix covers j <= %d but j <= %d is needed" % (prefix.j_max, min(n, h))
        )
    if lower is None:
        lower = sk_recursive_chain(ctx, gid, h - 1, prefix)
    first = -sum(comb(h, j) * (q + 1) ** (h - j) * lower[j] for j in range(h))
    second = Fraction(0)
    for j in range(min(n, h) + 1):
        c = _prefix_count(prefix, j)
        if c:
            second += (-1) ** j * c * _moment_inner_sum(n, h, j)
    total = first + q * second
    if total.denominator != 1:
        raise ConsistencyError("moment SK^%d came out non-integral: %s" % (h, total))
    return int(total)


def sk_recursive_chain(ctx, gid: GroupId, h_max: int, prefix):
    """[SK^0, ..., SK^{h_max}] built purely from the recursion."""
    chain = [sk_initial(ctx.q)]
    for h in range(1, h_max + 1):
        chain.append(sk_recursive(ctx, gid, h, prefix, lower=chain))
    return chain


def sk2_recursive(ctx, h: int, prefix, lower=None) -> int:
    """SK^{2h} from the rank-4 recursion.

    `prefix` holds the rank-4 code's weight counts for j <= min(N, h);
    `lower` is the even-moment sequence SK^0, SK^2, ..., SK^{2(h-1)}.
    """
    if h < 1:
        raise DomainError("h must be positive")
    q = ctx.q
    n = group_order(GroupId.SO4, q)
    if prefix.j_max < min(n, h):
        raise DomainError(
            "weight prefix covers j <= %d but j <= %d is needed" % (prefix.j_max, min(n, h))
        )
    if lower is None:
        lower = sk2_recursive_chain(ctx, h - 1, prefix)
    base = q ** 4 + q ** 3 - q - 1
    first = -sum(comb(h, j) * base ** (h - j) * lower[j] for j in range(h))
    second = Fraction(0)
    for j in range(min(n, h) + 1):
        c = _prefix_count(prefix, j)
        if c:
            second += (-1) ** j * c * _moment_inner_sum(n, h, j)
    total = first + Fraction(q) ** (1 - 2 * h) * second
    if total.denominator != 1:
        raise ConsistencyError("moment SK^%d came out non-integral: %s" % (2 * h, total))
    return int(total)


def sk2_recursive_chain(ctx, h_max: int, prefix):
    """[SK^0, SK^2, ..., SK^{2 h_max}] built purely from the recursion."""
    chain = [sk_initial(ctx.q)]
    for h in range(1, h_max + 1):
        chain.append(sk2_recursive(ctx, h, prefix, lower=chain))
    return chain


@dataclass(frozen=True)
class PlessCheck:
    group: GroupId
    h: int
    lhs: int
    rhs: int

    @property
    def match(self) -> bool:
        return self.lhs == self.rhs


def pless_check(ctx, gid: GroupId, h: int, prefix=None) -> PlessCheck:
    """Both sides of the power moment identity for the dual of the group code.

    Left side: sum over all q dual codewords of weight^h (0^0 = 1, so h = 0
    counts every codeword).  Right side: the Stirling-number expansion over
    the code's weight counts C_j, j <= min(N, h), for a ternary [N, r] dual.
    When no prefix is given it is built under the default work limits; pass
    one from weight_prefix to choose another.
    """
    if h < 0:
        raise DomainError("h must be nonnegative")
    q = ctx.q
    n = group_order(gid, q)
    if prefix is None:
        prefix = weight_prefix(histogram_closed_form(ctx, gid), ctx, min(n, h))
    lhs = sum(codeword_weight_formula(ctx, gid, a) ** h for a in range(1, q))
    if h == 0:
        lhs += 1  # the zero codeword contributes 0^0 = 1
    rhs = Fraction(0)
    for j in range(min(n, h) + 1):
        c = _prefix_count(prefix, j)
        if not c:
            continue
        inner = Fraction(0)
        for t in range(j, min(h, n) + 1):
            inner += (
                factorial(t)
                * stirling2(h, t)
                * Fraction(3) ** (ctx.r - t)
                * 2 ** (t - j)
                * comb(n - j, t - j)
            )
        rhs += (-1) ** j * c * inner
    if rhs.denominator != 1:
        raise ConsistencyError("power-moment right side non-integral: %s" % (rhs,))
    return PlessCheck(gid, h, lhs, int(rhs))


@dataclass(frozen=True)
class MomentRow:
    h: int
    direct: int
    recursive: int

    @property
    def match(self) -> bool:
        return self.direct == self.recursive


@dataclass
class MomentReport:
    """Per-code comparison of direct moments against the recursion output."""

    q: int
    r: int
    code: str
    rows: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "q": self.q,
            "r": self.r,
            "code": self.code,
            "rows": [
                {
                    "h": row.h,
                    "direct": str(row.direct),
                    "recursive": str(row.recursive),
                    "match": row.match,
                }
                for row in self.rows
            ],
        }
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True)


def verify_report(ctx, h_max: int, *, ops_limit: int = charsums.DEFAULT_OPS_LIMIT, threads: int = 1):
    """Run all three recursions against direct moments: SK^h for h <= h_max
    on the rank-2 codes, SK^{2h} for h <= h_max // 2 on the rank-4 code.
    Returns one MomentReport per code."""
    if h_max < 1:
        raise DomainError("h_max must be positive")
    q = ctx.q
    direct = [sk_initial(q)] + [
        charsums.sk_moment(ctx, h, ops_limit=ops_limit, threads=threads)
        for h in range(1, h_max + 1)
    ]
    reports = []
    for gid in (GroupId.SO2, GroupId.O2):
        start = time.perf_counter()
        n = group_order(gid, q)
        prefix = weight_prefix(histogram_closed_form(ctx, gid), ctx, min(n, h_max),
                               ops_limit=ops_limit)
        chain = sk_recursive_chain(ctx, gid, h_max, prefix)
        rows = [MomentRow(h, direct[h], chain[h]) for h in range(1, h_max + 1)]
        reports.append(
            MomentReport(q, ctx.r, gid.value, rows, (time.perf_counter() - start) * 1e3)
        )
    start = time.perf_counter()
    g3_h = h_max // 2
    if g3_h >= 1:
        n3 = group_order(GroupId.SO4, q)
        hist3 = histogram_closed_form(ctx, GroupId.SO4, ops_limit=ops_limit)
        prefix3 = weight_prefix(hist3, ctx, min(n3, g3_h), ops_limit=ops_limit)
        chain3 = sk2_recursive_chain(ctx, g3_h, prefix3)
        rows3 = [MomentRow(2 * h, direct[2 * h], chain3[h]) for h in range(1, g3_h + 1)]
        reports.append(
            MomentReport(q, ctx.r, GroupId.SO4.value, rows3, (time.perf_counter() - start) * 1e3)
        )
    return reports
