"""Power moments of Kloosterman sums with square arguments.

The dual word of a != 0 in each group code has weight w(a) = 2(N - G(a))/3
(codes.weight_of_k), with G(a) the group character sum as a function of
K(a^2) (gauss.gauss_sum_of_k).  ogroups.delta_form reads z = G(0) and
d = G(1) - G(0) off G and refuses a G that is not z + d k^e, e = n, so
w(a) = (2/3) s (K(a^2)^e + b) with s = -d and b = (N - z)/s.  The Pless
power moment identity gives sums over the dual words from the code's low
weight counts C_j alone; one function (_pless_sums) forms
S_h = sum_a (alpha w(a) + beta)^h for every h <= h_max from the factorial
moments u_t = sum_a (w(a))_t, which Horner's rule and one binomial row give
from the C_j (_pless_inner), by the affine step
u_t <- alpha u_{t+1} + (alpha t + beta) u_t per h.  With (alpha, beta) =
(1, 0) it gives the power moments of the Pless check; with (3, -2sb),
3 w(a) - 2sb = 2s K(a^2)^e, so one recursion serves every code:
SK^{eh} = (S_h - (-2sb)^h) / (2 (2s)^h), SK^h on the rank-2 codes (e = 1)
and SK^{2h} on the rank-4 code (e = 2), with no inverse table.  The per-h
steps multiply big integers only by small ones.  All arithmetic is in
integers; every division is asserted exact.  Every function returns values
(verify_report returns MomentReports); cli shapes every output format.
"""

import time
from dataclasses import dataclass, field

from . import charsums
from .codes import weight_of_k, weight_prefix
from .errors import ConsistencyError, DomainError
from .ogroups import GroupId, delta_form, group_order


def _pless_inner(prefix: tuple, n: int, top: int) -> list:
    """[D_0, ..., D_top], D_t = sum_{j<=t} (-1)^j C_j 2^{t-j} C(n-j, t-j), from
    the weight counts C_j of a ternary code of length n >= top; D_t does not
    depend on h.  D_t = [x^t] (1 + 2x)^(n - top) S(x), where
    S = sum_j C_j (-x)^j (1 + 2x)^(top - j) comes by Horner's rule (each step
    multiplies by 1 + 2x: add twice the coefficient below) and the
    coefficients C(n - top, i) 2^i by the running product
    C(m, i) = C(m, i - 1) (m - i + 1)/i, each division checked exact."""
    if len(prefix) <= top:
        raise DomainError("weight prefix covers j <= %d but j <= %d is needed" % (len(prefix) - 1, top))
    poly = []  # S <- S (1 + 2x) + (-1)^j C_j x^j for j = 0..top
    for j in range(top + 1):
        poly.append(0)
        for i in range(j, 0, -1):
            poly[i] += 2 * poly[i - 1]
        poly[j] += -prefix[j] if j & 1 else prefix[j]
    row = [1]
    for i in range(1, top + 1):
        c, rem = divmod(row[-1] * 2 * (n - top - i + 1), i)
        if rem:
            raise ConsistencyError("binomial row of (1 + 2y)^%d is non-integral at i=%d" % (n - top, i))
        row.append(c)
    return [sum(row[t - i] * poly[i] for i in range(t + 1)) for t in range(top + 1)]


def _pless_sums(prefix: tuple, n: int, r: int, h_max: int, alpha: int = 1, beta: int = 0) -> list:
    """[S_0, ..., S_h_max], S_h = sum_a (alpha w(a) + beta)^h over the
    q = 3^r dual words of a ternary [n, r] code, from its weight counts C_j,
    j <= m = min(n, h_max), by the Pless power moment identity; (1, 0) gives
    the power moments P_h = sum_a w(a)^h.  The factorial moments

        u_t = t! 3^{r-t} D_t = sum_a (w(a))_t,  (x)_t = x (x - 1) ... (x - t + 1),

    with D_t from _pless_inner (for t > m, u_t is 0 when m = n, as no word is
    longer than n, and never read when m = h_max), turn into
    sum_a (alpha w(a) + beta)^h (w(a))_t by h affine steps
    u_t <- alpha u_{t+1} + (alpha t + beta) u_t, since
    (alpha x + beta) (x)_t = alpha (x)_{t+1} + (alpha t + beta) (x)_t; S_h is
    u_0 after h steps.  The u_t are scaled by 3^c, c = max(0, m - r), to keep
    them integral, and each S_h is asserted divisible by 3^c.
    """
    top = min(n, h_max)
    c = max(0, top - r)
    u, fact = [0] * (top + 2), 1  # fact = t!; u_{top+1} stays 0
    for t, d in enumerate(_pless_inner(prefix, n, top)):
        u[t], fact = fact * 3 ** (r - t + c) * d, fact * (t + 1)
    sums, scale = [], 3 ** c
    for h in range(h_max + 1):
        total, rem = divmod(u[0], scale)
        if rem:
            raise ConsistencyError("power-moment sum %d at h=%d is not divisible by 3^%d" % (u[0], h, c))
        sums.append(total)
        for t in range(min(top + 1, h_max - h)):  # only u_t, t < h_max - h, reaches a later u_0
            u[t] = alpha * u[t + 1] + (alpha * t + beta) * u[t]
    return sums


def sk_recursive_chain(ctx, gid: GroupId, h_max: int, prefix: tuple):
    """[SK^0, SK^e, ..., SK^{e h_max}] from the code's weight prefix alone,
    e = gid.n (1 for the rank-2 codes, 2 for SO-(4,q)).

    With w(a) = (2/3) s (K(a^2)^e + b), s = -d and b = (N - z)/s ((c, z, d)
    the code's delta form, so z = G(0) and G(1) = z + d), the dual word of
    a != 0 has 3 w(a) - 2sb = 2s K(a^2)^e, and a = 0 (weight 0) gives -2sb.
    As a -> a^2 covers each nonzero square twice, the affine Pless sums
    S_h = sum_a (3 w(a) - 2sb)^h (_pless_sums with (3, -2sb)) give
    SK^{eh} = (S_h - (-2sb)^h) / (2 (2s)^h), each division asserted exact:
    one O(h_max min(N, h_max)) loop, with no inverse table.
    `prefix` must hold the weight counts for j <= min(N, h_max).
    """
    q, r = ctx.q, ctx.r
    n = group_order(gid, q)
    if h_max < 0:
        raise DomainError("h_max must be nonnegative")
    _, z, d = delta_form(gid, q)
    s = -d
    b, rem = divmod(n - z, s)
    if rem:
        raise ConsistencyError("weight offset (N - G(0))/s = %d/%d is not an integer" % (n - z, s))
    chain, zero_word, den = [], 1, 2  # (-2sb)^h and 2 (2s)^h
    for h, total in enumerate(_pless_sums(prefix, n, r, h_max, 3, -2 * s * b)):
        num = total - zero_word
        moment, rem = divmod(num, den)
        if rem:
            raise ConsistencyError("moment SK^%d came out non-integral: %d/%d" % (gid.n * h, num, den))
        chain.append(moment)
        zero_word, den = -2 * s * b * zero_word, 2 * s * den
    return chain


def recursive_moments(ctx, gid: GroupId, h_max: int, *,
                      ops_limit: int = charsums.DEFAULT_OPS_LIMIT):
    """The recursion chain of the code: weight_prefix -> sk_recursive_chain."""
    return sk_recursive_chain(ctx, gid, h_max, weight_prefix(gid, ctx, h_max, ops_limit=ops_limit))


@dataclass(frozen=True)
class PlessCheck:
    group: GroupId
    h: int
    lhs: int
    rhs: int

    @property
    def match(self) -> bool:
        return self.lhs == self.rhs


def pless_check(ctx, gid: GroupId, h: int, *,
                ops_limit: int = charsums.DEFAULT_OPS_LIMIT) -> PlessCheck:
    """Both sides of the power moment identity for the dual of the group code.

    Left side: sum over all q dual codewords of weight^h (0^0 = 1, so h = 0
    counts every codeword).  The word of a != 0 has weight w(K(a^2)), and
    a -> a^2 covers each nonzero square twice, so the sum runs over the value
    histogram of K: 2 sum_k mult(k) w(k)^h.  Right side: _pless_sums, the
    factorial moments of the code's weight counts C_j, j <= min(N, h), for
    a ternary [N, r] dual, stepped up to w^h.  The K table and the weight
    prefix behind the right side are both admitted under ops_limit.
    """
    if h < 0:
        raise DomainError("h must be nonnegative")
    q = ctx.q
    prefix = weight_prefix(gid, ctx, h, ops_limit=ops_limit)
    lhs = 2 * sum(m * weight_of_k(gid, q, k) ** h
                  for k, m in charsums.kloosterman_histogram(ctx, ops_limit=ops_limit))
    if h == 0:
        lhs += 1  # the zero codeword contributes 0^0 = 1
    rhs = _pless_sums(prefix, group_order(gid, q), ctx.r, h)[h]
    return PlessCheck(gid, h, lhs, rhs)


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

    code: str
    rows: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)


def verify_report(ctx, h_max: int, *, ops_limit: int = charsums.DEFAULT_OPS_LIMIT):
    """Run the recursion of every code against direct moments: SK^h for
    h <= h_max on the rank-2 codes, SK^{2h} for h <= h_max // 2 on the rank-4
    code.  Returns one MomentReport per code."""
    if h_max < 1:
        raise DomainError("h_max must be positive")
    direct = [charsums.sk_moment(ctx, h, ops_limit=ops_limit) for h in range(h_max + 1)]
    reports = []
    for gid in GroupId:
        e = gid.n
        if h_max // e < 1:
            continue
        start = time.perf_counter()
        chain = recursive_moments(ctx, gid, h_max // e, ops_limit=ops_limit)
        rows = [MomentRow(e * h, direct[e * h], chain[h]) for h in range(1, len(chain))]
        reports.append(MomentReport(gid.value, rows, (time.perf_counter() - start) * 1e3))
    return reports
