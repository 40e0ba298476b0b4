"""Power moments of Kloosterman sums with square arguments.

The dual word of a != 0 in each group code has weight
w(a) = 2(N - z - d K(a^2)^e)/3, e = n (codes.dual_weights), with (c, z, d)
the code's delta form: ogroups.delta_form reads z = G(0) and
d = G(1) - G(0) off the group character sum G and refuses a G that is not
z + d k^e.  So 3 w(a) + beta = -2d K(a^2)^e with beta = -2(N - z), and the
zero word gives beta.  The Pless power moment identity gives sums over the
dual words from the code's low weight counts C_j alone; one function
(_pless_sums) forms S_h = sum_a (alpha w(a) + beta)^h for every h <= h_max
from the factorial moments u_t = sum_a (w(a))_t, which the double sum of
binomial terms gives from the C_j (_pless_inner), by the affine step
u_t <- alpha u_{t+1} + (alpha t + beta) u_t per h.  With (alpha, beta) =
(1, 0) it gives the power moments of the Pless check; with
(3, -2(N - z)) one recursion serves every code:
SK^{eh} = (S_h - beta^h) / (2 (-2d)^h), SK^h on the rank-2 codes (e = 1)
and SK^{2h} on the rank-4 code (e = 2), with no inverse table.  The per-h
steps multiply big integers only by small ones, and _pless_sums admits them
at their own price before it runs them, for every caller.  verify_report
runs every chain before the direct column (charsums.sk_moments) and checks
both columns against the closed SK^1 and SK^2.  All arithmetic is in
integers; every division is asserted exact.  Every function returns values
(verify_report returns MomentReports); cli shapes every output format.
"""

import time
from dataclasses import dataclass

from . import charsums
from .codes import dual_weights, weight_prefix
from .errors import ConsistencyError, DomainError, admit, integer
from .ogroups import GroupId, delta_form, group_order


def _pless_inner(prefix: tuple, n: int, top: int) -> list:
    """[D_0, ..., D_top], D_t = sum_{j<=t} (-1)^j C_j 2^{t-j} C(n-j, t-j), from
    the weight counts C_j of a ternary code of length n >= top; D_t does not
    depend on h.  The double sum itself, one running term per weight count:
    the term of C_j is (-1)^j C_j at t = j, and from t to t + 1 it is
    multiplied by 2 C(n-j, t+1-j)/C(n-j, t-j) = 2 (n - t)/(t + 1 - j), each
    division checked exact.  That is (top + 1)(top + 2)/2 products of a big
    integer by a small one, and no product of two big integers."""
    if len(prefix) <= top:
        raise DomainError("weight prefix covers j <= %d but j <= %d is needed" % (len(prefix) - 1, top))
    sums = [0] * (top + 1)
    for j in range(top + 1):
        term = -prefix[j] if j & 1 else prefix[j]
        sums[j] += term
        for t in range(j, top):
            term, rem = divmod(term * 2 * (n - t), t + 1 - j)
            if rem:
                raise ConsistencyError("term of C_%d in D_%d is non-integral" % (j, t + 1))
            sums[t + 1] += term
    return sums


def _pless_sums(prefix: tuple, n: int, r: int, h_max: int, alpha: int = 1, beta: int = 0, *,
                ops_limit: int = charsums.DEFAULT_OPS_LIMIT) -> list:
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

    The steps are admitted within ops_limit before any work, at
    h_max (m + 1) W operations: h_max rounds of at most m + 1 affine steps,
    each two products of an integer of at most W 64-bit words by a small
    one.  The step that forms u_t after h rounds runs only for
    t + h <= h_max, and u_t = 3^c sum_a (alpha w(a) + beta)^h (w(a))_t with
    0 <= w(a) <= n and so (w(a))_t <= n^t.  |alpha w + beta| is largest at
    an end of 0 <= w <= n, so with B = max(n, |beta|, |alpha n + beta|),
    |u_t| <= 3^(r + c) B^(h + t) <= 3^max(r, m) B^h_max.  As 3 < 2^2, u_t
    has at most L = 2 max(r, m) + h_max bits(B) bits, and W = L // 64 + 1.
    """
    top = min(n, h_max)
    bits = 2 * max(r, top) + h_max * max(n, abs(beta), abs(alpha * n + beta)).bit_length()
    words = bits // 64 + 1
    admit("Pless sums up to h=%d over weights j <= %d (h * (j+1) affine steps on integers of "
          "W = %d words)" % (h_max, top, words), h_max * (top + 1) * words, ops_limit)
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


def sk_recursive_chain(ctx, gid: GroupId, h_max: int, prefix: tuple, *,
                       ops_limit: int = charsums.DEFAULT_OPS_LIMIT):
    """[SK^0, SK^e, ..., SK^{e h_max}] from the code's weight prefix alone,
    e = gid.n (1 for the rank-2 codes, 2 for SO-(4,q)).

    With (c, z, d) the code's delta form, the dual word of a != 0 has
    weight w(a) = 2(N - z - d K(a^2)^e)/3 (codes.dual_weights), so
    3 w(a) + beta = -2d K(a^2)^e with beta = -2(N - z), and a = 0 (weight 0)
    gives beta.  As a -> a^2 covers each nonzero square twice, the affine
    Pless sums S_h = sum_a (3 w(a) + beta)^h (_pless_sums with (3, beta),
    which admits its steps within ops_limit) give
    SK^{eh} = (S_h - beta^h) / (2 (-2d)^h), each division asserted exact:
    one O(h_max min(N, h_max)) loop, with no inverse table.
    `prefix` must hold the weight counts for j <= min(N, h_max).
    """
    q, r = ctx.q, ctx.r
    n = group_order(gid, q)
    h_max = integer(h_max, 0, "h_max must be nonnegative")
    _, z, d = delta_form(gid, q)
    beta = -2 * (n - z)
    chain, zero_word, den = [], 1, 2  # beta^h and 2 (-2d)^h
    for h, total in enumerate(_pless_sums(prefix, n, r, h_max, 3, beta, ops_limit=ops_limit)):
        num = total - zero_word
        moment, rem = divmod(num, den)
        if rem:
            raise ConsistencyError("moment SK^%d came out non-integral: %d/%d" % (gid.n * h, num, den))
        chain.append(moment)
        zero_word, den = beta * zero_word, -2 * d * den
    return chain


def recursive_moments(ctx, gid: GroupId, h_max: int, *,
                      ops_limit: int = charsums.DEFAULT_OPS_LIMIT):
    """The recursion chain of the code: weight_prefix -> sk_recursive_chain,
    each admitted under ops_limit."""
    prefix = weight_prefix(gid, ctx, h_max, ops_limit=ops_limit)
    return sk_recursive_chain(ctx, gid, h_max, prefix, ops_limit=ops_limit)


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
    a ternary [N, r] dual, stepped up to w^h.  The weight prefix behind the
    right side, its Pless steps and the K table are admitted under ops_limit,
    in that order, each before its own work.
    """
    h = integer(h, 0, "h must be nonnegative")
    q, n = ctx.q, group_order(gid, ctx.q)
    prefix = weight_prefix(gid, ctx, h, ops_limit=ops_limit)
    rhs = _pless_sums(prefix, n, ctx.r, h, ops_limit=ops_limit)[h]
    values, mults = zip(*charsums.kloosterman_histogram(ctx, ops_limit=ops_limit))
    lhs = 2 * sum(m * w ** h for m, w in zip(mults, dual_weights(gid, q, values)))
    if h == 0:
        lhs += 1  # the zero codeword contributes 0^0 = 1
    return PlessCheck(gid, h, lhs, rhs)


@dataclass(frozen=True)
class MomentRow:
    h: int
    direct: int
    recursive: int

    @property
    def match(self) -> bool:
        return self.direct == self.recursive


@dataclass(frozen=True)
class MomentReport:
    """Per-code comparison of direct moments against the recursion output."""

    code: str
    rows: list
    elapsed_ms: float

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)


def verify_report(ctx, h_max: int, *, ops_limit: int = charsums.DEFAULT_OPS_LIMIT):
    """Run the recursion of every code against direct moments: SK^h for
    h <= h_max on the rank-2 codes, SK^{2h} for h <= h_max // 2 on the rank-4
    code.  Every code's chain (weight prefix and Pless steps, timed per code
    as elapsed_ms) is admitted and run before the direct column
    (charsums.sk_moments) reads the K table, so a refusal on the recursion
    side costs no direct work.  Both columns are then checked against the
    closed forms that read no table, raising ConsistencyError on a
    mismatch.  With chi the quadratic character and G its Gauss sum,
    G^2 = chi(-1) q and chi(-1) = (-1)^r:
    SK^1 = (1 + (-1)^r q)/2, half of sum_{a != 0} K(a) = 1 plus
    sum_a chi(a) K(a) = G^2; SK^2 = (q^2 - 2q - 1)/2, half of
    sum_{a != 0} K(a)^2 = q^2 - q - 1 plus sum_a chi(a) K(a)^2 =
    G sum_{x, y != 0} omega^{tr(x + y)} chi(x + y) chi(xy) = -chi(-1) G^2 = -q
    (for s = x + y != 0, sum_x chi(x (s - x)) = -chi(-1)).
    Returns one MomentReport per code."""
    h_max = integer(h_max, 1, "h_max must be positive")
    chains = []
    for gid in GroupId:
        if h_max // gid.n < 1:
            continue
        start = time.perf_counter()
        chain = recursive_moments(ctx, gid, h_max // gid.n, ops_limit=ops_limit)
        chains.append((gid, chain, (time.perf_counter() - start) * 1e3))
    direct = charsums.sk_moments(ctx, h_max, ops_limit=ops_limit)
    q = ctx.q
    closed = {1: (1 + (-1) ** ctx.r * q) // 2, 2: (q * q - 2 * q - 1) // 2}
    columns = [("direct", 1, direct)] + [(gid.value, gid.n, chain) for gid, chain, _ in chains]
    for name, step, column in columns:
        for h in range(1, min(len(column), 2 // step + 1)):
            if column[h] != closed[step * h]:
                raise ConsistencyError("%s SK^%d over GF(%d) is %d; the closed form gives %d"
                                       % (name, step * h, q, column[h], closed[step * h]))
    return [MomentReport(gid.value, [MomentRow(gid.n * h, direct[gid.n * h], chain[h])
                                     for h in range(1, len(chain))], elapsed_ms)
            for gid, chain, elapsed_ms in chains]
