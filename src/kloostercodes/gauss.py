"""Closed-form evaluation of the character sums sum_w psi(Tr w) over the
minus-type orthogonal groups, psi(x) = omega^{tr(ax)}, together with the
q-binomial coefficients, the nonsingular-symmetric-matrix sums b_r, and the
GL(t, q) Kloosterman sum recursion that feed into them.  Brute-force
counterparts are included as oracles for the small cases.
"""

import itertools
from dataclasses import dataclass

from .charsums import DEFAULT_OPS_LIMIT, OmegaSum, kloosterman
from .errors import DomainError
from .ogroups import GroupId, enumerate_group

__all__ = [
    "GaussSumRequest",
    "q_binomial",
    "b_r_closed",
    "b_r_bruteforce",
    "kloosterman_gl",
    "kloosterman_gl_bruteforce",
    "gauss_sum_closed",
    "gauss_sum_enumerated",
]


def q_binomial(n: int, r: int, q: int):
    """Gaussian binomial coefficient, exact."""
    if r < 0 or r > n:
        raise DomainError("q_binomial needs 0 <= r <= n, got n=%d r=%d" % (n, r))
    out = 1
    for i in range(1, r + 1):
        num = out * (q ** (n - r + i) - 1)
        den = q ** i - 1
        out, rem = divmod(num, den)
        assert rem == 0
    return out


def _odd_power_product(q: int, upto: int):
    """prod_{j=1}^{upto} (q^{2j-1} - 1)."""
    out = 1
    for j in range(1, upto + 1):
        out *= q ** (2 * j - 1) - 1
    return out


def b_r_closed(r: int, q: int):
    """Character sum over nonsingular symmetric r x r matrices paired with
    r x 2 blocks against diag(1, -eps); independent of which nontrivial
    character is used.  r = 0 gives the empty product 1."""
    if r < 0:
        raise DomainError("r must be nonnegative")
    if r == 0:
        return 1
    if r % 2 == 0:
        return q ** (r * (r + 6) // 4) * _odd_power_product(q, r // 2)
    return -(q ** ((r * r + 4 * r - 1) // 4)) * _odd_power_product(q, (r + 1) // 2)


def _symmetric_nonsingular(ctx, r: int):
    """All nonsingular symmetric r x r matrices, as row-major tuples."""
    from .ogroups import mat_det

    out = []
    pos = [(i, j) for i in range(r) for j in range(i, r)]
    for vals in itertools.product(range(ctx.q), repeat=len(pos)):
        m = [[0] * r for _ in range(r)]
        for (i, j), v in zip(pos, vals):
            m[i][j] = v
            m[j][i] = v
        flat = tuple(x for row in m for x in row)
        if mat_det(ctx, flat, r) != 0:
            out.append(flat)
    return out


def b_r_bruteforce(ctx, r: int, a: int = 1) -> int:
    """Literal double sum defining b_r, with psi(x) = omega^{tr(ax)}.
    Exponential in r; intended for r <= 2 as an oracle."""
    if r < 1 or r > 3:
        raise DomainError("brute-force b_r supported for 1 <= r <= 3")
    if a == 0:
        raise DomainError("psi must be nontrivial (a != 0)")
    eps = ctx.epsilon
    acc = [0, 0, 0]
    for bmat in _symmetric_nonsingular(ctx, r):
        rows = [bmat[i * r:(i + 1) * r] for i in range(r)]
        for h in itertools.product(range(ctx.q), repeat=2 * r):
            hcols = [h[0::2], h[1::2]]  # two columns, each of length r
            # Tr(diag(1, -eps) h^T B h) = (h^T B h)_00 - eps (h^T B h)_11
            vals = []
            for c in range(2):
                s = 0
                for i in range(r):
                    for j in range(r):
                        s = ctx.add(s, ctx.mul(hcols[c][i], ctx.mul(rows[i][j], hcols[c][j])))
                vals.append(s)
            arg = ctx.sub(vals[0], ctx.mul(eps, vals[1]))
            acc[ctx.trace(ctx.mul(a, arg))] += 1
    return OmegaSum(*acc).value()


def kloosterman_gl(ctx, t: int, a: int, *, ops_limit: int = DEFAULT_OPS_LIMIT):
    """Kloosterman sum over GL(t, q) for the canonical character, by the
    exact recursion in K = K(a); K_GL(0) = 1."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if not 0 < a < ctx.q:
        raise DomainError("argument a must be a nonzero element")
    if t == 0:
        return 1
    q = ctx.q
    k = kloosterman(ctx, a, ops_limit=ops_limit)
    prev2, prev1 = 1, k  # K_GL(0), K_GL(1)
    if t == 1:
        return k
    for s in range(2, t + 1):
        cur = q ** (s - 1) * prev1 * k + q ** (2 * s - 2) * (q ** (s - 1) - 1) * prev2
        prev2, prev1 = prev1, cur
    return prev1


def kloosterman_gl_bruteforce(ctx, t: int, a: int) -> int:
    """sum over w in GL(t, q) of omega^{tr(Tr w + a Tr w^{-1})}; t <= 2."""
    if not 0 < a < ctx.q:
        raise DomainError("argument a must be a nonzero element")
    if t == 0:
        return 1
    acc = [0, 0, 0]
    if t == 1:
        for w in range(1, ctx.q):
            acc[(ctx.trace(w) + ctx.trace(ctx.mul(a, ctx.inv(w)))) % 3] += 1
        return OmegaSum(*acc).value()
    if t != 2:
        raise DomainError("brute-force GL sum supported for t <= 2")
    for m in itertools.product(range(ctx.q), repeat=4):
        det = ctx.sub(ctx.mul(m[0], m[3]), ctx.mul(m[1], m[2]))
        if det == 0:
            continue
        tr_w = ctx.add(m[0], m[3])
        tr_inv = ctx.mul(ctx.inv(det), tr_w)  # adjugate: Tr w^{-1} = Tr w / det
        acc[(ctx.trace(tr_w) + ctx.trace(ctx.mul(a, tr_inv))) % 3] += 1
    return OmegaSum(*acc).value()


@dataclass(frozen=True)
class GaussSumRequest:
    """Character sum over SO-(2n, q) or O-(2n, q) with psi(x) = omega^{tr(ax)}."""

    n: int
    variant: str  # "so" or "o"
    a: int


def gauss_sum_closed(ctx, req: GaussSumRequest, *, ops_limit: int = DEFAULT_OPS_LIMIT):
    """Exact value of sum_w psi(Tr w) over the requested group.

    Cheap for any n; independent enumeration cross-checks exist only for
    n <= 2, so values for larger n are reported as computed.
    """
    n, a = req.n, req.a
    if n < 1:
        raise DomainError("half-rank n must be >= 1")
    if req.variant not in ("so", "o"):
        raise DomainError("variant must be 'so' or 'o'")
    if not 0 < a < ctx.q:
        raise DomainError("character scaling a must be a nonzero element")
    q = ctx.q
    a_sq = ctx.mul(a, a)
    k = kloosterman(ctx, a_sq, ops_limit=ops_limit)
    kgl = {t: kloosterman_gl(ctx, t, a_sq, ops_limit=ops_limit) for t in range(n)}

    even_sum = 0
    odd_sum = 0
    for s in range(n):
        base = q_binomial(n - 1, s, q) * kgl[n - 1 - s]
        if s % 2 == 0:
            even_sum += base * q ** (s * n - s * s // 4) * _odd_power_product(q, s // 2)
        else:
            odd_sum += base * q ** (s * n - (s + 1) ** 2 // 4) * _odd_power_product(q, (s + 1) // 2)
    pre = q ** ((n - 1) * (n + 2) // 2)
    if req.variant == "so":
        return -pre * (k * even_sum + (q + 1) * odd_sum)
    return pre * (-k + q + 1) * (even_sum - odd_sum)


def gauss_sum_enumerated(ctx, gid: GroupId, a: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> int:
    """Oracle: the same sum evaluated from the enumerated trace histogram,
    sum_beta n(beta) omega^{tr(a beta)}."""
    if not 0 < a < ctx.q:
        raise DomainError("character scaling a must be a nonzero element")
    hist = enumerate_group(ctx, gid, ops_limit=ops_limit).histogram
    acc = [0, 0, 0]
    for beta, count in enumerate(hist.counts):
        if count:
            acc[ctx.trace(ctx.mul(a, beta))] += count
    return OmegaSum(*acc).value()
