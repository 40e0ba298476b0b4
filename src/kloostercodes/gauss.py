"""Closed-form evaluation of the character sums sum_w psi(Tr w) over the
minus-type orthogonal groups, psi(x) = omega^{tr(ax)}, together with the
q-binomial coefficients and the GL(t, q) Kloosterman sum recursion that feed
into them.  The brute-force sums that check them are test oracles
(tests/oracles.py).
"""

from dataclasses import dataclass

from .charsums import DEFAULT_OPS_LIMIT, kloosterman
from .errors import DomainError


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


def _gl_chain(q: int, k: int, t_max: int) -> list:
    """[K_GL(0), ..., K_GL(t_max)] from K = K(a) by the exact recursion
    K_GL(s) = q^{s-1} K K_GL(s-1) + q^{2s-2} (q^{s-1} - 1) K_GL(s-2)."""
    chain = [1, k]
    for s in range(2, t_max + 1):
        chain.append(q ** (s - 1) * chain[-1] * k
                     + q ** (2 * s - 2) * (q ** (s - 1) - 1) * chain[-2])
    return chain[:t_max + 1]


def kloosterman_gl(ctx, t: int, a: int, *, ops_limit: int = DEFAULT_OPS_LIMIT):
    """Kloosterman sum over GL(t, q) for the canonical character, by the
    exact recursion in K = K(a); K_GL(0) = 1."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if not 0 < a < ctx.q:
        raise DomainError("argument a must be a nonzero element")
    if t == 0:
        return 1
    return _gl_chain(ctx.q, kloosterman(ctx, a, ops_limit=ops_limit), t)[t]


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
    kgl = _gl_chain(q, k, n - 1)

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
