"""Closed-form evaluation of the character sums sum_w psi(Tr w) over the
minus-type orthogonal groups, psi(x) = omega^{tr(ax)}, together with the
q-binomial coefficients and the GL(t, q) Kloosterman sum recursion that feed
into them.  The sum G(a) depends on a only through K(a^2): gauss_sum_of_k is
G as a function of that value, reads no field table, and is the one place
the package writes G down; gauss_sum_closed and ogroups.delta_form alone
read it, and the dual weights of codes and the constants of the moment
recursion come off that delta form.  The brute-force sums that check them
are test oracles (tests/oracles.py).

The values are exact integers of up to about q^(2n^2) (G over O-(2n,q)) or
q^(t^2) (K_GL(t)), and their cost grows with that size, so each job is
admitted first at W^2 operations, W the number of 64-bit words of that
bound: one schoolbook product at the final size.
"""

from dataclasses import dataclass

from .charsums import DEFAULT_OPS_LIMIT, kloosterman
from .errors import ConsistencyError, DomainError, admit, integer


def q_binomial(n: int, r: int, q: int):
    """Gaussian binomial coefficient, exact."""
    n = integer(n, 0, "q_binomial needs n >= 0")
    r = integer(r, 0, "q_binomial needs 0 <= r <= n", n)
    q = integer(q, 2, "the field size q must be at least 2")
    out = 1
    for i in range(1, r + 1):
        num = out * (q ** (n - r + i) - 1)
        den = q ** i - 1
        out, rem = divmod(num, den)
        if rem:
            raise ConsistencyError("q_binomial(%d, %d, %d) is non-integral at i=%d" % (n, r, q, i))
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


def _admit_size(what: str, q: int, exponent: int, ops_limit: int) -> None:
    """Admit a job on exact integers of up to about q^exponent, at W^2
    operations for W 64-bit words; the estimate needs no big integer."""
    words = exponent * q.bit_length() // 64 + 1
    admit("%s (integers up to %d^%d: W^2 for W = %d words)" % (what, q, exponent, words),
          words * words, ops_limit)


def kloosterman_gl(ctx, t: int, a: int, *, ops_limit: int = DEFAULT_OPS_LIMIT):
    """Kloosterman sum over GL(t, q) for the canonical character, by the
    exact recursion in K = K(a); K_GL(0) = 1."""
    t = integer(t, 0, "t must be nonnegative")
    a = integer(a, 1, "argument a must be a nonzero element", ctx.q - 1)
    _admit_size("K_GL(%d) over GF(%d)" % (t, ctx.q), ctx.q, t * t, ops_limit)
    if t == 0:
        return 1
    return _gl_chain(ctx.q, kloosterman(ctx, a, ops_limit=ops_limit), t)[t]


@dataclass(frozen=True)
class GaussSumRequest:
    """Character sum over SO-(2n, q) or O-(2n, q) with psi(x) = omega^{tr(ax)}."""

    n: int
    variant: str  # "so" or "o"
    a: int


def gauss_sum_of_k(q: int, n: int, variant: str, k: int) -> int:
    """G = sum_w psi(Tr w) over SO-(2n,q) (variant "so") or O-(2n,q) ("o")
    for every a with K(a^2) = k; reads no field table."""
    q = integer(q, 2, "the field size q must be at least 2")
    n = integer(n, 1, "the rank n must be positive")
    k = integer(k, None, "K(a^2) must be an integer")
    kgl = _gl_chain(q, k, n - 1)
    sums = [0, 0]  # over the even s and over the odd s
    for s in range(n):
        h = (s + 1) // 2  # ceil(s/2): s^2 // 4 = h^2 for an even s, (s + 1)^2 // 4 for an odd one
        sums[s % 2] += (q_binomial(n - 1, s, q) * kgl[n - 1 - s]
                        * q ** (s * n - h * h) * _odd_power_product(q, h))
    even_sum, odd_sum = sums
    pre = q ** ((n - 1) * (n + 2) // 2)
    if variant == "so":
        return -pre * (k * even_sum + (q + 1) * odd_sum)
    return pre * (-k + q + 1) * (even_sum - odd_sum)


def gauss_sum_closed(ctx, req: GaussSumRequest, *, ops_limit: int = DEFAULT_OPS_LIMIT):
    """Exact value of sum_w psi(Tr w) over the requested group: one read of
    K(a^2), then gauss_sum_of_k.  Admitted under ops_limit at the size of
    |O-(2n,q)| < q^(2n^2) before K is read.

    Independent enumeration cross-checks exist only for n <= 2, so values
    for larger n are reported as computed.
    """
    n = integer(req.n, 1, "half-rank n must be >= 1")
    if req.variant not in ("so", "o"):
        raise DomainError("variant must be 'so' or 'o'")
    a = integer(req.a, 1, "character scaling a must be a nonzero element", ctx.q - 1)
    _admit_size("Gauss sum over %s-(2*%d, %d)" % (req.variant.upper(), n, ctx.q),
                ctx.q, 2 * n * n, ops_limit)
    k = kloosterman(ctx, ctx.mul(a, a), ops_limit=ops_limit)
    return gauss_sum_of_k(ctx.q, n, req.variant, k)
