"""Additive character sums over GF(3^r), exactly.

Every sum of values of the canonical character x -> omega^{tr(x)}
(omega a primitive cube root of unity) is tracked as an integer
combination of 1, omega, omega^2 and reduced through omega^2 = -1 - omega.
Kloosterman sums, their power moments over the square arguments, and the
solution counts delta(m, q; beta) of x_1 + 1/x_1 + ... + x_m + 1/x_m = beta
all come out as exact (big) integers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, admit

# Direct moment computations sweep all Kloosterman values over the squares,
# about q^2/2 character evaluations; this default admits r <= 7.
DEFAULT_OPS_LIMIT = 5_000_000


@dataclass(frozen=True)
class OmegaSum:
    """n0 + n1*omega + n2*omega^2 with integer coefficients."""

    n0: int = 0
    n1: int = 0
    n2: int = 0

    def reduce(self):
        """Canonical form A + B*omega."""
        return (self.n0 - self.n2, self.n1 - self.n2)

    @property
    def is_real(self) -> bool:
        return self.n1 == self.n2

    def value(self) -> int:
        """The integer value; valid only for real sums."""
        a, b = self.reduce()
        if b != 0:
            raise ConsistencyError(
                "character sum %r is not real (reduced to %d + %d*omega)" % (self, a, b)
            )
        return a

    def __add__(self, other):
        return OmegaSum(self.n0 + other.n0, self.n1 + other.n1, self.n2 + other.n2)


def omega_reduce(n0: int, n1: int, n2: int):
    """Reduce nonnegative counts of omega^0, omega^1, omega^2 to (A, B)."""
    if n0 < 0 or n1 < 0 or n2 < 0:
        raise DomainError("omega_reduce takes nonnegative counts")
    return OmegaSum(n0, n1, n2).reduce()


def kloosterman_omega(ctx, a: int) -> OmegaSum:
    """The accumulator of sum_{x != 0} omega^{tr(x) + tr(a/x)}, unreduced."""
    if not 0 < a < ctx.q:
        raise DomainError("Kloosterman argument must be a nonzero element, got %r" % (a,))
    q = ctx.q
    nz = np.arange(1, q)
    # tr is additive, so tr(x + a/x) = tr(x) + tr(a * inv(x)) mod 3
    e = (ctx._trace[nz] + ctx._trace[ctx._mul_vec(a, ctx._np_inv[nz])]) % 3
    c = np.bincount(e, minlength=3)
    return OmegaSum(int(c[0]), int(c[1]), int(c[2]))


def kloosterman(ctx, a: int) -> int:
    """Exact Kloosterman sum K(a) = sum_{x != 0} omega^{tr(x + a x^{-1})}."""
    return kloosterman_omega(ctx, a).value()


def kloosterman_on_squares(ctx):
    """K(a) for every nonzero square a, in ascending order of a (kept on ctx)."""
    if ctx._k_on_squares is None:
        ctx._k_on_squares = tuple(kloosterman(ctx, a) for a in ctx.squares())
    return ctx._k_on_squares


def sk_moment(ctx, h: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> int:
    """Direct h-th power moment of the Kloosterman sums over the nonzero squares."""
    if h < 0:
        raise DomainError("moment order must be nonnegative")
    if h == 0:
        return (ctx.q - 1) // 2
    admit("direct moment over GF(%d) (q^2/2 character evaluations)" % ctx.q,
          ctx.q * ctx.q // 2, ops_limit)
    return sum(k ** h for k in kloosterman_on_squares(ctx))


@dataclass(frozen=True)
class DeltaTable:
    """delta(m, q; beta) for every beta, indexed by element index."""

    m: int
    values: tuple

    def __getitem__(self, beta: int) -> int:
        return self.values[beta]

    def total(self) -> int:
        return sum(self.values)


def _delta_one(ctx) -> list:
    """Root counts of x^2 - beta*x + 1, cross-checked against the
    square-class case split of beta^2 - 1."""
    q = ctx.q
    nz = np.arange(1, q)
    vals = ctx._add_vec(nz, ctx._np_inv[nz])
    counts = np.bincount(vals, minlength=q)
    d1 = [int(c) for c in counts]
    for beta in range(q):
        s = ctx.sub(ctx.mul(beta, beta), 1)
        if s == 0:
            expect = 1
        elif ctx.is_square(s):
            expect = 2
        else:
            expect = 0
        if d1[beta] != expect:
            raise ConsistencyError(
                "delta(1, %d; %d) root count %d disagrees with the square-class "
                "value %d" % (q, beta, d1[beta], expect)
            )
    return d1


def delta_count(ctx, m: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> DeltaTable:
    """The table beta -> delta(m, q; beta), by additive convolution."""
    if m < 0:
        raise DomainError("m must be nonnegative")
    q = ctx.q
    if m == 0:
        return DeltaTable(0, tuple(1 if b == 0 else 0 for b in range(q)))
    if m >= 2:
        admit("delta(%d, %d) convolution (q^2/2 per step)" % (m, q), q * q // 2, ops_limit)
    d1 = _delta_one(ctx)
    cur = d1
    if m >= 2:
        d1_arr = np.array(d1, dtype=np.int64)
        for step in range(m - 1):
            # int64 is safe while the running maximum stays below 2^62
            if (q - 1) ** (step + 2) < 2 ** 62:
                nxt = np.zeros(q, dtype=np.int64)
                for g, w in enumerate(cur):
                    if w:
                        np.add.at(nxt, ctx._add_row(g), w * d1_arr)
                cur = [int(v) for v in nxt]
            else:
                nxt = [0] * q
                for g, w in enumerate(cur):
                    if w:
                        row = ctx._add_row(g)
                        for y, dv in enumerate(d1):
                            if dv:
                                nxt[row[y]] += w * dv
                cur = nxt
    table = DeltaTable(m, tuple(cur))
    if table.total() != (q - 1) ** m:
        raise ConsistencyError(
            "delta(%d, %d) table totals %d, expected %d"
            % (m, q, table.total(), (q - 1) ** m)
        )
    return table
