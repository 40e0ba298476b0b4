"""The minus-type orthogonal groups SO-(2,q), O-(2,q), SO-(4,q) over GF(3^r).

Provides exhaustive enumeration (small q) with trace histograms, and the
exact closed-form histograms valid for every q.  Matrices are stored as flat
row-major tuples of element indices.  The defining form uses the block
diag(1, -eps) with eps the fixed nonsquare chosen by the field context, and
the canonical element order is ascending row-major entry tuples, which pins
the coordinate order of the associated codes.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import charsums
from .errors import ConsistencyError, DomainError, admit

class GroupId(enum.Enum):
    SO2 = "so2"
    O2 = "o2"
    SO4 = "so4"

    @property
    def dim(self) -> int:
        return 4 if self is GroupId.SO4 else 2


def so_minus_order(n: int, q: int) -> int:
    """|SO-(2n, q)|."""
    out = q ** (n * n - n) * (q ** n + 1)
    for j in range(1, n):
        out *= q ** (2 * j) - 1
    return out


def o_minus_order(n: int, q: int) -> int:
    """|O-(2n, q)| = 2 |SO-(2n, q)|."""
    return 2 * so_minus_order(n, q)


def group_order(gid: GroupId, q: int) -> int:
    if gid is GroupId.SO2:
        return so_minus_order(1, q)
    if gid is GroupId.O2:
        return o_minus_order(1, q)
    return so_minus_order(2, q)


@dataclass(frozen=True)
class TraceHistogram:
    """beta -> number of group elements of matrix trace beta."""

    counts: tuple

    def __getitem__(self, beta: int) -> int:
        return self.counts[beta]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict:
        return {b: c for b, c in enumerate(self.counts) if c}


# -- matrix helpers (flat row-major tuples of element indices) --------------

def mat_trace(ctx, a, dim: int) -> int:
    t = 0
    for i in range(dim):
        t = ctx.add(t, a[i * dim + i])
    return t


def mat_det(ctx, a, dim: int) -> int:
    if dim == 1:
        return a[0]
    rows = [list(a[i * dim:(i + 1) * dim]) for i in range(dim)]

    def det(r):
        n = len(r)
        if n == 1:
            return r[0][0]
        total = 0
        for c in range(n):
            if r[0][c] == 0:
                continue
            minor = [row[:c] + row[c + 1:] for row in r[1:]]
            term = ctx.mul(r[0][c], det(minor))
            total = ctx.add(total, term) if c % 2 == 0 else ctx.sub(total, term)
        return total

    return det(rows)


def j_form(ctx, n: int):
    """The defining 2n x 2n symmetric form, flat row-major."""
    dim = 2 * n
    m = [0] * (dim * dim)
    for i in range(n - 1):
        m[i * dim + (n - 1 + i)] = 1
        m[(n - 1 + i) * dim + i] = 1
    m[(dim - 2) * dim + (dim - 2)] = 1
    m[(dim - 1) * dim + (dim - 1)] = ctx.neg(ctx.epsilon)
    return tuple(m)


def _so2_elements(ctx):
    """The q + 1 matrices (a, eps b; b, a) with a^2 - eps b^2 = 1, ascending.

    For each a, b^2 = (a^2 - 1)/eps has the root b = 0 when a^2 = 1, the two
    roots +-g^(l/2) when (a^2 - 1)/eps = g^l with l even, and none otherwise;
    the log tables find them for every a at once."""
    q, eps = ctx.q, ctx.epsilon
    a = np.arange(q)
    rhs = ctx._mul_vec(ctx.inv(eps), ctx._sq_minus_one())
    zero = rhs == 0
    rooted = ~zero & (ctx._np_log[rhs] % 2 == 0)
    root = ctx._np_exp[ctx._np_log[rhs[rooted]] // 2]
    a_col = np.concatenate([a[zero], a[rooted], a[rooted]])
    b_col = np.concatenate([np.zeros(np.count_nonzero(zero), dtype=np.int64),
                            root, ctx._np_neg[root]])
    be_col = ctx._mul_vec(eps, b_col)
    order = np.lexsort((be_col, a_col))
    rows = np.stack([a_col, be_col, b_col, a_col], axis=1)[order]
    return [tuple(w) for w in rows.tolist()]


def _o2_elements(ctx):
    out = []
    for (a, be, b, a2) in _so2_elements(ctx):
        out.append((a, be, b, a2))
        # left coset by diag(1, -1): negates the bottom row
        out.append((a, be, ctx.neg(b), ctx.neg(a2)))
    out.sort()
    return out


def _mul_table(ctx):
    q = ctx.q
    t = np.zeros((q, q), dtype=np.int64)
    logs = ctx._np_log
    nz = np.arange(1, q)
    t[1:, 1:] = ctx._np_exp[(logs[nz][:, None] + logs[nz][None, :]) % (q - 1)]
    return t


def _add_table(ctx):
    d = ctx._digits.astype(np.int64)
    return ((d[:, None, :] + d[None, :, :]) % 3) @ ctx._pow3


def _so4_elements(ctx):
    """Complete search of all q^16 4x4 matrices for the defining relation and
    determinant 1, organised as a hash join over the two row halves.

    transpose(w) J w depends on the rows r0..r3 of w through
    outer(r0,r1) + outer(r1,r0) + outer(r2,r2) - eps*outer(r3,r3), so the
    matrices splitting as (top rows, bottom rows) match exactly when the two
    half contributions pack to equal keys.  Every one of the q^16 candidate
    matrices is covered, while the work is two key tables of q^8 rows of 16
    entries each.
    """
    q = ctx.q
    eps = ctx.epsilon
    add_t = _add_table(ctx)
    mul_t = _mul_table(ctx)

    m = q ** 4
    idx = np.arange(m)
    vecs = np.stack([(idx // q ** 3) % q, (idx // q ** 2) % q, (idx // q) % q, idx % q], axis=1)

    jm = np.array(j_form(ctx, 2), dtype=np.int64).reshape(4, 4)
    # q^16 fits int64 for q <= 9; at q = 27 the (q^8, 16) tables below
    # cannot even be allocated
    powers = (q ** np.arange(15, -1, -1)).astype(np.int64)

    # top halves: A = outer(r0, r1) + outer(r1, r0)
    outer = mul_t[vecs[:, None, :, None], vecs[None, :, None, :]]  # (m, m, 4, 4)
    top = add_t[outer, outer.transpose(0, 1, 3, 2)]
    top_keys = top.reshape(m * m, 16) @ powers

    # bottom halves: want A == J - outer(r2, r2) + eps*outer(r3, r3)
    self_outer = mul_t[vecs[:, :, None], vecs[:, None, :]]  # (m, 4, 4)
    eps_outer = mul_t[eps][self_outer]
    j_minus = add_t[jm[None, :, :], ctx._np_neg[self_outer]]  # (m, 4, 4)
    want = add_t[j_minus[:, None], eps_outer[None, :]]  # (m, m, 4, 4)
    want_keys = want.reshape(m * m, 16) @ powers

    order = np.argsort(top_keys, kind="stable")
    sorted_keys = top_keys[order]
    lo = np.searchsorted(sorted_keys, want_keys, side="left")
    hi = np.searchsorted(sorted_keys, want_keys, side="right")

    rows = [tuple(v) for v in vecs.tolist()]  # Python ints, not numpy scalars
    out = []
    hits = np.nonzero(hi > lo)[0]
    for flat_bot in hits:
        bi, bj = divmod(int(flat_bot), m)
        bottom = rows[bi] + rows[bj]
        for t in order[lo[flat_bot]:hi[flat_bot]]:
            ti, tj = divmod(int(t), m)
            w = rows[ti] + rows[tj] + bottom
            if mat_det(ctx, w, 4) == 1:
                out.append(w)
    out.sort()
    return out


@dataclass(frozen=True)
class GroupEnumeration:
    group: GroupId
    elements: tuple
    histogram: TraceHistogram


def enumerate_group(ctx, gid: GroupId, *,
                    ops_limit: int = charsums.DEFAULT_OPS_LIMIT) -> GroupEnumeration:
    """All elements of the group in canonical (ascending row-major) order,
    with their trace histogram.  SO-(2, q) and O-(2, q) solve for b at every
    a through the log tables; SO-(4, q) is searched exhaustively by a hash
    join of 32 q^8 operations, feasible only at q = 3 under the default
    limit.  The result is kept on ctx, and the limit is checked before it is
    looked up."""
    q = ctx.q
    if gid is GroupId.SO4:
        admit("enumerating SO-(4,%d) (a hash join of two q^8-row key tables of 16 "
              "entries, 32 q^8; histogram_closed_form gives the histogram for every q)"
              % q, 32 * q ** 8, ops_limit)
    elif gid in (GroupId.SO2, GroupId.O2):
        admit("enumerating %s(%d) (one digitwise pass over the q values of a, q*r + q; "
              "histogram_closed_form gives the histogram for every q)" % (gid.value, q),
              q * ctx.r + q, ops_limit)
    else:
        raise DomainError("unknown group %r" % (gid,))
    hit = ctx._enumerations.get(gid)
    if hit is not None:
        return hit
    builders = {GroupId.SO2: _so2_elements, GroupId.O2: _o2_elements, GroupId.SO4: _so4_elements}
    els = builders[gid](ctx)
    dim = gid.dim
    counts = [0] * q
    for w in els:
        counts[mat_trace(ctx, w, dim)] += 1
    expected = group_order(gid, q)
    if len(els) != expected:
        raise ConsistencyError(
            "enumerated %d elements of %s over GF(%d), expected %d"
            % (len(els), gid.value, q, expected)
        )
    result = GroupEnumeration(gid, tuple(els), TraceHistogram(tuple(counts)))
    ctx._enumerations[gid] = result
    return result


def histogram_closed_form(ctx, gid: GroupId, *, ops_limit: int = charsums.DEFAULT_OPS_LIMIT) -> TraceHistogram:
    """Exact trace histogram from the square-class case splits; valid for
    any q, no enumeration involved."""
    q = ctx.q
    if gid in (GroupId.SO2, GroupId.O2):
        # 1 element of SO-(2,q) where beta^2 = 1, 2 where beta^2 - 1 is a
        # nonsquare, none where it is a nonzero square
        counts = (1 - ctx._chi_sq_minus_one()).tolist()
        if gid is GroupId.O2:
            # beta = 0 is the only point with beta^2 - 1 = -1; the whole
            # trace-zero coset of SO-(2,q) lands here
            counts[0] = q + 1 if ctx.r % 2 == 0 else q + 3
    else:
        # q^2 (q^3 + q^2 + q - 3 - delta(2; beta)), and q^2 (q^2 + 2q - 3 -
        # delta(2; 0)) at beta = 0: the inner term in int64 while q^3 < 2^62,
        # then one Python-int product per entry, since the counts pass 2^63
        # from r = 7 on
        d2 = charsums.delta_count(ctx, 2, ops_limit=ops_limit).values
        dtype = np.int64 if q ** 3 < 2 ** 62 else object
        inner = q ** 3 + q * q + q - 3 - np.array(d2, dtype=dtype)
        inner[0] -= q ** 3 - q
        counts = [q * q * x for x in inner.tolist()]
    hist = TraceHistogram(tuple(counts))
    expected = group_order(gid, q)
    if hist.total != expected:
        raise ConsistencyError(
            "closed-form histogram for %s over GF(%d) totals %d, expected %d"
            % (gid.value, q, hist.total, expected)
        )
    return hist
