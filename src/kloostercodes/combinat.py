"""Exact combinatorial helpers used by the moment code."""

_STIRLING_ROWS = [[1]]  # row h holds S(h, 0..h)


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind S(h, t), exact, 0 outside 0 <= t <= h."""
    if h < 0 or t < 0:
        raise ValueError("stirling2 arguments must be nonnegative")
    if t > h:
        return 0
    while len(_STIRLING_ROWS) <= h:
        prev = _STIRLING_ROWS[-1]
        n = len(_STIRLING_ROWS)
        row = [0] * (n + 1)
        for j in range(1, n + 1):
            row[j] = j * (prev[j] if j < n else 0) + prev[j - 1]
        _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[h][t]
