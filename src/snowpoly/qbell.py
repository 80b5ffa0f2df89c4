"""q-Stirling and q-Bell numbers, staircase rook statistics, and the Hilbert
series of the top spans.

Univariate q-polynomials are plain tuples of integer coefficients indexed
by q-exponent, with trailing zeros trimmed.
"""

from __future__ import annotations

from math import inf
from operator import add
from typing import Callable, Iterable

from .compositions import enumerate_snowy_cn
from .diagrams import RookDiagram

QPolynomial = tuple[int, ...]


def qp_trim(coeffs: Iterable[int]) -> QPolynomial:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def qp_add(p: QPolynomial, q: QPolynomial) -> QPolynomial:
    n = max(len(p), len(q))
    return qp_trim(
        (p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)
    )


def qp_mul(p: QPolynomial, q: QPolynomial, degree_cap: int | None = None) -> QPolynomial:
    if not p or not q:
        return ()
    top = len(p) + len(q) - 2
    if degree_cap is not None:
        top = min(top, degree_cap)
    out = [0] * (top + 1)
    for i, a in enumerate(p):
        if a == 0 or i > top:
            continue
        for j, b in enumerate(q):
            if i + j > top:
                break
            out[i + j] += a * b
    return qp_trim(out)


def qp_rev(p: QPolynomial) -> QPolynomial:
    """Reverse the coefficient vector: q^deg * p(1/q)."""
    return qp_trim(reversed(p))


def _q_stirling_row(n: int, k: int) -> list[QPolynomial]:
    """q_stirling(n, j) for j = 0..k, built row by row from row 0 by
    S(m, j) = q^(j-1) S(m-1, j-1) + [j]_q S(m-1, j), on coefficient lists.
    Every coefficient is nonnegative, so no sum is ever trimmed."""

    def add_at(out: list[int], p: list[int], shift: int) -> None:
        out[shift : shift + len(p)] = map(add, out[shift : shift + len(p)], p)

    row: list[list[int]] = [[1]] + [[] for _ in range(k)]
    for _ in range(n):
        # high j first, so that row[j - 1] still holds the previous row
        for j in range(k, 0, -1):
            a, b = row[j - 1], row[j]
            if not a and not b:
                continue
            out = [0] * (max(len(a), len(b)) + j - 1)
            for shift in range(j):
                add_at(out, b, shift)
            add_at(out, a, j - 1)
            row[j] = out
        row[0] = []
    return [tuple(p) for p in row]


def q_stirling(n: int, k: int) -> QPolynomial:
    """q-analogue of the Stirling number of the second kind."""
    if n < 0 or k < 0:
        return ()
    return _q_stirling_row(n, k)[k]


def q_bell(n: int) -> QPolynomial:
    """Sum of the q-Stirling numbers over all part counts."""
    if n < 0:
        return ()
    total: QPolynomial = ()
    for s in _q_stirling_row(n, n):
        total = qp_add(total, s)
    return total


def stirling(n: int, k: int) -> int:
    """Stirling number of the second kind, built row by row from row 0."""
    if n < 0 or k < 0:
        return 0
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


def bell(n: int) -> int:
    """Bell number, by the Bell triangle: each row starts with the last
    entry of the row above and adds, left to right, the entry above; B(n)
    starts row n. 0 for negative n."""
    if n < 0:
        return 0
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
    return row[0]


# -- rook statistics -----------------------------------------------------------


def enumerate_rook_n(n: int) -> list[RookDiagram]:
    """Non-attacking rook diagrams inside the staircase of size n, one per
    snowy box composition alpha and in the order of enumerate_snowy_cn: the
    rook of row r sits in column alpha_r. The dark clouds of their key
    diagrams, the snow route, are the oracle in tests/test_qbell.py."""
    cols = range(1, n)
    masks = ([1 << a >> 1 for a in alpha] for alpha in enumerate_snowy_cn(n))
    return [RookDiagram._trusted(rows, cols) for rows in masks]


def gr_stat(rook: RookDiagram, n: int) -> int:
    """Unmarked staircase cells after each rook marks its column upward and
    its row leftward. The marks of a rook inside the staircase never leave
    it, so this is n(n-1)/2 - nw_stat(rook); the set-marking count is an
    oracle in tests/test_qbell.py. Raises ValueError for a rook outside the
    staircase of size n, or for two attacking cells, as RookDiagram does."""
    if n < 1:
        raise ValueError("staircase size must be positive")
    return n * (n - 1) // 2 - _nw_count(rook, n)


def nw_stat(rook: RookDiagram) -> int:
    """Number of positions weakly above or weakly left of some rook,
    which is raj of the snowy weak composition with these dark clouds.

    Rook (r, c) marks r + c - 1 positions. Two marked segments of different
    rooks meet only where the column of (r, c) crosses the row of a rook
    (r', c') with r' < r and c' > c, so the count is sum(r + c - 1) minus the
    number of such pairs, taken here row by row over a bitmask of the
    columns of the rooks above. Raises ValueError for two attacking cells,
    as RookDiagram does.
    """
    return _nw_count(rook, inf)


def _nw_count(rook: RookDiagram, n: float) -> int:
    """nw_stat(rook) in one walk over the rooks, which also checks that each
    lies in the staircase of size n: rook (r, c) does when r + c - 1 < n."""
    if not isinstance(rook, RookDiagram):
        rook = RookDiagram(rook)
    total = used = 0
    for r, c in rook:  # sorted by row
        marks = r + c - 1
        if marks >= n:
            raise ValueError(f"rook diagram is not contained in the staircase of size {n}")
        total += marks - (used >> (c + 1)).bit_count()
        used |= 1 << c
    return total


# -- Hilbert series --------------------------------------------------------------


def _rook_transfer(
    n: int, rows: Iterable[int], weight: Callable[[int, int, int], int]
) -> QPolynomial:
    """Generating polynomial of a statistic over the rook placements in the
    staircase of size n, summed row by row without listing the placements.

    Rows are visited in the given order; the state is the bitmask of
    columns (bit c for column c) used by the rows already visited.
    weight(r, c, used) is the increase of the statistic when row r takes a
    rook in column c, or stays empty when c is 0.
    """
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for r in rows:
        nxt: dict[int, dict[int, int]] = {}
        for used, counts in states.items():
            for c in range(n - r + 1):
                if c and used >> c & 1:
                    continue
                shift = weight(r, c, used)
                acc = nxt.setdefault(used | (1 << c) if c else used, {})
                for d, k in counts.items():
                    acc[d + shift] = acc.get(d + shift, 0) + k
        states = nxt
    total = [0] * (n * (n - 1) // 2 + 1)
    for counts in states.values():
        for d, k in counts.items():
            total[d] += k
    return qp_trim(total)


def _raj_weight(r: int, c: int, used: int) -> int:
    # rows bottom-up: alpha_r = c (0 for an empty row) plus the later rows
    # with a strictly larger entry
    return c + (used >> (c + 1)).bit_count()


def hilb_vn(n: int) -> QPolynomial:
    """Degree generating polynomial of the top span at level n: raj over the
    snowy box compositions, by a bottom-up transfer over rows that applies
    the closed formula raj(alpha) = sum(alpha) + #{r < r' : alpha_r < alpha_r'}.

    `verify.suite_qbell` compares it with the reversed q-Bell polynomial.
    The northwest transfer and the snow construction, placement by
    placement, are its oracles in tests/test_qbell.py.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _rook_transfer(n, range(n - 1, 0, -1), _raj_weight)


def hilb_v_truncated(n_degrees: int) -> QPolynomial:
    """Coefficients of the stable Hilbert series up to the given degree,
    from the product over m of (1 + q^m / (1 - q)) with 1/(1-q) expanded as
    a truncated geometric sum."""
    cap = n_degrees
    if cap < 0:
        raise ValueError("degree bound must be nonnegative")
    acc: QPolynomial = (1,)
    for m in range(1, cap + 1):
        factor = qp_trim([1] + [0] * (m - 1) + [1] * (cap - m + 1))
        acc = qp_mul(acc, factor, degree_cap=cap)
    return qp_trim((acc + (0,) * (cap + 1))[: cap + 1])


def hilb_v_stabilized(n_degrees: int) -> QPolynomial:
    """Degree-capped hilb_vn(n) once consecutive levels agree.

    Levels are increased until the truncations of two consecutive Hilbert
    polynomials coincide, with a hard cap of n_degrees + 2; failing to
    stabilize under the cap is an error, never silently accepted.
    """
    if n_degrees < 0:
        raise ValueError("degree bound must be nonnegative")
    cap = n_degrees + 2

    def truncated(n: int) -> QPolynomial:
        return qp_trim(hilb_vn(n)[: n_degrees + 1])

    prev = truncated(1)
    for n in range(2, cap + 1):
        cur = truncated(n)
        if cur == prev:
            return cur
        prev = cur
    raise ArithmeticError(
        f"Hilbert series failed to stabilize below degree {n_degrees + 1} with n <= {cap}"
    )
