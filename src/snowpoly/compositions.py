"""Weak compositions: snowiness, rajcode equivalence and snowy representatives.

A weak composition is stored as a tuple of nonnegative integers with
trailing zeros trimmed, the canonical finite form of an eventually-zero
sequence.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from . import diagrams
from .diagrams import RookDiagram

Composition = tuple[int, ...]


def canonical(alpha: Iterable[int]) -> Composition:
    """Validate entries and trim trailing zeros.

    >>> canonical([0, 2, 1, 0])
    (0, 2, 1)
    """
    alpha = tuple(map(int, alpha))
    if alpha and min(alpha) < 0:
        raise ValueError("weak composition entries must be nonnegative")
    while alpha and alpha[-1] == 0:
        alpha = alpha[:-1]
    return alpha


def is_snowy(alpha: Iterable[int]) -> bool:
    """True when the positive entries are pairwise distinct."""
    positives = [a for a in alpha if a > 0]
    return len(positives) == len(set(positives))


def rajcode(alpha: Iterable[int]) -> Composition:
    """rajcode of the key diagram of alpha."""
    return tuple(diagrams._key_snow(canonical(alpha))[1])


def raj(alpha: Iterable[int]) -> int:
    return sum(rajcode(alpha))


def dark_inverse(rook) -> Composition:
    """The snowy weak composition whose dark clouds are the given rooks."""
    if not isinstance(rook, RookDiagram):
        rook = RookDiagram(rook)
    if not rook.cells:
        return ()
    top = max(r for r, _ in rook.cells)
    cols = {r: c for r, c in rook.cells}
    return canonical(cols.get(r, 0) for r in range(1, top + 1))


def snowy_representative(alpha: Iterable[int]) -> Composition:
    """The unique snowy weak composition with the same rajcode as alpha:
    entry r is the column of the dark cloud in row r of the key diagram, 0
    when there is none. The last row of the key diagram always holds one,
    so the result has no trailing zeros."""
    return tuple(diagrams._key_snow(canonical(alpha))[0])


def raj_equivalent(alpha: Iterable[int], gamma: Iterable[int]) -> bool:
    """True when the two weak compositions have equal rajcodes."""
    return rajcode(alpha) == rajcode(gamma)


def s_action(alpha: Iterable[int], i: int) -> Composition:
    """Swap entries i and i+1, padding with zeros as needed.

    >>> s_action((1,), 1)
    (0, 1)
    """
    if i < 1:
        raise ValueError("index must be positive")
    xs = list(canonical(alpha))
    while len(xs) < i + 1:
        xs.append(0)
    xs[i - 1], xs[i] = xs[i], xs[i - 1]
    return canonical(xs)


def in_cn(alpha: Iterable[int], n: int) -> bool:
    """Membership in the box: support within the first n-1 rows and
    entry r at most n - r."""
    alpha = canonical(alpha)
    if len(alpha) > n - 1:
        return False
    return all(a <= n - r for r, a in enumerate(alpha, start=1))


def enumerate_cn(n: int) -> list[Composition]:
    """All weak compositions with support in [n-1] and entry r at most n-r,
    in lexicographic order; there are n! of them."""
    if n < 1:
        raise ValueError("n must be positive")
    return [
        canonical(vec)
        for vec in product(*(range(n - r + 1) for r in range(1, n)))
    ]


def enumerate_snowy_cn(n: int) -> list[Composition]:
    """The snowy members of the box, in lexicographic order: row r holds 0
    or a column at most n - r that no earlier row uses. These are the rook
    placements in the staircase, alpha_r being the column of the rook in
    row r, so there are Bell(n) of them; the brute-force filter of
    enumerate_cn is kept as a test oracle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    prefixes: list[tuple[int, ...]] = [()]
    for r in range(1, n):
        prefixes = [a + (c,) for a in prefixes for c in range(n - r + 1) if c == 0 or c not in a]
    return [canonical(a) for a in prefixes]


def snowy_from_rajcode(mu: Iterable[int]) -> Composition:
    """Recover the unique snowy weak composition with the given rajcode.

    Dark clouds are rebuilt row by row from the bottom: the rajcode entry of
    a row equals the number of columns already darkened below it, plus, when
    the row itself holds a dark cloud in the k-th free column, the index k.
    Raises ValueError when mu is not the rajcode of any weak composition.

    Every k >= 0 yields a row of the right weight: a dark cloud in the k-th
    free column sits in column k plus the dark columns below it to its
    left, and the rajcode entry of that row adds the dark columns below it
    to its right; an empty row has only the dark columns below it. So the
    result always has rajcode mu, and the k < 0 test alone rejects exactly
    the non-rajcodes.
    """
    mu = canonical(mu)
    alpha = [0] * len(mu)
    taken = 0  # bit c set: column c is dark strictly below the current row
    for r in range(len(mu), 0, -1):
        k = mu[r - 1] - taken.bit_count()
        if k < 0:
            raise ValueError(f"{mu} is not a rajcode")
        if k > 0:
            col = 0
            while k:
                col += 1
                if not taken >> col & 1:
                    k -= 1
            alpha[r - 1] = col
            taken |= 1 << col
    return canonical(alpha)
