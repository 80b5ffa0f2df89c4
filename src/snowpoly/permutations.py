"""Permutations in one-line notation and their insertion-flavored statistics.

Permutations act on {1, 2, ...} and move only finitely many values; the
canonical form trims the fixed tail, so the identity is the empty tuple.
Schensted insertion here uses the decreasing convention: rows and columns
of a partial tableau decrease, and the word is inserted from its last
letter to its first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations as _iter_permutations
from operator import index
from typing import Iterable, Iterator, NamedTuple

Permutation = tuple[int, ...]


def _one_line(w: Iterable[int]) -> Permutation:
    """The tuple of w, untrimmed. Raises ValueError unless w is a
    permutation of 1..len(w), integer entries included."""
    try:
        w = tuple(map(index, w))
    except TypeError as err:
        raise ValueError(f"not a permutation: {err}") from None
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
    return w


def canonical(w: Iterable[int]) -> Permutation:
    """Validate one-line notation and trim the fixed tail.

    >>> canonical((2, 1, 3, 4))
    (2, 1)
    """
    w = _one_line(w)
    while w and w[-1] == len(w):
        w = w[:-1]
    return w


def inverse(w: Iterable[int]) -> Permutation:
    """The inverse in one-line notation of the same length as w. Raises
    ValueError when w is not a permutation."""
    w = _one_line(w)
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! one-line tuples of S_n, in lexicographic order."""
    return _iter_permutations(range(1, n + 1))


def parse_one_line(text: str) -> Permutation:
    """Parse one-line notation: bare digits up to S_9, else comma-separated.

    >>> parse_one_line("3721564")[:3]
    (3, 7, 2)
    >>> parse_one_line("10,1,2,3,4,5,6,7,8,9")[0]
    10
    """
    text = text.strip()
    if "," in text:
        values = [int(part) for part in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation {text!r}")
        values = [int(ch) for ch in text]
    return _one_line(values)


# -- inversion statistics ---------------------------------------------------


def inversions(w: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Pairs (i, j) with i < j and w(i) > w(j)."""
    w = tuple(w)
    return frozenset(
        (i + 1, j + 1)
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def invcode(w: Iterable[int]) -> tuple[int, ...]:
    """Inversions counted by their first index, trailing zeros trimmed."""
    w = tuple(w)
    code = [sum(1 for j in range(i + 1, len(w)) if w[i] > w[j]) for i in range(len(w))]
    while code and code[-1] == 0:
        code.pop()
    return tuple(code)


def lis_lengths(w: Iterable[int]) -> list[int]:
    """Entry k is the length of the longest increasing subsequence starting
    at position k + 1, for every position in one right-to-left pass.

    The pass is patience sorting: neg[k] is minus the largest value that
    starts an increasing subsequence of length k + 1 in the suffix seen so
    far, so neg increases and one bisection finds each length. Only the
    order of the values matters, never their size.

    >>> lis_lengths((3, 7, 2, 1, 5, 6, 4))
    [3, 1, 3, 3, 2, 1, 1]
    """
    w = tuple(w)
    neg: list[int] = []
    lengths = [0] * len(w)
    for i in range(len(w) - 1, -1, -1):
        x = -w[i]
        k = bisect_left(neg, x)
        if k == len(neg):
            neg.append(x)
        else:
            neg[k] = x
        lengths[i] = k + 1
    return lengths


def lis_from(w: Iterable[int], q: int) -> int:
    """Length of the longest increasing subsequence starting with the value q."""
    w = tuple(w)
    if q not in w:
        raise ValueError(f"value {q} does not occur in {w}")
    return lis_lengths(w)[w.index(q)]


def rajcode(w: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Entry r is n + 1 - r minus the longest increasing subsequence length
    starting at w(r), for w padded with its fixed points up to n.

    The padded values exceed every value of w and follow it, so each adds
    one to every such length and the padding cancels: entry r is
    len(w) + 1 - r minus the length in w itself, and zero past w. The
    trimmed result does not depend on the ambient n."""
    w = canonical(w)
    if n is not None and n < len(w):
        raise ValueError(f"permutation moves values beyond {n}")
    code = [len(w) - r - lis for r, lis in enumerate(lis_lengths(w))]
    while code and code[-1] == 0:
        code.pop()
    return tuple(code)


def raj(w: Iterable[int], n: int | None = None) -> int:
    return sum(rajcode(w, n))


# -- fireworks classification ------------------------------------------------


def decreasing_runs(seq: Iterable[int]) -> list[list[int]]:
    """Split into maximal decreasing runs.

    >>> decreasing_runs((3, 4, 2, 1))
    [[3], [4, 2, 1]]
    """
    runs: list[list[int]] = []
    for v in seq:
        if runs and v < runs[-1][-1]:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def is_fireworks(w: Iterable[int]) -> bool:
    """True when the initial elements of the decreasing runs increase."""
    heads = [run[0] for run in decreasing_runs(w)]
    return all(a < b for a, b in zip(heads, heads[1:]))


def is_inverse_fireworks(w: Iterable[int]) -> bool:
    return is_fireworks(inverse(tuple(w)))


# -- Schensted insertion ------------------------------------------------------


class RowOneEvent(NamedTuple):
    """What happened in row one when w(position) was inserted."""

    position: int
    value: int
    kind: str  # "append" or "bump"
    bumped: int | None
    column: int


def schensted(w: Iterable[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[RowOneEvent, ...]]:
    """Insert w(n), ..., w(1) into the empty tableau, decreasing convention.

    Returns the final partial tableau (rows, left to right decreasing) and
    the trace of row-one events in insertion order. Inserting x bumps the
    largest row entry smaller than x, or is appended when none exists.
    """
    w = tuple(w)
    rows: list[list[int]] = []
    events: list[RowOneEvent] = []
    for position in range(len(w), 0, -1):
        x = w[position - 1]
        row_one_event: RowOneEvent | None = None
        depth = 0
        while True:
            if depth == len(rows):
                rows.append([x])
                if depth == 0:
                    row_one_event = RowOneEvent(position, x, "append", None, 1)
                break
            row = rows[depth]
            for hit, v in enumerate(row):
                if v < x:
                    break
            else:
                row.append(x)
                if depth == 0:
                    row_one_event = RowOneEvent(position, x, "append", None, len(row))
                break
            bumped = row[hit]
            row[hit] = x
            if depth == 0:
                row_one_event = RowOneEvent(position, x, "bump", bumped, hit + 1)
            x = bumped
            depth += 1
        events.append(row_one_event)
    return tuple(tuple(r) for r in rows), tuple(events)


# -- Viennot shadow lines ------------------------------------------------------


@dataclass(frozen=True)
class ShadowLine:
    """One shadow line: points (i, w(i)) listed with i strictly decreasing."""

    points: tuple[tuple[int, int], ...]


def shadow_lines(w: Iterable[int]) -> tuple[ShadowLine, ...]:
    """Shadow lines of the permutation, light shed from the southeast.

    A point lies in the shadow of another when both its coordinates are
    smaller or equal; each line collects the currently unshadowed points,
    which are then removed and the construction repeats. A point is
    shadowed by exactly the later, larger points, so by Mirsky's theorem
    line k holds the points whose longest increasing subsequence from there
    has length k. The peeling itself is an oracle in
    tests/test_permutations.py.
    """
    w = tuple(w)
    lis = lis_lengths(w)
    lines: list[list[tuple[int, int]]] = [[] for _ in range(max(lis, default=0))]
    for i in range(len(w), 0, -1):
        lines[lis[i - 1] - 1].append((i, w[i - 1]))
    return tuple(ShadowLine(tuple(points)) for points in lines)


def turning_points(w: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Turning points of all shadow lines: (i, w(j)) for each two points
    (j, w(j)) and (i, w(i)) that follow each other on one line, j > i.

    Line k holds the positions whose longest increasing subsequence has
    length k, so one right-to-left pass over those lengths, keeping the
    last position seen on each line, finds every pair.

    >>> sorted(turning_points((3, 7, 2, 1, 5, 6, 4)))
    [(1, 2), (2, 6), (3, 1), (6, 4)]
    """
    w = tuple(w)
    lis = lis_lengths(w)
    last = [0] * (len(w) + 1)
    points = []
    for i in range(len(w), 0, -1):
        k = lis[i - 1]
        j = last[k]
        if j:
            points.append((i, w[j - 1]))
        last[k] = i
    return frozenset(points)
