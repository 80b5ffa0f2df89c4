"""Diagrams, the snow-diagram construction, and its statistics.

A diagram is a finite set of (row, column) cells, 1-indexed with row 1 on
top and column 1 on the left. The snow construction decorates a diagram
with dark clouds and snowflakes; its row weights define rajcode and raj.

A diagram stores its row masks, the form the snow construction runs on:
entry r - 1 of a list of ints is row r, bit i of it is the cell in column
cols[i], the columns increase with the bit, and the last row is not empty.
The public Diagram and RookDiagram constructors check every cell and rank
the occupied columns, so the mask width is the number of distinct columns,
whatever their values. The diagrams the library builds from checked input
skip those checks: rothe_diagram and key_diagram build masks over columns
1..n (row r of the key diagram is (1 << alpha_r) - 1), and dark keeps the
columns of its diagram. Iteration and len read the masks. The cell set is
a view, decoded on first read and cached, behind equality, hashing and
repr, so rajcode and dark build none.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Sequence

from . import permutations

Cell = tuple[int, int]


def _check_cells(cells: Iterable[Cell]) -> frozenset[Cell]:
    """The cells as a frozenset. Raises ValueError for a cell outside the
    positive quadrant or with an entry that is not an integer."""
    try:
        cells = frozenset((index(r), index(c)) for r, c in cells)
    except TypeError as err:
        raise ValueError(f"cell entries must be integers: {err}") from None
    for r, c in cells:
        if r < 1 or c < 1:
            raise ValueError(f"cell {(r, c)} is outside the positive quadrant")
    return cells


def _row_weight(cells: Iterable[Cell]) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for r, _ in cells:
        counts[r] = counts.get(r, 0) + 1
    if not counts:
        return ()
    top = max(counts)
    return tuple(counts.get(r, 0) for r in range(1, top + 1))


class Diagram:
    """An immutable finite set of cells, stored as row masks. Equality and
    hashing see only the cells, not the columns the masks range over."""

    __slots__ = ("_rows", "_cols", "_cells")

    def __init__(self, cells: Iterable[Cell] = ()):
        cells = _check_cells(cells)
        cols = sorted({c for _, c in cells})
        bit = {c: 1 << i for i, c in enumerate(cols)}
        rows = [0] * max((r for r, _ in cells), default=0)
        for r, c in cells:
            rows[r - 1] |= bit[c]
        self._rows, self._cols, self._cells = rows, cols, cells

    @classmethod
    def _trusted(cls, rows: list[int], cols: Sequence[int]):
        """A diagram the library built itself from checked row masks over
        the increasing columns cols, without the public constructor."""
        d = object.__new__(cls)
        d._rows, d._cols, d._cells = rows, cols, None
        return d

    @property
    def cells(self) -> frozenset[Cell]:
        """The cells, decoded from the row masks on first read."""
        if self._cells is None:
            self._cells = frozenset(self)
        return self._cells

    def __iter__(self) -> Iterator[Cell]:
        """The cells in sorted order, read off the set bits of each row."""
        cols = self._cols
        for r, row in enumerate(self._rows, 1):
            while row:
                low = row & -row
                yield r, cols[low.bit_length() - 1]
                row ^= low

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.cells,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cells={self.cells!r})"


class RookDiagram(Diagram):
    """A diagram with at most one cell in each row and each column."""

    __slots__ = ()

    def __init__(self, cells: Iterable[Cell] = ()):
        super().__init__(cells)
        _check_rooks(self.cells)


def _check_rooks(cells: frozenset[Cell]) -> None:
    if len({r for r, _ in cells}) != len(cells) or len({c for _, c in cells}) != len(cells):
        raise ValueError("rook diagram has two cells attacking each other")


@dataclass(frozen=True)
class SnowDiagram:
    """A diagram decorated with dark clouds on cells and snowflakes off cells."""

    base: Diagram
    darks: frozenset[Cell]
    flakes: frozenset[Cell]

    def __post_init__(self):
        if not self.darks <= self.base.cells:
            raise ValueError("every dark cloud must sit on a cell of the diagram")
        if self.flakes & self.base.cells:
            raise ValueError("snowflakes must sit outside the diagram")
        _check_rooks(self.darks)
        dark_cols = {c: r for r, c in self.darks}
        for r, c in self.flakes:
            if dark_cols.get(c, 0) <= r:
                raise ValueError(f"snowflake {(r, c)} has no dark cloud below it")

    @property
    def cells(self) -> frozenset[Cell]:
        """The underlying diagram: base cells plus snowflakes."""
        return self.base.cells | self.flakes

    def label(self, cell: Cell) -> str:
        if cell in self.darks:
            return "dark_cloud"
        if cell in self.flakes:
            return "snowflake"
        if cell in self.base.cells:
            return "plain"
        raise KeyError(cell)


def weight(diagram) -> tuple[int, ...]:
    """Cells per row, as a weak composition with trailing zeros trimmed."""
    return _row_weight(diagram.cells)


def _key_rows(alpha: Sequence[int]) -> list[int]:
    """The row masks of the key diagram of alpha, column c at bit c - 1."""
    return [(1 << a) - 1 for a in alpha]


def key_diagram(alpha: Iterable[int]) -> Diagram:
    """The left-justified diagram with alpha_r cells in row r. Raises
    ValueError for an entry that is negative or not an integer."""
    try:
        alpha = tuple(map(index, alpha))
    except TypeError as err:
        raise ValueError(f"key diagram entries must be integers: {err}") from None
    if alpha and min(alpha) < 0:
        raise ValueError(f"{alpha} has a negative entry")
    rows = _key_rows(alpha)
    while rows and not rows[-1]:
        rows.pop()
    return Diagram._trusted(rows, range(1, max(alpha, default=0) + 1))


def stair(n: int) -> Diagram:
    """The staircase: key diagram of (n-1, n-2, ..., 1)."""
    try:
        n = index(n)
    except TypeError as err:
        raise ValueError(f"staircase size must be an integer: {err}") from None
    if n < 1:
        raise ValueError("staircase size must be positive")
    return key_diagram(range(n - 1, 0, -1))


def rothe_diagram(w: Iterable[int]) -> Diagram:
    """Cells (r, w(r')) over the inversions r < r', w(r) > w(r'). Raises
    ValueError when w is not a permutation in one-line notation.

    Row r is the mask of the values after position r that are smaller than
    w(r), over columns 1..len(w), read off by one right-to-left pass over w."""
    w = permutations.canonical(w)
    rows = [0] * len(w)
    later = 0
    for r in range(len(w) - 1, -1, -1):
        below = (1 << (w[r] - 1)) - 1
        rows[r] = later & below
        later |= below + 1
    while rows and not rows[-1]:
        rows.pop()
    return Diagram._trusted(rows, range(1, len(w) + 1))


def _snow_rows(rows: list[int]) -> tuple[list[int], list[int]]:
    """Dark cloud and snow weight of each row of the snow construction.

    Rows are visited bottom to top, with `taken` the mask of the columns
    darkened below. The dark cloud of a row is its rightmost cell in a
    column not taken yet, given as its bit index plus one, 0 when the row
    has none. The snowflakes of a row are the taken columns it leaves
    empty, so its weight in the snow diagram is the size of row | taken.
    """
    darks = [0] * len(rows)
    weights = [0] * len(rows)
    taken = 0
    for r in range(len(rows) - 1, -1, -1):
        row = rows[r]
        weights[r] = (row | taken).bit_count()
        free = row & ~taken
        if free:
            darks[r] = d = free.bit_length()
            taken |= 1 << (d - 1)
    return darks, weights


def _key_snow(alpha: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The snow construction on the key diagram of a canonical alpha: the
    column of the dark cloud of each row (0 for none) and the row weights."""
    return _snow_rows(_key_rows(alpha))


def snow(diagram: Diagram) -> SnowDiagram:
    """The snow diagram of a diagram: each dark cloud fills the empty
    positions above it in its column with snowflakes."""
    rows, cols = diagram._rows, diagram._cols
    darks, _ = _snow_rows(rows)
    flakes = [
        (rp, cols[d - 1])
        for r, d in enumerate(darks, 1)
        if d
        for rp in range(1, r)
        if not rows[rp - 1] >> (d - 1) & 1
    ]
    dark_cells = frozenset((r, cols[d - 1]) for r, d in enumerate(darks, 1) if d)
    return SnowDiagram(diagram, dark_cells, frozenset(flakes))


def dark(diagram: Diagram) -> RookDiagram:
    """The dark-cloud positions of the snow diagram, over the columns of
    the diagram."""
    darks, _ = _snow_rows(diagram._rows)
    # d is the bit index of the row's dark cloud plus one, 0 for none
    return RookDiagram._trusted([1 << d >> 1 for d in darks], diagram._cols)


def rajcode(diagram: Diagram) -> tuple[int, ...]:
    """Row weights of the snow diagram."""
    return tuple(_snow_rows(diagram._rows)[1])


def raj(diagram: Diagram) -> int:
    """Total number of cells in the snow diagram."""
    return sum(rajcode(diagram))


def overline(diagram: Diagram) -> Diagram:
    """Fill every empty position above each cell."""
    return Diagram(
        (rp, c) for r, c in diagram.cells for rp in range(1, r + 1)
    )


_GLYPHS = {"plain": "·", "dark_cloud": "●", "snowflake": "*"}


def render_ascii(diagram) -> str:
    """Deterministic grid rendering with a row-index prefix per line.

    Plain cells print as a middle dot, dark clouds as a filled circle,
    snowflakes as an asterisk; empty positions are spaces. The empty
    diagram renders as the empty string.
    """
    cells = diagram.cells
    label = diagram.label if isinstance(diagram, SnowDiagram) else lambda cell: "plain"
    if not cells:
        return ""
    max_row = max(r for r, _ in cells)
    max_col = max(c for _, c in cells)
    width = len(str(max_row))
    lines = []
    for r in range(1, max_row + 1):
        row = "".join(
            _GLYPHS[label((r, c))] if (r, c) in cells else " "
            for c in range(1, max_col + 1)
        )
        lines.append(f"{r:>{width}} {row}".rstrip())
    return "\n".join(lines)
