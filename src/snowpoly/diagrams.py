"""Cell-set diagrams, the snow-diagram construction, and its statistics.

A diagram is a finite set of (row, column) cells, 1-indexed with row 1 on
top and column 1 on the left. The snow construction decorates a diagram
with dark clouds and snowflakes; its row weights define rajcode and raj.

The snow construction runs on row masks: entry r - 1 of a list of ints is
row r, with one bit per column. A diagram reads its masks once, through
Diagram._row_masks. A Rothe diagram carries them from its construction,
with column c at bit c - 1 for c = 1..len(w). Any other diagram ranks its
occupied columns on first use, so bit i stands for the (i + 1)-th smallest
of them and the mask width is the number of distinct columns, whatever
their values. The key diagram of alpha has column c at bit c - 1, so row r
is (1 << alpha_r) - 1 and no cell set is built for it.

The public Diagram and RookDiagram constructors check every cell. The
diagrams the library builds itself (rothe_diagram, key_diagram, dark and
the rook placements of qbell) come from inputs already checked, and skip
that second check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import permutations

Cell = tuple[int, int]


def _check_cells(cells: Iterable[Cell]) -> frozenset[Cell]:
    cells = frozenset((int(r), int(c)) for r, c in cells)
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


# Row masks of a diagram and the column that each bit stands for.
Masks = tuple[list[int], Sequence[int]]


@dataclass(frozen=True)
class Diagram:
    """An immutable finite set of cells. Equality and hashing see only the
    cells, not how the row masks were obtained."""

    cells: frozenset[Cell]
    _masks: Masks | None = field(default=None, compare=False, repr=False)

    def __init__(self, cells: Iterable[Cell] = ()):
        object.__setattr__(self, "cells", _check_cells(cells))

    @classmethod
    def _trusted(cls, cells: frozenset[Cell], masks: Masks | None = None):
        """A diagram of cells the library built itself, without the checks
        of the public constructor, with its row masks when the builder
        already has them."""
        d = object.__new__(cls)
        object.__setattr__(d, "cells", cells)
        if masks is not None:
            object.__setattr__(d, "_masks", masks)
        return d

    def _row_masks(self) -> Masks:
        """The row masks, with the column of each bit; ranked once when
        the diagram was not built with them."""
        masks = self._masks
        if masks is None:
            masks = _ranked_masks(self.cells)
            object.__setattr__(self, "_masks", masks)
        return masks

    def __iter__(self) -> Iterator[Cell]:
        return iter(sorted(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells


@dataclass(frozen=True)
class RookDiagram(Diagram):
    """A diagram with at most one cell in each row and each column."""

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


def key_diagram(alpha: Iterable[int]) -> Diagram:
    """The left-justified diagram with alpha_r cells in row r. Raises
    ValueError for a negative entry."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"{alpha} has a negative entry")
    return Diagram._trusted(
        frozenset((r, c) for r, a in enumerate(alpha, start=1) for c in range(1, a + 1))
    )


def stair(n: int) -> Diagram:
    """The staircase: key diagram of (n-1, n-2, ..., 1)."""
    if n < 1:
        raise ValueError("staircase size must be positive")
    return key_diagram(range(n - 1, 0, -1))


def rothe_diagram(w: Iterable[int]) -> Diagram:
    """Cells (r, w(r')) over the inversions r < r', w(r) > w(r'). Raises
    ValueError when w is not a permutation in one-line notation.

    Row r is the mask of the values after position r that are smaller than
    w(r), over columns 1..len(w); one right-to-left pass over w reads off
    each mask and the cells of its set bits."""
    w = permutations.canonical(w)
    rows = [0] * len(w)
    cells = []
    later = 0
    for r in range(len(w) - 1, -1, -1):
        below = (1 << (w[r] - 1)) - 1
        rows[r] = row = later & below
        later |= below + 1
        while row:
            low = row & -row
            cells.append((r + 1, low.bit_length()))
            row ^= low
    while rows and not rows[-1]:
        rows.pop()
    return Diagram._trusted(frozenset(cells), (rows, range(1, len(w) + 1)))


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
    """The snow construction on the key diagram of a canonical alpha, whose
    row r is the mask (1 << alpha_r) - 1: the column of the dark cloud of
    each row (0 for none) and the row weights."""
    return _snow_rows([(1 << a) - 1 for a in alpha])


def _ranked_masks(cells: frozenset[Cell]) -> Masks:
    """The row masks of a diagram over its ranked columns, and the columns
    in rank order."""
    cols = sorted({c for _, c in cells})
    bit = {c: 1 << i for i, c in enumerate(cols)}
    rows = [0] * max((r for r, _ in cells), default=0)
    for r, c in cells:
        rows[r - 1] |= bit[c]
    return rows, cols


def _dark_cells(darks: list[int], cols: Sequence[int]) -> frozenset[Cell]:
    return frozenset((r, cols[d - 1]) for r, d in enumerate(darks, 1) if d)


def snow(diagram: Diagram) -> SnowDiagram:
    """The snow diagram of a diagram: each dark cloud fills the empty
    positions above it in its column with snowflakes."""
    rows, cols = diagram._row_masks()
    darks, _ = _snow_rows(rows)
    flakes = [
        (rp, cols[d - 1])
        for r, d in enumerate(darks, 1)
        if d
        for rp in range(1, r)
        if not rows[rp - 1] >> (d - 1) & 1
    ]
    return SnowDiagram(diagram, _dark_cells(darks, cols), frozenset(flakes))


def dark(diagram: Diagram) -> RookDiagram:
    """The dark-cloud positions of the snow diagram."""
    rows, cols = diagram._row_masks()
    darks, _ = _snow_rows(rows)
    return RookDiagram._trusted(_dark_cells(darks, cols))


def rajcode(diagram: Diagram) -> tuple[int, ...]:
    """Row weights of the snow diagram."""
    return tuple(_snow_rows(diagram._row_masks()[0])[1])


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
    if isinstance(diagram, SnowDiagram):
        cells = diagram.cells
        label = diagram.label
    else:
        cells = diagram.cells
        label = lambda cell: "plain"
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
