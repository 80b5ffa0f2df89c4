"""Cell-set diagrams, the snow-diagram construction, and its statistics.

A diagram is a finite set of (row, column) cells, 1-indexed with row 1 on
top and column 1 on the left. The snow construction decorates a diagram
with dark clouds and snowflakes; its row weights define rajcode and raj.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Diagram:
    """An immutable finite set of cells."""

    cells: frozenset[Cell]

    def __init__(self, cells: Iterable[Cell] = ()):
        object.__setattr__(self, "cells", _check_cells(cells))

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
        rows = {r for r, _ in self.cells}
        cols = {c for _, c in self.cells}
        if len(rows) != len(self.cells) or len(cols) != len(self.cells):
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
        RookDiagram(self.darks)
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
    return Diagram(
        (r, c) for r, a in enumerate(alpha, start=1) for c in range(1, a + 1)
    )


def stair(n: int) -> Diagram:
    """The staircase: key diagram of (n-1, n-2, ..., 1)."""
    if n < 1:
        raise ValueError("staircase size must be positive")
    return key_diagram(range(n - 1, 0, -1))


def rothe_diagram(w: Iterable[int]) -> Diagram:
    """Cells (r, w(r')) over the inversions r < r', w(r) > w(r'). Raises
    ValueError when w is not a permutation in one-line notation."""
    w = permutations.canonical(w)
    n = len(w)
    return Diagram(
        (r + 1, w[rp])
        for r in range(n)
        for rp in range(r + 1, n)
        if w[r] > w[rp]
    )


def _snow_parts(cells: frozenset[Cell]) -> tuple[list[Cell], list[Cell]]:
    """Dark-cloud and snowflake positions of the snow construction.

    Rows of the diagram are visited bottom to top; in each row the rightmost
    cell whose column holds no dark cloud yet becomes one, and the column
    above it is filled with snowflakes on empty positions. Candidates are
    always cells of the original diagram, never snowflakes.
    """
    rows: dict[int, list[int]] = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
    darks: list[Cell] = []
    taken_cols: set[int] = set()
    for r in sorted(rows, reverse=True):
        for c in sorted(rows[r], reverse=True):
            if c not in taken_cols:
                darks.append((r, c))
                taken_cols.add(c)
                break
    flakes = [
        (rp, c) for r, c in darks for rp in range(1, r) if (rp, c) not in cells
    ]
    return darks, flakes


def snow(diagram: Diagram) -> SnowDiagram:
    """The snow diagram of a diagram."""
    darks, flakes = _snow_parts(diagram.cells)
    return SnowDiagram(diagram, frozenset(darks), frozenset(flakes))


def dark(diagram: Diagram) -> RookDiagram:
    """The dark-cloud positions of the snow diagram."""
    darks, _ = _snow_parts(diagram.cells)
    return RookDiagram(darks)


def rajcode(diagram: Diagram) -> tuple[int, ...]:
    """Row weights of the snow diagram."""
    darks, flakes = _snow_parts(diagram.cells)
    return _row_weight(list(diagram.cells) + flakes)


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
