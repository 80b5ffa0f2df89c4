"""Ghost diagrams, K-Kohnert moves, and the lifting construction for the
extreme diagram whose weight is the rajcode.

A K-Kohnert move lifts the rightmost cell of a row to the lowest empty
position above it in its column; the cell may jump over plain cells but
never over ghosts, and it may leave a ghost behind. Columns are invariant,
so the closure from any starting diagram is finite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .compositions import canonical
from .diagrams import Cell, Diagram, key_diagram, snow, _row_weight
from .polyring import Polynomial


@dataclass(frozen=True)
class GhostDiagram:
    """Cells split into movable solid cells and frozen ghosts."""

    solid: frozenset[Cell]
    ghosts: frozenset[Cell]

    def __init__(self, solid: Iterable[Cell] = (), ghosts: Iterable[Cell] = ()):
        solid = frozenset(solid)
        ghosts = frozenset(ghosts)
        if solid & ghosts:
            raise ValueError("a position cannot be both solid and ghost")
        for r, c in solid | ghosts:
            if r < 1 or c < 1:
                raise ValueError(f"cell {(r, c)} is outside the positive quadrant")
        object.__setattr__(self, "solid", solid)
        object.__setattr__(self, "ghosts", ghosts)

    @property
    def cells(self) -> frozenset[Cell]:
        """All occupied positions, ghost or not."""
        return self.solid | self.ghosts

    def weight(self) -> tuple[int, ...]:
        return _row_weight(self.cells)

    @property
    def excess(self) -> int:
        return len(self.ghosts)


def kkohnert_successors(g: GhostDiagram) -> set[GhostDiagram]:
    """All diagrams reachable from g by a single K-Kohnert move.

    Per row, only the rightmost occupied position is movable, and only when
    it is solid. It travels to the lowest empty position above it with no
    ghost strictly in between; both the plain move and the ghost-leaving
    move are emitted.
    """
    occupied = g.cells
    rightmost: dict[int, int] = {}
    for r, c in occupied:
        if c > rightmost.get(r, 0):
            rightmost[r] = c
    out: set[GhostDiagram] = set()
    for r, c in rightmost.items():
        if (r, c) in g.ghosts:
            continue
        target = None
        for j in range(r - 1, 0, -1):
            if (j, c) not in occupied:
                target = j
                break
            if (j, c) in g.ghosts:
                break
        if target is None:
            continue
        moved = (g.solid - {(r, c)}) | {(target, c)}
        out.add(GhostDiagram(moved, g.ghosts))
        out.add(GhostDiagram(moved, g.ghosts | {(r, c)}))
    return out


def kkd_closure(start: Diagram | GhostDiagram) -> frozenset[GhostDiagram]:
    """Breadth-first closure under K-Kohnert moves, including the start."""
    if isinstance(start, Diagram):
        start = GhostDiagram(start.cells)
    seen: set[GhostDiagram] = {start}
    frontier = [start]
    while frontier:
        found: list[GhostDiagram] = []
        for g in frontier:
            for h in kkohnert_successors(g):
                if h not in seen:
                    seen.add(h)
                    found.append(h)
        frontier = found
    return frozenset(seen)


def enumerate_kkd(alpha: Iterable[int]) -> frozenset[GhostDiagram]:
    """All K-Kohnert diagrams of the key diagram of alpha."""
    return kkd_closure(key_diagram(canonical(alpha)))


def generating_sum(closure: Iterable[GhostDiagram]) -> Polynomial:
    """Sum of x^weight * b^excess over the diagrams, tallied in one pass."""
    return Polynomial(Counter((g.weight(), g.excess) for g in closure))


def kkohnert_polynomial(start: Diagram) -> Polynomial:
    """Generating sum of x^weight * b^excess over the closure of any diagram."""
    return generating_sum(kkd_closure(start))


def lascoux_via_kkd(alpha: Iterable[int]) -> Polynomial:
    """The Lascoux polynomial as the K-Kohnert generating sum."""
    return kkohnert_polynomial(key_diagram(canonical(alpha)))


def _up(g: GhostDiagram, r: int, c: int, leave_ghosts: bool) -> GhostDiagram:
    if (r, c) in g.ghosts:
        raise ValueError(f"cell {(r, c)} is a ghost and cannot move")
    if (r, c) not in g.solid:
        raise ValueError(f"cell {(r, c)} is not in the diagram")
    occupied = g.cells
    target = 1
    while (target, c) in occupied:
        target += 1
    if target > r:
        return g
    solid = (g.solid - {(r, c)}) | {(target, c)}
    ghosts = g.ghosts
    if leave_ghosts:
        ghosts = ghosts | {(r, c)} | {
            (j, c) for j in range(target + 1, r) if (j, c) not in occupied
        }
    return GhostDiagram(solid, ghosts)


def up_move(g: GhostDiagram, r: int, c: int) -> GhostDiagram:
    """Send the cell at (r, c) to the highest empty position of its column;
    identity when that position lies below row r."""
    return _up(g, r, c, leave_ghosts=False)


def up_ghost_move(g: GhostDiagram, r: int, c: int) -> GhostDiagram:
    """Like up_move, but fill (r, c) and the skipped empty positions with ghosts."""
    return _up(g, r, c, leave_ghosts=True)


def witness_diagram(alpha: Iterable[int]) -> GhostDiagram:
    """A K-Kohnert diagram of alpha sharing its cells with the snow diagram.

    Dark clouds are visited in increasing column order; for a dark cloud at
    (r, c) the cells of row r from column alpha_r down to c+1 are lifted
    plainly and the cell at (r, c) is lifted leaving ghosts. The result has
    weight rajcode(alpha) and excess raj(alpha) - |alpha|.
    """
    alpha = canonical(alpha)
    start = key_diagram(alpha)
    darks = sorted(snow(start).darks, key=lambda rc: rc[1])
    g = GhostDiagram(start.cells)
    for r, c in darks:
        for col in range(alpha[r - 1], c, -1):
            g = up_move(g, r, col)
        g = up_ghost_move(g, r, c)
        assert _left_justified_beyond(g, c), (alpha, (r, c))
    return g


def _left_justified_beyond(g: GhostDiagram, col: int) -> bool:
    """Every cell strictly right of col has an occupied left neighbor."""
    cells = g.cells
    return all(c <= col or (r, c - 1) in cells for r, c in cells)
