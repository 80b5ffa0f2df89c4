"""Ghost diagrams, K-Kohnert moves, and the lifting construction for the
extreme diagram whose weight is the rajcode.

A K-Kohnert move lifts the rightmost cell of a row to the lowest empty
position above it in its column; the cell may jump over plain cells but
never over ghosts, and it may leave a ghost behind. Columns are invariant,
so the closure from any starting diagram is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .compositions import canonical
from .diagrams import Cell, Diagram, SnowDiagram, _check_cells, _row_weight, key_diagram, weight
from .polyring import Polynomial, packed_key, tally


@dataclass(frozen=True)
class GhostDiagram:
    """Cells split into movable solid cells and frozen ghosts."""

    solid: frozenset[Cell]
    ghosts: frozenset[Cell]

    def __init__(self, solid: Iterable[Cell] = (), ghosts: Iterable[Cell] = ()):
        solid = _check_cells(solid)
        ghosts = _check_cells(ghosts)
        if solid & ghosts:
            raise ValueError("a position cannot be both solid and ghost")
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


class PackedClosure:
    """The K-Kohnert closure of one start diagram, each diagram packed into
    one int, with the packed monomial key of its x^weight * b^excess.

    Row r of the solid cells is the field of bits [(r - 1) W, r W), where W
    is the widest column plus 1; column c sits at bit W - 1 - c of its field,
    so the rightmost cell of a row is the lowest set bit of its field and the
    top bit of every field is free. The ghosts sit in the same layout shifted
    up by nW, for n rows. A move changes the key by one row's increment, plus
    one in b when it leaves a ghost, so no weight is ever recounted.
    """

    __slots__ = ("rows", "width", "keys")

    def __init__(self, start: Diagram | GhostDiagram):
        # a Diagram is walked off its row masks, with no ghosts
        solid, ghosts = (start, ()) if isinstance(start, Diagram) else (start.solid, start.ghosts)
        cells = [*solid, *ghosts]
        weight = _row_weight(cells)
        self.rows = n = len(weight)
        self.width = width = max((c for _, c in cells), default=0) + 1
        b_unit = packed_key(bexp=1)
        self.keys = keys = {self._pack(solid, ghosts): packed_key(weight, len(ghosts))}

        ghost_shift = n * width
        board = (1 << ghost_shift) - 1
        ones = board // ((1 << width) - 1)  # bit 0 of every field
        tops = ones << (width - 1)
        below_row_1 = board ^ ((1 << width) - 1)
        # the x-increment of the row of each position, keyed by its bit
        rows = [packed_key((0,) * r + (1,)) for r in range(n)]
        unit = {1 << (r * width + c): rows[r] for r in range(n) for c in range(width)}
        frontier = list(keys)
        while frontier:
            found = []
            for state in frontier:
                key = keys[state]
                solid = state & board
                ghosts = state >> ghost_shift
                # the lowest set bit of every field at once: the set top bits
                # keep each field's borrow inside it
                rightmost = ~(((solid | ghosts) | tops) - ones)
                # only the rightmost position of a row moves, only if solid,
                # and never out of row 1
                movable = rightmost & solid & below_row_1
                while movable:
                    cell = movable & -movable
                    movable ^= cell
                    # lowest empty position above, jumping solid cells but no ghost
                    above = cell >> width
                    while above & solid:
                        above >>= width
                    if not above or ghosts & above:
                        continue
                    moved = state ^ cell ^ above
                    up = key + unit[above]
                    if moved not in keys:
                        keys[moved] = up - unit[cell]
                        found.append(moved)
                    moved |= cell << ghost_shift
                    if moved not in keys:
                        keys[moved] = up + b_unit
                        found.append(moved)
            frontier = found

    def _pack(self, solid: Iterable[Cell], ghosts: Iterable[Cell]) -> int | None:
        """The packed diagram, or None when a cell lies outside the layout."""
        n, width = self.rows, self.width
        state = 0
        for cells, shift in ((solid, 0), (ghosts, n * width)):
            for r, c in cells:
                if r > n or c >= width:
                    return None
                state |= 1 << (shift + r * width - 1 - c)
        return state

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, g: GhostDiagram) -> bool:
        return self._pack(g.solid, g.ghosts) in self.keys

    def diagrams(self) -> frozenset[GhostDiagram]:
        """Every diagram of the closure, decoded."""
        width = self.width
        ghost_shift = self.rows * width

        def cells(bits: int) -> list[Cell]:
            out = []
            while bits:
                low = bits & -bits
                r, c = divmod(low.bit_length() - 1, width)
                out.append((r + 1, width - 1 - c))
                bits ^= low
            return out

        board = (1 << ghost_shift) - 1
        return frozenset(
            GhostDiagram(cells(state & board), cells(state >> ghost_shift))
            for state in self.keys
        )

    def polynomial(self) -> Polynomial:
        """Sum of x^weight * b^excess over the closure."""
        return tally(self.keys.values())


def kkd_closure(start: Diagram | GhostDiagram) -> frozenset[GhostDiagram]:
    """Closure under K-Kohnert moves, including the start."""
    return PackedClosure(start).diagrams()


def enumerate_kkd(alpha: Iterable[int]) -> frozenset[GhostDiagram]:
    """All K-Kohnert diagrams of the key diagram of alpha."""
    return kkd_closure(key_diagram(canonical(alpha)))


def kkohnert_polynomial(start: Diagram | GhostDiagram) -> Polynomial:
    """Generating sum of x^weight * b^excess over the closure of any diagram."""
    return PackedClosure(start).polynomial()


def lascoux_via_kkd(alpha: Iterable[int]) -> Polynomial:
    """The Lascoux polynomial as the K-Kohnert generating sum."""
    return kkohnert_polynomial(key_diagram(canonical(alpha)))


def _lift(solid: set[Cell], ghosts: set[Cell], r: int, c: int, leave_ghosts: bool) -> None:
    """Move the solid cell (r, c) in place to the highest empty position of
    its column, unless that position lies below row r; with leave_ghosts,
    fill (r, c) and the skipped empty positions with ghosts."""
    target = 1
    while (target, c) in solid or (target, c) in ghosts:
        target += 1
    if target > r:
        return
    solid.remove((r, c))
    solid.add((target, c))
    if leave_ghosts:
        ghosts.add((r, c))
        ghosts.update(
            (j, c) for j in range(target + 1, r) if (j, c) not in solid and (j, c) not in ghosts
        )


def _up(g: GhostDiagram, r: int, c: int, leave_ghosts: bool) -> GhostDiagram:
    if (r, c) in g.ghosts:
        raise ValueError(f"cell {(r, c)} is a ghost and cannot move")
    if (r, c) not in g.solid:
        raise ValueError(f"cell {(r, c)} is not in the diagram")
    solid, ghosts = set(g.solid), set(g.ghosts)
    _lift(solid, ghosts, r, c, leave_ghosts)
    return GhostDiagram(solid, ghosts)


def up_move(g: GhostDiagram, r: int, c: int) -> GhostDiagram:
    """Send the cell at (r, c) to the highest empty position of its column;
    identity when that position lies below row r."""
    return _up(g, r, c, leave_ghosts=False)


def up_ghost_move(g: GhostDiagram, r: int, c: int) -> GhostDiagram:
    """Like up_move, but fill (r, c) and the skipped empty positions with ghosts."""
    return _up(g, r, c, leave_ghosts=True)


def witness_diagram(sd: SnowDiagram) -> GhostDiagram:
    """A K-Kohnert diagram of a key diagram sharing its cells with sd, the
    snow diagram of that key diagram. Raises ValueError when the base of sd
    is not a key diagram.

    Dark clouds are visited in increasing column order; for a dark cloud at
    (r, c) the cells of row r from column alpha_r down to c+1 are lifted
    plainly and the cell at (r, c) is lifted leaving ghosts. The result has
    weight rajcode(alpha) and excess raj(alpha) - |alpha|.
    """
    alpha = weight(sd.base)
    # a row of alpha_r distinct cells with none right of column alpha_r
    # holds exactly the columns 1..alpha_r
    if any(c > alpha[r - 1] for r, c in sd.base.cells):
        raise ValueError("the witness is defined on the snow diagram of a key diagram")
    solid, ghosts = set(sd.base.cells), set()
    for r, c in sorted(sd.darks, key=lambda rc: rc[1]):
        for col in range(alpha[r - 1], c, -1):
            _lift(solid, ghosts, r, col, leave_ghosts=False)
        _lift(solid, ghosts, r, c, leave_ghosts=True)
        if not _left_justified_beyond(solid | ghosts, c):
            raise ArithmeticError(
                f"lifting {alpha} at dark cloud {(r, c)} left a gap right of column {c}"
            )
    return GhostDiagram(solid, ghosts)


def _left_justified_beyond(cells: set[Cell], col: int) -> bool:
    """Every cell strictly right of col has an occupied left neighbor."""
    return all(c <= col or (r, c - 1) in cells for r, c in cells)
