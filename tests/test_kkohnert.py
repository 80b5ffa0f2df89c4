"""Ghost diagrams, K-Kohnert moves, and the lifting construction."""

from collections import Counter

import pytest

from snowpoly import kkohnert, verify
from snowpoly.compositions import enumerate_cn, raj, rajcode
from snowpoly.diagrams import Diagram, key_diagram, snow
from snowpoly.kkohnert import (
    GhostDiagram,
    PackedClosure,
    enumerate_kkd,
    kkd_closure,
    kkohnert_polynomial,
    lascoux_via_kkd,
    up_ghost_move,
    up_move,
    witness_diagram,
)
from snowpoly.polyring import Polynomial
from snowpoly.schubert import lascoux


def ghost(solid, ghosts=()):
    return GhostDiagram(frozenset(solid), frozenset(ghosts))


# -- the object closure: the oracle for the packed one ---------------------------


def oracle_successors(g: GhostDiagram) -> set[GhostDiagram]:
    """All diagrams reachable from g by a single K-Kohnert move, on cell sets.

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


def oracle_closure(start) -> frozenset[GhostDiagram]:
    """Breadth-first closure of a set of GhostDiagrams, including the start."""
    if isinstance(start, Diagram):
        start = GhostDiagram(start.cells)
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [h for g in frontier for h in oracle_successors(g) if h not in seen]
        seen.update(frontier)
    return frozenset(seen)


def oracle_sum(closure) -> Polynomial:
    """Sum of x^weight * b^excess, each weight counted from the cells."""
    return Polynomial(Counter((g.weight(), g.excess) for g in closure))


# the complete closure of the key diagram of (0, 2, 1): five ghost-free
# diagrams, five with one ghost, one with two
KKD_021 = {
    ghost({(2, 1), (2, 2), (3, 1)}),
    ghost({(1, 2), (2, 1), (3, 1)}),
    ghost({(1, 1), (1, 2), (3, 1)}),
    ghost({(1, 1), (2, 1), (2, 2)}),
    ghost({(1, 1), (1, 2), (2, 1)}),
    ghost({(1, 1), (2, 1), (2, 2)}, {(3, 1)}),
    ghost({(1, 2), (2, 1), (3, 1)}, {(2, 2)}),
    ghost({(1, 1), (1, 2), (3, 1)}, {(2, 1)}),
    ghost({(1, 1), (1, 2), (2, 1)}, {(3, 1)}),
    ghost({(1, 1), (1, 2), (2, 1)}, {(2, 2)}),
    ghost({(1, 1), (1, 2), (2, 1)}, {(2, 2), (3, 1)}),
}


def test_successors_of_key_021():
    found = oracle_successors(ghost(key_diagram((0, 2, 1)).cells))
    assert ghost({(1, 2), (2, 1), (3, 1)}) in found
    assert ghost({(1, 2), (2, 1), (3, 1)}, {(2, 2)}) in found
    assert oracle_successors(ghost(set())) == set()


def test_successor_constraints():
    # a row whose rightmost cell is a ghost offers no move
    g = ghost({(2, 1)}, {(2, 2)})
    assert oracle_successors(g) == set()
    # ghosts block the way up: the only empty slot above (3,1) is behind a ghost
    blocked = ghost({(3, 1)}, {(2, 1)})
    assert oracle_successors(blocked) == set()
    # plain cells are jumped over
    jumper = ghost({(2, 1), (3, 1)})
    results = oracle_successors(jumper)
    assert ghost({(1, 1), (2, 1)}) in results


def test_enumerate_kkd_021_exact():
    assert enumerate_kkd((0, 2, 1)) == frozenset(KKD_021)
    assert oracle_closure(key_diagram((0, 2, 1))) == frozenset(KKD_021)


def assert_matches_oracle(start):
    expected = oracle_closure(start)
    packed = PackedClosure(start)
    assert kkd_closure(start) == expected
    assert len(packed) == len(expected)
    assert all(g in packed for g in expected)
    assert packed.polynomial() == kkohnert_polynomial(start) == oracle_sum(expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_packed_closure_matches_the_oracle_on_key_diagrams(n):
    for alpha in enumerate_cn(n):
        start = key_diagram(alpha)
        # the closure packs the start off its row masks and decodes no cell set
        assert len(PackedClosure(start)) and start._cells is None
        assert_matches_oracle(start)


@pytest.mark.parametrize(
    "start",
    [
        Diagram(),
        Diagram({(2, 2)}),
        ghost({(3, 1), (3, 2), (4, 3)}, {(2, 1), (4, 1)}),
        ghost({(2, 3), (4, 3)}, {(3, 3), (1, 1)}),
        *sorted(KKD_021, key=lambda g: (sorted(g.solid), sorted(g.ghosts))),
    ],
    ids=str,
)
def test_packed_closure_matches_the_oracle_on_other_starts(start):
    assert_matches_oracle(start)


def test_membership_outside_the_layout():
    packed = PackedClosure(key_diagram((0, 2, 1)))
    assert ghost({(1, 1), (1, 2), (2, 1)}, {(2, 2), (3, 1)}) in packed
    assert ghost({(1, 3)}) not in packed  # column beyond the widest
    assert ghost({(4, 1)}) not in packed  # row beyond the last
    assert ghost({(1, 1), (1, 2), (2, 1)}, {(2, 2)}) in packed
    assert ghost({(1, 1), (1, 2), (2, 1)}, {(3, 2)}) not in packed


def test_exponent_guard():
    # a start naming x1^128 is refused, as the kernel refuses it
    with pytest.raises((ValueError, OverflowError)):
        kkohnert_polynomial(Diagram({(1, c) for c in range(1, 129)}))
    # a move that raises a row from 127 to 128 cells reaches the guard bit
    lifted = Diagram({(1, c) for c in range(1, 128)} | {(2, 128)})
    with pytest.raises(OverflowError):
        kkohnert_polynomial(lifted)


def test_enumerate_kkd_trivial():
    assert enumerate_kkd(()) == frozenset({ghost(set())})
    assert enumerate_kkd((1,)) == frozenset({ghost({(1, 1)})})


def test_lascoux_via_kkd_examples():
    expected_021 = Polynomial.from_terms(
        [
            (1, (0, 2, 1), 0),
            (1, (1, 1, 1), 0),
            (1, (2, 0, 1), 0),
            (1, (1, 2), 0),
            (1, (2, 1), 0),
            (2, (1, 2, 1), 1),
            (2, (2, 1, 1), 1),
            (1, (2, 2), 1),
            (1, (2, 2, 1), 2),
        ]
    )
    assert lascoux_via_kkd((0, 2, 1)) == expected_021
    assert lascoux_via_kkd((2, 1)) == Polynomial.from_terms([(1, (2, 1), 0)])
    assert lascoux_via_kkd((0, 1)) == Polynomial.from_terms(
        [(1, (1,), 0), (1, (0, 1), 0), (1, (1, 1), 1)]
    )


def test_kkd_matches_recursion_beyond_the_box():
    for alpha in [(0, 2, 4), (1, 0, 3), (0, 0, 2, 1)]:
        assert lascoux_via_kkd(alpha) == lascoux(alpha)


def test_solid_column_counts_are_invariant():
    start = ghost(key_diagram((0, 2, 1)).cells)

    def col_counts(cells):
        counts = {}
        for _, c in cells:
            counts[c] = counts.get(c, 0) + 1
        return counts

    base = col_counts(start.solid)
    for g in kkd_closure(start):
        assert col_counts(g.solid) == base


def test_up_move_examples():
    g = ghost(key_diagram((0, 2, 1)).cells)
    moved = up_move(g, 2, 2)
    assert moved.solid == {(1, 2), (2, 1), (3, 1)}
    # column full above: identity
    g2 = ghost({(1, 1), (2, 1)})
    assert up_move(g2, 2, 1) == g2
    with pytest.raises(ValueError):
        up_move(g, 1, 1)
    with pytest.raises(ValueError):
        up_ghost_move(ghost({(2, 1)}, {(2, 2)}), 2, 2)


def test_up_ghost_move_fills_gap():
    g = ghost({(3, 1)})
    lifted = up_ghost_move(g, 3, 1)
    assert lifted.solid == {(1, 1)}
    assert lifted.ghosts == {(2, 1), (3, 1)}


def witness_of(alpha):
    return witness_diagram(snow(key_diagram(alpha)))


def test_witness_worked_example():
    g = witness_of((1, 3, 4, 0, 4, 3))
    assert g.ghosts == {(3, 2), (3, 4), (4, 3), (4, 4), (5, 4), (6, 3)}
    assert g.solid == {
        (1, 1), (1, 2), (1, 3), (1, 4),
        (2, 1), (2, 2), (2, 3), (2, 4),
        (3, 1), (3, 3),
        (5, 1), (5, 2), (5, 3),
        (6, 1), (6, 2),
    }
    assert g.cells == snow(key_diagram((1, 3, 4, 0, 4, 3))).cells


def test_witness_raises_on_a_gap(monkeypatch):
    monkeypatch.setattr(kkohnert, "_left_justified_beyond", lambda g, col: False)
    with pytest.raises(ArithmeticError, match=r"\(0, 2, 1\).*dark cloud \(3, 1\)"):
        witness_of((0, 2, 1))


def test_witness_rejects_a_base_that_is_not_a_key_diagram():
    for cells in [{(1, 2)}, {(1, 1), (2, 1), (2, 3)}]:
        with pytest.raises(ValueError):
            witness_diagram(snow(Diagram(cells)))


def test_kkohnert_suite_catches_a_witness_outside_the_closure(monkeypatch):
    # the cells, weight (2, 2, 1) and excess 2 of the witness of (0, 2, 1),
    # with the ghosts on a pair of positions no K-Kohnert diagram has
    impostor = ghost({(1, 1), (1, 2), (3, 1)}, {(2, 1), (2, 2)})
    assert impostor not in KKD_021
    real = witness_diagram
    monkeypatch.setattr(
        verify,
        "witness_diagram",
        lambda sd: impostor if sd.base == key_diagram((0, 2, 1)) else real(sd),
    )
    results = {r.name: r.passed for r in verify.run_suite("kkohnert", 4)}
    assert results == {
        "K-Kohnert sum equals recursive Lascoux": True,
        "witness diagram realizes rajcode": False,
    }


def test_witness_trivial_and_021():
    start = key_diagram((2, 1))
    assert witness_of((2, 1)) == ghost(start.cells)
    g = witness_of((0, 2, 1))
    assert g.weight() == (2, 2, 1)
    assert g.excess == 2
    assert g in KKD_021


def test_lascoux_contains_rajcode_term():
    for alpha in enumerate_cn(4):
        poly = lascoux(alpha)
        assert poly.coefficient(rajcode(alpha), raj(alpha) - sum(alpha)) >= 1


def test_kkohnert_polynomial_generic():
    assert kkohnert_polynomial(Diagram()) == Polynomial.one()
    assert kkohnert_polynomial(Diagram({(2, 2)})) == Polynomial.from_terms(
        [(1, (0, 1), 0), (1, (1,), 0), (1, (1, 1), 1)]
    )
    assert kkohnert_polynomial(key_diagram((0, 2, 1))) == lascoux_via_kkd((0, 2, 1))


def test_ghost_diagram_validation():
    with pytest.raises(ValueError):
        GhostDiagram({(1, 1)}, {(1, 1)})
    with pytest.raises(ValueError):
        GhostDiagram({(0, 1)})
