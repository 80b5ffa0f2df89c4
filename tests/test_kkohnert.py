"""Ghost diagrams, K-Kohnert moves, and the lifting construction."""

import pytest

from snowpoly.compositions import enumerate_cn, raj, rajcode
from snowpoly.diagrams import Diagram, key_diagram, snow
from snowpoly.kkohnert import (
    GhostDiagram,
    enumerate_kkd,
    kkd_closure,
    kkohnert_polynomial,
    kkohnert_successors,
    lascoux_via_kkd,
    up_ghost_move,
    up_move,
    witness_diagram,
)
from snowpoly.polyring import Polynomial
from snowpoly.schubert import lascoux


def ghost(solid, ghosts=()):
    return GhostDiagram(frozenset(solid), frozenset(ghosts))


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
    found = kkohnert_successors(ghost(key_diagram((0, 2, 1)).cells))
    assert ghost({(1, 2), (2, 1), (3, 1)}) in found
    assert ghost({(1, 2), (2, 1), (3, 1)}, {(2, 2)}) in found
    assert kkohnert_successors(ghost(set())) == set()


def test_successor_constraints():
    # a row whose rightmost cell is a ghost offers no move
    g = ghost({(2, 1)}, {(2, 2)})
    assert kkohnert_successors(g) == set()
    # ghosts block the way up: the only empty slot above (3,1) is behind a ghost
    blocked = ghost({(3, 1)}, {(2, 1)})
    assert kkohnert_successors(blocked) == set()
    # plain cells are jumped over
    jumper = ghost({(2, 1), (3, 1)})
    results = kkohnert_successors(jumper)
    assert ghost({(1, 1), (2, 1)}) in results


def test_enumerate_kkd_021_exact():
    assert enumerate_kkd((0, 2, 1)) == frozenset(KKD_021)


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


def test_witness_worked_example():
    g = witness_diagram((1, 3, 4, 0, 4, 3))
    assert g.ghosts == {(3, 2), (3, 4), (4, 3), (4, 4), (5, 4), (6, 3)}
    assert g.solid == {
        (1, 1), (1, 2), (1, 3), (1, 4),
        (2, 1), (2, 2), (2, 3), (2, 4),
        (3, 1), (3, 3),
        (5, 1), (5, 2), (5, 3),
        (6, 1), (6, 2),
    }
    assert g.cells == snow(key_diagram((1, 3, 4, 0, 4, 3))).cells


def test_witness_trivial_and_021():
    start = key_diagram((2, 1))
    assert witness_diagram((2, 1)) == ghost(start.cells)
    g = witness_diagram((0, 2, 1))
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
