"""Diagrams, the snow construction, and its statistics."""

import random

import pytest

from snowpoly.diagrams import (
    Diagram,
    RookDiagram,
    SnowDiagram,
    dark,
    key_diagram,
    overline,
    raj,
    rajcode,
    render_ascii,
    rothe_diagram,
    snow,
    stair,
    weight,
)

EXAMPLE = Diagram({(1, 3), (2, 1), (2, 2), (3, 3), (5, 1), (5, 2)})


def test_weight_examples():
    assert weight(Diagram()) == ()
    assert weight(EXAMPLE) == (1, 2, 1, 0, 2)
    assert weight(stair(4)) == (3, 2, 1)


def test_key_diagram_examples():
    assert key_diagram((0, 2, 1)).cells == {(2, 1), (2, 2), (3, 1)}
    assert key_diagram(()).cells == frozenset()
    assert key_diagram((3, 2, 1)) == stair(4)


def test_key_diagram_rejects_negative_entries():
    with pytest.raises(ValueError):
        key_diagram((-1, 2))


def test_rothe_diagram_examples():
    # from the inversion set of 41532: {(1,2),(1,4),(1,5),(3,4),(3,5),(4,5)}
    assert rothe_diagram((4, 1, 5, 3, 2)).cells == {
        (1, 1), (1, 2), (1, 3), (3, 2), (3, 3), (4, 2),
    }
    assert rothe_diagram((1, 2, 3)).cells == frozenset()
    assert weight(rothe_diagram((3, 7, 2, 1, 5, 6, 4))) == (2, 5, 1, 0, 1, 1)


def test_rothe_diagram_rejects_non_permutations():
    for w in [(3, 1), (1, 1), (0, 1)]:
        with pytest.raises(ValueError):
            rothe_diagram(w)


def test_snow_example():
    sd = snow(EXAMPLE)
    assert sd.darks == {(2, 1), (3, 3), (5, 2)}
    assert sd.flakes == {(1, 1), (1, 2), (2, 3), (3, 2), (4, 2)}


def test_snow_trivial_and_key_example():
    assert snow(Diagram()).darks == frozenset()
    sd = snow(key_diagram((2, 0, 4, 3, 1)))
    assert sd.darks == {(1, 2), (3, 4), (4, 3), (5, 1)}
    assert sd.flakes == {(1, 3), (1, 4), (2, 1), (2, 3), (2, 4)}


def test_dark_examples():
    assert dark(EXAMPLE).cells == {(2, 1), (3, 3), (5, 2)}
    assert dark(Diagram()).cells == frozenset()
    assert dark(key_diagram((2, 0, 4, 3, 1))).cells == {(1, 2), (3, 4), (4, 3), (5, 1)}


def test_rajcode_examples():
    assert rajcode(EXAMPLE) == (3, 3, 2, 1, 2)
    assert raj(EXAMPLE) == 11
    assert rajcode(Diagram()) == ()
    assert raj(Diagram()) == 0
    assert rajcode(key_diagram((2, 0, 4, 3, 1))) == (4, 3, 4, 3, 1)


def test_overline_examples():
    assert overline(Diagram({(2, 2)})).cells == {(1, 2), (2, 2)}
    assert overline(key_diagram((1, 2))).cells == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert overline(Diagram()).cells == frozenset()


def test_stair_examples():
    assert stair(1).cells == frozenset()
    assert weight(stair(4)) == (3, 2, 1)
    assert stair(3).cells == {(1, 1), (1, 2), (2, 1)}
    assert len(stair(6)) == 15
    with pytest.raises(ValueError):
        stair(0)


def test_render_ascii():
    assert render_ascii(Diagram()) == ""
    lines = render_ascii(stair(3)).splitlines()
    assert [ln.split(" ", 1)[1] for ln in lines] == ["··", "·"]
    decorated = render_ascii(snow(key_diagram((0, 2, 1)))).splitlines()
    assert decorated[0].split(" ", 1)[1] == "**"
    assert "●" in decorated[1] and "●" in decorated[2]


def test_snow_diagram_invariants_validated():
    base = Diagram({(2, 1)})
    with pytest.raises(ValueError):
        SnowDiagram(base, frozenset({(1, 1)}), frozenset())  # dark off the diagram
    with pytest.raises(ValueError):
        SnowDiagram(base, frozenset({(2, 1)}), frozenset({(2, 1)}))  # flake on a cell
    with pytest.raises(ValueError):
        SnowDiagram(base, frozenset(), frozenset({(1, 1)}))  # flake with no dark below


def test_rook_diagram_rejects_attacks():
    with pytest.raises(ValueError):
        RookDiagram({(1, 1), (1, 2)})
    with pytest.raises(ValueError):
        RookDiagram({(1, 1), (2, 1)})
    rook = RookDiagram([(2, 1), (1, 3)])
    assert isinstance(rook, Diagram)
    assert rook.cells == frozenset({(1, 3), (2, 1)})
    assert rook == RookDiagram({(1, 3), (2, 1)}) and rook != Diagram(rook.cells)
    assert hash(rook) == hash((rook.cells,))
    assert list(rook) == [(1, 3), (2, 1)] and len(rook) == 2 and (2, 1) in rook


def _random_diagram(rng, max_row=6, max_col=6, cells=8):
    return Diagram(
        {(rng.randint(1, max_row), rng.randint(1, max_col)) for _ in range(cells)}
    )


def test_dark_maximality_property():
    # a cell with no dark cloud below it in its column and none to its right
    # in its row must itself be a dark cloud
    rng = random.Random(5150)
    for _ in range(300):
        d = _random_diagram(rng)
        darks = dark(d).cells
        for r, c in d.cells:
            below = any((rp, c) in darks for rp in range(r + 1, 8))
            right = any((r, cp) in darks for cp in range(c + 1, 8))
            if not below and not right:
                assert (r, c) in darks


def test_snow_underlying_recovered_from_darks_on_key_diagrams():
    rng = random.Random(88)
    for _ in range(200):
        alpha = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 5)))
        d = key_diagram(alpha)
        sd = snow(d)
        rebuilt = set()
        for r, c in sd.darks:
            rebuilt.update((rp, c) for rp in range(1, r + 1))
            rebuilt.update((r, cp) for cp in range(1, c + 1))
        assert sd.cells == rebuilt


def test_overline_recovered_from_darks_on_key_diagrams():
    rng = random.Random(89)
    for _ in range(200):
        alpha = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 5)))
        d = key_diagram(alpha)
        rebuilt = set()
        for r, c in dark(d).cells:
            rebuilt.update((rp, cp) for rp in range(1, r + 1) for cp in range(1, c + 1))
        assert overline(d).cells == rebuilt


def test_raj_counts_cells_plus_flakes():
    rng = random.Random(90)
    for _ in range(200):
        d = _random_diagram(rng)
        assert raj(d) == len(d) + len(snow(d).flakes)
