"""Diagrams, the snow construction, and its statistics."""

import random
import time
from itertools import permutations, product

import pytest

from snowpoly import cli
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
    for alpha in [(-1,), (-1, 2), (2, 0, -3)]:
        with pytest.raises(ValueError):
            key_diagram(alpha)


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


def test_diagram_rejects_cells_outside_the_quadrant():
    for cells in [{(0, 1)}, {(1, 0)}, {(2, 2), (-1, 3)}]:
        with pytest.raises(ValueError):
            Diagram(cells)
        with pytest.raises(ValueError):
            RookDiagram(cells)


def test_library_built_diagrams_equal_checked_ones():
    # the diagrams the library builds without the constructor's checks are
    # the ones the checked constructors give for the same cells
    for d in [rothe_diagram((4, 1, 5, 3, 2)), key_diagram((2, 0, 4, 3, 1)), stair(4)]:
        assert type(d) is Diagram and d == Diagram(d.cells)
        rooks = dark(d)
        assert type(rooks) is RookDiagram and rooks == RookDiagram(rooks.cells)


def test_rothe_carried_masks_agree_with_ranked_ones():
    # a Rothe diagram carries its row masks over columns 1..n; the same
    # cells through the public constructor rank their columns instead
    for n in range(8):
        for w in permutations(range(1, n + 1)):
            carried = rothe_diagram(w)
            ranked = Diagram(carried.cells)
            assert carried == ranked and hash(carried) == hash(ranked)
            assert rajcode(carried) == rajcode(ranked)
            assert dark(carried) == dark(ranked)
            assert snow(carried) == snow(ranked)


@pytest.mark.parametrize(
    "argv",
    [
        ["snow", "--cells", "0,1"],
        ["rajcode", "--cells", "2,0;1,1"],
        ["snow", "--perm", "11"],
        ["rajcode", "--comp=-1"],
        ["snow", "--comp=2,-1"],
    ],
)
def test_cli_rejects_invalid_diagrams(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


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


# -- the snow construction against its cell-set oracle -------------------------


def snow_parts_oracle(cells):
    """Oracle for the row-mask snow construction: dark clouds and
    snowflakes computed on the cell set itself.

    Rows are visited bottom to top; in each row the rightmost cell whose
    column holds no dark cloud yet becomes one, and the column above it is
    filled with snowflakes on empty positions.
    """
    rows = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
    darks = set()
    taken_cols = set()
    for r in sorted(rows, reverse=True):
        for c in sorted(rows[r], reverse=True):
            if c not in taken_cols:
                darks.add((r, c))
                taken_cols.add(c)
                break
    flakes = {(rp, c) for r, c in darks for rp in range(1, r) if (rp, c) not in cells}
    return darks, flakes


IRREGULAR = [
    Diagram(),
    Diagram({(3, 2)}),  # empty rows above the only cell
    Diagram({(1, 4), (4, 1), (4, 7)}),  # empty rows between cells
    Diagram({(2, 1), (2, 5), (2, 9), (5, 5)}),  # gaps inside rows
    Diagram({(1, 2), (3, 2), (6, 2)}),  # one column, rows apart
    Diagram({(2, 10**9), (1, 3), (5, 3), (5, 10**9 - 1)}),  # columns far apart
    EXAMPLE,
]


def _oracle_diagrams():
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            yield rothe_diagram(w)
        for alpha in product(*(range(n - r + 1) for r in range(1, n))):
            yield key_diagram(alpha)
    yield from IRREGULAR
    rng = random.Random(4242)
    for _ in range(300):
        yield _random_diagram(rng, max_row=7, max_col=9, cells=rng.randint(0, 14))


def test_snow_matches_cell_set_oracle():
    # every Rothe diagram of S_n and key diagram of the box C_n, n <= 7,
    # the irregular diagrams above and random ones
    for d in _oracle_diagrams():
        darks, flakes = snow_parts_oracle(d.cells)
        sd = snow(d)
        assert (sd.darks, sd.flakes) == (darks, flakes), sorted(d.cells)
        assert dark(d).cells == darks
        assert rajcode(d) == weight(Diagram(d.cells | flakes))


def test_far_column_costs_its_rank_not_its_value():
    d = Diagram({(1, 10**9), (3, 1), (3, 10**9)})
    start = time.perf_counter()
    code = rajcode(d)
    sd = snow(d)
    assert time.perf_counter() - start < 1.0
    assert code == (1, 1, 2)
    assert sd.darks == {(3, 10**9)} and sd.flakes == {(2, 10**9)}


def test_render_ascii_of_snow_on_cli_examples():
    # `snowpoly snow` on the README cells, on --perm 3721564 and on
    # --comp 2,0,4,3,1
    goldens = [
        (cli.parse_cells("1,3;2,1;2,2;3,3;5,1;5,2"), "1 **·\n2 ●·*\n3  *●\n4  *\n5 ·●"),
        (rothe_diagram((3, 7, 2, 1, 5, 6, 4)), "1 ·● * *\n2 ·· ··●\n3 ●  *\n4    *\n5    ·\n6    ●"),
        (key_diagram((2, 0, 4, 3, 1)), "1 ·●**\n2 * **\n3 ···●\n4 ··●\n5 ●"),
    ]
    for d, text in goldens:
        assert render_ascii(snow(d)) == text
