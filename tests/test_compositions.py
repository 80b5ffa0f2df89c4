"""Weak compositions: snowiness, equivalence, and representatives."""

import random
from itertools import product

import pytest

from snowpoly import diagrams
from snowpoly.compositions import (
    canonical,
    dark_inverse,
    enumerate_cn,
    enumerate_snowy_cn,
    in_cn,
    is_snowy,
    raj,
    raj_equivalent,
    rajcode,
    s_action,
    snowy_from_rajcode,
    snowy_representative,
)
from snowpoly.diagrams import RookDiagram, key_diagram
from snowpoly.qbell import enumerate_rook_n


def random_comps(seed, count, entries=5, length=5):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.randint(0, entries) for _ in range(rng.randint(0, length)))


def rajcode_snowy_direct(alpha):
    """Oracle closed formula for snowy alpha: entry r is alpha_r plus the
    number of later rows with a strictly larger entry. The production form
    is the row weight of the raj transfer, `qbell._raj_weight`."""
    alpha = canonical(alpha)
    if not is_snowy(alpha):
        raise ValueError("closed formula requires a snowy weak composition")
    return canonical(
        a + sum(1 for b in alpha[r + 1 :] if a < b) for r, a in enumerate(alpha)
    )


def test_canonical():
    assert canonical([0, 2, 1, 0, 0]) == (0, 2, 1)
    assert canonical([]) == ()
    with pytest.raises(ValueError):
        canonical([1, -1])


def test_is_snowy_examples():
    assert is_snowy((2, 0, 4, 3, 1))
    assert not is_snowy((3, 1, 4, 3, 1))
    assert is_snowy(())


def test_rajcode_examples():
    assert rajcode((2, 0, 4, 3, 1)) == (4, 3, 4, 3, 1)
    assert rajcode((0, 2, 1)) == (2, 2, 1)
    assert rajcode(()) == ()
    assert raj((2, 0, 4, 3, 1)) == 15


def test_rajcode_snowy_direct_examples():
    assert rajcode_snowy_direct((2, 0, 4, 3, 1)) == (4, 3, 4, 3, 1)
    assert rajcode_snowy_direct((0, 2, 0)) == (1, 2)
    assert rajcode_snowy_direct((3, 2, 1)) == (3, 2, 1)
    with pytest.raises(ValueError):
        rajcode_snowy_direct((1, 1))


def test_direct_formula_matches_snow_everywhere():
    for alpha in enumerate_snowy_cn(5):
        assert rajcode_snowy_direct(alpha) == rajcode(alpha)
        # raj via the pair-count form
        pairs = sum(
            1
            for r in range(len(alpha))
            for rp in range(r + 1, len(alpha))
            if alpha[r] < alpha[rp]
        )
        assert raj(alpha) == sum(alpha) + pairs


def test_dark_inverse_examples():
    assert dark_inverse(RookDiagram({(2, 1), (3, 3), (5, 2)})) == (0, 1, 3, 0, 2)
    assert dark_inverse(RookDiagram()) == ()
    assert dark_inverse({(1, 2)}) == (2,)  # raw cells become a RookDiagram first
    assert dark_inverse(RookDiagram({(1, 2), (3, 4), (4, 3), (5, 1)})) == (2, 0, 4, 3, 1)
    # round trip through the snow construction
    assert diagrams.dark(key_diagram((0, 1, 3, 0, 2))).cells == {(2, 1), (3, 3), (5, 2)}


def test_dark_inverse_bijection():
    rooks = enumerate_rook_n(5)
    for rook in rooks:
        alpha = dark_inverse(rook)
        assert is_snowy(alpha)
        assert diagrams.dark(key_diagram(alpha)).cells == rook.cells
    assert [dark_inverse(rook) for rook in rooks] == enumerate_snowy_cn(5)
    for alpha in enumerate_snowy_cn(5):
        assert dark_inverse(diagrams.dark(key_diagram(alpha))) == alpha
        assert diagrams.dark(key_diagram(alpha)).cells == {
            (r + 1, a) for r, a in enumerate(alpha) if a > 0
        }


def test_snowy_representative_examples():
    assert snowy_representative((3, 1, 4, 3, 1)) == (2, 0, 4, 3, 1)
    assert snowy_representative((1, 1)) == (0, 1)
    assert snowy_representative((2, 0, 4, 3, 1)) == (2, 0, 4, 3, 1)


def test_snowy_representative_is_minimal_in_class():
    for gamma in random_comps(404, 300):
        alpha = snowy_representative(gamma)
        assert is_snowy(alpha)
        assert raj_equivalent(alpha, gamma)
        padded = alpha + (0,) * (len(gamma) - len(alpha))
        assert all(a <= g for a, g in zip(padded, gamma))


def test_raj_equivalent_examples():
    assert raj_equivalent((2, 0, 4, 3, 1), (3, 1, 4, 3, 1))
    assert not raj_equivalent((0, 1), (1, 0))
    assert raj_equivalent((0, 2, 1), (0, 2, 1))


def test_three_way_equivalence():
    # equal rajcodes, equal dark clouds, and equal snow supports coincide,
    # exhaustively over the box for 4 and on random samples
    pool = list(enumerate_cn(4)) + [canonical(a) for a in random_comps(11, 60, 4, 4)]
    data = {
        a: (
            rajcode(a),
            diagrams.dark(key_diagram(a)).cells,
            diagrams.snow(key_diagram(a)).cells,
        )
        for a in set(pool)
    }
    items = sorted(data)
    for a in items:
        for b in items:
            ra, da, sa = data[a]
            rb, db, sb = data[b]
            assert (ra == rb) == (da == db) == (sa == sb)


def test_s_action_examples():
    assert s_action((0, 2, 1), 1) == (2, 0, 1)
    assert s_action((1,), 1) == (0, 1)
    assert s_action((2, 1), 2) == (2, 0, 1)
    with pytest.raises(ValueError, match="index must be positive"):
        s_action((1,), 0)


def test_snowy_descent_swap_rule():
    # for snowy alpha with a descent at i, the rajcode of the swap is the
    # swapped rajcode plus the unit vector at i
    assert rajcode((2, 1)) == (2, 1)
    assert rajcode((1, 2)) == (2, 2)
    for alpha in enumerate_snowy_cn(5):
        for i in range(1, len(alpha) + 1):
            ai = alpha[i - 1] if i <= len(alpha) else 0
            ai1 = alpha[i] if i < len(alpha) else 0
            if ai > ai1:
                swapped = rajcode(s_action(alpha, i))
                expected = list(s_action(rajcode(alpha), i))
                while len(expected) < i:
                    expected.append(0)
                expected[i - 1] += 1
                assert swapped == canonical(expected)


def test_row_swap_preserves_equivalence_when_cell_above_missing():
    # if some column has a snow cell in row r+1 but none in row r, then the
    # entry below is strictly larger and the dark clouds just swap rows
    for alpha in random_comps(777, 400, 4, 4):
        alpha = canonical(alpha)
        sd = diagrams.snow(key_diagram(alpha))
        cells = sd.cells
        top = max((r for r, _ in cells), default=0) + 1
        for r in range(1, top):
            witness_cols = [
                c
                for c in range(1, 8)
                if (r, c) not in cells and (r + 1, c) in cells
            ]
            if not witness_cols:
                continue
            ar = alpha[r - 1] if r <= len(alpha) else 0
            ar1 = alpha[r] if r + 1 <= len(alpha) else 0
            assert ar1 > ar
            swapped = diagrams.dark(key_diagram(s_action(alpha, r))).cells
            renamed = {
                (r + 1 if rr == r else r if rr == r + 1 else rr, c)
                for rr, c in diagrams.dark(key_diagram(alpha)).cells
            }
            assert swapped == renamed


def test_enumerate_cn():
    assert len(enumerate_cn(3)) == 6
    assert set(enumerate_cn(3)) == {(), (1,), (2,), (0, 1), (1, 1), (2, 1)}
    assert len(enumerate_cn(5)) == 120
    assert all(in_cn(a, 4) for a in enumerate_cn(4))
    assert not in_cn((1, 1, 1), 3)  # support beyond the first n - 1 rows
    with pytest.raises(ValueError, match="n must be positive"):
        enumerate_cn(0)


def test_enumerate_snowy_cn_against_brute_filter():
    for n in (1, 2, 3, 4, 5):
        brute = sorted(a for a in enumerate_cn(n) if is_snowy(a))
        assert enumerate_snowy_cn(n) == brute
    assert len(enumerate_snowy_cn(4)) == 15
    assert enumerate_snowy_cn(1) == [()]
    with pytest.raises(ValueError, match="n must be positive"):
        enumerate_snowy_cn(0)


def test_snowy_from_rajcode_round_trip():
    for alpha in enumerate_snowy_cn(5):
        assert snowy_from_rajcode(rajcode(alpha)) == alpha
    # brute-force validation over every composition in a small box
    for vec in product(range(4), repeat=3):
        alpha = canonical(vec)
        assert snowy_from_rajcode(rajcode(alpha)) == snowy_representative(alpha)


def test_snowy_from_rajcode_rejects_non_rajcodes():
    with pytest.raises(ValueError):
        snowy_from_rajcode((0, 1))


def test_snowy_from_rajcode_decides_every_code_in_a_box():
    # the snowy composition with rajcode mu has alpha_r <= mu_r, so every
    # rajcode in range(6)^5 comes from a composition in range(6)^5
    box = list(product(range(6), repeat=5))
    codes = {rajcode(alpha) for alpha in box}
    accepted = 0
    for mu in box:
        if canonical(mu) in codes:
            alpha = snowy_from_rajcode(mu)
            assert is_snowy(alpha) and rajcode(alpha) == canonical(mu)
            accepted += 1
        else:
            with pytest.raises(ValueError):
                snowy_from_rajcode(mu)
    assert accepted == 1546
