"""Permutation statistics, insertion, and shadow lines."""

import random

import pytest

from snowpoly import diagrams
from snowpoly.diagrams import rothe_diagram
from snowpoly.permutations import (
    all_permutations,
    canonical,
    decreasing_runs,
    invcode,
    inverse,
    inversions,
    is_fireworks,
    is_inverse_fireworks,
    lis_from,
    lis_lengths,
    parse_one_line,
    raj,
    rajcode,
    schensted,
    shadow_lines,
    turning_points,
)

W = (3, 7, 2, 1, 5, 6, 4)


def brute_lis_lengths(w):
    """Oracle: the longest increasing subsequence from each position, by
    trying every increasing continuation with nothing remembered between
    tries."""

    def longest(i):
        return 1 + max((longest(j) for j in range(i + 1, len(w)) if w[j] > w[i]), default=0)

    return [longest(i) for i in range(len(w))]


def shadow_line_turning_points(line):
    """Oracle: the turning points of one shadow line, (i, w(j)) for each
    two of its points (j, w(j)), (i, w(i)) listed next to each other."""
    pts = line.points
    return tuple((pts[k + 1][0], pts[k][1]) for k in range(len(pts) - 1))


def peeled_shadow_lines(w):
    """Oracle for shadow_lines: repeatedly take the points that no other
    remaining point shadows, listed with i decreasing. Positions and values
    are distinct, so a point is shadowed exactly when a later remaining
    point is larger, which one right-to-left scan per line decides."""
    remaining = list(enumerate(w, start=1))
    lines = []
    while remaining:
        line, rest, top = [], [], 0
        for i, v in reversed(remaining):
            (line if v > top else rest).append((i, v))
            top = max(top, v)
        lines.append(tuple(line))
        remaining = rest[::-1]
    return tuple(lines)


def test_canonical_and_parse():
    assert canonical((2, 1, 3, 4)) == (2, 1)
    assert canonical((1, 2, 3)) == ()
    with pytest.raises(ValueError):
        canonical((1, 1, 2))
    assert parse_one_line("3721564") == W
    assert parse_one_line("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    with pytest.raises(ValueError):
        parse_one_line("1234x")
    with pytest.raises(ValueError):
        parse_one_line("122")


def test_inversions_examples():
    assert inversions((4, 1, 5, 3, 2)) == {
        (1, 2), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5),
    }
    assert invcode(()) == ()
    assert invcode((4, 1, 5, 3, 2)) == (3, 0, 2, 1)
    assert sum(invcode((4, 1, 5, 3, 2))) == 6


def test_lis_from_examples():
    assert lis_from(W, 2) == 3
    assert lis_from(tuple(range(1, 6)), 1) == 5
    assert lis_from(W, 7) == 1
    with pytest.raises(ValueError):
        lis_from(W, 9)


def test_lis_from_against_brute_force():
    for n in range(8):
        for w in all_permutations(n):
            brute = brute_lis_lengths(w)
            assert lis_lengths(w) == brute
            assert [lis_from(w, q) for q in w] == brute


def test_lis_lengths_of_distinct_values_that_are_not_a_permutation():
    # only the order of the values matters: negatives, gaps and a value far
    # beyond the length, none of them indexing anything
    assert lis_lengths((5, 10**9)) == [2, 1]
    assert lis_lengths((-3, 10**9, -7, 0, 40)) == [3, 1, 3, 2, 1]
    assert lis_from((-3, 10**9, -7, 0, 40), -7) == 3
    rng = random.Random(15)
    for _ in range(500):
        w = rng.sample(range(-20, 20), rng.randint(0, 8)) + [10**9] * rng.randint(0, 1)
        rng.shuffle(w)
        w = tuple(w)
        assert lis_lengths(w) == brute_lis_lengths(w)
        assert turning_points(w) == {
            p for line in shadow_lines(w) for p in shadow_line_turning_points(line)
        }


def test_rajcode_examples():
    assert rajcode(W, 7) == (4, 5, 2, 1, 1, 1)
    assert raj(W, 7) == 14
    assert rajcode((1, 2, 3), 3) == ()
    assert rajcode((1, 4, 3, 2), 4) == (2, 2, 1)
    # the fixed tail is trimmed before the ambient n is checked
    assert rajcode((2, 1, 3), 2) == (1,)
    with pytest.raises(ValueError, match="beyond 2"):
        rajcode((3, 1, 2), 2)
    with pytest.raises(ValueError, match="not a permutation"):
        rajcode((1, 1, 2), 3)


def test_rajcode_is_the_padded_definition():
    # entry r is n - r (0-based r) minus the longest increasing subsequence
    # from position r of w padded with len(w) + 1, ..., n, trailing zeros
    # trimmed
    for m in range(7):
        for w in all_permutations(m):
            for n in range(m, m + 4):
                padded = w + tuple(range(m + 1, n + 1))
                code = [n - r - lis for r, lis in enumerate(brute_lis_lengths(padded))]
                while code and code[-1] == 0:
                    code.pop()
                assert rajcode(w, n) == tuple(code)


def test_rajcode_is_ambient_independent():
    for w in all_permutations(4):
        w = canonical(w)
        codes = {rajcode(w, n) for n in range(max(len(w), 1), len(w) + 4)}
        assert len(codes) == 1


def test_fireworks_examples():
    assert decreasing_runs((3, 4, 2, 1)) == [[3], [4, 2, 1]]
    assert is_inverse_fireworks((4, 3, 1, 2))
    assert not is_inverse_fireworks((2, 3, 4, 1))
    assert is_inverse_fireworks(())
    assert is_fireworks((2, 1, 3)) and not is_fireworks((3, 1, 2))


def test_schensted_final_tableaux():
    rows, _ = schensted(W)
    assert rows == ((7, 5, 3), (6, 2), (4, 1))
    rows, _ = schensted((1, 2, 3))
    assert rows == ((3, 2, 1),)
    rows, _ = schensted((2, 1))
    assert rows == ((2,), (1,))


def test_schensted_events():
    _, events = schensted(W)
    by_position = {e.position: e for e in events}
    assert by_position[4].kind == "append"
    assert by_position[4].value == 1
    assert by_position[4].column == 3
    assert by_position[6].kind == "bump"
    assert by_position[6].bumped == 4
    assert [e.position for e in events] == [7, 6, 5, 4, 3, 2, 1]


def test_schensted_tableau_shape_everywhere():
    # oracle for the insertion: the final partial tableau of every w in
    # S_0..S_7 has strictly decreasing rows and columns, weakly decreasing
    # row lengths, and exactly the values of w as entries
    for n in range(8):
        for w in all_permutations(n):
            rows, _ = schensted(w)
            for row in rows:
                assert all(a > b for a, b in zip(row, row[1:]))
            for upper, lower in zip(rows, rows[1:]):
                assert len(upper) >= len(lower)
                assert all(a > b for a, b in zip(upper, lower))
            assert sorted(v for row in rows for v in row) == list(range(1, n + 1))


def test_insertion_column_is_lis():
    for w in all_permutations(5):
        for event in schensted(w)[1]:
            assert event.column == lis_from(w, event.value)


def test_shadow_example():
    assert turning_points(W) == {(3, 1), (1, 2), (6, 4), (2, 6)}
    lines = shadow_lines(W)
    assert len(lines) == 3
    assert lines[0].points == ((7, 4), (6, 6), (2, 7))
    assert turning_points((1, 2, 3, 4)) == frozenset()


def test_shadow_lines_match_peeling():
    for n in range(9):
        for w in all_permutations(n):
            assert tuple(line.points for line in shadow_lines(w)) == peeled_shadow_lines(w)


def test_turning_points_match_shadow_lines():
    count = 0
    for n in range(8):
        for w in all_permutations(n):
            assert turning_points(w) == {
                p for line in shadow_lines(w) for p in shadow_line_turning_points(line)
            }
            count += 1
    assert count == 1 + 1 + 2 + 6 + 24 + 120 + 720 + 5040


def test_shadow_line_count_and_turning_count():
    for w in all_permutations(5):
        lines = shadow_lines(w)
        row_one = schensted(w)[0][0]
        assert len(lines) == len(row_one)
        assert len(turning_points(w)) == len(w) - len(row_one)


def test_turning_points_are_dark_clouds():
    for n in range(1, 8):
        for w in all_permutations(n):
            assert turning_points(w) == diagrams.dark(rothe_diagram(w)).cells


def test_bumps_match_dark_clouds():
    for w in all_permutations(5):
        darks = dict(diagrams.dark(rothe_diagram(w)).cells)
        for event in schensted(w)[1]:
            if event.kind == "append":
                assert event.position not in darks
            else:
                assert darks.get(event.position) == event.bumped


def test_shadow_lines_trace_row_one_bump_chains():
    # inserting the later point of a shadow line bumps the earlier one
    for w in all_permutations(5):
        _, events = schensted(w)
        bump_of = {e.position: e.bumped for e in events if e.kind == "bump"}
        for line in shadow_lines(w):
            pts = line.points
            for k in range(len(pts) - 1):
                assert bump_of[pts[k + 1][0]] == pts[k][1]


def test_inverse_fireworks_rightmost_cells():
    w6 = list(all_permutations(6))
    for w in w6:
        rd = rothe_diagram(w).cells
        rightmost = {}
        for r, c in rd:
            rightmost[r] = max(rightmost.get(r, 0), c)
        fireworks = is_inverse_fireworks(w)
        if fireworks:
            for r, c in rightmost.items():
                assert c == w[r - 1] - 1
        # characterization: inverse fireworks iff rightmost cells occupy
        # distinct columns iff every rightmost cell is a dark cloud
        distinct = len(set(rightmost.values())) == len(rightmost)
        darks = diagrams.dark(rothe_diagram(w)).cells
        all_dark = all((r, c) in darks for r, c in rightmost.items())
        assert fireworks == distinct == all_dark


def test_inverse_fireworks_rajcode_count_formula():
    for w in all_permutations(5):
        if not is_inverse_fireworks(w):
            continue
        code = rajcode(w, 5)
        invset = inversions(w)
        nonempty_rows = {r for r, _ in invset}
        for r in range(1, 6):
            expected = sum(
                1
                for rp in range(r + 1, 6)
                if (r, rp) in invset
                or (w[rp - 1] > w[r - 1] and rp in nonempty_rows)
            )
            actual = code[r - 1] if r <= len(code) else 0
            assert actual == expected


def test_inverse_fireworks_count_is_bell():
    from snowpoly.qbell import bell

    for n in range(1, 7):
        count = sum(1 for w in all_permutations(n) if is_inverse_fireworks(w))
        assert count == bell(n)


def test_inverse_of_inverse():
    for w in all_permutations(5):
        assert inverse(inverse(w)) == w


@pytest.mark.parametrize(
    "call",
    [lambda: inverse((1, 1)), lambda: inverse((3, 1)), lambda: is_inverse_fireworks((3, 1))],
    ids=["repeated-value", "value-too-large", "fireworks-value-too-large"],
)
def test_inverse_rejects_non_permutations(call):
    with pytest.raises(ValueError, match="not a permutation"):
        call()
