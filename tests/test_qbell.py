"""q-analogues, rook statistics, and the Hilbert series."""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest

from snowpoly import qbell
from snowpoly.compositions import canonical, dark_inverse, enumerate_snowy_cn, is_snowy, raj
from snowpoly.diagrams import Diagram, RookDiagram, dark, key_diagram, stair
from snowpoly.qbell import (
    bell,
    enumerate_rook_n,
    gr_stat,
    hilb_v_stabilized,
    hilb_v_truncated,
    hilb_vn,
    nw_stat,
    q_bell,
    q_stirling,
    qp_add,
    qp_rev,
    qp_trim,
    stirling,
)
from snowpoly.verify import run_suite


def qp_mul(p, q):
    """Oracle product of two q-polynomials, every pair of terms in full."""
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return qp_trim(out)


def test_q_stirling_and_q_bell_values():
    assert q_bell(0) == (1,)
    assert q_bell(-1) == () and q_stirling(-1, 0) == ()
    assert q_bell(3) == (1, 2, 1, 1)
    assert q_stirling(3, 2) == (0, 2, 1)
    assert q_stirling(0, 0) == (1,)
    assert q_stirling(0, 2) == ()
    for n in range(8):
        assert sum(q_bell(n)) == bell(n)
        for k in range(n + 2):
            assert sum(q_stirling(n, k)) == stirling(n, k)


@lru_cache(maxsize=None)
def q_stirling_recursive(n, k):
    """Oracle for q_stirling: the recurrence read top-down, memoized."""
    if n < 0 or k < 0:
        return ()
    if n == 0:
        return (1,) if k == 0 else ()
    shifted = qp_mul((0,) * (k - 1) + (1,), q_stirling_recursive(n - 1, k - 1)) if k else ()
    return qp_add(shifted, qp_mul((1,) * k, q_stirling_recursive(n - 1, k)))


def test_q_stirling_and_q_bell_match_the_recursion_to_12():
    for n in range(13):
        row = [q_stirling_recursive(n, k) for k in range(n + 2)]
        assert [q_stirling(n, k) for k in range(n + 2)] == row
        total = ()
        for s in row:
            total = qp_add(total, s)
        assert q_bell(n) == total
        assert [stirling(n, k) for k in range(n + 2)] == [sum(s) for s in row]
        assert bell(n) == sum(total)


def test_row_by_row_tables_reach_deep_rows():
    # n = 1200 is deeper than the interpreter's recursion limit
    s3 = (3**1200 - 3 * 2**1200 + 3) // 6  # S(n, 3) in closed form
    q = q_stirling(1200, 3)
    assert sum(q) == s3 == stirling(1200, 3)
    assert len(q) - 1 == 3 + 2 * (1200 - 3)  # degree C(k, 2) + (n - k)(k - 1)
    assert q[0] == 0 < q[3] and q[-1] == 1
    # Touchard's congruence B(p + n) = B(n) + B(n + 1) mod a prime p
    assert bell(1009) % 1009 == (bell(0) + bell(1)) % 1009


def test_integer_stirling_and_bell():
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert stirling(4, 2) == 7
    assert stirling(5, 0) == 0
    assert stirling(-1, 0) == 0 and bell(-1) == 0


def test_q_bell_degree():
    for n in range(1, 8):
        assert len(q_bell(n)) - 1 == n * (n - 1) // 2


def test_q_bell_binomial_recurrence():
    # B_{n+1}(q) = sum_j q^j C(n, j) B_j(q)
    for n in range(7):
        total = ()
        for j in range(n + 1):
            shift = (0,) * j + (1,)
            total = qp_add(total, qp_mul(shift, tuple(comb(n, j) * c for c in q_bell(j))))
        assert total == q_bell(n + 1)


def test_rook_enumeration():
    assert enumerate_rook_n(1) == [RookDiagram()]
    assert len(enumerate_rook_n(3)) == 5
    assert {frozenset(r.cells) for r in enumerate_rook_n(3)} == {
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
        frozenset({(1, 2), (2, 1)}),
    }
    assert len(enumerate_rook_n(4)) == 15
    for n in range(1, 8):
        assert len(enumerate_rook_n(n)) == bell(n)


def test_rooks_are_the_dark_clouds_of_the_snowy_key_diagrams():
    # oracle: the snow construction on the key diagram of each snowy
    # composition, in the same order; the rook of row r sits in column
    # alpha_r, so row r's mask is the bit of that column, or 0
    for n in range(1, 9):
        snowy = enumerate_snowy_cn(n)
        rooks = enumerate_rook_n(n)
        assert rooks == [dark(key_diagram(alpha)) for alpha in snowy]
        for rook, alpha in zip(rooks, snowy):
            assert [mask.bit_length() for mask in rook._rows] == list(alpha)
            assert all(mask & (mask - 1) == 0 for mask in rook._rows)


def test_rook_enumeration_is_every_non_attacking_subset():
    # oracle: brute-force subsets of the staircase; the placements skip the
    # checks of the public constructor, which accepts every one of them
    for n in range(1, 7):
        cells = sorted(stair(n).cells)
        brute = set()
        for k in range(len(cells) + 1):
            for subset in combinations(cells, k):
                rows = {r for r, _ in subset}
                cols = {c for _, c in subset}
                if len(rows) == len(cols) == k:
                    brute.add(frozenset(subset))
        rooks = enumerate_rook_n(n)
        assert len(rooks) == len(brute)
        assert {r.cells for r in rooks} == brute
        assert all(type(r) is RookDiagram and RookDiagram(r.cells) == r for r in rooks)


def test_gr_and_nw_examples():
    assert gr_stat(RookDiagram(), 3) == 3
    assert gr_stat(RookDiagram({(2, 1)}), 3) == 1
    assert nw_stat(RookDiagram({(2, 1)})) == 2
    assert nw_stat(RookDiagram()) == 0
    with pytest.raises(ValueError):
        gr_stat(RookDiagram({(1, 4)}), 3)
    with pytest.raises(ValueError):
        gr_stat(RookDiagram(), 0)


def test_gr_and_nw_reject_attacking_cells():
    # a plain Diagram is converted to a RookDiagram, which checks it
    with pytest.raises(ValueError, match="attacking"):
        gr_stat(Diagram({(1, 1), (1, 2)}), 3)
    with pytest.raises(ValueError, match="attacking"):
        nw_stat(Diagram({(1, 1), (2, 1)}))
    assert gr_stat(Diagram({(2, 1)}), 3) == 1 and nw_stat([(2, 1)]) == 2


def gr_by_marking(cells, n):
    """Oracle for gr_stat: the staircase cells left after each rook marks
    its column upward and its row leftward."""
    marked = set()
    for r, c in cells:
        marked.update((rp, c) for rp in range(1, r + 1))
        marked.update((r, cp) for cp in range(1, c + 1))
    return len(stair(n).cells - marked)


def raj_by_row_weights(placement, n):
    """The raj transfer's row weights along one placement, bottom row first."""
    cols = dict(placement)
    total = used = 0
    for r in range(n - 1, 0, -1):
        c = cols.get(r, 0)
        total += qbell._raj_weight(r, c, used)
        used |= (1 << c) if c else 0
    return total


def test_snow_raj_matches_closed_formula_and_nw_per_placement():
    # oracle for the transfers: the snow construction agrees with the raj
    # transfer's closed formula and with the northwest statistic on every
    # placement, and gr_stat agrees with the set-marking count
    for n in range(1, 9):
        for rook in enumerate_rook_n(n):
            snow_raj = raj(dark_inverse(rook))
            assert snow_raj == raj_by_row_weights(rook.cells, n)
            assert snow_raj == nw_stat(rook)
            assert gr_stat(rook, n) == gr_by_marking(rook.cells, n)


def nw_weight(r, c, used):
    # rows top-down: the column segment of (r, c) meets the row segments of
    # the earlier rooks in columns right of c
    return r + c - 1 - (used >> (c + 1)).bit_count()


def nw_transfer(n):
    """Oracle route for hilb_vn: the northwest statistic summed over the
    staircase rows top-down, counting placements by (columns used, statistic)
    without listing them."""
    states = Counter({(0, 0): 1})
    for r in range(1, n):
        nxt = Counter()
        for (used, d), k in states.items():
            nxt[used, d] += k  # row r stays empty
            for c in range(1, n - r + 1):
                if not used >> c & 1:
                    nxt[used | 1 << c, d + nw_weight(r, c, used)] += k
        states = nxt
    total = Counter()
    for (_, d), k in states.items():
        total[d] += k
    return qp_trim(total[d] for d in range(max(total) + 1))


def test_northwest_transfer_is_reversed_q_bell():
    for n in range(1, 13):
        assert nw_transfer(n) == qp_rev(q_bell(n))


def test_hilb_vn_values():
    assert hilb_vn(1) == (1,)
    assert hilb_vn(3) == (1, 1, 2, 1)
    for n in range(1, 13):
        assert sum(hilb_vn(n)) == bell(n)
        assert hilb_vn(n) == qp_rev(q_bell(n))
    with pytest.raises(ValueError):
        hilb_vn(0)


def test_qbell_suite_names_first_level_where_hilbert_series_differs(monkeypatch):
    # a raj weight that is one short for a rook in row 3, column 1, which
    # exists from n = 4 on
    raj_weight = qbell._raj_weight
    monkeypatch.setattr(
        qbell, "_raj_weight", lambda r, c, used: raj_weight(r, c, used) - ((r, c) == (3, 1))
    )
    results = {r.name: r for r in run_suite("qbell", 5)}
    check = results["Hilbert series routes agree"]
    assert not check.passed
    assert check.detail.endswith("at n=4")


def stable_series_by_products(n_degrees):
    """Oracle for hilb_v_truncated: each factor 1 + q^m / (1 - q) spelled
    out as a geometric sum up to n_degrees, multiplied in full, then cut."""
    acc = (1,)
    for m in range(1, n_degrees + 1):
        factor = (1,) + (0,) * (m - 1) + (1,) * (n_degrees - m + 1)
        acc = qp_mul(acc, factor)[: n_degrees + 1]
    return acc


def test_hilb_v_truncated_values():
    assert hilb_v_truncated(0) == (1,)
    assert hilb_v_truncated(3) == (1, 1, 2, 4)
    for d in range(40):
        assert hilb_v_truncated(d) == stable_series_by_products(d)
    with pytest.raises(ValueError):
        hilb_v_truncated(-1)


def test_hilb_truncation_against_snowy_enumeration_oracle():
    # all snowy compositions with raj at most 3 live in a 3-entry box
    counts = [0, 0, 0, 0]
    seen = set()
    for vec in product(range(4), repeat=3):
        alpha = canonical(vec)
        if alpha in seen or not is_snowy(alpha):
            continue
        seen.add(alpha)
        r = raj(alpha)
        if r <= 3:
            counts[r] += 1
    assert tuple(counts) == hilb_v_truncated(3)


def test_hilb_stabilization(monkeypatch):
    for degrees in (3, 5, 8):
        assert hilb_v_stabilized(degrees) == hilb_v_truncated(degrees)
    with pytest.raises(ValueError):
        hilb_v_stabilized(-1)
    # a level-n series whose degree-1 coefficient is n never stabilizes
    monkeypatch.setattr(qbell, "hilb_vn", lambda n: (1, n))
    with pytest.raises(ArithmeticError, match="failed to stabilize"):
        hilb_v_stabilized(3)


def test_prepend_largest_entry_shifts_raj():
    # prepending a strictly largest entry M raises raj by exactly M
    for vec in product(range(4), repeat=3):
        alpha = canonical(vec)
        if not is_snowy(alpha):
            continue
        m = (max(alpha) if alpha else 0) + 1
        assert raj((m,) + alpha) == raj(alpha) + m
