"""Self-test of the benchmark's checks: each accepts a correct output and
rejects a corrupted one.

    python3 perfbench/selftest.py      # from the root of a checkout

Correct outputs are small cases worked out by hand or taken from snowpoly
itself; corruptions are made by hand, one defect at a time.
"""

from __future__ import annotations

import io
import os
import sys
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402

# G_{132} = L_{(0,1)} = x1 + x2 + b x1 x2
G132 = {((1,), 0): 1, ((0, 1), 0): 1, ((1, 1), 1): 1}


class PolynomialChecks(unittest.TestCase):
    def test_grothendieck(self):
        self.assertIsNone(checks.check_grothendieck((1, 3, 2), G132))
        self.assertIsNone(checks.check_lascoux((0, 1), G132))
        bad = {
            "negative": {**G132, ((1, 1), 1): -1},
            "degree": {((1,), 0): 1, ((0, 2), 0): 1, ((1, 1), 1): 1},
            "value": {**G132, ((0, 1), 0): 2},
        }
        for name, terms in bad.items():
            with self.subTest(name):
                self.assertIsNotNone(checks.check_grothendieck((1, 3, 2), terms))
        # x2 has the right degree and value but lacks x^code(21) = x1
        self.assertIsNotNone(checks.check_grothendieck((2, 1), {((0, 1), 0): 1}))
        self.assertIsNotNone(checks.check_lascoux((1,), {((0, 1), 0): 1}))

    def test_top_layer(self):
        # rajcode(132) = (1, 1); the top layer of G_132 is x1 x2
        self.assertIsNone(checks.check_top_layer((1, 3, 2), 3, {((1, 1), 0): 1}))
        self.assertIsNotNone(checks.check_top_layer((1, 3, 2), 3, {((2,), 0): 1}))
        self.assertIsNotNone(checks.check_top_layer((1, 3, 2), 3, {((1, 1), 1): 1}))

    def test_rebuild(self):
        basis = {(0, 1): G132, (1,): {((1,), 0): 1}}
        target = {((2,), 0): 1, ((1, 1), 0): 1, ((2, 1), 1): 1}  # x1 * G_132
        x1 = {(1,): {((1,), 0): 1}}
        self.assertIsNone(checks.check_rebuild(G132, {(0, 1): 1}, basis, 3, True))
        self.assertIsNone(checks.check_rebuild(G132, {(0, 1): {0: 1}}, basis, 3, False))
        self.assertIsNotNone(checks.check_rebuild(G132, {(0, 1): 2}, basis, 3, True))
        self.assertIsNotNone(checks.check_rebuild(G132, {(0, 1): {0: 1, 1: 1}}, basis, 3, False))
        self.assertIsNotNone(checks.check_rebuild(target, {(0, 1): 1}, basis, 3, True))
        self.assertIsNotNone(
            checks.check_rebuild({((1,), 0): -1}, {(1,): -1}, x1, 3, True)
        )
        self.assertIsNotNone(checks.check_rebuild(G132, {(0, 1): 1}, basis, 2, True))
        two = {((1, 1), 0): 1}
        self.assertIsNotNone(checks.check_rebuild(two, {(1, 1): 1}, {(1, 1): two}, 3, True))

    def test_tables(self):
        from snowpoly import goldens, schubert

        def lookup(index):
            return {(tuple(m.xexp), m.bexp): c for m, c in schubert.grothendieck(index).items()}

        self.assertIsNone(checks.check_tables(goldens.GROTHENDIECK_S4, lookup))
        self.assertIsNotNone(
            checks.check_tables(goldens.GROTHENDIECK_S4, lambda i: {**lookup(i), ((9,), 9): 1})
        )


class StatisticsChecks(unittest.TestCase):
    def test_reference_rajcode_routes_agree(self):
        from itertools import permutations

        for n in range(1, 7):
            for w in permutations(range(1, n + 1)):
                self.assertEqual(checks.rajcode_psw(w), checks.rajcode_snow(checks.rothe_cells(w)))

    def test_reference_counts(self):
        self.assertEqual([checks.bell(n) for n in range(8)], [1, 1, 2, 5, 15, 52, 203, 877])
        self.assertEqual(checks.q_bell(3), (1, 2, 1, 1))
        self.assertEqual(checks.q_stirling_table(3)[3][2], (0, 2, 1))
        self.assertEqual(checks.stable_hilbert(7), (1, 1, 2, 4, 7, 12, 20, 33))

    def test_permutation_statistics(self):
        from snowpoly import diagrams, permutations as perm

        w = (3, 1, 4, 2)
        code = perm.rajcode(w, 4)
        turning = perm.turning_points(w)
        row_one = [(e.value, e.column) for e in perm.schensted(w)[1]]
        self.assertIsNone(checks.check_permutation_statistics(w, code, code, turning, row_one))
        wrong = (code[0] + 1,) + tuple(code[1:])
        self.assertIsNotNone(checks.check_permutation_statistics(w, code, wrong, turning, row_one))
        self.assertIsNotNone(checks.check_permutation_statistics(w, wrong, wrong, turning, row_one))
        moved = set(turning) ^ {(9, 9)}
        self.assertIsNotNone(checks.check_permutation_statistics(w, code, code, moved, row_one))
        shifted = [(v, c + 1) for v, c in row_one]
        self.assertIsNotNone(checks.check_permutation_statistics(w, code, code, turning, shifted))
        self.assertEqual(diagrams.rajcode(diagrams.rothe_diagram(w)), code)

    def test_composition_statistics(self):
        from snowpoly import compositions

        alpha = (1, 2, 2)
        code = compositions.rajcode(alpha)
        rep = compositions.snowy_representative(alpha)
        self.assertIsNone(checks.check_composition_statistics(alpha, code, rep, rep))
        self.assertIsNotNone(checks.check_composition_statistics(alpha, code + (1,), rep, rep))
        self.assertIsNotNone(checks.check_composition_statistics(alpha, code, alpha, alpha))
        self.assertIsNotNone(checks.check_composition_statistics(alpha, code, rep, (5,)))

    def test_distinct_rajcodes(self):
        from itertools import permutations

        codes = [checks.rajcode_psw(w) for w in permutations(range(1, 5))]
        self.assertIsNone(checks.check_distinct_rajcodes(4, codes))
        self.assertIsNotNone(checks.check_distinct_rajcodes(4, codes[:-1] + [codes[0]] * 30))

    def test_rooks_and_hilbert(self):
        from snowpoly import qbell

        n = 5
        rooks = qbell.enumerate_rook_n(n)
        cells = [r.cells for r in rooks]
        gr = [qbell.gr_stat(r, n) for r in rooks]
        nw = [qbell.nw_stat(r) for r in rooks]
        self.assertIsNone(checks.check_rook_statistics(n, cells, gr, nw))
        self.assertIsNotNone(checks.check_rook_statistics(n, cells[1:], gr[1:], nw[1:]))
        self.assertIsNotNone(checks.check_rook_statistics(n, cells, [gr[0] + 1] + gr[1:], nw))
        # swap two gr values between placements of different sizes: sums stay, splits break
        k = next(i for i in range(len(gr)) if len(cells[i]) != len(cells[0]) and gr[i] != gr[0])
        swapped = list(gr)
        swapped[0], swapped[k] = gr[k], gr[0]
        nw_swapped = list(nw)
        nw_swapped[0], nw_swapped[k] = nw[k], nw[0]
        self.assertIsNotNone(checks.check_rook_statistics(n, cells, swapped, nw_swapped))
        attacking = [frozenset({(1, 1), (2, 1)})] + cells[1:]
        self.assertIsNotNone(checks.check_rook_statistics(n, attacking, gr, nw))
        self.assertIsNone(checks.check_hilbert(n, qbell.hilb_vn(n)))
        self.assertIsNotNone(checks.check_hilbert(n, checks.q_bell(n)))


class VerifyOutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from snowpoly import cli, verify

        buf = io.StringIO()
        with redirect_stdout(buf):
            for suite in verify.SUITES:
                cli.main(["verify", suite, "4"])
        cls.text = buf.getvalue()

    def test_accepts_real_output(self):
        msg, count = checks.check_verify_output(self.text, 4)
        self.assertIsNone(msg)
        self.assertGreater(count, 20)

    def test_rejects_corruptions(self):
        text = self.text
        line = next(x for x in text.splitlines() if "pairs checked" in x)
        fewer = line.replace("276 pairs", "275 pairs")
        cases = {
            "failed check": text.replace("[PASS]", "[FAIL]", 1),
            "wrong count": text.replace(line, fewer),
            "missing check": text.replace(line + "\n", "", 1),
            "summary": text.replace("checks passed", "x", 1),
        }
        self.assertNotEqual(line, fewer)
        for name, bad in cases.items():
            with self.subTest(name):
                self.assertIsNotNone(checks.check_verify_output(bad, 4)[0])


if __name__ == "__main__":
    unittest.main()
