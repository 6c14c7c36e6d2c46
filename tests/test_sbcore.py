"""Superboolean arithmetic, nonsingularity, witnesses and rank."""

import itertools
import random

import pytest

from boolrep import reps, sbcore
from boolrep.errors import DimensionError, FormatError, SizeError, TooLarge, UnknownColumn, \
    ZeroColumn
from boolrep.lattice import congruent, family_matrix, flats_of_matrix, full_matrix, \
    lattice_from_matrix, matrix_of
from boolrep.sbcore import (
    SB,
    BoolMatrix,
    Witness,
    columns_independent,
    is_nonsingular,
    matrix_rank,
    permanent,
    triangular_certificate,
    witness_for,
    witness_for_mask,
    _peel,
)
from conftest import (
    congruent_by_rows,
    family_matrix_by_rows,
    full_matrix_by_rows,
    independent_oracle,
    matrix_from_text_by_rows,
    matrix_of_by_rows,
    matrix_rank_top_down,
    matrix_to_text_by_rows,
    permanent_oracle,
    permuted_matrix,
    rowsum_closure_by_rows,
    stack_matrices_by_rows,
    transpose,
    witness_by_backtracking,
    witness_verifies,
)


def M(rows, cols=None):
    return BoolMatrix.build(rows, col_labels=cols)


class TestSemiring:
    def test_addition_table(self):
        z, o, n = SB.ZERO, SB.ONE, SB.ONE_NU
        assert z + z is z and z + o is o and z + n is n
        assert o + o is n and o + n is n and n + n is n

    def test_multiplication_table(self):
        z, o, n = SB.ZERO, SB.ONE, SB.ONE_NU
        assert z * z is z and z * o is z and z * n is z
        assert o * o is o and o * n is n and n * n is n

    def test_associativity_and_commutativity(self):
        vals = list(SB)
        for a, b, c in itertools.product(vals, repeat=3):
            assert (a + b) + c is a + (b + c)
            assert (a * b) * c is a * (b * c)
            assert a + b is b + a
            assert a * b is b * a
            assert a * (b + c) is (a * b) + (a * c)


class TestPermanent:
    def test_single_one(self):
        assert permanent(M([[1]])) is SB.ONE

    def test_lower_triangular_two(self):
        assert permanent(M([[1, 0], [1, 1]])) is SB.ONE

    def test_all_ones_saturates(self):
        m = M([[1, 1, 1]] * 3)
        assert permanent(m) is SB.ONE_NU
        assert permanent_oracle(m) is SB.ONE_NU  # 6 unit products

    def test_zero_matrix(self):
        assert permanent(M([[0, 0], [0, 0]])) is SB.ZERO

    def test_matches_oracle_exhaustive_3x3(self):
        cols = ["a", "b", "c"]
        for bits in range(1 << 9):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            m = M(rows, cols)
            assert permanent(m) is permanent_oracle(m)

    def test_guards(self):
        with pytest.raises(DimensionError):
            permanent(M([[1, 0]]))
        big = M([[1] * 13 for _ in range(13)])
        with pytest.raises(SizeError):
            permanent(big)


class TestNonsingular:
    def test_identity(self):
        assert is_nonsingular(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_zero_row_is_singular(self):
        # the three columns of the worked 3x4 example are dependent
        assert not is_nonsingular(M([[1, 0, 1], [0, 1, 1], [0, 0, 0]]))

    def test_certificate_is_triangular(self):
        m = M([[1, 1, 0], [1, 1, 1], [0, 1, 0]])
        w = triangular_certificate(m)
        if w is not None:
            assert witness_verifies(w, m)

    def test_agrees_with_permanent_random_4x4(self):
        rng = random.Random(401)
        for _ in range(100):
            rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
            m = M(rows)
            assert is_nonsingular(m) == (permanent(m) is SB.ONE)

    def test_agrees_with_permanent_all_3x3(self):
        for bits in range(1 << 9):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            m = M(rows)
            w = triangular_certificate(m)
            assert (w is not None) == (permanent(m) is SB.ONE)
            if w is not None:
                assert witness_verifies(w, m)


LIB = M([[1, 0, 1, 1], [0, 1, 1, 0], [0, 0, 0, 1]], ["1", "2", "3", "4"])


class TestColumnsIndependent:
    def test_worked_example_independent_set(self):
        assert columns_independent(LIB, ("1", "2", "4"))
        w = witness_for(LIB, ("1", "2", "4"))
        assert witness_verifies(w, LIB)

    def test_worked_example_dependent_set(self):
        assert not columns_independent(LIB, ("1", "2", "3"))

    def test_empty_set(self):
        assert columns_independent(LIB, ())
        assert witness_for(LIB, ()) == Witness((), ())

    def test_more_columns_than_rows(self):
        assert not columns_independent(M([[1, 1]]), ("1", "2"))

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            columns_independent(LIB, ("9",))

    def test_downward_closure(self):
        rng = random.Random(77)
        for _ in range(40):
            rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
            m = M(rows)
            for k in range(1, 5):
                for combo in itertools.combinations(m.col_labels, k):
                    if columns_independent(m, combo):
                        for sub in itertools.combinations(combo, k - 1):
                            assert columns_independent(m, sub)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(1234)
        for max_rows in (4, 7):  # square-ish, then tall
            for _ in range(60):
                nr, nc = rng.randint(1, max_rows), rng.randint(1, 4)
                rows = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
                m = M(rows)
                for k in range(0, nc + 1):
                    for combo in itertools.combinations(m.col_labels, k):
                        assert columns_independent(m, combo) == \
                            independent_oracle(m, combo), (rows, combo)

    def test_greedy_matches_backtracking(self):
        # Same certificate, or the same None, as the exhaustive search; the
        # bool path agrees with the certificate path.
        rng = random.Random(1406)
        for _ in range(150):
            nr, nc = rng.randint(1, 10), rng.randint(1, 6)
            rows = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
            m = M(rows)
            for target in range(1 << nc):
                w = witness_for_mask(m, target)
                assert w == witness_by_backtracking(m, target), (rows, target)
                labels = [m.col_labels[j] for j in range(nc) if target >> j & 1]
                assert columns_independent(m, labels) == (w is not None)

    def test_peel_visits_are_linear(self):
        # e0..e9 each twice, 11 columns: dependent, since column 10 is zero.
        # Backtracking tries every peel order here; the greedy peel visits at
        # most |J| * rows rows.  The count fails the test as soon as it is
        # passed, so a search that backtracks fails instead of running on.
        k = 10
        m = M([[int(j == i) for j in range(k + 1)] for i in range(k) for _ in (0, 1)])
        bound = (k + 1) * m.n_rows

        class CountingRows(list):
            visits = 0

            def __iter__(self):
                for r in list.__iter__(self):
                    self.visits += 1
                    assert self.visits <= bound, "the peel backtracks"
                    yield r

        rows = CountingRows(m.ones_masks)
        assert not _peel(rows, (1 << (k + 1)) - 1)
        assert rows.visits > 0
        assert witness_for(m, m.col_labels) is None
        assert witness_for(m, m.col_labels[:k]) is not None

    def test_deterministic_certificate(self):
        w1 = witness_for(LIB, ("1", "2", "4"))
        w2 = witness_for(LIB, ("4", "2", "1"))
        assert w1 == w2


class TestRank:
    def test_zero_matrix(self):
        assert matrix_rank(M([[0, 0], [0, 0]])) == 0

    def test_worked_example(self):
        assert matrix_rank(LIB) == 3

    def test_matches_bruteforce_maximum(self):
        rng = random.Random(909)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
            m = M(rows)
            best = max(k for k in range(nc + 1)
                       for combo in itertools.combinations(m.col_labels, k)
                       if independent_oracle(m, combo))
            assert matrix_rank(m) == best, rows

    def test_transpose_invariance(self):
        rng = random.Random(55)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
            m = M(rows)
            assert matrix_rank(m) == matrix_rank(transpose(m))

    def test_matches_top_down_scan(self):
        rng = random.Random(4000)
        for _ in range(1000):
            nr, nc = rng.randint(1, 9), rng.randint(1, 8)
            m = M([[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)])
            assert matrix_rank(m) == matrix_rank_top_down(m), m.rows

    def test_peel_budget(self, monkeypatch):
        # the greedy pass finds rank >= 1 on an all-ones matrix, which then
        # tries every pair of columns, finds none independent and stops
        def ones(r, c):
            return M([[1] * c] * r)

        assert sbcore.MATRIX_RANK_MAX_PEELS == 1 << 16
        assert matrix_rank(ones(17, 17)) == 1  # 136 peels
        assert matrix_rank(ones(2, 362)) == 1  # 65 341 peels
        with pytest.raises(TooLarge):
            matrix_rank(ones(2, 363))  # 65 703 pairs
        monkeypatch.setattr(sbcore, "MATRIX_RANK_MAX_PEELS", 45)
        assert matrix_rank(ones(10, 10)) == 1
        monkeypatch.setattr(sbcore, "MATRIX_RANK_MAX_PEELS", 44)
        with pytest.raises(TooLarge):
            matrix_rank(ones(10, 10))

    def test_identity_needs_no_peels(self, monkeypatch):
        monkeypatch.setattr(sbcore, "MATRIX_RANK_MAX_PEELS", 0)
        assert matrix_rank(M([[int(i == j) for j in range(16)] for i in range(16)])) == 16


class TestTextFormat:
    def test_round_trip_plain(self):
        text = "cols: 1 2 3 4\n1011\n0110\n0001\n"
        m = BoolMatrix.from_text(text)
        assert m.to_text() == text
        assert BoolMatrix.from_text(m.to_text()) == m

    def test_round_trip_labelled(self):
        text = "cols: a b\nrow: top 00\nrow: bot 11\n"
        m = BoolMatrix.from_text(text)
        assert m.to_text() == text
        assert m.row_labels == ("top", "bot")

    def test_errors(self):
        with pytest.raises(FormatError):
            BoolMatrix.from_text("1010\n")
        with pytest.raises(FormatError):
            BoolMatrix.from_text("cols: a b\n012\n")
        with pytest.raises(FormatError):
            BoolMatrix.from_text("cols: a b\n0\n")


def _random_matrix(rng, cols=None):
    """0-7 random rows over 1-7 columns (or over cols), with auto labels or
    labelled; returns the rows as lists and the matrix."""
    cols = cols or tuple(str(j + 1) for j in range(rng.randint(1, 7)))
    rows = [[rng.randint(0, 1) for _ in cols] for _ in range(rng.randint(0, 7))]
    labels = rng.sample("abcdefgh", len(rows)) if rng.random() < 0.5 else None
    return rows, BoolMatrix.build(rows, col_labels=cols, row_labels=labels)


def _same(m, oracle):
    """Equal text bytes, equal rows and equal matrices."""
    return (m.to_text() == matrix_to_text_by_rows(oracle) and m.rows == oracle.rows
            and m == oracle)


class TestMaskFormat:
    """BoolMatrix stores each row as a mask, and `rows` is a view: the
    tuple-row builders of conftest are the oracles of the text format,
    stacking, the row-sum closure, congruence and the lattice matrices."""

    def test_checks_keep_their_order(self):
        cases = [((((0, 2), (0,)), "aa", ("x", "x")), "duplicate column labels"),
                 ((((0, 2), (0,)), "ab", ("x", "x")), "duplicate row labels"),
                 ((((0, 2), (0,)), "ab", ("x",)), "row label count"),
                 ((((0, 1), (0,), (2, 2)), "ab", ("x", "y", "z")), "ragged row"),
                 ((((0, 2), (0,)), "ab", ("x", "y")), "entries must be 0 or 1")]
        for args, msg in cases:
            with pytest.raises(FormatError, match=msg):
                BoolMatrix(*args)

    def test_from_masks(self):
        m = BoolMatrix.from_masks((0b101, 0), ("a", "b", "c"), ("x", "y"))
        assert m.rows == ((1, 0, 1), (0, 0, 0))
        assert m == BoolMatrix(((1, 0, 1), (0, 0, 0)), ("a", "b", "c"), ("x", "y"))
        cases = [(((1 << 3,), "aac", ("x", "x")), "duplicate column labels"),
                 (((1 << 3, 0), "abc", ("x", "x")), "duplicate row labels"),
                 (((1 << 3,), "abc", ()), "row label count"),
                 (((1 << 3,), "abc", ("x",)), "outside the columns"),
                 (((-1,), "abc", ("x",)), "outside the columns")]
        for args, msg in cases:
            with pytest.raises(FormatError, match=msg):
                BoolMatrix.from_masks(*args)

    def test_random_matrices_match_tuple_builders(self):
        rng = random.Random(2300)
        for _ in range(2000):
            rows, m = _random_matrix(rng)
            other = _random_matrix(rng, m.col_labels)[1]
            assert m.rows == tuple(map(tuple, rows))
            text = m.to_text()
            assert _same(BoolMatrix.from_text(text), matrix_from_text_by_rows(text))
            assert _same(m, matrix_from_text_by_rows(text))
            stacked = reps.stack_matrices(m, other)
            assert _same(stacked, stack_matrices_by_rows(m, other))
            assert _same(reps.rowsum_closure(stacked), rowsum_closure_by_rows(stacked))
            pr = rng.sample(range(m.n_rows), m.n_rows)
            pc = rng.sample(range(m.n_cols), m.n_cols)
            shuffled = [[rows[i][j] for j in pc] for i in pr]
            if shuffled and rng.random() < 0.5:
                shuffled[0][0] ^= 1
            for m2 in (BoolMatrix.build(shuffled, col_labels=m.col_labels), other):
                assert congruent(m, m2) == congruent_by_rows(m, m2)
            if all(any(r[j] for r in rows) for j in range(m.n_cols)):
                fam = flats_of_matrix(m)[0]
                assert _same(family_matrix(fam), family_matrix_by_rows(fam))
                vg = lattice_from_matrix(m)
                assert _same(matrix_of(vg), matrix_of_by_rows(vg))
                assert _same(full_matrix(vg.lattice), full_matrix_by_rows(vg.lattice))


class TestPermutationInvariance:
    """Permuting a matrix's rows and columns, each keeping its label, changes
    no answer about its columns (a seeded slice of the metamorphic checks)."""

    def test_rank_flats_and_congruence(self):
        rng = random.Random(1300)
        for _ in range(1000):
            m = _random_matrix(rng)[1]
            m2 = permuted_matrix(m, rng)
            assert matrix_rank(m2) == matrix_rank(m)
            assert congruent(m, m2) and congruent(m2, m)
            try:
                fam, col_flats = flats_of_matrix(m)
            except ZeroColumn:  # a zero column, wherever the permutation put it
                with pytest.raises(ZeroColumn):
                    flats_of_matrix(m2)
                continue
            fam2, col_flats2 = flats_of_matrix(m2)
            assert fam2.members == fam.members
            assert col_flats2 == col_flats
