"""Tests of ``chordalrig.exactmat``, and of the dense reference routines in
``helpers`` (``gauss_steps``, ``determinant``, ``psd_check``) that other
tests compare the library's sparse elimination with."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    NotSymmetric,
    SizeCapExceeded,
    ZeroPivot,
    all_square_submatrices_nonsingular,
    determinant,
    extended_config_matrix,
    gauss_step_sequence,
    gauss_steps,
    leading_principal_minor,
    psd_check,
    zeros,
)
from chordalrig.exactmat import (
    DimensionMismatch,
    Matrix,
    _cofactor_basis,
    _integer_kernel,
    _integer_row,
    _sparse_factor,
    _sparse_rows,
    _unit_rows,
    rank,
)

F = Fraction

rational = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def square(n, entries):
    it = iter(entries)
    return Matrix([[next(it) for _ in range(n)] for _ in range(n)])


def square_strategy(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(rational, min_size=n * n, max_size=n * n).map(
            lambda xs: square(n, xs)))


def symmetric_strategy(max_n=5):
    def build(n, xs):
        it = iter(xs)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = next(it)
                rows[i][j] = rows[j][i] = x
        return Matrix(rows)
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(rational, min_size=n * (n + 1) // 2,
                           max_size=n * (n + 1) // 2).map(lambda xs: build(n, xs)))


class TestMatrix:
    def test_entry_coercion(self):
        m = Matrix([[1, "1/2"], [F(3, 4), "2"]])
        assert m[0, 1] == F(1, 2)
        assert m[1, 1] == 2

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[0.5]])

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[True]])

    def test_empty_needs_shape(self):
        with pytest.raises(DimensionMismatch):
            Matrix([])
        m = Matrix([], shape=(0, 3))
        assert (m.rows, m.cols) == (0, 3)

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2], [3]])

    def test_transpose_involution(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.transpose()[2, 1] == 6

    def test_product_against_hand_value(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a * b == Matrix([[2, 1], [4, 3]])

    @pytest.mark.parametrize("a, b", [
        ([[1, 0, 2], [0, 0, 0]], [[0, 3], [5, 0], [F(1, 2), 0]]),  # zero row of a
        ([[1, 2], [3, 4]], [[0, 1], [0, 2]]),  # zero column of b
        ([[1, 0], [2, 0]], [[0, 0], [7, 9]]),  # disjoint supports: all-zero product
        ([[0, 0]], [[0], [0]]),
        ([[F(-1, 3), 0, 4]], [[6], [F(5, 7)], [F(1, 4)]]),
    ])
    def test_product_matches_dense_formula(self, a, b):
        am, bm = Matrix(a), Matrix(b)
        dense = [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0))
                  for j in range(len(b[0]))] for i in range(len(a))]
        product = am * bm
        assert product.to_lists() == dense
        assert all(type(x) is Fraction for row in product.data for x in row)

    def test_product_with_empty_inner_dimension(self):
        product = Matrix([[], []], shape=(2, 0)) * Matrix([], shape=(0, 3))
        assert product == zeros(2, 3)
        assert all(type(x) is Fraction for row in product.data for x in row)

    def test_shape_mismatch_in_product(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2]]) * Matrix([[1, 2]])

    def test_hash_consistent_with_eq(self):
        a = Matrix([[1, "1/2"]])
        b = Matrix([[1, F(1, 2)]])
        assert a == b and hash(a) == hash(b)


class TestGaussSteps:
    def test_identity_fixed_point(self):
        assert gauss_step_sequence(Matrix.identity(3), 2) == Matrix.identity(3)

    def test_hexagon_stress_three_steps(self, hexagon):
        assert gauss_step_sequence(hexagon.stress, 3) == hexagon.eliminated

    def test_zero_pivot_reported_with_step(self):
        with pytest.raises(ZeroPivot) as err:
            gauss_step_sequence(Matrix([[0, 1], [1, 0]]), 1)
        assert err.value.step == 1

    def test_zero_steps_returns_input(self, hexagon):
        assert gauss_step_sequence(hexagon.stress, 0) == hexagon.stress

    def test_step_count_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            gauss_step_sequence(Matrix([[1, 2]]), 2)

    def test_stages_are_cumulative(self, hexagon):
        stages = list(gauss_steps(hexagon.stress, 3))
        assert len(stages) == 3
        assert stages[-1] == gauss_step_sequence(hexagon.stress, 3)
        for t, stage in enumerate(stages, start=1):
            assert stage == gauss_step_sequence(hexagon.stress, t)

    def test_unit_pivots_on_processed_rows(self, hexagon):
        after = gauss_step_sequence(hexagon.stress, 3)
        for s in range(3):
            assert after[s, s] == 1
            assert all(after[i, s] == 0 for i in range(s + 1, 6))

    def test_rank_profile_staircase_zeroes_trailing_rows(self):
        rng = random.Random(11)
        for _ in range(20):
            n, k = 5, 3
            w = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(k)] for _ in range(n)])
            a = w * w.transpose()
            result = _sparse_factor(_sparse_rows(a), range(n))
            r = result.rank
            if not result.generic or r != k:
                continue
            after = gauss_step_sequence(a, r)
            assert all(after[i, j] == 0
                       for i in range(r, n) for j in range(n))


class TestDeterminant:
    def test_empty_matrix(self):
        assert determinant(Matrix([], shape=(0, 0))) == 1

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            determinant(Matrix([[1, 2]]))

    def test_singular(self):
        assert determinant(Matrix([[1, 2], [2, 4]])) == 0

    def test_row_swap_path(self):
        assert determinant(Matrix([[0, 1], [1, 0]])) == -1

    @settings(max_examples=40, deadline=None)
    @given(square_strategy(6))
    def test_matches_cofactor_oracle(self, m):
        assert determinant(m) == oracles.det_cofactor(m.to_lists())

    @pytest.mark.parametrize("n", [5, 6])
    def test_zero_row_and_swaps_up_to_six(self, n):
        rng = random.Random(f"det/{n}")
        for case in range(12):
            rows = [[F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 7))
                     for _ in range(n)] for _ in range(n)]
            if case % 4 == 0:
                rows[rng.randrange(n)] = [F(0)] * n
            elif case % 4 == 1:
                rows[0][0] = F(0)  # zero first pivot: swap at step 1
            elif case % 4 == 2:
                # Singular leading 2x2 block: zero pivot at step 2, swap there.
                rows[1][:2] = [x * 3 for x in rows[0][:2]]
            expected = oracles.det_cofactor(rows)
            assert determinant(Matrix(rows)) == expected
            if case % 4 == 0:
                assert expected == 0

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_wide_entries_mixed_denominators(self, n):
        rng = random.Random(f"det/wide/{n}")
        for _ in range(4):
            rows = [[F(rng.getrandbits(230) - 2 ** 229, rng.getrandbits(210) | 1)
                     if rng.random() < 0.8 else F(rng.randint(-3, 3))
                     for _ in range(n)] for _ in range(n)]
            assert max(abs(x.numerator).bit_length() for row in rows for x in row) > 200
            got = determinant(Matrix(rows))
            assert got == oracles.det_cofactor(rows)
            assert got == oracles.sym_det(rows)

    @settings(max_examples=25, deadline=None)
    @given(square_strategy(3), square_strategy(3))
    def test_multiplicative(self, a, b):
        if a.rows != b.rows:
            return
        assert determinant(a * b) == determinant(a) * determinant(b)


class TestLeadingPrincipalMinor:
    def test_hexagon_minors(self, hexagon):
        assert leading_principal_minor(hexagon.stress, 1) == 10
        assert leading_principal_minor(hexagon.stress, 2) == -20
        assert leading_principal_minor(hexagon.stress, 3) == -10

    def test_identity(self):
        for k in range(1, 5):
            assert leading_principal_minor(Matrix.identity(4), k) == 1

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            leading_principal_minor(Matrix.identity(2), 3)
        with pytest.raises(ValueError):
            leading_principal_minor(Matrix.identity(2), 0)

    def test_full_size_equals_determinant(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(1, 5)
            m = Matrix([[F(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(n)] for _ in range(n)])
            assert leading_principal_minor(m, n) == oracles.det_cofactor(m.to_lists())


RANKED_SHAPES = [(0, 0), (0, 3), (3, 0), (2, 5), (5, 2), (1, 6), (6, 1), (4, 4), (7, 7)]


def _ranked_rows(rng, rows, cols):
    """A rows x cols rational matrix of random rank, the product of random
    factors, sometimes with a zero row."""
    t = rng.randint(0, min(rows, cols))
    left = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(t)] for _ in range(rows)]
    right = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(cols)]
             for _ in range(t)]
    data = [[sum((a * right[k][c] for k, a in enumerate(row)), F(0)) for c in range(cols)]
            for row in left]
    if rows and rng.random() < 0.3:
        data[rng.randrange(rows)] = [F(0)] * cols
    return data


class TestRank:
    def test_zero_matrix(self):
        assert rank(zeros(4, 4)) == 0

    def test_hexagon_psd_stress(self, hexagon):
        assert rank(hexagon.psd) == 3

    def test_rectangular(self):
        assert rank(Matrix([[1, 2, 3], [2, 4, 6]])) == 1

    @settings(max_examples=40, deadline=None)
    @given(square_strategy(4))
    def test_matches_sympy(self, m):
        assert rank(m) == oracles.sym_rank(m.to_lists())

    @pytest.mark.parametrize("rows, cols", RANKED_SHAPES)
    def test_cofactor_rank_matches_sympy_and_rref(self, rows, cols):
        """Wide, tall and square rational matrices of every rank, from
        products of random factors, some with a zero row."""
        rng = random.Random(f"rank/{rows}x{cols}")
        for _ in range(25):
            data = _ranked_rows(rng, rows, cols)
            m = Matrix(data, shape=(rows, cols))
            expected = oracles.sym_rank(data) if rows and cols else 0
            assert rank(m) == expected == cols - len(_kernel(m))


def _kernel(m: Matrix) -> list[tuple[int, list[int]]]:
    """``_integer_kernel`` of the rows of m cleared of denominators."""
    return _integer_kernel([_integer_row(row)[0] for row in m.data], m.cols)


class TestIntegerKernel:
    @pytest.mark.parametrize("rows, cols", RANKED_SHAPES)
    def test_matches_sympy(self, rows, cols):
        """On rational matrices of every rank, zero rows, rank 0 and full
        rank among them, the integer kernel's free columns, and so its
        pivots, are those of sympy's reduced row echelon form, with a
        positive entry y_f at each free column f, and y / y_f is the kernel
        column read off that form: 1 at f, minus entry (i, f) at the i-th
        pivot and 0 elsewhere."""
        rng = random.Random(f"kernel/{rows}x{cols}")
        ranks = set()
        for _ in range(40):
            data = _ranked_rows(rng, rows, cols)
            echelon, pivots = oracles.sym_rref(data) if rows and cols else ([], [])
            free = [f for f in range(cols) if f not in pivots]
            expected = [[F(int(c == f)) for c in range(cols)] for f in free]
            for column, f in zip(expected, free):
                for row, p in zip(echelon, pivots):
                    column[p] = -row[f]
            kernel = _kernel(Matrix(data, shape=(rows, cols)))
            assert [f for f, _ in kernel] == free and all(y[f] > 0 for f, y in kernel)
            assert [[F(x, y[f]) for x in y] for f, y in kernel] == expected
            ranks.add(len(pivots))
        assert {0, min(rows, cols)} <= ranks

    def test_trivial_kernel(self):
        assert _kernel(Matrix.identity(3)) == []

    def test_one_free_variable(self):
        assert _kernel(Matrix([[1, 1]])) == [(1, [-1, 1])]

    @pytest.mark.parametrize("cols", [1, 2, 5])
    def test_no_rows_gives_identity(self, cols):
        assert _kernel(Matrix([], shape=(0, cols))) == list(enumerate(_unit_rows(cols)))

    def test_hexagon_config_kernel(self, hexagon):
        p = extended_config_matrix(hexagon.fw)
        b = Matrix([y for _, y in _kernel(p)]).transpose()
        assert (b.rows, b.cols) == (6, 3)
        assert p * b == zeros(3, 3)
        assert rank(b) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_kernel_dimension_matches_sympy(self, nrows, ncols, data):
        xs = data.draw(st.lists(rational, min_size=nrows * ncols,
                                max_size=nrows * ncols))
        it = iter(xs)
        m = Matrix([[next(it) for _ in range(ncols)] for _ in range(nrows)])
        kernel = [y for _, y in _kernel(m)]
        assert all(sum(a * x for a, x in zip(row, y)) == 0 for row in m.data for y in kernel)
        assert len(kernel) == oracles.sym_nullity(m.to_lists())
        assert not kernel or oracles.sym_rank(kernel) == len(kernel)


class TestCofactorBasis:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_rank_matches_sympy(self, k):
        """Independent, dependent and zero rows, none at all, and more rows
        than k: the rank is sympy's, and the basis left has k - rank
        independent vectors orthogonal to every row."""
        rng = random.Random(f"cofactor-basis/{k}")
        seen = set()
        for _ in range(40):
            rows = []
            for _ in range(rng.randint(0, k + 3)):
                kind = rng.random()
                if kind < 0.2:
                    rows.append([0] * k)
                elif kind < 0.45 and rows:
                    coeffs = [rng.randint(-3, 3) for _ in rows]
                    rows.append([sum(c * r[t] for c, r in zip(coeffs, rows))
                                 for t in range(k)])
                else:
                    rows.append([rng.randint(-2 ** 20, 2 ** 20) for _ in range(k)])
            basis, prev, rk = _cofactor_basis(iter(rows), k)
            assert rk == (oracles.sym_rank(rows) if rows and k else 0)
            assert len(basis) == k - rk
            assert all(sum(a * b for a, b in zip(y, w)) == 0 for y in basis for w in rows)
            if basis:
                assert oracles.sym_rank(basis) == len(basis)
            if rk == 0:
                assert prev == 1
            seen.add((rk < len(rows), len(rows) > k))
        assert (True, True) in seen and (False, False) in seen


class TestGenericRankProfile:
    """The generic rank profile as the library decides it: one
    ``_sparse_factor`` pass in label order."""

    @staticmethod
    def profile(a):
        result = _sparse_factor(_sparse_rows(a), range(a.rows))
        return result.generic, result.rank

    def test_hexagon_stress(self, hexagon):
        assert self.profile(hexagon.stress) == (True, 3)

    def test_zero_leading_entry(self):
        ok, k = self.profile(Matrix([[0, 1], [1, 0]]))
        assert (ok, k) == (False, 2)

    def test_zero_matrix_vacuous(self):
        assert self.profile(zeros(3, 3)) == (True, 0)


class TestPsdCheck:
    def test_zero_matrix(self):
        res = psd_check(zeros(3, 3))
        assert res.is_psd and res.rank == 0 and res.witness is None

    def test_indefinite_diagonal_witness(self):
        res = psd_check(Matrix([[1, 0], [0, -1]]))
        assert not res.is_psd
        assert res.witness == (0, 1)

    def test_hexagon_psd_stress(self, hexagon):
        res = psd_check(hexagon.psd)
        assert res.is_psd and res.rank == 3

    def test_hexagon_indefinite_stress(self, hexagon):
        res = psd_check(hexagon.stress)
        assert not res.is_psd
        w = res.witness
        value = sum(w[i] * hexagon.stress[i, j] * w[j]
                    for i in range(6) for j in range(6))
        assert value < 0

    def test_zero_diagonal_nonzero_offdiagonal(self):
        res = psd_check(Matrix([[0, 1], [1, 0]]))
        assert not res.is_psd
        w = res.witness
        assert w[0] * w[1] * 2 < 0

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            psd_check(Matrix([[1, 2], [0, 1]]))

    @settings(max_examples=60, deadline=None)
    @given(symmetric_strategy(4))
    def test_matches_principal_minor_oracle(self, m):
        res = psd_check(m)
        assert res.is_psd == oracles.principal_minors_nonneg(m.to_lists())
        if not res.is_psd:
            w = res.witness
            n = m.rows
            assert sum(w[i] * m[i, j] * w[j]
                       for i in range(n) for j in range(n)) < 0
        else:
            assert res.rank == rank(m)


class TestAllSquareSubmatrices:
    def test_hexagon_gale(self, hexagon):
        assert all_square_submatrices_nonsingular(hexagon.gale, 3) == (True, None)

    def test_hexagon_psd_stress(self, hexagon):
        assert all_square_submatrices_nonsingular(hexagon.psd, 3) == (True, None)

    def test_identity_has_zero_entries(self):
        ok, pair = all_square_submatrices_nonsingular(Matrix.identity(2), 1)
        assert not ok
        assert pair == ((1,), (2,))

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            all_square_submatrices_nonsingular(Matrix.identity(6), 3, cap=10)

    def test_size_range(self):
        with pytest.raises(DimensionMismatch):
            all_square_submatrices_nonsingular(Matrix.identity(2), 3)
