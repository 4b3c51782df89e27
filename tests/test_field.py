import math
from fractions import Fraction as F

import pytest

from egb import field as field_module
from egb.field import (
    CyclotomicNumber,
    CyclotomicField,
    Matrix,
    QQ_FIELD,
    _reduce_columns,
    cyclo_from_rational,
    cyclo_zeta,
    is_prime,
)

from conftest import (
    count_calls, cyclo_one, dense_matmul, dense_matrix, entry, power, primitive_roots,
    rand_frac, shift_diagonal,
)


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert all(is_prime(n) == trial_division(n) for n in range(-2, 10 ** 5))

    def test_large_primes_and_pseudoprimes(self):
        assert is_prime(10 ** 18 + 3)
        assert is_prime(2 ** 61 - 1)
        assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
        # strong pseudoprime to the twelve prime bases 2..37, caught by 41
        assert not is_prime(318665857834031151167461)

    def test_above_certified_bound_raises(self):
        with pytest.raises(ValueError, match="cannot certify"):
            is_prime(2 ** 89 - 1)


def rand_cyclo(rng, p, lo=-4, hi=4):
    return CyclotomicNumber(p, tuple(rand_frac(rng, lo, hi, 3) for _ in range(p - 1)))


class TestCycloArithmetic:
    def test_zeta_squared_p3(self):
        z = cyclo_zeta(3)
        assert z * z == CyclotomicNumber(3, (F(-1), F(-1)))  # zeta^2 = -1 - zeta

    def test_inverse_witness_p3(self):
        z = cyclo_zeta(3)
        assert (cyclo_one(3) + z) * (-z) == cyclo_one(3)
        assert (cyclo_one(3) + z).inverse() == -z

    def test_p2_is_sign_arithmetic(self):
        minus_one = cyclo_zeta(2)
        assert minus_one == cyclo_from_rational(2, -1)
        assert minus_one * minus_one == cyclo_one(2)
        assert minus_one.inverse() == minus_one

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_identity_inverse(self, p):
        assert cyclo_one(p).inverse() == cyclo_one(p)

    def test_mismatched_p_rejected(self):
        with pytest.raises(ValueError):
            cyclo_zeta(3) * cyclo_zeta(5)

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicField(3).zero().inverse()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_root_of_unity_relations(self, p):
        z = cyclo_zeta(p)
        assert power(z, p) == cyclo_one(p)
        total = CyclotomicField(p).zero()
        for k in range(p):
            total = total + cyclo_zeta(p, k)
        assert not total
        for k in range(1, p):
            assert cyclo_zeta(p, k) - cyclo_one(p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_field_axioms_sampled(self, rng, p):
        for _ in range(60):
            a, b, c = (rand_cyclo(rng, p) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == cyclo_one(p)
                assert a.inverse().inverse() == a

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_root_sampling(self, rng, p):
        """x^p = zeta^q has no solution for gcd(q, p) = 1: sampled heavily."""
        targets = [cyclo_zeta(p, q) for q in range(1, p) if math.gcd(q, p) == 1]
        count = 0
        while count < 1000:
            v = rand_cyclo(rng, p, -5, 5)
            if not v:
                continue
            count += 1
            vp = power(v, p)
            for t in targets:
                assert vp - t

    def test_unsupported_p_rejected(self):
        with pytest.raises(ValueError):
            cyclo_zeta(17)
        with pytest.raises(ValueError):
            cyclo_zeta(4)


class TestLinearAlgebra:
    def test_kernel_of_zero_matrix(self):
        assert len(Matrix.zeros(QQ_FIELD, 2, 2).kernel_basis()) == 2

    def test_kernel_of_identity_empty(self):
        assert Matrix.identity(QQ_FIELD, 3).kernel_basis() == []

    def test_swap_eigenvector(self):
        field = CyclotomicField(2)
        a = Matrix.from_rows(field, [[0, 1], [1, 0]])
        m = a - Matrix.identity(field, 2).scale(cyclo_zeta(2))
        basis = m.kernel_basis()
        assert len(basis) == 1
        v = basis[0]
        # spans (1, -1)
        assert not v[0] + v[1]
        assert v[0]

    def test_rank_identity(self):
        assert Matrix.identity(QQ_FIELD, 3).rank() == 3

    def test_solve_diagonal(self):
        m = Matrix.from_rows(QQ_FIELD, [[2, 0], [0, 2]])
        assert m.solve((F(1), F(1))) == (F(1, 2), F(1, 2))

    def test_solve_roundtrip_random(self, rng):
        for _ in range(25):
            m = Matrix.from_rows(
                QQ_FIELD, [[rand_frac(rng) for _ in range(4)] for _ in range(4)]
            )
            v = tuple(rand_frac(rng) for _ in range(4))
            sol = m.solve(v)
            if sol is not None:
                assert m.apply(sol) == v

    def test_solve_certifies_no_solution(self):
        m = Matrix.from_rows(QQ_FIELD, [[1, 0], [1, 0]])
        assert m.solve((F(0), F(1))) is None

    def test_rank_nullity_random(self, rng):
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix.from_rows(
                QQ_FIELD,
                [[rand_frac(rng, -3, 3, 2) for _ in range(cols)] for _ in range(rows)],
            )
            assert m.rank() + len(m.kernel_basis()) == cols
            for v in m.kernel_basis():
                assert all(x == 0 for x in m.apply(v))

    def test_rank_nullity_cyclotomic(self, rng):
        field = CyclotomicField(3)
        for _ in range(10):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = Matrix.from_rows(
                field,
                [[rand_cyclo(rng, 3, -2, 2) for _ in range(cols)] for _ in range(rows)],
            )
            assert m.rank() + len(m.kernel_basis()) == cols

    def test_shape_mismatch_rejected(self):
        a = Matrix.identity(QQ_FIELD, 2)
        b = Matrix.zeros(QQ_FIELD, 3, 3)
        with pytest.raises(ValueError):
            a @ Matrix.zeros(QQ_FIELD, 3, 2)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a.solve((F(1), F(2), F(3)))

    def test_det_and_inverse(self, rng):
        for _ in range(10):
            m = Matrix.from_rows(
                QQ_FIELD, [[rand_frac(rng, -3, 3, 2) for _ in range(3)] for _ in range(3)]
            )
            if m.det() != 0:
                assert m @ m.inverse() == Matrix.identity(QQ_FIELD, 3)

    def test_empty_shapes(self):
        m = Matrix.zeros(QQ_FIELD, 0, 3)
        assert m.rank() == 0
        assert len(m.kernel_basis()) == 3
        n = Matrix.zeros(QQ_FIELD, 3, 0)
        assert n.rank() == 0
        assert n.kernel_basis() == []
        assert Matrix.zeros(QQ_FIELD, 0, 0).det() == F(1)

    def test_primitive_roots_count(self):
        assert len(primitive_roots(5)) == 4
        for z in primitive_roots(5):
            assert power(z, 5) == cyclo_one(5)


FIELDS = [QQ_FIELD] + [CyclotomicField(p) for p in (2, 3, 5, 7, 11, 13)]


def rand_entry(rng, field):
    if field == QQ_FIELD or rng.random() < 0.5:
        return field.coerce(rand_frac(rng, -3, 3, 2)) if rng.random() < 0.7 else field.zero()
    return rand_cyclo(rng, field.p, -2, 2)


def rand_matrix(rng, field, rows: int, cols: int, rank: int | None = None) -> Matrix:
    """Random matrix; of rank at most ``rank`` (a product through that
    inner dimension) when it is given."""
    if rank is not None:
        return rand_matrix(rng, field, rows, rank) @ rand_matrix(rng, field, rank, cols)
    return dense_matrix(field, rows, cols, [[rand_entry(rng, field) for _ in range(cols)]
                                            for _ in range(rows)])


def cofactor_det(m: Matrix):
    """Determinant by Laplace expansion along the first row: no elimination."""
    if m.rows == 0:
        return m.field.one()
    det = m.field.zero()
    for j in range(m.cols):
        if entry(m, 0, j):
            minor = dense_matrix(m.field, m.rows - 1, m.cols - 1,
                                 [row[:j] + row[j + 1:] for row in m.entries[1:]])
            term = entry(m, 0, j) * cofactor_det(minor)
            det = det - term if j % 2 else det + term
    return det


@pytest.mark.parametrize("field", FIELDS, ids=repr)
class TestOneElimination:
    """solve_matrix, inverse and det, each read off one column reduction,
    against per-column solves and a cofactor-expansion oracle."""

    def shapes(self, rng):
        for _ in range(12):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            yield rows, cols, rng.choice((None, rng.randint(0, min(rows, cols))))

    def test_solve_matrix_equals_per_column_solve(self, rng, field):
        for rows, cols, rank in self.shapes(rng):
            m = rand_matrix(rng, field, rows, cols, rank)
            width = rng.randint(0, 3)
            # columns in the image of m, or random ones (inconsistent when m is not onto)
            if rng.random() < 0.5:
                rhs = m @ rand_matrix(rng, field, cols, width)
            else:
                rhs = rand_matrix(rng, field, rows, width)
            sols = [m.solve(rhs.column(j)) for j in range(width)]
            got = m.solve_matrix(rhs)
            if any(s is None for s in sols):
                assert got is None
                continue
            assert got == Matrix.from_columns(field, sols, cols)
            assert m @ got == rhs

    def test_inconsistent_column_gives_none(self, rng, field):
        for rows, cols, _ in self.shapes(rng):
            if rows == 0:
                continue
            m = rand_matrix(rng, field, rows, cols, rank=min(rows - 1, cols))
            good = m.apply(tuple(rand_entry(rng, field) for _ in range(cols)))
            # a vector outside the image: the first one the rank test rejects
            bad = next(v for v in Matrix.identity(field, rows).entries
                       if Matrix.from_columns(field, [*(m.column(j) for j in range(cols)), v],
                                              rows).rank() > m.rank())
            assert m.solve(bad) is None
            assert m.solve_matrix(Matrix.from_columns(field, [good, bad], rows)) is None
            assert m.solve_matrix(Matrix.from_columns(field, [good], rows)) is not None

    def test_inverse_equals_per_column_solve(self, rng, field):
        for n in range(5):
            for rank in (n, max(n - 1, 0)):
                m = rand_matrix(rng, field, n, n, rank)
                det = m.det()
                assert det == cofactor_det(m)
                if not det:
                    with pytest.raises(ValueError, match="matrix is singular"):
                        m.inverse()
                    continue
                cols = [m.solve(e) for e in Matrix.identity(field, n).entries]
                inv = m.inverse()
                assert inv == Matrix.from_columns(field, cols, n)
                assert m @ inv == Matrix.identity(field, n)

    def test_det_equals_cofactor_expansion(self, rng, field):
        for _ in range(12):
            n = rng.randint(0, 4)
            m = rand_matrix(rng, field, n, n, rng.choice((None, rng.randint(0, n))))
            assert m.det() == cofactor_det(m)

    def test_shape_errors_stay(self, field):
        m = Matrix.zeros(field, 2, 3)
        for method in (m.det, m.inverse):
            with pytest.raises(ValueError, match="non-square"):
                method()
        with pytest.raises(ValueError, match="shape mismatch"):
            m.solve_matrix(Matrix.zeros(field, 3, 1))

    def test_inverse_and_solve_matrix_eliminate_once(self, rng, monkeypatch, field):
        n = 4
        m = rand_matrix(rng, field, n, n)
        while not m.det():
            m = rand_matrix(rng, field, n, n)
        rhs = rand_matrix(rng, field, n, 3)
        calls = count_calls(monkeypatch, field_module, "_reduce_columns")
        m.inverse()
        assert len(calls) == 1
        m.solve_matrix(rhs)
        assert len(calls) == 2

@pytest.mark.parametrize("field", FIELDS[1:], ids=repr)
def test_back_substitution_reuses_the_pivot_inverses(rng, monkeypatch, field):
    """Over Q(zeta_p) the column reduction inverts each pivot once, at its
    first use, for any number of columns solved: kernel_basis, solve_matrix,
    inverse and det invert exactly the pivots that reduce a later column,
    in that order, none twice and at most one per pivot.  det inverts
    nothing of its own: on an upper triangular matrix, whose lows are
    distinct already, it inverts nothing at all."""
    calls = count_calls(monkeypatch, CyclotomicNumber, "inverse")

    def pivots_used(*matrices):
        """The pivot entries, in order of first use, that reduce a later
        column in the reduction of the columns of [matrices]: each step is
        one `_axpy` whose source is the reducing column."""
        cols = [dict(col) for m in matrices for col in m.columns]
        with monkeypatch.context() as patch:
            sources = count_calls(patch, field_module, "_axpy")
            lows = _reduce_columns(field, cols)
        low_of = {j: low for low, j in lows.items()}
        index = {id(col): k for k, col in enumerate(cols)}
        calls.clear()
        return [cols[k][low_of[k]] for k in dict.fromkeys(index[id(args[3])] for args in sources)]

    for rows, cols, rank in ((4, 4, None), (3, 5, 2), (5, 3, None), (4, 4, 2)):
        m = rand_matrix(rng, field, rows, cols, rank)
        rhs = m @ rand_matrix(rng, field, cols, 3)  # consistent: every column is solved
        pivots = m.rank()
        for solve, matrices in ((m.kernel_basis, (m,)), (lambda: m.solve_matrix(rhs), (m, rhs))):
            expected = pivots_used(*matrices)
            solve()
            assert [args[0] for args in calls] == expected
            assert len(expected) <= pivots
    m = rand_matrix(rng, field, 4, 4)
    while not m.det():
        m = rand_matrix(rng, field, 4, 4)
    for method, matrices in ((m.inverse, (m, Matrix.identity(field, 4))), (m.det, (m,))):
        expected = pivots_used(*matrices)
        method()
        assert [args[0] for args in calls] == expected
        assert len(expected) <= 4
    z = cyclo_zeta(field.p) + field.coerce(2)  # nonzero, and irrational for p > 2
    upper = dense_matrix(field, 4, 4, [[z if i == j else rand_entry(rng, field) if i < j
                                        else field.zero() for j in range(4)] for i in range(4)])
    calls.clear()
    assert upper.det() == power(z, 4)
    assert calls == []


class TestMatpow:
    @pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(5)], ids=repr)
    def test_products_and_values(self, rng, monkeypatch, field):
        a = rand_matrix(rng, field, 3, 3)
        powers = [Matrix.identity(field, 3)]
        for _ in range(9):
            powers.append(powers[-1] @ a)
        calls = count_calls(monkeypatch, Matrix, "__matmul__")
        for n in range(10):
            before = len(calls)
            assert a.matpow(n) == powers[n]
            expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
            assert len(calls) - before == expected

    def test_rejects_negative_and_non_square(self):
        with pytest.raises(ValueError, match="negative"):
            Matrix.identity(QQ_FIELD, 2).matpow(-1)
        with pytest.raises(ValueError, match="non-square"):
            Matrix.zeros(QQ_FIELD, 2, 3).matpow(2)


def sparse_matrix(rng, field, rows: int, cols: int, zeros: float) -> Matrix:
    """Random matrix whose entries are zero with probability ``zeros``."""
    def entry():
        if rng.random() < zeros:
            return field.zero()
        x = field.zero()
        while not x:
            x = rand_entry(rng, field)
        return x
    return dense_matrix(field, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("zeros", [0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(3), CyclotomicField(5)], ids=repr)
class TestZeroSkipping:
    """The zero-skipping product, matpow, scale and diagonal shift against the
    dense computations they replace, at zero densities from none to all."""

    # (rows, inner, cols) of a @ b, empty shapes included
    SHAPES = [(3, 4, 2), (5, 5, 5), (1, 6, 1), (6, 1, 6), (0, 3, 4), (3, 4, 0), (3, 0, 4),
              (0, 0, 0)]

    def test_product_equals_dense_oracle(self, rng, field, zeros):
        for _ in range(3):
            for m, k, n in self.SHAPES:
                a = sparse_matrix(rng, field, m, k, zeros)
                b = sparse_matrix(rng, field, k, n, zeros)
                assert a @ b == dense_matmul(a, b)

    def test_matpow_equals_dense_powers(self, rng, field, zeros):
        for n in (0, 1, 4):
            a = sparse_matrix(rng, field, n, n, zeros)
            power = Matrix.identity(field, n)
            for e in range(7):
                assert a.matpow(e) == power
                power = dense_matmul(power, a)

    def test_scale_and_diagonal_shift(self, rng, field, zeros):
        c = F(-2, 3) if field == QQ_FIELD else cyclo_zeta(field.p) + field.coerce(F(1, 2))
        for n in (0, 1, 4):
            a = sparse_matrix(rng, field, n, n, zeros)
            assert a.scale(c).entries == tuple(tuple(c * x for x in row) for row in a.entries)
            assert shift_diagonal(a, c) == a - Matrix.identity(field, n).scale(c)
        with pytest.raises(ValueError, match="non-square"):
            shift_diagonal(sparse_matrix(rng, field, 2, 3, zeros), c)


@pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(3)], ids=repr)
class TestSparseColumns:
    """A matrix holds its nonzero entries as columns, with no zero stored,
    so that equality is entry equality."""

    def test_cancellations_store_no_zero(self, rng, field):
        for rows, cols in ((3, 4), (2, 2), (0, 3), (3, 0)):
            a = sparse_matrix(rng, field, rows, cols, 0.3)
            zeros = Matrix.zeros(field, rows, cols)
            for m in (a - a, a + (-a), a.scale(0)):
                assert m == zeros
                assert not any(m.columns)

    def test_constructor_checks_the_columns(self, field):
        one = field.one()
        with pytest.raises(ValueError, match="^column count mismatch$"):
            Matrix(field, 2, 2, ({0: one},))
        for row in (2, -1):
            with pytest.raises(ValueError, match="^row index outside the matrix$"):
                Matrix(field, 2, 1, ({row: one},))
        with pytest.raises(ValueError, match="^ragged matrix$"):
            Matrix.from_rows(field, [[1, 2], [3]])
        assert Matrix(field, 2, 1, [{1: one}]) == Matrix.from_rows(field, [[0], [1]])
