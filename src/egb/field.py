"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_p), p prime.

Rationals are `fractions.Fraction`; cyclotomic numbers are length-(p-1)
rational coordinate vectors in the basis 1, zeta, ..., zeta^{p-2}, reduced
modulo 1 + zeta + ... + zeta^{p-1} = 0.  All linear algebra (rank, kernel,
solve, determinant) is Gaussian elimination with first-nonzero pivoting;
there is no floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
_ZERO_COORDS = {p: (Fraction(0),) * (p - 1) for p in _SUPPORTED_PRIMES}
_TAIL_ZEROS = {p: (Fraction(0),) * (p - 2) for p in _SUPPORTED_PRIMES}


# The first 13 primes as Miller-Rabin bases decide every n below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; exact below _MR_BOUND (about
    3.317e24), above which it raises ValueError instead of guessing."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify primality of {n}: it must be below {_MR_BOUND}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(zeta_p) as coordinates of 1, zeta, ..., zeta^{p-2}.

    Coordinates are always reduced rationals; equality and hashing are
    coordinate-wise, so canonical form is automatic.
    """

    p: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.p not in _SUPPORTED_PRIMES:
            raise ValueError(f"p must be a prime <= 13, got {self.p}")
        if len(self.coords) != self.p - 1:
            raise ValueError(
                f"need {self.p - 1} coordinates for p={self.p}, got {len(self.coords)}"
            )
        if any(type(c) is not Fraction for c in self.coords):
            object.__setattr__(
                self, "coords", tuple(Fraction(c) for c in self.coords)
            )

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched cyclotomic fields: p={self.p} vs p={other.p}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return CyclotomicNumber(
            self.p, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return CyclotomicNumber(
            self.p, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return CyclotomicNumber(self.p, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        n = self.p - 1
        # scalar fast paths (most matrix entries are rational)
        if self.is_rational():
            q = self.coords[0]
            return CyclotomicNumber(self.p, tuple(q * b for b in other.coords))
        if other.is_rational():
            q = other.coords[0]
            return CyclotomicNumber(self.p, tuple(q * a for a in self.coords))
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                conv[i + j] += a * b
        # zeta^k for k >= p-1 rewrites as -(zeta^{k-p+1})(1 + ... + zeta^{p-2})
        for k in range(2 * n - 2, n - 1, -1):
            c = conv[k]
            if c == 0:
                continue
            conv[k] = Fraction(0)
            base = k - n
            for t in range(n):
                conv[base + t] -= c
        return CyclotomicNumber(self.p, tuple(conv[:n]))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = cyclo_one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return cyclo_from_rational(self.p, Fraction(other))
        return NotImplemented

    def is_zero(self) -> bool:
        return self.coords == _ZERO_COORDS[self.p]

    def is_rational(self) -> bool:
        return self.coords[1:] == _TAIL_ZEROS[self.p]

    def rational_part(self) -> Fraction:
        return self.coords[0]

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse, by solving the multiplication-by-self system."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return cyclo_from_rational(self.p, 1 / self.coords[0])
        n = self.p - 1
        cols = []
        power = cyclo_one(self.p)
        for _ in range(n):
            cols.append((self * power).coords)
            power = power * cyclo_zeta(self.p)
        mat = Matrix.from_rows(
            RationalField(), [[cols[j][i] for j in range(n)] for i in range(n)]
        )
        rhs = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
        sol = mat.solve(rhs)
        if sol is None:  # impossible in a field; guards logic errors
            raise ZeroDivisionError("no inverse found")
        return CyclotomicNumber(self.p, tuple(sol))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts)


def cyclo_from_rational(p: int, q) -> CyclotomicNumber:
    coords = [Fraction(q)] + [Fraction(0)] * (p - 2)
    return CyclotomicNumber(p, tuple(coords))


def cyclo_zero(p: int) -> CyclotomicNumber:
    return cyclo_from_rational(p, 0)


def cyclo_one(p: int) -> CyclotomicNumber:
    return cyclo_from_rational(p, 1)


def cyclo_zeta(p: int, k: int = 1) -> CyclotomicNumber:
    """zeta_p^k as a coordinate vector (zeta^{p-1} reduced into the basis)."""
    k %= p
    if k == 0:
        return cyclo_one(p)
    if k <= p - 2:
        coords = [Fraction(0)] * (p - 1)
        coords[k] = Fraction(1)
        return CyclotomicNumber(p, tuple(coords))
    # k == p-1: zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    return CyclotomicNumber(p, tuple([Fraction(-1)] * (p - 1)))


def primitive_roots(p: int) -> list[CyclotomicNumber]:
    """The p-1 primitive p-th roots of unity zeta^k, k = 1..p-1."""
    return [cyclo_zeta(p, k) for k in range(1, p)]


Element = Union[Fraction, CyclotomicNumber]


# -- fields ----------------------------------------------------------------


class RationalField:
    """Marker for Q; supplies zero/one so matrix code is field-generic."""

    name = "Q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, CyclotomicNumber):
            if not x.is_rational():
                raise ValueError(f"{x} is not rational")
            return x.rational_part()
        return Fraction(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class CyclotomicField:
    """Marker for Q(zeta_p)."""

    def __init__(self, p: int):
        if p not in _SUPPORTED_PRIMES:
            raise ValueError(f"p must be a prime <= 13, got {p}")
        self.p = p
        self.name = f"Q(zeta_{p})"

    def zero(self) -> CyclotomicNumber:
        return cyclo_zero(self.p)

    def one(self) -> CyclotomicNumber:
        return cyclo_one(self.p)

    def zeta(self, k: int = 1) -> CyclotomicNumber:
        return cyclo_zeta(self.p, k)

    def coerce(self, x) -> CyclotomicNumber:
        if isinstance(x, CyclotomicNumber):
            if x.p != self.p:
                raise ValueError(f"element of Q(zeta_{x.p}) in Q(zeta_{self.p}) matrix")
            return x
        return cyclo_from_rational(self.p, Fraction(x))

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.p == self.p

    def __hash__(self):
        return hash(("cyclo", self.p))

    def __repr__(self):
        return self.name


Field = Union[RationalField, CyclotomicField]

QQ_FIELD = RationalField()


def _is_zero(x: Element) -> bool:
    if isinstance(x, CyclotomicNumber):
        return x.is_zero()
    return x == 0


def _inv(x: Element) -> Element:
    if isinstance(x, CyclotomicNumber):
        return x.inverse()
    return 1 / x


# -- matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix over one fixed field (Q or Q(zeta_p))."""

    field: Field
    rows: int
    cols: int
    entries: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        ent = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(ent[0]) if ent else 0
        return cls(field, len(ent), ncols, ent)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(
            field, n, n,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(tuple(-a for a in row) for row in self.entries),
        )

    def _same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("matrix field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("matrix field mismatch")
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            row_i = self.entries[i]
            nonzero = [(k, a) for k, a in enumerate(row_i) if not _is_zero(a)]
            row = []
            for j in range(other.cols):
                acc = z
                for k, a in nonzero:
                    b = other.entries[k][j]
                    if _is_zero(b):
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def apply(self, vec: tuple) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.rows}x{self.cols}")
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = z
            for k in range(self.cols):
                a = self.entries[i][k]
                if _is_zero(a):
                    continue
                acc = acc + a * vec[k]
            out.append(acc)
        return tuple(out)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(tuple(c * a for a in row) for row in self.entries),
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            tuple(
                tuple(self.entries[i][j] for i in range(self.rows))
                for j in range(self.cols)
            ),
        )

    def matpow(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("matrix power of non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(_is_zero(a) for row in self.entries for a in row)

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.rows != other.rows:
            raise ValueError("hstack mismatch")
        return Matrix(
            self.field, self.rows, self.cols + other.cols,
            tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)),
        )

    @classmethod
    def from_columns(cls, field: Field, columns, rows: int) -> "Matrix":
        cols = list(columns)
        ent = tuple(
            tuple(field.coerce(col[i]) for col in cols) for i in range(rows)
        )
        return cls(field, rows, len(cols), ent)

    # -- elimination -------------------------------------------------------

    def _echelon(self, aug: list[list[Element]] | None = None):
        """Row echelon form with first-nonzero pivoting.

        Returns (echelon rows, augmented rows echelonized alongside,
        pivot column list).
        """
        m = [list(row) for row in self.entries]
        t = [list(row) for row in aug] if aug is not None else None
        pivots: list[int] = []
        piv_r = 0
        for piv_c in range(self.cols):
            sel = None
            for r in range(piv_r, self.rows):
                if not _is_zero(m[r][piv_c]):
                    sel = r
                    break
            if sel is None:
                continue
            if sel != piv_r:
                m[piv_r], m[sel] = m[sel], m[piv_r]
                if t is not None:
                    t[piv_r], t[sel] = t[sel], t[piv_r]
            fp_inv = _inv(m[piv_r][piv_c])
            for r in range(piv_r + 1, self.rows):
                fr = m[r][piv_c]
                if _is_zero(fr):
                    continue
                factor = fr * fp_inv
                for c in range(piv_c, self.cols):
                    m[r][c] = m[r][c] - factor * m[piv_r][c]
                if t is not None:
                    for c in range(len(t[r])):
                        t[r][c] = t[r][c] - factor * t[piv_r][c]
            pivots.append(piv_c)
            piv_r += 1
            if piv_r == self.rows:
                break
        return m, t, pivots

    def rank(self) -> int:
        _, _, pivots = self._echelon()
        return len(pivots)

    def det(self) -> Element:
        """Determinant via elimination (square matrices)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        if self.rows == 0:
            return self.field.one()
        m = [list(row) for row in self.entries]
        sign = 1
        det = self.field.one()
        for k in range(self.rows):
            sel = None
            for r in range(k, self.rows):
                if not _is_zero(m[r][k]):
                    sel = r
                    break
            if sel is None:
                return self.field.zero()
            if sel != k:
                m[k], m[sel] = m[sel], m[k]
                sign = -sign
            det = det * m[k][k]
            pk_inv = _inv(m[k][k])
            for r in range(k + 1, self.rows):
                if _is_zero(m[r][k]):
                    continue
                factor = m[r][k] * pk_inv
                for c in range(k, self.cols):
                    m[r][c] = m[r][c] - factor * m[k][c]
        return det if sign == 1 else -det

    def kernel_basis(self) -> list[tuple]:
        """Basis of the null space; empty iff the matrix is injective."""
        m, _, pivots = self._echelon()
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.cols) if c not in pivot_set]
        z, o = self.field.zero(), self.field.one()
        piv_inv = {r: _inv(m[r][pivots[r]]) for r in range(len(pivots))}
        basis = []
        for fc in free_cols:
            sol = [z] * self.cols
            sol[fc] = o
            # back-substitute pivot variables, bottom pivot row first
            for r in range(len(pivots) - 1, -1, -1):
                pc = pivots[r]
                acc = z
                for c in range(pc + 1, self.cols):
                    if _is_zero(m[r][c]) or _is_zero(sol[c]):
                        continue
                    acc = acc + m[r][c] * sol[c]
                sol[pc] = -acc * piv_inv[r]
            basis.append(tuple(sol))
        return basis

    def solve(self, rhs: tuple) -> tuple | None:
        """One solution of self @ x = rhs, or None if the system is inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"rhs of length {len(rhs)} for {self.rows}x{self.cols}")
        rhs = tuple(self.field.coerce(x) for x in rhs)
        m, t, pivots = self._echelon([[x] for x in rhs])
        # consistency: zero rows of echelon must have zero rhs
        for r in range(len(pivots), self.rows):
            if not _is_zero(t[r][0]):
                return None
        z = self.field.zero()
        sol = [z] * self.cols
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            acc = t[r][0]
            for c in range(pc + 1, self.cols):
                if _is_zero(m[r][c]) or _is_zero(sol[c]):
                    continue
                acc = acc - m[r][c] * sol[c]
            sol[pc] = acc / m[r][pc]
        return tuple(sol)

    def solve_matrix(self, rhs: "Matrix") -> "Matrix | None":
        """Solve self @ X = rhs column by column; None if any column fails."""
        if rhs.rows != self.rows:
            raise ValueError("solve_matrix shape mismatch")
        cols = []
        for j in range(rhs.cols):
            sol = self.solve(rhs.column(j))
            if sol is None:
                return None
            cols.append(sol)
        return Matrix.from_columns(self.field, cols, self.cols)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.field, self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

