"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_p), p prime.

Rationals are `fractions.Fraction`.  A cyclotomic number holds p-1 integer
numerators of the basis 1, zeta, ..., zeta^{p-2} over one positive common
denominator, in lowest terms, with zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}).
Its arithmetic runs on integers: a product is one integer convolution, and
the inverse is the product of the other Galois conjugates over the norm.
Each field supplies the update x - f*a as `sub_mul`, normalized once: over Q
one Fraction of integer numerators, over Q(zeta_p) one gcd (none over the
denominator 1), whose sums and differences are that update too.  Every loop of
elimination and products calls it, with no element type test.  Both element
types test zero by truthiness and invert by ``1 / x``.  All linear algebra
reads one elimination: `Matrix._echelon`, a forward pass with first-nonzero
pivoting, and one shared back substitution.  Rank is the pivot count, the
determinant the signed product of the pivots, and a kernel, solve,
solve_matrix or inverse back-substitutes each column of one echelon pass.
Matrices are dense tuples, but products skip zeros: `@` lists the nonzero
entries of each row of the right factor once and multiplies only nonzero pairs
(Gustavson's row-by-row product, ACM TOMS 1978).  There is no floating point
anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


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


class CyclotomicNumber:
    """Element of Q(zeta_p) as integer numerators of 1, zeta, ..., zeta^{p-2}
    over one positive denominator.

    `num` holds p-1 ints and `den` > 0 with gcd(den, *num) = 1, so every
    element has exactly one representation and equality and hashing are
    coordinate-wise.  `coords` gives the coordinates as Fractions.
    Instances are immutable.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coords):
        _check_supported_prime(p)
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for p={p}, got {len(coords)}")
        fracs = [c if type(c) is Fraction else Fraction(c) for c in coords]
        # over the lcm of reduced denominators the numerators share no factor with it
        den = math.lcm(*(f.denominator for f in fracs))
        _set(self, "p", p)
        _set(self, "num", tuple(f.numerator * (den // f.denominator) for f in fracs))
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    def __delattr__(self, name):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _sub_mul(self, _MINUS_ONE[self.p], other)

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _sub_mul(self, _ONE[self.p], other)

    def __neg__(self):
        """-x; negation keeps the lowest terms, so no gcd is taken."""
        y = _new(CyclotomicNumber)
        _set(y, "p", self.p)
        _set(y, "num", tuple([-a for a in self.num]))
        _set(y, "den", self.den)
        return y

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self.num, other.num
        if self.den == 1 and (x[0] == 1 or x[0] == -1) and not any(x[1:]):  # +-1 is common
            return other if x[0] == 1 else -other
        if other.den == 1 and (y[0] == 1 or y[0] == -1) and not any(y[1:]):
            return self if y[0] == 1 else -self
        return _cyclo(self.p, _product(self.p, x, y), self.den * other.den)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = _ONE[self.p]
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _operand(self, other) -> "CyclotomicNumber":
        """`other` as an element of this field, or NotImplemented."""
        if type(other) is CyclotomicNumber:
            if other.p != self.p:
                raise ValueError(f"mismatched cyclotomic fields: p={self.p} vs p={other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return _cyclo(self.p, (other.numerator,) + _TAIL[self.p], other.denominator)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not CyclotomicNumber:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.p == other.p

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_part(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse in closed form.

        For x = X/den with X integral, 1/x = den * Y / N(X), where Y is the
        product of the other Galois conjugates sigma_k(X), k = 2..p-1, and
        the norm N(X) = X * Y is a positive integer: the conjugates come in
        complex-conjugate pairs, since Q(zeta_p) has no real embedding for
        odd p (p = 2 only has rationals).
        """
        p, num = self.p, self.num
        if not any(num[1:]):
            q = num[0]
            if not q:
                raise ZeroDivisionError("inverse of zero cyclotomic number")
            return _cyclo(p, (self.den if q > 0 else -self.den,) + _TAIL[p], abs(q))
        y = _conjugate(p, num, 2)
        for k in range(3, p):
            y = _convolve(p, y, _conjugate(p, num, k))
        norm = _constant(p, num, y)
        return _cyclo(p, [self.den * c for c in y], norm)

    def __repr__(self):
        return f"CyclotomicNumber(p={self.p!r}, coords={self.coords!r})"

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


_new = object.__new__
_set = object.__setattr__


def _cyclo(p: int, num, den: int) -> CyclotomicNumber:
    """Internal constructor: integer numerators over den > 0, put in lowest terms."""
    g = 1 if den == 1 else math.gcd(den, *num)
    x = _new(CyclotomicNumber)
    _set(x, "p", p)
    if g == 1:
        _set(x, "num", tuple(num))
        _set(x, "den", den)
    else:
        _set(x, "num", tuple([a // g for a in num]))
        _set(x, "den", den // g)
    return x


def _sub_mul(x: CyclotomicNumber, f: CyclotomicNumber, a: CyclotomicNumber) -> CyclotomicNumber:
    """x - f*a with one normalization: the integer numerators of f*a over
    f.den * a.den and those of x are brought to the lcm of the two
    denominators, and their difference makes one `_cyclo`.  It is the
    `sub_mul` of Q(zeta_p), and x + a and x - a are it with f = -1 and 1."""
    p, prod = x.p, _product(x.p, f.num, a.num)
    d1, d2 = x.den, f.den * a.den
    if d1 == d2:
        return _cyclo(p, [u - v for u, v in zip(x.num, prod)], d1)
    g = math.gcd(d1, d2)
    if g != 1:
        d1, d2 = d1 // g, d2 // g
    return _cyclo(p, [u * d2 - v * d1 for u, v in zip(x.num, prod)], d1 * d2 * g)


def _product(p: int, x, y) -> list[int]:
    """Product of two integer coordinate vectors in Z[zeta_p], with a fast
    path when either is rational (most matrix entries are)."""
    if not any(x[1:]):
        q = x[0]
        return [q * b for b in y]
    if not any(y[1:]):
        q = y[0]
        return [q * a for a in x]
    return _convolve(p, x, y)


def _constant(p: int, x, y) -> int:
    """The constant coordinate of `_convolve(p, x, y)` alone: the terms of
    degree 0 and p, less those of degree p-1, about 2p products."""
    return (x[0] * y[0] + sum(x[i] * y[p - i] for i in range(2, p - 1))
            - sum(x[i] * y[p - 1 - i] for i in range(1, p - 1)))


def _convolve(p: int, x, y) -> list[int]:
    """Product of two integer coordinate vectors in Z[zeta_p]."""
    conv = [0] * (2 * p - 1)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                conv[k] += a * b
    # zeta^{k+p} = zeta^k, and zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    top = conv[p - 1]
    return [conv[k] + conv[k + p] - top for k in range(p - 1)]


def _conjugate(p: int, x, k: int) -> list[int]:
    """The Galois conjugate sigma_k: zeta^i -> zeta^{ik mod p}, on integer coordinates."""
    out = [0] * p
    for i, a in enumerate(x):
        out[i * k % p] = a
    top = out[p - 1]
    return [c - top for c in out[:-1]]


def _check_supported_prime(p: int) -> None:
    if p not in _SUPPORTED_PRIMES:
        raise ValueError(f"p must be a prime <= 13, got {p}")


_TAIL = {p: (0,) * (p - 2) for p in _SUPPORTED_PRIMES}
_ZERO = {p: _cyclo(p, (0,) * (p - 1), 1) for p in _SUPPORTED_PRIMES}
_ONE = {p: _cyclo(p, (1,) + _TAIL[p], 1) for p in _SUPPORTED_PRIMES}
_MINUS_ONE = {p: _cyclo(p, (-1,) + _TAIL[p], 1) for p in _SUPPORTED_PRIMES}
_Q_ZERO = Fraction(0)


def cyclo_from_rational(p: int, q) -> CyclotomicNumber:
    _check_supported_prime(p)
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return _cyclo(p, (q.numerator,) + _TAIL[p], q.denominator)


def cyclo_zeta(p: int, k: int = 1) -> CyclotomicNumber:
    """zeta_p^k (zeta^{p-1} reduced into the basis)."""
    _check_supported_prime(p)
    k %= p
    if k == 0:
        return _ONE[p]
    num = [0] * (p - 1)
    if k <= p - 2:
        num[k] = 1
    else:  # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
        num = [-1] * (p - 1)
    return _cyclo(p, num, 1)


Element = Union[Fraction, CyclotomicNumber]


# -- fields ----------------------------------------------------------------


class RationalField:
    """Marker for Q; supplies zero, one and sub_mul so matrix code is field-generic."""

    name = "Q"

    @staticmethod
    def sub_mul(x, f, a) -> Fraction:
        """x - f*a as one Fraction built from the integer numerators."""
        xd, fd, ad = x.denominator, f.denominator, a.denominator
        return Fraction(x.numerator * fd * ad - f.numerator * a.numerator * xd, xd * fd * ad)

    def zero(self) -> Fraction:
        return _Q_ZERO

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if type(x) is Fraction:
            return x
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

    sub_mul = staticmethod(_sub_mul)

    def __init__(self, p: int):
        _check_supported_prime(p)
        self.p = p
        self.name = f"Q(zeta_{p})"

    def zero(self) -> CyclotomicNumber:
        return _ZERO[self.p]

    def one(self) -> CyclotomicNumber:
        return _ONE[self.p]

    def coerce(self, x) -> CyclotomicNumber:
        if isinstance(x, CyclotomicNumber):
            if x.p != self.p:
                raise ValueError(f"element of Q(zeta_{x.p}) in Q(zeta_{self.p}) matrix")
            return x
        return cyclo_from_rational(self.p, x)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.p == self.p

    def __hash__(self):
        return hash(("cyclo", self.p))

    def __repr__(self):
        return self.name


Field = Union[RationalField, CyclotomicField]

QQ_FIELD = RationalField()


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
                tuple(a + b if b else a for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(
                tuple(a - b if b else a for a, b in zip(r1, r2))
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
        z, sub_mul = self.field.zero(), self.field.sub_mul
        # Gustavson's row-by-row product: the nonzero (j, b) of each row of
        # `other`, listed once with -b, meet only the nonzero a of each row
        # of self, so that each product after the first is one update
        # c - a*(-b); None marks an output entry no product has reached yet
        sparse = [[(j, b, -b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row_i in self.entries:
            acc = [None] * other.cols
            for a, nonzero in zip(row_i, sparse):
                if a:
                    for j, b, nb in nonzero:
                        c = acc[j]
                        acc[j] = a * b if c is None else sub_mul(c, a, nb)
            out.append(tuple(z if c is None else c for c in acc))
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def apply(self, vec: tuple) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.rows}x{self.cols}")
        return (self @ Matrix.from_columns(self.field, [vec], self.cols)).column(0)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(tuple(c * a if a else a for a in row) for row in self.entries),
        )

    def shift_diagonal(self, c) -> "Matrix":
        """self - c * identity of a square matrix, with no identity built."""
        if self.rows != self.cols:
            raise ValueError("diagonal shift of non-square matrix")
        c = self.field.coerce(c)
        return Matrix(self.field, self.rows, self.cols, tuple(
            row[:i] + (row[i] - c,) + row[i + 1:] for i, row in enumerate(self.entries)))

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.entries, self.cols)

    def matpow(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("matrix power of non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        if n == 0:
            return Matrix.identity(self.field, self.rows)
        # start from the lowest set bit's power; square only while bits remain
        base = self
        while not n & 1:
            base = base @ base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base @ base
            if n & 1:
                result = result @ base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(a for row in self.entries for a in row)

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

    def _echelon(self, aug=()):
        """Row echelon form with first-nonzero pivoting: the module's one
        forward elimination.

        The rows of ``aug`` (right-hand-side columns, one row per row of this
        matrix) are appended to the rows and reduced alongside; pivots are
        sought among this matrix's columns only.  Returns (echelon rows,
        pivot column list, inverse of each pivot, parity of the row swaps).
        """
        m = [list(row) for row in self.entries]
        for row, extra in zip(m, aug):
            row.extend(extra)
        width = len(m[0]) if m else self.cols
        z, one, sub_mul = self.field.zero(), self.field.one(), self.field.sub_mul
        pivots: list[int] = []
        inverses = []
        odd = False
        piv_r = 0
        for piv_c in range(self.cols):
            sel = None
            for r in range(piv_r, self.rows):
                if m[r][piv_c]:
                    sel = r
                    break
            if sel is None:
                continue
            if sel != piv_r:
                m[piv_r], m[sel] = m[sel], m[piv_r]
                odd = not odd
            prow = m[piv_r]
            fp_inv = one / prow[piv_c]
            rest = [(c, prow[c]) for c in range(piv_c + 1, width) if prow[c]]
            for r in range(piv_r + 1, self.rows):
                row = m[r]
                fr = row[piv_c]
                if not fr:
                    continue
                factor = fr * fp_inv
                row[piv_c] = z
                for c, a in rest:
                    row[c] = sub_mul(row[c], factor, a)
            pivots.append(piv_c)
            inverses.append(fp_inv)
            piv_r += 1
            if piv_r == self.rows:
                break
        return m, pivots, inverses, odd

    def _back_substitute(self, m, pivots, inverses, rhs) -> list:
        """The solution of the echelon system with right-hand side ``rhs`` (one
        value per pivot row) that sets every free variable to 0; each pivot
        row multiplies by the pivot inverse `_echelon` computed."""
        z, sub_mul = self.field.zero(), self.field.sub_mul
        sol = [z] * self.cols
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = m[r]
            acc = rhs[r]
            for c in range(pc + 1, self.cols):
                if row[c] and sol[c]:
                    acc = sub_mul(acc, row[c], sol[c])
            sol[pc] = acc * inverses[r]
        return sol

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> Element:
        """Determinant: the signed product of the echelon pivots (square matrices)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m, pivots, _, odd = self._echelon()
        if len(pivots) < self.rows:
            return self.field.zero()
        det = self.field.one()
        for r in range(self.rows):
            det = det * m[r][r]
        return -det if odd else det

    def kernel_basis(self) -> list[tuple]:
        """Basis of the null space; empty iff the matrix is injective.

        One vector per free column fc, ascending: the back substitution of
        -(column fc), with the free variable fc then set to 1.  It is 1 at fc
        and 0 at every other free column, and fc is its last nonzero entry,
        since no pivot row past fc has an entry in column fc."""
        m, pivots, inverses, _ = self._echelon()
        pivot_set = set(pivots)
        one = self.field.one()
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            sol = self._back_substitute(m, pivots, inverses,
                                        [-m[r][fc] for r in range(len(pivots))])
            sol[fc] = one
            basis.append(tuple(sol))
        return basis

    def solve(self, rhs: tuple) -> tuple | None:
        """One solution of self @ x = rhs, or None if the system is inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"rhs of length {len(rhs)} for {self.rows}x{self.cols}")
        sol = self.solve_matrix(Matrix(self.field, self.rows, 1, tuple((x,) for x in rhs)))
        return None if sol is None else sol.column(0)

    def solve_matrix(self, rhs: "Matrix") -> "Matrix | None":
        """Solve self @ X = rhs, all columns from one elimination of
        [self | rhs]; None if any column is inconsistent."""
        if rhs.rows != self.rows:
            raise ValueError("solve_matrix shape mismatch")
        coerce = self.field.coerce
        m, pivots, inverses, _ = self._echelon([[coerce(x) for x in row] for row in rhs.entries])
        n, k = self.cols, len(pivots)
        # consistency: the zero rows of the echelon form must have zero rhs
        if any(x for row in m[k:] for x in row[n:]):
            return None
        cols = [self._back_substitute(m, pivots, inverses, [m[r][n + j] for r in range(k)])
                for j in range(rhs.cols)]
        return Matrix.from_columns(self.field, cols, n)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.field, self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv
