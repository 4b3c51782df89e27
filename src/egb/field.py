"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_p), p prime.

A rational is an `int` when it is integral and a `fractions.Fraction`
otherwise.  A cyclotomic number holds p-1 integer numerators of the basis 1,
zeta, ..., zeta^{p-2} over one positive common denominator, in lowest terms,
with zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}).  Its arithmetic runs on
integers: a product is one integer convolution, and the inverse is the
product of the other Galois conjugates over the norm.  Each field supplies
the update x - f*a as `sub_mul`, normalized once: over Q native when all
three are ints, else one Fraction of integer numerators (an int when
integral), over Q(zeta_p) one gcd (none over the denominator 1), whose sums
and differences are that update too.  Every loop of elimination and
products calls it, with no element type test.  Both element types test zero
by truthiness, and every division reads the field's `inverse`, under which
1/(+-1) over Q stays an int: no two ints are divided by ``/``.  All exact
linear algebra reads one elimination, `_reduce_columns`: the standard column
reduction R = DV of sparse columns, dicts row -> nonzero entry (Zomorodian
and Carlsson, "Computing persistent homology", 2005).  The barcodes of
`persistence` and the eigenspace kernels of `equivariant` read it, and so do
the `Matrix` methods: rank is the number of lows, a kernel the V_j of each
zero R_j, a solve the V of the columns of [A | B], and the determinant the
product of the low entries signed by the permutation j -> low_j.  V is
carried only for a caller that reads it, as the ``basis`` it passes.
A `Matrix` holds its sparse columns in that same form, so a product is
`_apply` per column and a sum `_axpy`; its dense rows are built only when
read.  There is no floating point anywhere in this module.
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


Element = Union[int, Fraction, CyclotomicNumber]


# -- fields ----------------------------------------------------------------


class RationalField:
    """Marker for Q; supplies zero, one, inverse and sub_mul so matrix code is
    field-generic.  An element is an int when integral, else a Fraction."""

    name = "Q"

    @staticmethod
    def sub_mul(x, f, a):
        """x - f*a: native when all three are ints, else one Fraction built
        from the integer numerators, or its int when it is integral."""
        if type(x) is type(f) is type(a) is int:
            return x - f * a
        xn, xd = x.as_integer_ratio()
        fn, fd = f.as_integer_ratio()
        an, ad = a.as_integer_ratio()
        n, d = xn * fd * ad - fn * an * xd, xd * fd * ad
        return Fraction(n, d) if n % d else n // d

    @staticmethod
    def inverse(x):
        """1/x from the lowest terms n/d of x: d/n, an int when n = +-1."""
        n, d = x.as_integer_ratio()
        return n * d if n == 1 or n == -1 else Fraction(d, n)

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, CyclotomicNumber):
            if not x.is_rational():
                raise ValueError(f"{x} is not rational")
            x = x.rational_part()
        elif type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class CyclotomicField:
    """Marker for Q(zeta_p)."""

    sub_mul = staticmethod(_sub_mul)

    @staticmethod
    def inverse(x: CyclotomicNumber) -> CyclotomicNumber:
        return x.inverse()

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


# -- sparse columns and the column reduction -----------------------------------


def _axpy(field: Field, target: dict, f, source: dict) -> None:
    """target -= f * source on sparse columns, one `sub_mul` per entry of
    ``source`` (a missing entry starts from zero), dropping those that cancel."""
    sub_mul, z = field.sub_mul, field.zero()
    for r, v in source.items():
        nv = sub_mul(target.get(r, z), f, v)
        if nv:
            target[r] = nv
        else:
            target.pop(r, None)


def _apply(field: Field, cols, chain: dict) -> dict:
    """The image of a sparse chain under the matrix with sparse columns ``cols``."""
    image: dict = {}
    for g, c in chain.items():
        _axpy(field, image, -c, cols[g])
    return image


def _reduce_columns(field: Field, columns, basis=None) -> dict[int, int]:
    """The standard column reduction, in place, left to right: while column
    j has the lowest nonzero row of an earlier column k, subtract f times
    column k.  Returns ``lows``, which maps the lowest row of each nonzero
    reduced column to it, in column order.  A column is nonzero after the
    reduction iff it is independent of the columns before it.  The pivot of
    column k is inverted once, at its first use, and each factor is one
    product with that inverse.  A caller that reads V passes ``basis``, one
    sparse column per column, and each step is repeated on it: from the
    unit columns e_j, V ends with R = DV for D the columns as given, V upper
    unitriangular.  A step only subtracts a column k < j with R_k != 0, and
    V_k is final then, so V_j lives on j and on such columns."""
    lows: dict[int, int] = {}
    inverses: dict[int, object] = {}
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            k = lows.setdefault(low, j)
            if k == j:
                break
            inverse = inverses.get(k)
            if inverse is None:
                inverse = inverses[k] = field.inverse(columns[k][low])
            factor = col[low] * inverse
            _axpy(field, col, factor, columns[k])
            if basis is not None:
                _axpy(field, basis[j], factor, basis[k])
    return lows


def _null_vectors(field: Field, columns) -> list[tuple[int, dict]]:
    """(j, V_j) for each column j that `_reduce_columns` reduces to zero, in
    place, with V carried from the unit columns: a basis of the kernel of the
    matrix with these columns, V_j 1 at j, 0 at every other such j, and
    ending at j."""
    V = [{j: field.one()} for j in range(len(columns))]
    _reduce_columns(field, columns, V)
    return [(j, V[j]) for j, col in enumerate(columns) if not col]


# -- matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix over one fixed field (Q or Q(zeta_p)),
    held as its sparse columns: ``columns[j]`` maps each row with a nonzero
    entry of column j to it.  No zero is stored, so equality is entry
    equality.  The column dicts may be shared between matrices and are
    never changed: a reader that reduces them in place copies them first."""

    field: Field
    rows: int
    cols: int
    columns: tuple[dict, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        columns = tuple(self.columns)
        if len(columns) != self.cols:
            raise ValueError("column count mismatch")
        if any(col and (min(col) < 0 or max(col) >= self.rows) for col in columns):
            raise ValueError("row index outside the matrix")
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _of(cls, field: Field, rows: int, cols: int, columns: tuple) -> "Matrix":
        """The matrix of a tuple of columns that already fit the shape, built
        without the row scan of `__post_init__`."""
        m = _new(cls)
        m.__dict__.update(field=field, rows=rows, cols=cols, columns=columns)
        return m

    @property
    def entries(self) -> tuple[tuple[Element, ...], ...]:
        """The dense rows, built on every read."""
        z = self.field.zero()
        return tuple(tuple(col.get(i, z) for col in self.columns) for i in range(self.rows))

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix")
        coerce, columns = field.coerce, tuple({} for _ in range(ncols))
        for i, row in enumerate(rows):
            for col, x in zip(columns, row):
                if x := coerce(x):
                    col[i] = x
        return cls(field, len(rows), ncols, columns)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, tuple({} for _ in range(cols)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one()
        return cls(field, n, n, tuple({j: one} for j in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= i < self.rows:
            raise IndexError("matrix row index out of range")
        if not 0 <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return self.columns[j].get(i, self.field.zero())

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._minus(-self.field.one(), other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._minus(self.field.one(), other)

    def _minus(self, f, other: "Matrix") -> "Matrix":
        """self - f * other, one `_axpy` per column."""
        if self.field != other.field:
            raise ValueError("matrix field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        columns = self._copy()
        for col, source in zip(columns, other.columns):
            _axpy(self.field, col, f, source)
        return Matrix(self.field, self.rows, self.cols, columns)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple({i: -x for i, x in col.items()} for col in self.columns))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Column j of the product is `_apply` of self to column j of
        ``other``, so only nonzero pairs are multiplied."""
        if self.field != other.field:
            raise ValueError("matrix field mismatch")
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix._of(self.field, self.rows, other.cols,
                          tuple(_apply(self.field, self.columns, col) for col in other.columns))

    def apply(self, vec: tuple) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.rows}x{self.cols}")
        return (self @ Matrix.from_columns(self.field, [vec], self.cols)).column(0)

    def scale(self, c) -> "Matrix":
        coerce = self.field.coerce
        if not (c := coerce(c)):
            return Matrix.zeros(self.field, self.rows, self.cols)
        return Matrix(self.field, self.rows, self.cols,
                      tuple({i: coerce(c * x) for i, x in col.items()} for col in self.columns))

    def transpose(self) -> "Matrix":
        columns = tuple({} for _ in range(self.rows))
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                columns[i][j] = x
        return Matrix(self.field, self.cols, self.rows, columns)

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
        return not any(self.columns)

    def column(self, j: int) -> tuple:
        col, z = self.columns[j], self.field.zero()
        return tuple(col.get(i, z) for i in range(self.rows))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.rows != other.rows:
            raise ValueError("hstack mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols, self.columns + other.columns)

    @classmethod
    def from_columns(cls, field: Field, columns, rows: int) -> "Matrix":
        coerce = field.coerce
        columns = tuple({i: x for i in range(rows) if (x := coerce(col[i]))} for col in columns)
        return cls(field, rows, len(columns), columns)


    # -- elimination: readers of the column reduction ------------------------

    def _copy(self) -> list[dict]:
        """Copies of the columns, for a reduction in place."""
        return [dict(col) for col in self.columns]

    def rank(self) -> int:
        """The number of lows of the reduced columns."""
        return len(_reduce_columns(self.field, self._copy()))

    def det(self) -> Element:
        """Determinant of a square matrix.  R = AV with V unitriangular, so
        det A = det R; each R_j is zero below its low, and the lows of a full
        rank are a permutation of the rows, so j -> low_j is the only
        permutation whose entries of R are all nonzero: det is the product of
        the low entries, signed by the parity of that permutation."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        cols = self._copy()
        lows = _reduce_columns(self.field, cols)
        if len(lows) < self.rows:
            return self.field.zero()
        det, perm, odd = self.field.one(), [0] * self.rows, False
        for low, j in lows.items():
            det = det * cols[j][low]
            perm[j] = low
        for i in range(self.rows):  # sort by swaps, one per misplaced entry
            while perm[i] != i:
                k = perm[i]
                perm[i], perm[k] = perm[k], k
                odd = not odd
        return self.field.coerce(-det if odd else det)  # a product of Fractions may be integral

    def kernel_basis(self) -> list[tuple]:
        """Basis of the null space; empty iff the matrix is injective.

        One vector per column j that reduces to zero, ascending: V_j of
        `_null_vectors`.  It is 1 at j and 0 at every other such column, j is
        its last nonzero entry, and its other entries lie on the pivot
        columns, so it is the solution of A x = 0 with x_j = 1 and every
        other free variable 0."""
        z = self.field.zero()
        return [tuple(v.get(r, z) for r in range(self.cols))
                for _, v in _null_vectors(self.field, self._copy())]

    def solve(self, rhs: tuple) -> tuple | None:
        """One solution of self @ x = rhs, or None if the system is inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"rhs of length {len(rhs)} for {self.rows}x{self.cols}")
        sol = self.solve_matrix(Matrix.from_columns(self.field, [rhs], self.rows))
        return None if sol is None else sol.column(0)

    def solve_matrix(self, rhs: "Matrix") -> "Matrix | None":
        """Solve self @ X = rhs from one reduction of the columns of
        [self | rhs], with V; None if a column of rhs stays nonzero, i.e. is
        not in the column space.  Otherwise each column n + j of rhs reduces
        to 0 = self V_(n+j)[:n] + rhs_j against pivot columns of self alone,
        so X_j = -V_(n+j) on self's n columns: like a kernel vector, it lives
        on the pivot columns, the solution with every free variable 0."""
        if rhs.rows != self.rows:
            raise ValueError("solve_matrix shape mismatch")
        field, n, coerce = self.field, self.cols, self.field.coerce
        cols = self._copy() + [{i: coerce(x) for i, x in col.items()} for col in rhs.columns]
        V = [{j: field.one()} for j in range(len(cols))]
        _reduce_columns(field, cols, V)
        if any(cols[n:]):
            return None
        return Matrix(field, n, rhs.cols,
                      tuple({r: -x for r, x in v.items() if r < n} for v in V[n:]))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.field, self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv
