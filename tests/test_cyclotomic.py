"""Q(zeta_p) on integer numerators against the Fraction-coordinate oracle
`conftest.FracCyclotomicNumber`, and exact elimination over Q(zeta_p)
pinned by the sha256 of its serialized results."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from egb.field import CyclotomicField, CyclotomicNumber, Matrix, QQ_FIELD, _constant, _convolve
from egb.serialize import element_to_obj

from conftest import SEED, FracCyclotomicNumber, cyclo_one

PRIMES = (2, 3, 5, 7, 11, 13)


def rand_coords(rng, p: int) -> list:
    """Zero, rational, sparse, large-numerator or mixed int/Fraction coordinates."""
    kind = rng.randrange(5)
    if kind == 0:
        return [0] * (p - 1)
    if kind == 1:
        return [F(rng.randint(-9, 9), rng.randint(1, 6))] + [0] * (p - 2)
    if kind == 2:
        return [F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
                if rng.random() < 0.5 else 0 for _ in range(p - 1)]
    if kind == 3:
        return [rng.choice((0, 0, rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 6))))
                for _ in range(p - 1)]
    return [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(p - 1)]


def rand_scalar(rng):
    return rng.choice((rng.randint(-6, 6), F(rng.randint(-9, 9), rng.randint(1, 6))))


def pairs(p: int, count: int):
    """(new, oracle) element pairs with equal coordinates."""
    rng = random.Random(f"cyclotomic:{SEED}:{p}")
    for _ in range(count):
        coords = rand_coords(rng, p)
        yield CyclotomicNumber(p, coords), FracCyclotomicNumber(p, tuple(coords)), rng


def assert_same(new, old):
    assert type(new) is CyclotomicNumber
    assert new.p == old.p
    assert new.coords == old.coords
    assert all(type(c) is F for c in new.coords)
    assert str(new) == str(old)
    assert new.is_zero() == old.is_zero()
    assert bool(new) == (not old.is_zero())
    assert new.is_rational() == old.is_rational()
    assert new.rational_part() == old.rational_part()


@pytest.mark.parametrize("p", PRIMES)
class TestAgainstFractionOracle:
    def test_ring_operations(self, p):
        prev = None
        for a, oa, rng in pairs(p, 60):
            assert_same(a, oa)
            assert_same(-a, -oa)
            if prev is not None:
                b, ob = prev
                assert_same(a + b, oa + ob)
                assert_same(a - b, oa - ob)
                assert_same(a * b, oa * ob)
            k = rand_scalar(rng)
            assert_same(a + k, oa + k)
            assert_same(k + a, k + oa)
            assert_same(a - k, oa - k)
            assert_same(k - a, k - oa)
            assert_same(a * k, oa * k)
            assert_same(k * a, k * oa)
            if k:
                assert_same(a / k, oa / k)
            prev = a, oa

    @pytest.mark.parametrize("u, v", [(F(1, 7), F(2, 7)), (F(1, 6), F(5, 6)),
                                      (F(1, 4), F(2, 9)), (F(1, 6), F(3, 10))],
                             ids=["equal", "equal-reducing", "coprime", "shared-factor"])
    def test_sums_over_each_kind_of_denominator(self, p, u, v):
        """x + a and x - a, one fused normalization each, where the
        denominators are equal (and the result reduces or not), coprime, or
        share a factor."""
        x, y = ([w * (i + 1) for i in range(p - 1)] for w in (u, v))
        a, b = CyclotomicNumber(p, x), CyclotomicNumber(p, y)
        oa, ob = FracCyclotomicNumber(p, tuple(x)), FracCyclotomicNumber(p, tuple(y))
        for got, want in ((a + b, oa + ob), (a - b, oa - ob), (b - a, ob - oa)):
            assert_same(got, want)

    def test_inverse_division_and_powers(self, p):
        prev = None
        # the oracle inverts by a (p-1) x (p-1) solve over Q: few samples at large p
        for a, oa, rng in pairs(p, 30 if p <= 7 else 8):
            if oa.is_zero():
                for x in (a, oa):
                    with pytest.raises(ZeroDivisionError):
                        x.inverse()
                with pytest.raises(ZeroDivisionError):
                    1 / a
            else:
                inv = oa.inverse()
                assert_same(a.inverse(), inv)
                assert_same(1 / a, inv)
                k = rand_scalar(rng)
                assert_same(k / a, k * inv)
                if prev is not None:
                    assert_same(prev[0] / a, prev[1] / oa)
            for n in range(-2 if not oa.is_zero() else 0, 4):
                assert_same(a ** n, oa ** n)
            prev = a, oa

    def test_equality_and_hash(self, p):
        elements = list(pairs(p, 40))
        for a, oa, _ in elements:
            again = CyclotomicNumber(p, oa.coords)
            assert a == again and hash(a) == hash(again)
            for b, ob, _ in elements[:10]:
                assert (a == b) == (oa == ob)
                assert (a != b) == (oa != ob)
                roundabout = (a + b) - b
                assert roundabout == a and hash(roundabout) == hash(a)


@pytest.mark.parametrize("p", PRIMES)
def test_constant_coordinate_is_that_of_the_convolution(p):
    """The norm of `CyclotomicNumber.inverse` needs only the constant
    coordinate of a product; `_constant` computes it alone."""
    rng = random.Random(f"constant:{SEED}:{p}")
    for _ in range(100):
        x, y = ([rng.choice((0, rng.randint(-9, 9), rng.randint(-10 ** 20, 10 ** 20)))
                 for _ in range(p - 1)] for _ in range(2))
        assert _constant(p, x, y) == _convolve(p, x, y)[0]


class TestRepresentation:
    def test_lowest_terms(self):
        x = CyclotomicNumber(3, (F(1, 4), F(1, 6)))
        assert (x.num, x.den) == ((3, 2), 12)
        y = x + CyclotomicNumber(3, (F(1, 4), F(1, 3)))
        assert (y.num, y.den) == ((1, 1), 2)
        z = y * CyclotomicNumber(3, (F(2, 3), 0))
        assert (z.num, z.den) == ((1, 1), 3)
        zero = z - z
        assert (zero.num, zero.den) == ((0, 0), 1)
        assert zero == CyclotomicField(3).zero() and not zero

    def test_constructor_checks(self):
        with pytest.raises(ValueError):
            CyclotomicNumber(4, (0, 0, 0))
        with pytest.raises(ValueError):
            CyclotomicNumber(5, (0, 0, 0))
        assert CyclotomicNumber(3, (2, F(-1, 3))).coords == (F(2), F(-1, 3))

    def test_immutable(self):
        x = CyclotomicNumber(3, (1, 2))
        with pytest.raises(AttributeError):
            x.den = 2
        with pytest.raises(AttributeError):
            del x.num
        assert x.coords == (F(1), F(2))

    @pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(5)])
    def test_truthiness_and_reciprocal_on_both_fields(self, field):
        two = field.coerce(2)
        assert not field.zero() and field.one() and two
        assert 1 / two == field.coerce(F(1, 2))
        with pytest.raises(ZeroDivisionError):
            1 / field.zero()


def test_inverse_solves_no_system(monkeypatch):
    """The inverse is the closed form over the Galois conjugates: no
    elimination runs, not even over Q."""
    calls = []
    original = Matrix.solve

    def counting_solve(self, rhs):
        calls.append(self.rows)
        return original(self, rhs)

    monkeypatch.setattr(Matrix, "solve", counting_solve)
    for p in PRIMES[1:]:
        x = CyclotomicNumber(p, tuple(range(1, p)))
        assert x * x.inverse() == cyclo_one(p)
    assert calls == []


# -- elimination over Q(zeta_p), pinned ------------------------------------------

PIN_SHAPES = ((2, 2), (3, 3), (4, 4), (3, 5), (5, 3), (4, 4))

# sha256 of json.dumps(pinned_elimination(p), sort_keys=True), computed with the
# Fraction-coordinate CyclotomicNumber and its Q-system inverse.
PINS = {
    2: "5649e257093765fac0e1afe7f272273b3c418a72315238448049bfbad0f12abd",
    3: "c8545c0276853bc045b112a5e501aa3db06ae801b998a54f428b3aca99552bfe",
    5: "46b2e31419399efae63b6735f86a8139fb57da9c96203b9e0847d5631eb813cc",
    7: "bc20a8e4f62350fece070b8f1548f993d1a7f2f4faf382bdddb47f42841f335a",
    11: "7ee1427b89d048c3109d91e1f46fecf4359f6369a0dc1a274432a5f6f841b68a",
    13: "92246508cd1a4a16b6eb74b0e7e8e6827f6b03ddef23eea16cd9e19b48cc7648",
}


def pinned_elimination(p: int) -> list:
    """rank, kernel_basis, solve and det of seeded Q(zeta_p) matrices, some
    with a dependent last row, as JSON-ready objects."""
    rng = random.Random(f"elimination-pin:{p}")
    field = CyclotomicField(p)

    def element():
        r = rng.random()
        if r < 0.25:
            return field.zero()
        if r < 0.45:
            return field.coerce(F(rng.randint(-4, 4), rng.randint(1, 3)))
        return CyclotomicNumber(p, tuple(F(rng.randint(-3, 3), rng.randint(1, 2))
                                         for _ in range(p - 1)))

    def vector(v):
        return [element_to_obj(x) for x in v]

    out = []
    for rows, cols in PIN_SHAPES:
        ent = [[element() for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.6:
            c = element()
            ent[-1] = [c * a + b for a, b in zip(ent[0], ent[1])]
        m = Matrix.from_rows(field, ent)
        image = m.apply(tuple(element() for _ in range(cols)))
        stray = tuple(element() for _ in range(rows))
        solved = [m.solve(image), m.solve(stray)]
        out.append({
            "rank": m.rank(),
            "kernel": [vector(v) for v in m.kernel_basis()],
            "solve": [None if s is None else vector(s) for s in solved],
            "det": element_to_obj(m.det()) if rows == cols else None,
        })
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_pinned_elimination(p):
    text = json.dumps(pinned_elimination(p), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[p]
