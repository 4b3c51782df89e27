"""Property tests: the JSON codecs round-trip field elements, matrices and
Z_p modules, a formatted rational needs no JSON escaping and reads the same
from its integers as from its Fraction, Q(zeta_p) is a field, and the integer
keys order and merge exact values as Fractions do.
Derandomized, so every run draws the same examples."""

import json
import random
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings, strategies as st

from egb.field import CyclotomicField, CyclotomicNumber, Matrix, QQ_FIELD
from egb.model import ModelInput
from egb.persistence import Bar, Barcode, INF, _order_key
from egb.serialize import (
    _ratio_str,
    element_from_obj,
    element_to_obj,
    frac_str,
    matrix_from_obj,
    matrix_to_obj,
    zp_module_from_obj,
    zp_module_to_obj,
)

from conftest import canonical_items_oracle, model_input_oracle, random_zp_module

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

primes = st.sampled_from((2, 3, 5, 7, 11, 13))
rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)


def through_json(obj):
    return json.loads(json.dumps(obj))


@st.composite
def cyclotomic(draw, p):
    return CyclotomicNumber(p, draw(st.lists(rationals, min_size=p - 1, max_size=p - 1)))


@st.composite
def field_and_element(draw):
    if draw(st.booleans()):
        return QQ_FIELD, draw(rationals)
    p = draw(primes)
    return CyclotomicField(p), draw(cyclotomic(p))


@st.composite
def cyclotomic_matrix(draw):
    p = draw(primes)
    field = CyclotomicField(p)
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if rows == 0:
        return Matrix.zeros(field, 0, cols)
    entries = draw(st.lists(st.lists(cyclotomic(p), min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix.from_rows(field, entries)


@PROPERTY
@given(field_and_element())
def test_element_round_trip(field_element):
    field, x = field_element
    assert element_from_obj(field, through_json(element_to_obj(x))) == x


@PROPERTY
@given(cyclotomic_matrix())
def test_matrix_round_trip(m):
    obj = through_json(matrix_to_obj(m))
    assert matrix_from_obj(m.field, obj, m.rows, m.cols) == m


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(st.fractions(), st.just(INF)))
def test_frac_str_needs_no_json_escaping(x):
    """The record writer quotes `frac_str` output without escaping it."""
    s = frac_str(x)
    assert encode_basestring_ascii(s) == '"' + s + '"'


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(-2 ** 1000, 2 ** 1000), st.integers(1, 2 ** 1000),
       st.one_of(st.just(1), st.integers(1, 2 ** 200)))
@example(0, 1, 1)
@example(0, 7, 3)
@example(-5, 1, 1)
@example(12, 1, 12)
@example(-3, 4, 2)
@example(2 ** 999 + 1, 2 ** 1000 - 1, 2 ** 200)
def test_ratio_str_is_frac_str_of_the_fraction(n, d, common):
    """The record writer formats a coordinate from its numerator over the
    record's denominator, sharing a factor or not, as `frac_str` formats the
    Fraction: negative, zero and positive numerators, denominators from 1,
    values up to ~1,200 bits."""
    expected = frac_str(Fraction(n, d))
    assert _ratio_str(n, d) == expected
    assert _ratio_str(n * common, d * common) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 2 ** 32))
def test_zp_module_round_trip(p, seed):
    module = random_zp_module(random.Random(seed), p, max_blocks=3)
    assert zp_module_from_obj(through_json(zp_module_to_obj(module))) == module


@PROPERTY
@given(primes.flatmap(lambda p: st.tuples(cyclotomic(p), cyclotomic(p), cyclotomic(p))))
def test_field_axioms(abc):
    a, b, c = abc
    one = CyclotomicField(a.p).one()
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == one


# -- exact keys ---------------------------------------------------------------

# floor(x * 2^64), the integer part of `_order_key`, is equal for these two
CLOSE = [Fraction(1, 3) + Fraction(1, 2 ** 70), Fraction(1, 3)]


@st.composite
def exact_values(draw):
    """Small and ~600-bit-denominator values, negative ones, equal ones, ones
    that share a numerator or a denominator, and neighbours closer than
    2^-64, so that the key's integer part ties."""
    small = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    shared = st.builds(Fraction, st.sampled_from((-1, 1)), st.integers(1, 5))
    huge = st.builds(Fraction, st.integers(-2 ** 620, 2 ** 620), st.integers(1, 2 ** 600))
    values = draw(st.lists(st.one_of(small, shared, huge), min_size=1, max_size=6))
    for x in list(values):
        if draw(st.booleans()):
            values.append(x + Fraction(draw(st.integers(-3, 3)),
                                        2 ** 65 * draw(st.integers(1, 2 ** 40))))
    return draw(st.permutations(values))


@PROPERTY
@given(exact_values())
@example(CLOSE)
def test_order_key_sorts_like_sorted(values):
    assert sorted(values, key=_order_key) == sorted(values)


def test_order_key_breaks_a_tie_of_its_integer_part():
    (hi, hi_x), (lo, lo_x) = map(_order_key, CLOSE)
    assert hi == lo and lo_x < hi_x
    assert sorted(CLOSE, key=_order_key) == CLOSE[::-1]


@st.composite
def bar_items(draw):
    """(bar, multiplicity, degree) entries over few values, so that equal
    bars in one degree merge and equal bars in different degrees stay apart;
    an equal value comes as the same object or as a copy."""
    values = draw(exact_values())
    items = []
    for _ in range(draw(st.integers(0, 16))):
        a, b = sorted(draw(st.sampled_from(values)) for _ in range(2))
        if draw(st.booleans()):
            a = Fraction(a.numerator, a.denominator)
        death = INF if a == b or draw(st.booleans()) else b
        items.append((Bar(a, death), draw(st.integers(1, 3)),
                      draw(st.sampled_from((None, 0, 1, 2)))))
    return items


SHARED = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5))  # a numerator or a denominator shared


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(bar_items())
@example([(Bar(a, d), 1, None) for a in SHARED for d in (INF, Fraction(3))])
@example([(Bar(0, d), 2, g) for d in SHARED for g in (None, 0)])
def test_barcode_canonical_form_is_the_fraction_one(items):
    assert Barcode(tuple(items)).items == canonical_items_oracle(items)


@PROPERTY
@given(exact_values(), st.sampled_from((2, 3, 5)), st.randoms(use_true_random=False))
def test_model_input_order_and_duplicates(values, p, rnd):
    tuples = tuple((a, rnd.randint(0, 2)) for a in values)
    expected = model_input_oracle(tuples)
    if expected is None:
        with pytest.raises(ValueError, match="^tuple actions must be pairwise distinct$"):
            ModelInput(p, tuples)
    else:
        assert ModelInput(p, tuples).tuples == expected
