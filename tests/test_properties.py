"""Property tests: the JSON codecs round-trip field elements, matrices and
Z_p modules, a formatted rational needs no JSON escaping and reads the same
from its integers as from its Fraction, Q(zeta_p) is a field, the fused
update x - f*a of Q and of Q(zeta_p) is the two-step one, `parse_frac` is
`Fraction` of its text, the integer keys order and merge exact values and
the filtration and check a complex's actions as Fractions do, the integer bottleneck
candidates are the Fraction ones, the complex constructors' sparse checks
agree with the dense oracle, a kernel basis is the identity at its free
columns, the column reduction that carries V leaves its lows and R = DV
with V upper unitriangular, the Z_p module's parts, V/Fix and checks agree with the solve and
dense oracles, every Q value the eliminations, the normal form, the
barcode, the spread and the `egb spread` parse make is an int iff it is
integral and never a float, the integer spread candidates give the grid
oracle's mu, and
the bounds report's family, stabilization, graded spread, witness and
multiplicity equal their Fraction and sorting-constructor oracles, and the
degree-gap bound of `egb spread` is the pairwise one.
Derandomized, so every run draws the same examples."""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import event, example, given, settings, strategies as st

from egb import field as field_module, persistence
from egb.equivariant import (
    EquivariantComplex,
    ZpPersistenceModule,
    full_power_verdict,
    kunneth_stabilize,
    mu_from_barcode,
    mu_p_of_family,
    quotient_fix_module,
    spread_lower_bound_from_gaps,
    w_spread,
)
from egb.bottleneck import _costs, bottleneck
from egb.field import (
    CyclotomicField, CyclotomicNumber, Matrix, QQ_FIELD, RationalField, cyclo_from_rational,
    cyclo_zeta,
)
from egb.model import ModelInput, bounds_report, paper_mu_lower_bound
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _multiplicity,
    _order_key,
    barcode_of_complex,
    barcode_of_module,
    les_check,
    multiplicity,
)
from egb.serialize import (
    _ratio_str,
    complex_from_obj,
    complex_to_obj,
    element_from_obj,
    element_to_obj,
    equivariant_from_obj,
    frac_str,
    matrix_from_obj,
    matrix_to_obj,
    parse_frac,
    zp_module_from_obj,
)

from conftest import (
    bars_by_degree,
    barcode_of_module_oracle,
    bottleneck_oracle,
    canonical_items_oracle,
    complex_checks_oracle,
    costs_oracle,
    dense_matrix,
    det_oracle,
    echelon_oracle,
    eigenspace_family_oracle,
    eigenspace_module_oracle,
    element_type,
    extend_basis_oracle,
    fix_vectors,
    gap_cuts,
    kernel_oracle,
    full_power_verdict_oracle,
    induced_module_oracle,
    kunneth_stabilize_oracle,
    les_check_oracle,
    model_input_oracle,
    mu_from_barcode_oracle,
    mu_p_of_family_oracle,
    multiplicity_oracle,
    paper_mu_lower_bound_oracle,
    part_modules,
    quotient_fix_oracle,
    random_equivariant_complex,
    random_filtered_complex,
    random_zp_module,
    rank_oracle,
    scan_w_spread,
    shift_diagonal,
    solve_matrix_oracle,
    sparse_oracle,
    spread_lower_bound_from_gaps_oracle,
    symmetric_rips_complex,
    window_homology,
    window_homology_oracle,
    zp_module_checks_oracle,
    zp_module_to_obj,
)

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


@st.composite
def sub_mul_operands(draw):
    """A field, Q or Q(zeta_p) with p = 2, 3 or 5, and (x, f, a) in it, each
    0, 1, -1, a rational or, over Q, a ~600-bit-denominator rational or a
    ~600-bit integer and over Q(zeta_p) a general element, so that
    denominators differ or agree and all three may be integers."""
    p = draw(st.sampled_from((None, 2, 3, 5)))
    units = st.sampled_from((0, 1, -1)).map(Fraction)
    if p is None:
        huge = st.builds(Fraction, st.integers(-2 ** 620, 2 ** 620), st.integers(1, 2 ** 600))
        integral = st.builds(Fraction, st.integers(-2 ** 620, 2 ** 620))
        element = st.one_of(units, rationals, huge, integral).map(QQ_FIELD.coerce)
        return QQ_FIELD, (draw(element), draw(element), draw(element))
    element = st.one_of(units.map(lambda q: cyclo_from_rational(p, q)),
                        rationals.map(lambda q: cyclo_from_rational(p, q)),
                        cyclotomic(p))
    return CyclotomicField(p), (draw(element), draw(element), draw(element))


def _q(*values):
    return QQ_FIELD, tuple(QQ_FIELD.coerce(Fraction(v)) for v in values)


def _cys(p, *elements):
    return CyclotomicField(p), tuple(CyclotomicNumber(p, [Fraction(c) for c in coords])
                                     for coords in elements)


BIG = Fraction(3 ** 380 + 1, 2 ** 600 + 3)  # a ~600-bit denominator


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sub_mul_operands())
@example(_cys(3, (1, 2), ("1/2", 0), (3, "1/5")))  # f rational, unequal denominators
@example(_cys(3, ("1/6", 1), ("1/2", 1), (0, "1/3")))  # x.den == f.den * a.den
@example(_cys(5, (1, 0, 2, 0), (0, 0, 0, 0), (1, 2, 3, 4)))  # f = 0
@example(_cys(5, ("1/3", 0, 0, 1), (-1, 0, 0, 0), ("2/7", 1, 0, 3)))  # f = -1
@example(_cys(2, ("3/4",), ("2/3",), ("5/6",)))  # Q(zeta_2) = Q
@example(_q(0, "2/3", "5/7"))  # x = 0
@example(_q("1/4", 1, "3/10"))  # f = 1, denominators sharing a factor
@example(_q("1/4", -1, "3/10"))  # f = -1: x + a
@example(_q("5/6", "7/15", "9/14"))  # unequal denominators, the result reduces
@example(_q(BIG, "1/3", BIG))  # ~600-bit denominators
@example(_q(BIG, 1, BIG))  # cancels to 0
@example(_q(7, -3, 5))  # all integers: the update builds no gcd
@example(_q(2 ** 600 + 1, -(3 ** 380), 2 ** 599))  # ~600-bit integers
@example(_q(7, -3, "5/2"))  # one denominator that is not 1, in each place
@example(_q(7, "-3/2", 5))
@example(_q("7/2", -3, 5))
@example(_q(6, 3, 2))  # integers that cancel to 0
def test_fused_update_is_x_minus_f_times_a(case):
    """The field's one-normalization update equals and hashes like x - f*a,
    and has the element type of its value: over Q an int iff it is integral,
    else a Fraction."""
    field, (x, f, a) = case
    got, want = field.sub_mul(x, f, a), x - f * a
    assert type(got) is element_type(want)
    assert (got, hash(got)) == (want, hash(want))


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


def _filtration_oracle(gens) -> list[int]:
    """The filtration order sorted on the Fractions: by (action, index)."""
    return sorted(range(len(gens)), key=lambda k: (gens[k][0], k))


@PROPERTY
@given(exact_values(), st.lists(st.integers(0, 2), min_size=12, max_size=12))
@example(CLOSE, [0, 0])
@example([Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), CLOSE[0], CLOSE[1]], [1, 0, 0, 1, 0])
def test_filtration_order_is_the_fraction_one(values, degrees):
    """The filtration sorts on `_order_key` as the Fractions sort, tied
    actions by index; the complex has zero boundary."""
    gens = tuple(zip(values, degrees))
    n = len(gens)
    cx = FilteredComplex(QQ_FIELD, gens, Matrix.zeros(QQ_FIELD, n, n))
    order = persistence._filtration(cx.generators, cx.boundary.columns)[0]
    assert order == _filtration_oracle(gens)


def test_complex_check_compares_actions_closer_than_the_key_step():
    """The "decreases action" check reads the integer keys of `_order_key`
    and their Fraction tie-break: actions 2^-70 apart, one key step, pass
    in one order and fail in the other, and equal actions fail."""
    hi, lo = CLOSE
    d = Matrix.from_rows(QQ_FIELD, [[0, 1], [0, 0]])
    cx = FilteredComplex(QQ_FIELD, ((lo, 0), (hi, 1)), d)
    assert cx.generators[0][0] is lo  # a Fraction action is kept, not re-wrapped
    assert persistence._filtration(cx.generators, cx.boundary.columns)[0] == [0, 1]
    for gens in (((hi, 0), (lo, 1)), ((lo, 0), (Fraction(lo.numerator, lo.denominator), 1))):
        with pytest.raises(ValueError, match="does not decrease action"):
            FilteredComplex(QQ_FIELD, gens, d)


# The text table of `parse_frac`: spellings that only `Fraction` reads (or
# refuses), by Python version; "1_0" is read from 3.11 on and "3 / 4" from
# 3.12 on, so each is compared with `Fraction` on the running interpreter.
RATIONAL_TEXTS = ["1_0", " 3 ", "+3", "\u0663", "3/\u0664", "1e3", "1.5", "-0", "0/007", "1/0",
                  "4/2", "3 / 4", "3/-4", "3/+4", "--3", "-", "3/", "/3", "3/4/5", "", "-12/18",
                  "007", "-0/5", "0/0", "1" * 5000, "-" + "7" * 5000 + "/3", "2/" + "9" * 5000,
                  "\u00b2", "3/\u00b2"]


def assert_parses_as_fraction(text):
    """`parse_frac(text)` is `Fraction(text)`, in lowest terms, as an element
    of Q: an int iff it is integral, else a Fraction; or, where `Fraction`
    refuses the text, the `bad rational` error."""
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as error:
            parse_frac(text)
        assert str(error.value) == f"bad rational {text!r}"
        return
    got = parse_frac(text)
    assert got == want and type(got) is element_type(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("text", RATIONAL_TEXTS,
                         ids=lambda t: repr(t) if len(t) < 20 else f"{len(t)}-chars")
def test_parse_frac_table_is_fraction_of_the_text(text):
    assert_parses_as_fraction(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
                 st.text(alphabet="0123456789-+/ _.eE\u0663\u00b2", max_size=10)))
def test_parse_frac_is_fraction_of_the_text(text):
    """Digits, signs, slashes, blanks, underscores, exponents and non-ASCII
    digits in any order, and the ASCII form that is read with `int`."""
    assert_parses_as_fraction(text)


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


@st.composite
def ray_matched_items(draw):
    """Two `bar_items` lists, the second's rays replaced by rays of the
    first's multiplicities and degrees, born at `exact_values`, so that the
    ray counts agree in each degree, as `ray_pairs` draws them, and the
    distance is finite."""
    items_b, items_c, births = draw(bar_items()), draw(bar_items()), draw(exact_values())
    rays = [(Bar(draw(st.sampled_from(births)), INF), m, d)
            for bar, m, d in items_b if not bar.finite]
    return items_b, [e for e in items_c if e[0].finite] + rays


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(st.tuples(bar_items(), bar_items()), ray_matched_items()))
@example(([(Bar(0, 4), 1, None)], []))
@example(([(Bar(Fraction(1, 3), INF), 2, 0)], [(Bar(Fraction(1, 2), INF), 2, 0)]))
def test_integer_costs_give_the_fraction_ones(items):
    """Over the denominator that `_costs` returns, its integer pair costs
    and half-lengths of the finite bars are the oracle's Fractions, and the
    distance is the oracle's, on small and ~600-bit values, rays and
    multiplicities."""
    items_b, items_c = items
    b, c = Barcode(tuple(items_b)), Barcode(tuple(items_c))
    for bars_b, bars_c in bars_by_degree(b, c):
        finite_b, finite_c = ([x for x in bars if x.finite] for bars in (bars_b, bars_c))
        den, costs, *halves = _costs(*([(x.birth, x.death) for x in bars]
                                       for bars in (finite_b, finite_c)))
        _, want_costs, *want_halves = costs_oracle(finite_b, finite_c)
        assert [[Fraction(v, den) for v in row] for row in costs] == want_costs
        assert [[Fraction(v, den) for v in half] for half in halves] == want_halves
    got, want = bottleneck(b, c), bottleneck_oracle(b, c)
    assert (got, type(got)) == (want, type(want))


@st.composite
def ray_pairs(draw):
    """Two barcodes of rays only, over `exact_values` births, in degrees
    None, 0 and 1 with multiplicities up to 3; the second has the first's
    count in each degree unless the draw says otherwise."""
    values = draw(exact_values())

    def rays(degrees):
        return Barcode.of((Bar(draw(st.sampled_from(values)), INF), m, d) for m, d in degrees)

    degree_lists = st.lists(st.tuples(st.integers(1, 3), st.sampled_from((None, 0, 1))),
                            max_size=8)
    degrees = draw(degree_lists)
    return rays(degrees), rays(degrees if draw(st.booleans()) else draw(degree_lists))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(ray_pairs())
@example((Barcode.of([(Bar(0, INF), 2, 0), (Bar(10, INF), 1, 1)]),
          Barcode.of([(Bar(1, INF), 1, 0), (Bar(1, INF), 1, 0), (Bar(11, INF), 1, 1)])))
def test_rays_match_rays_by_sorting(pair):
    """On rays alone the distance is the oracle's, the largest birth
    difference of the sorted births in some degree, +inf iff a degree's ray
    counts differ."""
    b, c = pair
    got, want = bottleneck(b, c), bottleneck_oracle(b, c)
    assert (got, type(got)) == (want, type(want))
    births = [[sorted(x.birth for x in bars) for bars in pair] for pair in bars_by_degree(b, c)]
    if any(len(xs) != len(ys) for xs, ys in births):
        assert got == INF
    else:
        assert got == max((abs(x - y) for xs, ys in births for x, y in zip(xs, ys)),
                          default=Fraction(0))


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


@st.composite
def graded_generators(draw):
    """(action, degree) generators whose actions come from `exact_values`,
    so that they tie within a degree and across degrees, in one degree only,
    in adjacent degrees, or in degrees 2 apart."""
    values = draw(exact_values())
    degrees = draw(st.sampled_from(((0,), (0, 1), (0, 2), (-1, 0, 1), (0, 2, 3))))
    return draw(st.lists(st.tuples(st.sampled_from(values), st.sampled_from(degrees)),
                         max_size=12))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(graded_generators())
@example([(BIG, 0), (BIG, 1), (-BIG, 2)])  # a shared ~600-bit action
@example([(BIG, 0), (BIG, 2), (Fraction(-1, 3), 0)])  # degrees 2 apart only
def test_gap_bound_equals_the_pairwise_oracle(generators):
    got = spread_lower_bound_from_gaps(generators)
    want = spread_lower_bound_from_gaps_oracle(generators)
    assert (got, type(got)) == (want, type(want))


# -- the complex checks ---------------------------------------------------------

CORRUPTIONS = (None, "degree", "action", "square", "order", "commute", "mix")


@st.composite
def corrupted_complexes(draw, kind):
    """A random equivariant complex over Q (p = 2, 3) or Q(zeta_3) (p = 3)
    with one corruption of the given kind, or none when the kind is None:
    a boundary entry that does not drop the degree ("degree"); an added
    generator whose boundary does not lower the action ("action") or is a
    generator with nonzero boundary ("square"); 2T, or the complex checked at another prime
    when T != id ("order"); T conjugated by an elementary matrix on one
    (action, degree) class, which need not commute with D, or an added
    p-cycle of which an added fixed generator kills one generator
    ("commute"); p added generators of distinct (action, degree) that T
    cycles ("mix").  Returns (field, generators, D, p, T)."""
    field = draw(st.sampled_from((QQ_FIELD, CyclotomicField(3))))
    p = 3 if field != QQ_FIELD else draw(st.sampled_from((2, 3)))
    eq = random_equivariant_complex(random.Random(draw(st.integers(0, 2 ** 32))), p, field)
    gens = list(eq.complex.generators)
    d = [list(row) for row in eq.complex.boundary.entries]
    t = [list(row) for row in eq.chain_map.entries]
    n, z, one = len(gens), field.zero(), field.one()
    value = field.coerce(draw(st.sampled_from((1, -2, Fraction(1, 3)))))
    if field != QQ_FIELD and draw(st.booleans()):
        value = value * cyclo_zeta(3, 1)
    act, deg = Fraction(draw(st.integers(-3, 3))), draw(st.integers(0, 1))

    def grow(new_gens):  # zero rows and columns in D and T for the new generators
        k = len(new_gens)
        for m in (d, t):
            m[:] = [row + [z] * k for row in m] + [[z] * (n + k) for _ in range(k)]
        gens.extend(new_gens)

    def cycle(start):  # T cycles the p generators from `start` on
        for k in range(p):
            t[start + (k + 1) % p][start + k] = one

    classes = [(a, b) for a in range(n) for b in range(n) if a != b and gens[a] == gens[b]]
    if kind == "degree":
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n)
                                     if gens[i][1] != gens[j][1] - 1]))
        d[i][j] = value  # zero in the valid D
    elif kind in ("action", "square"):
        # the new generator's boundary is generator i: D e_n = value e_i
        pool = [i for i in range(n) if kind == "action" or any(row[i] for row in d)]
        if not pool:  # a fixed killing pair gives a generator with nonzero boundary
            grow([(act, deg), (act + 1, deg + 1)])
            d[n][n + 1] = t[n][n] = t[n + 1][n + 1] = one
            pool, n = [n + 1], n + 2
        i = draw(st.sampled_from(pool))
        lift = -draw(st.integers(0, 2)) if kind == "action" else 1
        grow([(gens[i][0] + lift, gens[i][1] + 1)])
        d[i][n], t[n][n] = value, one
    elif kind == "order":
        if eq.chain_map == Matrix.identity(field, n) or draw(st.booleans()):
            t = [[2 * x for x in row] for row in t]
        else:  # T^q = id for primes q != p only if T = id
            p = 5 if p == 3 else 3
    elif kind == "commute" and classes and draw(st.booleans()):
        a, b = draw(st.sampled_from(classes))
        m = Matrix.from_rows(field, [[value if (r, c) == (a, b) else one if r == c else z
                                      for c in range(n)] for r in range(n)])
        t = [list(row) for row in (m @ Matrix.from_rows(field, t) @ m.inverse()).entries]
    elif kind == "commute":  # D e_{n+p} = e_n, but T e_n = e_{n+1} while T e_{n+p} = e_{n+p}
        grow([(act, deg)] * p + [(act + 1, deg + 1)])
        cycle(n)
        d[n][n + p], t[n + p][n + p] = value, one
    elif kind == "mix":
        grow([(act + k, deg) if draw(st.booleans()) else (act, deg + k) for k in range(p)])
        cycle(n)
    # relabel the generators, so that a corrupted column can come first
    perm = draw(st.permutations(range(len(gens))))
    d, t = ([[m[a][b] for b in perm] for a in perm] for m in (d, t))
    gens = tuple(gens[k] for k in perm)
    return (field, gens, Matrix.from_rows(field, d), p, Matrix.from_rows(field, t))


# the message each corruption must give; a conjugated T may still commute
EXPECTED = {None: (None,), "degree": ("does not drop degree by 1",),
            "action": ("does not decrease action",),
            "square": ("boundary squared is nonzero",),
            "order": ("chain map does not satisfy T^p = id",),
            "commute": (None, "chain map does not commute with the boundary"),
            "mix": ("chain map must preserve action and degree",)}


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(data=st.data())
def test_complex_checks_equal_the_dense_oracle(kind, data):
    """`FilteredComplex` and `EquivariantComplex` refuse exactly the inputs the
    dense oracle refuses, with its first message, and an accepted complex
    keeps the nonzero entries of D and T as its columns, also after a JSON
    round trip."""
    field, gens, boundary, p, chain_map = data.draw(corrupted_complexes(kind))
    if field == QQ_FIELD:
        event(pivot_class(boundary))
    expected = complex_checks_oracle(field, gens, boundary, p, chain_map)
    assert expected is None and None in EXPECTED[kind] or any(
        expected is not None and expected.endswith(m) for m in EXPECTED[kind] if m)
    got = None
    try:
        cx = FilteredComplex(field, gens, boundary)
        assert cx.boundary.columns == sparse_oracle(boundary)
        assert complex_from_obj(through_json(complex_to_obj(cx))).boundary.columns \
            == cx.boundary.columns
        eq = EquivariantComplex(p, cx, chain_map)
        assert eq.chain_map.columns == sparse_oracle(chain_map)
    except ValueError as e:
        got = str(e)
    assert got == expected


@st.composite
def rank_deficient_matrices(draw):
    """Small matrices over Q or Q(zeta_3) whose entries come from a few
    values, so that columns often depend on the ones before them."""
    if draw(st.booleans()):
        field, values = QQ_FIELD, [Fraction(v) for v in (0, 0, 1, -1, 2, Fraction(1, 2))]
    else:
        field = CyclotomicField(3)
        z = cyclo_zeta(3, 1)
        values = [field.zero(), field.zero(), field.one(), -field.one(), z, z * z, z + 1]
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    entries = draw(st.lists(st.lists(st.sampled_from(values), min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return dense_matrix(field, rows, cols, entries)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rank_deficient_matrices())
def test_kernel_basis_is_the_identity_at_its_free_columns(m):
    """Each kernel vector has its last nonzero entry at its own free column,
    is 1 there and 0 at every other free column; the free columns are the
    non-pivot columns of the echelon form, in ascending order."""
    basis = m.kernel_basis()
    free = [max(j for j, x in enumerate(v) if x) for v in basis]
    assert free == [c for c in range(m.cols) if c not in echelon_oracle(m)[1]]
    one, zero = m.field.one(), m.field.zero()
    for j, v in enumerate(basis):
        assert [v[f] for f in free] == [one if k == j else zero for k in range(len(free))]
        assert not any(m.apply(v))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rank_deficient_matrices())
def test_reduction_carries_v_in_its_loop(m):
    """Given the unit columns as ``basis``, the column reduction leaves the
    lows it leaves without one, in the same order, each reduced column R_j
    is D V_j for D the columns as given, and V is upper unitriangular."""
    field, one = m.field, m.field.one()
    R, V = [dict(col) for col in m.columns], [{j: one} for j in range(m.cols)]
    lows = field_module._reduce_columns(field, R, V)
    plain = field_module._reduce_columns(field, [dict(col) for col in m.columns])
    assert list(lows.items()) == list(plain.items())
    assert all(r == field_module._apply(field, m.columns, v) for r, v in zip(R, V))
    assert all(max(v) == j and v[j] == one for j, v in enumerate(V))


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 2 ** 32))
def test_parts_and_quotient_equal_the_solve_oracle(p, seed):
    """The stored isotypic parts and V/Fix, read off the kernels' free
    columns, equal the modules the solve oracle induces, entry for entry:
    the parts in the kernel bases, V/Fix in the standard vectors that extend
    Fix(A) to a basis."""
    m = random_zp_module(random.Random(seed), p, max_blocks=3)
    for k, part in enumerate(part_modules(m), 1):
        assert part == eigenspace_module_oracle(m, cyclo_zeta(p, k))
    field = m.field
    units = [list(Matrix.identity(field, n).entries) for n in m.base.dims]
    fix = fix_vectors(m)
    complements = [extend_basis_oracle(field, list(w), e, len(e)) for w, e in zip(fix, units)]
    oracle = induced_module_oracle(m, fix, complements)
    assert quotient_fix_module(m) == oracle


@st.composite
def elimination_cases(draw):
    """A matrix over Q (in half the draws), Q(zeta_3) or Q(zeta_5) of 0-5
    rows and columns with entries from a few values, so that it is often
    rank-deficient, and a right-hand side of 0-3 columns that is its image
    of another matrix (consistent) or drawn freely (often inconsistent)."""
    p = draw(st.sampled_from((None, 3, 5, None)))
    if p is None:
        field = QQ_FIELD
        fractions = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7))
        values = [Fraction(v) for v in draw(st.sampled_from(
            (fractions, fractions, (0, 0, 1, -1), (0, 0, 1, -1), (0, 1, 2, -3), (0, 2, -3),
             (0, 0, 2, -3), (0, Fraction(1, 2), Fraction(-3, 7)))))]
    else:
        field, z = CyclotomicField(p), cyclo_zeta(p, 1)
        values = [field.zero()] * 3 + [field.one(), -field.one(), z, z * z + Fraction(1, 3),
                                       z - 2, field.coerce(Fraction(1, 2))]

    def matrix(rows, cols):
        return dense_matrix(field, rows, cols, [[draw(st.sampled_from(values)) for _ in range(cols)]
                                                for _ in range(rows)])

    rows, cols, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 3))
    m = matrix(rows, cols)
    rhs = m @ matrix(cols, k) if draw(st.booleans()) else matrix(rows, k)
    return m, rhs


def same_entries(a, b) -> bool:
    """Equal, and each entry of ``a`` of the element type of the value in
    ``b``: over Q an int iff it is integral, else a Fraction."""
    return a == b and [type(x) for x in a] == [element_type(x) for x in b]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(elimination_cases())
@example((Matrix.zeros(QQ_FIELD, 0, 0), Matrix.zeros(QQ_FIELD, 0, 2)))
@example((Matrix.zeros(QQ_FIELD, 3, 0), Matrix.identity(QQ_FIELD, 3)))
def test_matrix_eliminations_equal_the_echelon_oracle(case):
    """rank, det, kernel_basis, solve, solve_matrix and inverse, read off
    the sparse column reduction, equal the dense echelon and its back
    substitution entry for entry; the singular and non-square messages stay."""
    m, rhs = case
    field = m.field
    if field == QQ_FIELD:
        event(pivot_class(m))
    assert m.rank() == rank_oracle(m)
    basis, oracle_basis = m.kernel_basis(), kernel_oracle(m)
    assert len(basis) == len(oracle_basis)
    assert all(same_entries(v, w) for v, w in zip(basis, oracle_basis))
    x, oracle_x = m.solve_matrix(rhs), solve_matrix_oracle(m, rhs)
    assert (x is None) == (oracle_x is None)
    if x is not None:
        assert (x.rows, x.cols) == (m.cols, rhs.cols)
        assert all(same_entries(r, s) for r, s in zip(x.entries, oracle_x.entries))
    for j in range(rhs.cols):
        column = solve_matrix_oracle(m, dense_matrix(field, rhs.rows, 1,
                                                     [(x,) for x in rhs.column(j)]))
        solved = m.solve(rhs.column(j))
        assert (solved is None) == (column is None)
        assert solved is None or same_entries(solved, column.column(0))
    if m.rows != m.cols:
        for method, message in ((m.det, "determinant of non-square matrix"),
                                (m.inverse, "inverse of non-square matrix")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                method()
        return
    det = m.det()
    assert same_entries((det,), (det_oracle(m),))
    inverse = solve_matrix_oracle(m, Matrix.identity(field, m.rows))
    if inverse is None:
        assert not det
        with pytest.raises(ValueError, match="^matrix is singular$"):
            m.inverse()
    else:
        assert all(same_entries(r, s) for r, s in zip(m.inverse().entries, inverse.entries))
        assert m.inverse() == inverse


# -- integral rationals stay ints -----------------------------------------------

PIVOT_CLASSES = ("unit pivots only", "non-unit integer pivot", "Fraction entries")

# the factors that put an integer input with pivots +-1 in each class: +-1
# keeps its pivots, an integer other than +-1, small or ~600-bit, makes every
# pivot non-unit, and a Fraction makes the entries Fractions
SCALES = dict(zip(PIVOT_CLASSES, ((1, -1), (2, -3, 3 ** 380 + 1, -(2 ** 600 + 1)),
                                  (Fraction(3, 7), Fraction(-5, 11)))))


def pivot_class(m: Matrix) -> str:
    """The class of a Q matrix: "zero" when it has no nonzero entry, so
    no pivot; "Fraction entries" when an entry is not an int, else
    "non-unit integer pivot" when its column reduction meets a pivot other
    than +-1, so that Fractions appear mid-reduction, else "unit pivots
    only"."""
    if m.is_zero():
        return "zero"
    if any(type(x) is not int for col in m.columns for x in col.values()):
        return "Fraction entries"
    cols = [dict(col) for col in m.columns]
    lows = field_module._reduce_columns(QQ_FIELD, cols)
    if any(cols[j][low] not in (1, -1) for low, j in lows.items()):
        return "non-unit integer pivot"
    return "unit pivots only"


def assert_q_element(x):
    """x is a rational as the library keeps it: an int iff it is integral,
    else a Fraction, and never a float, which `is_inf` would read as a
    candidate +inf."""
    assert type(x) in (int, Fraction) and type(x) is element_type(x), (type(x), x)


def assert_q_columns(columns):
    for col in columns:
        for x in col.values():
            assert_q_element(x)


@contextmanager
def q_arithmetic_checked():
    """Inside it, every update x - f*a and every inverse over Q checks its
    operands and its result.  The factor f of a reduction step is the
    product of an entry and a pivot inverse, so it may be an integral
    Fraction; it must still be exact."""
    sub_mul, inverse = RationalField.sub_mul, RationalField.inverse

    def checked_sub_mul(x, f, a):
        assert type(f) in (int, Fraction), (type(f), f)
        assert_q_element(x)
        assert_q_element(a)
        out = sub_mul(x, f, a)
        assert_q_element(out)
        return out

    def checked_inverse(x):
        assert_q_element(x)
        out = inverse(x)
        assert_q_element(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalField, "sub_mul", staticmethod(checked_sub_mul))
        patch.setattr(RationalField, "inverse", staticmethod(checked_inverse))
        yield


@st.composite
def q_matrix_cases(draw):
    """A Q matrix of each class of `SCALES`, an integer matrix to multiply it by
    and a right-hand side.  The matrix is the kind's factor times an integer
    matrix of 1-5 rows and columns whose columns are unit columns e_r with
    small integer entries above r, for distinct r in a random order, the
    first among them, and integer combinations of earlier columns: its
    column reduction meets only the pivots 1, each dependent column reducing
    to zero.  The right-hand side
    is its image of an integer matrix or a random integer matrix."""
    unit, non_unit, fraction = PIVOT_CLASSES
    kind = draw(st.sampled_from((unit, non_unit, fraction, non_unit, fraction, unit)))
    c, small = draw(st.sampled_from(SCALES[kind])), st.integers(-2, 2)
    rows = draw(st.integers(1, 5))
    order, columns = list(draw(st.permutations(range(rows)))), []
    for _ in range(draw(st.integers(1, 5))):
        if order and (not columns or draw(st.booleans())):
            r = order.pop()
            col = {r: 1, **{i: v for i in range(r) if (v := draw(small))}}
        else:
            col = {}
            for k in draw(st.lists(st.integers(0, len(columns) - 1), max_size=3)):
                a = draw(small)
                for i, v in columns[k].items():
                    col[i] = col.get(i, 0) + a * v
        columns.append(col)
    m = dense_matrix(QQ_FIELD, rows, len(columns),
                     [[c * col.get(i, 0) for col in columns] for i in range(rows)])

    def integers(rows, cols):
        return dense_matrix(QQ_FIELD, rows, cols,
                            [[draw(small) for _ in range(cols)] for _ in range(rows)])

    k = draw(st.integers(0, 3))
    rhs = m @ integers(m.cols, k) if draw(st.booleans()) else integers(rows, k)
    return m, integers(m.cols, draw(st.integers(0, 3))), rhs


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(q_matrix_cases())
def test_q_eliminations_keep_integral_entries_ints(case):
    """Over Q every entry a product, a reduction with and without V, a
    kernel, a solve, an inverse or a determinant makes, and every operand of
    their updates, is an int iff it is integral, else a Fraction."""
    m, x, rhs = case
    event(pivot_class(m))
    with q_arithmetic_checked():
        assert_q_columns(m.columns + x.columns + rhs.columns)
        assert_q_columns((m @ x).columns)
        for basis in (None, [{j: 1} for j in range(m.cols)]):
            cols = [dict(col) for col in m.columns]
            field_module._reduce_columns(QQ_FIELD, cols, basis)
            assert_q_columns(cols + (basis or []))
        for v in m.kernel_basis():
            assert_q_columns([dict(enumerate(v))])
        if (solved := m.solve_matrix(rhs)) is not None:
            assert_q_columns(solved.columns)
        for j in range(rhs.cols):
            if (column := m.solve(rhs.column(j))) is not None:
                assert_q_columns([dict(enumerate(column))])
        if m.rows == m.cols:
            assert_q_element(m.det())
            if m.det():
                assert_q_columns(m.inverse().columns)


@st.composite
def q_complex_cases(draw):
    """A random equivariant complex over Q at p = 2 or 3 with a nonzero
    boundary, and the complex with its boundary times a factor of a class
    of `SCALES`, which the same chain map commutes with and which has the
    same lows.  The unit factors are drawn most often, since the random
    boundary itself meets a non-unit pivot in about 2 of 5 draws."""
    unit, non_unit, fraction = PIVOT_CLASSES
    kind = draw(st.sampled_from((unit, unit, non_unit, fraction, fraction, unit)))
    c = draw(st.sampled_from(SCALES[kind]))
    p, rng = draw(st.sampled_from((2, 3))), random.Random(draw(st.integers(0, 2 ** 32)))
    eq = random_equivariant_complex(rng, p)
    while eq.complex.boundary.is_zero():
        eq = random_equivariant_complex(rng, p)
    cx = eq.complex
    scaled = FilteredComplex(QQ_FIELD, cx.generators, cx.boundary.scale(c))
    return eq, EquivariantComplex(p, scaled, eq.chain_map)


def complex_pivot_class(cx: FilteredComplex) -> str:
    """`pivot_class` of the boundary in the filtration order, as
    `barcode_of_complex` reduces it."""
    n = len(cx.generators)
    columns = persistence._filtration(cx.generators, cx.boundary.columns)[2]
    return pivot_class(Matrix(QQ_FIELD, n, n, tuple(columns)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(q_complex_cases())
def test_q_complexes_keep_integral_entries_ints(case):
    """Over Q the parse of an `egb spread` input, the normal form, the
    barcode, the long exact sequence check and the spread keep every entry
    and every operand of their updates an int iff it is integral, else a
    Fraction; the scaled boundary gives the barcode, the checks and the
    spread of the complex it scales."""
    base, eq = case
    cx = eq.complex
    event(complex_pivot_class(cx))
    text = json.dumps({"p": eq.p, "complex": complex_to_obj(cx),
                       "chain_map": matrix_to_obj(eq.chain_map)})
    cuts = gap_cuts(cx)
    with q_arithmetic_checked():
        parsed = equivariant_from_obj(json.loads(text))
        assert_q_columns(parsed.complex.boundary.columns + parsed.chain_map.columns)
        assert parsed == eq
        nf = persistence._NormalForm(cx)
        assert_q_columns(nf.basis)
        barcode = barcode_of_complex(cx)
        les = [les_check(cx, *cuts[i:i + 3]) for i in range(len(cuts) - 2)]
        spread = w_spread(eq, eq.p)
    assert barcode == barcode_of_complex(base.complex)
    assert les == [les_check(base.complex, *cuts[i:i + 3]) for i in range(len(cuts) - 2)]
    assert (spread, type(spread)) == (w_spread(base, base.p), type(w_spread(base, base.p)))


@st.composite
def reader_cases(draw):
    """Over Q or Q(zeta_3): two n x n matrices and an n x k right-hand side
    with entries from a few values, so often singular, and a seed for a Z_3
    module, a filtered complex and an equivariant complex at p = 3."""
    field = draw(st.sampled_from((QQ_FIELD, CyclotomicField(3))))
    values = [field.zero(), field.zero(), field.one(), -field.one(), field.coerce(Fraction(1, 2))]
    if field != QQ_FIELD:
        values.append(cyclo_zeta(3, 1))
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 2))

    def matrix(rows, cols):
        return dense_matrix(field, rows, cols, [[draw(st.sampled_from(values)) for _ in range(cols)]
                                                for _ in range(rows)])

    return matrix(n, n), matrix(n, n), matrix(n, k), draw(st.integers(0, 2 ** 32))


def columns_of(*matrices) -> list:
    """Copies of the column dicts of each matrix."""
    return [[dict(col) for col in m.columns] for m in matrices]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(reader_cases())
def test_readers_never_change_a_matrix(case):
    """A `Matrix` holds its columns as dicts that matrices share, and the
    column reduction works in place: every reader, from the eliminations to
    the spread, leaves the columns of each matrix it reads as they were, and
    the Fix pairs a module stores, which V/Fix reduces against, too."""
    a, b, rhs, seed = case
    field, n, rng = a.field, a.rows, random.Random(seed)
    module = random_zp_module(rng, 3, max_blocks=2)
    cx = random_filtered_complex(rng, field)
    eq = random_equivariant_complex(rng, 3, field)
    plain = FinitePersistenceModule(field, (Fraction(0), Fraction(1)), (0, n, n),
                                    (Matrix.zeros(field, n, 0), a))
    cuts = gap_cuts(cx)
    readers = {
        "rank": a.rank, "det": a.det, "kernel_basis": a.kernel_basis,
        "solve": lambda: [a.solve(rhs.column(j)) for j in range(rhs.cols)],
        "solve_matrix": lambda: a.solve_matrix(rhs), "inverse": a.inverse,
        "@": lambda: a @ b, "+": lambda: a + b, "-": lambda: a - b,
        "matpow": lambda: a.matpow(3), "hstack": lambda: a.hstack(rhs),
        "barcode_of_module": lambda: (barcode_of_module(plain), barcode_of_module(module.base)),
        "ZpPersistenceModule": lambda: ZpPersistenceModule(3, module.base, module.action),
        "quotient_fix_module": lambda: quotient_fix_module(module),
        "barcode_of_complex": lambda: barcode_of_complex(cx),
        "les_check": lambda: [les_check(cx, *cuts[i:i + 3]) for i in range(len(cuts) - 2)],
        "w_spread": lambda: w_spread(eq, 3),
    }
    matrices = [a, b, rhs, *module.base.transitions, *module.action, cx.boundary,
                eq.complex.boundary, eq.chain_map]

    def stored():
        return columns_of(*matrices), [[(f, dict(v)) for f, v in fix] for fix in module.fixed]

    before = stored()
    for name, read in readers.items():
        try:
            read()
        except ValueError as e:
            assert (name, str(e)) == ("inverse", "matrix is singular")
        assert stored() == before, name


@pytest.mark.parametrize("seed", range(4))
def test_oracles_never_reach_the_column_reduction(monkeypatch, seed):
    """The elimination oracles of the module, window and les tests give the
    library's answers with `_reduce_columns` made to raise wherever it is
    bound: they run on the dense echelon alone."""
    rng = random.Random(seed)
    p = (2, 3, 5, 3)[seed]
    m = random_zp_module(rng, p, max_blocks=3)
    units = [list(Matrix.identity(m.field, n).entries) for n in m.base.dims]
    cx = random_filtered_complex(rng, QQ_FIELD if seed % 2 else CyclotomicField(3))
    cuts = gap_cuts(cx)
    degrees = sorted({d for _, d in cx.generators}) or [0]
    windows = [(a, b, r) for i, a in enumerate(cuts) for b in cuts[i + 1:]
               for r in range(degrees[0] - 1, degrees[-1] + 2)]
    triples = [(a, b, c) for i, a in enumerate(cuts) for j, b in enumerate(cuts[i + 1:], i + 1)
               for c in cuts[j + 1:]]
    expected = {
        "parts": part_modules(m),
        "fixed": fix_vectors(m),
        "barcode": barcode_of_module(m.base),
        "quotient": quotient_fix_module(m),
        "windows": [window_homology(cx, *w)[::2] for w in windows],
        "les": [les_check(cx, *t) for t in triples],
    }
    complements = [extend_basis_oracle(m.field, list(w), e, len(e))
                   for w, e in zip(fix_vectors(m), units)]

    def refuse(*args):
        raise AssertionError("an oracle reached the column reduction")

    for module in (field_module, persistence):
        monkeypatch.setattr(module, "_reduce_columns", refuse)
    with pytest.raises(AssertionError, match="column reduction"):
        Matrix.identity(m.field, 1).rank()
    assert [eigenspace_module_oracle(m, cyclo_zeta(p, k)) for k in range(1, p)] \
        == expected["parts"]
    assert [kernel_oracle(shift_diagonal(a, 1)) for a in m.action] == expected["fixed"]
    assert barcode_of_module_oracle(m.base) == expected["barcode"]
    assert quotient_fix_oracle(m) == expected["quotient"]
    assert induced_module_oracle(m, fix_vectors(m), complements) \
        == expected["quotient"]
    assert [window_homology_oracle(cx, *w)[::2] for w in windows] == expected["windows"]
    assert [les_check_oracle(cx, *t) for t in triples] == expected["les"]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 2 ** 32), st.data())
def test_corrupted_transitions_give_the_oracle_message(p, seed, data):
    """One or two transitions of a random module, each with one entry
    changed, are refused exactly when the dense oracle refuses them, with
    its message, which names the first corrupted transition that no longer
    commutes with the action."""
    m = random_zp_module(random.Random(seed), p, max_blocks=3)
    field, transitions = m.field, list(m.base.transitions)
    targets = [i for i, t in enumerate(transitions) if t.rows and t.cols]
    if not targets:
        return
    for i in data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True)):
        ent = [list(row) for row in transitions[i].entries]
        r, c = data.draw(st.integers(0, len(ent) - 1)), data.draw(st.integers(0, len(ent[0]) - 1))
        ent[r][c] = ent[r][c] + cyclo_zeta(p, data.draw(st.integers(0, p - 1)))
        transitions[i] = Matrix.from_rows(field, ent)
    base = FinitePersistenceModule(field, m.base.spectrum, m.base.dims, tuple(transitions))
    expected = zp_module_checks_oracle(p, base, m.action)
    try:
        ZpPersistenceModule(p, base, m.action)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(bar_items(), st.sampled_from((2, 3, 5)))
@example([(Bar(0, INF), 1, None), (Bar(6, INF), 1, None)], 2)
def test_spread_candidates_on_integers_give_the_grid_oracle(items, p):
    """mu, compared over the candidates' unreduced integer pairs and built
    as one Fraction (or +inf), and the full-power verdict equal the
    candidate-grid oracles on small and ~600-bit values."""
    bc = Barcode(tuple((bar, m, None) for bar, m, _ in items))
    got, want = mu_from_barcode(bc, p), mu_from_barcode_oracle(bc, p)
    assert (got, type(got)) == (want, type(want))
    assert full_power_verdict(bc, p) == full_power_verdict_oracle(bc, p)


@st.composite
def shared_end_barcodes(draw, p: int):
    """A barcode over a few ends, so that bars share a birth or a death:
    rays and multiplicities 1 to 4, every multiplicity times p in about half
    of the draws (a full p-th power); the empty barcode is an example."""
    ends = sorted(draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                                min_size=1, max_size=4, unique=True)))
    items = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(ends) - 1))
        death = draw(st.sampled_from([*ends[i + 1:], INF]))
        items.append((Bar(ends[i], death), draw(st.integers(1, 4)), None))
    return Barcode(tuple(items)).repeat(p if draw(st.booleans()) else 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(shared_end_barcodes(p), st.just(p))))
@example((Barcode.empty(), 2))
@example((Barcode.of([(Bar(0, INF), 2), (Bar(0, 3), 4), (Bar(1, 3), 2)]), 2))
@example((Barcode.of([(Bar(0, INF), 2), (Bar(0, 3), 3)]), 3))
def test_verdict_is_fail_iff_mu_is_positive(case):
    """Every spread candidate is positive, so the verdict that `egb barcode
    mu` reads off mu is the first-candidate verdict and the grid oracle's."""
    bc, p = case
    by_mu = "FAIL" if mu_from_barcode(bc, p) > 0 else "PASS"
    assert by_mu == full_power_verdict(bc, p) == full_power_verdict_oracle(bc, p)


# -- the bounds report on the order ModelInput sorted ---------------------------

EPS = st.one_of(st.sampled_from((Fraction(1, 10 ** 6), Fraction(999999, 10 ** 6),
                                 Fraction(1, 100), Fraction(1, 2))),
                st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)
                .filter(lambda e: 0 < e < 1))


@st.composite
def model_inputs(draw):
    """A `ModelInput` over small, close and ~600-bit actions of both signs, in
    one degree or in mixed degrees; one tuple included."""
    actions = list(dict.fromkeys(draw(exact_values())))
    top = draw(st.integers(0, 2))
    return ModelInput(draw(st.sampled_from((2, 3, 5))),
                      tuple((a, draw(st.integers(0, top))) for a in actions))


@st.composite
def families(draw):
    """Barcodes of `bar_items` grouped into degrees 0..3 in a drawn order of
    the degrees, some of them empty."""
    items = draw(bar_items())
    slot = {None: 0, 0: 1, 1: 2, 2: 3}
    return {r: Barcode(tuple(e for e in items if slot[e[2]] == r))
            for r in draw(st.permutations(range(4)))}


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, AssertionError) as e:
        return type(e), str(e)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(bar_items())
@example([(Bar(3, INF), 2, None), (Bar(3, 9), 1, 0), (Bar(0, 4), 1, None)])
def test_multiplicity_equals_the_full_scan(items):
    """Queries from every end, every midpoint of neighbouring ends and a point
    before and after all of them, to each later point and +inf: births shared
    by several bars, rays and finite bars."""
    bc = Barcode(tuple(items))
    ends = sorted({bar.birth for bar, _, _ in items}
                  | {bar.death for bar, _, _ in items if bar.finite} | {Fraction(0)})
    points = sorted({ends[0] - 1, ends[-1] + 1, *ends,
                     *((x + y) / 2 for x, y in zip(ends, ends[1:]))})
    for i, x in enumerate(points):
        for y in points[i + 1:] + [INF]:
            query = Bar(x, y)
            assert multiplicity(bc, query) == multiplicity_oracle(bc, query)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(bar_items(), st.integers(0, 4))
def test_repeat_is_the_sorted_one(items, n):
    bc = Barcode(tuple(items))
    assert bc.repeat(n) == Barcode(tuple((bar, m * n, d) for bar, m, d in bc.items if n))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(families(), model_inputs().map(eigenspace_family_oracle)),
       st.lists(st.integers(0, 3), max_size=3), st.sampled_from((2, 3, 5)))
def test_kunneth_and_graded_mu_equal_the_union_chain(family, tail, p):
    """Each target degree is one construction of the union chain's multiset,
    in the chain's order of degrees, and the graded spread, compared on
    every degree's unreduced candidates at once, is the largest grid mu."""
    got, want = kunneth_stabilize(family, [1, *tail]), kunneth_stabilize_oracle(family, [1, *tail])
    assert list(got) == list(want) and got == want
    for fam in (family, got):
        mu, mu_want = mu_p_of_family(fam, p), mu_p_of_family_oracle(fam, p)
        assert (mu, type(mu)) == (mu_want, type(mu_want))


def test_graded_mu_checks_p_before_the_empty_family():
    """No degree gives 0 at a prime, and a composite p is refused whether or
    not the family has a degree, by the library and its oracle alike."""
    for mu in (mu_p_of_family, mu_p_of_family_oracle):
        assert mu({}, 3) == 0
        for family in ({}, {0: Barcode.empty()}):
            with pytest.raises(ValueError, match="^p must be prime, got 4$"):
                mu(family, 4)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(model_inputs(), EPS, st.data())
def test_paper_bound_equals_the_fraction_witness(model_input, eps, data):
    """The witness compared on integer ends gives the Fraction witness's c or
    its error, at the true gap and at stored gaps of half and twice it, and
    at, just past and just short of each multiple that puts an end of the
    witness or of its shrink on the second action."""
    assert (outcome(paper_mu_lower_bound, model_input, eps)
            == outcome(paper_mu_lower_bound_oracle, model_input, eps,
                       eigenspace_family_oracle(model_input)))
    if len(model_input.tuples) > 1:
        # the witness's right end a + g(1 - eps/2) and the shrunk left end
        # a + g(1 - eps)/2 reach the second action at these multiples of g
        edges = (1 / (1 - eps / 2), 2 / (1 - eps))
        scale = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2), *edges,
                                           *(e * (1 + t) for e in edges
                                             for t in (Fraction(1, 10 ** 9), -Fraction(1, 10 ** 9)))]))
        object.__setattr__(model_input, "gap", model_input.gap * scale)
        assert (outcome(paper_mu_lower_bound, model_input, eps)
                == outcome(paper_mu_lower_bound_oracle, model_input, eps,
                           eigenspace_family_oracle(model_input)))


# -- the two-window spread -----------------------------------------------------

# (p, field) of the random sums; None draws a small `symmetric_rips_complex`
SPREAD_KINDS = ((2, QQ_FIELD), (3, QQ_FIELD), (5, QQ_FIELD), (3, CyclotomicField(3)),
                (5, CyclotomicField(5)), None)
# (p, orbits, cone) of the symmetric complexes, 7 to 51 generators: coned,
# with a finite positive spread; without the cone, +inf on 5 or 6 points,
# where 2-cycles that T moves are never killed, and finite on 4 points,
# where T fixes the one 2-cycle
SYMMETRIC_SHAPES = ((2, 1, True), (2, 2, True), (3, 1, True), (5, 1, True),
                    (5, 1, False), (3, 2, False), (2, 3, False), (2, 2, False))


@st.composite
def spread_complexes(draw):
    """`random_equivariant_complex` over Q at p = 2, 3 and 5, over Q(zeta_3)
    and over Q(zeta_5), or, one draw in six, one of the smallest
    `symmetric_rips_complex`es of `SYMMETRIC_SHAPES`."""
    kind = draw(st.sampled_from(SPREAD_KINDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind is None:
        p, orbits, cone = draw(st.sampled_from(SYMMETRIC_SHAPES))
        return symmetric_rips_complex(rng, p, orbits, cone)
    return random_equivariant_complex(rng, *kind)


def w_spread_class(value) -> str:
    return "+inf" if value == INF else "0" if value == 0 else "finite positive"


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(spread_complexes())
def test_w_spread_equals_the_window_scan(eq):
    """The longest bar of im(T - 1) is the window scan's spread, value and
    type."""
    want = scan_w_spread(eq)
    event(w_spread_class(want))
    got = w_spread(eq, eq.p)
    assert (got, type(got)) == (want, type(want))


# -- the model spread and witness in closed form -------------------------------

MODEL_ACTIONS = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-2 ** 620, 2 ** 620), st.integers(1, 2 ** 600)),
    # neighbours closer than 2^-64, whose integer keys tie
    st.builds(lambda k: Fraction(1, 3) + Fraction(k, 2 ** 70), st.integers(-3, 3)))


@st.composite
def stabilized_models(draw):
    """(ModelInput, betti vector) at p in {2, 3, 5, 7}, in degrees -1..2, over
    small, close and ~600-bit actions, with betti entries of 0, below p and
    at least p.  Either any count of tuples per degree, or, planted, a
    multiple of p in each: then every stabilized degree's total is divisible
    by p and the spread is finite."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        degs = [d for d in degrees for _ in range(p * draw(st.integers(1, 2)))]
    else:
        degs = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=12))
    actions = draw(st.lists(MODEL_ACTIONS, min_size=len(degs), max_size=len(degs), unique=True))
    betti = [1] + draw(st.lists(st.sampled_from((0, 1, p - 1, p, p + 1, 2 * p)), max_size=3))
    return ModelInput(p, tuple(zip(actions, degs))), betti


def witness_count_bound(model_input: ModelInput, eps_frac, family) -> Fraction:
    """The window bound with its witness counted by `_multiplicity` on integer
    ends over ``family``, summed over the degrees: c, or the AssertionError
    when either interval's count is not 1."""
    en, ed = Fraction(eps_frac).as_integer_ratio()
    gap = model_input.gap
    if gap == INF:
        return Fraction(0)
    (an, ad), (gn, gd) = model_input.tuples[0][0].as_integer_ratio(), gap.as_integer_ratio()
    base, u, den = 2 * an * ed * gd, ad * gn, 2 * ad * ed * gd
    for lo, hi in ((base + en * u, base + (2 * ed - en) * u),
                   (base + (ed - en) * u, base + (ed + en) * u)):
        if sum(_multiplicity(bc, lo, hi, den) for bc in family.values()) != 1:
            raise AssertionError("witness interval does not have model multiplicity 1")
    return Fraction(gn * (ed - 2 * en), 4 * gd * ed)


def spread_class(mu) -> str:
    # mu = 0 cannot occur: the first birth of the lowest degree has weight
    # betti[0] = 1, a count not divisible by p, so some candidate is positive
    return "+inf" if mu == INF else "finite"


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(stabilized_models(),
       st.one_of(st.sampled_from((Fraction(1, 10 ** 6), Fraction(1, 100), Fraction(1, 2))),
                 st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10 ** 6)
                 .filter(lambda e: e > 0)))
def test_model_spread_and_witness_equal_the_graded_route(case, eps):
    """The report's model spread is the graded spread of the stabilized
    eigenspace family, and its window bound the witness count over the
    family, value and type."""
    model_input, betti = case
    report = bounds_report(model_input, eps_frac=eps, stabilize=betti)
    family = eigenspace_family_oracle(model_input)
    want = mu_p_of_family(kunneth_stabilize(family, betti), model_input.p)
    event(spread_class(want))
    assert (report.mu_p_model, type(report.mu_p_model)) == (want, type(want))
    bound = witness_count_bound(model_input, eps, family)
    assert (report.mu_p_paper_bound, type(report.mu_p_paper_bound)) == (bound, type(bound))


def replayed_events(test, monkeypatch) -> list[str]:
    """The events a derandomized property test of this module records, in
    order: the test is run again, under its own `@given` and `@settings`, so
    on its own examples, with `event` recording."""
    seen = []
    monkeypatch.setitem(globals(), "event", seen.append)
    test()
    return seen


def test_model_spread_examples_reach_both_classes(monkeypatch):
    """Of the examples of `test_model_spread_and_witness_equal_the_graded_route`,
    at least a quarter read a +inf spread and a quarter a finite one, so
    that both the ray count and the pair ranking are compared with the
    graded route."""
    classes = replayed_events(test_model_spread_and_witness_equal_the_graded_route, monkeypatch)
    assert min(classes.count("+inf"), classes.count("finite")) >= len(classes) / 4


def test_q_examples_reach_each_pivot_class(monkeypatch):
    """Of the Q examples of the elimination and complex property tests, at
    least a quarter reach each pivot class: unit pivots only, where every
    update stays on ints; a non-unit integer pivot, where Fractions appear
    mid-reduction; and Fraction entries.  A zero matrix, which meets no
    pivot, is not counted.  `test_complex_checks_equal_the_dense_oracle`
    records its classes too but has no floor: its integer complexes meet
    Fractions only through the corruption value 1/3, and what it compares
    is the checks' messages."""
    for test in (test_matrix_eliminations_equal_the_echelon_oracle,
                 test_q_eliminations_keep_integral_entries_ints,
                 test_q_complexes_keep_integral_entries_ints):
        seen = [c for c in replayed_events(test, monkeypatch) if c != "zero"]
        for c in PIVOT_CLASSES:
            assert seen.count(c) >= len(seen) / 4, (test.__name__, c, seen.count(c), len(seen))


def test_w_spread_examples_reach_each_class(monkeypatch):
    """Of the examples of `test_w_spread_equals_the_window_scan`, at least a
    quarter read each spread class: +inf, where C has more rays than Fix; 0,
    where every bar of C is one of Fix; and a finite positive spread, where
    the lists of bar lengths first differ at a finite bar."""
    classes = replayed_events(test_w_spread_equals_the_window_scan, monkeypatch)
    for c in ("+inf", "0", "finite positive"):
        assert classes.count(c) >= len(classes) / 4, (c, classes.count(c), len(classes))
