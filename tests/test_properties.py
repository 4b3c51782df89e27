"""Property tests: the JSON codecs round-trip field elements, matrices and
Z_p modules, a formatted rational needs no JSON escaping and reads the same
from its integers as from its Fraction, Q(zeta_p) is a field, the fused
update x - f*a of Q and of Q(zeta_p) is the two-step one, the integer keys
order and merge exact values as Fractions do, the integer bottleneck
candidates are the Fraction ones, the complex constructors' sparse checks
agree with the dense oracle, a kernel basis is the identity at its free
columns, the Z_p module's parts, V/Fix and checks agree with the solve and
dense oracles, the integer spread candidates give the grid oracle's mu, and
the bounds report's family, stabilization, graded spread, witness and
multiplicity equal their Fraction and sorting-constructor oracles.
Derandomized, so every run draws the same examples."""

import json
import random
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings, strategies as st

from egb import field as field_module, persistence
from egb.equivariant import (
    EquivariantComplex,
    ZpPersistenceModule,
    full_power_verdict,
    kunneth_stabilize,
    mu_from_barcode,
    mu_p_of_family,
    quotient_fix_module,
)
from egb.bottleneck import _ranks, bottleneck
from egb.field import (
    CyclotomicField, CyclotomicNumber, Matrix, QQ_FIELD, cyclo_from_rational, cyclo_zeta,
)
from egb.model import ModelInput, eigenspace_family, paper_mu_lower_bound
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _order_key,
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
    frac_str,
    matrix_from_obj,
    matrix_to_obj,
    zp_module_from_obj,
)

from conftest import (
    bars_by_degree,
    barcode_of_module_oracle,
    bottleneck_oracle,
    canonical_items_oracle,
    complex_checks_oracle,
    det_oracle,
    echelon_oracle,
    eigenspace_family_oracle,
    eigenspace_module_oracle,
    extend_basis_oracle,
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
    quotient_fix_oracle,
    random_equivariant_complex,
    random_filtered_complex,
    random_zp_module,
    rank_oracle,
    ranks_oracle,
    solve_matrix_oracle,
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
    0, 1, -1, a rational or, over Q, a ~600-bit-denominator rational and
    over Q(zeta_p) a general element, so that denominators differ or agree."""
    p = draw(st.sampled_from((None, 2, 3, 5)))
    units = st.sampled_from((0, 1, -1)).map(Fraction)
    if p is None:
        huge = st.builds(Fraction, st.integers(-2 ** 620, 2 ** 620), st.integers(1, 2 ** 600))
        element = st.one_of(units, rationals, huge)
        return QQ_FIELD, (draw(element), draw(element), draw(element))
    element = st.one_of(units.map(lambda q: cyclo_from_rational(p, q)),
                        rationals.map(lambda q: cyclo_from_rational(p, q)),
                        cyclotomic(p))
    return CyclotomicField(p), (draw(element), draw(element), draw(element))


def _q(*values):
    return QQ_FIELD, tuple(Fraction(v) for v in values)


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
def test_fused_update_is_x_minus_f_times_a(case):
    """The field's one-normalization update equals, hashes like and has the
    type of x - f*a, over Q a Fraction."""
    field, (x, f, a) = case
    got, want = field.sub_mul(x, f, a), x - f * a
    assert type(got) is type(want) is (Fraction if field == QQ_FIELD else CyclotomicNumber)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(bar_items(), bar_items())
@example([(Bar(0, 4), 1, None)], [])
@example([(Bar(Fraction(1, 3), INF), 2, 0)], [(Bar(Fraction(1, 2), INF), 2, 0)])
def test_integer_ranks_give_the_fraction_candidates(items_b, items_c):
    """The integer candidates over the denominator that `_ranks` returns are
    the Fraction ones of the oracle, with the same ranks, and the distance is
    the oracle's, on small and ~600-bit values, rays and multiplicities."""
    b, c = Barcode(tuple(items_b)), Barcode(tuple(items_c))
    for bars_b, bars_c in bars_by_degree(b, c):
        den, ordered, *ranks = _ranks(bars_b, bars_c)
        want_ordered, *want_ranks = ranks_oracle(bars_b, bars_c)
        assert ranks == want_ranks
        assert [Fraction(v, den) for v in ordered] == want_ordered
    got, want = bottleneck(b, c), bottleneck_oracle(b, c)
    assert (got, type(got)) == (want, type(want))


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


def sparse_oracle(m: Matrix) -> tuple:
    """The nonzero entries of each column of m, by a scan of its rows."""
    return tuple({i: m.entries[i][j] for i in range(m.rows) if m.entries[i][j]}
                 for j in range(m.cols))


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
    expected = complex_checks_oracle(field, gens, boundary, p, chain_map)
    assert expected is None and None in EXPECTED[kind] or any(
        expected is not None and expected.endswith(m) for m in EXPECTED[kind] if m)
    got = None
    try:
        cx = FilteredComplex(field, gens, boundary)
        assert cx.columns == sparse_oracle(boundary)
        assert complex_from_obj(through_json(complex_to_obj(cx))).columns == cx.columns
        eq = EquivariantComplex(p, cx, chain_map)
        assert eq.columns == sparse_oracle(chain_map)
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
    return Matrix(field, rows, cols, tuple(map(tuple, entries)))


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


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 2 ** 32))
def test_parts_and_quotient_equal_the_solve_oracle(p, seed):
    """The stored isotypic parts and V/Fix, read off the kernels' free
    columns, equal the modules the solve oracle induces, entry for entry:
    the parts in the kernel bases, V/Fix in the standard vectors that extend
    Fix(A) to a basis."""
    m = random_zp_module(random.Random(seed), p, max_blocks=3)
    for k, part in enumerate(m.parts):
        assert part == eigenspace_module_oracle(m, cyclo_zeta(p, k))
    field = m.field
    units = [list(Matrix.identity(field, n).entries) for n in m.base.dims]
    complements = [extend_basis_oracle(field, list(w), e, len(e)) for w, e in zip(m.fixed, units)]
    oracle = induced_module_oracle(m, [list(w) for w in m.fixed], complements)
    assert quotient_fix_module(m) == oracle


@st.composite
def elimination_cases(draw):
    """A matrix over Q, Q(zeta_3) or Q(zeta_5) of 0-5 rows and columns with
    entries from a few values, so that it is often rank-deficient, and a
    right-hand side of 0-3 columns that is its image of another matrix
    (consistent) or drawn freely (often inconsistent)."""
    p = draw(st.sampled_from((None, 3, 5)))
    if p is None:
        field = QQ_FIELD
        values = [Fraction(v) for v in (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7))]
    else:
        field, z = CyclotomicField(p), cyclo_zeta(p, 1)
        values = [field.zero()] * 3 + [field.one(), -field.one(), z, z * z + Fraction(1, 3),
                                       z - 2, field.coerce(Fraction(1, 2))]

    def matrix(rows, cols):
        return Matrix(field, rows, cols, tuple(
            tuple(draw(st.sampled_from(values)) for _ in range(cols)) for _ in range(rows)))

    rows, cols, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 3))
    m = matrix(rows, cols)
    rhs = m @ matrix(cols, k) if draw(st.booleans()) else matrix(rows, k)
    return m, rhs


def same_entries(a, b) -> bool:
    """Equal, and of the same element type entry for entry."""
    return a == b and [type(x) for x in a] == [type(x) for x in b]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(elimination_cases())
@example((Matrix(QQ_FIELD, 0, 0, ()), Matrix(QQ_FIELD, 0, 2, ())))
@example((Matrix(QQ_FIELD, 3, 0, ((),) * 3), Matrix.identity(QQ_FIELD, 3)))
def test_matrix_eliminations_equal_the_echelon_oracle(case):
    """rank, det, kernel_basis, solve, solve_matrix and inverse, read off
    the sparse column reduction, equal the dense echelon and its back
    substitution entry for entry; the singular and non-square messages stay."""
    m, rhs = case
    field = m.field
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
        column = solve_matrix_oracle(m, Matrix(field, rhs.rows, 1, tuple(
            (row[j],) for row in rhs.entries)))
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
        "parts": m.parts,
        "barcode": barcode_of_module(m.base),
        "quotient": quotient_fix_module(m),
        "windows": [window_homology(cx, *w)[::2] for w in windows],
        "les": [les_check(cx, *t) for t in triples],
    }
    complements = [extend_basis_oracle(m.field, list(w), e, len(e))
                   for w, e in zip(m.fixed, units)]

    def refuse(*args):
        raise AssertionError("an oracle reached the column reduction")

    for module in (field_module, persistence):
        monkeypatch.setattr(module, "_reduce_columns", refuse)
    with pytest.raises(AssertionError, match="column reduction"):
        Matrix.identity(m.field, 1).rank()
    assert tuple(eigenspace_module_oracle(m, cyclo_zeta(p, k)) for k in range(p)) \
        == expected["parts"]
    assert barcode_of_module_oracle(m.base) == expected["barcode"]
    assert quotient_fix_oracle(m) == expected["quotient"]
    assert induced_module_oracle(m, [list(w) for w in m.fixed], complements) \
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


def outcome(f, *args):
    try:
        return f(*args)
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


@PROPERTY
@given(model_inputs())
def test_eigenspace_family_is_the_sorted_one(model_input):
    got, want = eigenspace_family(model_input), eigenspace_family_oracle(model_input)
    assert list(got) == list(want) and got == want


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(bar_items(), st.integers(0, 4))
def test_repeat_is_the_sorted_one(items, n):
    bc = Barcode(tuple(items))
    assert bc.repeat(n) == Barcode(tuple((bar, m * n, d) for bar, m, d in bc.items if n))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(families(), model_inputs().map(eigenspace_family)),
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


def test_graded_mu_of_no_degree_is_zero_at_any_p():
    assert mu_p_of_family({}, 4) == 0
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        mu_p_of_family({0: Barcode.empty()}, 4)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(model_inputs(), EPS, st.data())
def test_paper_bound_equals_the_fraction_witness(model_input, eps, data):
    """The witness compared on integer ends gives the Fraction witness's c or
    its error, with the model family and with extra bars whose ends sit at
    the witness's ends, the shrunk ends, the least action, a + g/2 and a + g."""
    extra = {}
    if len(model_input.tuples) > 1:
        a, g = model_input.tuples[0][0], model_input.gap
        marks = [a + t * g for t in (0, eps / 2, (1 - eps) / 2, Fraction(1, 2),
                                     (1 + eps) / 2, 1 - eps / 2, 1)]
        for r in data.draw(st.lists(st.integers(0, 3), max_size=3)):
            birth = data.draw(st.sampled_from(marks))
            death = data.draw(st.sampled_from([m for m in marks if m > birth] + [INF]))
            bars = extra.get(r, Barcode.empty()).items + ((Bar(birth, death), 1, None),)
            extra[r] = Barcode(bars)
    for family in (None, {**eigenspace_family(model_input), **extra}):
        assert (outcome(paper_mu_lower_bound, model_input, eps, family)
                == outcome(paper_mu_lower_bound_oracle, model_input, eps, family))
