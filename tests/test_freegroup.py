import tracemalloc

import pytest

from egb import freegroup
from egb.freegroup import (
    Itinerary,
    Segment,
    Word,
    canonical_itinerary,
    conjugate_eq,
    cyclic_reduce,
    format_word,
    itinerary_to_word,
    parse_itinerary,
    parse_word,
    self_intersection,
)

from conftest import (
    alpha_word, cyclic_reduce_oracle, format_oracle, inverse_letters, reduce_oracle, rotations,
)


def rand_word(rng, max_len=8) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append(rng.choice([1, -1, 2, -2, 3, -3]))
    return Word(tuple(letters))


class TestReduction:
    def test_full_cancellation(self):
        assert parse_word("a b b^-1 a^-1") == Word(())

    def test_cyclic_reduce(self):
        w = parse_word("a^-1 b a")
        assert cyclic_reduce(w) == parse_word("b")

    def test_alpha_already_cyclically_reduced(self):
        alpha = alpha_word([3, 1], [2, 4])
        assert cyclic_reduce(alpha) == alpha
        assert Word(alpha.letters) == alpha

    def test_reduction_is_invariant(self):
        w = Word((1, 2, -2, -1, 3))
        assert w.letters == (3,)

    def test_cyclic_reduce_matches_pairwise_loop(self, rng):
        for _ in range(200):
            u, core = rand_word(rng, 6), rand_word(rng, 6)
            for w in (Word(u.letters + core.letters + inverse_letters(u)), rand_word(rng, 12)):
                assert cyclic_reduce(w).letters == cyclic_reduce_oracle(w.letters)
        n = 8000
        deep = parse_word(f"b^{n} a c b^-{n}")
        assert cyclic_reduce(deep).letters == cyclic_reduce_oracle(deep.letters) == (1, 3)

    def test_reduce_matches_pairwise_loop(self, rng):
        """Words with inverse pairs planted among random letters reduce to
        what the pairwise loop leaves; a word with none comes back unchanged."""
        for _ in range(300):
            letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 12))]
            for _ in range(rng.randint(0, 4)):
                x = rng.choice([1, -1, 2, -2, 3, -3])
                i = rng.randint(0, len(letters))
                letters[i:i] = [x, -x]
            assert Word(tuple(letters)).letters == reduce_oracle(letters)
            reduced = reduce_oracle(letters)
            assert Word(reduced).letters == reduced

    def test_invalid_letter_names_the_first(self):
        for letters, bad in [((1, 4, 0), 4), ((0, -7), 0), ((2, -3, -5), -5)]:
            with pytest.raises(ValueError, match=f"^invalid letter {bad}$"):
                Word(letters)

    def test_parse_word_reads_every_letter(self, rng):
        """Tokens over a, b, c with exponents (zero and negative ones
        included), `1` tokens and `*` separators parse to the word of their
        letters."""
        for _ in range(200):
            tokens, letters = [], []
            for _ in range(rng.randint(0, 8)):
                if rng.random() < 0.15:
                    tokens.append("1")
                    continue
                base, exp = rng.randint(1, 3), rng.randint(-3, 3)
                plain = exp == 1 and rng.random() < 0.5
                tokens.append("abc"[base - 1] + ("" if plain else f"^{exp}"))
                letters += [base if exp > 0 else -base] * abs(exp)
            text = rng.choice([" ", " * ", "*"]).join(tokens)
            assert parse_word(text) == Word(tuple(letters)), text

    def test_parse_word_errors(self):
        with pytest.raises(ValueError, match="unknown letter 'x'"):
            parse_word("a x^0 b")
        with pytest.raises(ValueError, match="bad exponent in 'b\\^y'"):
            parse_word("a b^y")

    def test_letter_limit_counts_the_whole_word(self, monkeypatch):
        """The limit holds for the expanded word, summed over its tokens or
        segments; a word of exactly `MAX_LETTERS` letters passes."""
        monkeypatch.setattr(freegroup, "MAX_LETTERS", 10)
        message = " expands to at least 11 letters, over the limit of 10$"
        assert len(parse_word("b a^-5 c^4").letters) == 10
        with pytest.raises(ValueError, match="^word" + message):
            parse_word("b a^-5 c^5")
        assert len(itinerary_to_word(parse_itinerary("V:A-B:5 H:B-A:4")).letters) == 10
        with pytest.raises(ValueError, match="^itinerary" + message):
            itinerary_to_word(parse_itinerary("V:A-B:5 H:B-A:5"))

    def test_parse_format_roundtrip(self, rng):
        for _ in range(40):
            w = rand_word(rng)
            assert format_word(w) == format_oracle(w.letters)
            assert parse_word(format_word(w)) == w


class TestConjugacy:
    def test_rotations_are_conjugate(self, rng):
        for _ in range(25):
            w = rand_word(rng)
            for r in rotations(cyclic_reduce(w)):
                assert conjugate_eq(w, r)

    def test_a2b_vs_ab2(self):
        assert not conjugate_eq(parse_word("a^2 b"), parse_word("a b^2"))

    def test_alpha_shifts_conjugate(self):
        ms, ns = [2, 3, 1], [1, 2, 4]
        alpha = alpha_word(ms, ns)
        for j in range(1, len(ms) + 1):
            shifted_ms = ms[-j:] + ms[:-j]
            shifted_ns = ns[-j:] + ns[:-j]
            assert conjugate_eq(alpha, alpha_word(shifted_ms, shifted_ns))

    def test_exponent_permuted_not_conjugate(self):
        # swapping exponents between slots is not a cyclic shift
        assert not conjugate_eq(alpha_word([2, 3], [1, 4]), alpha_word([3, 2], [1, 4]))

    def test_equivalence_relation_sampled(self, rng):
        words = [rand_word(rng, 5) for _ in range(8)]
        for w in words:
            assert conjugate_eq(w, w)
        for v in words:
            for w in words:
                assert conjugate_eq(v, w) == conjugate_eq(w, v)
        for u in words[:5]:
            for v in words[:5]:
                for w in words[:5]:
                    if conjugate_eq(u, v) and conjugate_eq(v, w):
                        assert conjugate_eq(u, w)

    def test_matches_rotation_definition(self, rng):
        """Against the definition: w2 is conjugate to w1 iff the cyclic
        reduction of w2 is a rotation of that of w1.  Each base word is
        paired with conjugates and with equal-length words that differ in
        one letter, over all six letters a, b, c and their inverses."""
        outcomes = set()
        for _ in range(60):
            u = cyclic_reduce(rand_word(rng, 10)).letters
            others = [Word(rand_word(rng, 4).letters + u[r:] + u[:r]
                           + inverse_letters(rand_word(rng, 4))) for r in range(len(u))]
            for _ in range(3):
                v = list(u)
                if v:
                    v[rng.randrange(len(v))] = rng.choice([1, -1, 2, -2, 3, -3])
                r = rng.randrange(len(v) + 1)
                others.append(Word(tuple(v[r:] + v[:r])))
            for w in others:
                cu, cw = cyclic_reduce(Word(u)), cyclic_reduce(w)
                expected = len(cu.letters) == len(cw.letters) and cw in rotations(cu)
                assert conjugate_eq(Word(u), w) == expected
                assert conjugate_eq(w, Word(u)) == expected
                if len(cu.letters) == len(cw.letters):
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_conjugation_by_random_element(self, rng):
        for _ in range(20):
            w = rand_word(rng, 5)
            g = rand_word(rng, 4)
            assert conjugate_eq(w, Word(g.letters + w.letters + inverse_letters(g)))


class TestItineraries:
    def test_simple_loop(self):
        it = canonical_itinerary([3], [2])
        assert itinerary_to_word(it) == parse_word("a^3 b^2")

    def test_crossing_pair_substitution(self):
        # V: A->B winding n, H: B->A winding n'  =>  a^n c^-1 b^n'
        it = Itinerary((Segment("V", "A", "B", 4), Segment("H", "B", "A", 2)))
        assert itinerary_to_word(it) == parse_word("a^4 c^-1 b^2")

    def test_empty_itinerary(self):
        assert itinerary_to_word(Itinerary(())) == Word(())

    def test_canonical_itinerary_gives_alpha(self):
        ms, ns = [2, 1, 3], [1, 4, 2]
        it = canonical_itinerary(ms, ns)
        assert itinerary_to_word(it) == alpha_word(ms, ns)

    def test_zero_winding_never_alpha(self):
        ms, ns = [2, 0], [1, 3]
        it = canonical_itinerary(ms, ns)
        word = itinerary_to_word(it)
        assert not conjugate_eq(word, alpha_word([2, 1], [1, 3]))
        assert not conjugate_eq(word, alpha_word([2, 2], [1, 3]))

    def test_non_loop_rejected(self):
        it = Itinerary((Segment("V", "A", "B", 2),))
        with pytest.raises(ValueError):
            itinerary_to_word(it)

    def test_non_composable_rejected(self):
        with pytest.raises(ValueError):
            Itinerary((Segment("V", "A", "B", 2), Segment("H", "A", "A", 1)))

    def test_non_alternating_rejected(self):
        with pytest.raises(ValueError):
            Itinerary((Segment("V", "A", "A", 2), Segment("V", "A", "A", 1)))

    def test_crossing_needs_positive_winding(self):
        with pytest.raises(ValueError):
            Segment("V", "A", "B", 0)

    def test_b_to_b_segment(self):
        # q2 a^{n-1} q1 parses as a loop after returning to A via q4 b^{m-1}...
        # simplest closed check: B->B vertical inside a loop through B
        it = Itinerary(
            (
                Segment("V", "A", "B", 2),
                Segment("H", "B", "B", 3),
                Segment("V", "B", "A", 1),
            )
        )
        word = itinerary_to_word(it)
        # a^1 q1 | q4 b^2 q3 | q2  maps to  a.a | (c^-1 b) b^2 c | 1
        assert word == parse_word("a^2 c^-1 b^3 c")


def groupoid_tokens(segment: Segment) -> list[str]:
    """The groupoid word of one segment as `parse_word` text tokens, written
    out from the trajectory-type table: a, b loop at A; q1, q3 go A -> B and
    q2, q4 go B -> A."""
    loop = "a" if segment.flow == "V" else "b"
    into, back = ("q1", "q2") if segment.flow == "V" else ("q3", "q4")
    w = segment.winding
    key = (segment.src, segment.dst)
    if key == ("A", "A"):
        return [loop] * w
    if key == ("A", "B"):
        return [loop] * (w - 1) + [into]
    if key == ("B", "A"):
        return [back] + [loop] * (w - 1)
    return [back] + [loop] * (w - 1) + [into]


def random_loop_itinerary(rng) -> Itinerary:
    """A chained itinerary from A back to A, with up to 8 segments of
    alternating flows."""
    n = rng.randint(0, 8)
    squares = ["A"] + [rng.choice("AB") for _ in range(n - 1)] + ["A"] if n else []
    flows = "VH" if rng.random() < 0.5 else "HV"
    return Itinerary(tuple(
        Segment(flows[i % 2], src, dst, rng.randint(0 if (src, dst) == ("A", "A") else 1, 4))
        for i, (src, dst) in enumerate(zip(squares, squares[1:]))
    ))


class TestItineraryLetters:
    """`itinerary_to_word` builds letters straight from the segment table;
    the text route through `parse_word` is its oracle."""

    def test_against_groupoid_text(self, rng):
        seen = set()
        for _ in range(600):
            it = random_loop_itinerary(rng)
            tokens = [t for seg in it.segments for t in groupoid_tokens(seg)]
            assert itinerary_to_word(it) == parse_word(" ".join(tokens)), it
            seen.update((s.src, s.dst, s.winding == 0) for s in it.segments)
            seen.add("empty" if not it.segments else "nonempty")
        assert {("B", "B", False), ("A", "A", True), ("A", "B", False), "empty"} <= seen

    def test_parse_itinerary(self):
        assert parse_itinerary(" V:A-B:2  H:B-A:1 ") == Itinerary(
            (Segment("V", "A", "B", 2), Segment("H", "B", "A", 1)))
        assert parse_itinerary("") == Itinerary(())

    @pytest.mark.parametrize("text, message", [
        ("V:A-A", "bad segment 'V:A-A'"),
        ("V:AA:1", "bad segment 'V:AA:1'"),
        ("V:A-A:x", "bad winding 'x' in segment 'V:A-A:x'"),
        ("X:A-A:1", "flow must be V or H"),
        ("V:A-C:1", "endpoints must be A or B"),
        ("V:A-B:1 V:B-A:1", "alternate V and H"),
    ])
    def test_parse_itinerary_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_itinerary(text)


class TestGroupoidParsing:
    def test_relations(self):
        assert parse_word("q1 q2") == parse_word("a")
        assert parse_word("q3 q4") == parse_word("b")
        assert parse_word("q3 q2") == parse_word("c")
        assert parse_word("q1 q4") == parse_word("a c^-1 b")

    def test_inverse_edges(self):
        assert parse_word("q1 q1^-1") == Word(())
        assert parse_word("q2^-1 q2") == Word(())

    def test_composability_enforced(self):
        with pytest.raises(ValueError):
            parse_word("q1 q1")
        with pytest.raises(ValueError):
            parse_word("q2")


class TestSelfIntersection:
    def test_values(self):
        assert self_intersection(1, 1) == 1
        assert self_intersection(2, 3) == 8

    def test_symmetry(self, rng):
        for _ in range(20):
            m, n = rng.randint(1, 30), rng.randint(1, 30)
            assert self_intersection(m, n) == self_intersection(n, m)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            self_intersection(0, 3)


N_LETTERS = 10 ** 6


@pytest.mark.parametrize("path", [
    lambda: format_word(itinerary_to_word(parse_itinerary(
        f"V:A-A:{N_LETTERS // 2} H:A-A:{N_LETTERS // 2}"))),
    lambda: conjugate_eq(parse_word(f"a^{N_LETTERS // 2} b^{N_LETTERS // 2}"),
                         parse_word(f"b^{N_LETTERS // 4} a^{N_LETTERS // 2} b^{N_LETTERS // 4}")),
    lambda: cyclic_reduce(parse_word(f"a^{N_LETTERS // 2 - 1} b c a^-{N_LETTERS // 2 - 1}")),
], ids=["itinerary-format", "parse-conjugate", "parse-cyclic-reduce"])
def test_peak_memory_per_letter(path):
    """Each path through a word of 10^6 letters allocates at most 8 bytes a
    letter at its peak, as `tracemalloc` traces it: a word is held as one
    byte a letter (2 to 4 bytes a letter were measured on these paths; a
    tuple of letters took 12 to 26)."""
    tracemalloc.start()
    try:
        path()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N_LETTERS
