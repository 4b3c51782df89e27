from fractions import Fraction as F

from egb.bottleneck import bottleneck, hopcroft_karp
from egb.persistence import Bar, Barcode, INF, is_inf

from conftest import rand_barcode


def brute_force_bottleneck(b: Barcode, c: Barcode):
    """Exhaustive minimum over all partial matchings (small barcodes only).

    Cost of a matching: max over matched pairs of the endpoint displacement
    and over unmatched bars of their half-length (infinite bars cannot be
    unmatched or cross-matched with finite ones).
    """
    bars_b = b.bars()
    bars_c = c.bars()

    def pair_cost(x: Bar, y: Bar):
        if x.finite != y.finite:
            return INF
        if not x.finite:
            return abs(x.birth - y.birth)
        return max(abs(x.birth - y.birth), abs(x.death - y.death))

    def unmatched_cost(x: Bar):
        return x.length / 2 if x.finite else INF

    best = [INF]

    def recurse(i: int, used: set, current):
        if current >= best[0]:
            return
        if i == len(bars_b):
            cost = current
            for j, y in enumerate(bars_c):
                if j not in used:
                    cost = max(cost, unmatched_cost(y))
                    if cost >= best[0]:
                        return
            best[0] = min(best[0], cost)
            return
        x = bars_b[i]
        recurse(i + 1, used, max(current, unmatched_cost(x)))
        for j, y in enumerate(bars_c):
            if j in used:
                continue
            cost = pair_cost(x, y)
            if is_inf(cost):
                continue
            recurse(i + 1, used | {j}, max(current, cost))

    recurse(0, set(), F(0))
    return best[0]


class TestBottleneckExamples:
    def test_identical_barcodes(self, rng):
        for _ in range(10):
            b = rand_barcode(rng)
            assert bottleneck(b, b) == 0

    def test_two_options(self):
        b = Barcode.of([(Bar(0, 2), 1)])
        c = Barcode.of([(Bar(0, 1), 1)])
        # match (cost 1) vs delete both (cost max(1, 1/2) = 1)
        assert bottleneck(b, c) == 1

    def test_infinite_ray_mismatch(self):
        b = Barcode.of([(Bar(0, INF), 1)])
        assert is_inf(bottleneck(b, Barcode.empty()))

    def test_empty_vs_empty(self):
        assert bottleneck(Barcode.empty(), Barcode.empty()) == 0

    def test_empty_vs_finite(self):
        b = Barcode.of([(Bar(0, 4), 1)])
        assert bottleneck(b, Barcode.empty()) == 2  # delete: half-length

    def test_infinite_bars_match_by_birth(self):
        b = Barcode.of([(Bar(0, INF), 1)])
        c = Barcode.of([(Bar(3, INF), 1)])
        assert bottleneck(b, c) == 3


class TestBottleneckOracle:
    def test_against_brute_force(self, rng):
        for _ in range(180):
            b = rand_barcode(rng, max_bars=3, max_mult=2)
            c = rand_barcode(rng, max_bars=3, max_mult=2)
            if len(b.bars()) > 5 or len(c.bars()) > 5:
                continue
            expected = brute_force_bottleneck(b, c)
            got = bottleneck(b, c)
            if is_inf(expected):
                assert is_inf(got)
            else:
                assert got == expected

    def test_pseudometric_properties(self, rng):
        barcodes = [rand_barcode(rng, max_bars=3, allow_infinite=False) for _ in range(8)]
        for b in barcodes:
            assert bottleneck(b, b) == 0
        for b in barcodes:
            for c in barcodes:
                assert bottleneck(b, c) == bottleneck(c, b)
        for b in barcodes[:4]:
            for c in barcodes[:4]:
                for d in barcodes[:4]:
                    assert bottleneck(b, d) <= bottleneck(b, c) + bottleneck(c, d)

    def test_longest_bar_two_lipschitz(self, rng):
        """|beta(B) - beta(C)| <= 2 d_bottle(B, C) on random pairs."""
        from egb.persistence import longest_finite_bar

        for _ in range(60):
            b = rand_barcode(rng, max_bars=3, allow_infinite=False)
            c = rand_barcode(rng, max_bars=3, allow_infinite=False)
            d = bottleneck(b, c)
            assert abs(longest_finite_bar(b) - longest_finite_bar(c)) <= 2 * d


class TestHopcroftKarp:
    def test_perfect_matching(self):
        adj = {0: ["a", "b"], 1: ["a"], 2: ["b", "c"]}
        matching = hopcroft_karp(adj, [0, 1, 2])
        assert len(matching) == 3

    def test_deficient_matching(self):
        adj = {0: ["a"], 1: ["a"]}
        matching = hopcroft_karp(adj, [0, 1])
        assert len(matching) == 1

    def test_empty_graph(self):
        assert hopcroft_karp({}, []) == {}
