import tracemalloc
from collections import Counter, deque
from fractions import Fraction as F

from egb.bottleneck import _adjacency, _costs, _feasible, bottleneck, hopcroft_karp
from egb.persistence import Bar, Barcode, INF, is_inf

from conftest import (
    bottleneck_oracle, costs_oracle, feasible_slot_oracle, rand_barcode, rand_frac,
)


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


def _in_degree(barcode: Barcode, degree) -> Barcode:
    return Barcode.of((bar, m) for bar, m, d in barcode.items if d == degree)


class TestDegrees:
    """The distance is the maximum over the degrees; None is a degree too."""

    def test_one_bar_in_two_degrees(self):
        for d_b, d_c in ((0, 1), (None, 0)):
            b = Barcode.of([(Bar(0, 10), 1, d_b)])
            c = Barcode.of([(Bar(0, 10), 1, d_c)])
            assert bottleneck(b, c) == 5

    def test_one_ray_in_two_degrees(self):
        b = Barcode.of([(Bar(0, INF), 1, 0)])
        c = Barcode.of([(Bar(0, INF), 1, 1)])
        assert is_inf(bottleneck(b, c))

    def test_against_brute_force_per_degree(self, rng):
        mixed = 0
        for _ in range(150):
            b, c = (Barcode.of((bar, m, rng.choice([None, 0, 1]))
                               for bar, m, _ in rand_barcode(rng, 3, max_mult=2).items)
                    for _ in range(2))
            degrees = {d for _, _, d in b.items + c.items}
            sides = [(_in_degree(b, d), _in_degree(c, d)) for d in degrees]
            if any(len(x.bars()) > 5 or len(y.bars()) > 5 for x, y in sides):
                continue
            mixed += len(degrees) > 1
            expected = max((brute_force_bottleneck(x, y) for x, y in sides), default=F(0))
            assert bottleneck(b, c) == expected
        assert mixed > 20


class TestRays:
    """A ray matches only a ray, the i-th smallest birth of one side to the
    i-th of the other."""

    def test_crossing_pairs_are_uncrossed(self):
        b = Barcode.of([(Bar(0, INF), 1), (Bar(10, INF), 1)])
        c = Barcode.of([(Bar(1, INF), 1), (Bar(11, INF), 1)])
        assert bottleneck(b, c) == 1  # 0-1 and 10-11, not 0-11 and 10-1
        assert bottleneck(b, c) == bottleneck_oracle(b, c)

    def test_rays_in_several_degrees_against_the_oracle(self, rng):
        """Rays only, in degrees None, 0 and 1, with multiplicities, small and
        ~600-bit births; in 9 pairs of 10 each degree has as many rays on
        both sides, and the distance is +inf exactly when it does not."""
        def births(n, count):
            return [F(rng.getrandbits(620) - 2 ** 619, rng.getrandbits(600) | 1)
                    if n % 3 == 0 else rand_frac(rng) for _ in range(count)]

        def degrees():
            return [(rng.randint(1, 2), rng.choice((None, 0, 1))) for _ in range(rng.randint(0, 6))]

        def rays(n, degrees):
            return Barcode.of((Bar(x, INF), m, d)
                              for (m, d), x in zip(degrees, births(n, len(degrees))))

        seen = set()
        for n in range(150):
            b_degrees = degrees()
            b, c = rays(n, b_degrees), rays(n, b_degrees if n % 10 else degrees())
            got, want = bottleneck(b, c), bottleneck_oracle(b, c)
            assert (got, type(got)) == (want, type(want))
            differ = Counter(d for _, d in b.expand()) != Counter(d for _, d in c.expand())
            assert is_inf(got) == differ
            seen.add(differ)
        assert seen == {True, False}

    def test_the_larger_part_wins(self, rng):
        """The distance is the larger of the ray part and the finite part,
        and each of them is the larger one on some pairs."""
        assert bottleneck(Barcode.of([(Bar(0, INF), 1), (Bar(0, 2), 1)]),
                          Barcode.of([(Bar(5, INF), 1), (Bar(0, 2), 1)])) == 5
        assert bottleneck(Barcode.of([(Bar(0, INF), 1), (Bar(0, 10), 1)]),
                          Barcode.of([(Bar(1, INF), 1)])) == 5
        wins = set()
        for _ in range(200):
            b, c = (rand_barcode(rng, max_bars=3, max_mult=2, allow_infinite=False)
                    for _ in range(2))
            births = [rand_frac(rng) for _ in range(rng.randint(1, 3))]
            rays_b = [(Bar(x, INF), 1) for x in births]
            rays_c = [(Bar(x + rand_frac(rng), INF), 1) for x in births]
            b, c = Barcode.of(list(b.items) + rays_b), Barcode.of(list(c.items) + rays_c)
            ray_part = bottleneck(Barcode.of(rays_b), Barcode.of(rays_c))
            finite_part = bottleneck(Barcode.of(bar for bar in b.bars() if bar.finite),
                                     Barcode.of(bar for bar in c.bars() if bar.finite))
            if len(b.bars()) + len(c.bars()) <= 8:
                assert bottleneck(b, c) == brute_force_bottleneck(b, c)
            assert bottleneck(b, c) == max(ray_part, finite_part) == bottleneck_oracle(b, c)
            if ray_part != finite_part:
                wins.add("rays" if ray_part > finite_part else "finite")
        assert wins == {"rays", "finite"}

    def test_many_rays_of_300_bits_take_little_memory(self, rng):
        """100 rays a side with ~300-bit births, beside a few small finite
        bars: no ray birth enters the finite bars' denominator and no ray
        pair is costed, so the peak stays under 1 MB."""
        def side():
            rays = [(Bar(F(rng.getrandbits(300), rng.getrandbits(300) | 1), INF), 1)
                    for _ in range(100)]
            return Barcode.of(rays + [(Bar(k, k + rng.randint(1, 9)), 1) for k in range(10)])

        b, c = side(), side()
        tracemalloc.start()
        try:
            got = bottleneck(b, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert got == bottleneck_oracle(b, c)


class TestFeasibility:
    def test_against_slot_oracle(self, rng):
        """Two one-sided matchings decide a delta-matching like one matching
        on the graph with deletion slots, at every candidate value, on the
        full graph: rays included, +inf costs across finiteness."""
        seen = set()
        for n in range(240):
            b = rand_barcode(rng, max_bars=4, max_mult=2)
            c = rand_barcode(rng, max_bars=4, max_mult=2)
            if n % 6 == 0:  # a side of short bars: half-length 1/8, below every B-bar's
                c = Barcode.of(Bar(x, x + F(1, 4)) for x in (rand_frac(rng) for _ in range(3)))
            bars_b, bars_c = b.bars(), c.bars()
            ordered, costs, half_b, half_c = costs_oracle(bars_b, bars_c)
            adjacency = _adjacency(costs, len(bars_c))
            for delta in ordered:
                got = _feasible(adjacency, half_b, half_c, delta)
                assert got == feasible_slot_oracle(costs, half_b, half_c, delta)
                seen.add(got)
                if any(h > delta for h in half_b) and not any(h > delta for h in half_c):
                    seen.add("one side short")
            seen.update(("empty" for side in (bars_b, bars_c) if not side),
                        ("ray" for x in bars_b + bars_c if not x.finite),
                        ("mult" for bc in (b, c) for _, m, _ in bc.items if m > 1))
        assert seen == {True, False, "one side short", "empty", "ray", "mult"}

    def test_between_two_candidates_as_at_the_lower(self, rng):
        """On the integer costs of finite bars, a delta strictly between two
        consecutive candidates decides as the lower one does, since no cost
        or half-length lies between them."""
        seen = set()
        for _ in range(120):
            b, c = (rand_barcode(rng, max_bars=4, max_mult=2, allow_infinite=False)
                    for _ in range(2))
            ends_b, ends_c = ([(x.birth, x.death) for x in bc.bars()] for bc in (b, c))
            _, costs, half_b, half_c = _costs(ends_b, ends_c)
            ordered = sorted({0, *half_b, *half_c, *(x for row in costs for x in row)})
            adjacency = _adjacency(costs, len(ends_c))
            for lower, upper in zip(ordered, ordered[1:]):
                got = _feasible(adjacency, half_b, half_c, lower)
                for delta in (F(lower + upper, 2), F(lower * 999 + upper, 1000)):
                    assert _feasible(adjacency, half_b, half_c, delta) == got
                    assert feasible_slot_oracle(costs, half_b, half_c, delta) == got
                seen.add(got)
        assert seen == {True, False}


def recursive_hopcroft_karp(adjacency: dict, left_order: list) -> dict:
    """Hopcroft-Karp with the textbook recursive augmenting search: the
    oracle of the iterative search, for paths within the recursion limit."""
    pair_left, pair_right, dist = {}, {}, {}

    def bfs() -> bool:
        queue = deque(u for u in left_order if u not in pair_left)
        for u in left_order:
            dist[u] = 0 if u not in pair_left else -1
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = pair_right.get(v)
                if w is None:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u) -> bool:
        for v in adjacency[u]:
            w = pair_right.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u], pair_right[v] = v, u
                return True
        dist[u] = -1
        return False

    while bfs():
        for u in left_order:
            if u not in pair_left:
                dfs(u)
    return pair_left


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

    def test_augmenting_path_past_the_recursion_limit(self):
        """Left node i < n - 1 lists right node i + 1 before i, and n - 1
        lists only n - 1: the first phase matches every i < n - 1 to i + 1,
        and the one augmenting path left runs through all n left nodes."""
        n = 5000
        adj = {i: [i + 1, i] for i in range(n - 1)}
        adj[n - 1] = [n - 1]
        assert hopcroft_karp(adj, list(range(n))) == {i: i for i in range(n)}

    def test_a_dead_end_is_searched_once_per_phase(self):
        """Left node (j, s), j < k and s = 0, 1, lists right node (j, s),
        then both right nodes of layer j + 1.  The first phase matches each
        to its own right node, "z" to "f", and leaves "root" free.  In the
        second, "root" tries the layers before "f": 2^k paths into them, all
        dead ends, unless a node found dead is skipped for the rest of the
        phase.  Then the graph is read a bounded number of times per node."""
        k = 16

        class CountingDict(dict):
            reads = 0

            def __getitem__(self, key):
                CountingDict.reads += 1
                return super().__getitem__(key)

        adj = CountingDict({(j, s): [(j, s)] + [(j + 1, t) for t in (0, 1) if j + 1 < k]
                            for j in range(k) for s in (0, 1)})
        adj.update({"z": ["f", "g"], "root": [(0, 0), (0, 1), "f"]})
        matching = hopcroft_karp(adj, list(adj))
        assert matching == {**{(j, s): (j, s) for j in range(k) for s in (0, 1)},
                            "z": "g", "root": "f"}
        assert CountingDict.reads <= 6 * len(adj)

    def test_matches_the_recursive_search(self, rng):
        """The same matching, built in the same order, on random graphs of
        up to 9 + 9 nodes and every density."""
        for _ in range(300):
            left, right, density = rng.randint(0, 9), rng.randint(0, 9), rng.random()
            adj = {u: [v for v in rng.sample(range(right), right) if rng.random() < density]
                   for u in range(left)}
            order = rng.sample(range(left), left)
            want = recursive_hopcroft_karp(adj, order)
            assert list(hopcroft_karp(adj, order).items()) == list(want.items())
