"""Exact bottleneck distance between barcodes.

The distance is taken degree by degree and is the maximum over the degrees.
In one degree a ray matches only a ray, so the distance is the larger of a
ray part and a finite part.  The rays match by sorting, the i-th smallest
birth of one side to the i-th of the other: on a line, uncrossing two pairs
never raises the larger cost.  For the finite bars, feasibility at a value
delta is decided by two maximum bipartite matchings, one per side, and a
binary search finds the least feasible value among the endpoint
displacements and half-lengths.  No tolerances anywhere: every finite end is
put over one common denominator, twice the lcm of theirs, so the candidates
are integers, and one Fraction is built, for the answer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from fractions import Fraction

from .persistence import Barcode, INF


def hopcroft_karp(adjacency: dict, left_order: list) -> dict:
    """Maximum matching of a bipartite graph: left node -> matched right node.

    ``adjacency`` maps each left node to a list of right nodes; iteration
    order is fixed by ``left_order`` so results are deterministic.
    """
    UNSEEN = -1
    pair_left: dict = {}
    pair_right: dict = {}
    dist: dict = {}

    def bfs() -> bool:
        queue = deque()
        for u in left_order:
            if u not in pair_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = UNSEEN
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = pair_right.get(v)
                if w is None:
                    found = True
                elif dist[w] == UNSEEN:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root) -> bool:
        """Depth-first search for an augmenting path from a free left node
        along the BFS layers, flipped into the matching when found.  The
        path is explicit, so no length meets the recursion limit: ``taken``
        holds the right node taken at each level, whose partner is the left
        node of the next, and ``edges`` the iterator over each level's
        remaining edges."""
        u, taken, edges = root, [], [iter(adjacency[root])]
        while edges:
            for v in edges[-1]:
                w = pair_right.get(v)
                if w is None:
                    taken.append(v)
                    x = root
                    for y in taken:  # each left node on the path takes the next right node
                        pair_left[x], pair_right[y], x = y, x, pair_right.get(y)
                    return True
                if dist[w] == dist[u] + 1:
                    taken.append(v)
                    edges.append(iter(adjacency[w]))
                    u = w
                    break
            else:  # no augmenting path through u
                dist[u] = UNSEEN
                edges.pop()
                if taken:
                    taken.pop()
                    u = pair_right[taken[-1]] if taken else root
        return False

    while bfs():
        for u in left_order:
            if u not in pair_left:
                dfs(u)
    return pair_left


def _adjacency(costs: list[list[int]], nc: int):
    """Each B-bar's C-bars and each C-bar's B-bars, sorted by their pair
    cost, each with the key that reads those costs off the B-bars' rows (no
    transposed table is kept): the pairs of cost <= delta are a prefix of
    each, which `_feasible` takes by bisection.  Only the size of a matching
    is read, so the order of equal costs is free."""
    nodes_b, nodes_c = list(range(len(costs))), list(range(nc))  # shared index objects
    by_b = [(row.__getitem__, sorted(nodes_c, key=row.__getitem__)) for row in costs]
    by_c = [((lambda i, j=j: costs[i][j]),
             sorted(nodes_b, key=[row[j] for row in costs].__getitem__)) for j in nodes_c]
    return by_b, by_c


def _feasible(adjacency, half_b: list[int], half_c: list[int], delta) -> bool:
    """Is there a delta-matching: pairs of cost <= delta covering every long
    bar (half-length > delta)?  ``adjacency`` is the `_adjacency` of the pair
    costs, and the half-lengths ``half_b`` / ``half_c`` are compared with
    ``delta`` directly.  By the Mendelsohn-Dulmage theorem (1958), one
    matching covers the long bars of both sides iff one covers the long
    B-bars and another the long C-bars."""
    by_b, by_c = adjacency
    for half, edges in ((half_b, by_b), (half_c, by_c)):
        long = [i for i, h in enumerate(half) if h > delta]
        into = {}
        for i in long:
            cost, order = edges[i]
            into[i] = order[:bisect_right(order, delta, key=cost)]
        if len(hopcroft_karp(into, long)) < len(long):
            return False
    return True


def _costs(ends_b: list[tuple], ends_c: list[tuple]):
    """Twice the lcm of the denominators of the (birth, death) pairs, and
    over it, as integer numerators, the cost max(|birth diff|, |death diff|)
    of each pair of a B-bar and a C-bar and each bar's half-length."""
    den = 2 * math.lcm(*(x.denominator for pair in ends_b + ends_c for x in pair))

    def over(ends) -> list[tuple[int, int]]:
        return [(b.numerator * (den // b.denominator), d.numerator * (den // d.denominator))
                for b, d in ends]

    ends_b, ends_c = over(ends_b), over(ends_c)
    costs = [[max(abs(b1 - b2), abs(d1 - d2)) for b2, d2 in ends_c] for b1, d1 in ends_b]
    return den, costs, [(d - b) // 2 for b, d in ends_b], [(d - b) // 2 for b, d in ends_c]


def _distance(rays_b: list, rays_c: list, ends_b: list[tuple], ends_c: list[tuple]):
    """Bottleneck distance in one degree between the ray births and finite
    (birth, death) pairs of each side: +inf iff the ray counts differ.
    Finite feasibility is monotone in delta and changes only at a
    candidate, so a binary search finds the least feasible one."""
    if len(rays_b) != len(rays_c):
        return INF
    rays = max((abs(x - y) for x, y in zip(sorted(rays_b), sorted(rays_c))), default=0)
    den, costs, half_b, half_c = _costs(ends_b, ends_c)
    ordered = sorted({0, *half_b, *half_c, *(cost for row in costs for cost in row)})
    adjacency = _adjacency(costs, len(ends_c))
    lo, hi = 0, len(ordered) - 1  # the top candidate is feasible: no bar is long
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(adjacency, half_b, half_c, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(Fraction(ordered[lo], den), rays)


def bottleneck(b: Barcode, c: Barcode):
    """Bottleneck distance: the maximum over the degrees of either barcode
    (``None`` is a degree of its own) of the distance between the bars of
    that degree; 0 when both are empty, +inf iff some degree's infinite-ray
    counts differ.  Each bar's finiteness is read once: a ray gives its
    birth, a finite bar its (birth, death) pair, one per unit of multiplicity."""
    by_degree: dict = {}
    for side, barcode in enumerate((b, c)):
        for bar, m, d in barcode.items:
            parts = by_degree.setdefault(d, ([], [], [], []))  # rays of b, of c, ends of b, of c
            if bar.finite:
                parts[2 + side].extend([(bar.birth, bar.death)] * m)
            else:
                parts[side].extend([bar.birth] * m)
    return max((_distance(*parts) for parts in by_degree.values()), default=Fraction(0))
