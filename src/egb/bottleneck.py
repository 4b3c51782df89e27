"""Exact bottleneck distance between barcodes.

The distance is taken degree by degree and is the maximum over the degrees.
In one degree, feasibility of a delta-matching is decided by two maximum
bipartite matchings, one per side, and the distance is the smallest feasible
value in the finite candidate set of endpoint displacements and
half-lengths, located by binary search.  No tolerances anywhere: every
endpoint is put over one common denominator, twice the lcm of theirs, so the
candidates are integer numerators, compared and sorted as integers, and one
Fraction is built, for the answer.
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


def _adjacency(cost_ranks: list[list[int]], nc: int):
    """Each B-bar's C-bars and each C-bar's B-bars, sorted by the rank of
    their pair cost, each with its row of those ranks: the pairs of cost
    rank <= k are a prefix of each, which `_feasible` takes by bisection.
    Only the size of a matching is read, so the order of a node's edges is
    free."""
    def by_rank(rows, count: int) -> list[tuple[list[int], list[int]]]:
        nodes = list(range(count))  # shared index objects, not one per row
        return [(row, sorted(nodes, key=row.__getitem__)) for row in rows]

    return (by_rank(cost_ranks, nc),
            by_rank([[row[j] for row in cost_ranks] for j in range(nc)], len(cost_ranks)))


def _feasible(adjacency, b_ranks: list[int], c_ranks: list[int], k: int) -> bool:
    """Is there a delta-matching for delta = the k-th smallest candidate:
    pairs of cost <= delta covering every long bar (half-length > delta)?

    The arguments are ranks among the candidates, +inf ranking past them
    all: ``adjacency`` is the `_adjacency` of the ranks of the pair costs of
    B-bar i and C-bar j, ``b_ranks`` / ``c_ranks`` the ranks of the
    half-lengths.  By the Mendelsohn-Dulmage theorem (1958), one matching
    covers the long bars of both sides iff one covers the long B-bars and
    another the long C-bars.
    """
    by_b, by_c = adjacency
    for ranks, edges in ((b_ranks, by_b), (c_ranks, by_c)):
        long = [i for i, r in enumerate(ranks) if r > k]
        into = {}
        for i in long:
            row, order = edges[i]
            into[i] = order[:bisect_right(order, k, key=row.__getitem__)]
        if len(hopcroft_karp(into, long)) < len(long):
            return False
    return True


def _denominator(ends: list[tuple]) -> int:
    """Twice the lcm of the denominators of the finite ends of the (birth,
    death) pairs, death None for +inf: over it every end, pair cost and
    half-length is an integer numerator."""
    return 2 * math.lcm(*(b.denominator for b, _ in ends),
                        *(d.denominator for _, d in ends if d is not None))


def _ranks(ends_b: list[tuple], ends_c: list[tuple]):
    """`_denominator` of the (birth, death) pairs of the bars, the finite
    candidates {0, pair costs, half-lengths} over it as integer numerators
    in increasing order, and the ranks of the pair costs and half-lengths
    among them that `_feasible` reads.  A pair costs max(|birth diff|,
    |death diff|), or |birth diff| for two rays, and +inf across finiteness;
    each is computed once."""
    den = _denominator(ends_b + ends_c)

    def over(ends) -> list[tuple]:
        return [(b.numerator * (den // b.denominator),
                 None if d is None else d.numerator * (den // d.denominator)) for b, d in ends]

    ends_b, ends_c = over(ends_b), over(ends_c)
    half_b = [INF if d is None else (d - b) // 2 for b, d in ends_b]
    half_c = [INF if d is None else (d - b) // 2 for b, d in ends_c]
    costs = [[max(abs(b1 - b2), abs(d1 - d2)) if d1 is not None and d2 is not None
              else abs(b1 - b2) if d1 is d2 else INF
              for b2, d2 in ends_c] for b1, d1 in ends_b]
    candidates = {0, *half_b, *half_c, *(cost for row in costs for cost in row)}
    candidates.discard(INF)
    ordered = sorted(candidates)
    rank = {v: k for k, v in enumerate(ordered)}

    def ranks(values) -> list[int]:
        return [rank.get(v, len(ordered)) for v in values]

    return den, ordered, [ranks(row) for row in costs], ranks(half_b), ranks(half_c)


def _distance(ends_b: list[tuple], ends_c: list[tuple]):
    """Bottleneck distance between the (birth, death) pairs of one degree,
    death None for +inf, and +inf iff the ray counts differ: feasibility is
    monotone in delta and changes only at a candidate, so a binary search
    finds the least feasible one, the one Fraction built."""
    if sum(d is None for _, d in ends_b) != sum(d is None for _, d in ends_c):
        return INF
    den, ordered, cost_ranks, b_ranks, c_ranks = _ranks(ends_b, ends_c)
    adjacency = _adjacency(cost_ranks, len(c_ranks))
    # the top candidate is feasible: no finite bar is long, equal ray counts match
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(adjacency, b_ranks, c_ranks, mid):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(ordered[lo], den)


def bottleneck(b: Barcode, c: Barcode):
    """Bottleneck distance: the maximum over the degrees of either barcode
    (``None`` is a degree of its own) of the distance between the bars of
    that degree; 0 when both are empty, +inf iff some degree's infinite-ray
    counts differ.  Each bar's finiteness is read once, into its (birth,
    death or None for +inf) pair, one per unit of multiplicity."""
    by_degree: dict = {}
    for side, barcode in enumerate((b, c)):
        for bar, m, d in barcode.items:
            pair = (bar.birth, bar.death if bar.finite else None)
            by_degree.setdefault(d, ([], []))[side].extend([pair] * m)
    return max((_distance(x, y) for x, y in by_degree.values()), default=Fraction(0))
