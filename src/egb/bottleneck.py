"""Exact bottleneck distance between barcodes.

Feasibility of a delta-matching is decided by maximum bipartite matching on
the augmented graph (bars on both sides plus one deletion slot per bar), and
the distance is the smallest feasible value in the finite candidate set of
endpoint displacements and half-lengths, located by binary search.  No
tolerances anywhere: candidates are exact rationals.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .persistence import Bar, Barcode, INF, is_inf


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

    def dfs(u) -> bool:
        for v in adjacency[u]:
            w = pair_right.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u] = v
                pair_right[v] = u
                return True
        dist[u] = UNSEEN
        return False

    while bfs():
        for u in left_order:
            if u not in pair_left:
                dfs(u)
    return pair_left


def _pair_cost(b1: Bar, b2: Bar):
    """Matching cost max(|birth diff|, |death diff|); INF across finiteness."""
    if b1.finite != b2.finite:
        return INF
    birth = abs(b1.birth - b2.birth)
    if not b1.finite:
        return birth
    return max(birth, abs(b1.death - b2.death))


def _feasible(cost_ranks: list[list[int]], b_ranks: list[int], c_ranks: list[int],
              k: int) -> bool:
    """Is there a delta-matching for delta = the k-th smallest candidate:
    displacements <= delta, deletions only of bars of length <= 2*delta?

    ``cost_ranks[i][j]`` is the rank among the candidates of the pair cost of
    B-bar i and C-bar j, and ``b_ranks`` / ``c_ranks`` those of the bars'
    half-lengths (the candidate count for +inf), so every test is an integer
    comparison.
    """
    nb, nc = len(b_ranks), len(c_ranks)
    # left: B-bars then C-deletion slots; right: C-bars then B-deletion slots
    adjacency: dict = {}
    for i, row in enumerate(cost_ranks):
        edges = [("c", j) for j, r in enumerate(row) if r <= k]
        if b_ranks[i] <= k:
            edges.append(("bslot", i))
        adjacency[("b", i)] = edges
    for j, r in enumerate(c_ranks):
        edges = [("c", j)] if r <= k else []
        edges.extend(("bslot", i) for i in range(nb))
        adjacency[("cslot", j)] = edges
    left_order = [("b", i) for i in range(nb)] + [("cslot", j) for j in range(nc)]
    matching = hopcroft_karp(adjacency, left_order)
    return len(matching) == nb + nc


def bottleneck(b: Barcode, c: Barcode):
    """Bottleneck distance; +inf iff the infinite-ray counts differ.

    Realized as a minimum over the finite candidate set {0, endpoint
    displacement costs, half-lengths}: feasibility is monotone in delta and
    can only change at these values.  Each pair cost is computed once.
    """
    bars_b = b.bars()
    bars_c = c.bars()
    if sum(1 for x in bars_b if not x.finite) != sum(1 for x in bars_c if not x.finite):
        return INF
    half_b = [x.length / 2 if x.finite else INF for x in bars_b]
    half_c = [y.length / 2 if y.finite else INF for y in bars_c]
    costs = [[_pair_cost(x, y) for y in bars_c] for x in bars_b]
    candidates = {Fraction(0), *half_b, *half_c, *(cost for row in costs for cost in row)}
    ordered = sorted(v for v in candidates if not is_inf(v))
    rank = {v: k for k, v in enumerate(ordered)}

    def ranks(values) -> list[int]:
        return [rank.get(v, len(ordered)) for v in values]

    cost_ranks = [ranks(row) for row in costs]
    b_ranks, c_ranks = ranks(half_b), ranks(half_c)
    lo, hi = 0, len(ordered) - 1
    if not _feasible(cost_ranks, b_ranks, c_ranks, hi):
        # cannot happen when infinite counts agree: at max candidate all
        # finite bars are deletable and infinite ones pairwise matchable
        return INF
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cost_ranks, b_ranks, c_ranks, mid):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]
