"""Edge-colored graph machinery: the graph type `EdgeColoredGraph`, which
`udg.DecoratedUDG` extends with edge signs and directions, the
average-degree core, cut-robust vertex sets, and the greedy connected
color cover, each with an independently verifiable output contract.

Tables are keyed by edge endpoints, never by the vertex ids 1..n; only
`robust_core`, whose contract covers isolated vertices, starts from [1, n].
Each stage of `color_cover` is one flat pass over integers, and G's edges
are grouped by color once per call: the properness check asks each color
class to be a matching, the core peels neighbour lists against the integer
threshold deg·n < |E|, the descent narrows one edge list (G's own when the
core keeps every edge), the greedy reads a flat vertex → root table over
the final W's classes (G's when no edge was dropped), and the contract
check re-scans G with a small union–find over W.

Every threshold comparison Δ < r·log₂(imb) is decided exactly: for rational
r = p/q it reduces to the integer comparison 2^(Δq)·min^p < |W|^p. The only
place a logarithm is *computed* (rationalizing r = C·q·log₂log₂ n) uses a
certified dyadic upper bound, and the final contract never depends on it.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Optional, Sequence

from . import kernels
from .ratlin import RationalLike, log2_interval, rat

Edge = tuple[int, int]

DEFAULT_EXHAUSTIVE_CAP = 18
# An exhaustive search over w vertices covers 2^(w−1) − 1 cuts; pruning
# skips most of them, but a dense graph at a large r leaves up to about
# twice the work per added vertex. One search over 22 vertices took up to
# 1.3 s (312 random G(22, p), p from 0.3 to 1, r from 1/4 to 1024; x86-64,
# Python 3.11).
MAX_EXHAUSTIVE_CAP = 22


def exhaustive_cap(override: Optional[int] = None) -> int:
    return DEFAULT_EXHAUSTIVE_CAP if override is None else override


class GraphError(ValueError):
    pass


class CoverFailure(RuntimeError):
    """A search step could not meet its contract; carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class EdgeColoredGraph:
    """Simple undirected graph on [n] with an edge coloring."""

    n: int
    edges: tuple[Edge, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("need at least one vertex")
        if len(self.edges) != len(self.colors):
            raise GraphError("one color per edge required")
        seen = set()
        for a, b in self.edges:
            if not (1 <= a < b <= self.n):
                raise GraphError(f"bad edge ({a},{b})")
            if (a, b) in seen:
                raise GraphError(f"duplicate edge ({a},{b})")
            seen.add((a, b))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def max_color_degree(self) -> int:
        """Largest number of equal-colored edges at a single vertex; at most
        1 iff the coloring is proper. Counts the keys v + (n+1)·c, which
        are distinct for distinct (v, c) since 1 ≤ v ≤ n."""
        s = self.n + 1
        keys = [a + s * c for (a, _), c in zip(self.edges, self.colors)]
        keys += [b + s * c for (_, b), c in zip(self.edges, self.colors)]
        return max(Counter(keys).values(), default=0)

    def induced_edges(self, W: Sequence[int]) -> list[tuple[Edge, int]]:
        wset = set(W)
        return [
            ((a, b), c)
            for (a, b), c in zip(self.edges, self.colors)
            if a in wset and b in wset
        ]


# --- exact threshold comparisons ----------------------------------------------


def weak_delta_table(w: int, r: Fraction) -> list[int]:
    """thr[s] = largest Δ with Δ < r·log₂(w/s) for min-side size s (−1: none).

    For r = p/q > 0 that is k // q, k the largest shift with s^p·2^k < w^p:
    the bit-length difference of w^p and s^p, or one less."""
    p, q = r.numerator, r.denominator
    thr = [-1] * (w // 2 + 1)
    if p <= 0:
        return thr  # r·log₂(w/s) ≤ 0 ≤ Δ
    wp = w**p
    for s in range(1, w // 2 + 1):
        sp = s**p
        k = wp.bit_length() - sp.bit_length()
        thr[s] = (k - 1 if sp << k >= wp else k) // q
    return thr


def degree_at_least_r_log(deg: int, r: Fraction, value: Fraction) -> bool:
    """Exact test deg ≥ r·log₂(value) for rational value > 0."""
    if value <= 1:
        return True
    p, q = r.numerator, r.denominator
    num, den = value.numerator, value.denominator
    # deg ≥ r·log₂(num/den)  ⟺  2^(deg·q)·den^p ≥ num^p
    return (1 << (deg * q)) * den**p >= num**p


# --- average-degree core -------------------------------------------------------


def min_degree_core(G: EdgeColoredGraph) -> tuple[int, ...]:
    """Vertices surviving repeated deletion of degree < δ/2 (δ = average
    degree of the original graph); nonempty with min degree ≥ δ/2.

    Peeling starts from the edge endpoints: an isolated vertex has degree
    0 < δ/2, and the surviving set does not depend on the deletion order.
    A vertex is deleted while deg < δ/2 = |E|/n, i.e. while deg·n < |E|.
    """
    return _peel(G)[0]


def _peel(G: EdgeColoredGraph) -> tuple[tuple[int, ...], bool]:
    """min_degree_core, and whether it deleted no edge endpoint, so that
    the core's induced edges are all of G's."""
    n, m = G.n, G.edge_count
    if m == 0:
        raise GraphError("graph has no edges")
    adj: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in G.edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = {v: len(nbrs) for v, nbrs in adj.items()}  # the surviving vertices
    stack = [v for v, d in deg.items() if d * n < m]
    while stack:
        v = stack.pop()
        if v not in deg:
            continue
        del deg[v]
        for u in adj[v]:
            if u in deg:
                deg[u] -= 1
                if deg[u] * n < m:
                    stack.append(u)
    assert deg, "averaging argument guarantees a nonempty core"
    return tuple(sorted(deg)), len(deg) == len(adj)


# --- weak cuts and the robust core --------------------------------------------


@dataclass(frozen=True)
class WeakCut:
    A: tuple[int, ...]
    B: tuple[int, ...]
    delta: int


def _vertex_set(G: EdgeColoredGraph, W: Sequence[int]) -> tuple[int, ...]:
    """W sorted, once its vertices are known to be distinct and in [1, n]."""
    W = tuple(sorted(W))
    if any(a == b for a, b in zip(W, W[1:])):
        raise GraphError("vertex set has a repeated vertex")
    if W and not (1 <= W[0] and W[-1] <= G.n):
        raise GraphError(f"vertex set has a vertex outside [1, {G.n}]")
    return W


def _restricted_masks(W: Sequence[int], edges: list[tuple[Edge, int]]) -> list[int]:
    """Neighbourhood bitmasks of the sorted set W from its induced edges."""
    bit = {v: 1 << i for i, v in enumerate(W)}
    nbrs: dict[int, list[int]] = {v: [] for v in W}
    for (a, b), _ in edges:
        nbrs[a].append(bit[b])
        nbrs[b].append(bit[a])
    return [sum(bits) for bits in nbrs.values()]  # distinct bits: sum is OR


def _mask_to_cut(W: Sequence[int], mask: int, delta: int) -> WeakCut:
    A = tuple(v for i, v in enumerate(W) if (mask >> i) & 1)
    B = tuple(v for i, v in enumerate(W) if not (mask >> i) & 1)
    return WeakCut(A, B, delta)


def find_weak_cut(G: EdgeColoredGraph, W: Sequence[int], r: RationalLike,
                  cap: Optional[int] = None, seed: int = 0) -> Optional[WeakCut]:
    """A bipartition (A, B) of W with Δ(A,B) < r·log₂ imb(A,B), or None.

    First the degree sequence of G[W] is tested: a cut whose smaller side
    has s vertices has Δ ≥ d₍ₛ₎ − s + 1, d₍ₛ₎ the s-th smallest degree
    (`kernels.weak_cut_bounds`), and when that exceeds the weak threshold
    for every s, None is returned without a search. Either search would
    return None there too, since each returns only a cut whose Δ it has
    checked against the threshold. Otherwise exhaustive over all
    2^(|W|−1)−1 cuts when |W| ≤ the exhaustive cap (returning the
    minimum-Δ weak cut, ties to the earliest in canonical order); beyond
    the cap a heuristic search over singleton cuts, BFS-ball cuts from
    every vertex at every radius, and a seeded local-search pass.
    W must be at least two distinct vertices of G.
    """
    W = _vertex_set(G, W)
    if len(W) < 2:
        raise GraphError("need at least two vertices")
    masks = _restricted_masks(W, G.induced_edges(W))
    return _weak_cut(W, masks, rat(r), cap, seed)


def _weak_cut(W: tuple[int, ...], masks: list[int], r: Fraction,
              cap: Optional[int], seed: int) -> Optional[WeakCut]:
    """find_weak_cut on the sorted set W with its neighbourhood bitmasks."""
    thr = weak_delta_table(len(W), r)
    if kernels.weak_cut_bounds(masks, thr)[1] < 0:
        return None  # the degree sequence rules out every weak cut
    if len(W) > exhaustive_cap(cap):
        return _heuristic_weak_cut(W, masks, thr, seed)
    hit = kernels.min_weak_cut(masks, thr)
    if hit is None:
        return None
    mask, delta = hit
    return _mask_to_cut(W, mask, delta)


def _heuristic_weak_cut(W: tuple[int, ...], masks: list[int], thr: list[int],
                        seed: int) -> Optional[WeakCut]:
    w = len(W)
    full = (1 << w) - 1
    candidates: set[int] = set()

    def add(mask: int):
        if mask & 1:
            mask ^= full  # canonical side: vertex 0 stays in B
        if mask not in (0, full):
            candidates.add(mask)

    for i in range(w):
        add(1 << i)
    # BFS balls from every vertex at every radius
    for src in range(w):
        ball = 1 << src
        frontier = 1 << src
        while True:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= masks[low.bit_length() - 1]
                frontier ^= low
            nxt &= ~ball & full
            if not nxt:
                break
            ball |= nxt
            frontier = nxt
            if ball != full:
                add(ball)
    # seeded local search: flip vertices to reduce Δ
    deg = [m.bit_count() for m in masks]
    rng = random.Random(seed)
    for _ in range(8):
        mask = 0
        for v in range(w):
            if rng.random() < 0.5:
                mask |= 1 << v
        if mask in (0, full):
            continue
        for _ in range(2 * w):
            add(mask)
            v = _best_flip(masks, deg, mask, full)
            if v < 0:
                break
            mask ^= 1 << v
    best_mask, best_delta = -1, w  # every Δ is below w
    for mask in sorted(candidates):
        pc = mask.bit_count()
        limit = min(thr[min(pc, w - pc)], best_delta - 1)
        if limit < 0:
            continue
        delta = kernels.cut_max_degree(masks, mask, limit)
        if delta <= limit:
            best_mask, best_delta = mask, delta
    if best_mask < 0:
        return None
    return _mask_to_cut(W, best_mask, best_delta)


def _best_flip(masks: list[int], deg: list[int], mask: int, full: int) -> int:
    """The first vertex, in index order, whose flip gives the smallest Δ
    below Δ(mask), or −1; flips that empty a side are skipped.

    Flipping v changes only the cross degrees c of v (to deg v − c[v]), of
    its same-side neighbours (+1) and of its other-side neighbours (−1).
    With atleast[d] the vertices whose c ≥ d, some vertex has c ≥ d after
    the flip iff deg v − c[v] ≥ d or one of three AND tests hits, so each
    flip is decided in O(1) big-int operations and the exact Δ is walked
    down the levels only for a flip that wins.
    """
    w = len(masks)
    other = full ^ mask
    cross = [(masks[v] & (other if (mask >> v) & 1 else mask)).bit_count()
             for v in range(w)]
    cur = max(cross)
    atleast = [0] * (cur + 2)
    for v, c in enumerate(cross):
        atleast[c] |= 1 << v
    for d in range(cur - 1, -1, -1):
        atleast[d] |= atleast[d + 1]

    def reaches(d: int, rest: int, same: int, opp: int) -> bool:
        return bool(atleast[d] & rest or atleast[d - 1] & same
                    or atleast[d + 1] & opp)

    best_v, best_d = -1, cur
    for v in range(w):
        bit = 1 << v
        dv = deg[v] - cross[v]
        if dv >= best_d or mask in (bit, full ^ bit):
            continue
        nv = masks[v]
        same = nv & (mask if mask & bit else other)
        opp = nv ^ same
        rest = ~(nv | bit)
        if reaches(best_d, rest, same, opp):
            continue
        d = best_d - 1
        while d > dv and not reaches(d, rest, same, opp):
            d -= 1
        best_v, best_d = v, d
    return best_v


@dataclass(frozen=True)
class RobustCoreResult:
    W: tuple[int, ...]
    trace: tuple[WeakCut, ...]
    hypothesis_met: bool  # min degree ≥ r·log₂ n


def robust_core(G: EdgeColoredGraph, r: RationalLike,
                cap: Optional[int] = None, seed: int = 0) -> RobustCoreResult:
    """Shrink V by descending into the smaller side of weak cuts (ties to A)
    until no weak cut is found; |W| ≥ 2 guaranteed when the minimum-degree
    hypothesis holds and the search is exhaustive."""
    return _descend(tuple(range(1, G.n + 1)), list(zip(G.edges, G.colors)),
                    rat(r), cap, seed)[0]


def _descend(V: tuple[int, ...], edges: list[tuple[Edge, int]], r: Fraction,
             cap: Optional[int], seed: int,
             ) -> tuple[RobustCoreResult, list[tuple[Edge, int]]]:
    """robust_core on the subgraph induced by the sorted vertex set V, with
    n = |V| and degrees taken inside V, given that subgraph's (edge, color)
    list; also returns the final W's induced edges, a sublist of `edges`,
    which is `edges` itself when no cut is found. Each cut filters the
    current W's edge list to the side the descent keeps.

    deg ≥ r·log₂ n is monotone in deg, so the smallest degree in V decides
    the hypothesis for every vertex."""
    W = V
    masks = _restricted_masks(W, edges)
    hypothesis = degree_at_least_r_log(min(m.bit_count() for m in masks), r,
                                       Fraction(len(V)))
    trace = []
    while len(W) >= 2:
        cut = _weak_cut(W, masks, r, cap, seed)
        if cut is None:
            return RobustCoreResult(W, tuple(trace), hypothesis), edges
        trace.append(cut)
        W = cut.A if len(cut.A) <= len(cut.B) else cut.B
        wset = set(W)
        edges = [e for e in edges if e[0][0] in wset and e[0][1] in wset]
        masks = _restricted_masks(W, edges)
    raise CoverFailure(
        "cut descent reached a single vertex (hypothesis unmet or heuristic miss)",
        trace=tuple(trace),
    )


def verify_no_weak_cut(G: EdgeColoredGraph, W: Sequence[int],
                       r: RationalLike) -> bool:
    """Exhaustive check that every cut (A,B) of W has Δ(A,B) ≥ r·log₂ imb."""
    W = _vertex_set(G, W)
    if len(W) < 2:
        return False
    masks = _restricted_masks(W, G.induced_edges(W))
    thr = weak_delta_table(len(W), rat(r))
    return kernels.min_weak_cut(masks, thr) is None


# --- greedy color cover ---------------------------------------------------------


def _links(root: dict[int, int], edges: list[Edge]) -> dict[int, int]:
    """The links (child root → parent root) that adding these edges would
    make between the components that `root` labels, one per merge; `root`
    is not mutated."""
    link: dict[int, int] = {}
    for a, b in edges:
        ra, rb = root[a], root[b]
        while ra in link:  # path splitting keeps the chains short
            up = link[ra]
            if up in link:
                link[ra] = link[up]
            ra = up
        while rb in link:
            up = link[rb]
            if up in link:
                link[rb] = link[up]
            rb = up
        if ra != rb:
            link[rb] = ra
    return link


def _merges_if_added(root: dict[int, int], edges: list[Edge]) -> int:
    """Union count if these edges were added to the components that `root`
    labels."""
    return len(_links(root, edges))


@dataclass(frozen=True)
class GreedyTrace:
    colors_chosen: tuple[int, ...]
    component_counts: tuple[int, ...]  # m₀ = |W| down to 1


def greedy_color_cover(G: EdgeColoredGraph, W: Sequence[int]) -> tuple[tuple[int, ...], GreedyTrace]:
    """Colors I chosen greedily (component-count-minimizing, ties to the
    smallest color id) until G[I, W] is connected; m strictly decreases.

    A color's gain is the drop in the component count if it were added:
    the rank increment of its edges in the graphic matroid of G[W]. Rank
    is submodular, so a gain never grows as colors are chosen, and gains
    are rescored lazily (Minoux's accelerated greedy): a heap holds each
    color under a stale gain, which is never below its current gain, and
    only the top is rescored. The top is taken once its fresh (−gain, id)
    key is still at most both children's stale keys, so the choice, ties
    included, is the one a full rescoring would make.

    Runs on any coloring; properness (needed for the color-count contract)
    is enforced by color_cover, not here. W must be distinct vertices of G.
    """
    W = _vertex_set(G, W)
    return _greedy_cover(W, _color_classes(G.induced_edges(W)))


def _color_classes(edges: Iterable[tuple[Edge, int]]) -> dict[int, list[Edge]]:
    """Each color's edges, in the given order; colors in order of first
    appearance."""
    by_color: dict[int, list[Edge]] = {}
    for e, c in edges:
        by_color.setdefault(c, []).append(e)
    return by_color


def _is_proper(by_color: dict[int, list[Edge]]) -> bool:
    """Each color class is a matching, i.e. max_color_degree() ≤ 1; a
    single edge is one."""
    return all(len(set(chain.from_iterable(edges))) == 2 * len(edges)
               for edges in by_color.values() if len(edges) > 1)


def _greedy_cover(W: tuple[int, ...], by_color: dict[int, list[Edge]],
                  ) -> tuple[tuple[int, ...], GreedyTrace]:
    """greedy_color_cover on the sorted set W with its color classes.

    `root` maps each vertex of W to its component's root and is refreshed
    over W after each chosen color, so a gain reads it directly."""
    root = {v: v for v in W}
    count = len(W)

    def gain(c: int) -> int:
        edges = by_color[c]
        if len(edges) == 1:
            (a, b), = edges
            return int(root[a] != root[b])
        return _merges_if_added(root, edges)

    # a color's edge count bounds its gain
    heap = [(-len(edges), c) for c, edges in by_color.items()]
    heapq.heapify(heap)
    chosen: list[int] = []
    counts = [count]
    while count > 1:
        while heap:
            c = heap[0][1]
            g = gain(c)
            if not g:  # gains never grow: c can never be chosen
                heapq.heappop(heap)
                continue
            key, size = (-g, c), len(heap)
            if ((size < 2 or key < heap[1])
                    and (size < 3 or key < heap[2])):
                heapq.heappop(heap)
                break
            heapq.heapreplace(heap, key)
        else:
            raise CoverFailure(
                "no color reduces the component count (G[W] disconnected)",
                trace=GreedyTrace(tuple(chosen), tuple(counts)),
            )
        link = _links(root, by_color[c])
        for v in W:
            r = root[v]
            while r in link:
                r = link[r]
            root[v] = r
        count -= len(link)
        chosen.append(c)
        counts.append(count)
    return tuple(chosen), GreedyTrace(tuple(chosen), tuple(counts))


# --- the combined cover search ---------------------------------------------------


@dataclass(frozen=True)
class CutParams:
    r: Fraction
    q: Fraction
    C: Fraction


@dataclass(frozen=True)
class CoverResult:
    W: tuple[int, ...]
    I: tuple[int, ...]
    colors_in_W: int
    trace: GreedyTrace
    robust: RobustCoreResult
    params: CutParams
    edge_hypothesis_met: bool


_LogBounds = Optional[tuple[Fraction, Fraction]]


def _log_bounds(n: int) -> _LogBounds:
    """Certified upper bounds (log₂ n, log₂ log₂ n), or None when log₂ n ≤ 1,
    where log₂ log₂ n ≤ 0 and both density terms are clamped.

    Each bound is the upper end of a width-2^−12 `log2_interval`, which
    squares 96-bit integers rather than raising to the 4096th power."""
    lg = log2_interval(Fraction(n)).hi
    return (lg, log2_interval(lg).hi) if lg > 1 else None


def _rationalized_r(logs: _LogBounds, q: Fraction, C: Fraction) -> Fraction:
    """Upper bound for C·q·log₂ log₂ n with denominator ≤ 256, from
    `_log_bounds(n)`.

    The small denominator keeps the exact power comparisons 2^(Δ·den)
    cheap; rounding up only strengthens the robustness requirement, and the
    cover contract is verified independently of r.
    """
    # log₂ log₂ n ≤ 0 would make r nonpositive; clamp
    r = C * q * logs[1] if logs else C * q
    num = -((-r.numerator * 256) // r.denominator)  # ceil(r·256)
    return Fraction(num, 256)


def verify_cover(G: EdgeColoredGraph, W: Sequence[int], I: Sequence[int],
                 q: RationalLike) -> bool:
    """Independent contract check: G[I, W] connected and ≥ q·|I| colors on
    G[W]. False when W has fewer than two vertices or a repeated one; a
    vertex of W outside G is isolated in G[I, W].

    G is rescanned: a union–find over W joins the edges whose color is in
    I, then G[W]'s colors are collected until ⌈q·|I|⌉ of them are seen."""
    parent = {v: v for v in W}
    if len(W) < 2 or len(parent) != len(W):
        return False
    iset = set(I)
    parts = len(parent)
    for a, b in compress(G.edges, map(iset.__contains__, G.colors)):
        if a in parent and b in parent:
            while parent[a] != a:  # path halving
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
                parts -= 1
    if parts != 1:
        return False
    need = math.ceil(rat(q) * len(I))
    colors: set[int] = set()
    for (a, b), c in zip(G.edges, G.colors):
        if len(colors) >= need:
            break
        if a in parent and b in parent:
            colors.add(c)
    return len(colors) >= need


def color_cover(G: EdgeColoredGraph, q: RationalLike, C: RationalLike = 1,
                cap: Optional[int] = None, seed: int = 0) -> CoverResult:
    """Pipeline min_degree_core → robust_core (r = C·q·log₂log₂ n) → greedy
    cover, with the output contract verified before returning.

    G's color classes are built once: the coloring is proper iff each
    class is a matching (max_color_degree() ≤ 1), and they are G[W]'s
    classes when neither the core nor the descent drops an edge.
    min_degree_core peels neighbour lists, the descent starts from G's own
    edge list when the core keeps every edge (the core's induced edges
    otherwise) and narrows it to each W it keeps, the greedy reads a
    vertex → root table refreshed after each chosen color, and verify_cover
    independently rescans G.

    Raises CoverFailure when any stage or the final contract check fails —
    a legitimate outcome below the density hypothesis — and ValueError when
    q ≤ 0 or C ≤ 0, which would make r ≤ 0.
    """
    return _color_cover(G, q, C, cap, seed)[0]


def _color_cover(G: EdgeColoredGraph, q: RationalLike, C: RationalLike,
                 cap: Optional[int], seed: int,
                 ) -> tuple[CoverResult, dict[int, list[Edge]]]:
    """color_cover, also returning the color classes of G[W]."""
    q, C = rat(q), rat(C)
    if q <= 0 or C <= 0:
        raise ValueError("q and C must be positive")
    if G.n < 4:
        raise GraphError("need n >= 4")
    all_edges = list(zip(G.edges, G.colors))
    classes = _color_classes(all_edges)
    if not _is_proper(classes):
        raise GraphError("edge coloring must be proper")
    logs = _log_bounds(G.n)
    r = _rationalized_r(logs, q, C)
    core, kept_all = _peel(G)
    robust, edges = _descend(core, all_edges if kept_all
                             else G.induced_edges(core), r, cap, seed)
    W = robust.W
    by_color = (classes if len(edges) == len(all_edges)
                else _color_classes(edges))
    I, trace = _greedy_cover(W, by_color)
    result = CoverResult(
        W=W,
        I=tuple(sorted(I)),
        colors_in_W=len(by_color),
        trace=trace,
        robust=robust,
        params=CutParams(r=r, q=q, C=C),
        # |E| ≥ C·q·n·log₂ n·log₂ log₂ n against the certified upper bounds
        edge_hypothesis_met=(logs is None or G.edge_count
                             >= C * q * G.n * logs[0] * logs[1]),
    )
    if not verify_cover(G, W, I, q):
        raise CoverFailure(
            f"cover contract not met: {result.colors_in_W} colors on G[W] "
            f"vs q·|I| = {q * len(I)}",
            trace=result,
        )
    return result, by_color
