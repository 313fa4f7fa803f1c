import collections
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from udnorm import colored, jsonio, kernels
from udnorm.colored import (
    CoverFailure,
    EdgeColoredGraph,
    GraphError,
    GreedyTrace,
    _log_bounds,
    _rationalized_r,
    color_cover,
    degree_at_least_r_log,
    find_weak_cut,
    greedy_color_cover,
    min_degree_core,
    robust_core,
    verify_cover,
    verify_no_weak_cut,
    weak_delta_table,
)


def rainbow_complete(n):
    edges = tuple(itertools.combinations(range(1, n + 1), 2))
    return EdgeColoredGraph(n, edges, tuple(range(1, len(edges) + 1)))


def random_graph(rng, n, p):
    edges = tuple(
        e for e in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    )
    colors = tuple(range(1, len(edges) + 1))  # rainbow: always proper
    return EdgeColoredGraph(n, edges, colors)


def adjacency(G):
    """Neighbour sets keyed by edge endpoints; any other vertex reads as
    empty."""
    adj = collections.defaultdict(set)
    for a, b in G.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def greedy_proper_coloring(n, edges):
    """Assign each edge the smallest color free at both endpoints."""
    used = {}
    colors = []
    for a, b in edges:
        c = 1
        while (a, c) in used or (b, c) in used:
            c += 1
        used[(a, c)] = used[(b, c)] = True
        colors.append(c)
    return tuple(colors)


def delta_below_r_log_imb(delta: int, r: Fraction, total: int, min_side: int) -> bool:
    """Reference: the exact test Δ < r·log₂(imb) with imb = total/min_side,
    as the integer comparison 2^(Δ·q)·min^p < total^p for r = p/q."""
    p, q = r.numerator, r.denominator
    return (1 << (delta * q)) * min_side**p < total**p


class TestThresholds:
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1), Fraction(2),
                                   Fraction(2001, 1000)])
    def test_matches_float(self, r):
        for total in range(2, 40):
            for mn in range(1, total // 2 + 1):
                exact = delta_below_r_log_imb(3, r, total, mn)
                approx = 3 < float(r) * math.log2(total / mn)
                # disagreement only possible within float noise of equality
                if exact != approx:
                    assert abs(3 - float(r) * math.log2(total / mn)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 256), st.data())
    def test_table_consistent(self, w, den, data):
        r = Fraction(data.draw(st.integers(-den, 1024 * den)), den)
        thr = weak_delta_table(w, r)
        assert len(thr) == w // 2 + 1
        for s in range(1, w // 2 + 1):
            d = thr[s]
            assert d == -1 or delta_below_r_log_imb(d, r, w, s)
            assert not delta_below_r_log_imb(d + 1, r, w, s)

    def test_degree_threshold(self):
        assert degree_at_least_r_log(3, Fraction(1), Fraction(8))
        assert not degree_at_least_r_log(2, Fraction(1), Fraction(9))
        assert degree_at_least_r_log(0, Fraction(5), Fraction(1, 2))

    def test_rationalized_r_small_denominator(self):
        for n in (4, 5, 16, 100, 200):
            r = _rationalized_r(_log_bounds(n), Fraction(2001, 1000), Fraction(1))
            assert r.denominator <= 256
            assert float(r) >= 2.001 * math.log2(math.log2(n)) - 1e-9


class TestMaxColorDegree:
    @pytest.mark.parametrize("coloring", ["proper", "improper"])
    def test_matches_brute_count(self, coloring):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 10)
            edges = tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                          if rng.random() < 0.5)
            colors = (greedy_proper_coloring(n, edges) if coloring == "proper"
                      else tuple(rng.randint(1, 3) for _ in edges))
            G = EdgeColoredGraph(n, edges, colors)
            brute = max((sum(v in e and c == col for e, c in zip(edges, colors))
                         for v in range(1, n + 1) for col in set(colors)),
                        default=0)
            assert G.max_color_degree() == brute
            if coloring == "proper":
                assert brute <= 1


class TestMinDegreeCore:
    def test_regular_graph_kept(self):
        G = rainbow_complete(4)
        assert min_degree_core(G) == (1, 2, 3, 4)

    def test_pendant_deleted(self):
        edges = tuple(itertools.combinations(range(1, 5), 2)) + ((1, 5),)
        G = EdgeColoredGraph(5, tuple(sorted(edges)),
                             tuple(range(1, len(edges) + 1)))
        assert min_degree_core(G) == (1, 2, 3, 4)

    def test_single_edge(self):
        G = EdgeColoredGraph(2, ((1, 2),), (1,))
        assert min_degree_core(G) == (1, 2)

    def test_requires_edges(self):
        with pytest.raises(GraphError):
            min_degree_core(EdgeColoredGraph(3, (), ()))

    def test_isolated_vertices_cost_nothing(self):
        # K4 plus 99,996 isolated vertices: peeling starts from the edge
        # endpoints, so memory does not grow with n
        G = EdgeColoredGraph(100_000, tuple(itertools.combinations(range(1, 5), 2)),
                             tuple(range(1, 7)))
        tracemalloc.start()
        try:
            core = min_degree_core(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert core == (1, 2, 3, 4)
        assert peak < 1 << 20

    def test_cover_and_check_cost_nothing(self):
        # rainbow K6 plus 99,994 isolated vertices: the cover search and its
        # contract check key every table by edge endpoints or by W
        K6 = rainbow_complete(6)
        G = EdgeColoredGraph(100_000, K6.edges, K6.colors)
        tracemalloc.start()
        try:
            res = color_cover(G, 2, Fraction(1, 8))
            ok = verify_cover(G, res.W, res.I, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.W == (1, 2, 3, 4, 5, 6)
        assert ok
        assert peak < 1 << 20

    def test_min_degree_property(self):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(2, 12)
            G = random_graph(rng, n, rng.uniform(0.2, 0.9))
            if not G.edges:
                continue
            core = min_degree_core(G)
            threshold = Fraction(2 * G.edge_count, G.n) / 2
            adj = adjacency(G)
            cset = set(core)
            for v in core:
                assert len(adj[v] & cset) >= threshold


class TestFindWeakCut:
    def test_k4_none(self):
        assert find_weak_cut(rainbow_complete(4), (1, 2, 3, 4), 1) is None

    def test_star_leaf_singleton(self):
        star = EdgeColoredGraph(6, tuple((1, v) for v in range(2, 7)),
                                (1, 2, 3, 4, 5))
        cut = find_weak_cut(star, tuple(range(1, 7)), 1)
        assert cut is not None
        assert len(cut.A) == 1 and cut.A[0] != 1
        assert cut.delta == 1

    def test_disconnected_component_split(self):
        tt = EdgeColoredGraph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)),
                              (1, 2, 3, 1, 2, 3))
        cut = find_weak_cut(tt, tuple(range(1, 7)), 1)
        assert cut.delta == 0
        assert sorted(cut.A) == [4, 5, 6]


    def test_heuristic_finds_clique_split(self):
        # two 8-cliques joined by one edge; |W| = 16 > cap, so no exhaustive search
        left, right = range(1, 9), range(9, 17)
        edges = (list(itertools.combinations(left, 2)) + [(8, 9)]
                 + list(itertools.combinations(right, 2)))
        G = EdgeColoredGraph(16, tuple(edges), tuple(range(1, len(edges) + 1)))
        cut = find_weak_cut(G, tuple(range(1, 17)), 2, cap=8)
        assert {cut.A, cut.B} == {tuple(left), tuple(right)}
        assert cut.delta == 1
        assert delta_below_r_log_imb(cut.delta, Fraction(2), 16, 8)

    def test_heuristic_rainbow_complete_none(self):
        assert find_weak_cut(rainbow_complete(12), tuple(range(1, 13)), 1,
                             cap=6) is None

    def test_heuristic_same_seed_same_cut(self):
        # a planted two-part graph on which the seeded local search decides
        # the result: seeds 0 and 3 give different weak cuts
        rng = random.Random(28)
        n = rng.randint(12, 22)
        part = set(rng.sample(range(1, n + 1), n // 2))
        edges = tuple(
            (a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < (0.7 if (a in part) == (b in part) else 0.12))
        G = EdgeColoredGraph(n, edges, tuple(range(1, len(edges) + 1)))
        W = tuple(range(1, n + 1))
        cuts = [find_weak_cut(G, W, 2, cap=8, seed=s) for s in (0, 3, 0, 3)]
        assert cuts[0] != cuts[1]
        assert cuts[2:] == cuts[:2]

    def test_exhaustive_up_to_cap(self, monkeypatch):
        def heuristic(*args):
            raise AssertionError("heuristic search at |W| <= cap")
        monkeypatch.setattr(colored, "_heuristic_weak_cut", heuristic)
        assert find_weak_cut(rainbow_complete(8), tuple(range(1, 9)), 1,
                             cap=8) is None

class TestDegreeProof:
    """find_weak_cut returns None without a search when the degree sequence
    rules out every weak cut (`kernels.weak_cut_bounds`)."""

    def test_skips_both_searches(self, monkeypatch):
        def search(*args):
            raise AssertionError("searched a set the degree proof settles")
        monkeypatch.setattr(colored, "_heuristic_weak_cut", search)
        monkeypatch.setattr(kernels, "min_weak_cut", search)
        G = rainbow_complete(12)
        for cap in (6, None):
            assert find_weak_cut(G, tuple(range(1, 13)), 1, cap=cap) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(9, 40), st.sampled_from([0.5, 0.8, 0.95, 1.0]),
           st.booleans(), st.integers(0, 2**32), st.integers(1, 64),
           st.integers(0, 9))
    def test_heuristic_result_unchanged(self, w, p, planted, graph_seed, r16,
                                        seed):
        # above the cap, with and without the proof; a planted side of up
        # to w/2 vertices with sparse edges across makes a weak cut likely
        rng = random.Random(graph_seed)
        part = set(rng.sample(range(1, w + 1), rng.randint(1, w // 2))
                   ) if planted else set()
        edges = tuple(
            (a, b) for a, b in itertools.combinations(range(1, w + 1), 2)
            if rng.random() < (p if (a in part) == (b in part) else 0.05))
        G = EdgeColoredGraph(w, edges, tuple(range(1, len(edges) + 1)))
        W, r = tuple(range(1, w + 1)), Fraction(r16, 16)
        got = find_weak_cut(G, W, r, cap=8, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            # every Δ is below w: a bound that proves nothing
            mp.setattr(kernels, "weak_cut_bounds",
                       lambda masks, thr: [len(masks)] * len(thr))
            assert find_weak_cut(G, W, r, cap=8, seed=seed) == got


def _cut_degree(masks, mask):
    """Δ of the cut A = mask, from scratch."""
    other = ((1 << len(masks)) - 1) ^ mask
    return max((m & (other if (mask >> v) & 1 else mask)).bit_count()
               for v, m in enumerate(masks))


def reference_heuristic_weak_cut(W, masks, thr, seed):
    """Reference: the heuristic search with every local-search flip scored
    from scratch and every candidate scored in full."""
    w = len(W)
    full = (1 << w) - 1

    def cut_degree(mask):
        return _cut_degree(masks, mask)

    candidates = set()

    def add(mask):
        if mask & 1:
            mask ^= full
        if mask not in (0, full):
            candidates.add(mask)

    for i in range(w):
        add(1 << i)
    for src in range(w):
        ball = frontier = 1 << src
        while True:
            nxt = 0
            for v in range(w):
                if (frontier >> v) & 1:
                    nxt |= masks[v]
            nxt &= ~ball & full
            if not nxt:
                break
            ball |= nxt
            frontier = nxt
            if ball != full:
                add(ball)
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
            best_v, best_d = -1, cut_degree(mask)
            for v in range(w):
                flip = mask ^ (1 << v)
                if flip in (0, full):
                    continue
                d = cut_degree(flip)
                if d < best_d:
                    best_v, best_d = v, d
            if best_v < 0:
                break
            mask ^= 1 << best_v
    best = None
    for mask in sorted(candidates):
        pc = mask.bit_count()
        mn = min(pc, w - pc)
        delta = cut_degree(mask)
        if thr[mn] >= 0 and delta <= thr[mn]:
            if best is None or (delta, mask) < best:
                best = (delta, mask)
    if best is None:
        return None
    return colored._mask_to_cut(W, best[1], best[0])


def _random_masks(rng, w, p):
    masks = [0] * w
    for i, j in itertools.combinations(range(w), 2):
        if rng.random() < p:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


class TestHeuristicSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 16), st.floats(0, 1), st.integers(0, 2**32))
    def test_best_flip_matches_rescoring(self, w, p, seed):
        rng = random.Random(seed)
        masks = _random_masks(rng, w, p)
        deg = [m.bit_count() for m in masks]
        full = (1 << w) - 1
        for _ in range(20):
            mask = rng.randrange(1, full)
            best_v, best_d = -1, _cut_degree(masks, mask)
            for v in range(w):
                flip = mask ^ (1 << v)
                if flip not in (0, full) and _cut_degree(masks, flip) < best_d:
                    best_v, best_d = v, _cut_degree(masks, flip)
            assert colored._best_flip(masks, deg, mask, full) == best_v

    @settings(max_examples=40, deadline=None)
    @given(st.integers(19, 60), st.floats(0.02, 0.98), st.integers(0, 2**32),
           st.integers(1, 4096), st.integers(0, 9))
    def test_matches_reference(self, w, p, graph_seed, r4, seed):
        masks = _random_masks(random.Random(graph_seed), w, p)
        W = tuple(range(1, w + 1))
        thr = weak_delta_table(w, Fraction(r4, 4))
        assert colored._heuristic_weak_cut(W, masks, thr, seed) == \
            reference_heuristic_weak_cut(W, masks, thr, seed)


class TestRobustCore:
    def test_k4(self):
        res = robust_core(rainbow_complete(4), 1)
        assert res.W == (1, 2, 3, 4)
        assert res.hypothesis_met  # min degree 3 ≥ log₂4 = 2

    def test_two_triangles(self):
        tt = EdgeColoredGraph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)),
                              (1, 2, 3, 1, 2, 3))
        res = robust_core(tt, 1)
        assert res.W == (4, 5, 6)

    def test_single_edge(self):
        G = EdgeColoredGraph(2, ((1, 2),), (1,))
        assert robust_core(G, 1).W == (1, 2)

    def test_descent_failure(self):
        # a path with r = 2 collapses to a singleton
        G = EdgeColoredGraph(3, ((1, 2), (2, 3)), (1, 2))
        with pytest.raises(CoverFailure):
            robust_core(G, 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_exhaustive_verification(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        r = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
        G = random_graph(rng, n, rng.uniform(0.3, 0.9))
        if not G.edges:
            return
        try:
            res = robust_core(G, r)
        except CoverFailure:
            return
        assert verify_no_weak_cut(G, res.W, r)
        _assert_all_cuts_strong(G, res.W, r)

    def test_degree_persistence_along_trace(self):
        # telescoping bound: after each descent step, every surviving vertex
        # keeps degree ≥ r·(log₂ n − Σ log₂ imb_j), checked exactly
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(4, 12)
            r = rng.choice([Fraction(1, 2), Fraction(1)])
            G = random_graph(rng, n, rng.uniform(0.4, 0.95))
            if not G.edges:
                continue
            try:
                res = robust_core(G, r)
            except CoverFailure:
                continue
            if not res.hypothesis_met:
                continue
            adj = adjacency(G)
            ratio = Fraction(G.n)
            for cut in res.trace:
                ratio /= Fraction(len(cut.A) + len(cut.B),
                                  min(len(cut.A), len(cut.B)))
                survivors = cut.A if len(cut.A) <= len(cut.B) else cut.B
                sset = set(survivors)
                for v in survivors:
                    deg = len(adj[v] & sset)
                    assert degree_at_least_r_log(deg, r, ratio)
            wset = set(res.W)
            for v in res.W:
                assert degree_at_least_r_log(len(adj[v] & wset), r, ratio)


def _assert_all_cuts_strong(G, W, r):
    """Independent brute force: re-derive every cut comparison from scratch."""
    W = sorted(W)
    adj = adjacency(G)
    p, q = r.numerator, r.denominator
    for bits in range(1, 2 ** (len(W) - 1)):
        A = {W[i + 1] for i in range(len(W) - 1) if (bits >> i) & 1}
        B = set(W) - A
        delta = max(
            max((len(adj[a] & B) for a in A), default=0),
            max((len(adj[b] & A) for b in B), default=0),
        )
        mn = min(len(A), len(B))
        # Δ ≥ r·log₂(|W|/mn)  ⟺  2^(Δq)·mn^p ≥ |W|^p
        assert (1 << (delta * q)) * mn**p >= len(W) ** p


class TestGreedyCover:
    def test_four_cycle_tie_rule(self):
        G = EdgeColoredGraph(4, ((1, 2), (1, 4), (2, 3), (3, 4)), (1, 3, 2, 1))
        I, trace = greedy_color_cover(G, (1, 2, 3, 4))
        assert I == (1, 2)
        assert trace.component_counts == (4, 2, 1)

    def test_monochromatic_spanning_tree(self):
        G = EdgeColoredGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3)), (1, 1, 1, 2))
        I, _ = greedy_color_cover(G, (1, 2, 3, 4))
        assert I == (1,)

    def test_single_edge(self):
        G = EdgeColoredGraph(2, ((1, 2),), (5,))
        I, _ = greedy_color_cover(G, (1, 2))
        assert I == (5,)

    def test_disconnected_failure(self):
        G = EdgeColoredGraph(4, ((1, 2), (3, 4)), (1, 2))
        with pytest.raises(CoverFailure):
            greedy_color_cover(G, (1, 2, 3, 4))

    def test_strictly_decreasing_counts(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(4, 12)
            edges = tuple(
                e for e in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < 0.6
            )
            if not edges:
                continue
            G = EdgeColoredGraph(n, edges, greedy_proper_coloring(n, edges))
            try:
                _, trace = greedy_color_cover(G, tuple(range(1, n + 1)))
            except CoverFailure:
                continue
            counts = trace.component_counts
            assert all(a > b for a, b in zip(counts, counts[1:]))
            assert counts[-1] == 1


def _reference_find(parent, v):
    while parent[v] != v:
        v = parent[v]
    return v


def _reference_merges_if_added(parent, edges):
    """Union count if these edges were added, without mutating parent."""
    local = {}

    def find(x):
        local.setdefault(x, x)
        root = x
        while local[root] != root:
            root = local[root]
        while local[x] != root:
            local[x], x = root, local[x]
        return root

    merges = 0
    for a, b in edges:
        ra = find(_reference_find(parent, a))
        rb = find(_reference_find(parent, b))
        if ra != rb:
            local[rb] = ra
            merges += 1
    return merges


def reference_greedy_color_cover(G, W):
    """Reference: the greedy with every unchosen color rescored in every
    round, ties to the smallest color id."""
    W = tuple(sorted(W))
    wset = set(W)
    by_color = {}
    for (a, b), c in zip(G.edges, G.colors):
        if a in wset and b in wset:
            by_color.setdefault(c, []).append((a, b))
    parent = {v: v for v in W}
    count = len(W)
    chosen = []
    counts = [len(W)]
    while count > 1:
        best_color, best_merges = -1, 0
        for c in sorted(by_color):
            if c in chosen:
                continue
            m = _reference_merges_if_added(parent, by_color[c])
            if m > best_merges:
                best_color, best_merges = c, m
        if best_color < 0:
            raise CoverFailure(
                "no color reduces the component count (G[W] disconnected)",
                trace=GreedyTrace(tuple(chosen), tuple(counts)),
            )
        for a, b in by_color[best_color]:
            ra, rb = _reference_find(parent, a), _reference_find(parent, b)
            if ra != rb:
                parent[rb] = ra
                count -= 1
        chosen.append(best_color)
        counts.append(count)
    return tuple(chosen), GreedyTrace(tuple(chosen), tuple(counts))


def _greedy_outcome(greedy, G, W):
    try:
        return greedy(G, W)
    except CoverFailure as exc:
        return str(exc), exc.trace


class TestLazyGreedy:
    @pytest.mark.parametrize("coloring", ["rainbow", "proper", "improper"])
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 28), st.floats(0, 1), st.integers(1, 8),
           st.booleans(), st.integers(0, 2**32))
    def test_matches_rescoring_loop(self, coloring, n, p, palette, split,
                                    seed):
        # split drops every edge across a random bipartition, so G[W] is
        # disconnected whenever W meets both sides; rainbow ids are drawn
        # out of edge order, and an improper palette mixes one-edge colors
        # with colors whose edges close cycles
        rng = random.Random(seed)
        side = {v for v in range(1, n + 1) if rng.random() < 0.5}
        edges = tuple(
            (a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p and not (split and (a in side) != (b in side)))
        if coloring == "rainbow":
            colors = tuple(rng.sample(range(1, 3 * len(edges) + 2),
                                      len(edges)))
        elif coloring == "proper":
            colors = greedy_proper_coloring(n, edges)
        else:
            colors = tuple(rng.randint(1, palette) for _ in edges)
        G = EdgeColoredGraph(n, edges, colors)
        W = rng.sample(range(1, n + 1), rng.randint(1, n))
        assert _greedy_outcome(greedy_color_cover, G, W) == \
            _greedy_outcome(reference_greedy_color_cover, G, W)

    def test_rescores_fewer_colors(self, monkeypatch):
        # a proper coloring of a dense graph, covered in three rounds: a
        # loop that rescores every unchosen color in every round makes
        # nearly three calls per color
        rng = random.Random(3)
        n = 40
        edges = tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                      if rng.random() < 0.6)
        G = EdgeColoredGraph(n, edges, greedy_proper_coloring(n, edges))
        calls = []
        real = colored._merges_if_added
        monkeypatch.setattr(colored, "_merges_if_added",
                            lambda root, e: calls.append(1) or real(root, e))
        W = range(1, n + 1)
        I, trace = greedy_color_cover(G, W)
        assert (I, trace) == reference_greedy_color_cover(G, W)
        assert len(I) == 3
        assert len(calls) < 2 * len(set(G.colors))


class TestVertexSetValidation:
    # a repeated vertex or one outside [1, n] is rejected, not answered
    BAD = ([1, 1, 2, 3, 4, 5], [1, 2, 9], [1, 1, 2], [0, 1, 2])

    @pytest.mark.parametrize("W", BAD)
    def test_find_weak_cut(self, W):
        with pytest.raises(GraphError):
            find_weak_cut(rainbow_complete(5), W, 1)

    @pytest.mark.parametrize("W", BAD)
    def test_verify_no_weak_cut(self, W):
        with pytest.raises(GraphError):
            verify_no_weak_cut(rainbow_complete(5), W, 1)

    @pytest.mark.parametrize("W", BAD)
    def test_greedy_color_cover(self, W):
        with pytest.raises(GraphError):
            greedy_color_cover(rainbow_complete(5), W)

    @pytest.mark.parametrize("W", BAD)
    def test_verify_cover_false(self, W):
        G = rainbow_complete(5)
        assert verify_cover(G, W, set(G.colors), Fraction(1, 2)) is False

    def test_unsorted_distinct_accepted(self):
        G = rainbow_complete(5)
        assert find_weak_cut(G, [5, 3, 1, 2, 4], 1) is None
        assert greedy_color_cover(G, [3, 1, 2]) == \
            greedy_color_cover(G, [1, 2, 3])


class TestColorCover:
    def test_rainbow_k6(self):
        res = color_cover(rainbow_complete(6), 2, Fraction(1, 4))
        assert len(res.I) == 5
        assert res.colors_in_W == 15
        assert verify_cover(rainbow_complete(6), res.W, res.I, 2)

    def test_rainbow_k4_fails_at_q2001(self):
        with pytest.raises(CoverFailure):
            color_cover(rainbow_complete(4), Fraction(2001, 1000), Fraction(1, 4))

    def test_four_cycle_with_q(self):
        G = EdgeColoredGraph(4, ((1, 2), (1, 4), (2, 3), (3, 4)), (1, 3, 2, 1))
        res = color_cover(G, Fraction(14, 10), Fraction(1, 16))
        assert len(res.I) == 2
        assert res.colors_in_W == 3

    def test_requires_proper(self):
        G = EdgeColoredGraph(4, ((1, 2), (2, 3)), (1, 1))
        with pytest.raises(GraphError):
            color_cover(G, 2)

    def test_requires_n4(self):
        with pytest.raises(GraphError):
            color_cover(EdgeColoredGraph(3, ((1, 2),), (1,)), 2)

    @pytest.mark.parametrize("q,C", [(-1, 1), (0, 1), (2, 0),
                                     (2, Fraction(-1, 4))])
    def test_requires_positive_q_and_C(self, q, C):
        # q ≤ 0 or C ≤ 0 makes r = C·q·log₂ log₂ n ≤ 0
        with pytest.raises(ValueError, match="must be positive"):
            color_cover(rainbow_complete(6), q, C)

    def test_never_false_success(self):
        rng = random.Random(17)
        successes = 0
        for _ in range(40):
            n = rng.randint(6, 24)
            edges = tuple(
                e for e in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < rng.uniform(0.3, 0.95)
            )
            if not edges:
                continue
            G = EdgeColoredGraph(n, edges, greedy_proper_coloring(n, edges))
            q = rng.choice([Fraction(3, 2), Fraction(2), Fraction(2001, 1000)])
            try:
                res = color_cover(G, q, Fraction(1, 4))
            except CoverFailure:
                continue
            successes += 1
            assert verify_cover(G, res.W, res.I, q)
        assert successes > 0

    def test_hypothesis_judged_on_core(self):
        # K6 with a 30-vertex pendant path: the path peels off, and the
        # degree hypothesis holds on the core (n = 6) though not on all 36
        edges = (list(itertools.combinations(range(1, 7), 2))
                 + [(1, 7)] + [(v, v + 1) for v in range(7, 36)])
        G = EdgeColoredGraph(36, tuple(edges), tuple(range(1, len(edges) + 1)))
        res = color_cover(G, 2, Fraction(1, 4))
        assert res.W == (1, 2, 3, 4, 5, 6)
        assert res.robust.hypothesis_met
        assert not degree_at_least_r_log(5, res.params.r, Fraction(36))


def _pinned_graphs():
    """Seeded proper-colored graphs: cores above and below the exhaustive
    cap, cores smaller than the graph, and covers that fail."""
    rng = random.Random(5)
    graphs = []
    for i in range(36):
        n = rng.randint(6, 36)
        p = rng.uniform(0.15, 0.95)
        edges = tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                      if rng.random() < p)
        if not edges:
            continue
        colors = (tuple(range(1, len(edges) + 1)) if i % 2
                  else greedy_proper_coloring(n, edges))
        graphs.append(EdgeColoredGraph(n, edges, colors))
    return graphs


class TestPinnedOutputs:
    def test_cover_and_core_outputs_pinned(self):
        # changes meant to preserve behaviour must leave every cover (or its
        # failure message) and every robust core unchanged
        rows = []
        for i, G in enumerate(_pinned_graphs()):
            q = (Fraction(3, 2), Fraction(2), Fraction(2001, 1000))[i % 3]
            C = (Fraction(1, 4), Fraction(1, 8), Fraction(1))[i % 3]
            cap, seed = (None, 8)[i % 2], i % 3
            try:
                cover = jsonio.cover_to_json(
                    color_cover(G, q, C, cap=cap, seed=seed))
            except CoverFailure as exc:
                cover = str(exc)
            try:
                res = robust_core(G, _rationalized_r(_log_bounds(G.n), q, C),
                                  cap=cap, seed=seed)
                core = [list(res.W), res.hypothesis_met,
                        [[list(c.A), list(c.B), c.delta] for c in res.trace]]
            except CoverFailure as exc:
                core = str(exc)
            rows.append([cover, core])
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "4b78446db3285d71db0623d9b9cbe2d1a46dc3bc2d0f9d7b2a6abafe05ccc497")


def _large_pinned_graphs():
    """Seeded graphs at the sizes of the benchmark's covers (n 60…200,
    p 0.4…0.95): rainbow ones on which the greedy runs one round per
    vertex, proper ones, and planted halves that the heuristic cut search
    (|W| above the exhaustive cap) splits with Δ = 0 and Δ = 1."""
    rng = random.Random(60)
    for n, p, p_across, rainbow in ((60, 0.95, None, True),
                                    (80, 0.5, 0.0, True),
                                    (100, 0.6, 0.002, True),
                                    (160, 0.9, 0.0008, False),
                                    (200, 0.45, None, False)):
        half = set(rng.sample(range(1, n + 1), n // 2))
        edges = tuple(
            (a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < (p if p_across is None
                               or (a in half) == (b in half) else p_across))
        colors = (tuple(range(1, len(edges) + 1)) if rainbow
                  else greedy_proper_coloring(n, edges))
        yield EdgeColoredGraph(n, edges, colors)


class TestPinnedLargeCovers:
    def test_large_cover_outputs_pinned(self):
        rows = []
        for i, G in enumerate(_large_pinned_graphs()):
            try:
                cover = jsonio.cover_to_json(
                    color_cover(G, 2, Fraction(1, 4), seed=i))
            except CoverFailure as exc:
                cover = str(exc)
            rows.append(cover)
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "db1e75decdc053fa4dec3c7180f0dd0ce313f9abfd9190f4151c431eaccd4f35")


# --- the flat passes against reference copies of the earlier code -------------


def reference_max_color_degree(G):
    """max_color_degree over a dict keyed by (vertex, color) tuples."""
    deg = {}
    for (a, b), c in zip(G.edges, G.colors):
        deg[(a, c)] = deg.get((a, c), 0) + 1
        deg[(b, c)] = deg.get((b, c), 0) + 1
    return max(deg.values(), default=0)


def reference_min_degree_core(G):
    """min_degree_core with a Fraction threshold, neighbour sets and a FIFO
    queue started in vertex order."""
    if G.edge_count == 0:
        raise GraphError("graph has no edges")
    threshold = Fraction(G.edge_count, G.n)
    adj = adjacency(G)
    alive = set(adj)
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    queue = collections.deque(sorted(v for v in alive if deg[v] < threshold))
    while queue:
        v = queue.popleft()
        if v not in alive or deg[v] >= threshold:
            continue
        alive.remove(v)
        for u in adj[v]:
            if u in alive:
                deg[u] -= 1
                if deg[u] < threshold:
                    queue.append(u)
    return tuple(sorted(alive))


def reference_verify_cover(G, W, I, q):
    """verify_cover with dict-of-sets adjacency and a depth-first search."""
    W = tuple(sorted(W))
    if len(W) < 2:
        return False
    iset = set(I)
    adj = {v: set() for v in W}
    colors = set()
    for (a, b), c in zip(G.edges, G.colors):
        if a in adj and b in adj:
            colors.add(c)
            if c in iset:
                adj[a].add(b)
                adj[b].add(a)
    seen = {W[0]}
    stack = [W[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(W):
        return False
    return Fraction(len(colors)) >= Fraction(q) * len(I)


@st.composite
def sparse_graphs(draw):
    """Graphs on a few vertex ids, small or spread up to 10⁵, with n at
    least the largest id; n is often a divisor of |E|, so that a degree
    can meet the core threshold deg·n = |E| exactly."""
    top = draw(st.sampled_from([12, 10**5]))
    ids = sorted(draw(st.sets(st.integers(1, top), min_size=2, max_size=12)))
    pairs = list(itertools.combinations(ids, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = tuple(e for e, k in zip(pairs, keep) if k)
    palette = draw(st.integers(1, len(edges) + 1))
    colors = tuple(draw(st.lists(st.integers(1, palette), min_size=len(edges),
                                 max_size=len(edges))))
    m, lo = len(edges), ids[-1]
    ties = [d for d in range(lo, m + 1) if m % d == 0]
    n = draw(st.one_of(st.sampled_from(ties + [lo]), st.integers(lo, 10**5)))
    return EdgeColoredGraph(n, edges, colors)


class TestFlatPasses:
    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs())
    def test_max_color_degree_matches_reference(self, G):
        assert G.max_color_degree() == reference_max_color_degree(G)

    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs())
    def test_min_degree_core_matches_reference(self, G):
        if not G.edges:
            with pytest.raises(GraphError):
                min_degree_core(G)
            return
        assert min_degree_core(G) == reference_min_degree_core(G)

    def test_min_degree_core_keeps_degree_at_threshold(self):
        # |E| = n = 4: the pendant vertex has deg·n = |E| and stays
        G = EdgeColoredGraph(4, ((1, 2), (1, 3), (2, 3), (3, 4)), (1, 2, 3, 1))
        assert min_degree_core(G) == (1, 2, 3, 4)

    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs(), st.data())
    def test_verify_cover_matches_reference(self, G, data):
        # W is every endpoint or a sample drawn with replacement, may gain a
        # repeated vertex and an id outside G; I is often every color of G,
        # may repeat colors and hold colors absent from G[W]; q·|I| lies
        # within 1 of the color count of G[W], often strictly between two
        # integers
        ids = sorted({v for e in G.edges for v in e}) or [1]
        W = data.draw(st.one_of(st.just(ids),
                                st.lists(st.sampled_from(ids), max_size=8)))
        W = W + data.draw(st.lists(st.sampled_from(ids), max_size=1))
        W += data.draw(st.lists(st.sampled_from([0, G.n + 1, 10**6]),
                                max_size=1))
        top = max(G.colors, default=0) + 3
        I = data.draw(st.one_of(st.lists(st.integers(1, top), max_size=8),
                                st.just(sorted(set(G.colors)))))
        I += data.draw(st.lists(st.integers(top - 2, top), max_size=1))
        wset = set(W)
        count = len({c for (a, b), c in zip(G.edges, G.colors)
                     if a in wset and b in wset})
        d = data.draw(st.integers(1, 4))
        q = Fraction(max(1, count * d + data.draw(st.integers(-1, 1))),
                     d * max(1, len(I)))
        assert verify_cover(G, W, I, q) == reference_verify_cover(G, W, I, q)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 12), st.floats(0.3, 1), st.integers(0, 2**32),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    def test_descent_hypothesis_matches_every_degree(self, n, p, seed, r):
        G = random_graph(random.Random(seed), n, p)
        try:
            res = robust_core(G, r)
        except CoverFailure:
            return
        deg = collections.Counter(v for e in G.edges for v in e)
        assert res.hypothesis_met == all(
            degree_at_least_r_log(deg[v], r, Fraction(n))
            for v in range(1, n + 1))

    def test_descent_hypothesis_judged_on_smallest_degree(self):
        # K4 beside K5: the descent keeps the K4, and the K4's degree 3
        # misses log₂ 9 while the K5's degree 4 meets it
        edges = (list(itertools.combinations(range(1, 5), 2))
                 + list(itertools.combinations(range(5, 10), 2)))
        G = EdgeColoredGraph(9, tuple(edges), tuple(range(1, len(edges) + 1)))
        res = robust_core(G, 1)
        assert res.W == (1, 2, 3, 4)
        assert not res.hypothesis_met


# --- color_cover against its stages composed one by one ----------------------


def reference_color_cover(G, q, C, cap, seed):
    """`colored._color_cover` composed from its stages, each scanning for
    itself: the max_color_degree check, min_degree_core, the core's induced
    edges, the cut loop, the color classes of G[W] and the greedy."""
    q, C = Fraction(q), Fraction(C)
    if G.n < 4:
        raise GraphError("need n >= 4")
    if G.max_color_degree() > 1:
        raise GraphError("edge coloring must be proper")
    logs = _log_bounds(G.n)
    r = _rationalized_r(logs, q, C)
    core = min_degree_core(G)
    W, edges = core, G.induced_edges(core)
    masks = colored._restricted_masks(W, edges)
    hypothesis = degree_at_least_r_log(min(m.bit_count() for m in masks), r,
                                       Fraction(len(core)))
    cuts = []
    while True:
        if len(W) < 2:
            raise CoverFailure("cut descent reached a single vertex "
                               "(hypothesis unmet or heuristic miss)",
                               trace=tuple(cuts))
        cut = colored._weak_cut(W, masks, r, cap, seed)
        if cut is None:
            break
        cuts.append(cut)
        W = cut.A if len(cut.A) <= len(cut.B) else cut.B
        edges = G.induced_edges(W)
        masks = colored._restricted_masks(W, edges)
    robust = colored.RobustCoreResult(W, tuple(cuts), hypothesis)
    by_color = colored._color_classes(edges)
    I, trace = colored._greedy_cover(W, by_color)
    result = colored.CoverResult(
        W=W, I=tuple(sorted(I)), colors_in_W=len(by_color), trace=trace,
        robust=robust, params=colored.CutParams(r=r, q=q, C=C),
        edge_hypothesis_met=(logs is None or G.edge_count
                             >= C * q * G.n * logs[0] * logs[1]))
    if not verify_cover(G, W, I, q):
        raise CoverFailure(
            f"cover contract not met: {result.colors_in_W} colors on G[W] "
            f"vs q·|I| = {q * len(I)}", trace=result)
    return result, by_color


def _cover_outcome(cover, G, q, C, cap, seed):
    """(result, by_color as an ordered item list), or the error's type,
    message and trace."""
    try:
        result, by_color = cover(G, q, C, cap, seed)
    except (GraphError, CoverFailure) as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)
    return result, list(by_color.items())


@st.composite
def blocks_graphs(draw):
    """Up to three dense blocks on consecutive ids, joined by at most two
    edges each (a cut the descent takes), pendant vertices (which the core
    peels) and isolated vertices above every edge; rainbow, greedily
    proper or randomly (mostly improperly) colored."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.6, 0.8, 1.0]))
    edges, blocks, top = set(), [], 0
    for size in draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)):
        block = range(top + 1, top + size + 1)
        edges |= {e for e in itertools.combinations(block, 2)
                  if rng.random() < p}
        blocks.append(block)
        top += size
    for left, right in zip(blocks, blocks[1:]):
        for _ in range(draw(st.integers(0, 2))):
            edges.add((rng.choice(left), rng.choice(right)))
    for _ in range(draw(st.integers(0, 2))):
        top += 1
        edges.add((rng.randint(1, top - 1), top))
    n = top + draw(st.integers(0, 3))
    edges = tuple(sorted(edges))
    coloring = draw(st.sampled_from(["rainbow", "proper", "random"]))
    if coloring == "rainbow":
        colors = tuple(range(1, len(edges) + 1))
    elif coloring == "proper":
        colors = greedy_proper_coloring(n, edges)
    else:
        colors = tuple(rng.randint(1, 4) for _ in edges)
    return EdgeColoredGraph(n, edges, colors)


def _cover_graph(blocks, extra=(), isolated=0, colors=None):
    """Complete blocks on consecutive ids plus the extra edges (bridges or
    pendants), and isolated vertices above them; rainbow unless colors are
    given."""
    edges, top = [], 0
    for size in blocks:
        edges += itertools.combinations(range(top + 1, top + size + 1), 2)
        top += size
    edges = tuple(sorted(edges + list(extra)))
    n = max(b for _, b in edges) + isolated
    return EdgeColoredGraph(n, edges, colors or tuple(range(1, len(edges) + 1)))


class TestColorCoverAgainstStages:
    @settings(max_examples=300, deadline=None)
    @given(blocks_graphs(), st.sampled_from([Fraction(1), Fraction(3, 2), 2]),
           st.sampled_from([Fraction(1, 8), Fraction(1, 4), 1]),
           st.sampled_from([None, 4]), st.integers(0, 2))
    def test_matches_stages(self, G, q, C, cap, seed):
        assert _cover_outcome(colored._color_cover, G, q, C, cap, seed) == \
            _cover_outcome(reference_color_cover, G, q, C, cap, seed)

    @pytest.mark.parametrize("G, situation", [
        (_cover_graph([6], isolated=3), "isolated"),
        (_cover_graph([7], extra=[(1, 8), (2, 9)]), "peeled"),
        (_cover_graph([4, 8], extra=[(4, 5)]), "cut"),
        (_cover_graph([5], colors=(1, 2, 3, 4, 5, 1, 2, 3, 4, 5)), "improper"),
    ], ids=["isolated", "peeled", "cut", "improper"])
    def test_each_situation(self, G, situation):
        # each graph reaches the situation it names, and both paths agree
        endpoints = {v for e in G.edges for v in e}
        if situation == "isolated":
            assert len(endpoints) < G.n
        if situation == "peeled":
            assert len(min_degree_core(G)) < len(endpoints)
        if situation == "improper":
            assert G.max_color_degree() > 1
            with pytest.raises(GraphError, match="must be proper"):
                colored._color_cover(G, 2, Fraction(1, 4), None, 0)
        else:
            result, by_color = colored._color_cover(G, 2, Fraction(1, 4),
                                                    None, 0)
            assert bool(result.robust.trace) == (situation == "cut")
        assert _cover_outcome(colored._color_cover, G, 2, Fraction(1, 4),
                              None, 0) == \
            _cover_outcome(reference_color_cover, G, 2, Fraction(1, 4),
                           None, 0)
