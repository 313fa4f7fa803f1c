import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import octagon, random_polygon, twelve_gon
from udnorm import kernels
from udnorm.norms import canonical_sign, square
from udnorm.pointsets import PointSeq, two_row_pointset
from udnorm.ratlin import Vec2
from udnorm.udg import (
    DecoratedUDG,
    PruneError,
    build_udg,
    canonical_direction,
    count_unit_distances,
    prune_to_proper,
    verify_realization,
)

nonzero_vecs = st.tuples(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
).filter(lambda t: t != (0, 0)).map(lambda t: Vec2(t[0], t[1]))


class TestCanonicalDirection:
    def test_already_canonical(self):
        assert canonical_direction(Vec2.of(1, 0)) == (Vec2.of(1, 0), 1)

    def test_lower_halfplane(self):
        assert canonical_direction(Vec2.of(1, -1)) == (Vec2.of(-1, 1), -1)

    def test_negative_x_axis(self):
        assert canonical_direction(Vec2.of(-2, 0)) == (Vec2.of(2, 0), -1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            canonical_direction(Vec2.of(0, 0))

    @given(nonzero_vecs)
    def test_idempotent(self, v):
        u, s = canonical_direction(v)
        assert u == v.scale(s)
        u2, s2 = canonical_direction(u)
        assert (u2, s2) == (u, 1)

    @given(nonzero_vecs, st.integers(min_value=1, max_value=10**6))
    def test_sign_invariant_under_positive_scaling(self, v, D):
        # build_udg applies the rule to integer pairs D·v
        s = canonical_sign(v.x, v.y)
        assert s == canonical_direction(v)[1]
        assert canonical_sign(int(v.x * D * v.x.denominator * v.y.denominator),
                              int(v.y * D * v.x.denominator * v.y.denominator)) == s

    def test_sign_rejects_zero(self):
        with pytest.raises(ValueError):
            canonical_sign(0, 0)


FOUR_POINTS = PointSeq.of([
    Vec2.of(0, 0), Vec2.of(1, 0), Vec2.of(2, 0), Vec2.of(1, 1),
])


class TestBuildUDG:
    def test_four_point_example(self):
        G = build_udg(FOUR_POINTS, square())
        assert G.edges == ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))
        assert G.directions == (
            Vec2.of(-1, 1), Vec2.of(0, 1), Vec2.of(1, 0), Vec2.of(1, 1),
        )
        dec = G.decoration()
        assert dec[(3, 4)] == (1, 1)
        assert dec[(1, 2)][0] == 3
        assert dec[(2, 3)][0] == 3

    def test_sign_convention(self):
        P = PointSeq.of([Vec2.of(0, 0), Vec2.of(1, -1)])
        G = build_udg(P, square())
        assert G.edges == ((1, 2),)
        assert G.directions == (Vec2.of(-1, 1),)
        assert G.signs == (-1,)

    def test_no_edges(self):
        P = PointSeq.of([Vec2.of(0, 0), Vec2.of(2, 0)])
        G = build_udg(P, square())
        assert G.edges == ()
        assert G.k == 0

    def test_single_point(self):
        assert count_unit_distances(PointSeq.of([Vec2.of(0, 0)]), square()) == 0

    def test_translation_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            B = random_polygon(rng)
            P = two_row_pointset(B, rng.randrange(2 * B.m), 4)
            shift = Vec2.of(Fraction(rng.randint(-9, 9), 4),
                            Fraction(rng.randint(-9, 9), 4))
            G1 = build_udg(P, B)
            G2 = build_udg(PointSeq.of([p + shift for p in P]), B)
            assert (G1.edges, G1.colors, G1.signs, G1.directions) == \
                   (G2.edges, G2.colors, G2.signs, G2.directions)

    def test_color_degree_at_most_two(self):
        rng = random.Random(6)
        for _ in range(20):
            B = random_polygon(rng)
            P = two_row_pointset(B, rng.randrange(2 * B.m), 5)
            assert build_udg(P, B).max_color_degree() <= 2

    def test_exact_edge_test(self):
        # distance 1 - epsilon and 1 + epsilon are both non-edges
        eps = Fraction(1, 10**12)
        P = PointSeq.of([Vec2.of(0, 0), Vec2.of(1 - eps, 0), Vec2.of(-1 - eps, 0)])
        assert count_unit_distances(P, square()) == 0


def reference_build_udg(P, B):
    """Reference: the direction of every edge as a Fraction difference put
    in canonical form, colored by its rank among the distinct ones."""
    pairs = kernels.unit_pair_indices(list(P), list(zip(B.normals, B.offsets)))
    decorated = [canonical_direction(P[j] - P[i]) for i, j in pairs]
    directions = sorted(set(u.as_tuple() for u, _ in decorated))
    index = {t: pos + 1 for pos, t in enumerate(directions)}
    return (tuple((i + 1, j + 1) for i, j in pairs),
            tuple(index[u.as_tuple()] for u, _ in decorated),
            tuple(s for _, s in decorated),
            tuple(Vec2(x, y) for x, y in directions))


@st.composite
def udg_inputs(draw):
    """Points on a grid of step 1/q around an origin with denominators 3 and
    7, on either side of 0, under the square, octagon or 12-gon norm, plus
    points planted one vertex, side midpoint or horizontal unit step (dy = 0,
    either way) from another, in a drawn order."""
    B = draw(st.sampled_from([square(), octagon(), twelve_gon()]))
    q = draw(st.sampled_from([1, 2, 5]))
    origin = Vec2(Fraction(draw(st.integers(-10**6, 10**6)), 3),
                  Fraction(draw(st.integers(-10**6, 10**6)), 7))
    coords = st.integers(-2 * q, 2 * q)
    pts = [origin + Vec2(Fraction(a, q), Fraction(b, q))
           for a, b in draw(st.lists(st.tuples(coords, coords), min_size=1,
                                     max_size=12))]
    verts = B.vertices()
    steps = list(verts) + [(a + b).scale(Fraction(1, 2))
                           for a, b in zip(verts, verts[1:] + verts[:1])]
    # (1, 0) is on the boundary of all three polygons
    horizontal = [Vec2.of(1, 0), Vec2.of(-1, 0)]
    pts.append(pts[0] + draw(st.sampled_from(horizontal)))
    for _ in range(draw(st.integers(0, 8))):
        pts.append(draw(st.sampled_from(pts))
                   + draw(st.sampled_from(steps + horizontal)))
    pts = list(dict.fromkeys(pts))
    return PointSeq.of(draw(st.permutations(pts))), B


class TestBuildUDGReference:
    @settings(max_examples=200, deadline=None)
    @given(udg_inputs())
    def test_matches_fraction_directions(self, inputs):
        P, B = inputs
        G = build_udg(P, B)
        assert (G.edges, G.colors, G.signs, G.directions) == \
            reference_build_udg(P, B)
        assert any(u.y == 0 for u in G.directions)


class TestVerifyRealization:
    def test_round_trip(self):
        G = build_udg(FOUR_POINTS, square())
        assert verify_realization(G, FOUR_POINTS, square())
        assert verify_realization(G.without_directions(), FOUR_POINTS, square())

    def test_sign_flip_rejected(self):
        G = build_udg(FOUR_POINTS, square())
        flipped = DecoratedUDG(
            G.n, G.edges, G.colors,
            (-G.signs[0],) + G.signs[1:], G.directions,
        )
        assert not verify_realization(flipped, FOUR_POINTS, square())

    def test_color_transposition_rejected(self):
        # equality, not isomorphism
        G = build_udg(FOUR_POINTS, square())
        swap = {1: 2, 2: 1}
        recolored = DecoratedUDG(
            G.n, G.edges,
            tuple(swap.get(c, c) for c in G.colors),
            G.signs, None,
        )
        assert not verify_realization(recolored, FOUR_POINTS, square())


def _mono(n, edges):
    return DecoratedUDG(n, tuple(edges), (1,) * len(edges), (1,) * len(edges))


class TestPrune:
    def test_triangle_keeps_one(self):
        out = prune_to_proper(_mono(3, [(1, 2), (1, 3), (2, 3)]))
        assert out.edges == ((1, 2),)

    def test_path5_keeps_three(self):
        out = prune_to_proper(_mono(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]))
        assert out.edges == ((1, 2), (3, 4), (5, 6))

    def test_proper_input_unchanged(self):
        G = DecoratedUDG(4, ((1, 2), (3, 4)), (1, 1), (1, 1))
        assert prune_to_proper(G) == G

    def test_rejects_color_degree_three(self):
        with pytest.raises(PruneError):
            prune_to_proper(_mono(4, [(1, 2), (1, 3), (1, 4)]))

    def test_even_cycle(self):
        out = prune_to_proper(_mono(4, [(1, 2), (1, 4), (2, 3), (3, 4)]))
        assert len(out.edges) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_and_properness(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        # random color classes of max degree <= 2: sample random matchings,
        # paths and cycles per color
        edges, colors = [], []
        used = set()
        for color in range(1, rng.randint(2, 5)):
            verts = list(range(1, n + 1))
            rng.shuffle(verts)
            cut = rng.randint(2, n)
            chain = verts[:cut]
            for a, b in zip(chain, chain[1:]):
                e = (min(a, b), max(a, b))
                if e not in used:
                    used.add(e)
                    edges.append(e)
                    colors.append(color)
        order = sorted(range(len(edges)), key=lambda i: edges[i])
        G = DecoratedUDG(
            n, tuple(edges[i] for i in order),
            tuple(colors[i] for i in order), (1,) * len(edges),
        )
        out = prune_to_proper(G)
        assert 3 * out.edge_count >= G.edge_count
        # proper: no vertex sees one color twice
        seen = set()
        for (a, b), c in zip(out.edges, out.colors):
            assert (a, c) not in seen and (b, c) not in seen
            seen.add((a, c))
            seen.add((b, c))

    def test_output_pinned(self):
        # seeded graphs whose color classes mix paths with odd and even
        # cycles; the digest pins which edges survive, in order
        h = hashlib.sha256()
        shapes = set()
        for seed in range(60):
            G = _mixed_classes(random.Random(seed), shapes)
            out = prune_to_proper(G)
            h.update(repr((out.edges, out.colors, out.signs)).encode())
        assert shapes == {"path", "odd cycle", "even cycle"}
        assert h.hexdigest() == PRUNE_DIGEST


PRUNE_DIGEST = ("8e31e2be6fecc0c5db9e3b9c53d5fbe6"
                "1d33b22190c4772f30f5f1814946071d")


def _mixed_classes(rng, shapes):
    """A graph with 2–5 colors; each color's class is disjoint chains of
    2–7 vertices, each closed into a cycle (3 or more vertices) with
    probability 1/2. An edge another color already has is skipped."""
    n = rng.randint(6, 40)
    used = {}
    for color in range(1, rng.randint(3, 6)):
        verts = list(range(1, n + 1))
        rng.shuffle(verts)
        verts = verts[:rng.randint(2, n)]
        while len(verts) >= 2:
            size = min(rng.randint(2, 7), len(verts))
            chain, verts = verts[:size], verts[size:]
            closed = size >= 3 and rng.random() < 0.5
            shapes.add(("odd cycle" if size % 2 else "even cycle")
                       if closed else "path")
            steps = list(zip(chain, chain[1:]))
            if closed:
                steps.append((chain[-1], chain[0]))
            for a, b in steps:
                used.setdefault((min(a, b), max(a, b)),
                                (color, rng.choice((-1, 1))))
    edges = sorted(used)
    return DecoratedUDG(n, tuple(edges), tuple(used[e][0] for e in edges),
                        tuple(used[e][1] for e in edges))
