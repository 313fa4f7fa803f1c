"""Decorated unit-distance graphs: build them exactly from a point sequence
and a polygonal norm, verify realizations, and prune color classes to a
proper edge coloring.

A `DecoratedUDG` is a `colored.EdgeColoredGraph` that also carries a sign
per edge and, when built from a realization, the direction list, so every
stage after pruning takes it as it is. Vertices are 1-based. Edges are
stored sorted; an edge's color is the index of its canonical direction in
the lexicographically sorted distinct direction list, and its sign records
which endpoint order realizes that canonical direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import kernels
from .colored import Edge, EdgeColoredGraph, _color_classes
from .norms import (  # canonical_direction is re-exported
    SymmetricPolygon,
    canonical_direction,
    canonical_sign,
)
from .pointsets import PointSeq
from .ratlin import Vec2, scaled_points


@dataclass(frozen=True)
class DecoratedUDG(EdgeColoredGraph):
    """An edge-colored graph whose edges also carry signs, with
    (optionally) the direction list; edges are sorted and colors are ≥ 1.

    An abstract decorated graph carries directions=None; graphs built from a
    realization carry the sorted distinct canonical directions, and color i
    refers to directions[i−1].
    """

    signs: tuple[int, ...]
    directions: Optional[tuple[Vec2, ...]] = None

    def __post_init__(self):
        super().__post_init__()
        if any(e >= f for e, f in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be sorted")
        if any(c < 1 for c in self.colors):
            raise ValueError("color out of range")
        if len(self.signs) != len(self.edges):
            raise ValueError("one sign per edge required")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be ±1")
        if self.directions is not None:
            if len(self.directions) != self.k:
                raise ValueError("need one direction per color")
            for u, v in zip(self.directions, self.directions[1:]):
                if not (u.as_tuple() < v.as_tuple()):
                    raise ValueError("directions must be strictly increasing")

    @property
    def k(self) -> int:
        return max(self.colors, default=0)

    def decoration(self) -> dict[Edge, tuple[int, int]]:
        return {e: (c, s) for e, c, s in zip(self.edges, self.colors, self.signs)}

    def without_directions(self) -> "DecoratedUDG":
        return DecoratedUDG(self.n, self.edges, self.colors, self.signs, None)


def build_udg(P: PointSeq, B: SymmetricPolygon) -> DecoratedUDG:
    """The decorated unit-distance graph of P under the polygonal norm B.

    The edge test gauge(p_b − p_a) == 1 is exact: `kernels.unit_pair_indices`
    joins the points on integer-scaled coordinates in Python ints. Edge
    directions are taken on the same scaling: over the points' common
    denominator D > 0 each difference is an integer pair, and dividing by D
    changes neither the canonical half-plane (`norms.canonical_sign`) nor
    the lexicographic order, so only the distinct directions become
    rational vectors.
    """
    constraints = list(zip(B.normals, B.offsets))
    pairs = kernels.unit_pair_indices(list(P), constraints)
    D, xs, ys = scaled_points(P)
    canonical = []
    signs = []
    for i, j in pairs:
        dx, dy = xs[j] - xs[i], ys[j] - ys[i]
        s = canonical_sign(dx, dy)
        canonical.append((s * dx, s * dy))
        signs.append(s)
    directions = sorted(set(canonical))
    index = {t: pos for pos, t in enumerate(directions, 1)}
    G = DecoratedUDG(
        n=len(P),
        edges=tuple((i + 1, j + 1) for i, j in pairs),
        colors=tuple(map(index.__getitem__, canonical)),
        signs=tuple(signs),
        directions=tuple(Vec2(Fraction(x, D), Fraction(y, D))
                         for x, y in directions),
    )
    assert G.max_color_degree() <= 2, "geometry bounds color degree by two"
    return G


def count_unit_distances(P: PointSeq, B: SymmetricPolygon) -> int:
    """Number of pairs at exact polygonal distance 1."""
    constraints = list(zip(B.normals, B.offsets))
    return len(kernels.unit_pair_indices(list(P), constraints))


def verify_realization(G: DecoratedUDG, P: PointSeq, B: SymmetricPolygon) -> bool:
    """True iff the decorated graph of P under B equals G (directions too,
    when G carries them). Equality, not isomorphism."""
    return _realized_udg(G, P, B) is not None


def _realized_udg(G: DecoratedUDG, P: PointSeq,
                  B: SymmetricPolygon) -> Optional[DecoratedUDG]:
    """The decorated graph of P under B if it equals G as
    `verify_realization` tests, else None."""
    built = build_udg(P, B)
    if (built.n, built.edges, built.colors, built.signs) != (
        G.n, G.edges, G.colors, G.signs
    ):
        return None
    if G.directions is not None and built.directions != G.directions:
        return None
    return built


class PruneError(ValueError):
    """A color class has a vertex of color-degree ≥ 3, so G is unrealizable."""


def prune_to_proper(G: DecoratedUDG) -> DecoratedUDG:
    """Keep an alternating matching inside every color class (paths keep
    ⌈e/2⌉ edges, cycles ⌊e/2⌋), yielding a proper coloring with ≥ |E|/3 of
    the edges."""
    keep: set[Edge] = set()
    for color, class_edges in _color_classes(zip(G.edges, G.colors)).items():
        adj: dict[int, list[int]] = {}
        for a, b in class_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for v, nbrs in adj.items():
            if len(nbrs) > 2:
                raise PruneError(
                    f"color {color} has {len(nbrs)} edges at vertex {v}")
        # walk each path from its smaller endpoint, then each cycle from its
        # smallest vertex, keeping the 1st, 3rd, … edge of the walk; a cycle
        # walk omits its closing edge, so an odd cycle keeps ⌊e/2⌋
        visited: set[int] = set()
        order = sorted(adj)
        for start in [v for v in order if len(adj[v]) == 1] + order:
            if start in visited:
                continue
            walk = _walk(adj, start)
            visited.update(walk)
            for i in range(0, len(walk) - 1, 2):
                keep.add(_norm_edge(walk[i], walk[i + 1]))
    kept = [
        (e, c, s) for e, c, s in zip(G.edges, G.colors, G.signs) if e in keep
    ]
    return DecoratedUDG(
        n=G.n,
        edges=tuple(e for e, _, _ in kept),
        colors=tuple(c for _, c, _ in kept),
        signs=tuple(s for _, _, s in kept),
        directions=G.directions,
    )


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _walk(adj: dict[int, list[int]], start: int) -> list[int]:
    """The vertices met stepping from start to the smallest neighbour other
    than the previous vertex, until there is none or it is start."""
    walk = [start]
    prev, cur = None, start
    while True:
        nxt = [u for u in adj[cur] if u != prev]
        if not nxt:  # a path's far end
            return walk
        prev, cur = cur, min(nxt)
        if cur == start:  # back round a cycle
            return walk
        walk.append(cur)
