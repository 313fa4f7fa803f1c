"""Linear dependences among unit directions of a dense decorated graph.

From an abstract decorated unit-distance graph with enough edges, extract
distinct color indices i(1)…i(2ℓ+1) and integer coefficient rows so that in
every realization, each direction u_{i(ℓ+j)} equals the stated integer
combination of u_{i(1)}…u_{i(ℓ)}. The rows come from signed sums along
paths inside a connected low-color subgraph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .colored import CoverFailure, CoverResult, Edge, color_cover
from .norms import SymmetricPolygon
from .pointsets import PointSeq
from .udg import DecoratedUDG, _realized_udg, prune_to_proper

DEFAULT_Q = Fraction(2001, 1000)


@dataclass(frozen=True)
class DependenceConfig:
    q: Fraction = DEFAULT_Q
    C: Fraction = Fraction(1)
    exhaustive_cap: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class DependenceSystem:
    """ℓ ≥ 1 base colors, ℓ+1 dependent colors, integer coefficient rows.

    indices = (i(1)…i(2ℓ+1)), pairwise distinct colors ≥ 1; row j (0-based)
    states u_{i(ℓ+1+j)} = Σ_s coeffs[j][s] · u_{i(s)}. Every coefficient is
    an `int` (a bool, float or Fraction is rejected), so consumers read the
    rows as integers.
    """

    ell: int
    indices: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("need ell >= 1")
        if len(self.indices) != 2 * self.ell + 1:
            raise ValueError("need 2*ell + 1 indices")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be pairwise distinct")
        if min(self.indices) < 1:
            raise ValueError("color indices start at 1")
        if len(self.coeffs) != self.ell + 1:
            raise ValueError("need ell + 1 coefficient rows")
        for row in self.coeffs:
            if len(row) != self.ell:
                raise ValueError("each row needs ell coefficients")
            if any(type(c) is not int for c in row):
                raise ValueError(f"coefficients must be integers: {row!r}")
            if all(c == 0 for c in row):
                raise ValueError("zero coefficient row")


def signed_path_sum(G: DecoratedUDG, path: Sequence[int],
                    target_edge: Edge) -> dict[int, int]:
    """Integer coefficients expressing the target edge's direction as a
    signed sum of the path's edge directions.

    The path must run from the lower-indexed endpoint of the target edge to
    the higher one. Traversing {x, y} from x to y contributes +u_color when
    (σ = +1 and x < y) or (σ = −1 and x > y), else −u_color.
    """
    a, b = target_edge
    if a >= b:
        raise ValueError("target edge must be given as (a, b) with a < b")
    if not path or path[0] != a or path[-1] != b:
        raise ValueError("path must run from the target edge's lower endpoint "
                         "to its higher endpoint")
    dec = G.decoration()
    if target_edge not in dec:
        raise ValueError("target edge not in graph")
    acc: dict[int, int] = {}
    for x, y in zip(path, path[1:]):
        e = (x, y) if x < y else (y, x)
        if e not in dec:
            raise ValueError(f"path edge {e} not in graph")
        color, sigma = dec[e]
        forward = (sigma == 1 and x < y) or (sigma == -1 and x > y)
        acc[color] = acc.get(color, 0) + (1 if forward else -1)
    # path sum equals p_b − p_a = σ(target)·u_{c(target)}
    _, sigma_t = dec[target_edge]
    return {c: sigma_t * v for c, v in acc.items() if v != 0}


@dataclass(frozen=True)
class ExtractionResult:
    system: DependenceSystem
    cover: CoverResult
    pruned_edge_count: int
    original_edge_count: int
    paths: tuple[tuple[int, ...], ...]  # audit: path per dependent color


class ExtractionFailure(RuntimeError):
    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


def extract_dependences(G: DecoratedUDG,
                        config: DependenceConfig = DependenceConfig()) -> ExtractionResult:
    """Prune to a proper coloring, find a connected color cover (W, I), and
    emit one signed-path row per dependent color.

    Fails (legitimately, below the density threshold) when the cover search
    fails or fewer than 2|I|+1 colors appear on the pruned subgraph.
    """
    if G.n < 4:
        raise ExtractionFailure("need n >= 4")
    pruned = prune_to_proper(G)
    assert 3 * pruned.edge_count >= G.edge_count, "pruning keeps >= |E|/3"
    try:
        cover = color_cover(pruned, config.q, config.C,
                            config.exhaustive_cap, config.seed)
    except CoverFailure as exc:
        raise ExtractionFailure(f"cover search failed: {exc}",
                                detail=exc.trace) from exc
    W, I, by_color = cover.W, cover.I, cover.by_color
    ell = len(I)
    colors_on_W = sorted(by_color)
    iset = set(I)
    eligible = [c for c in colors_on_W if c not in iset]
    if len(eligible) < ell + 1:
        raise ExtractionFailure(
            f"only {len(colors_on_W)} colors on the pruned subgraph; "
            f"need at least {2 * ell + 1}", detail=cover)
    J = eligible[: ell + 1]
    base = tuple(sorted(I))
    base_pos = {c: s for s, c in enumerate(base)}
    adj = _cover_adjacency(W, [by_color[c] for c in base])
    rows = []
    paths = []
    for j in J:
        edge = min(by_color[j])
        path = _bfs_path(adj, edge[0], edge[1])
        if path is None:
            raise ExtractionFailure(
                f"no path between endpoints of a color-{j} edge in G[I, W]",
                detail=cover)
        coeff_map = signed_path_sum(pruned, path, edge)
        if any(c not in base_pos for c in coeff_map):
            raise ExtractionFailure("path left the cover colors", detail=cover)
        row = [0] * ell
        for c, v in coeff_map.items():
            row[base_pos[c]] = v
        rows.append(tuple(row))
        paths.append(tuple(path))
    system = DependenceSystem(ell=ell, indices=base + tuple(J),
                              coeffs=tuple(rows))
    return ExtractionResult(
        system=system,
        cover=cover,
        pruned_edge_count=pruned.edge_count,
        original_edge_count=G.edge_count,
        paths=tuple(paths),
    )


def _cover_adjacency(W: Sequence[int], classes: list[list[Edge]]):
    """Sorted adjacency lists on W of the given color classes' edges."""
    adj: dict[int, list[int]] = {v: [] for v in W}
    for edges in classes:
        for x, y in edges:
            adj[x].append(y)
            adj[y].append(x)
    for v in adj:
        adj[v].sort()
    return adj


def _bfs_path(adj: dict[int, list[int]], a: int, b: int) -> Optional[list[int]]:
    """Shortest a→b path; among equals, the lexicographically smallest vertex
    sequence (BFS exploring neighbors in ascending order)."""
    if a == b:
        return [a]
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                if u == b:
                    path = [b]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(u)
    return None


def verify_on_realization(S: DependenceSystem, G: DecoratedUDG, P: PointSeq,
                          B: SymmetricPolygon) -> bool:
    """True iff every coefficient row holds exactly on the realization's
    directions. Precondition: P realizes G under B."""
    built = _realized_udg(G, P, B)
    if built is None:
        raise ValueError("P does not realize G under B")
    directions = built.directions
    assert directions is not None
    for j, row in enumerate(S.coeffs):
        lhs = directions[S.indices[S.ell + j] - 1]
        acc_x = sum((c * directions[S.indices[s] - 1].x
                     for s, c in enumerate(row)), Fraction(0))
        acc_y = sum((c * directions[S.indices[s] - 1].y
                     for s, c in enumerate(row)), Fraction(0))
        if lhs.x != acc_x or lhs.y != acc_y:
            return False
    return True
