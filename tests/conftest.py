import math
import random
from fractions import Fraction

import pytest

from udnorm.norms import (AngleBound, PolygonError, SymmetricPolygon,
                          polygon_from_hull, square)
from udnorm.ratlin import Vec2, rat_from_str, rat_to_str


def trapezoid_corners(cert, side: int) -> tuple[Vec2, Vec2, Vec2, Vec2]:
    """Corners of the region of B_out ∖ B_in over the given side:
    (inner start, inner end, outer end, outer start)."""
    a_in, b_in = cert.witness_in.side_segment(side)
    a_out, b_out = cert.witness_out.side_segment(side)
    return (a_in, b_in, b_out, a_out)


def segment_is_eta_short(a: Vec2, b: Vec2, eta: AngleBound) -> bool:
    """Reference for `norms.scaled_segment_is_eta_short`, in Fraction: True
    iff no two lines through 0 with mutual angle ≥ η meet segment ab.

    Equivalent (for a segment avoiding 0) to: the endpoint directions span
    an angle < η. Endpoint directions at or beyond a right angle always fail
    since η ≤ π/2.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("segment touches the origin")
    if a.dot(b) <= 0:
        return False
    c = a.cross(b)
    return c * c < eta.sin_sq * a.norm_sq() * b.norm_sq()


def octagon() -> SymmetricPolygon:
    return SymmetricPolygon.from_pairs([
        (Vec2.of(1, 0), 1), (Vec2.of(0, 1), 1),
        (Vec2.of(1, 1), Fraction(7, 5)), (Vec2.of(-1, 1), Fraction(7, 5)),
    ])


def twelve_gon() -> SymmetricPolygon:
    return SymmetricPolygon.from_pairs([
        (Vec2.of(1, 0), 1), (Vec2.of(0, 1), 1),
        (Vec2.of(2, 1), Fraction(11, 5)), (Vec2.of(1, 2), Fraction(11, 5)),
        (Vec2.of(-1, 2), Fraction(11, 5)), (Vec2.of(-2, 1), Fraction(11, 5)),
    ])


def random_polygon(rng: random.Random, max_coord: int = 6,
                   points: int = 5) -> SymmetricPolygon:
    """Random valid symmetric polygon: hull of a symmetrized random point set."""
    while True:
        pts = []
        for _ in range(points):
            x = Fraction(rng.randint(-max_coord, max_coord), rng.randint(1, 3))
            y = Fraction(rng.randint(-max_coord, max_coord), rng.randint(1, 3))
            if x == 0 and y == 0:
                continue
            pts.append(Vec2(x, y))
        sym = pts + [-p for p in pts]
        try:
            return polygon_from_hull(sym)
        except PolygonError:
            continue


@pytest.fixture
def square_ball():
    return square()


@pytest.fixture(name="octagon")
def octagon_fixture():
    return octagon()


@pytest.fixture(name="twelve_gon")
def twelve_gon_fixture():
    return twelve_gon()


def reference_eliminate(grid, lead_cols):
    """Reference: row-echelon reduction of the first `lead_cols` columns in
    Fraction arithmetic, in place. Pivot row = first row with a nonzero
    entry in the pivot column. Returns the pivot column list."""
    pivots = []
    cur = 0
    nrows = len(grid)
    for col in range(lead_cols):
        sel = None
        for i in range(cur, nrows):
            if grid[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != cur:
            grid[cur], grid[sel] = grid[sel], grid[cur]
        piv = grid[cur][col]
        for i in range(cur + 1, nrows):
            f = grid[i][col]
            if f == 0:
                continue
            ratio = f / piv
            row_i, row_c = grid[i], grid[cur]
            for j in range(col, len(row_i)):
                row_i[j] = row_i[j] - ratio * row_c[j]
        pivots.append(col)
        cur += 1
        if cur == nrows:
            break
    return pivots


def scale_null_vectors(payload, q, every=True):
    """Multiply each y of a certificate payload's table, or the first y
    only, by q, as rational strings; in place."""
    table = payload["null_vectors"]
    for entry in table if every else table[:1]:
        entry["y"] = [rat_to_str(rat_from_str(v) * q) for v in entry["y"]]


def integral(rows):
    """The rows times the least common denominator of all their entries: the
    same left null space, in integers."""
    den = math.lcm(*(Fraction(v).denominator for row in rows for v in row))
    return [[int(v * den) for v in row] for row in rows]


def reference_rank(rows):
    return len(reference_eliminate([[Fraction(v) for v in r] for r in rows],
                                   len(rows[0])))
