"""JSON (de)serialization of what the CLI reads and writes, plus atomic file
writes, CSV color-count emission, and a minimal SVG renderer for point/edge
sets.

All rationals serialize as canonical strings ('n' or 'num/den' in lowest
terms); side ids and side-pair (class) ids are 1-based on the wire. A
certificate payload is schema 2: `"schema": 2` and a `"null_vectors"`
table of `{"classes": [...], "y": [...]}` entries, one per class tuple,
plus the witness sandwich (`"witness"`: the `in`, `mid` and `out`
polygons) and its margin `"delta"`, which are required: without them a
certificate states nothing. Its `"degenerate"` flag is derived, not
stored: the writer puts 2ℓ+1 > m, and the reader requires exactly that
boolean. Kill records are not serialized, the checker derives them. The
y entries are rational strings on the wire, and integers in memory:
certify derives integer y, which `certificate_to_json` writes with
`str`, and `certificate_from_json` is the one place a payload's y is
scaled, by the positive common denominator L of its entries, which keeps
y ≠ 0, yᵀA = 0 and the sign of every h = yᵀb(t). It reads each entry as
a reduced integer pair (`ratlin.ratio_from_str`, which `rat_from_str`
wraps, so both accept the same strings) and builds no `Fraction`. Every
reader (`read_json` and each `*_from_json`) raises `PayloadError` on a
payload that does not describe a valid object of its kind, including a
certificate without `"schema": 2`, without its witness or δ, with a box
or witness polygon whose side-pair count differs from its polygon's, or
with a `"degenerate"` flag other than 2ℓ+1 > m; an integer field (a
polygon's `"m"` included) holding a float, string or boolean; a list
field (a y, a box bound, a polygon's normals or offsets, a normal pair)
holding anything but a JSON array; a polygon whose normals and offsets
differ in number; and a point, normal or direction that is not exactly
two rationals.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import tempfile
from itertools import islice
from typing import IO, Iterator, Optional

from .certify import NormCertificate, OffsetBox, VerifyReport
from .colored import CoverResult, EdgeColoredGraph
from .dependence import DependenceSystem
from .norms import AngleBound, NormOracle, SymmetricPolygon
from .pointsets import PointSeq
from .ratlin import Vec2, rat_from_str, rat_to_str, ratio_from_str
from .udg import DecoratedUDG


class PayloadError(ValueError):
    """A JSON payload that does not describe a valid object of its kind."""


def _reader(fn):
    """fn, reporting any failure to build its object as a PayloadError."""
    @functools.wraps(fn)
    def read(d):
        try:
            return fn(d)
        except PayloadError:
            raise
        except (LookupError, TypeError, AttributeError, ValueError,
                ArithmeticError) as exc:
            raise PayloadError(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc
    return read


def _wire_int(v) -> int:
    """v itself when it is a JSON integer; a float, string or boolean is
    rejected rather than coerced."""
    if type(v) is not int:
        raise ValueError(f"not an integer: {v!r}")
    return v


def _wire_list(vs) -> list:
    """vs itself when it is a JSON array; a string, whose characters would
    otherwise be read as its entries, or any other value is rejected."""
    if type(vs) is not list:
        raise ValueError(f"not a list: {vs!r}")
    return vs


def _wire_null_vector(vs) -> tuple[int, ...]:
    """A y table entry, rational strings on the wire, as integers: each
    entry's reduced (num, den) times the lcm L of the dens, so y·L."""
    pairs = [ratio_from_str(v) for v in _wire_list(vs)]
    L = math.lcm(*(den for _, den in pairs))
    return tuple(num * (L // den) for num, den in pairs)


def _wire_ints(vs) -> tuple[int, ...]:
    return tuple(_wire_int(v) for v in vs)


def _wire_edges(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((_wire_int(a), _wire_int(b)) for a, b in pairs))


def _vec(v: Vec2) -> list[str]:
    return [rat_to_str(v.x), rat_to_str(v.y)]


def _unvec(pair) -> Vec2:
    """A point, normal or direction: a list of exactly two rationals."""
    pair = _wire_list(pair)
    if len(pair) != 2:
        raise ValueError(f"not a pair: {pair!r}")
    return Vec2(rat_from_str(pair[0]), rat_from_str(pair[1]))


def polygon_to_json(B: SymmetricPolygon) -> dict:
    return {
        "m": B.m,
        "normals": [_vec(n) for n in B.normals],
        "offsets": [rat_to_str(c) for c in B.offsets],
    }


@_reader
def polygon_from_json(d: dict) -> SymmetricPolygon:
    normals, offsets = _wire_list(d["normals"]), _wire_list(d["offsets"])
    if len(normals) != len(offsets):
        raise ValueError(f"{len(normals)} normals but {len(offsets)} offsets")
    B = SymmetricPolygon.from_pairs(
        (_unvec(n), rat_from_str(c)) for n, c in zip(normals, offsets))
    if "m" in d and _wire_int(d["m"]) != B.m:
        raise ValueError("polygon side-pair count does not match payload")
    return B


@_reader
def oracle_from_json(d: dict) -> NormOracle:
    kind = d["kind"]
    if kind == "polygon":
        return NormOracle.of_polygon(polygon_from_json(d["polygon"]))
    if kind == "euclidean":
        return NormOracle.euclidean()
    raise ValueError(f"unknown norm kind {kind!r}")


def points_to_json(P: PointSeq) -> dict:
    return {"points": [_vec(p) for p in P]}


@_reader
def points_from_json(d: dict) -> PointSeq:
    return PointSeq(tuple(_unvec(p) for p in d["points"]))


def _edge_key(e) -> str:
    return f"{e[0]},{e[1]}"


def udg_to_json(G: DecoratedUDG) -> dict:
    out = {
        "n": G.n,
        "edges": [list(e) for e in G.edges],
        "color": {_edge_key(e): c for e, c in zip(G.edges, G.colors)},
        "sign": {_edge_key(e): s for e, s in zip(G.edges, G.signs)},
    }
    if G.directions is not None:
        out["directions"] = [_vec(u) for u in G.directions]
    return out


def _graph_fields(d: dict) -> tuple:
    """(n, edges, colors) of a graph payload, edges sorted."""
    edges = _wire_edges(d["edges"])
    colors = tuple(_wire_int(d["color"][_edge_key(e)]) for e in edges)
    return _wire_int(d["n"]), edges, colors


@_reader
def udg_from_json(d: dict) -> DecoratedUDG:
    n, edges, colors = _graph_fields(d)
    signs = tuple(_wire_int(d["sign"][_edge_key(e)]) for e in edges)
    directions = None
    if d.get("directions") is not None:
        directions = tuple(_unvec(u) for u in d["directions"])
    return DecoratedUDG(n, edges, colors, signs, directions)


@_reader
def graph_from_json(d: dict) -> EdgeColoredGraph:
    return EdgeColoredGraph(*_graph_fields(d))


def cover_to_json(res: CoverResult) -> dict:
    return {
        "W": list(res.W),
        "I": list(res.I),
        "colors_in_W": res.colors_in_W,
        "trace": {
            "colors": list(res.trace.colors_chosen),
            "component_counts": list(res.trace.component_counts),
        },
        "robust": {
            "W": list(res.robust.W),
            "cuts": [
                {"A": list(c.A), "B": list(c.B), "delta": c.delta}
                for c in res.robust.trace
            ],
            "hypothesis_met": res.robust.hypothesis_met,
        },
        "params": {
            "r": rat_to_str(res.params.r),
            "q": rat_to_str(res.params.q),
            "C": rat_to_str(res.params.C),
        },
        "edge_hypothesis_met": res.edge_hypothesis_met,
    }


def system_to_json(S: DependenceSystem) -> dict:
    return {
        "l": S.ell,
        "indices": list(S.indices),
        "coeffs": [list(row) for row in S.coeffs],
    }


@_reader
def system_from_json(d: dict) -> DependenceSystem:
    return DependenceSystem(
        ell=_wire_int(d["l"]),
        indices=_wire_ints(d["indices"]),
        coeffs=tuple(_wire_ints(row) for row in d["coeffs"]),
    )


def box_to_json(box: OffsetBox) -> dict:
    return {
        "lo": [rat_to_str(v) for v in box.lo],
        "hi": [rat_to_str(v) for v in box.hi],
    }


@_reader
def box_from_json(d: dict) -> OffsetBox:
    return OffsetBox(tuple(rat_from_str(v) for v in _wire_list(d["lo"])),
                     tuple(rat_from_str(v) for v in _wire_list(d["hi"])))


def certificate_to_json(cert: NormCertificate) -> dict:
    return {
        "schema": 2,
        "polygon": polygon_to_json(cert.polygon),
        "box": box_to_json(cert.box),
        "system": system_to_json(cert.system),
        "eta_sin_sq": rat_to_str(cert.eta.sin_sq),
        "degenerate": 2 * cert.system.ell + 1 > cert.polygon.m,
        "null_vectors": [
            {"classes": [k + 1 for k in classes],
             "y": [str(v) for v in y]}
            for classes, y in cert.null_vectors
        ],
        "witness": {
            "in": polygon_to_json(cert.witness_in),
            "mid": polygon_to_json(cert.witness_mid),
            "out": polygon_to_json(cert.witness_out),
        },
        "delta": rat_to_str(cert.delta),
    }


@_reader
def certificate_from_json(d: dict) -> NormCertificate:
    if d.get("schema") != 2 or type(d["schema"]) is not int:
        raise ValueError(f"schema {d.get('schema')!r}, expected 2")
    polygon = polygon_from_json(d["polygon"])
    system = system_from_json(d["system"])
    if d["degenerate"] is not (2 * system.ell + 1 > polygon.m):
        raise ValueError("degenerate must be true exactly when 2ℓ+1 > m")
    box = box_from_json(d["box"])
    b_in, b_mid, b_out = (polygon_from_json(d["witness"][k])
                          for k in ("in", "mid", "out"))
    # verify indexes the box and the witness vertex tables by side
    if any(x.m != polygon.m for x in (box, b_in, b_mid, b_out)):
        raise ValueError(f"box or witness polygon differs from the polygon's "
                         f"{polygon.m} side pairs")
    return NormCertificate(
        polygon=polygon,
        box=box,
        null_vectors=tuple(
            (tuple(_wire_int(k) - 1 for k in e["classes"]),
             _wire_null_vector(e["y"]))
            for e in d["null_vectors"]
        ),
        system=system,
        eta=AngleBound(rat_from_str(d["eta_sin_sq"])),
        witness_in=b_in,
        witness_mid=b_mid,
        witness_out=b_out,
        delta=rat_from_str(d["delta"]),
    )


def report_to_json(rep: VerifyReport) -> dict:
    return {
        "trials": rep.trials,
        "alphas_checked": rep.alphas_checked,
        "sweep_ok": rep.sweep_ok,
        "counterexample_found": rep.counterexample_found,
        "hits": [
            {
                "alpha": [a + 1 for a in h.alpha],
                "t": [rat_to_str(v) for v in h.t],
                "directions": [_vec(u) for u in h.directions],
                "in_trapezoids": h.in_trapezoids,
                "eta_separated": h.eta_separated,
                "source": h.source,
            }
            for h in rep.hits
        ],
    }


# --- files --------------------------------------------------------------------


@contextlib.contextmanager
def _atomic_open(path: str, newline: Optional[str] = None) -> Iterator[IO[str]]:
    """Atomic write: a temp file in the target directory, renamed over `path`
    on success and removed on any failure. The file gets the mode
    0o666 & ~umask that open() would give, not mkstemp's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict):
    """The payload as indented, key-sorted JSON and a newline: `json.dump`'s
    text, written 8192 encoder chunks at a time, so the text of each file a
    pipeline run emits goes out in one write. One `json.dumps` string would
    hold every chunk and the whole text at once: a 33 MB peak for a 4.4 MB
    payload, against 0.5 MB here."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    with _atomic_open(path) as fh:
        while part := "".join(islice(chunks, 8192)):
            fh.write(part)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise PayloadError(f"{path}: not JSON: {exc}") from exc
        except RecursionError as exc:
            raise PayloadError(f"{path}: JSON nested too deeply: {exc}") from exc


def write_color_csv(path: str, G: DecoratedUDG):
    """Per-color edge counts: color id, canonical direction (when known),
    edge count."""
    counts: dict[int, int] = {}
    for c in G.colors:
        counts[c] = counts.get(c, 0) + 1
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["color", "direction_x", "direction_y", "edges"])
        for c in sorted(counts):
            if G.directions is not None:
                u = G.directions[c - 1]
                writer.writerow([c, rat_to_str(u.x), rat_to_str(u.y), counts[c]])
            else:
                writer.writerow([c, "", "", counts[c]])


def render_svg(P: PointSeq, G: DecoratedUDG) -> str:
    """Display-only 640×640 SVG of the point set with its unit-distance
    edges."""
    size = 640
    xs = [float(p.x) for p in P]
    ys = [float(p.y) for p in P]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    pad = 0.08 * span
    scale = size / (span + 2 * pad)

    def sx(x):
        return (x - x0 + pad) * scale

    def sy(y):
        return size - (y - y0 + pad) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    for (a, b), c in zip(G.edges, G.colors):
        pa, pb = P[a - 1], P[b - 1]
        color = palette[(c - 1) % len(palette)]
        parts.append(
            f'<line x1="{sx(float(pa.x)):.2f}" y1="{sy(float(pa.y)):.2f}" '
            f'x2="{sx(float(pb.x)):.2f}" y2="{sy(float(pb.y)):.2f}" '
            f'stroke="{color}" stroke-width="1.2"/>'
        )
    for p in P:
        parts.append(
            f'<circle cx="{sx(float(p.x)):.2f}" cy="{sy(float(p.y)):.2f}" '
            f'r="3" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_text(path: str, content: str):
    with _atomic_open(path) as fh:
        fh.write(content)
