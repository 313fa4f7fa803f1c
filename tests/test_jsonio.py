import json
import os
import random
import stat
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import octagon, random_polygon
from udnorm import jsonio
from udnorm.certify import certify_box, sample_verify, witness_norm
from udnorm.cli import pipeline_decagon
from udnorm.colored import EdgeColoredGraph, color_cover
from udnorm.dependence import DependenceSystem
from udnorm.norms import AngleBound, NormOracle, square
from udnorm.pointsets import flat_side_quadratic
from udnorm.ratlin import over_common_denominator, rat_from_str
from udnorm.udg import build_udg

TOY = DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((2,), (-1,)))
PIPELINE_SYSTEM = DependenceSystem(ell=2, indices=(4, 5, 1, 2, 3),
                                   coeffs=((4, -3), (3, -2), (2, -1)))
WIDE = DependenceSystem(ell=2, indices=(1, 2, 3, 4, 5),
                        coeffs=((1, 1), (1, -1), (2, 1)))


class TestRoundTrips:
    def test_polygon(self):
        rng = random.Random(1)
        for _ in range(20):
            B = random_polygon(rng)
            assert jsonio.polygon_from_json(jsonio.polygon_to_json(B)) == B

    def test_polygon_schema(self, octagon):
        d = jsonio.polygon_to_json(octagon)
        assert set(d) == {"m", "normals", "offsets"}
        assert d["m"] == 4
        for n in d["normals"]:
            assert isinstance(n[0], str) and isinstance(n[1], str)

    def test_points(self):
        P = flat_side_quadratic(8)
        assert jsonio.points_from_json(jsonio.points_to_json(P)) == P

    def test_points_random_rationals(self):
        rng = random.Random(3)
        from udnorm.pointsets import PointSeq
        from udnorm.ratlin import Vec2
        pts = []
        seen = set()
        while len(pts) < 30:
            p = Vec2.of(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)),
                        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)))
            if (p.x, p.y) not in seen:
                seen.add((p.x, p.y))
                pts.append(p)
        P = PointSeq.of(pts)
        assert jsonio.points_from_json(jsonio.points_to_json(P)) == P

    def test_oracles(self):
        for d, o in (
            ({"kind": "euclidean"}, NormOracle.euclidean()),
            ({"kind": "polygon", "polygon": jsonio.polygon_to_json(square())},
             NormOracle.of_polygon(square())),
        ):
            assert jsonio.oracle_from_json(d) == o
        with pytest.raises(jsonio.PayloadError, match="unknown norm kind 'pnorm'"):
            jsonio.oracle_from_json({"kind": "pnorm", "p": "3"})

    def test_udg(self):
        P = flat_side_quadratic(8)
        G = build_udg(P, square())
        assert jsonio.udg_from_json(jsonio.udg_to_json(G)) == G
        abstract = G.without_directions()
        assert jsonio.udg_from_json(jsonio.udg_to_json(abstract)) == abstract

    def test_graph_and_cover(self):
        G = build_udg(flat_side_quadratic(10), square())
        H = EdgeColoredGraph(G.n, G.edges, G.colors)
        assert G != H  # dataclass equality compares classes too
        assert jsonio.graph_from_json(_graph_payload(H)) == H
        res = color_cover(H, Fraction(2001, 1000), Fraction(1, 4))
        d = jsonio.cover_to_json(res)
        assert (d["W"], d["I"], d["colors_in_W"]) == (
            list(res.W), list(res.I), res.colors_in_W)
        assert d["params"] == {"r": str(res.params.r), "q": "2001/1000",
                               "C": "1/4"}
        assert json.loads(json.dumps(d)) == d

    def test_system(self):
        assert jsonio.system_from_json(jsonio.system_to_json(TOY)) == TOY

    def test_certificate_and_report(self, octagon):
        cert = witness_norm(certify_box(TOY, octagon, Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        back = jsonio.certificate_from_json(jsonio.certificate_to_json(cert))
        assert back == cert
        # 3 == Fraction(3), so equality alone cannot see the number type
        for c in (cert, back):
            assert all(type(v) is int for _, y in c.null_vectors for v in y)
        rep = sample_verify(cert, 5, seed=0)
        payload = jsonio.report_to_json(rep)
        assert payload["counterexample_found"] is False
        json.dumps(payload)  # serializable

    def test_canonical_rational_strings(self, octagon):
        d = jsonio.polygon_to_json(octagon)
        blob = json.dumps(d, sort_keys=True)
        again = json.dumps(
            jsonio.polygon_to_json(jsonio.polygon_from_json(d)),
            sort_keys=True)
        assert blob == again


def _system():
    return jsonio.system_to_json(TOY)


def _udg():
    return jsonio.udg_to_json(build_udg(flat_side_quadratic(8), square()))


def _graph_payload(H):
    """The wire form `graph_from_json` reads: 1-based edges and a color per
    "a,b" edge key."""
    return {"n": H.n, "edges": [list(e) for e in H.edges],
            "color": {f"{a},{b}": c for (a, b), c in zip(H.edges, H.colors)}}


def _graph():
    G = build_udg(flat_side_quadratic(8), square())
    return _graph_payload(G)


def _put(d, path, value):
    """Set the entry at path; a None step is the first key of a dict."""
    *steps, last = path
    for step in steps:
        d = d[sorted(d)[0] if step is None else step]
    d[sorted(d)[0] if last is None else last] = value


# (reader, payload, where an integer sits on the wire)
INT_FIELDS = {
    "system-l": (jsonio.system_from_json, _system, ["l"]),
    "system-indices": (jsonio.system_from_json, _system, ["indices", 0]),
    "system-coeffs": (jsonio.system_from_json, _system, ["coeffs", 0, 0]),
    "udg-n": (jsonio.udg_from_json, _udg, ["n"]),
    "udg-edge": (jsonio.udg_from_json, _udg, ["edges", 0, 1]),
    "udg-color": (jsonio.udg_from_json, _udg, ["color", None]),
    "udg-sign": (jsonio.udg_from_json, _udg, ["sign", None]),
    "graph-n": (jsonio.graph_from_json, _graph, ["n"]),
    "graph-edge": (jsonio.graph_from_json, _graph, ["edges", 0, 0]),
    "graph-color": (jsonio.graph_from_json, _graph, ["color", None]),
}


class TestStrictIntegers:
    @pytest.mark.parametrize("value", [2.9, "2", True], ids=["float", "string",
                                                            "bool"])
    @pytest.mark.parametrize("field", sorted(INT_FIELDS))
    def test_non_integer_is_payload_error(self, field, value):
        reader, build, path = INT_FIELDS[field]
        payload = build()
        reader(payload)  # the unchanged payload reads
        _put(payload, path, value)
        with pytest.raises(jsonio.PayloadError):
            reader(payload)

    def test_truncated_coefficient_reported(self):
        with pytest.raises(jsonio.PayloadError, match="2.9"):
            jsonio.system_from_json(
                {"l": 1, "indices": [1, 2, 3], "coeffs": [[2.9], [-1]]})

    def test_index_below_one_is_payload_error(self):
        with pytest.raises(jsonio.PayloadError, match="start at 1"):
            jsonio.system_from_json(
                {"l": 1, "indices": [0, -1, 2], "coeffs": [[2], [-1]]})

    def test_rational_y_scaled_by_common_denominator(self, octagon):
        # y is read as rationals and kept as y·L, L > 0 the least common
        # denominator of its entries; an integer y reads as it is
        cert = witness_norm(certify_box(TOY, octagon, Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        d = jsonio.certificate_to_json(cert)
        d["null_vectors"][0]["y"] = ["2/3", "-4/9", "0"]
        d["null_vectors"][1]["y"] = ["-6", "4", "2"]
        back = jsonio.certificate_from_json(d)
        assert back.null_vectors[0][1] == (6, -4, 0)
        assert back.null_vectors[1][1] == (-6, 4, 2)
        assert all(type(v) is int for _, y in back.null_vectors for v in y)


def _certificate():
    return jsonio.certificate_to_json(witness_norm(certify_box(
        TOY, octagon(), Fraction(1, 100), AngleBound.of(Fraction(5, 9)))))


def _polygon():
    return jsonio.polygon_to_json(octagon())


def _pipeline_certificate():
    """The certificate `udnorm pipeline` writes at its defaults: the
    decagon, whose m = 5 is the fewest side pairs with a class tuple at
    ℓ = 2."""
    return jsonio.certificate_to_json(witness_norm(certify_box(
        PIPELINE_SYSTEM, pipeline_decagon(), Fraction(1, 64),
        AngleBound.of(Fraction(2, 5)))))


def _wide_certificate():
    """WIDE on the octagon: 2ℓ+1 = 5 > m = 4, so no class tuple exists."""
    return jsonio.certificate_to_json(witness_norm(certify_box(
        WIDE, octagon(), Fraction(1, 100), AngleBound.of(Fraction(5, 9)))))


class TestCertificateCounts:
    @pytest.mark.parametrize("where", [["polygon"], ["witness", "in"],
                                       ["witness", "mid"], ["witness", "out"]],
                             ids=["polygon", "in", "mid", "out"])
    def test_whole_number_float_m_is_payload_error(self, where):
        # 5.0 == 5, so only the type tells a float from the JSON integer
        payload = _pipeline_certificate()
        jsonio.certificate_from_json(payload)  # the unchanged payload reads
        polygon = _get(payload, where)
        assert polygon["m"] == 5
        polygon["m"] = float(polygon["m"])
        with pytest.raises(jsonio.PayloadError, match="not an integer: 5.0"):
            jsonio.certificate_from_json(payload)

    @pytest.mark.parametrize("build, degenerate", [
        (_certificate, False), (_pipeline_certificate, False),
        (_wide_certificate, True)], ids=["2l+1<m", "2l+1=m", "2l+1>m"])
    def test_degenerate_flag_must_be_2l_plus_1_above_m(self, build, degenerate):
        payload = build()
        assert payload["degenerate"] is degenerate
        jsonio.certificate_from_json(payload)  # the unchanged payload reads
        # the flipped flag, and the right value as a JSON integer
        for wrong in (not degenerate, int(degenerate)):
            payload["degenerate"] = wrong
            with pytest.raises(jsonio.PayloadError, match="2ℓ\\+1 > m"):
                jsonio.certificate_from_json(payload)


# (reader, payload, where a list sits on the wire)
LIST_FIELDS = {
    "null-vector-y": (jsonio.certificate_from_json, _certificate,
                      ["null_vectors", 0, "y"]),
    "box-lo": (jsonio.certificate_from_json, _certificate, ["box", "lo"]),
    "box-hi": (jsonio.certificate_from_json, _certificate, ["box", "hi"]),
    "witness-offsets": (jsonio.certificate_from_json, _certificate,
                        ["witness", "mid", "offsets"]),
    "polygon-offsets": (jsonio.polygon_from_json, _polygon, ["offsets"]),
    "polygon-normals": (jsonio.polygon_from_json, _polygon, ["normals"]),
    "polygon-normal": (jsonio.polygon_from_json, _polygon, ["normals", 0]),
}


# (reader, payload, where a pair of rationals sits on the wire)
PAIR_FIELDS = {
    "polygon-normal": (jsonio.polygon_from_json, _polygon, ["normals", 0]),
    "witness-normal": (jsonio.certificate_from_json, _certificate,
                       ["witness", "out", "normals", 1]),
    "point": (jsonio.points_from_json,
              lambda: jsonio.points_to_json(flat_side_quadratic(8)),
              ["points", 0]),
    "udg-direction": (jsonio.udg_from_json, _udg, ["directions", 0]),
}


def _get(d, path):
    for step in path:
        d = d[step]
    return d


class TestListFields:
    @pytest.mark.parametrize("kind", ["string", "object"])
    @pytest.mark.parametrize("field", sorted(LIST_FIELDS))
    def test_non_list_is_payload_error(self, field, kind):
        # a string of digits, or an object with digit keys, as long as the
        # list: iterated, either would read as that many one-digit entries
        reader, build, path = LIST_FIELDS[field]
        payload = build()
        reader(payload)  # the unchanged payload reads
        n = len(_get(payload, path))
        value = ("1" * n if kind == "string"
                 else {str(i + 1): str(i + 1) for i in range(n)})
        _put(payload, path, value)
        with pytest.raises(jsonio.PayloadError, match="not a list"):
            reader(payload)

    @pytest.mark.parametrize("with_m", [True, False], ids=["m", "no-m"])
    @pytest.mark.parametrize("field", ["normals", "offsets"])
    def test_unequal_polygon_lists_is_payload_error(self, field, with_m):
        # zipped, the longer list would be cut to the shorter, and without
        # "m" nothing would notice
        payload = _polygon()
        payload[field].pop()
        if not with_m:
            del payload["m"]
        with pytest.raises(jsonio.PayloadError, match="normals but"):
            jsonio.polygon_from_json(payload)

    @pytest.mark.parametrize("entries", [["1"], ["1", "0", "7"]],
                             ids=["one", "three"])
    @pytest.mark.parametrize("field", sorted(PAIR_FIELDS))
    def test_vector_not_a_pair_is_payload_error(self, field, entries):
        # ["1", "0", "7"] would read as (1, 0)
        reader, build, path = PAIR_FIELDS[field]
        payload = build()
        reader(payload)  # the unchanged payload reads
        _put(payload, path, entries)
        with pytest.raises(jsonio.PayloadError, match="not a pair"):
            reader(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.tuples(st.integers(-1000, 1000), st.integers(-60, 60)).map(
            lambda p: f"{p[0]}/{p[1]}")), max_size=7))
    def test_y_reader_matches_fraction_reader(self, strings):
        # negative entries, n/1, unreduced num/den, and zero or negative
        # denominators: the integer reader gives y·L for the least common
        # denominator L of the Fractions that rat_from_str reads, and fails
        # where rat_from_str fails
        for v in strings:
            num, _, den = v.partition("/")
            if den and int(den) != 0:
                assert rat_from_str(v) == Fraction(int(num), int(den))
        try:
            want = over_common_denominator([rat_from_str(v) for v in strings])[1]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                jsonio._wire_null_vector(strings)
            return
        got = jsonio._wire_null_vector(strings)
        assert got == want
        assert all(type(v) is int for v in got)


class TestFiles:
    def test_atomic_write_and_read(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        jsonio.write_json(str(path), {"a": 1})
        assert jsonio.read_json(str(path)) == {"a": 1}
        leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    @pytest.mark.parametrize("entries", [0, 3, 2000])
    def test_write_json_text_is_dumps(self, tmp_path, entries):
        # 2000 entries make about 30,000 encoder chunks: several batches
        payload = {"b": [{"y": [str(i), "-1/2"], "k": i} for i in range(entries)],
                   "a": None}
        path = tmp_path / "out.json"
        jsonio.write_json(str(path), payload)
        assert path.read_text() == json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n"

    def test_read_non_json_is_payload_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(jsonio.PayloadError):
            jsonio.read_json(str(path))

    def test_color_csv(self, tmp_path):
        G = build_udg(flat_side_quadratic(8), square())
        path = tmp_path / "colors.csv"
        jsonio.write_color_csv(str(path), G)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "color,direction_x,direction_y,edges"
        assert len(lines) == G.k + 1
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == G.edge_count

    def test_svg(self, tmp_path):
        P = flat_side_quadratic(6)
        G = build_udg(P, square())
        svg = jsonio.render_svg(P, G)
        assert svg.startswith("<svg")
        assert svg.count("<circle") == len(P)
        assert svg.count("<line") == G.edge_count

    @pytest.mark.parametrize("write", [
        lambda path: jsonio.write_json(path, {"a": object()}),
        lambda path: jsonio.write_color_csv(
            path, SimpleNamespace(colors=(1,), directions=())),
        lambda path: jsonio.write_text(path, 123),
    ], ids=["json", "csv", "text"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, write):
        with pytest.raises((TypeError, IndexError)):
            write(str(tmp_path / "out"))
        assert list(tmp_path.iterdir()) == []

    def test_written_mode_follows_umask(self, tmp_path):
        G = build_udg(flat_side_quadratic(6), square())
        old = os.umask(0o022)
        try:
            jsonio.write_json(str(tmp_path / "a.json"), {"a": 1})
            jsonio.write_color_csv(str(tmp_path / "a.csv"), G)
            jsonio.write_text(str(tmp_path / "a.svg"), "<svg/>")
        finally:
            os.umask(old)
        for path in tmp_path.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name
