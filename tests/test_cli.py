import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import octagon, scale_null_vectors
from udnorm import cli, jsonio
from udnorm.certify import certify_box, witness_norm
from udnorm.colored import MAX_EXHAUSTIVE_CAP
from udnorm.dependence import DependenceSystem
from udnorm.norms import AngleBound, NormOracle, hausdorff_to_oracle, square
from udnorm.pointsets import flat_side_quadratic
from udnorm.udg import build_udg


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "udnorm.cli", *args],
        capture_output=True, text=True,
    )


TOY = DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((2,), (-1,)))


class TestGen:
    def test_subset_sum(self, tmp_path):
        out = tmp_path / "P.json"
        r = run_cli("gen", "--kind", "subset-sum", "--k", "3",
                    "--out", str(out))
        assert r.returncode == 0
        assert len(jsonio.read_json(str(out))["points"]) == 8

    def test_flat_to_stdout(self):
        r = run_cli("gen", "--kind", "flat", "--n", "6")
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["points"]) == 6

    def test_usage_error(self):
        r = run_cli("gen", "--kind", "nonsense")
        assert r.returncode == 2

    def test_subset_sum_k_above_side_count(self):
        # the default square has 4 sides
        assert run_cli("gen", "--kind", "subset-sum", "--k", "4").returncode == 0
        r = run_cli("gen", "--kind", "subset-sum", "--k", "9")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        err = json.loads(r.stdout)
        assert err["error"] == "usage"
        assert "4 sides" in err["message"]


class TestUdg:
    def test_delegation(self, tmp_path):
        p_path = tmp_path / "P.json"
        b_path = tmp_path / "B.json"
        g_path = tmp_path / "G.json"
        run_cli("gen", "--kind", "flat", "--n", "8", "--out", str(p_path))
        jsonio.write_json(str(b_path), jsonio.polygon_to_json(square()))
        r = run_cli("udg", "--points", str(p_path), "--polygon", str(b_path),
                    "--out", str(g_path), "--csv", str(tmp_path / "c.csv"),
                    "--svg", str(tmp_path / "g.svg"))
        assert r.returncode == 0
        g = jsonio.read_json(str(g_path))
        assert len(g["edges"]) == 16
        assert (tmp_path / "c.csv").exists()
        assert (tmp_path / "g.svg").read_text().startswith("<svg")

    def test_prop1_reads_decorated_and_plain_graphs_alike(self, tmp_path):
        # a decorated graph is an edge-colored graph: its signs and
        # directions do not change the cover
        G = build_udg(flat_side_quadratic(10), square())
        plain = {"n": G.n, "edges": [list(e) for e in G.edges],
                 "color": {f"{a},{b}": c
                           for (a, b), c in zip(G.edges, G.colors)}}
        decorated = jsonio.udg_to_json(G)
        assert "sign" in decorated and "directions" in decorated
        covers = []
        for name, payload in (("udg", decorated), ("plain", plain)):
            graph, out = tmp_path / f"{name}.json", tmp_path / f"{name}-cover.json"
            jsonio.write_json(str(graph), payload)
            assert cli.main(["prop1", "--graph", str(graph), "--C", "1/4",
                             "--out", str(out)]) == 0
            covers.append(out.read_bytes())
        assert covers[0] == covers[1]


class TestCheckRoundTrip:
    def test_check_accepts_emitted(self, tmp_path):
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        path = tmp_path / "cert.json"
        jsonio.write_json(str(path), jsonio.certificate_to_json(cert))
        r = run_cli("check", "--cert", str(path))
        assert r.returncode == 0

    def test_check_rejects_corrupted(self, tmp_path):
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        payload = jsonio.certificate_to_json(cert)
        payload["box"]["lo"] = [str(Fraction(v) * 8)
                                for v in payload["box"]["lo"]]
        payload["box"]["hi"] = [str(Fraction(v) * 8)
                                for v in payload["box"]["hi"]]
        path = tmp_path / "bad.json"
        jsonio.write_json(str(path), payload)
        r = run_cli("check", "--cert", str(path))
        assert r.returncode == 1
        err = json.loads(r.stdout)
        assert err["error"] == "check-failed"
        assert err["failing_alphas"]

    def test_oracle_needs_eps(self, tmp_path):
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        jsonio.write_json(str(tmp_path / "cert.json"),
                          jsonio.certificate_to_json(cert))
        jsonio.write_json(str(tmp_path / "far.json"),
                          {"kind": "polygon",
                           "polygon": jsonio.polygon_to_json(square(1000))})
        args = ("check", "--cert", str(tmp_path / "cert.json"),
                "--oracle", str(tmp_path / "far.json"))
        r = run_cli(*args)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout)["error"] == "usage"
        # with eps the distance test runs, and the far square fails it
        r = run_cli(*args, "--eps", "1/4")
        assert r.returncode == 1
        assert "eps" in json.loads(r.stdout)["message"]

    def test_eps_needs_oracle(self, tmp_path):
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        jsonio.write_json(str(tmp_path / "cert.json"),
                          jsonio.certificate_to_json(cert))
        # the usage error comes before any file is read, so a missing
        # certificate gives the same answer
        for name in ("cert.json", "missing.json"):
            r = run_cli("check", "--cert", str(tmp_path / name),
                        "--eps", "1/1000000")
            assert r.returncode == 2
            assert "Traceback" not in r.stderr
            assert json.loads(r.stdout)["error"] == "usage"


def _toy_cert(path):
    """The octagon toy certificate, written to path; its witness B_mid is
    the octagon itself."""
    cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                    AngleBound.of(Fraction(5, 9))))
    jsonio.write_json(str(path), jsonio.certificate_to_json(cert))
    return cert


class TestRationalNullVectors:
    @pytest.mark.parametrize("scale, every", [
        (Fraction(-2, 3), True), (Fraction(5, 7), False),
    ], ids=["every_y", "one_y"])
    def test_same_answers_as_integer_payload(self, tmp_path, scale, every):
        # a payload may give y as rationals: the reader scales each y by its
        # positive common denominator, so check and verify answer as they do
        # for the integer y that certify writes
        cert = _toy_cert(tmp_path / "cert.json")
        payload = jsonio.certificate_to_json(cert)
        scale_null_vectors(payload, scale, every)
        assert any("/" in v for v in payload["null_vectors"][0]["y"])
        jsonio.write_json(str(tmp_path / "scaled.json"), payload)
        r = run_cli("check", "--cert", str(tmp_path / "scaled.json"))
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"ok": True}
        reports = []
        for name in ("cert.json", "scaled.json"):
            out = tmp_path / f"report-{name}"
            r = run_cli("verify", "--cert", str(tmp_path / name), "--trials", "5",
                        "--out", str(out))
            assert r.returncode == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestCheckOracleKinds:
    # d_H(octagon, square) = 3√2/10 ≈ 0.424 and d_H(octagon, disc) =
    # √29/5 − 1 ≈ 0.077: each eps sits clear of the true distance, so each
    # verdict is the exact one
    @pytest.mark.parametrize("payload, oracle, within, below", [
        ({"kind": "polygon", "polygon": jsonio.polygon_to_json(square())},
         NormOracle.of_polygon(square()), Fraction(1, 2), Fraction(2, 5)),
        ({"kind": "euclidean"}, NormOracle.euclidean(),
         Fraction(1, 10), Fraction(1, 20)),
    ], ids=["polygon", "euclidean"])
    def test_check_verdict(self, tmp_path, payload, oracle, within, below):
        cert = _toy_cert(tmp_path / "cert.json")
        hd = hausdorff_to_oracle(cert.witness_mid, oracle)
        assert below < hd.lo <= hd.hi < within
        jsonio.write_json(str(tmp_path / "O.json"), payload)
        args = ("check", "--cert", str(tmp_path / "cert.json"),
                "--oracle", str(tmp_path / "O.json"), "--eps")
        r = run_cli(*args, str(within))
        assert r.returncode == 0, r.stdout
        assert json.loads(r.stdout) == {"ok": True}
        r = run_cli(*args, str(below))
        assert r.returncode == 1, r.stdout
        err = json.loads(r.stdout)
        assert err["error"] == "check-failed"
        assert f"d_H upper bound {hd.hi}" in err["message"]

    @pytest.mark.parametrize("command", [
        lambda d: _toy_inputs(d) + ["--eta-sin2", "5/9"],
        lambda d: ["check", "--cert", str(d / "toy.json"), "--eps", "1/4"],
    ], ids=["certify", "check"])
    def test_pnorm_kind_is_malformed_payload(self, tmp_path, command):
        _toy_cert(tmp_path / "toy.json")
        jsonio.write_json(str(tmp_path / "O.json"), {"kind": "pnorm", "p": "3"})
        r = run_cli(*command(tmp_path), "--oracle", str(tmp_path / "O.json"))
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        err = json.loads(r.stdout)
        assert err["error"] == "malformed-payload"
        assert "unknown norm kind 'pnorm'" in err["message"]
        assert not (tmp_path / "cert.json").exists()


class TestGridGen:
    def test_grid(self):
        r = run_cli("gen", "--kind", "grid", "--w", "3", "--h", "2",
                    "--step", "1/2")
        assert r.returncode == 0
        pts = json.loads(r.stdout)["points"]
        assert len(pts) == 6
        assert pts[1] == ["1/2", "0"]

    def test_negative_fraction_step(self):
        # `--step -1/2` is a value, not an option, and reads like `--step=-1/2`
        spaced = run_cli("gen", "--kind", "grid", "--w", "2", "--h", "1",
                         "--step", "-1/2")
        joined = run_cli("gen", "--kind", "grid", "--w", "2", "--h", "1",
                         "--step=-1/2")
        assert spaced.returncode == joined.returncode == 0
        assert spaced.stdout == joined.stdout
        assert json.loads(spaced.stdout)["points"] == [["0", "0"], ["-1/2", "0"]]


class TestLindepAndVerify:
    def test_lindep_then_certify_then_verify(self, tmp_path):
        run_cli("gen", "--kind", "flat", "--n", "10",
                "--out", str(tmp_path / "P.json"))
        jsonio.write_json(str(tmp_path / "B.json"),
                          jsonio.polygon_to_json(square()))
        run_cli("udg", "--points", str(tmp_path / "P.json"),
                "--polygon", str(tmp_path / "B.json"),
                "--out", str(tmp_path / "G.json"))
        r = run_cli("lindep", "--udg", str(tmp_path / "G.json"),
                    "--C", "1/4", "--out", str(tmp_path / "S.json"),
                    "--cover-out", str(tmp_path / "cover.json"))
        assert r.returncode == 0
        assert jsonio.read_json(str(tmp_path / "S.json"))["l"] == 2
        assert (tmp_path / "cover.json").exists()
        jsonio.write_json(str(tmp_path / "oct.json"),
                          jsonio.polygon_to_json(octagon()))
        # the flat-side system has ell = 2 > (m-1)/2 for the octagon:
        # certify still succeeds, flagged degenerate (no admissible maps)
        r = run_cli("certify", "--system", str(tmp_path / "S.json"),
                    "--polygon", str(tmp_path / "oct.json"),
                    "--eta-sin2", "5/9", "--delta0", "1/100",
                    "--out", str(tmp_path / "cert.json"))
        assert r.returncode == 0
        assert jsonio.read_json(str(tmp_path / "cert.json"))["degenerate"]

    def test_verify_subcommand(self, tmp_path):
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        path = tmp_path / "cert.json"
        jsonio.write_json(str(path), jsonio.certificate_to_json(cert))
        r = run_cli("verify", "--cert", str(path), "--trials", "20",
                    "--out", str(tmp_path / "report.json"))
        assert r.returncode == 0
        rep = jsonio.read_json(str(tmp_path / "report.json"))
        assert rep["counterexample_found"] is False
        assert rep["sweep_ok"] is True
        # widened box: exit 1 and a concrete hit in the report
        payload = jsonio.certificate_to_json(cert)
        payload["box"]["lo"] = [str(Fraction(v) * 8)
                                for v in payload["box"]["lo"]]
        payload["box"]["hi"] = [str(Fraction(v) * 8)
                                for v in payload["box"]["hi"]]
        bad = tmp_path / "bad.json"
        jsonio.write_json(str(bad), payload)
        r = run_cli("verify", "--cert", str(bad), "--trials", "20")
        assert r.returncode == 1
        assert json.loads(r.stdout)["counterexample_found"] is True

    def test_zero_trials_still_decides(self, tmp_path):
        # the directed pass runs whatever the number of random trials
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        payload = jsonio.certificate_to_json(cert)
        for key in ("lo", "hi"):
            payload["box"][key] = [str(Fraction(v) * 32)
                                   for v in payload["box"][key]]
        bad = tmp_path / "bad.json"
        jsonio.write_json(str(bad), payload)
        r = run_cli("verify", "--cert", str(bad), "--trials", "0")
        assert r.returncode == 1
        rep = json.loads(r.stdout)
        assert rep["trials"] == 0
        assert rep["counterexample_found"] is True

    @pytest.mark.parametrize("command", [
        lambda d: ["verify", "--cert", str(d / "cert.json"),
                   "--out", str(d / "report.json")],
        lambda d: ["pipeline", "--out-dir", str(d / "run")],
    ], ids=["verify", "pipeline"])
    def test_negative_trials_is_usage_error(self, tmp_path, command):
        r = run_cli(*command(tmp_path), "--trials", "-3")
        assert r.returncode == 2
        assert "--trials" in r.stderr
        assert list(tmp_path.iterdir()) == []



def _toy_inputs(d):
    jsonio.write_json(str(d / "S.json"), jsonio.system_to_json(TOY))
    jsonio.write_json(str(d / "oct.json"), jsonio.polygon_to_json(octagon()))
    return ["certify", "--system", str(d / "S.json"),
            "--out", str(d / "cert.json")]


class TestCertifyErrors:
    def test_not_eta_short_is_structured_error(self, tmp_path):
        r = run_cli(*_toy_inputs(tmp_path), "--polygon",
                    str(tmp_path / "oct.json"), "--eta-sin2", "1/4",
                    "--delta0", "1/100")
        assert r.returncode == 1, r.stderr
        assert json.loads(r.stdout)["error"] == "CertifierError"
        assert not (tmp_path / "cert.json").exists()

    def test_oracle_without_eps(self, tmp_path):
        # --eps defaults to 1/4 for the approximation and for δ₀ alike
        oracle = tmp_path / "O.json"
        jsonio.write_json(str(oracle), {"kind": "polygon",
                                        "polygon": jsonio.polygon_to_json(octagon())})
        r = run_cli(*_toy_inputs(tmp_path), "--oracle", str(oracle),
                    "--eta-sin2", "5/9")
        assert r.returncode == 0, r.stderr
        r = run_cli("check", "--cert", str(tmp_path / "cert.json"),
                    "--oracle", str(oracle), "--eps", "1/4")
        assert r.returncode == 0, r.stdout
        assert json.loads(r.stdout) == {"ok": True}

    def test_needs_polygon_or_oracle(self, tmp_path):
        r = run_cli(*_toy_inputs(tmp_path), "--eta-sin2", "5/9")
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"] == "usage"

    @pytest.mark.parametrize("value", ["0", "-1/100"])
    @pytest.mark.parametrize("command", [
        lambda d: _toy_inputs(d) + ["--polygon", str(d / "oct.json"),
                                    "--eta-sin2", "5/9"],
        lambda d: ["pipeline", "--out-dir", str(d / "run")],
    ], ids=["certify", "pipeline"])
    def test_nonpositive_delta0_is_usage_error(self, tmp_path, command, value):
        r = run_cli(*command(tmp_path), f"--delta0={value}")
        assert r.returncode == 2
        assert "--delta0" in r.stderr
        assert not (tmp_path / "cert.json").exists()
        assert not (tmp_path / "run").exists()

def _drop_box(payload):
    del payload["box"]


def _zero_delta(payload):
    payload["delta"] = "1/0"


def _scalar_null_vectors(payload):
    payload["null_vectors"] = 5


def _schema_1(payload):
    payload["schema"] = 1


def _eta_zero(payload):
    payload["eta_sin_sq"] = "0"


def _eta_three_halves(payload):
    payload["eta_sin_sq"] = "3/2"


def _degenerate_flipped(payload):
    payload["degenerate"] = not payload["degenerate"]


def _short_polygon_offsets(polygon):
    del polygon["m"]
    polygon["offsets"].pop()


def _three_entry_normal(polygon):
    polygon["normals"][0].append("7")


def _drop_witness(payload):
    del payload["witness"]


def _drop_delta(payload):
    del payload["delta"]


def _drop_witness_and_delta(payload):
    del payload["witness"], payload["delta"]


def _box_short(payload):
    for key in ("lo", "hi"):
        payload["box"][key].pop()


def _box_long(payload):
    for key in ("lo", "hi"):
        payload["box"][key].append(payload["box"][key][-1])


def _witness_in_short(payload):
    inner = payload["witness"]["in"]
    inner["m"] -= 1
    inner["normals"].pop()
    inner["offsets"].pop()


class TestMalformedPayload:
    @pytest.mark.parametrize("command", ["check", "check-oracle", "verify"])
    @pytest.mark.parametrize("mutate, message", [
        (_drop_witness, "'witness'"),
        (_drop_delta, "'delta'"),
        (_drop_witness_and_delta, "'witness'"),
        (_box_short, "side pairs"),
        (_box_long, "side pairs"),
        (_witness_in_short, "side pairs"),
    ], ids=["no-witness", "no-delta", "no-witness-no-delta", "box-short",
            "box-long", "witness-in-short"])
    def test_unwitnessed_or_missized_certificate(self, tmp_path, capsys,
                                                 command, mutate, message):
        # a certificate without its witness and δ states nothing, and verify
        # reads the box and the witness vertex tables side by side: both
        # are malformed payloads, whichever command reads them
        path = tmp_path / "cert.json"
        _toy_cert(path)
        payload = json.loads(path.read_text())
        mutate(payload)
        jsonio.write_json(str(path), payload)
        oracle = tmp_path / "euclidean.json"
        jsonio.write_json(str(oracle), {"kind": "euclidean"})
        args = {
            "check": ["check", "--cert", str(path)],
            "check-oracle": ["check", "--cert", str(path), "--oracle",
                             str(oracle), "--eps", "1/1000000000"],
            "verify": ["verify", "--cert", str(path), "--trials", "5"],
        }[command]
        capsys.readouterr()
        assert cli.main(args) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "malformed-payload"
        assert "certificate_from_json" in err["message"]
        assert message in err["message"]

    @pytest.mark.parametrize(
        "mutate", [_drop_box, _zero_delta, _scalar_null_vectors, _schema_1,
                   _eta_zero, _eta_three_halves, _degenerate_flipped],
        ids=["missing-box", "delta-1/0", "null-vectors-scalar", "schema-1",
             "eta-0", "eta-3/2", "degenerate-flipped"])
    def test_check_reports_payload_error(self, tmp_path, mutate):
        cert = witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        payload = jsonio.certificate_to_json(cert)
        mutate(payload)
        with pytest.raises(jsonio.PayloadError):
            jsonio.certificate_from_json(payload)
        path = tmp_path / "bad.json"
        jsonio.write_json(str(path), payload)
        r = run_cli("check", "--cert", str(path))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr
        err = json.loads(r.stdout)
        assert err["error"] == "malformed-payload"
        assert "certificate_from_json" in err["message"]

    @pytest.mark.parametrize("value", [2.9, "2", True],
                             ids=["float", "string", "bool"])
    def test_non_integer_coefficient(self, tmp_path, value):
        path = tmp_path / "S.json"
        jsonio.write_json(str(path), {"l": 1, "indices": [1, 2, 3],
                                      "coeffs": [[value], [-1]]})
        r = run_cli("certify", "--system", str(path), "--eta-sin2", "5/9")
        assert r.returncode == 3
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout)["error"] == "malformed-payload"

    @pytest.mark.parametrize("command, path", [
        ("check", ["null_vectors", 0, "y"]),
        ("check", ["box", "lo"]),
        ("verify", ["null_vectors", 0, "y"]),
        ("verify", ["box", "hi"]),
        ("certify", ["offsets"]),
        ("certify", ["normals", 0]),
    ], ids=["check-y", "check-lo", "verify-y", "verify-hi", "certify-offsets",
            "certify-normal"])
    def test_string_for_list(self, tmp_path, command, path):
        # a string of digits where a list of rational strings belongs would
        # read as one-digit entries if iterated: "1" * 3 as y = (1, 1, 1)
        if command == "certify":
            args = _toy_inputs(tmp_path) + ["--polygon", str(tmp_path / "oct.json"),
                                            "--eta-sin2", "5/9"]
            target = tmp_path / "oct.json"
        else:
            _toy_cert(tmp_path / "cert.json")
            target = tmp_path / "cert.json"
            args = [command, "--cert", str(target)]
        payload = json.loads(target.read_text())
        *steps, last = path
        d = payload
        for step in steps:
            d = d[step]
        d[last] = "1" * len(d[last])
        jsonio.write_json(str(target), payload)
        r = run_cli(*args)
        assert r.returncode == 3, r.stdout
        assert "Traceback" not in r.stderr
        err = json.loads(r.stdout)
        assert err["error"] == "malformed-payload"
        assert "not a list" in err["message"]

    @pytest.mark.parametrize("mutate", [_short_polygon_offsets,
                                        _three_entry_normal],
                             ids=["offsets-short", "normal-triple"])
    def test_check_reports_polygon_payload_error(self, tmp_path, mutate):
        # read by zip and by index, both payloads used to load as a
        # different polygon from the one they list
        path = tmp_path / "cert.json"
        _toy_cert(path)
        payload = json.loads(path.read_text())
        mutate(payload["polygon"])
        jsonio.write_json(str(path), payload)
        r = run_cli("check", "--cert", str(path))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr
        err = json.loads(r.stdout)
        assert err["error"] == "malformed-payload"
        assert "polygon_from_json" in err["message"]

    def test_prop1_non_object_graph(self, tmp_path):
        path = tmp_path / "G.json"
        path.write_text("5\n")
        r = run_cli("prop1", "--graph", str(path))
        assert r.returncode == 3
        assert json.loads(r.stdout)["error"] == "malformed-payload"

    @pytest.mark.parametrize("args", [
        ["check", "--cert"],
        ["verify", "--cert"],
        ["certify", "--eta-sin2", "5/9", "--system"],
        ["gen", "--kind", "subset-sum", "--polygon"],
    ], ids=["check", "verify", "certify-system", "gen-polygon"])
    def test_deeply_nested_json(self, tmp_path, args):
        # the JSON decoder recurses once per nesting level: 200,000 open
        # brackets overflow the interpreter's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        r = run_cli(*args, str(path))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr
        err = json.loads(r.stdout)
        assert err["error"] == "malformed-payload"
        assert "nested too deeply" in err["message"]


class TestNumberArguments:
    @pytest.mark.parametrize("args", [
        ["pipeline", "--n", "0"],
        ["gen", "--kind", "subset-sum", "--k", "0"],
        ["gen", "--kind", "grid", "--step", "0"],
        ["gen", "--kind", "flat", "--n", "-2"],
        ["gen", "--kind", "grid", "--w", "0"],
        ["gen", "--kind", "grid", "--h", "-1"],
        ["gen", "--kind", "grid", "--w", "two"],
        ["pipeline", "--exhaustive-cap", "23"],
        ["pipeline", "--exhaustive-cap", "-1"],
        ["lindep", "--udg", "G.json", "--exhaustive-cap", "64"],
        ["prop1", "--graph", "G.json", "--exhaustive-cap", "64"],
        ["pipeline", "--q", "-1"],
        ["pipeline", "--C", "0"],
        ["pipeline", "--eta-sin2", "0"],
        ["pipeline", "--eta-sin2", "3/2"],
        ["pipeline", "--eps", "0"],
        ["prop1", "--graph", "G.json", "--q", "0"],
        ["prop1", "--graph", "G.json", "--C", "-1"],
        ["lindep", "--udg", "U.json", "--q", "-2"],
        ["lindep", "--udg", "U.json", "--C", "0"],
        ["certify", "--system", "S.json", "--eta-sin2", "2"],
        ["certify", "--system", "S.json", "--eps", "0"],
        ["check", "--cert", "C.json", "--eps", "-1"],
    ], ids=lambda a: " ".join(a[-3:]))
    def test_out_of_range_is_usage_error(self, tmp_path, args):
        # argparse rejects the value before anything is read, searched or
        # written (G.json does not exist)
        option = args[-2]
        if args[0] == "pipeline":
            args = args + ["--out-dir", str(tmp_path / "run")]
        r = run_cli(*args)
        assert r.returncode == 2, r.stdout + r.stderr
        assert f"argument {option}:" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_largest_cap_accepted(self):
        args = cli.build_parser().parse_args(
            ["prop1", "--graph", "G.json", "--exhaustive-cap", "22"])
        assert args.exhaustive_cap == 22 == MAX_EXHAUSTIVE_CAP

    def test_pipeline_failure_writes_nothing(self, tmp_path):
        r = run_cli("pipeline", "--out-dir", str(tmp_path / "run"), "--n", "3")
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"] == "extraction-failure"
        assert not (tmp_path / "run").exists()


class TestPipeline:
    def test_end_to_end(self, tmp_path):
        r = run_cli("pipeline", "--out-dir", str(tmp_path / "run"),
                    "--trials", "20")
        assert r.returncode == 0, r.stdout + r.stderr
        summary = json.loads(r.stdout)
        assert summary["check_ok"] is True
        assert summary["counterexample_found"] is False
        for name in ("points", "graph", "system", "cover", "certificate",
                     "report", "summary"):
            assert (tmp_path / "run" / f"{name}.json").exists()

    def test_certificate_bytes_pinned(self, tmp_path, capsys):
        # changes meant to preserve behaviour must leave the default
        # pipeline certificate byte-identical
        rc = cli.main(["pipeline", "--out-dir", str(tmp_path), "--seed", "1",
                       "--trials", "1"])
        assert rc == 0, capsys.readouterr().out
        digest = hashlib.sha256((tmp_path / "certificate.json").read_bytes())
        assert digest.hexdigest() == (
            "891f109fa1d63cb05ba43d94ccc45dc646531c2ac3f331b9187c0bd92de008e8")

    def test_tangent_demo_pinned(self, tmp_path, capsys):
        # the one non-vacuous statement: the tangent 22-gon at sin²η = 1/10,
        # 55,440 class tuples and 1,774,080 kill records
        path = os.path.join(os.path.dirname(__file__), "data", "tangent22.json")
        # the data file is the recipe: normal k = (q² − p², 2pq)/(q² + p²)
        # for p/q = tan(πk/22) rounded to a denominator ≤ 12, offsets 1
        normals = []
        for k in range(11):
            t = Fraction(math.tan(math.pi * k / 22)).limit_denominator(12)
            p, q = t.numerator, t.denominator
            normals.append([str(Fraction(q * q - p * p, q * q + p * p)),
                            str(Fraction(2 * p * q, q * q + p * p))])
        assert jsonio.read_json(path) == {"m": 11, "normals": normals,
                                          "offsets": ["1"] * 11}
        rc = cli.main(["pipeline", "--out-dir", str(tmp_path), "--cert-polygon",
                       path, "--eta-sin2", "1/10"])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0, summary
        assert (summary["kills"], summary["delta"]) == (1774080, "315/3641631136")
        assert summary["check_ok"] and summary["sweep_ok"]
        assert not summary["counterexample_found"]
        digest = hashlib.sha256((tmp_path / "certificate.json").read_bytes())
        assert digest.hexdigest() == (
            "9a163f07ad494485942dfbdc4bae446acaeaf9ec17b0678cbb85cf4eee24fc95")

    def test_prop1_failure_exit(self, tmp_path):
        # default C = 1 makes r too large for the 10-point instance
        g_path = tmp_path / "G.json"
        run_cli("gen", "--kind", "flat", "--n", "10", "--out",
                str(tmp_path / "P.json"))
        jsonio.write_json(str(tmp_path / "B.json"),
                          jsonio.polygon_to_json(square()))
        run_cli("udg", "--points", str(tmp_path / "P.json"),
                "--polygon", str(tmp_path / "B.json"), "--out", str(g_path))
        r = run_cli("prop1", "--graph", str(g_path), "--q", "2.001",
                    "--C", "4")
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"] == "cover-failure"
