"""Command-line behaviors: formats, pipelines, exit codes, reproduce targets."""

import json
import os
import subprocess
import sys

import pytest

import boolrep
from boolrep.cli import main

# the child process imports boolrep from where this process found it
SRC = os.path.dirname(os.path.dirname(os.path.abspath(boolrep.__file__)))


def run_cli(args, stdin_text=""):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "boolrep.cli", *args],
        input=stdin_text, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestPipelines:
    def test_generate_then_flats(self, capsys, monkeypatch):
        code, out = run_main(capsys, ["generate", "uniform", "--a", "3", "--b", "6"])
        assert code == 0
        code, out = run_main(capsys, ["flats"], stdin_text=out,
                             monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 23  # 15 pairs + 6 points + empty + E

    def test_generate_bigex_circuits(self, capsys, monkeypatch):
        code, out = run_main(capsys, ["generate", "bigex"])
        code, out = run_main(capsys, ["circuits"], stdin_text=out,
                             monkeypatch=monkeypatch)
        assert json.loads(out)["circuits"] == [["1", "2", "3"]]

    def test_rank_and_check_verbs(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        code, out = run_main(capsys, ["rank"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert json.loads(out)["rank"] == 3
        code, out = run_main(capsys, ["check-repr"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert json.loads(out)["boolean_representable"] is True
        code, out = run_main(capsys, ["check-matroid"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert json.loads(out)["matroid"] is True
        code, out = run_main(capsys, ["check-paving"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert json.loads(out)["paving"] is True

    def test_minimal_reps_report(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        code, out = run_main(capsys, ["minimal-reps"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        data = json.loads(out)
        assert data["counts"]["minimal_raw"] == 6
        assert data["counts"]["minimal_orbits"] == 2
        assert data["counts"]["sji_raw"] == 24
        assert data["counts"]["mindeg"] == 3
        assert len(data["families"]) == 6
        assert all(f["minimal"] and f["sji"] and f["in_im_theta"]
                   for f in data["families"])

    def test_mindeg_verb(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        code, out = run_main(capsys, ["mindeg"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        data = json.loads(out)
        assert data["mindeg"] == 3
        assert len(data["witness"]) == 4  # cols line + 3 rows

    def test_truncate(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "truno"])
        code, out = run_main(capsys, ["truncate", "--k", "3"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert all(len(f) <= 3 for f in data["facets"])

    def test_table_format(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        code, out = run_main(capsys, ["--format", "table", "flats"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert out.startswith("flats (10):")


class TestStack(object):
    def test_stack_files(self, tmp_path, capsys):
        m1 = tmp_path / "m1.txt"
        m2 = tmp_path / "m2.txt"
        m1.write_text("cols: 1 2\n10\n01\n")
        m2.write_text("cols: 1 2\n01\n11\n")
        code, out = run_main(capsys, ["stack", str(m1), str(m2)])
        assert code == 0
        assert out == "cols: 1 2\n10\n01\n11\n"

    def test_stack_rowsum(self, tmp_path, capsys):
        m1 = tmp_path / "m1.txt"
        m2 = tmp_path / "m2.txt"
        m1.write_text("cols: 1 2\n10\n")
        m2.write_text("cols: 1 2\n01\n")
        code, out = run_main(capsys, ["stack", "--rowsum", str(m1), str(m2)])
        bits = [ln.split()[-1] for ln in out.strip().split("\n")[1:]]
        assert set(bits) == {"10", "01", "11", "00"}


class TestGeoMpeg:
    def test_geo_round_trip(self, tmp_path, capsys, monkeypatch):
        peg = json.dumps({"points": ["1", "2", "3", "4"],
                          "lines": [["1", "2"], ["3", "4"]]})
        code, out = run_main(capsys, ["geo", "--to-lattice"], stdin_text=peg,
                             monkeypatch=monkeypatch)
        assert code == 0
        code, out2 = run_main(capsys, ["geo"], stdin_text=out,
                              monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out2)
        assert sorted(map(sorted, data["lines"])) == [["1", "2"], ["3", "4"]]

    def test_mpeg_from_lattice(self, capsys, monkeypatch):
        text = ("elements: B a b ab T\n"
                "covers: B < a\ncovers: B < b\ncovers: a < ab\n"
                "covers: b < ab\ncovers: ab < T\n")
        # height 3 and atomic fails here (T needs to be a join of atoms), so
        # use the cube instead
        cube = ("elements: o a b c ab ac bc T\n" +
                "\n".join(f"covers: {x} < {y}" for x, y in
                          [("o", "a"), ("o", "b"), ("o", "c"), ("a", "ab"),
                           ("a", "ac"), ("b", "ab"), ("b", "bc"), ("c", "ac"),
                           ("c", "bc"), ("ab", "T"), ("ac", "T"), ("bc", "T")])
                + "\n")
        code, out = run_main(capsys, ["mpeg"], stdin_text=cube,
                             monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert len(data["strata"]) == 3
        assert sorted(map(sorted, data["strata"][1])) == \
            [["a", "b"], ["a", "c"], ["b", "c"]]


class TestMapsFactorize:
    def test_chain_quotient(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        mp = tmp_path / "map.txt"
        src.write_text("elements: B a T\ncovers: B < a\ncovers: a < T\n")
        tgt.write_text("elements: B T\ncovers: B < T\n")
        mp.write_text("map: B -> B\nmap: a -> T\nmap: T -> T\n")
        code, out = run_main(capsys, ["maps-factorize", "--source", str(src),
                                      "--target", str(tgt), "--map", str(mp)])
        assert code == 0
        data = json.loads(out)
        assert len(data["steps"]) == 1
        assert data["steps"][0]["kind"] == "mps"


class TestErrorsAndCodes:
    def test_usage_error_is_2(self):
        code, out, err = run_cli(["not-a-verb"])
        assert code == 2
        code, out, err = run_cli(["--jobs", "2", "flats"])
        assert code == 2

    @pytest.mark.parametrize("args,stdin_text", [
        pytest.param(["flats"], '{"ground": ["1", "2"], "facets": 5}',
                     id="facets-number"),
        pytest.param(["flats"], '{"ground": ["1", "2"], "facets": [5]}',
                     id="facet-number"),
        pytest.param(["flats"], '{"ground": "abc", "facets": [["a"]]}',
                     id="ground-string"),
        pytest.param(["flats", "{tmp}/missing.json"], "", id="missing-file"),
        pytest.param(["mpeg", "--to-lattice"], "{not json", id="mpeg-bad-json"),
        pytest.param(["mpeg", "--to-lattice"], '{"ground": ["1", "2"]}',
                     id="mpeg-no-strata"),
        pytest.param(["geo", "--to-lattice"], '{"points": 5, "lines": []}',
                     id="geo-points-number"),
    ])
    def test_malformed_input_is_1(self, capsys, monkeypatch, tmp_path,
                                  args, stdin_text):
        args = [a.format(tmp=tmp_path) for a in args]
        code, out = run_main(capsys, args, stdin_text=stdin_text,
                             monkeypatch=monkeypatch)
        assert code == 1
        assert "error" in json.loads(out)

    def test_domain_error_is_1(self, capsys, monkeypatch):
        bad = json.dumps({"ground": ["1", "2"], "facets": [["1", "9"]]})
        code, out = run_main(capsys, ["flats"], stdin_text=bad,
                             monkeypatch=monkeypatch)
        assert code == 1
        assert "error" in json.loads(out)

    def test_ground_cap(self, capsys, monkeypatch):
        os.environ["BOOLREP_MAX_GROUND"] = "3"
        try:
            hc = json.dumps({"ground": ["1", "2", "3", "4"],
                             "facets": [["1", "2", "3", "4"]]})
            code, out = run_main(capsys, ["flats"], stdin_text=hc,
                                 monkeypatch=monkeypatch)
            assert code == 1
            assert json.loads(out)["error"] == "TooLarge"
        finally:
            del os.environ["BOOLREP_MAX_GROUND"]

    def test_ground_cap_before_build(self, capsys, monkeypatch):
        # 16 points with one full facet would expand 2^16 subsets first
        from boolrep.hereditary import HereditaryCollection

        def never(*args, **kwargs):
            raise AssertionError("the collection was built past the cap")

        monkeypatch.delenv("BOOLREP_MAX_GROUND", raising=False)
        monkeypatch.setattr(HereditaryCollection, "from_facets", never)
        ground = [str(i) for i in range(1, 17)]
        hc = json.dumps({"ground": ground, "facets": [ground]})
        code, out = run_main(capsys, ["flats"], stdin_text=hc,
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "TooLarge"

    def test_max_flats_refusal(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "uniform", "--a", "3",
                                       "--b", "6"])
        code, out = run_main(capsys, ["--max-flats", "5", "minimal-reps"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "TooLarge"

    def test_dot_emission(self, tmp_path, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        dot = tmp_path / "h.dot"
        code, _ = run_main(capsys, ["--dot", str(dot), "flats"],
                           stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_dot_unwritable_is_1(self, tmp_path, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        dot = tmp_path / "missing-dir" / "x.dot"
        code, out = run_main(capsys, ["--dot", str(dot), "flats"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "FormatError"


class TestReproduce:
    @pytest.mark.parametrize("target", ["bigex", "libourne", "fano", "unio",
                                        "truno", "fourpoints", "section3"])
    def test_fast_targets_pass(self, capsys, target):
        code, out = run_main(capsys, ["reproduce", target])
        data = json.loads(out)
        assert data["pass"] is True and code == 0

    def test_all_spec_targets_present(self):
        from boolrep.cli import REPRODUCERS
        assert sorted(REPRODUCERS) == sorted(
            ["bigex", "libourne", "fano", "u3-6", "unio", "truno",
             "fourpoints", "section3"])

    def test_byte_stability(self, capsys):
        _, out1 = run_main(capsys, ["reproduce", "section3"])
        _, out2 = run_main(capsys, ["reproduce", "section3"])
        assert out1 == out2
