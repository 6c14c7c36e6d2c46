"""Command-line behaviors: formats, pipelines, exit codes, reproduce targets."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import boolrep
from boolrep import errors, geometry, hereditary, lattice, reps, sbcore
from boolrep.cli import build_parser, main
from conftest import matrix_from_text_by_rows, matrix_to_text_by_rows, random_sweep_hc, \
    rep_report_by_records, rowsum_closure_by_rows, stack_matrices_by_rows

# the child process imports boolrep from where this process found it
SRC = os.path.dirname(os.path.dirname(os.path.abspath(boolrep.__file__)))


def run_cli(args, stdin_text=""):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "boolrep.cli", *args],
        input=stdin_text, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# JSON that json.loads refuses with something other than JSONDecodeError:
# nesting past the recursion limit (RecursionError), and an integer past
# Python's 4 300-digit limit (a plain ValueError)
DEEP_JSON = "[" * 10000 + "]" * 10000
BIG_INT = "1" * 5000


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

    def test_mindeg_table_ends_in_one_newline(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "fano"])
        code, out = run_main(capsys, ["--format", "table", "mindeg"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("mindeg: 4\ncols: ") and out.endswith("1\n")
        assert not out.endswith("\n\n")

    def test_truncate(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "truno"])
        code, out = run_main(capsys, ["truncate", "--k", "3"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert all(len(f) <= 3 for f in data["facets"])

    def test_json_output_format(self, capsys, monkeypatch):
        # the streamed output is the sorted, 2-space indented dump plus "\n"
        _, hc_json = run_main(capsys, ["generate", "bigex"])
        code, out = run_main(capsys, ["sji-reps"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

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

    def test_stack_rowsum_cap(self, tmp_path, capsys):
        # the 13x13 identity closes to 2^13 rows, past reps.ROWSUM_MAX_ROWS
        n = 13
        eye = tmp_path / "eye.txt"
        cols = " ".join(f"c{j}" for j in range(n))
        rows = "".join("0" * i + "1" + "0" * (n - 1 - i) + "\n" for i in range(n))
        eye.write_text(f"cols: {cols}\n{rows}")
        code, out = run_main(capsys, ["stack", "--rowsum", str(eye), str(eye)])
        assert code == 1
        assert json.loads(out)["error"] == "TooLarge"


class TestAutomorphismSearch:
    def test_minimal_reps_searches_once(self, capsys, monkeypatch):
        # no permutation sweep: one generator search for the one collection
        _, hc_json = run_main(capsys, ["generate", "fano"])
        sweeps, searches = [], []
        permutations = itertools.permutations
        search = hereditary._strong_generators

        def counted_permutations(*args):
            sweeps.append(args)
            return permutations(*args)

        def counted_search(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(itertools, "permutations", counted_permutations)
        monkeypatch.setattr(hereditary, "_strong_generators", counted_search)
        code, out = run_main(capsys, ["minimal-reps"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["counts"]["minimal_orbits"] == 1
        assert len(sweeps) == 0
        assert len(searches) == 1


class TestReadmeVerbs:
    def test_readme_lists_every_verb(self):
        # the backticked list after "Verbs:" names the parser's subcommands
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        listed = re.findall(r"`([^`]+)`", re.search(r"^Verbs:(.*?)\n\n", readme,
                                                     re.M | re.S).group(1))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert listed == list(sub.choices)


class TestGeoMpeg:
    CUBE = ("elements: o a b c ab ac bc T\n" +
            "".join(f"covers: {x} < {y}\n" for x, y in
                    [("o", "a"), ("o", "b"), ("o", "c"), ("a", "ab"),
                     ("a", "ac"), ("b", "ab"), ("b", "bc"), ("c", "ac"),
                     ("c", "bc"), ("ab", "T"), ("ac", "T"), ("bc", "T")]))

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
        code, out = run_main(capsys, ["mpeg"], stdin_text=self.CUBE,
                             monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert len(data["strata"]) == 3
        assert sorted(map(sorted, data["strata"][1])) == \
            [["a", "b"], ["a", "c"], ["b", "c"]]

    @pytest.mark.parametrize("header", ["elements: zz yy", "gens: zz"])
    def test_repeated_header_line_exits_1(self, tmp_path, capsys, header):
        # a leading header line must not be replaced by the cube's own
        cube = tmp_path / "cube.txt"
        cube.write_text(f"{header}\n{self.CUBE}gens: a b c\n")
        code, out = run_main(capsys, ["geo", str(cube)])
        assert code == 1
        assert json.loads(out)["error"] == "FormatError"

    def test_geo_duplicate_points_exits_1(self, capsys, monkeypatch):
        # the repeated label is refused before the lattice build counts lines
        text = json.dumps({"points": ["1", "1"], "lines": []})
        code, out = run_main(capsys, ["geo", "--to-lattice"], stdin_text=text,
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out) == {"error": "FormatError", "detail": "duplicate point labels"}

    def test_mpeg_duplicate_ground_exits_1(self, capsys, monkeypatch):
        text = json.dumps({"ground": ["1", "2", "3", "1"],
                           "strata": [[["1"], ["2"], ["3"]], [["1", "2"], ["2", "3"]],
                                      [["1", "2", "3"]]]})
        code, out = run_main(capsys, ["mpeg", "--to-lattice"], stdin_text=text,
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "FormatError"

    @staticmethod
    def geometry_with(verb, label):
        """A valid geometry for the verb whose first point is `label`."""
        if verb == "geo":
            return {"points": [label, "c", "d", "e"], "lines": [[label, "c"], ["d", "e"]]}
        return {"ground": [label, "2", "3"],
                "strata": [[[label], ["2"], ["3"]], [[label, "2"], [label, "3"], ["2", "3"]],
                           [[label, "2", "3"]]]}

    @pytest.mark.parametrize("label", ["a b", "a\tb", "a<b", ""],
                             ids=["space", "tab", "less-than", "empty"])
    @pytest.mark.parametrize("verb", ["geo", "mpeg"])
    def test_to_lattice_refuses_unwritable_label(self, capsys, monkeypatch, verb, label):
        # the lattice text reader splits at whitespace and "<", and drops an
        # empty label: refused by name, with nothing written
        code, out = run_main(capsys, [verb, "--to-lattice"],
                             stdin_text=json.dumps(self.geometry_with(verb, label)),
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out) == {
            "error": "FormatError",
            "detail": f"label {label!r} cannot be written in the lattice text format"}
        # the same geometry with a plain label is written, and reads back
        code, out = run_main(capsys, [verb, "--to-lattice"],
                             stdin_text=json.dumps(self.geometry_with(verb, "x")),
                             monkeypatch=monkeypatch)
        assert code == 0
        assert "x" in lattice.lattice_from_text(out).gens[0]


    @pytest.mark.parametrize("args,text", [
        (["geo", "--to-lattice"],
         {"points": ["1", "2", "3", "4", "5"],
          "lines": [["1", "2", "3"], ["1", "2", "4"], ["3", "4", "5"], ["2", "3", "5"]]}),
        (["mpeg", "--to-lattice"],
         {"ground": ["1", "2", "3", "4"],
          "strata": [[["1"], ["2"], ["3"], ["4"]],
                     [["1", "2", "3"], ["2", "3", "4"], ["1", "3", "4"], ["1", "2", "4"]],
                     [["1", "2", "3", "4"]]]}),
    ], ids=["geo", "mpeg"])
    def test_refusal_names_the_same_violation_every_run(self, monkeypatch, args, text):
        # several violations: the one printed must not follow string hashing
        outs = []
        for seed in ("1", "2"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            code, out, _ = run_cli(args, json.dumps(text))
            assert code == 1
            outs.append(out)
        assert outs[0] == outs[1]


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

    @pytest.mark.parametrize("extra", ["map: Z -> B", "map: a -> B"],
                             ids=["outside-source", "repeated"])
    def test_stray_map_line_exits_1(self, tmp_path, capsys, extra):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        mp = tmp_path / "map.txt"
        src.write_text("elements: B a T\ncovers: B < a\ncovers: a < T\n")
        tgt.write_text("elements: B T\ncovers: B < T\n")
        mp.write_text(f"map: B -> B\nmap: a -> T\nmap: T -> T\n{extra}\n")
        code, out = run_main(capsys, ["maps-factorize", "--source", str(src),
                                      "--target", str(tgt), "--map", str(mp)])
        assert code == 1
        assert json.loads(out)["error"] == "FormatError"


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

    @pytest.mark.parametrize("args,key", [(["flats"], "ground"),
                                          (["geo", "--to-lattice"], "points"),
                                          (["mpeg", "--to-lattice"], "ground")],
                             ids=["flats", "geo", "mpeg"])
    @pytest.mark.parametrize("shape", ["deep", "big-int"])
    def test_undecodable_json_is_format_error(self, args, key, shape):
        text = DEEP_JSON if shape == "deep" else '{"%s": [%s]}' % (key, BIG_INT)
        code, out, err = run_cli(args, text)
        assert (code, err) == (1, "")
        obj = json.loads(out)
        assert obj["error"] == "FormatError" and obj["detail"].startswith("bad JSON: ")

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

    def test_generate_uniform_over_cap_before_build(self, capsys, monkeypatch):
        # uniform(6, 30) would enumerate every <= 6-subset of 30 points
        from boolrep import hereditary

        def never(a, b):
            raise AssertionError("uniform was built past the ground cap")

        monkeypatch.setattr(hereditary, "uniform", never)
        monkeypatch.setenv("BOOLREP_MAX_GROUND", "12")
        code, out = run_main(capsys, ["generate", "uniform", "--a", "6", "--b", "30"])
        assert code == 1
        assert json.loads(out)["error"] == "TooLarge"
        code, out = run_main(capsys, ["generate", "uniform", "--a", "6", "--b", "13"])
        assert json.loads(out)["error"] == "TooLarge"

    @pytest.mark.parametrize("value", ["abc", "16x", "-1"])
    def test_bad_ground_cap_is_format_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BOOLREP_MAX_GROUND", value)
        hc_json = hereditary.hc_to_json(hereditary.fano())
        for argv in [["generate", "uniform", "--a", "1", "--b", "2"], *COLLECTION_VERBS]:
            code, out = run_main(capsys, argv, stdin_text=hc_json, monkeypatch=monkeypatch)
            assert code == 1, argv
            err = json.loads(out)
            assert err["error"] == "FormatError" and "BOOLREP_MAX_GROUND" in err["detail"]

    @pytest.mark.parametrize("value,cap", [("", 12), ("0", 0)])
    def test_ground_cap_default_and_zero(self, capsys, monkeypatch, value, cap):
        monkeypatch.setenv("BOOLREP_MAX_GROUND", value)
        for b in (cap, cap + 1):
            code, out = run_main(capsys, ["generate", "uniform", "--a", "0", "--b", str(b)])
            assert (code, "error" in json.loads(out)) == ((0, False) if b == cap else (1, True))
            ground = [str(i) for i in range(b)]
            code, out = run_main(capsys, ["flats"], monkeypatch=monkeypatch,
                                 stdin_text=json.dumps({"ground": ground, "facets": [[]]}))
            if b == cap:
                assert code == 0 and json.loads(out)["ground"] == ground
            else:
                assert code == 1
                assert json.loads(out) == {"error": "TooLarge",
                                           "detail": f"|E| = {b} exceeds the cap {cap}"}

    @pytest.mark.parametrize("a,b", [("3", "-2"), ("-1", "4"), ("-1", "-1")])
    def test_generate_uniform_negative_is_1(self, capsys, a, b):
        code, out = run_main(capsys, ["generate", "uniform", "--a", a, "--b", b])
        assert code == 1
        assert json.loads(out)["error"] == "FormatError"

    def test_generate_uniform_at_bounds(self, capsys, monkeypatch):
        monkeypatch.setenv("BOOLREP_MAX_GROUND", "4")
        code, out = run_main(capsys, ["generate", "uniform", "--a", "0", "--b", "4"])
        assert code == 0
        assert json.loads(out)["ground"] == ["1", "2", "3", "4"]
        code, out = run_main(capsys, ["generate", "uniform", "--a", "2", "--b", "0"])
        assert code == 0
        assert json.loads(out)["ground"] == []

    def test_facet_outside_ground_before_expansion(self, capsys, monkeypatch):
        # a 40-label facet outside a 2-point ground would expand 2^40 subsets
        from boolrep import hereditary
        expand = hereditary._submasks

        def guarded(mask):
            if mask.bit_count() > 2:
                raise AssertionError("a facet was expanded before the ground check")
            return expand(mask)

        monkeypatch.setattr(hereditary, "_submasks", guarded)
        hc = json.dumps({"ground": ["1", "2"],
                         "facets": [[f"x{i}" for i in range(40)]]})
        code, out = run_main(capsys, ["flats"], stdin_text=hc,
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "FormatError"

    @pytest.mark.parametrize("verb,validator,data", [
        pytest.param("geo", "validate_peg",
                     {"points": [str(i) for i in range(1, 64)],
                      "lines": [["1", "2"], ["3", "4"]]}, id="geo"),
        pytest.param("mpeg", "validate_mpeg",
                     {"ground": [str(i) for i in range(1, 65)],
                      "strata": [[[str(i)] for i in range(1, 65)],
                                 [["1", "2"], ["3", "4"]],
                                 [[str(i) for i in range(1, 65)]]]}, id="mpeg"),
    ])
    def test_lattice_input_over_cap_is_1(self, capsys, monkeypatch, verb,
                                         validator, data):
        # refused on its element count, before the quadratic validation
        from boolrep import geometry

        def never(g):
            raise AssertionError("validated past the lattice cap")

        monkeypatch.setattr(geometry, validator, never)
        code, out = run_main(capsys, [verb, "--to-lattice"],
                             stdin_text=json.dumps(data), monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "TooLarge"

    def test_max_flats_refusal(self, capsys, monkeypatch):
        _, hc_json = run_main(capsys, ["generate", "uniform", "--a", "3",
                                       "--b", "6"])
        code, out = run_main(capsys, ["--max-flats", "5", "minimal-reps"],
                             stdin_text=hc_json, monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "TooLarge"

    def test_mindeg_node_budget_is_1(self, capsys, monkeypatch):
        from boolrep import reps

        _, hc_json = run_main(capsys, ["generate", "uniform", "--a", "3",
                                       "--b", "8"])
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 500)  # U(3,8) takes 759
        code, out = run_main(capsys, ["mindeg"], stdin_text=hc_json,
                             monkeypatch=monkeypatch)
        assert code == 1
        data = json.loads(out)
        assert data["error"] == "TooLarge" and "500" in data["detail"]

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


# a quoted DOT string: inside it, a quote or a backslash comes escaped
DOT_STRING = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def dot_strings(dot: str) -> set[str]:
    """The quoted strings of a DOT text, unescaped; no quote may be left
    outside one, as an unescaped quote inside a label would be."""
    assert '"' not in DOT_STRING.sub("", dot)
    return {re.sub(r"\\(.)", r"\1", q) for q in DOT_STRING.findall(dot)}


class TestDotLabels:
    LABELS = ['a"b', "c\\d", "e"]

    def test_flats_dot_escapes_labels(self, tmp_path, capsys, monkeypatch):
        dot = tmp_path / "h.dot"
        hc = hereditary.HereditaryCollection.from_facets(self.LABELS, [self.LABELS])
        code, _ = run_main(capsys, ["--dot", str(dot), "flats"],
                           stdin_text=hereditary.hc_to_json(hc), monkeypatch=monkeypatch)
        assert code == 0
        vg = hereditary.flat_lattice(hc)  # each ids a node and labels it, gens with *
        assert '{a"b}' in vg.lattice.labels and "{c\\d}" in vg.gens
        assert dot_strings(dot.read_text()) == {*vg.lattice.labels, *(g + "*" for g in vg.gens)}

    def test_geo_dot_escapes_labels(self, tmp_path, capsys, monkeypatch):
        a, c, e = self.LABELS
        covers = [("o", a), ("o", c), ("o", e), (a, "x"), (a, "y"), (c, "x"), (c, "z"),
                  (e, "y"), (e, "z"), ("x", "T"), ("y", "T"), ("z", "T")]
        text = ("elements: o " + " ".join(self.LABELS) + " x y z T\n"
                + "".join(f"covers: {p} < {q}\n" for p, q in covers)
                + "gens: " + " ".join(self.LABELS) + "\n")
        dot = tmp_path / "g.dot"
        code, _ = run_main(capsys, ["--dot", str(dot), "geo"], stdin_text=text,
                           monkeypatch=monkeypatch)
        assert code == 0
        lines = ['{a"b,c\\d}', '{a"b,e}', "{c\\d,e}"]  # the points' order
        assert dot_strings(dot.read_text()) == {*self.LABELS, "L0", "L1", "L2", *lines}

    def test_plain_labels_unchanged(self):
        # labels without a quote or a backslash are written as they were
        diamond = lattice.lattice_from_covers(
            ["B", "a", "b", "T"], [("B", "a"), ("B", "b"), ("a", "T"), ("b", "T")])
        assert lattice.hasse_dot(lattice.VGenLattice(diamond, ("a", "b"))) == (
            'digraph lattice {\n  rankdir=BT;\n  node [shape=plaintext];\n'
            '  "B" [label="B"];\n  "a" [label="a*"];\n  "b" [label="b*"];\n'
            '  "T" [label="T"];\n  "B" -> "a";\n  "B" -> "b";\n  "a" -> "T";\n'
            '  "b" -> "T";\n}\n')
        peg = geometry.PEG(("1", "2", "3", "4"),
                           frozenset(map(frozenset, ("12", "34", "13"))))
        assert geometry.peg_dot(peg) == (
            'graph geometry {\n  node [shape=circle]; "1" "2" "3" "4";\n'
            '  "L0" [shape=box, label="{1,2}"];\n  "L1" [shape=box, label="{1,3}"];\n'
            '  "L2" [shape=box, label="{3,4}"];\n  { rank=same; "L0" "L1" "L2" }\n'
            '  "L0" -- "1";\n  "L0" -- "2";\n  "L1" -- "1";\n  "L1" -- "3";\n'
            '  "L2" -- "3";\n  "L2" -- "4";\n}\n')


REPORT_INPUTS = {"bigex": hereditary.example_bigex, "fano": hereditary.fano,
                 "u35": lambda: hereditary.uniform(3, 5),
                 "u36": lambda: hereditary.uniform(3, 6),
                 # labels that JSON escapes: a quote, a backslash, non-ASCII
                 "u35-escaped": lambda: hereditary.HereditaryCollection.from_masks(
                     ('q"', "b\\s", "\u00e9", "4", "5"), hereditary.uniform(3, 5).h_masks)}


class TestRepReport:
    """minimal-reps and sji-reps render each family from per-flat rows; the
    record-based builder is the oracle for both output formats."""

    @pytest.fixture
    def hc_path(self, tmp_path):
        def write(name):
            path = tmp_path / f"{name}.json"
            path.write_text(hereditary.hc_to_json(REPORT_INPUTS[name]()))
            return str(path)
        return write

    @pytest.mark.parametrize("verb", ["sji-reps", "minimal-reps"])
    @pytest.mark.parametrize("name", sorted(REPORT_INPUTS))
    def test_matches_record_builder(self, capsys, hc_path, name, verb):
        path = hc_path(name)
        for fmt in ("json", "table"):
            argv = ["--format", fmt, verb, path]
            assert main(argv) == 0
            out = capsys.readouterr().out
            which = verb.split("-")[0]
            assert rep_report_by_records(build_parser().parse_args(argv), which) == 0
            assert out == capsys.readouterr().out

    @pytest.mark.parametrize("verb,size,digest", [
        ("sji-reps", 578670,
         "cca74e943aadd1e756cbe3e1056ae33c2679e7a3385c7527055d2a54d2544ba9"),
        ("minimal-reps", 300240,
         "541ab2d297381168353ece2f4f37ab35c1a2f499bc6ae7a547c5cfad4fa5c84b"),
    ])
    def test_u36_json_digest(self, capsys, hc_path, verb, size, digest):
        assert main([verb, hc_path("u36")]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)

    def test_streams_one_family_per_write(self, hc_path):
        sizes = []

        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        out = Recorder()
        with contextlib.redirect_stdout(out):
            assert main(["sji-reps", hc_path("u36")]) == 0
        assert sum(sizes) == 578670
        # a family's text: its JSON at the list's depth, the separator before it
        largest = max(len(",\n    " + json.dumps(f, indent=2, sort_keys=True)
                          .replace("\n", "\n    "))
                      for f in json.loads(out.getvalue())["families"])
        assert max(sizes) <= largest

    def test_builds_no_record_or_matrix_text(self, monkeypatch, capsys, hc_path):
        # no record and no matrix text per family: one text per report, of
        # the flats' own family_matrix, gives every `row:` line
        def refuse(*args):
            raise RuntimeError("a record or its matrix was built")

        texts = []
        to_text = sbcore.BoolMatrix.to_text

        def counted(m):
            texts.append(m.row_labels)
            return to_text(m)

        monkeypatch.setattr(reps.RepresentationLattice, "record", refuse)
        monkeypatch.setattr(reps.RepRecord, "matrix", property(refuse))
        monkeypatch.setattr(sbcore.BoolMatrix, "to_text", counted)
        path = hc_path("u36")
        flats = lattice.family_matrix(hereditary.uniform(3, 6).flats()).row_labels
        for verb, count in (("sji-reps", 442), ("minimal-reps", 226)):
            assert main([verb, path]) == 0
            assert len(json.loads(capsys.readouterr().out)["families"]) == count
        assert texts == [flats, flats]

    @pytest.mark.parametrize("name", ["bigex", "fano", "u36"])
    def test_builds_no_frozenset_family(self, monkeypatch, capsys, hc_path, name):
        path = hc_path(name)
        runs = [["--format", fmt, verb, path]
                for verb in ("minimal-reps", "sji-reps") for fmt in ("json", "table")]
        expected = []
        for argv in runs:
            code = rep_report_by_records(build_parser().parse_args(argv), argv[2].split("-")[0])
            expected.append((code, capsys.readouterr().out))

        def refuse(*args):
            raise RuntimeError("a family was decoded to a frozenset")

        monkeypatch.setattr(reps.RepresentationLattice, "_family", refuse)
        for argv, want in zip(runs, expected):
            assert (main(argv), capsys.readouterr().out) == want

    def test_table_skips_counts(self, monkeypatch, capsys, hc_path):
        def refuse(*args):
            raise RuntimeError("table mode computed a count it never prints")

        monkeypatch.setattr(reps.RepresentationLattice, "orbit_counts", refuse)
        monkeypatch.setattr(reps, "mindeg", refuse)
        path = hc_path("u36")
        for verb, count in (("sji-reps", 442), ("minimal-reps", 226)):
            assert main(["--format", "table", verb, path]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 + count

    def test_table_past_automorphism_cap(self, capsys, tmp_path):
        # the orbit counts refuse |E| = 9; the table prints no counts
        path = tmp_path / "u29.json"
        path.write_text(hereditary.hc_to_json(hereditary.uniform(2, 9)))
        assert main(["sji-reps", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "TooLarge"
        assert main(["--format", "table", "sji-reps", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sji representations: 9" and len(lines) == 10


def all_pairs_json(ground):
    """A simple, representable rank-2 collection: every pair a facet."""
    return json.dumps({"ground": ground,
                       "facets": [list(p) for p in itertools.combinations(ground, 2)]})


class TestMatrixLabels:
    """The matrix text reader splits at whitespace and drops an empty label,
    so a verb that prints matrix text refuses such a ground label by name,
    with nothing written; the table reports print no matrix."""

    @pytest.mark.parametrize("label", ["a b", "a\tb", ""], ids=["space", "tab", "empty"])
    @pytest.mark.parametrize("argv", [
        ["mindeg"], ["--format", "table", "mindeg"], ["minimal-reps"], ["sji-reps"]],
        ids=["mindeg-json", "mindeg-table", "minimal-reps-json", "sji-reps-json"])
    def test_refused(self, capsys, monkeypatch, argv, label):
        code, out = run_main(capsys, argv, all_pairs_json([label, "c", "d"]), monkeypatch)
        assert code == 1
        assert json.loads(out) == {
            "error": "FormatError",
            "detail": f"label {label!r} cannot be written in the matrix text format"}

    @pytest.mark.parametrize("argv", [
        ["mindeg"], ["--format", "table", "mindeg"], ["minimal-reps"], ["sji-reps"]])
    def test_plain_labels_read_back(self, capsys, monkeypatch, argv):
        code, out = run_main(capsys, argv, all_pairs_json(["a_b", "c", "d"]), monkeypatch)
        assert code == 0
        if argv[0] == "--format":  # "mindeg: k", then the matrix text
            texts = [out.split("\n", 1)[1]]
        elif argv == ["mindeg"]:
            texts = ["\n".join(json.loads(out)["witness"])]
        else:
            texts = ["\n".join(f["matrix"]) for f in json.loads(out)["families"]]
        for text in texts:
            assert sbcore.BoolMatrix.from_text(text).col_labels == ("a_b", "c", "d")

    @pytest.mark.parametrize("verb", ["minimal-reps", "sji-reps"])
    def test_table_reports_unchanged(self, capsys, monkeypatch, verb):
        code, out = run_main(capsys, ["--format", "table", verb],
                             all_pairs_json(["a b", "c", "d"]), monkeypatch)
        assert code == 0
        assert out.splitlines()[1] == "  {}; {a b}; {c}; {a b,c,d}"


# inputs whose lattice would label two elements alike: the point "2,3" and the
# pair {2, 3} are both "{2,3}", the point "a,b" and the pair {a, b} both "{a,b}"
COLLIDING_MPEG = json.dumps({"ground": ["2,3", "2", "3"],
                             "strata": [[["2,3"], ["2"], ["3"]],
                                        [["2", "3"], ["2,3", "2"], ["2,3", "3"]],
                                        [["2,3", "2", "3"]]]})
COLLIDING_FLATS = json.dumps({"ground": ["a", "b", "a,b"], "facets": [["a", "b", "a,b"]]})
DUPLICATE_LABELS = {"error": "FormatError", "detail": "duplicate element labels"}


class TestLabelCollisions:
    def test_mpeg_to_lattice(self, capsys, monkeypatch):
        code, out = run_main(capsys, ["mpeg", "--to-lattice"], COLLIDING_MPEG, monkeypatch)
        assert (code, json.loads(out)) == (1, DUPLICATE_LABELS)

    def test_flats_dot(self, capsys, monkeypatch, tmp_path):
        dot = tmp_path / "x.dot"
        code, out = run_main(capsys, ["--dot", str(dot), "flats"], COLLIDING_FLATS,
                             monkeypatch)
        assert (code, json.loads(out)) == (1, DUPLICATE_LABELS)
        assert not dot.exists()


class TestRenaming:
    """Renaming the ground labels by a bijection, and repeating and
    shuffling the facets of the JSON, leave every answer the same once its
    labels are mapped back (a seeded slice of the metamorphic checks)."""

    VERBS = ("flats", "circuits", "rank", "check-repr", "mindeg")
    NAMES = ("z", "y9", "10", "2", "Ω", "x_y", "m-n", "a", "q\"", "b\\s")

    @staticmethod
    def answer(capsys, monkeypatch, verb, text, back):
        code, out = run_main(capsys, [verb], text, monkeypatch)
        payload = json.loads(out)
        if code == 0 and verb == "mindeg":  # labels inside the rows' text
            m = sbcore.BoolMatrix.from_text("\n".join(payload.pop("witness")))
            payload["witness"] = ([back.get(c, c) for c in m.col_labels], m.ones_masks)

        def mapped(x):
            if isinstance(x, str):
                return back.get(x, x)
            if isinstance(x, list):
                return [mapped(y) for y in x]
            if isinstance(x, dict):
                return {k: mapped(v) for k, v in x.items()}
            return x

        payload = mapped(payload)
        if payload.get("counterexample"):  # listed in label order
            payload["counterexample"] = sorted(payload["counterexample"])
        return code, payload

    def test_renamed_ground_and_repeated_facets(self, capsys, monkeypatch):
        rng = random.Random(31)
        hcs = [hereditary.fano(), hereditary.example_bigex(), hereditary.uniform(3, 6),
               hereditary.union_hc(*hereditary.example_unio()), hereditary.example_truno(),
               hereditary.uniform(1, 3)]
        hcs += [random_sweep_hc(rng, rng.randint(5, 7), 0.8, rng.random() < 0.5)
                for _ in range(10)]
        for hc in hcs:
            names = rng.sample(self.NAMES, len(hc.ground))
            back = dict(zip(names, hc.ground))
            facets = [rng.sample([names[i] for i in lattice._bits(f)], f.bit_count())
                      for f in sorted(hc._facet_masks) for _ in range(rng.randint(1, 3))]
            rng.shuffle(facets)
            renamed = json.dumps({"ground": names, "facets": facets})
            for verb in self.VERBS:
                assert self.answer(capsys, monkeypatch, verb, renamed, back) == \
                    self.answer(capsys, monkeypatch, verb, hereditary.hc_to_json(hc), {})


class TestBrokenPipe:
    def test_reader_closing_early_exits_1(self, tmp_path):
        # like `boolrep sji-reps u36.json | head -c 10`: the report is larger
        # than the pipe's buffer, so the writer meets the closed pipe
        path = tmp_path / "u36.json"
        path.write_text(hereditary.hc_to_json(hereditary.uniform(3, 6)))
        path_env = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path_env if path_env else ""))
        proc = subprocess.Popen([sys.executable, "-m", "boolrep.cli", "sji-reps", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head == b'{\n  "count'
        assert proc.returncode == 1
        assert err == b""


class TestReproduce:
    @pytest.mark.parametrize("target", ["libourne", "fano", "unio", "truno",
                                        "fourpoints", "section3"])
    def test_fast_targets_pass(self, capsys, target):
        code, out = run_main(capsys, ["reproduce", target])
        data = json.loads(out)
        assert data["pass"] is True and code == 0

    @pytest.mark.parametrize("target,hc", [("bigex", hereditary.example_bigex),
                                           ("fano", hereditary.fano)])
    def test_counts_from_keys(self, monkeypatch, capsys, target, hc):
        walk = reps.RepresentationLattice(hc())
        expected = {"minimal": len(walk.minimal_families()), "sji": len(walk.sji_families())}
        before = run_main(capsys, ["reproduce", target])

        def refuse(*args):
            raise RuntimeError("a family was decoded to a frozenset")

        monkeypatch.setattr(reps.RepresentationLattice, "_family", refuse)
        code, out = run_main(capsys, ["reproduce", target])
        data = json.loads(out)
        assert {c["name"]: c["actual"] for c in data["checks"]
                if c["name"] in expected} == expected
        assert (code, out) == before

    def test_table_holds_every_acceptance_pin(self):
        """Every value that tests/test_acceptance.py pins for criteria 1, 2,
        3, 6 and 8 is a row of `cli.REPRODUCERS`, in the form the CLI
        prints, and the rows with a KNOWN-CONFLICT note are exactly the pins
        that the acceptance module expects to fail.  Criteria 4, 5 and 7 are
        laws and sweeps with no `reproduce` target, and the runtime gates
        are not values."""
        from boolrep.cli import REPRODUCERS

        def flats(*sets):
            return sorted(map(sorted, sets))

        pins = {
            # criterion 1
            ("bigex", "flats"): flats("", "1", "2", "3", "4", "14", "24", "34", "123", "1234"),
            ("bigex", "minimal"): 6,
            ("bigex", "minimal orbits"): 2,
            ("bigex", "sji"): 24,
            ("bigex", "sji orbits"): 5,
            ("bigex", "mindeg"): 3,
            ("bigex", "printed witness found"): True,
            # criterion 2
            ("fano", "membership characterization"): True,
            ("fano", "minimal"): 7,
            ("fano", "minimal orbits"): 1,
            ("fano", "sji"): 35,
            ("fano", "sji orbits"): 3,
            ("fano", "mindeg"): 4,
            ("fano", "printed witness found"): True,
            # criterion 3
            ("u3-6", "minimal orbits"): 4,
            ("u3-6", "sji orbits"): 7,
            ("u3-6", "mindeg"): 6,
            ("u3-6", "girth criterion agreement"): True,
            ("u3-6", "minimal"): 221,
            ("u3-6", "sji"): 527,
            # criterion 6
            ("unio", "first representable"): True,
            ("unio", "second representable"): True,
            ("unio", "union representable"): False,
            ("truno", "representable"): True,
            ("truno", "3-truncation representable"): False,
            ("fourpoints", "cases"): 17,
            ("fourpoints", "trichotomy"): True,
            # criterion 8
            ("section3", "flats"): flats("", "2", "3", "4", "23", "24", "345", "12345"),
            ("section3", "expanded matrix congruent"): True,
        }
        table = {(target, name): value for target, (_, rows) in REPRODUCERS.items()
                 for name, value, *_ in rows}
        for pin, value in pins.items():
            assert pin in table, pin
            assert table[pin] == value and type(table[pin]) is type(value), pin
        noted = {(target, row[0]) for target, (_, rows) in REPRODUCERS.items()
                 for row in rows if len(row) == 3}
        assert noted == {("bigex", "sji orbits"), ("u3-6", "minimal"), ("u3-6", "sji")}

    @pytest.mark.parametrize("target", ["bigex", "libourne", "fano", "u3-6", "unio",
                                        "truno", "fourpoints", "section3"])
    def test_failures_are_the_noted_rows(self, capsys, target):
        from boolrep.cli import REPRODUCERS
        notes = {row[0]: row[2] for row in REPRODUCERS[target][1] if len(row) == 3}
        code, out = run_main(capsys, ["reproduce", target])
        data = json.loads(out)
        assert {c["name"] for c in data["checks"] if not c["ok"]} == set(notes)
        assert {c["name"]: c["note"] for c in data["checks"] if "note" in c} == notes
        assert (data["pass"], code) == ((False, 1) if notes else (True, 0))
        code, out = run_main(capsys, ["--format", "table", "reproduce", target])
        lines = out.splitlines()
        assert lines[0] == f"{target}: {'FAIL' if notes else 'PASS'}"
        assert code == (1 if notes else 0)
        for name, note in notes.items():
            i = next(i for i, line in enumerate(lines) if line.startswith(f"  [FAIL] {name}: "))
            assert lines[i + 1] == " " * 9 + note
        assert len(lines) == 1 + len(data["checks"]) + len(notes)

    def test_all_spec_targets_present(self):
        from boolrep.cli import REPRODUCERS
        assert sorted(REPRODUCERS) == sorted(
            ["bigex", "libourne", "fano", "u3-6", "unio", "truno",
             "fourpoints", "section3"])

    def test_byte_stability(self, capsys):
        _, out1 = run_main(capsys, ["reproduce", "section3"])
        _, out2 = run_main(capsys, ["reproduce", "section3"])
        assert out1 == out2


# -- contract fuzz: random and malformed collection JSON -------------------------------

COLLECTION_VERBS = (["flats"], ["circuits"], ["rank"], ["check-repr"],
                    ["check-matroid"], ["check-paving"], ["minimal-reps"],
                    ["sji-reps"], ["mindeg"], ["truncate", "--k", "2"],
                    ["truncate", "--k", "-1"])
ANY_LABEL = st.one_of(st.sampled_from(["1", "2", "a", ""]), st.integers(-1, 7),
                      st.booleans(), st.floats(-2, 2), st.none(),
                      st.lists(st.integers(0, 2), max_size=2))


@st.composite
def collection_json(draw):
    """(text, outside): JSON for a collection, and whether a facet of an
    otherwise well-formed one names a label outside its ground."""
    kind = draw(st.sampled_from(["typed", "simple", "typed", "simple", "any", "shape",
                                 "text"]))
    if kind in ("typed", "simple"):  # distinct string labels
        n = draw(st.integers(0, 6))
        ground = [str(i) for i in range(1, n + 1)]
        inside = st.lists(st.sampled_from(ground), max_size=n) if ground else st.just([])
        facets = draw(st.lists(inside, min_size=1, max_size=6))
        if kind == "simple":  # every pair independent
            facets += [list(p) for p in itertools.combinations(ground, 2)]
        outside = draw(st.integers(0, 4)) == 3  # one in five names a label outside E
        if outside:
            facets[draw(st.integers(0, len(facets) - 1))].append("x")
        return json.dumps({"ground": ground, "facets": facets}), outside
    if kind == "any":  # labels of every JSON type
        key = draw(st.sampled_from(["facets", "independents"]))
        return json.dumps({
            "ground": draw(st.lists(ANY_LABEL, max_size=6)),
            key: draw(st.lists(st.lists(ANY_LABEL, max_size=4), max_size=6))}), False
    if kind == "shape":  # wrong containers and missing keys
        value = st.one_of(ANY_LABEL, st.lists(ANY_LABEL, max_size=3),
                          st.lists(st.lists(ANY_LABEL, max_size=2), max_size=2))
        return json.dumps(draw(st.one_of(value, st.dictionaries(
            st.sampled_from(["ground", "facets", "independents", "rank"]),
            value, max_size=3)))), False
    return draw(st.sampled_from(['{"ground": ["1"', "", "[", "{}", "null", "\ufeff{}"])), False


class TestCollectionContractFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(verb=st.sampled_from(COLLECTION_VERBS), case=collection_json())
    @example(verb=["flats"], case=(DEEP_JSON, False))
    @example(verb=["sji-reps"], case=('{"ground": [%s], "facets": []}' % BIG_INT, False))
    @example(verb=["--dot", os.devnull, "flats"], case=(COLLIDING_FLATS, False))
    def test_exit_code_and_error_object(self, verb, case):
        text, outside = case
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
            code = main(verb)
        assert code in (0, 1)
        if code == 1:
            err = json.loads(out.getvalue())
            assert set(err) == {"error", "detail"}
            assert issubclass(getattr(errors, err["error"]), errors.BoolrepError)
        if outside:
            assert code == 1 and err["error"] == "FormatError"


# -- contract fuzz: random and malformed matrix text for stack ---------------------------


@st.composite
def matrix_text(draw, cols):
    """Text of a matrix over cols: rows of 0/1 bits, plain, after distinct
    `row:` labels or after labels that may repeat.  Some texts have one
    fault: a ragged row, a character other than 0 and 1, a `row:` line
    without bits, or no `cols:` line."""
    labels = draw(st.sampled_from(["plain", "distinct", "any"]))
    lines = ["cols: " + " ".join(cols)]
    for k in range(draw(st.integers(0, 5))):
        bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=len(cols),
                                     max_size=len(cols))))
        if labels == "distinct":
            bits = f"row: x{k} {bits}"
        elif labels == "any":
            bits = f"row: {draw(st.sampled_from(['a', 'b', 'r0', 'r1']))} {bits}"
        lines.append(bits)
    fault = draw(st.sampled_from(["", "", "", "", "", "", "ragged", "char", "nobits",
                                  "nocols"]))
    if fault == "nocols":
        del lines[0]
    elif fault and len(lines) > 1:
        i = draw(st.integers(1, len(lines) - 1))
        head, _, bits = lines[i].rpartition(" ")
        if fault == "ragged":
            bits = bits[:-1] if len(bits) > 1 and draw(st.booleans()) else bits + "1"
        elif fault == "char":
            j = draw(st.integers(0, len(bits)))
            bits = bits[:j] + draw(st.sampled_from("2x-")) + bits[j + 1:]
        lines[i] = head if fault == "nobits" and head else f"{head} {bits}".strip()
    return "\n".join(lines) + "\n"


@st.composite
def stack_case(draw):
    """(text1, text2, rowsum): two matrices for `stack`, whose columns
    may repeat a label or differ between the files; some cases stack an
    identity of 12 or 13 columns, whose row-sum closure meets the cap."""
    if draw(st.sampled_from(["eye", "", "", "", ""])):
        n = draw(st.sampled_from([12, 13]))
        eye = "".join("0" * i + "1" + "0" * (n - 1 - i) + "\n" for i in range(n))
        text = "cols: " + " ".join(f"c{j}" for j in range(n)) + "\n" + eye
        return text, text, True
    cols = [str(j + 1) for j in range(draw(st.integers(0, 5)))]
    if cols and draw(st.integers(0, 4)) == 3:
        cols[-1] = cols[0]  # a repeated column label
    variant = draw(st.sampled_from(["same", "same", "same", "fewer", "renamed", "reversed"]))
    cols2 = {"same": cols, "fewer": cols[:-1], "renamed": cols[:-1] + ["z"],
             "reversed": cols[::-1]}[variant]
    return draw(matrix_text(cols)), draw(matrix_text(cols2)), draw(st.booleans())


class TestStackContractFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=stack_case())
    def test_exit_code_and_error_object(self, case, tmp_path_factory):
        text1, text2, rowsum = case
        paths = []
        for name, text in (("m1.txt", text1), ("m2.txt", text2)):
            paths.append(tmp_path_factory.getbasetemp() / name)
            paths[-1].write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stack", *(["--rowsum"] if rowsum else []), *map(str, paths)])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            obj = json.loads(out.getvalue())
            assert set(obj) == {"error", "detail"}
            assert issubclass(getattr(errors, obj["error"]), errors.BoolrepError)
        else:
            m1, m2 = (matrix_from_text_by_rows(t) for t in (text1, text2))
            expect = stack_matrices_by_rows(m1, m2)
            if rowsum:
                expect = rowsum_closure_by_rows(expect)
            # as lines: a failed string comparison of 4 096 rows diffs for minutes
            assert out.getvalue().split("\n") == matrix_to_text_by_rows(expect).split("\n")


# -- contract fuzz: lattice, geometry and map text for geo, mpeg and maps-factorize ----


CAP = lattice.DEFAULT_LATTICE_CAP


@st.composite
def lattice_case(draw):
    """(text, lattice, fault): the text of the lattice generated by a random
    intersection-closed family over up to four points, with at most one
    fault.  The faults: a cover cycle, a repeated element label, a malformed
    `covers:` or `gens:` line, an unknown line, no `gens:` line, or a chain
    of more than CAP elements in place of the lattice."""
    n = draw(st.integers(1, 4))
    full = (1 << n) - 1
    masks = {0, full, *draw(st.lists(st.integers(1, full), max_size=6))}
    if draw(st.booleans()):
        masks |= {1 << i for i in range(n)}
    while True:  # close under intersection
        meets = {a & b for a in masks for b in masks} - masks
        if not meets:
            break
        masks |= meets
    vg = lattice.generated_lattice(lattice.FlatFamily.from_masks(
        tuple(str(i + 1) for i in range(n)), frozenset(masks)))
    lines = lattice.lattice_to_text(vg).splitlines()
    lat, bottom, top = vg.lattice, vg.lattice.bottom, vg.lattice.top
    fault = draw(st.sampled_from(["", "", "", "cycle", "dup", "covers", "gens", "line",
                                  "nogens", "big"]))
    if fault == "cycle":
        lines.append(f"covers: {top} < {bottom}")
    elif fault == "dup":
        lines[0] += " " + draw(st.sampled_from(lat.labels))
    elif fault == "covers":
        x = draw(st.sampled_from(lat.labels))
        lines.append(draw(st.sampled_from(
            [f"covers: {x} {top}", "covers:", f"covers: {x} <", f"covers: {x} < nosuch"])))
    elif fault == "gens":
        g = vg.gens[0]
        lines[-1] = draw(st.sampled_from(
            ["gens:", "gens: nosuch", f"gens: {g} {g}", f"gens: {bottom}"]))
    elif fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), "tops: 1")
    elif fault == "nogens":
        del lines[-1]
    elif fault == "big":
        chain = [f"c{i}" for i in range(draw(st.integers(CAP + 1, CAP + 4)))]
        lines = ["elements: " + " ".join(chain),
                 *(f"covers: {a} < {b}" for a, b in zip(chain, chain[1:])),
                 "gens: " + " ".join(chain[1:])]
    return "\n".join(lines) + "\n", vg, fault


@st.composite
def geo_json_case(draw):
    """(text, fault) for `geo --to-lattice` or `mpeg --to-lattice`: a
    random geometry over up to five points, a repeated point label, a label
    the lattice text format cannot carry, or one whose lattice would exceed
    CAP elements."""
    verb = draw(st.sampled_from(["geo", "mpeg"]))
    fault = draw(st.sampled_from(["", "", "dup", "big", "label"]))
    n = CAP + 1 if fault == "big" else draw(st.integers(1, 5))
    points = [str(i + 1) for i in range(n)]
    if fault == "dup":
        points.append(points[0])
    elif fault == "label":
        points[0] = draw(st.sampled_from(["", "a b", "a\nb", "<", "a<b"]))
    subsets = draw(st.lists(st.lists(st.sampled_from(points[:5]), min_size=2, max_size=4),
                            max_size=4))
    if verb == "geo":
        return verb, json.dumps({"points": points, "lines": subsets}), fault
    strata = [[[p] for p in points], subsets, [points]]
    return verb, json.dumps({"ground": points, "strata": strata}), fault


@st.composite
def map_case(draw):
    """(source, target, map text, map fault, lattice fault) for
    `maps-factorize`: the identity, the map sending all but the bottom to the
    top, or a random assignment; each text carries at most one fault.
    The map faults: a line for an element outside the source, a repeated
    line, a malformed line, or a missing line."""
    src, vg, src_fault = draw(lattice_case())
    lat = vg.lattice
    kind = draw(st.sampled_from(["identity", "collapse", "random"]))
    if kind == "random":
        tgt, tvg, tgt_fault = draw(lattice_case())
        mapping = {x: draw(st.sampled_from(tvg.lattice.labels)) for x in lat.labels}
    else:
        tgt, tgt_fault = src, src_fault
        mapping = {x: x if kind == "identity" or x == lat.bottom else lat.top
                   for x in lat.labels}
    lines = [f"map: {x} -> {y}" for x, y in mapping.items()]
    fault = draw(st.sampled_from(["", "", "", "outside", "repeated", "malformed", "missing"]))
    if fault == "outside":
        lines.append(f"map: nosuch -> {lat.top}")
    elif fault == "repeated":
        lines.append(lines[0])
    elif fault == "malformed":
        lines.append(draw(st.sampled_from([f"map: {lat.top} {lat.top}", "map:", "to: a -> b"])))
    elif fault == "missing":
        del lines[draw(st.integers(0, len(lines) - 1))]
    # the lattice fault the CLI meets first: it parses the source, then the
    # target, and a missing gens: line is no fault in either
    first = next((f for f in (src_fault, tgt_fault) if f not in ("", "nogens")), "")
    return src, tgt, "\n".join(lines) + "\n", fault, first


def assert_contract(argv, stdin_text=""):
    """Run main; the exit code is 0 or 1, exit 1 prints one error object, and
    no lattice over CAP elements is built.  Returns (code, error name, stdout)."""
    sizes = []
    init = lattice.FiniteLattice.__init__

    def counted_init(self, labels, down):
        sizes.append(len(labels))
        init(self, labels, down)

    from_covers = lattice.FiniteLattice.from_covers.__func__

    def counted_from_covers(cls, elements, pairs):
        sizes.append(len(elements))
        return from_covers(cls, elements, pairs)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), \
            mock.patch.object(lattice.FiniteLattice, "__init__", counted_init), \
            mock.patch.object(lattice.FiniteLattice, "from_covers",
                              classmethod(counted_from_covers)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert max(sizes, default=0) <= CAP
    if code == 0:
        return code, None, out.getvalue()
    obj = json.loads(out.getvalue())
    assert set(obj) == {"error", "detail"}
    assert issubclass(getattr(errors, obj["error"]), errors.BoolrepError)
    return code, obj["error"], out.getvalue()


# the error a fault of lattice_case raises while its text is parsed
PARSE_ERROR = {"cycle": "CycleError", "dup": "FormatError", "covers": "FormatError",
               "line": "FormatError", "big": "TooLarge"}


class TestLatticeContractFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(verb=st.sampled_from(["geo", "mpeg"]), case=lattice_case())
    def test_lattice_text(self, verb, case):
        text, _, fault = case
        code, error, _ = assert_contract([verb], text)
        if fault in PARSE_ERROR:
            assert error == PARSE_ERROR[fault]
        elif fault == "gens" or (fault == "nogens" and verb == "geo"):
            assert code == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=geo_json_case())
    @example(case=("geo", DEEP_JSON, ""))
    @example(case=("mpeg", '{"ground": [%s], "strata": []}' % BIG_INT, ""))
    @example(case=("mpeg", COLLIDING_MPEG, "collide"))
    def test_geometry_json(self, case):
        verb, text, fault = case
        code, error, out = assert_contract([verb, "--to-lattice"], text)
        if fault == "big":
            assert error == "TooLarge"
        elif fault in ("dup", "label"):
            assert error == "FormatError"
        elif fault == "collide":
            assert json.loads(out) == DUPLICATE_LABELS
        if code == 0:  # the text written reads back as the lattice built
            vg = (geometry.lat_of_peg(geometry.peg_from_json(text)) if verb == "geo"
                  else geometry.lattice_of_mpeg(geometry.mpeg_from_json(text)))
            back = lattice.lattice_from_text(out)
            assert back.lattice.labels == vg.lattice.labels
            assert back.lattice.cover_pairs() == vg.lattice.cover_pairs()
            assert back.gens == vg.gens

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=map_case())
    # a source without gens: parses, so the target's cover cycle comes first
    @example(case=("elements: {} {1}\ncovers: {} < {1}\n",
                   "elements: {} {1}\ncovers: {} < {1}\ngens: {1}\ncovers: {1} < {}\n",
                   "map: {} -> {}\nmap: {1} -> {}\nmap: nosuch -> {1}\n", "outside", "cycle"))
    def test_maps_factorize(self, case, tmp_path_factory):
        src, tgt, text, fault, lattice_fault = case
        paths = []
        for name, body in (("src.txt", src), ("tgt.txt", tgt), ("map.txt", text)):
            paths.append(tmp_path_factory.getbasetemp() / name)
            paths[-1].write_text(body)
        code, error, _ = assert_contract(["maps-factorize", "--source", str(paths[0]),
                                          "--target", str(paths[1]), "--map", str(paths[2])])
        if lattice_fault in PARSE_ERROR:
            assert error == PARSE_ERROR[lattice_fault]
        elif lattice_fault == "gens":
            assert code == 1
        elif fault:
            assert error == "FormatError"
