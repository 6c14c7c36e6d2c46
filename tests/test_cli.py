"""Command-line behaviors: formats, pipelines, exit codes, reproduce targets."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import boolrep
from boolrep import errors, hereditary, reps, sbcore
from boolrep.cli import build_parser, main
from conftest import matrix_from_text_by_rows, matrix_to_text_by_rows, rep_report_by_records, \
    rowsum_closure_by_rows, stack_matrices_by_rows

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
        def refuse(*args):
            raise RuntimeError("a record or its matrix text was built")

        monkeypatch.setattr(reps.RepresentationLattice, "record", refuse)
        monkeypatch.setattr(reps.RepRecord, "matrix", property(refuse))
        monkeypatch.setattr(sbcore.BoolMatrix, "to_text", refuse)
        path = hc_path("u36")
        for verb, count in (("sji-reps", 442), ("minimal-reps", 226)):
            assert main([verb, path]) == 0
            assert len(json.loads(capsys.readouterr().out)["families"]) == count

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
    @pytest.mark.parametrize("target", ["bigex", "libourne", "fano", "unio",
                                        "truno", "fourpoints", "section3"])
    def test_fast_targets_pass(self, capsys, target):
        code, out = run_main(capsys, ["reproduce", target])
        data = json.loads(out)
        assert data["pass"] is True and code == 0

    @pytest.mark.parametrize("target,hc", [("bigex", hereditary.example_bigex),
                                           ("fano", hereditary.fano)])
    def test_counts_from_keys(self, monkeypatch, capsys, target, hc):
        walk = reps.RepresentationLattice(hc())
        expected = {"minimal": len(walk.minimal_families()), "sji": len(walk.sji_families())}
        _, before = run_main(capsys, ["reproduce", target])

        def refuse(*args):
            raise RuntimeError("a family was decoded to a frozenset")

        monkeypatch.setattr(reps.RepresentationLattice, "_family", refuse)
        code, out = run_main(capsys, ["reproduce", target])
        data = json.loads(out)
        assert {c["name"]: c["actual"] for c in data["checks"]
                if c["name"] in expected} == expected
        assert (code, data["pass"], out) == (0, True, before)

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
