"""Command-line front end.

Reads hereditary collections as JSON ({"ground": [...], "facets": [[...]]} or
an "independents" variant), matrices and lattices in their text formats, and
emits JSON by default (`--format table` for a human-readable rendering).
Exit codes: 0 success, 1 domain error (machine-readable error object on
stdout) or a reader that closed stdout early, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import Counter

from . import geometry, hereditary, lattice, maps, reps, sbcore
from .errors import BoolrepError, FormatError, TooLarge

DEFAULT_MAX_GROUND = 12


def _max_ground() -> int:
    """BOOLREP_MAX_GROUND: 12 when unset or empty, else a non-negative integer."""
    text = os.environ.get("BOOLREP_MAX_GROUND") or str(DEFAULT_MAX_GROUND)
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise FormatError(f"BOOLREP_MAX_GROUND must be a non-negative integer, not {text!r}")
    return cap


def _read_input(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from None


def _load_hc(path: str | None) -> hereditary.HereditaryCollection:
    """The input collection; BOOLREP_MAX_GROUND is enforced before it is built."""
    return hereditary.hc_from_json(_read_input(path), max_ground=_max_ground())


def _subsets_sorted(hc, masks) -> list[list[str]]:
    """Each mask's labels in ground order; by size, then ground positions."""
    return [lattice.mask_to_list(m, hc.ground)
            for m in sorted(masks, key=lattice.mask_order)]


def _check_labels(labels, text_format: str, separator: str = "") -> None:
    """Refuse, before anything is written, a label that the reader of a text
    format would drop (empty) or split (at whitespace or the separator)."""
    for x in labels:
        if x.split() != [x] or separator and separator in x:
            raise FormatError(f"label {x!r} cannot be written in the {text_format} text format")


def _emit(args, payload: dict, table_lines=None) -> None:
    if args.format == "table" and table_lines is not None:
        print("\n".join(table_lines))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _maybe_dot(args, dot_text: str | None) -> None:
    if getattr(args, "dot", None) and dot_text is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot_text)
        except OSError as e:
            raise FormatError(f"cannot write {args.dot}: {e}") from None


# -- verbs ------------------------------------------------------------------------


GENERATORS = {
    "fano": hereditary.fano,
    "bigex": hereditary.example_bigex,
    "unio-j1": lambda: hereditary.example_unio()[0],
    "unio-j2": lambda: hereditary.example_unio()[1],
    "unio-union": lambda: hereditary.union_hc(*hereditary.example_unio()),
    "truno": hereditary.example_truno,
}


def cmd_generate(args) -> int:
    if args.name == "uniform":
        if args.a is None or args.b is None:
            raise FormatError("uniform needs --a and --b")
        if args.a < 0 or args.b < 0:
            raise FormatError("uniform needs --a and --b >= 0")
        cap = _max_ground()
        if args.b > cap:
            raise TooLarge(f"|E| = {args.b} exceeds the cap {cap}")
        hc = hereditary.uniform(args.a, args.b)
    else:
        hc = GENERATORS[args.name]()
    print(hereditary.hc_to_json(hc))
    return 0


def cmd_flats(args) -> int:
    hc = _load_hc(args.input)
    fam = hc.flats()
    flats = _subsets_sorted(hc, fam.masks)
    payload = {"ground": list(hc.ground), "count": len(flats), "flats": flats}
    if getattr(args, "dot", None):
        vg = hereditary.flat_lattice(hc)
        _maybe_dot(args, lattice.hasse_dot(vg))
    _emit(args, payload, ["flats (%d):" % len(flats)] +
          ["  {" + ",".join(f) + "}" for f in flats])
    return 0


def cmd_circuits(args) -> int:
    hc = _load_hc(args.input)
    circ = _subsets_sorted(hc, hc._circuit_masks)
    _emit(args, {"count": len(circ), "circuits": circ},
          ["circuits (%d):" % len(circ)] +
          ["  {" + ",".join(c) + "}" for c in circ])
    return 0


def cmd_rank(args) -> int:
    hc = _load_hc(args.input)
    payload = {"rank": hc.rank,
               "hyperplanes": _subsets_sorted(hc, hc.flats().coatom_masks())}
    _emit(args, payload, [f"rank: {hc.rank}"])
    return 0


def cmd_check_repr(args) -> int:
    hc = _load_hc(args.input)
    res = hereditary.boolean_representability(hc)
    payload = {"boolean_representable": res.holds,
               "counterexample": sorted(res.counterexample) if res.counterexample else None}
    _emit(args, payload, [f"boolean representable: {res.holds}"])
    return 0


def cmd_check_matroid(args) -> int:
    hc = _load_hc(args.input)
    payload = {"matroid": hc.is_matroid(),
               "point_replacement": hc.satisfies_pr(),
               "simple": hc.is_simple()}
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def cmd_check_paving(args) -> int:
    hc = _load_hc(args.input)
    payload = {"paving": hereditary.is_paving(hc),
               "paving_representable": hereditary.paving_representable(hc)}
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def _raw_counts(walk: reps.RepresentationLattice) -> tuple[int, int]:
    """(minimal, sji) families of the walk, read off its child counts."""
    n = Counter(walk.nchildren.values())
    return n[0], n[0] + n[1]


def _rep_report(args, which: str) -> int:
    hc = _load_hc(args.input)
    if args.format != "table":  # the table prints no matrix
        _check_labels(hc.ground, "matrix")
    walk = reps.RepresentationLattice(hc, max_nontrivial=args.max_flats)
    chosen = walk.sorted_keys(0 if which == "minimal" else 1)
    flats, nchildren = walk.flats, walk.nchildren
    # the flat indices in print order: a family prints the set bits of its key
    by_pos = sorted(range(len(flats)), key=lambda i: lattice.mask_order(flats[i]))
    names = [lattice.mask_label(m, hc.ground) for m in flats]
    if args.format == "table":
        # the table lists the families only: no counts, matrices or orbits
        _emit(args, {}, [f"{which} representations: {len(chosen)}"] + [
            "  " + "; ".join([names[i] for i in by_pos if key >> i & 1])
            for key in chosen])
        return 0
    # every count first, so a refusal prints its error object on an empty stdout
    md, _ = reps.mindeg(hc)
    minimal_orbits, sji_orbits = walk.orbit_counts()
    minimal_raw, sji_raw = _raw_counts(walk)
    counts = {"minimal_raw": minimal_raw, "minimal_orbits": minimal_orbits,
              "sji_raw": sji_raw, "sji_orbits": sji_orbits, "mindeg": md}
    # the text of json.dumps(payload, indent=2, sort_keys=True), written one
    # family at a time.  Each of the walk's flats gets its label list and its
    # line of the flats' family_matrix text encoded once, at the depth (8
    # spaces) where a family lists them
    item = ",\n" + " " * 8
    fm = lattice.family_matrix(hc.flats())
    cols, *lines = fm.to_text().rstrip("\n").split("\n")
    row_of = dict(zip(fm.row_labels, lines))
    labels = [json.dumps(lattice.mask_to_list(m, hc.ground), indent=2
                         ).replace("\n", "\n" + " " * 8) for m in flats]
    rows = [item + json.dumps(row_of[name]) for name in names]
    cols = json.dumps(cols)
    out = sys.stdout
    out.write('{\n  "counts": '
              + json.dumps(counts, indent=2, sort_keys=True).replace("\n", "\n  ")
              + ',\n  "families": [')
    sep = "\n"
    for key in chosen:
        ms = [i for i in by_pos if key >> i & 1]
        out.write(sep + '    {\n      "family": [\n        '
                  + item.join([labels[i] for i in ms])
                  + '\n      ],\n      "in_im_theta": true,\n      "matrix": [\n        '
                  + cols + "".join([rows[i] for i in ms])
                  + '\n      ],\n      "minimal": ' + ("false" if nchildren[key] else "true")
                  + ',\n      "sji": true\n    }')
        sep = ",\n"
    out.write("\n  ]\n}\n")  # the walk has a minimal family, so chosen is never empty
    return 0


def cmd_minimal_reps(args) -> int:
    return _rep_report(args, "minimal")


def cmd_sji_reps(args) -> int:
    return _rep_report(args, "sji")


def cmd_mindeg(args) -> int:
    hc = _load_hc(args.input)
    _check_labels(hc.ground, "matrix")
    k, witnesses = reps.mindeg(hc)
    witness = witnesses[0].to_text().rstrip("\n").split("\n")
    _emit(args, {"mindeg": k, "witness": witness}, [f"mindeg: {k}", *witness])
    return 0


def cmd_stack(args) -> int:
    m1 = sbcore.BoolMatrix.from_text(_read_input(args.m1))
    m2 = sbcore.BoolMatrix.from_text(_read_input(args.m2))
    out = reps.stack_matrices(m1, m2)
    if args.rowsum:
        out = reps.rowsum_closure(out)
    sys.stdout.write(out.to_text())
    return 0


def cmd_truncate(args) -> int:
    hc = _load_hc(args.input)
    print(hereditary.hc_to_json(hereditary.truncation(hc, args.k)))
    return 0


def _write_lattice(build, g, labels) -> int:
    """Write build(g) in the lattice text format, whose reader also splits at "<"."""
    _check_labels(labels, "lattice", "<")
    sys.stdout.write(lattice.lattice_to_text(build(g)))
    return 0


def cmd_geo(args) -> int:
    if args.to_lattice:
        g = geometry.peg_from_json(_read_input(args.input))
        return _write_lattice(geometry.lat_of_peg, g, g.points)
    obj = lattice.lattice_from_text(_read_input(args.input))
    if not isinstance(obj, lattice.VGenLattice):
        raise FormatError("geometry extraction needs a gens: line")
    g = geometry.geo_of_lattice(obj)
    _maybe_dot(args, geometry.peg_dot(g))
    print(geometry.peg_to_json(g))
    return 0


def cmd_mpeg(args) -> int:
    if args.to_lattice:
        g = geometry.mpeg_from_json(_read_input(args.input))
        return _write_lattice(geometry.lattice_of_mpeg, g, g.ground)
    obj = lattice.lattice_from_text(_read_input(args.input))
    lat = obj.lattice if isinstance(obj, lattice.VGenLattice) else obj
    g = geometry.mpeg_of_atomic_lattice(lat)
    order = {p: i for i, p in enumerate(g.ground)}
    payload = {
        "ground": list(g.ground),
        "strata": [
            sorted((sorted(p, key=order.__getitem__) for p in stratum),
                   key=lambda p: [order[x] for x in p])
            for stratum in g.strata],
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_maps_factorize(args) -> int:
    src_obj = lattice.lattice_from_text(_read_input(args.source))
    tgt_obj = lattice.lattice_from_text(_read_input(args.target))
    src = src_obj.lattice if isinstance(src_obj, lattice.VGenLattice) else src_obj
    tgt = tgt_obj.lattice if isinstance(tgt_obj, lattice.VGenLattice) else tgt_obj
    phi = maps.map_from_text(_read_input(args.map), src, tgt)
    mps_steps, mpi_steps = maps.csi_factorize(phi)
    steps = []
    for s in mps_steps:
        steps.append({"kind": "mps", "collapsed": [s.upper, s.lower],
                      "lattice": lattice.lattice_to_text(s.map.target).rstrip("\n").split("\n")})
    for s in mpi_steps:
        steps.append({"kind": "mpi", "added": s.added,
                      "lattice": lattice.lattice_to_text(s.map.target).rstrip("\n").split("\n")})
    payload = {"steps": steps}
    lines = []
    for i, s in enumerate(steps, 1):
        what = ("collapse " + "/".join(s["collapsed"])) if s["kind"] == "mps" \
            else ("insert " + s["added"])
        lines.append(f"{i}. [{s['kind']}] {what}")
        lines.extend("   " + ln for ln in s["lattice"])
    _emit(args, payload, lines or ["(already an isomorphism)"])
    return 0


# -- reproduce ---------------------------------------------------------------------


def _walk_values(hc, printed=None) -> tuple[dict, reps.RepresentationLattice]:
    """The walk, and its raw and orbit counts, the minimum degree and, given a
    printed witness matrix, whether a minimum-degree witness is congruent to it."""
    walk = reps.RepresentationLattice(hc)
    minimal, sji = _raw_counts(walk)
    minimal_orbits, sji_orbits = walk.orbit_counts()
    k, witnesses = reps.mindeg(hc, enumerate_all=True)
    values = {"minimal": minimal, "sji": sji, "minimal orbits": minimal_orbits,
              "sji orbits": sji_orbits, "mindeg": k}
    if printed is not None:
        values["printed witness found"] = any(lattice.congruent(w, printed)
                                              for w in witnesses)
    return values, walk


def _reproduce_bigex() -> dict:
    hc = hereditary.example_bigex()
    printed = sbcore.BoolMatrix.build([(0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 1)],
                                      col_labels=hc.ground)
    return {"flats": sorted(map(sorted, hc.flats().members)),
            **_walk_values(hc, printed)[0]}


def _reproduce_libourne() -> dict:
    hc = hereditary.example_bigex()
    m = hereditary.example_libourne_matrix()
    fam, _ = lattice.flats_of_matrix(m)
    return {"independent {1,2,4}": sbcore.columns_independent(m, ("1", "2", "4")),
            "dependent {1,2,3}": sbcore.columns_independent(m, ("1", "2", "3")),
            "rank": sbcore.matrix_rank(m),
            "represents": reps.matrix_represents(hc, m),
            "rowmin": reps.is_rowmin(hc, m),
            "flat family": sorted(map(sorted, frozenset(fam.members) | {frozenset()}))}


def _reproduce_fano() -> dict:
    hc = hereditary.fano()
    printed = sbcore.BoolMatrix.build(
        [(0, 0, 1, 1, 0, 1, 1), (0, 1, 1, 0, 1, 0, 1),
         (1, 0, 0, 1, 1, 0, 1), (1, 1, 0, 0, 0, 1, 1)], col_labels=hc.ground)
    values, walk = _walk_values(hc, printed)
    lines = [hc.mask_of(line) for line in hereditary.FANO_LINES]

    def characterized(masks) -> bool:
        """Five or more lines, or four lines no three of them concurrent."""
        held = [m for m in lines if m in masks]
        return len(held) >= 5 or len(held) == 4 and not any(
            a & b & c for a, b, c in itertools.combinations(held, 3))

    values["membership characterization"] = all(
        characterized(fam.masks) == (fam.masks in walk)
        for fam in reps.enumerate_fisfl(hc))
    return values


def _reproduce_u36() -> dict:
    hc = hereditary.uniform(3, 6)
    values, walk = _walk_values(hc)

    def girth(masks) -> bool:
        """The missing pairs form a triangle-free graph, and at most one
        point is missing."""
        singles = sum(1 for i in range(6) if (1 << i) in masks)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                 if ((1 << i) | (1 << j)) not in masks]
        adj = [0] * 6
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return not any(adj[i] & adj[j] for i, j in edges) and singles >= 5

    values["girth criterion agreement"] = all(
        girth(fam.masks) == (fam.masks in walk) for fam in reps.enumerate_fisfl(hc))
    return values


def _reproduce_unio() -> dict:
    j1, j2 = hereditary.example_unio()
    u = hereditary.union_hc(j1, j2)
    return {"first representable": hereditary.is_boolean_representable(j1),
            "second representable": hereditary.is_boolean_representable(j2),
            "union representable": hereditary.is_boolean_representable(u),
            "union paving": hereditary.is_paving(u)}


def _reproduce_truno() -> dict:
    hc = hereditary.example_truno()
    u = hereditary.union_hc(*hereditary.example_unio())
    t3 = hereditary.truncation(hc, 3)
    return {"representable": hereditary.is_boolean_representable(hc),
            "3-truncation representable": hereditary.is_boolean_representable(t3),
            "3-truncation equals the union example": t3.h_masks == u.h_masks}


def _reproduce_fourpoints() -> dict:
    ground = tuple(str(i) for i in range(1, 5))
    triples = [m for m in range(16) if m.bit_count() == 3]
    base = [m for m in range(16) if m.bit_count() < 3]
    cases = []
    for r in range(5):
        for chosen in itertools.combinations(triples, r):
            h = base + list(chosen)
            if len(chosen) == 4:
                cases.append(h + [15])  # and the full set
            cases.append(h)
    ok = True
    for masks in cases:
        hc = hereditary.HereditaryCollection.from_masks(ground, masks)
        triple_count = sum(1 for m in hc.h_masks if m.bit_count() == 3)
        m, pr, rep = hc.is_matroid(), hc.satisfies_pr(), \
            hereditary.is_boolean_representable(hc)
        if triple_count in (0, 3, 4):
            ok = ok and m and rep
        elif triple_count == 1:
            ok = ok and (not pr) and (not rep)
        else:
            ok = ok and (not m) and rep
    return {"cases": len(cases), "trichotomy": ok}


def _reproduce_section3() -> dict:
    m = hereditary.section3_matrix()
    fam, y = lattice.flats_of_matrix(m)
    vg = lattice.lattice_from_matrix(m)
    printed = sbcore.BoolMatrix.build(
        [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0), (1, 0, 1, 1, 1),
         (1, 1, 0, 1, 1), (1, 1, 1, 0, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
        col_labels=[str(i) for i in range(1, 6)])
    return {"flats": sorted(sorted(s) for s in fam.members),
            "column flats": [sorted(y[c]) for c in m.col_labels],
            "expanded matrix congruent": lattice.congruent(lattice.matrix_of(vg), printed),
            "height": vg.lattice.height()}


# The paper's published values: per target, the function computing its
# values and the rows (name, value) or (name, value, note) it is checked
# against, in print order.  A note explains a known disagreement between
# the published value and the computation.
REPRODUCERS = {
    "bigex": (_reproduce_bigex, (
        ("flats", [[], ["1"], ["1", "2", "3"], ["1", "2", "3", "4"], ["1", "4"],
                   ["2"], ["2", "4"], ["3"], ["3", "4"], ["4"]]),
        ("minimal", 6), ("sji", 24), ("minimal orbits", 2),
        ("sji orbits", 5,
         "KNOWN-CONFLICT: published tally 5, computed 6 (orbit sizes "
         "3+6+3+6+3+3, two of them minimal; recount in "
         "tests/test_reps.py::TestWalk::test_minimal_and_sji_counts_bigex)"),
        ("mindeg", 3), ("printed witness found", True))),
    "libourne": (_reproduce_libourne, (
        ("independent {1,2,4}", True), ("dependent {1,2,3}", False), ("rank", 3),
        ("represents", True), ("rowmin", True),
        ("flat family", [[], ["1"], ["1", "2", "3"], ["1", "2", "3", "4"], ["1", "4"],
                         ["2"]]))),
    "fano": (_reproduce_fano, (
        ("minimal", 7), ("sji", 35), ("minimal orbits", 1), ("sji orbits", 3),
        ("mindeg", 4), ("printed witness found", True),
        ("membership characterization", True))),
    "u3-6": (_reproduce_u36, (
        ("minimal", 221, "KNOWN-CONFLICT: published 221 = 20+15+6+180 "
                         "(recount in tests/test_reps.py::TestWalk::test_u36_counts)"),
        ("sji", 527, "KNOWN-CONFLICT: published 527 = 221+180+120+6 "
                     "(recount in tests/test_reps.py::TestWalk::test_u36_counts)"),
        ("minimal orbits", 4), ("sji orbits", 7), ("mindeg", 6),
        ("girth criterion agreement", True))),
    "unio": (_reproduce_unio, (
        ("first representable", True), ("second representable", True),
        ("union representable", False), ("union paving", True))),
    "truno": (_reproduce_truno, (
        ("representable", True), ("3-truncation representable", False),
        ("3-truncation equals the union example", True))),
    "fourpoints": (_reproduce_fourpoints, (("cases", 17), ("trichotomy", True))),
    "section3": (_reproduce_section3, (
        ("flats", [[], ["1", "2", "3", "4", "5"], ["2"], ["2", "3"], ["2", "4"], ["3"],
                   ["3", "4", "5"], ["4"]]),
        ("column flats", [["1", "2", "3", "4", "5"], ["2"], ["3"], ["4"], ["3", "4", "5"]]),
        ("expanded matrix congruent", True), ("height", 3))),
}


def cmd_reproduce(args) -> int:
    compute, rows = REPRODUCERS[args.target]
    actual = compute()
    checks = []
    for name, expected, *note in rows:
        checks.append({"name": name, "expected": expected, "actual": actual[name],
                       "ok": expected == actual[name]})
        if note:
            checks[-1]["note"] = note[0]
    passed = all(c["ok"] for c in checks)
    payload = {"target": args.target, "pass": passed, "checks": checks}
    lines = [f"{args.target}: {'PASS' if passed else 'FAIL'}"]
    for c in checks:
        mark = "ok " if c["ok"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}: expected {c['expected']!r}, "
                     f"got {c['actual']!r}")
        if "note" in c:
            lines.append(" " * 9 + c["note"])
    _emit(args, payload, lines)
    return 0 if passed else 1


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boolrep",
        description="Boolean-matrix and lattice representations of "
                    "hereditary collections.")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--dot", metavar="PATH",
                   help="also write a DOT diagram where applicable")
    p.add_argument("--max-flats", type=int, default=reps.DEFAULT_MAX_NONTRIVIAL_FLATS,
                   help="cap on nontrivial flats for the representation walk of "
                        "minimal-reps and sji-reps (hard refusal past the cap)")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("generate", cmd_generate, help="emit a built-in collection as JSON")
    sp.add_argument("name", choices=("uniform", *GENERATORS))
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)

    for name, fn, hlp in (
        ("flats", cmd_flats, "lattice of flats"),
        ("circuits", cmd_circuits, "minimal dependent sets"),
        ("rank", cmd_rank, "rank and hyperplanes"),
        ("check-repr", cmd_check_repr, "boolean representability"),
        ("check-matroid", cmd_check_matroid, "exchange/point-replacement/simple"),
        ("check-paving", cmd_check_paving, "paving predicates"),
        ("minimal-reps", cmd_minimal_reps, "minimal representations report"),
        ("sji-reps", cmd_sji_reps, "strictly join irreducible representations"),
        ("mindeg", cmd_mindeg, "minimum representation degree"),
    ):
        sp = add(name, fn, help=hlp)
        sp.add_argument("input", nargs="?", default=None,
                        help="JSON file ('-' or omitted: stdin)")

    sp = add("stack", cmd_stack, help="stack two matrices (text format)")
    sp.add_argument("m1")
    sp.add_argument("m2")
    sp.add_argument("--rowsum", action="store_true",
                    help="close the stacked rows under boolean sum")

    sp = add("truncate", cmd_truncate, help="k-truncation of a collection")
    sp.add_argument("input", nargs="?", default=None)
    sp.add_argument("--k", type=int, required=True)

    sp = add("geo", cmd_geo, help="height-3 lattice <-> point-line geometry")
    sp.add_argument("input", nargs="?", default=None)
    sp.add_argument("--to-lattice", action="store_true",
                    help="input is geometry JSON; emit the lattice")

    sp = add("mpeg", cmd_mpeg, help="atomic lattice <-> graded geometry")
    sp.add_argument("input", nargs="?", default=None)
    sp.add_argument("--to-lattice", action="store_true")

    sp = add("maps-factorize", cmd_maps_factorize,
             help="decompose a join map into surjective then injective steps")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--map", required=True)

    sp = add("reproduce", cmd_reproduce,
             help="replay a named example against embedded expected values")
    sp.add_argument("target", choices=sorted(REPRODUCERS))
    return p


def _run(args) -> int:
    try:
        return args.fn(args)
    except BoolrepError as e:
        print(json.dumps({"error": type(e).__name__, "detail": str(e.args[0]) if e.args else ""}))
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: nothing more reaches it, and the flush at
        # interpreter shutdown must find somewhere to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
