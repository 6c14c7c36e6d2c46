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
from typing import Optional

from . import geometry, hereditary, lattice, maps, reps, sbcore
from .errors import BoolrepError, FormatError, TooLarge

DEFAULT_MAX_GROUND = 12


def _max_ground() -> int:
    try:
        return int(os.environ.get("BOOLREP_MAX_GROUND", DEFAULT_MAX_GROUND))
    except ValueError:
        return DEFAULT_MAX_GROUND


def _read_input(path: Optional[str]) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from None


def _load_hc(path: Optional[str]) -> hereditary.HereditaryCollection:
    """The input collection; BOOLREP_MAX_GROUND is enforced before it is built."""
    return hereditary.hc_from_json(_read_input(path), max_ground=_max_ground())


def _subsets_sorted(hc, masks) -> list[list[str]]:
    """Each mask's labels in ground order; by size, then ground positions."""
    return [lattice.mask_to_list(m, hc.ground)
            for m in sorted(masks, key=lattice.mask_order)]


def _emit(args, payload: dict, table_lines=None) -> None:
    if args.format == "table" and table_lines is not None:
        print("\n".join(table_lines))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _maybe_dot(args, dot_text: Optional[str]) -> None:
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
    rf = hereditary.rank_function(hc)
    payload = {"rank": rf.rank,
               "hyperplanes": _subsets_sorted(hc, hereditary._hyperplane_masks(hc))}
    _emit(args, payload, [f"rank: {rf.rank}"])
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
    # family_matrix line encoded once, at the depth (8 spaces) where a family
    # lists them; flat labels start with "{", never the auto r0, r1, ...
    # pattern, so to_text would print the same `row: {label} bits` lines
    n = len(hc.ground)
    item = ",\n" + " " * 8
    labels, rows = [], []
    for m, name in zip(flats, names):
        labels.append(json.dumps(lattice.mask_to_list(m, hc.ground), indent=2
                                 ).replace("\n", "\n" + " " * 8))
        bits = "".join(str(1 - (m >> j & 1)) for j in range(n))
        rows.append(item + json.dumps(f"row: {name} {bits}"))
    cols = json.dumps("cols: " + " ".join(hc.ground))
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
    k, witnesses = reps.mindeg(hc)
    payload = {"mindeg": k,
               "witness": witnesses[0].to_text().rstrip("\n").split("\n")}
    _emit(args, payload, [f"mindeg: {k}", witnesses[0].to_text()])
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


def cmd_geo(args) -> int:
    if args.to_lattice:
        g = geometry.peg_from_json(_read_input(args.input))
        vg = geometry.lat_of_peg(g)
        sys.stdout.write(lattice.lattice_to_text(vg))
        return 0
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
        vg = geometry.lattice_of_mpeg(g)
        sys.stdout.write(lattice.lattice_to_text(vg))
        return 0
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


def _check(checks: list, name: str, expected, actual) -> None:
    checks.append({"name": name, "expected": expected, "actual": actual,
                   "ok": expected == actual})


def _reproduce_bigex(args, checks: list) -> None:
    hc = hereditary.example_bigex()
    expected_flats = [frozenset(), *(frozenset((str(i),)) for i in range(1, 5)),
                      frozenset("14"), frozenset("24"), frozenset("34"),
                      frozenset("123"), frozenset("1234")]
    _check(checks, "flats", sorted(map(sorted, expected_flats)),
           sorted(map(sorted, hc.flats().members)))
    minimal, sji = _raw_counts(reps.RepresentationLattice(hc))
    _check(checks, "minimal", 6, minimal)
    _check(checks, "sji", 24, sji)
    _check(checks, "mindeg", 3, reps.mindeg(hc)[0])


def _reproduce_libourne(args, checks: list) -> None:
    hc = hereditary.example_bigex()
    m = hereditary.example_libourne_matrix()
    _check(checks, "independent {1,2,4}", True,
           sbcore.columns_independent(m, ("1", "2", "4")))
    _check(checks, "dependent {1,2,3}", False,
           sbcore.columns_independent(m, ("1", "2", "3")))
    _check(checks, "rank", 3, sbcore.matrix_rank(m))
    _check(checks, "represents", True, reps.matrix_represents(hc, m))
    _check(checks, "rowmin", True, reps.is_rowmin(hc, m))
    fam, _ = lattice.flats_of_matrix(m)
    closed = frozenset(fam.members) | {frozenset()}
    _check(checks, "flat family",
           sorted(map(sorted, [frozenset(), frozenset("1"), frozenset("2"),
                               frozenset("14"), frozenset("123"), frozenset("1234")])),
           sorted(map(sorted, closed)))


def _reproduce_fano(args, checks: list) -> None:
    hc = hereditary.fano()
    minimal, sji = _raw_counts(reps.RepresentationLattice(hc))
    _check(checks, "minimal", 7, minimal)
    _check(checks, "sji", 35, sji)
    _check(checks, "mindeg", 4, reps.mindeg(hc)[0])


def _reproduce_u36(args, checks: list) -> None:
    hc = hereditary.uniform(3, 6)
    walk = reps.RepresentationLattice(hc)
    minimal, sji = _raw_counts(walk)
    _check(checks, "minimal", 221, minimal)
    _check(checks, "sji", 527, sji)
    minimal_orbits, sji_orbits = walk.orbit_counts()
    _check(checks, "minimal orbits", 4, minimal_orbits)
    _check(checks, "sji orbits", 7, sji_orbits)
    _check(checks, "mindeg", 6, reps.mindeg(hc)[0])
    # graph criterion agreement over the full subfamily enumeration
    agree = True
    for fam in reps.enumerate_fisfl(hc):
        masks = fam.masks
        singles = sum(1 for i in range(6) if (1 << i) in masks)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                 if ((1 << i) | (1 << j)) not in masks]
        adj = [0] * 6
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        triangle = any(adj[i] & adj[j] for i, j in edges)
        crit = (not triangle) and singles >= 5
        if crit != (masks in walk.members):
            agree = False
            break
    _check(checks, "girth criterion agreement", True, agree)


def _reproduce_unio(args, checks: list) -> None:
    j1, j2 = hereditary.example_unio()
    u = hereditary.union_hc(j1, j2)
    _check(checks, "first representable", True, hereditary.is_boolean_representable(j1))
    _check(checks, "second representable", True, hereditary.is_boolean_representable(j2))
    _check(checks, "union representable", False, hereditary.is_boolean_representable(u))
    _check(checks, "union paving", True, hereditary.is_paving(u))


def _reproduce_truno(args, checks: list) -> None:
    hc = hereditary.example_truno()
    u = hereditary.union_hc(*hereditary.example_unio())
    t3 = hereditary.truncation(hc, 3)
    _check(checks, "representable", True, hereditary.is_boolean_representable(hc))
    _check(checks, "3-truncation representable", False,
           hereditary.is_boolean_representable(t3))
    _check(checks, "3-truncation equals the union example", True,
           t3.h_masks == u.h_masks)


def _reproduce_fourpoints(args, checks: list) -> None:
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
    n = 0
    for masks in cases:
        hc = hereditary.HereditaryCollection.from_masks(ground, masks)
        n += 1
        triple_count = sum(1 for m in hc.h_masks if m.bit_count() == 3)
        m, pr, rep = hc.is_matroid(), hc.satisfies_pr(), \
            hereditary.is_boolean_representable(hc)
        if triple_count in (0, 3, 4):
            ok = ok and m and rep
        elif triple_count == 1:
            ok = ok and (not pr) and (not rep)
        else:
            ok = ok and (not m) and rep
    _check(checks, "cases", 17, n)
    _check(checks, "trichotomy", True, ok)


def _reproduce_section3(args, checks: list) -> None:
    m = hereditary.section3_matrix()
    fam, y = lattice.flats_of_matrix(m)
    expected = [[], ["2"], ["3"], ["4"], ["2", "3"], ["2", "4"],
                ["3", "4", "5"], ["1", "2", "3", "4", "5"]]
    _check(checks, "flats", sorted(expected),
           sorted(sorted(s) for s in fam.members))
    _check(checks, "column flats",
           [["1", "2", "3", "4", "5"], ["2"], ["3"], ["4"], ["3", "4", "5"]],
           [sorted(y[c]) for c in m.col_labels])
    vg = lattice.lattice_from_matrix(m)
    printed = sbcore.BoolMatrix.build(
        [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0), (1, 0, 1, 1, 1),
         (1, 1, 0, 1, 1), (1, 1, 1, 0, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
        col_labels=[str(i) for i in range(1, 6)])
    _check(checks, "expanded matrix congruent", True,
           lattice.congruent(lattice.matrix_of(vg), printed))
    _check(checks, "height", 3, vg.lattice.height())


REPRODUCERS = {
    "bigex": _reproduce_bigex,
    "libourne": _reproduce_libourne,
    "fano": _reproduce_fano,
    "u3-6": _reproduce_u36,
    "unio": _reproduce_unio,
    "truno": _reproduce_truno,
    "fourpoints": _reproduce_fourpoints,
    "section3": _reproduce_section3,
}


def cmd_reproduce(args) -> int:
    checks: list[dict] = []
    REPRODUCERS[args.target](args, checks)
    passed = all(c["ok"] for c in checks)
    payload = {"target": args.target,
               "pass": passed,
               "checks": checks}
    lines = [f"{args.target}: {'PASS' if passed else 'FAIL'}"]
    for c in checks:
        mark = "ok " if c["ok"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}: expected {c['expected']!r}, "
                     f"got {c['actual']!r}")
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


def main(argv: Optional[list[str]] = None) -> int:
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
