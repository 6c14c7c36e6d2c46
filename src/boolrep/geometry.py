"""Point-line incidence geometries and their height-3 (and graded) lattices.

A partial geometry here is a set of points with lines of at least two points
meeting pairwise in at most one point.  Height-3 generated lattices yield such
geometries by reading each middle element's generator trace as a line; the
inverse construction stacks points below their lines.  Graded geometries over
several strata correspond the same way to atomic lattices of matching height.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable

from ._record import record
from .errors import (
    BadMpeg,
    FormatError,
    NotAtomic,
    TooFewLines,
    WrongHeight,
    WrongSize,
)
from .hereditary import HereditaryCollection, _json_label_sets, _json_labels, _json_load
from .lattice import DOT_ESCAPES, FiniteLattice, FlatFamily, VGenLattice, c_independent, \
    check_lattice_cap, flat_label, generated_lattice, labels_to_mask


@record
class PEG:
    """Points plus lines: lines have >= 2 points and pairwise meet in <= 1."""

    points: tuple[str, ...]
    lines: frozenset[frozenset[str]]


@record
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, tuple], ...]  # (axiom tag, witness)

    def __bool__(self) -> bool:
        return self.ok


def validate_peg(g: PEG) -> ValidationReport:
    """Axiom-by-axiom check; every violation carries a concrete witness."""
    bad: list[tuple[str, tuple]] = []
    pts = set(g.points)
    lines = sorted(g.lines, key=sorted)  # the same violation first on every run
    for l in lines:
        if not l <= pts:
            bad.append(("points", tuple(sorted(l - pts))))
        if len(l) < 2:
            bad.append(("G2", tuple(sorted(l))))
    for l1, l2 in itertools.combinations(lines, 2):
        if len(l1 & l2) > 1:
            bad.append(("G1", (tuple(sorted(l1)), tuple(sorted(l2)))))
    return ValidationReport(not bad, tuple(bad))


@record
class MPeg:
    """A graded geometry: disjoint strata of subsets, the last being {E}."""

    ground: tuple[str, ...]
    strata: tuple[frozenset[frozenset[str]], ...]  # P_1 .. P_m


def validate_mpeg(g: MPeg) -> ValidationReport:
    bad: list[tuple[str, tuple]] = []
    # members by their sorted labels: the same violation first on every run
    strata = [sorted(p, key=sorted) for p in g.strata]
    m = len(strata)
    full = frozenset(g.ground)
    if m < 3:
        bad.append(("J1", ("m", m)))
    seen: set[frozenset] = set()
    for i, p in enumerate(g.strata):
        if seen & set(p):
            bad.append(("J1", ("stratum overlap", i + 1)))
        seen |= set(p)
    if m >= 1 and g.strata[-1] != frozenset((full,)):
        bad.append(("J1", ("top stratum", tuple(sorted(map(sorted, g.strata[-1]))))))
    for p in strata[0] if strata else ():
        if len(p) != 1:
            bad.append(("J2", tuple(sorted(p))))
    atoms = frozenset(x for p in g.strata[0] for x in p) if g.strata else frozenset()
    if atoms != frozenset(g.ground):
        bad.append(("J2", ("ground mismatch", tuple(sorted(
            frozenset(g.ground) ^ atoms)))))
    for i in range(1, m):
        for p in strata[i]:
            if not p <= atoms:
                bad.append(("J3", tuple(sorted(p - atoms))))
            if not any(q < p for q in g.strata[i - 1]):
                bad.append(("J4", (i + 1, tuple(sorted(p)))))
    levels = {}
    for i, stratum in enumerate(g.strata):
        for p in stratum:
            levels[p] = i + 1
    graded = [p for i in range(1, m) for p in strata[i]]
    for p, q in itertools.combinations(graded, 2):
        i, j = levels[p], levels[q]
        inter = p & q
        if (inter == frozenset()
                or (inter in levels and levels[inter] < min(i, j))
                or (i < j and p < q)
                or (i > j and q < p)
                or p == q):
            continue
        bad.append(("J5", (tuple(sorted(p)), tuple(sorted(q)))))
    return ValidationReport(not bad, tuple(bad))


# -- height-3 lattice <-> geometry -----------------------------------------------------


def geo_of_lattice(vg: VGenLattice) -> PEG:
    """Lines are generator traces of interior elements with >= 2 generators."""
    lat = vg.lattice
    if lat.height() != 3:
        raise WrongHeight(f"geometry extraction needs height 3, got {lat.height()}")
    # every element is the join of the generators below it (VGenLattice), so
    # distinct interior elements have distinct traces
    traces = (vg.z_of(x) for x in lat.labels if x not in (lat.top, lat.bottom))
    return PEG(vg.gens, frozenset(t for t in traces if len(t) >= 2))


def lat_of_peg(g: PEG) -> VGenLattice:
    """Stack bottom, points, lines, top; points sit below their lines.

    The down-sets are written directly: a point holds the bottom and itself,
    a line the bottom, its points and itself, and the top everything.  A
    lattice over the cap is refused before the quadratic validation.
    """
    check_lattice_cap(2 + len(g.points) + len(g.lines))
    rep = validate_peg(g)
    if not rep.ok:
        raise FormatError(f"not a valid geometry: {rep.violations[:1]}")
    if len(g.lines) < 2:
        raise TooFewLines("the lattice construction needs at least two lines")
    label = {l: flat_label(l, g.points) for l in g.lines}
    lines = sorted(g.lines, key=label.__getitem__)
    bot, top = "_B_", "_T_"
    while bot in g.points:
        bot += "_"
    while top in g.points:
        top += "_"
    elements = (bot, *g.points, *map(label.__getitem__, lines), top)
    index = {x: i for i, x in enumerate(elements)}
    first = 1 + len(g.points)  # the first line's index
    down = (1, *(1 | 1 << i for i in range(1, first)),
            *(1 | labels_to_mask(l, index) | 1 << i for i, l in enumerate(lines, first)),
            (1 << len(elements)) - 1)
    return VGenLattice(FiniteLattice(elements, down), tuple(g.points))


# -- the height-3 matroid ---------------------------------------------------------------


def mat_of_lattice(lat: FiniteLattice) -> HereditaryCollection:
    """Ground is L minus bottom; triples are independent when they join to top."""
    if lat.height() != 3:
        raise WrongHeight(f"needs height 3, got {lat.height()}")
    ground = tuple(x for x in lat.labels if x != lat.bottom)
    return HereditaryCollection.from_masks(ground, (
        sum(1 << i for i in c) for r in range(4)
        for c in itertools.combinations(range(len(ground)), r)
        if r < 3 or lat.join_of(ground[i] for i in c) == lat.top))


def potential_lines(lat: FiniteLattice) -> frozenset[frozenset[str]]:
    """Triples meeting every interior principal trace at most once.

    Equivalently: all pairwise joins hit the top.
    """
    if lat.height() != 3:
        raise WrongHeight(f"needs height 3, got {lat.height()}")
    ground = [x for x in lat.labels if x != lat.bottom]
    out = []
    for c in itertools.combinations(ground, 3):
        if all(lat.join(x, y) == lat.top
               for x, y in itertools.combinations(c, 2)):
            out.append(frozenset(c))
    return frozenset(out)


def c_indep_via_geometry(lat: FiniteLattice, xs: Iterable[str]) -> bool:
    """Height-3 shortcut: small sets free; triples need full join and one
    interior pairwise join."""
    if lat.height() != 3:
        raise WrongHeight(f"needs height 3, got {lat.height()}")
    x = frozenset(xs)
    if lat.bottom in x:
        raise FormatError("the bottom element is never independent here")
    if len(x) <= 2:
        return True
    if len(x) > 3:
        return False
    if lat.join_of(x) != lat.top:
        return False
    return any(lat.join(a, b) != lat.top
               for a, b in itertools.combinations(sorted(x), 2))


# -- graded correspondences -----------------------------------------------------------------


def mpeg_of_atomic_lattice(lat: FiniteLattice) -> MPeg:
    """Strata collect atom traces by element height (top stratum = {E})."""
    if not lat.is_atomic():
        raise NotAtomic("every element must be a join of atoms")
    m = lat.height()
    if m < 3:
        raise WrongHeight(f"graded geometries need height >= 3, got {m}")
    atoms = sorted(lat.atoms(), key=lat.index)
    strata: list[set[frozenset[str]]] = [set() for _ in range(m)]
    for x in lat.labels:
        h = lat.height_of(x)
        if 1 <= h <= m:
            strata[h - 1].add(frozenset(a for a in atoms if lat.leq(a, x)))
    return MPeg(tuple(atoms), tuple(frozenset(s) for s in strata))


def lattice_of_mpeg(g: MPeg) -> VGenLattice:
    """Members of all strata plus the empty set, ordered by inclusion.

    A lattice over the cap is refused before the quadratic validation.
    """
    members = frozenset().union(*g.strata) | {frozenset()}
    check_lattice_cap(len(members))
    rep = validate_mpeg(g)
    if not rep.ok:
        raise BadMpeg(rep.violations[:1])
    # J5 makes the members closed under intersection, and J2 makes each point
    # a member, so the generators are the points
    return generated_lattice(FlatFamily(g.ground, members))


# -- height-4 hyperplane criterion ------------------------------------------------------------


def lattice_hyperplanes(vg: VGenLattice) -> frozenset[frozenset[str]]:
    """Maximal generator flats other than the full one: the coatoms' traces.

    The traces are ordered as L is (VGenLattice), and only the top's holds
    every generator, so the maximal proper traces are the coatoms'.
    """
    lat = vg.lattice
    return frozenset(map(vg.z_of, lat.lower_covers(lat.top)))


def four_subset_independent_via_hyperplane(vg: VGenLattice, xs: Iterable[str]) -> bool:
    """Height-4 test: all triples independent and a hyperplane meets xs in 3."""
    lat = vg.lattice
    if lat.height() != 4:
        raise WrongHeight(f"needs height 4, got {lat.height()}")
    x = frozenset(xs)
    if len(x) != 4:
        raise WrongSize(f"needs a 4-subset, got {len(x)}")
    for e in x:
        if e not in vg.gens:
            raise FormatError(f"{e!r} is not a generator")
    if not all(c_independent(vg, c) for c in itertools.combinations(sorted(x), 3)):
        return False
    return any(len(x & h) == 3 for h in lattice_hyperplanes(vg))


# -- JSON and DOT ------------------------------------------------------------------------------


def peg_to_json(g: PEG) -> str:
    order = {p: i for i, p in enumerate(g.points)}
    lines = sorted((sorted(l, key=order.__getitem__) for l in g.lines),
                   key=lambda l: [order[x] for x in l])
    return json.dumps({"points": list(g.points), "lines": lines})


def peg_from_json(text: str) -> PEG:
    data = _json_load(text)
    if not isinstance(data, dict) or "points" not in data or "lines" not in data:
        raise FormatError("expected an object with 'points' and 'lines'")
    points = tuple(_json_labels(data["points"], "'points'"))
    if len(set(points)) != len(points):
        raise FormatError("duplicate point labels")
    lines = frozenset(frozenset(l) for l in _json_label_sets(data["lines"], "'lines'"))
    return PEG(points, lines)


def mpeg_from_json(text: str) -> MPeg:
    """{"ground": [...], "strata": [[[...], ...], ...]}, strata listed bottom up."""
    data = _json_load(text)
    if not isinstance(data, dict) or "ground" not in data or "strata" not in data:
        raise FormatError("expected an object with 'ground' and 'strata'")
    if not isinstance(data["strata"], list):
        raise FormatError("'strata' must be an array")
    ground = tuple(_json_labels(data["ground"], "'ground'"))
    if len(set(ground)) != len(ground):
        raise FormatError("duplicate ground labels")
    strata = tuple(
        frozenset(frozenset(p) for p in _json_label_sets(stratum, "each stratum"))
        for stratum in data["strata"])
    return MPeg(ground, strata)


def peg_dot(g: PEG) -> str:
    """Levi-style diagram: line nodes in a rank above the point nodes."""
    order = {p: i for i, p in enumerate(g.points)}
    esc = {p: p.translate(DOT_ESCAPES) for p in g.points}
    lines = sorted(g.lines, key=lambda l: sorted(order[x] for x in l))
    out = ["graph geometry {"]
    out.append("  node [shape=circle]; " +
               " ".join(f'"{esc[p]}"' for p in g.points) + ";")
    names = {}
    for i, l in enumerate(lines):
        names[l] = f"L{i}"
        label = flat_label(l, g.points).translate(DOT_ESCAPES)
        out.append(f'  "L{i}" [shape=box, label="{label}"];')
    out.append("  { rank=same; " + " ".join(f'"{names[l]}"' for l in lines) + " }")
    for l in lines:
        for p in sorted(l, key=order.__getitem__):
            out.append(f'  "{names[l]}" -- "{esc[p]}";')
    out.append("}")
    return "\n".join(out) + "\n"
