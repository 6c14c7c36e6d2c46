"""Incidence geometries, the height-3 correspondences, graded geometries."""

import itertools
import random
from unittest import mock

import pytest

from boolrep.errors import FormatError, NotAtomic, TooFewLines, TooLarge, WrongHeight, WrongSize
from boolrep.geometry import (
    MPeg,
    PEG,
    c_indep_via_geometry,
    four_subset_independent_via_hyperplane,
    geo_of_lattice,
    lat_of_peg,
    lattice_of_mpeg,
    mat_of_lattice,
    mpeg_from_json,
    mpeg_of_atomic_lattice,
    peg_dot,
    peg_from_json,
    peg_to_json,
    potential_lines,
    validate_mpeg,
    validate_peg,
)
from boolrep.hereditary import FANO_LINES, fano, flat_lattice
from boolrep.lattice import FiniteLattice, VGenLattice, c_independent, flat_label, \
    lattice_from_covers
from conftest import fs, random_lattice_of_height


def fano_peg():
    return PEG(tuple(str(i) for i in range(1, 8)),
               frozenset(frozenset(l) for l in FANO_LINES))


def tall_diamond():
    # three atoms joining pairwise to the top, plus a doubled edge to reach
    # height 3 (the plain three-atom diamond has height 2 and is rejected)
    return lattice_from_covers(
        ["B", "x", "y", "z", "w", "T"],
        [("B", "x"), ("B", "y"), ("B", "z"), ("x", "w"), ("w", "T"),
         ("y", "T"), ("z", "T")])


class TestValidatePeg:
    def test_fano_valid(self):
        assert validate_peg(fano_peg()).ok

    def test_two_point_overlap_rejected(self):
        g = PEG(("1", "2", "3"), frozenset({fs("1", "2", "3"), fs("1", "2")}))
        rep = validate_peg(g)
        assert not rep.ok
        assert any(tag == "G1" for tag, _ in rep.violations)

    def test_short_line_rejected(self):
        g = PEG(("1", "2"), frozenset({fs("1")}))
        rep = validate_peg(g)
        assert any(tag == "G2" for tag, _ in rep.violations)

    def test_lifted_three_peg(self):
        g = fano_peg()
        strata = (
            frozenset(fs(p) for p in g.points),
            g.lines,
            frozenset((frozenset(g.points),)),
        )
        assert validate_mpeg(MPeg(g.points, strata)).ok


class TestGeoLat:
    def test_fano_round_trip(self):
        g = fano_peg()
        vg = lat_of_peg(g)
        back = geo_of_lattice(vg)
        assert back.points == g.points
        assert back.lines == g.lines

    def test_height3_always_has_a_line(self):
        # a height-2 interior element and the generator below it form a line,
        # so the empty-line case cannot arise from a height-3 lattice
        rng = random.Random(99)
        for _ in range(10):
            lat = random_lattice_of_height(rng, 3)
            nb = tuple(x for x in lat.labels if x != lat.bottom)
            g = geo_of_lattice(VGenLattice(lat, nb))
            assert len(g.lines) >= 1

    def test_few_lines_refused(self):
        with pytest.raises(TooFewLines):
            lat_of_peg(PEG(("1", "2", "3"), frozenset()))
        with pytest.raises(TooFewLines):
            lat_of_peg(PEG(("1", "2", "3"), frozenset({fs("1", "2")})))

    def test_wrong_height(self):
        lat = lattice_from_covers(["B", "T"], [("B", "T")])
        with pytest.raises(WrongHeight):
            geo_of_lattice(VGenLattice(lat, ("T",)))

    def test_random_height3_satisfy_axioms(self):
        rng = random.Random(123)
        found = 0
        while found < 20:
            lat = random_lattice_of_height(rng, 3)
            nb = tuple(x for x in lat.labels if x != lat.bottom)
            vg = VGenLattice(lat, nb)
            g = geo_of_lattice(vg)
            assert validate_peg(g).ok
            # geo_of_lattice relies on distinct interior elements having
            # distinct generator traces
            traces = [vg.z_of(x) for x in lat.labels if x not in (lat.top, lat.bottom)]
            assert len(set(traces)) == len(traces)
            found += 1

    def test_cap_boundary(self):
        # the lattice has 2 + |points| + |lines| elements: 64 is built, 65 refused
        lines = frozenset({fs("1", "2"), fs("3", "4")})
        points = tuple(str(i) for i in range(1, 62))
        assert len(lat_of_peg(PEG(points[:60], lines)).lattice) == 64
        with pytest.raises(TooLarge):
            lat_of_peg(PEG(points, lines))

    def test_down_sets_written_directly(self):
        """Built without the cover-pair closure, the lattice still puts a
        point below exactly the lines through it, every point and line above
        the bottom and below the top, and nothing else in order."""
        rng = random.Random(77)
        pegs = []
        while len(pegs) < 40:
            points = tuple(rng.sample("123456789", rng.randint(3, 7)))
            lines = set()
            for _ in range(8):
                cand = frozenset(rng.sample(points, rng.randint(2, 3)))
                if all(len(cand & l) <= 1 for l in lines):
                    lines.add(cand)
            if len(lines) >= 2:
                pegs.append(PEG(points, frozenset(lines)))

        def refuse(*args):
            raise AssertionError("from_covers was called")

        with mock.patch.object(FiniteLattice, "from_covers", refuse):
            for g in pegs:
                vg = lat_of_peg(g)
                lat = vg.lattice
                names = sorted(flat_label(l, g.points) for l in g.lines)
                assert lat.labels == (lat.bottom, *g.points, *names, lat.top)
                assert vg.gens == g.points
                line_of = {flat_label(l, g.points): l for l in g.lines}
                for x, y in itertools.product(lat.labels, repeat=2):
                    expected = (x == y or x == lat.bottom or y == lat.top
                                or (x in g.points and y in line_of and x in line_of[y]))
                    assert lat.leq(x, y) == expected

    def test_duplicate_element_labels(self):
        # a point named like a line's label collides with it in the lattice
        g = PEG(("1", "2", "3", "{1,2}"), frozenset({fs("1", "2"), fs("2", "3")}))
        with pytest.raises(FormatError, match="^duplicate element labels$"):
            lat_of_peg(g)

    def test_peg_round_trip_through_lattice(self):
        rng = random.Random(321)
        for _ in range(10):
            n = rng.randint(4, 6)
            points = tuple(str(i) for i in range(1, n + 1))
            lines = set()
            for _ in range(6):
                cand = frozenset(rng.sample(points, rng.randint(2, 3)))
                if all(len(cand & l) <= 1 for l in lines):
                    lines.add(cand)
            if len(lines) < 2:
                continue
            g = PEG(points, frozenset(lines))
            assert validate_peg(g).ok
            back = geo_of_lattice(lat_of_peg(g))
            assert back.lines == g.lines and back.points == g.points


class TestMat:
    def test_atom_triples_independent(self):
        hc = mat_of_lattice(tall_diamond())
        # the three atoms pairwise join to the top, so their triple is in
        assert frozenset(("x", "y", "z")) in hc.independents
        assert frozenset(("y", "z", "w")) in hc.independents

    def test_output_is_matroid(self):
        rng = random.Random(11)
        found = 0
        while found < 20:
            lat = random_lattice_of_height(rng, 3)
            hc = mat_of_lattice(lat)
            assert hc.is_matroid()
            found += 1

    def test_fano_lines_dependent(self):
        vg = flat_lattice(fano())
        lat = vg.lattice
        hc = mat_of_lattice(lat)
        for line in FANO_LINES:
            pts = ["{" + p + "}" for p in line]
            assert frozenset(pts) not in hc.independents

    def test_potential_lines_diamond(self):
        lat = tall_diamond()
        # y, z and the doubled element w pairwise join to the top
        assert fs("y", "z", "w") in potential_lines(lat)
        # x and w are comparable, so triples holding both are not potential
        assert fs("x", "w", "y") not in potential_lines(lat)

    def test_chacind_agreement(self):
        rng = random.Random(13)
        found = 0
        while found < 30:
            lat = random_lattice_of_height(rng, 3)
            found += 1
            nb = tuple(x for x in lat.labels if x != lat.bottom)
            vg = VGenLattice(lat, nb)
            hc = mat_of_lattice(lat)
            pl = potential_lines(lat)
            for k in range(0, 4):
                for c in itertools.combinations(nb, k):
                    s = frozenset(c)
                    via_geo = c_indep_via_geometry(lat, c)
                    assert via_geo == c_independent(vg, c)
                    assert via_geo == (s in hc.independents and s not in pl)


class TestMpeg:
    def test_boolean_cube(self):
        elems = ["o", "a", "b", "c", "ab", "ac", "bc", "abc"]
        pairs = [(x, y) for x in elems for y in elems
                 if set(x) - {"o"} < set(y) - {"o"}
                 and len(set(y) - {"o"}) == len(set(x) - {"o"}) + 1]
        lat = lattice_from_covers(elems, pairs)
        g = mpeg_of_atomic_lattice(lat)
        assert len(g.strata) == 3
        assert g.strata[1] == frozenset({fs("a", "b"), fs("a", "c"), fs("b", "c")})
        assert validate_mpeg(g).ok

    def test_fano_flat_lattice_round_trip(self):
        vg = flat_lattice(fano())
        lat = vg.lattice
        g = mpeg_of_atomic_lattice(lat)
        assert validate_mpeg(g).ok
        back = lattice_of_mpeg(g)
        # heights agree stratum by stratum
        for i, stratum in enumerate(g.strata, start=1):
            for p in stratum:
                lbl = "{" + ",".join(sorted(p, key=list(g.ground).index)) + "}"
                assert back.lattice.height_of(lbl) == i
        assert len(back.lattice) == len(lat)

    def test_round_trip_random(self):
        rng = random.Random(17)
        found = 0
        while found < 20:
            lat = random_lattice_of_height(rng, 3, universe=4)
            if not lat.is_atomic():
                continue
            found += 1
            g = mpeg_of_atomic_lattice(lat)
            assert validate_mpeg(g).ok
            back = lattice_of_mpeg(g)
            assert len(back.lattice) == len(lat)
            for p_stratum, i in ((p, i) for i, s in enumerate(g.strata, 1)
                                 for p in s):
                lbl = "{" + ",".join(
                    sorted(p_stratum, key=list(g.ground).index)) + "}"
                assert back.lattice.height_of(lbl) == i

    def test_cap_boundary(self):
        # the empty set, the atoms, two pairs and E: 64 is built, 65 refused
        def mpeg(n):
            ground = tuple(str(i) for i in range(1, n + 1))
            return MPeg(ground, (frozenset(fs(p) for p in ground),
                                 frozenset({fs("1", "2"), fs("3", "4")}),
                                 frozenset({frozenset(ground)})))
        assert len(lattice_of_mpeg(mpeg(60)).lattice) == 64
        with pytest.raises(TooLarge):
            lattice_of_mpeg(mpeg(61))

    def test_json_refuses_duplicate_ground(self):
        text = ('{"ground": ["1", "2", "3", "1"], "strata": '
                '[[["1"], ["2"], ["3"]], [["1", "2"], ["2", "3"]], [["1", "2", "3"]]]}')
        with pytest.raises(FormatError, match="duplicate ground labels"):
            mpeg_from_json(text)

    def test_not_atomic_rejected(self):
        lat = lattice_from_covers(
            ["B", "a", "m", "T"],
            [("B", "a"), ("a", "m"), ("m", "T")])
        with pytest.raises(NotAtomic):
            mpeg_of_atomic_lattice(lat)


class TestFourSubset:
    def boolean_cube4(self):
        import itertools as it
        atoms = "abcd"
        elems = ["".join(sorted(c)) or "o" for r in range(5)
                 for c in it.combinations(atoms, r)]
        pairs = []
        for x in elems:
            for y in elems:
                sx, sy = set(x) - {"o"}, set(y) - {"o"}
                if sx < sy and len(sy) == len(sx) + 1:
                    pairs.append((x, y))
        return lattice_from_covers(elems, pairs)

    def test_cube_atoms_independent(self):
        lat = self.boolean_cube4()
        vg = VGenLattice(lat, ("a", "b", "c", "d"))
        assert four_subset_independent_via_hyperplane(vg, ("a", "b", "c", "d"))

    def test_wrong_size(self):
        lat = self.boolean_cube4()
        vg = VGenLattice(lat, ("a", "b", "c", "d"))
        with pytest.raises(WrongSize):
            four_subset_independent_via_hyperplane(vg, ("a", "b"))

    def test_dependent_triple_blocks(self):
        # glue one extra generator below an existing middle element
        lat = lattice_from_covers(
            ["B", "a", "b", "c", "d", "ab", "abc", "T"],
            [("B", "a"), ("B", "b"), ("B", "c"), ("B", "d"), ("a", "ab"),
             ("b", "ab"), ("ab", "abc"), ("c", "abc"), ("abc", "T"),
             ("d", "T")])
        vg = VGenLattice(lat, ("a", "b", "c", "d"))
        assert lat.height() == 4
        # a, b, ab-related triples stay independent; checking the criterion
        # agrees with the direct chain search on every 4-subset
        for c4 in itertools.combinations(("a", "b", "c", "d"), 4):
            assert four_subset_independent_via_hyperplane(vg, c4) == \
                c_independent(vg, c4)

    def test_agreement_random_height4(self):
        rng = random.Random(19)
        found = 0
        while found < 20:
            lat = random_lattice_of_height(rng, 4, universe=5, seeds=6)
            atoms_ok = True
            gens = tuple(x for x in lat.labels if x != lat.bottom)
            vg = VGenLattice(lat, gens)
            found += 1
            for c4 in itertools.combinations(gens, 4):
                assert four_subset_independent_via_hyperplane(vg, c4) == \
                    c_independent(vg, c4)


class TestJsonDot:
    def test_json_round_trip(self):
        g = fano_peg()
        back = peg_from_json(peg_to_json(g))
        assert back == g

    def test_json_refuses_duplicate_points(self):
        # refused as such, not as the lattice build's TooFewLines
        with pytest.raises(FormatError, match="duplicate point labels"):
            peg_from_json('{"points": ["1", "1"], "lines": []}')

    def test_dot_levi_structure(self):
        g = fano_peg()
        dot = peg_dot(g)
        assert "rank=same" in dot
        assert dot.count("--") == 21  # 7 lines x 3 points
