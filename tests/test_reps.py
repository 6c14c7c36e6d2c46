"""Representation lattice: membership, enumeration, minimal/sji, mindeg."""

import ast
import io
import itertools
import json
import pathlib
import random
import sys

import pytest

import boolrep
from boolrep import cli, hereditary, lattice, reps
from boolrep.errors import (
    NotRepresentable,
    NotSimple,
    NotSubsemilattice,
    TooLarge,
)
from boolrep.hereditary import (
    HereditaryCollection,
    example_bigex,
    example_libourne_matrix,
    example_truno,
    example_unio,
    fano,
    flat_matrix,
    uniform,
    union_hc,
)
from boolrep.lattice import FlatFamily, congruent, flats_of_matrix, full_matrix, \
    lattice_from_matrix, matrix_of
from boolrep.reps import (
    RepresentationLattice,
    automorphisms,
    count_up_to_e_bijection,
    enumerate_fisfl,
    is_rowmin,
    join_families,
    matrix_represents,
    mindeg,
    minimal_representations,
    order_le,
    represents,
    rowsum_closure,
    sji_representations,
    smi_members,
    stack_matrices,
)
from boolrep.sbcore import BoolMatrix, columns_independent, matrix_rank
from conftest import (
    _leaf_ok,
    automorphisms_by_sweep,
    closure_ordering,
    families_by_canon,
    fs,
    min_smi_degree,
    mindeg_unbounded,
    random_simple_hc,
    random_sweep_hc,
    reduced_matrix,
    sorted_members,
)


def family(hc, *sets):
    return FlatFamily(hc.ground, frozenset(frozenset(s) for s in sets))


BIGEX = example_bigex()
E4 = ("1", "2", "3", "4")


class TestRepresents:
    def test_full_flat_family_represents(self):
        assert represents(BIGEX, BIGEX.flats())

    def test_bigex_positive_family(self):
        f = family(BIGEX, E4, "123", "1", "2", "")
        assert represents(BIGEX, f)

    def test_bigex_negative_family(self):
        f = family(BIGEX, E4, "123", "1", "")
        assert not represents(BIGEX, f)

    def test_pair_condition_families(self):
        f = family(BIGEX, E4, "14", "24", "4", "")
        assert represents(BIGEX, f)
        f2 = family(BIGEX, E4, "14", "4", "")
        assert not represents(BIGEX, f2)

    def test_fano_concurrent_lines_rejected(self):
        hc = fano()
        # lines through point 1: 125, 137, 146, plus one more line
        lines = [fs("1", "2", "5"), fs("1", "3", "7"), fs("1", "4", "6"),
                 fs("2", "3", "6")]
        members = set(lines) | {frozenset(hc.ground), frozenset()}
        for a, b in itertools.combinations(lines, 2):
            members.add(a & b)
        f = FlatFamily(hc.ground, frozenset(members))
        assert not represents(hc, f)

    def test_not_subsemilattice_rejected(self):
        with pytest.raises(NotSubsemilattice):
            represents(BIGEX, family(BIGEX, E4, "12", ""))  # 12 is not a flat

    def test_not_representable_rejected(self):
        u = union_hc(*example_unio())
        for _ in range(2):  # the second call reads the cached result
            with pytest.raises(NotRepresentable):
                represents(u, u.flats())

    def test_not_simple_rejected(self):
        hc = uniform(1, 3)
        for _ in range(2):
            with pytest.raises(NotSimple):
                represents(hc, hc.flats())

    def test_membership_matches_matrix_test(self):
        # family membership agrees with the literal witness test on its matrix
        walk = RepresentationLattice(BIGEX)
        for f in enumerate_fisfl(BIGEX):
            rec_rows = []
            for flset in sorted_members(f):
                rec_rows.append(tuple(0 if e in flset else 1 for e in BIGEX.ground))
            m = BoolMatrix.build(rec_rows, col_labels=BIGEX.ground)
            assert matrix_represents(BIGEX, m) == (f in walk)


class TestEnumerateFisfl:
    def test_one_point_collection(self):
        hc = HereditaryCollection.from_facets(("1",), [("1",)])
        fams = list(enumerate_fisfl(hc))
        assert len(fams) == 1
        assert fams[0].members == {fs(), fs("1")}

    def test_families_are_closed_and_full(self):
        for f in enumerate_fisfl(BIGEX):
            FlatFamily(f.ground, f.members)  # validates closure
            assert f.full

    def test_bigex_membership_characterization(self):
        # a family represents iff it has the dropped triple plus two of its
        # points, or two of the pairs through point 4
        walk = RepresentationLattice(BIGEX)
        t123 = fs("1", "2", "3")
        pairs4 = [fs("1", "4"), fs("2", "4"), fs("3", "4")]
        n = 0
        for f in enumerate_fisfl(BIGEX):
            n += 1
            cond1 = t123 in f.members and \
                sum(1 for p in ("1", "2", "3") if fs(p) in f.members) >= 2
            cond2 = sum(1 for p in pairs4 if p in f.members) >= 2
            assert (cond1 or cond2) == (f in walk)
        assert n == 143

    def test_cap(self, monkeypatch):
        # U(3,6) has 21 nontrivial flats: 2^21 candidate subsets
        monkeypatch.setattr(reps, "FISFL_MAX_SUBSETS", 1 << 20)
        with pytest.raises(TooLarge, match=r"2\^21 candidate subsets"):
            next(enumerate_fisfl(uniform(3, 6)))
        monkeypatch.setattr(reps, "FISFL_MAX_SUBSETS", 1 << 21)
        assert isinstance(next(enumerate_fisfl(uniform(3, 6))), FlatFamily)

    @pytest.mark.parametrize("hc,count", [(BIGEX, 143), (fano(), 3_552),
                                          (uniform(3, 5), 4_945)],
                             ids=["bigex", "fano", "u35"])
    def test_stream_matches_sorted_reference(self, hc, count):
        # the streamed families, as a set, are the DFS leaves closed with
        # {0, E} and sorted, as the enumeration yielded them before
        full = hc.full_mask
        nontrivial = sorted((m for m in hc._flat_masks if m not in (0, full)),
                            key=lambda m: (-m.bit_count(), m))
        reference = sorted((f | {0, full} for f in reps._fisfl_masks(nontrivial)),
                           key=sorted)
        streamed = [f.masks for f in enumerate_fisfl(hc)]
        assert len(set(streamed)) == len(streamed) == count
        assert sorted(streamed, key=sorted) == reference

    def test_first_family_before_the_dfs_ends(self, monkeypatch):
        # the first family comes out when the DFS reaches its first leaf
        reached = []
        dfs = reps._fisfl_masks

        def recording(nontrivial):
            for f in dfs(nontrivial):
                reached.append(f)
                yield f

        monkeypatch.setattr(reps, "_fisfl_masks", recording)
        next(enumerate_fisfl(uniform(3, 5)))
        assert len(reached) == 1


class TestWalk:
    def test_walk_equals_brute_filter_bigex(self):
        walk = RepresentationLattice(BIGEX)
        brute = {frozenset(BIGEX.mask_of(m) for m in f.members)
                 for f in enumerate_fisfl(BIGEX) if _brute_represents(BIGEX, f)}
        assert walk == brute

    def test_up_set_property(self):
        walk = RepresentationLattice(BIGEX)
        fams = list(enumerate_fisfl(BIGEX))
        for f in fams:
            if f in walk:
                for g in fams:
                    if f.members <= g.members:
                        assert g in walk

    def test_minimal_and_sji_counts_bigex(self):
        walk = RepresentationLattice(BIGEX)
        assert len(walk) == 65
        minimal = minimal_representations(BIGEX, walk=walk)
        sji = sji_representations(BIGEX, walk=walk)
        assert len(minimal) == 6
        assert len(sji) == 24
        assert count_up_to_e_bijection(minimal) == 2
        # the published tally says 5 orbits, matching its five summands
        # 6+3+6+6+3; but the first summand (the six minimal families) itself
        # splits into the two orbit classes counted in the minimal case, so
        # the 24 families fall into classes of sizes 3+6+3+6+3+3
        assert count_up_to_e_bijection(sji) == 6

    def test_minimal_families_bigex_shapes(self):
        walk = RepresentationLattice(BIGEX)
        shapes = set()
        for f in walk.minimal_families():
            sizes = tuple(sorted(bin(m).count("1") for m in f))
            shapes.add(sizes)
        assert shapes == {(0, 1, 1, 3, 4), (0, 1, 2, 2, 4)}

    def test_fano_counts(self):
        hc = fano()
        walk = RepresentationLattice(hc)
        minimal = minimal_representations(hc, walk=walk)
        sji = sji_representations(hc, walk=walk)
        assert len(minimal) == 7
        assert len(sji) == 35
        assert count_up_to_e_bijection(minimal) == 1
        assert count_up_to_e_bijection(sji) == 3

    def test_u36_counts(self):
        hc = uniform(3, 6)
        walk = RepresentationLattice(hc)
        assert len(walk) == 6275
        minimal = walk.minimal_families()
        sji = walk.sji_families()
        # the published tallies are 221 = 20+15+6+180 and 527 = 221+180+120+6;
        # the K(3,3)-type summands use ordered bipartitions (20, 180 instead
        # of the 10, 90 labeled graphs) and the K(2,4) summand drops the
        # two-way choice of absent degree-4 point (15 instead of 30): the
        # computed counts are 226 = 10+30+6+180 and 442 = 226+90+120+6
        assert len(minimal) == 226
        assert len(sji) == 442
        recs_min = [walk.record(f) for f in minimal]
        recs_sji = [walk.record(f) for f in sji]
        assert count_up_to_e_bijection(recs_min) == 4
        assert count_up_to_e_bijection(recs_sji) == 7
        assert min_smi_degree(walk) == 6

    def test_u37_counts(self):
        walk = RepresentationLattice(uniform(3, 7), max_nontrivial=28)
        assert len(walk) == 134852
        assert sum(n == 0 for n in walk.nchildren.values()) == 1764
        assert sum(n <= 1 for n in walk.nchildren.values()) == 4921
        assert walk.orbit_counts() == (6, 10)

    @pytest.mark.parametrize("name", ["bigex", "fano", "u25", "u36"])
    def test_sorted_keys_in_canon_order(self, name, request):
        if name == "u36":
            walk = request.getfixturevalue("u36_walk")
        else:
            walk = RepresentationLattice(
                {"bigex": BIGEX, "fano": fano(), "u25": uniform(2, 5)}[name])
        for most, listing in ((0, walk.minimal_families), (1, walk.sji_families),
                              (None, walk.sorted_families)):
            expect = families_by_canon(walk, most)
            assert [frozenset(walk._members(k)) for k in walk.sorted_keys(most)] == expect
            assert listing() == expect

    def test_im_theta_stream_sorted(self):
        fams = RepresentationLattice(BIGEX).sorted_families()
        keys = [tuple(sorted(f)) for f in fams]  # the _canon order
        assert keys == sorted(keys)
        assert len(fams) == 65


def _brute_represents(hc, f):
    from boolrep.reps import _represents_masks
    masks = sorted(hc.mask_of(m) for m in f.members)
    return _represents_masks(hc, masks)


class TestRecords:
    def test_record_matrix_flats_round_trip(self):
        walk = RepresentationLattice(BIGEX)
        for f in walk.sorted_families():
            rec = walk.record(f)
            fam2, _ = flats_of_matrix(rec.matrix)
            assert fam2.members == rec.family.members

    def test_record_lattice_matches_matrix(self):
        walk = RepresentationLattice(BIGEX)
        rec = walk.record(walk.sorted_families()[0])
        m = matrix_of(rec.lattice)
        assert congruent(m, rec.matrix)

    @pytest.mark.parametrize("hc,count", [(BIGEX, 24), (fano(), 35)],
                             ids=["bigex", "fano"])
    def test_record_lattice_is_its_matrix_lattice(self, hc, count):
        # the lattice generated by a record's family and the flat lattice of
        # its matrix have the same labels, down-sets and generators
        walk = RepresentationLattice(hc)
        sji = walk.sji_families()
        assert len(sji) == count
        for f in sji:
            rec = walk.record(f)
            a, b = lattice_from_matrix(rec.matrix), rec.lattice
            assert (a.lattice.labels, a.lattice.down, a.gens) == \
                (b.lattice.labels, b.lattice.down, b.gens)

    def test_smi_rows_bigex_witness(self):
        f = family(BIGEX, E4, "14", "24", "4", "")
        assert smi_members(BIGEX, f) == {fs("1", "4"), fs("2", "4"), fs()}

    def test_order_and_top(self):
        walk = RepresentationLattice(BIGEX)
        top = walk.record(frozenset(walk.flats))
        for f in walk.sorted_families():
            assert order_le(walk.record(f), top)

    def test_order_le_example(self):
        r1 = RepresentationLattice(BIGEX).record(
            frozenset(BIGEX.mask_of(s) for s in
                      family(BIGEX, E4, "123", "1", "2", "").members))
        r2 = RepresentationLattice(BIGEX).record(
            frozenset(BIGEX.mask_of(s) for s in
                      family(BIGEX, E4, "123", "1", "2", "4", "").members))
        assert order_le(r1, r2)
        assert not order_le(r2, r1)

    def test_antisymmetry(self):
        walk = RepresentationLattice(BIGEX)
        fams = walk.sorted_families()[:20]
        for a, b in itertools.combinations(fams, 2):
            ra, rb = walk.record(a), walk.record(b)
            assert not (order_le(ra, rb) and order_le(rb, ra))


class TestMinimalStructure:
    def test_minimal_reduced_matrices_are_rowmin(self):
        walk = RepresentationLattice(BIGEX)
        for f in walk.minimal_families():
            rec = walk.record(f)
            assert is_rowmin(BIGEX, reduced_matrix(rec))

    def test_rowmin_does_not_imply_minimal(self):
        m = example_libourne_matrix()
        assert is_rowmin(BIGEX, m)
        fam2, _ = flats_of_matrix(m)
        masks = frozenset(BIGEX.mask_of(s) for s in fam2.members)
        walk = RepresentationLattice(BIGEX)
        assert masks in walk
        assert masks not in set(walk.minimal_families())
        assert masks in set(walk.sji_families())
        assert fam2.members == {fs(), fs("1"), fs("2"), fs("1", "4"),
                                fs("1", "2", "3"), fs(*E4)}

    def test_sji_decomposition_recovers_each_member(self):
        # every representing family is the join of the sji families below it
        for hc in (BIGEX, fano()):
            walk = RepresentationLattice(hc)
            sji = walk.sji_families()
            for f in walk.sorted_families():
                below = [s for s in sji if s <= f]
                joined = set()
                for s in below:
                    joined |= s
                # the union of intersection-closed families below f, closed
                # under intersection, must reproduce f
                members = set(joined)
                for a, b in itertools.combinations(sorted(members), 2):
                    members.add(a & b)
                assert frozenset(members) == f


class TestJoinStacking:
    def test_join_idempotent(self):
        f = family(BIGEX, E4, "123", "1", "2", "")
        assert join_families(f, f).members == f.members

    def test_join_preserves_membership(self):
        walk = RepresentationLattice(BIGEX)
        fams = [walk.record(f).family for f in walk.sorted_families()[:12]]
        for a, b in itertools.combinations(fams, 2):
            j = join_families(a, b)
            assert j in walk

    def test_bigex_top_decomposition(self):
        # the full flat family splits as the join of two six-member families,
        # and the corresponding matrices stack and close to the full matrix
        f1 = family(BIGEX, E4, "123", "34", "2", "3", "")
        f2 = family(BIGEX, E4, "14", "24", "1", "4", "")
        j = join_families(f1, f2)
        assert j.members == BIGEX.flats().members
        m1 = _matrix_for(BIGEX, f1)
        m2 = _matrix_for(BIGEX, f2)
        stacked = rowsum_closure(stack_matrices(m1, m2))
        full = flat_matrix(BIGEX)
        assert sorted(stacked.rows) == sorted(full.rows)

    def test_printed_bigex_stacking(self):
        cols = list(E4)
        m1 = BoolMatrix.build(
            [(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0),
             (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)], col_labels=cols)
        m2 = BoolMatrix.build(
            [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0),
             (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)], col_labels=cols)
        printed_full = BoolMatrix.build(
            [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0),
             (1, 1, 0, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1),
             (1, 1, 1, 0), (1, 1, 1, 1)], col_labels=cols)
        stacked = rowsum_closure(stack_matrices(m1, m2))
        assert sorted(stacked.rows) == sorted(printed_full.rows)
        assert matrix_represents(BIGEX, m1)
        assert matrix_represents(BIGEX, m2)
        assert matrix_represents(BIGEX, stacked)

    def test_fano_printed_stacking(self):
        cols = [str(i) for i in range(1, 8)]
        m1 = BoolMatrix.build(
            [(0, 0, 1, 1, 0, 1, 1), (0, 1, 1, 0, 1, 0, 1), (1, 0, 0, 1, 1, 0, 1),
             (1, 1, 0, 0, 0, 1, 1), (1, 1, 1, 1, 0, 0, 0)], col_labels=cols)
        m2 = BoolMatrix.build(
            [(0, 1, 0, 1, 1, 1, 0), (0, 1, 1, 0, 1, 0, 1), (1, 0, 0, 1, 1, 0, 1),
             (1, 0, 1, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0, 0)], col_labels=cols)
        target = BoolMatrix.build(
            [(0, 0, 1, 1, 0, 1, 1), (0, 1, 0, 1, 1, 1, 0), (0, 1, 1, 0, 1, 0, 1),
             (1, 0, 0, 1, 1, 0, 1), (1, 0, 1, 0, 1, 1, 0), (1, 1, 0, 0, 0, 1, 1),
             (1, 1, 1, 1, 0, 0, 0)], col_labels=cols)
        stacked = stack_matrices(m1, m2)
        assert sorted(stacked.rows) == sorted(target.rows)
        hc = fano()
        assert matrix_represents(hc, m1)
        assert matrix_represents(hc, m2)
        assert matrix_represents(hc, stacked)


def _matrix_for(hc, f):
    rows = []
    for flset in sorted_members(f):
        rows.append(tuple(0 if e in flset else 1 for e in hc.ground))
    return BoolMatrix.build(rows, col_labels=hc.ground)


class TestAutomorphisms:
    def test_bigex_group(self):
        # permutations fixing the dropped triple: the symmetric group on it
        assert len(automorphisms(BIGEX)) == 6

    def test_fano_group_order(self):
        assert len(automorphisms(fano())) == 168

    def test_symmetric_family_single_orbit(self):
        walk = RepresentationLattice(BIGEX)
        top = walk.record(frozenset(walk.flats))
        assert count_up_to_e_bijection([top]) == 1


def _apply(mask, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if (mask >> i) & 1)


def _canonical_orbits(records):
    """Orbit count by canonical keys: a family's key is the least sorted
    tuple of its permuted masks over all automorphisms.  Returns the key of
    each record, so a sublist's count is the number of distinct keys."""
    hc = records[0].hc
    perms = [[hc._gidx[a[g]] for g in hc.ground] for a in automorphisms(hc)]
    masks = {hc.mask_of(m) for rec in records for m in rec.family.members}
    tables = [{z: _apply(z, perm) for z in masks} for perm in perms]
    keys = {}
    for rec in records:
        if rec.family not in keys:
            fam = [hc.mask_of(m) for m in rec.family.members]
            keys[rec.family] = min(tuple(sorted(t[z] for z in fam)) for t in tables)
    return [keys[rec.family] for rec in records]


@pytest.fixture(scope="module")
def u36_walk():
    return RepresentationLattice(uniform(3, 6))


class TestOrbitOracle:
    """Orbit expansion agrees with the canonical-key count."""

    @pytest.mark.parametrize("hc", [BIGEX, fano()], ids=["bigex", "fano"])
    def test_small_records(self, hc):
        walk = RepresentationLattice(hc)
        for fams in (walk.minimal_families(), walk.sji_families(),
                     walk.sorted_families()):
            recs = [walk.record(f) for f in fams]
            assert count_up_to_e_bijection(recs) == len(set(_canonical_orbits(recs)))

    def test_u36_records(self, u36_walk):
        recs_min = [u36_walk.record(f) for f in u36_walk.minimal_families()]
        recs_sji = [u36_walk.record(f) for f in u36_walk.sji_families()]
        assert count_up_to_e_bijection(recs_min) == \
            len(set(_canonical_orbits(recs_min))) == 4
        assert count_up_to_e_bijection(recs_sji) == \
            len(set(_canonical_orbits(recs_sji))) == 7

    def test_u36_random_sublists(self, u36_walk):
        # sublists are not closed under the automorphisms and repeat records
        recs = [u36_walk.record(f) for f in u36_walk.sji_families()]
        key = dict(zip((r.family for r in recs), _canonical_orbits(recs)))
        rng = random.Random(20121029)
        for _ in range(20):
            sub = [rng.choice(recs) for _ in range(rng.randint(1, 80))]
            assert count_up_to_e_bijection(sub) == len({key[r.family] for r in sub})

    def test_empty(self):
        assert count_up_to_e_bijection([]) == 0


class TestOrbitsFromKeys:
    """The walk's orbit counts, read from its keys, against orbit expansion
    over records and the canonical-key count; the facet-only automorphism
    sweep against the sweep over all of H."""

    @pytest.mark.parametrize("name, counts", [("bigex", (2, 6)), ("fano", (1, 3)),
                                              ("u36", (4, 7))],
                             ids=["bigex", "fano", "u36"])
    def test_matches_record_counts(self, name, counts, request):
        if name == "u36":
            walk = request.getfixturevalue("u36_walk")
        else:
            walk = RepresentationLattice({"bigex": BIGEX, "fano": fano()}[name])
        recs = [[walk.record(f) for f in fams]
                for fams in (walk.minimal_families(), walk.sji_families())]
        assert walk.orbit_counts() == counts
        assert tuple(count_up_to_e_bijection(r) for r in recs) == counts
        assert tuple(len(set(_canonical_orbits(r))) for r in recs) == counts

    @pytest.mark.parametrize("hc", [BIGEX, fano(), uniform(3, 5), uniform(3, 6),
                                    *example_unio(), union_hc(*example_unio()),
                                    example_truno()],
                             ids=["bigex", "fano", "u35", "u36", "unio-j1",
                                  "unio-j2", "unio-union", "truno"])
    def test_facet_sweep_matches_full_sweep(self, hc):
        hm = hc.h_masks
        full = tuple(p for p in itertools.permutations(range(len(hc.ground)))
                     if all(_apply(s, p) in hm for s in hm))
        assert hc._automorphisms == full


NAMED = {"bigex": BIGEX, "fano": fano(), "u35": uniform(3, 5), "u36": uniform(3, 6),
         "unio-j1": example_unio()[0], "unio-j2": example_unio()[1],
         "unio-union": union_hc(*example_unio()), "truno": example_truno()}


def _rank3_on_8(*triples):
    """Rank 3 on eight points: every set of at most three points is
    independent but the given triples (0-based point indices)."""
    drop = {sum(1 << i for i in t) for t in triples}
    return HereditaryCollection.from_masks(
        tuple(str(i) for i in range(1, 9)),
        (s for s in range(1 << 8) if s.bit_count() <= 3 and s not in drop))


# near-uniform collections: few dependent sets, so the generator search's
# dependence test prunes little and the cells carry it
NEAR_UNIFORM = {"247+357": _rank3_on_8((2, 4, 7), (3, 5, 7)),
                "012+345": _rank3_on_8((0, 1, 2), (3, 4, 5)),
                "123": _rank3_on_8((1, 2, 3))}


def _random_collections(seed: int, count: int):
    """Seeded random simple collections on 4 to 7 points, alternating the
    two generators (random_sweep_hc over a cycle of its shapes)."""
    rng = random.Random(seed)
    shapes = itertools.cycle([(n, p, add4) for n in (4, 5, 6, 7)
                              for p in (0.5, 0.8, 0.95) for add4 in (False, True)])
    for i in range(count):
        yield (random_simple_hc(rng, 4 + i % 4) if i % 2
               else random_sweep_hc(rng, *next(shapes)))


class TestStrongGenerators:
    """The generator search against the facet sweep
    (`conftest.automorphisms_by_sweep`): the closure of the generators is the
    sweep's tuple, each generator preserves H both ways, and the basic orbits
    (the orbit of point i under the generators fixing 0..i-1) have lengths
    whose product is the group order, which holds only for a strong
    generating set."""

    @staticmethod
    def assert_matches_sweep(hc):
        full = automorphisms_by_sweep(hc)
        assert hc._automorphisms == full
        n, hm = len(hc.ground), hc.h_masks
        gens = hc._automorphism_generators
        for g in gens:
            assert all((s in hm) == (_apply(s, g) in hm) for s in range(1 << n))
        order = 1
        for i in range(n):
            level = [g for g in gens if g[:i] == tuple(range(i))]
            orbit, todo = {i}, [i]
            while todo:
                x = todo.pop()
                for g in level:
                    if g[x] not in orbit:
                        orbit.add(g[x])
                        todo.append(g[x])
            order *= len(orbit)
        assert order == len(full)

    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        self.assert_matches_sweep(NAMED[name])

    @pytest.mark.parametrize("name", NEAR_UNIFORM)
    def test_near_uniform(self, name):
        self.assert_matches_sweep(NEAR_UNIFORM[name])

    def test_random(self):
        orders = set()
        for hc in _random_collections(2003, 320):
            self.assert_matches_sweep(hc)
            orders.add(len(hc._automorphisms))
        assert {1, 720} <= orders  # trivial groups and a full S_6 both met

    def test_orbit_counts_on_random_representable(self):
        checked = 0
        for hc in _random_collections(1805, 320):
            nontrivial = len(hc._flat_masks) - 2
            if nontrivial > reps.DEFAULT_MAX_NONTRIVIAL_FLATS or \
                    not hereditary.is_boolean_representable(hc):
                continue
            walk = RepresentationLattice(hc)
            recs = [[walk.record(f) for f in fams]
                    for fams in (walk.minimal_families(), walk.sji_families())]
            counts = tuple(len(set(_canonical_orbits(r))) for r in recs)
            assert walk.orbit_counts() == counts
            assert tuple(count_up_to_e_bijection(r) for r in recs) == counts
            checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("hc", [BIGEX, fano()], ids=["bigex", "fano"])
    def test_records_off_the_flats(self, hc):
        # intersection-closed families of any sets: their images under the
        # automorphisms need not be among the records' members
        rng = random.Random(7)
        recs = []
        for _ in range(60):
            masks = {0, hc.full_mask, *rng.sample(range(1, hc.full_mask), 3)}
            while any(a & b not in masks for a in masks for b in masks):
                masks |= {a & b for a in masks for b in masks}
            recs.append(reps.RepRecord(hc, FlatFamily.from_masks(hc.ground,
                                                                 frozenset(masks))))
        for sub in (recs[:1], recs[:5], recs):
            assert count_up_to_e_bijection(sub) == len(set(_canonical_orbits(sub)))


class TestClassificationOracle:
    """Minimal and sji families read off the inclusion order of all
    representing subfamilies, found by filtering the exhaustive enumeration
    through the membership test; no smi children are involved."""

    @pytest.mark.parametrize("hc", [BIGEX, fano(), uniform(3, 5)],
                             ids=["bigex", "fano", "u35"])
    def test_matches_walk(self, hc):
        rep = [frozenset(hc.mask_of(m) for m in f.members)
               for f in enumerate_fisfl(hc) if represents(hc, f)]
        minimal, sji = set(), set()
        for f in rep:
            below = [g for g in rep if g < f]
            covers = [g for g in below if not any(g < h for h in below)]
            if not below:
                minimal.add(f)
            if len(covers) <= 1:
                sji.add(f)
        walk = RepresentationLattice(hc)
        assert set(walk) == set(rep)
        assert walk.minimal_families() == sorted(minimal, key=sorted)
        assert walk.sji_families() == sorted(sji, key=sorted)


class TestChildTestOracle:
    """The walk tests each child P - {z} from its parent's closure; here each
    smi child of every member is judged by the full chain DP over a closure
    built for the child alone."""

    @pytest.mark.parametrize("name", ["bigex", "fano", "u35", "u36"])
    def test_children_match_full_dp(self, name, request):
        if name == "u36":
            walk = request.getfixturevalue("u36_walk")
        else:
            walk = RepresentationLattice(
                {"bigex": BIGEX, "fano": fano(), "u35": uniform(3, 5)}[name])
        hc = walk.hc
        full = hc.full_mask
        outcomes = set()
        for fam in walk:
            for z in reps._smi_masks(sorted(fam), full):
                if z == 0:
                    continue
                child = fam - {z}
                ok = hereditary._chain_admissible(
                    hc._h_sorted, lattice.closure_op(sorted(child), full)) is None
                assert (child in walk) == ok
                outcomes.add(ok)
        assert outcomes == {True, False}


class TestWalkCountOracle:
    """Each member's child count against the quadratic smi scan: the
    nonempty smi members whose removal leaves a member.  A child is judged
    by witness coverage, so a child the walk failed to reach also shows."""

    @pytest.mark.parametrize("name", ["bigex", "fano", "u35", "u36"])
    def test_counts_match_smi_scan(self, name, request):
        if name == "u36":
            walk = request.getfixturevalue("u36_walk")
        else:
            walk = RepresentationLattice(
                {"bigex": BIGEX, "fano": fano(), "u35": uniform(3, 5)}[name])
        full = walk.hc.full_mask
        wit, every = walk.hc._witnesses

        def covers(fam):
            cov = 0
            for z in fam:
                cov |= wit[z]
            return cov == every

        for key, n in walk.nchildren.items():
            fam = walk._family(key)
            children = [fam - {z} for z in reps._smi_masks(sorted(fam), full) if z]
            members = [c in walk for c in children]
            assert members == [covers(c) for c in children]
            assert n == sum(members)

    def test_walk_and_sji_reps_skip_the_scan(self, monkeypatch, capsys):
        def refuse(*args):
            raise RuntimeError("the quadratic smi scan ran")

        monkeypatch.setattr(reps, "_smi_masks", refuse)
        assert len(RepresentationLattice(uniform(3, 6))) == 6275
        monkeypatch.setattr("sys.stdin", io.StringIO(hereditary.hc_to_json(uniform(3, 6))))
        assert cli.main(["sji-reps", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == {
            "minimal_raw": 226, "minimal_orbits": 4, "sji_raw": 442,
            "sji_orbits": 7, "mindeg": 6}


class TestMindeg:
    def test_bigex(self):
        k, witnesses = mindeg(BIGEX, enumerate_all=True)
        assert k == 3
        printed = BoolMatrix.build(
            [(0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 1)], col_labels=E4)
        assert any(congruent(w, printed) for w in witnesses)
        for w in witnesses:
            assert matrix_represents(BIGEX, w)

    def test_fano(self):
        hc = fano()
        k, witnesses = mindeg(hc, enumerate_all=True)
        assert k == 4
        printed = BoolMatrix.build(
            [(0, 0, 1, 1, 0, 1, 1), (0, 1, 1, 0, 1, 0, 1),
             (1, 0, 0, 1, 1, 0, 1), (1, 1, 0, 0, 0, 1, 1)],
            col_labels=[str(i) for i in range(1, 8)])
        assert any(congruent(w, printed) for w in witnesses)

    def test_mindeg_equals_min_smi_degree(self):
        for hc in (BIGEX, fano()):
            walk = RepresentationLattice(hc)
            assert mindeg(hc)[0] == min_smi_degree(walk)

    def test_not_representable_raises(self):
        with pytest.raises(NotRepresentable):
            mindeg(union_hc(*example_unio()))


class TestMaskFamilies:
    """The membership test, the walk and orbit counting read and write mask
    families: none of them converts between masks and label sets."""

    def test_no_label_conversion(self, monkeypatch):
        u35, u36 = uniform(3, 5), uniform(3, 6)
        for hc in (u35, u36):
            hc.h_masks  # parsing the collection converts its labels once
        families = list(enumerate_fisfl(u35))

        def refuse(*args):
            raise RuntimeError("a mask/label conversion")

        for mod in (lattice, hereditary, reps):
            for name in ("labels_to_mask", "mask_to_labels"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        with pytest.raises(RuntimeError):
            u35.mask_of(("1",))
        assert sum(represents(u35, f) for f in families) == 553
        assert len(list(enumerate_fisfl(u35))) == len(families)
        walk = RepresentationLattice(u36)
        sji = [walk.record(f) for f in walk.sji_families()]
        assert count_up_to_e_bijection(sji) == 7

    def test_parsed_collection_predicates_make_no_conversion(self, monkeypatch):
        # H is stored as masks, so a parsed collection answers its predicates
        # and its rank table without making label sets
        texts = [hereditary.hc_to_json(hc) for hc in
                 (fano(), uniform(3, 6), union_hc(*example_unio()), example_bigex())]
        hcs = [hereditary.hc_from_json(t) for t in texts]

        def refuse(*args):
            raise RuntimeError("a mask/label conversion")

        for mod in (lattice, hereditary, reps):
            for name in ("labels_to_mask", "mask_to_labels"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        got = [(hc.is_matroid(), hc.satisfies_pr(), hereditary.is_paving(hc),
                hereditary.paving_representable(hc),
                hereditary.rank_function(hc).rank) for hc in hcs]
        assert got == [(True, True, True, True, 3), (True, True, True, True, 3),
                       (False, True, True, False, 3), (True, True, True, True, 3)]

    def test_no_tuple_rows(self, monkeypatch):
        # every matrix builder and algorithm reads and writes row masks
        def refuse(self):
            raise RuntimeError("a 0/1 tuple row")

        monkeypatch.setattr(BoolMatrix, "rows", property(refuse))
        hc = fano()
        m = flat_matrix(hc)
        with pytest.raises(RuntimeError):
            m.rows
        assert columns_independent(m, ("1", "2", "4"))
        assert not columns_independent(m, ("1", "2", "5"))
        assert matrix_rank(m) == 3
        k, witnesses = mindeg(hc)
        assert k == 4 and matrix_represents(hc, witnesses[0])
        assert is_rowmin(hc, witnesses[0]) and not is_rowmin(hc, m)
        assert flats_of_matrix(m)[0] == hc.flats()
        vg = lattice_from_matrix(m)
        assert congruent(matrix_of(vg), m)
        assert congruent(full_matrix(vg.lattice), full_matrix(vg.lattice))
        stacked = rowsum_closure(stack_matrices(witnesses[0], m))
        assert BoolMatrix.from_text(stacked.to_text()) == stacked


def _smi_by_covers(members, full):
    """The cover count that the meet test replaced: members other than E
    with at most one minimal strict superset."""
    out = []
    for z in members:
        if z == full:
            continue
        sups = [w for w in members if w != z and w & z == z]
        covers = [w for w in sups if not any(v != w and w & v == v for v in sups)]
        if len(covers) <= 1:
            out.append(z)
    return out


def _leaf_by_meet_closure(hc, row_masks):
    """The leaf test that closed the rows under meets itself."""
    members = set(row_masks) | {hc.full_mask}
    work = list(members)
    while work:
        z = work.pop()
        for w in list(members):
            if w & z not in members:
                members.add(w & z)
                work.append(w & z)
    return 0 in members and reps._represents_masks(hc, sorted(members))


class TestMaskKernelOracles:
    @pytest.mark.parametrize("hc", [BIGEX, fano(), uniform(3, 5)],
                             ids=["bigex", "fano", "u35"])
    def test_smi_meet_test_matches_cover_count(self, hc):
        for fam in RepresentationLattice(hc):
            ms = sorted(fam)
            assert reps._smi_masks(ms, hc.full_mask) == _smi_by_covers(ms, hc.full_mask)

    @pytest.mark.parametrize("hc", [BIGEX, fano(), uniform(3, 6), uniform(3, 7)],
                             ids=["bigex", "fano", "u36", "u37"])
    def test_leaf_matches_meet_closure(self, hc):
        rng = random.Random(f"leaf:{len(hc.ground)}:{hc.rank}")
        cands = sorted(m for m in hc._flat_masks if m != hc.full_mask)
        seen = set()
        for _ in range(3000):
            rows = sorted(rng.sample(cands, rng.randint(1, len(cands))))
            ok = _leaf_ok(hc, rows)
            assert ok == _leaf_by_meet_closure(hc, rows)
            seen.add(ok)
        assert seen == {True, False}

    def test_mindeg_ladder(self):
        ladder = (uniform(3, 6), uniform(3, 7), uniform(3, 8), fano(), BIGEX)
        assert [mindeg(hc)[0] for hc in ladder] == [6, 9, 12, 4, 3]


class TestWitnessTable:
    """A family represents exactly when its members witness every independent
    set of two or more points; the chain DP and brute force are the oracles."""

    @pytest.mark.parametrize("hc", [BIGEX, fano(), uniform(3, 5)],
                             ids=["bigex", "fano", "u35"])
    def test_coverage_matches_chain_dp(self, hc):
        wit, every = hc._witnesses
        outcomes = set()
        for fam in enumerate_fisfl(hc):
            cov = 0
            for z in fam.masks:
                cov |= wit[z]
            ok = reps._represents_masks(hc, sorted(fam.masks))
            assert (cov == every) == ok
            outcomes.add(ok)
        assert outcomes == {True, False}

    def test_coverage_matches_chain_dp_on_random(self):
        rng = random.Random(1805)
        outcomes = set()
        for i in range(500):
            hc = random_simple_hc(rng, 5 + i % 3)
            wit, every = hc._witnesses
            cov = 0
            for w in wit.values():
                cov |= w
            ok = hereditary.is_boolean_representable(hc)
            assert (cov == every) == all(hc._witness_sets) == ok
            outcomes.add(ok)
        assert outcomes == {True, False}

    def test_refusals_keep_their_order(self):
        hc = union_hc(*example_unio())
        assert not hereditary.is_boolean_representable(hc)
        with pytest.raises(TooLarge):  # the flat cap is checked first
            RepresentationLattice(hc, max_nontrivial=0)
        for build in (RepresentationLattice, mindeg):
            with pytest.raises(NotRepresentable,
                               match="the collection has no boolean representation"):
                build(hc)

    @pytest.mark.parametrize("hc,count", [(BIGEX, 24), (fano(), 7)],
                             ids=["bigex", "fano"])
    def test_mindeg_witnesses_match_brute_force(self, hc, count):
        k, witnesses = mindeg(hc, enumerate_all=True)
        got = {tuple(sorted(sum(1 << j for j, v in enumerate(row) if not v)
                            for row in w.rows))
               for w in witnesses}
        cands = sorted(m for m in hc._flat_masks if m != hc.full_mask)
        brute = {rows for rows in itertools.combinations(cands, k)
                 if _leaf_by_meet_closure(hc, rows)}
        assert got == brute
        assert len(got) == count

    def test_mindeg_u39(self):
        # the conjectured floor((n - 1)^2 / 4) is a cross-check only
        assert mindeg(uniform(3, 9))[0] == 16 == (9 - 1) ** 2 // 4

    def test_mindeg_node_budget(self, monkeypatch):
        # U(3,8) takes 759 search nodes over k = 3..12 (1 328 without the
        # root's orbit bans, 23 547 without the gain bound either)
        hc = uniform(3, 8)
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 500)
        with pytest.raises(TooLarge, match="500"):
            mindeg(hc)
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 758)
        with pytest.raises(TooLarge):
            mindeg(hc)
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 759)
        assert mindeg(hc)[0] == 12

    @pytest.mark.parametrize("hc, k, nodes", [(uniform(3, 6), 6, 30), (uniform(3, 7), 9, 144),
                                              (fano(), 4, 10)],
                             ids=["u36", "u37", "fano"])
    def test_mindeg_node_counts(self, hc, k, nodes, monkeypatch):
        # 52, 262 and 16 nodes without the root's orbit bans
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", nodes - 1)
        with pytest.raises(TooLarge):
            mindeg(hc)
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", nodes)
        assert mindeg(hc)[0] == k

    def test_mindeg_u310(self, monkeypatch):
        # 134 797 nodes; the unbounded search takes about 5.8 M
        hc = uniform(3, 10)
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 134_796)
        with pytest.raises(TooLarge):
            mindeg(hc)
        monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 134_797)
        assert mindeg(hc)[0] == 20 == (10 - 1) ** 2 // 4


def _representable_sweep_hcs(count):
    """The first `count` boolean representable collections from a seeded
    cycle of sweep-style shapes on 5 to 7 points."""
    rng = random.Random(18)
    shapes = itertools.cycle([(n, p, add4) for n in (5, 6, 7)
                              for p in (0.5, 0.8, 0.95) for add4 in (False, True)])
    hcs = (random_sweep_hc(rng, *next(shapes)) for _ in itertools.count())
    return itertools.islice(filter(hereditary.is_boolean_representable, hcs), count)


SYMMETRIC = {"u25": uniform(2, 5), "u26": uniform(2, 6), "u35": uniform(3, 5),
             "u36": uniform(3, 6), "u37": uniform(3, 7), "u38": uniform(3, 8),
             "u46": uniform(4, 6), "u47": uniform(4, 7), "fano": fano(), "bigex": BIGEX,
             **NEAR_UNIFORM}


class TestGainBound:
    """The gain bound and the root's orbit bans only cut nodes without
    accepted leaves: the search without either (`conftest.mindeg_unbounded`)
    gives the same k, the same witness list and the same `enumerate_all`
    set."""

    @staticmethod
    def assert_same(hc):
        assert mindeg(hc) == mindeg_unbounded(hc)
        assert mindeg(hc, enumerate_all=True) == mindeg_unbounded(hc, enumerate_all=True)

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_ladder(self, name):
        self.assert_same(SYMMETRIC[name])

    def test_random_representable(self):
        for hc in _representable_sweep_hcs(300):
            self.assert_same(hc)

    def test_witnesses_represent(self):
        # mindeg returns its rows unchecked; the witness check is the oracle
        ladder = (uniform(3, 6), uniform(3, 7), uniform(3, 8), fano(), BIGEX)
        for hc in itertools.chain(ladder, _representable_sweep_hcs(300)):
            k, witnesses = mindeg(hc, enumerate_all=True)
            assert witnesses
            for w in witnesses:
                assert w.n_rows == k and matrix_represents(hc, w)


class TestRootOrbits:
    """The orbits that the mindeg root bans: `_orbits` over the generators'
    point tables against the images under every automorphism (the closure
    `hc._automorphisms`), no group past the cap, and each orbit expanded
    at most once per call."""

    @staticmethod
    def recorded_orbits(monkeypatch):
        """The orbits mindeg expands, one per `reps._orbits` call."""
        orbits, calls = reps._orbits, []

        def counted(keys, images):
            calls.append(next(orbits(keys, images)))
            return iter(calls[-1:])

        monkeypatch.setattr(reps, "_orbits", counted)
        return calls

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_orbits_match_group(self, name):
        hc = SYMMETRIC[name]
        group = hc._automorphisms
        points = [[1 << x for x in g] for g in hc._automorphism_generators]
        for z in hc._flat_masks:
            if z != hc.full_mask:
                assert next(hereditary._orbits([z], points)) == \
                    {hereditary.permuted(z, p) for p in group}

    def test_no_group_past_the_cap(self, monkeypatch):
        # U(2,9) fails first rows at k = 2..7 and needs 8 rows; past the cap
        # every failed root row is banned alone
        hc = uniform(2, reps.AUTOMORPHISM_GROUND_CAP + 1)

        def refuse(*args):
            raise RuntimeError("a generator search past the cap")

        monkeypatch.setattr(hereditary, "_strong_generators", refuse)
        calls = self.recorded_orbits(monkeypatch)
        assert mindeg(hc)[0] == 8
        assert calls and all(len(orbit) == 1 for orbit in calls)
        assert len(set().union(*calls)) == len(calls)

    @pytest.mark.parametrize("name, expansions", [
        ("u36", 1), ("u37", 1), ("u38", 1), ("fano", 1), ("bigex", 0)])
    def test_each_orbit_expanded_once(self, monkeypatch, name, expansions):
        # U(3,7) fails a root line at every k from 3 to 8, in one orbit
        calls = self.recorded_orbits(monkeypatch)
        for enumerate_all in (False, True):
            calls.clear()
            mindeg(SYMMETRIC[name], enumerate_all=enumerate_all)
            assert len(calls) == expansions


class TestTuranRows:
    """The mindeg ladder of U(3,n) is floor((n - 1)^2 / 4) (Mantel's
    theorem, README): for n >= 6, the lines inside the two halves of a
    balanced bipartition reach it.  The formula is an oracle only."""

    @staticmethod
    def turan_rows(n):
        half = n // 2
        return sorted((1 << a) | (1 << b) for a, b in itertools.combinations(range(n), 2)
                      if (a < half) == (b < half))

    @pytest.mark.parametrize("n", range(6, 13))
    def test_turan_rows_represent(self, n):
        hc = uniform(3, n)
        rows = self.turan_rows(n)
        assert len(rows) == (n - 1) ** 2 // 4
        assert set(rows) <= set(hc._flat_masks)
        assert _leaf_ok(hc, rows)
        matrix = BoolMatrix.build([[0 if z >> i & 1 else 1 for i in range(n)] for z in rows],
                                  col_labels=hc.ground)
        assert matrix_represents(hc, matrix)

    def test_u35_needs_five(self):
        # no line of the halves 3 + 2 holds one point of the small half
        # without the other, so that pair has no witness: U(3,5) needs one
        # row more than the bound
        hc = uniform(3, 5)
        assert not _leaf_ok(hc, self.turan_rows(5))
        assert mindeg(hc)[0] == 5 == (5 - 1) ** 2 // 4 + 1


class TestRelabelling:
    """Answers that must not depend on the ground order or the facet order
    (a seeded slice of the metamorphic checks): the root bans, the
    generator search's base, the flat numbering and the key order all
    follow the order of the points."""

    @staticmethod
    def answers(hc):
        k, witnesses = mindeg(hc, enumerate_all=True)
        rows = {frozenset(frozenset(w.col_labels[j] for j in range(w.n_cols) if not r >> j & 1)
                          for r in w.ones_masks) for w in witnesses}
        try:
            walk = RepresentationLattice(hc)
        except TooLarge:  # over the flat cap, which counts flats only
            return k, rows, len(hc._flat_masks), None
        minimal = sum(n == 0 for n in walk.nchildren.values())
        sji = sum(n <= 1 for n in walk.nchildren.values())
        images = hereditary._image_tables(hc._automorphism_generators, walk.flats)[1]
        sji_keys = (key for key, n in walk.nchildren.items() if n <= 1)
        assert sum(map(len, hereditary._orbits(sji_keys, images))) == sji
        return k, rows, len(walk.flats), (len(walk), minimal, sji, walk.orbit_counts())

    def test_ground_and_facet_order(self):
        rng = random.Random(26)
        hcs = [fano(), BIGEX, uniform(3, 6), *_representable_sweep_hcs(20)]
        for hc in hcs:
            ground = rng.sample(hc.ground, len(hc.ground))
            facets = [rng.sample(sorted(f), len(f)) for f in hc.facets]
            rng.shuffle(facets)
            relabelled = HereditaryCollection.from_facets(ground, facets)
            assert relabelled.independents == hc.independents
            assert self.answers(relabelled) == self.answers(hc)


@pytest.mark.slow
def test_u38_walk():
    """The rank-3 uniform matroid on eight points: 4 685 862 representing
    families, 15 275 minimal and 77 499 sji, in 10 and 18 orbits.  The walk
    takes over a minute and about 350 MB."""
    walk = RepresentationLattice(uniform(3, 8), max_nontrivial=36)
    assert len(walk) == 4_685_862
    assert sum(n == 0 for n in walk.nchildren.values()) == 15_275
    assert sum(n <= 1 for n in walk.nchildren.values()) == 77_499
    assert walk.orbit_counts() == (10, 18)


@pytest.mark.slow
def test_mindeg_u311(monkeypatch):
    """U(3,11) answers 25 in 2 320 510 nodes, inside MINDEG_MAX_NODES; a
    budget one below the count refuses.  Each run takes tens of seconds."""
    hc = uniform(3, 11)
    monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 2_320_510)
    assert mindeg(hc)[0] == 25 == (11 - 1) ** 2 // 4
    monkeypatch.setattr(reps, "MINDEG_MAX_NODES", 2_320_509)
    with pytest.raises(TooLarge):
        mindeg(hc)


class TestNoAssertValidation:
    """Checks raise typed errors, so `python -O` cannot strip them."""

    def test_no_assert_statements_in_src(self):
        src = pathlib.Path(boolrep.__file__).parent
        found = [(path.name, node.lineno)
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []


class TestStdlibOnly:
    def test_absolute_imports_are_stdlib(self):
        # the engine stays stdlib-only: every absolute import names a
        # top-level module of the standard library
        src = pathlib.Path(boolrep.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [(path.name, n) for n in names]
        assert found, "no absolute imports found"
        assert [(f, n) for f, n in found
                if n.split(".")[0] not in sys.stdlib_module_names] == []


class TestRowmin:
    def test_full_matrix_not_rowmin(self):
        m = flat_matrix(BIGEX)
        assert not is_rowmin(BIGEX, m)

    def test_reduced_minimal_is_rowmin_fano(self):
        hc = fano()
        walk = RepresentationLattice(hc)
        f = walk.minimal_families()[0]
        assert is_rowmin(hc, reduced_matrix(walk.record(f)))


class TestConsistencyWithColumns:
    def test_membership_iff_c_independent_in_each_record(self):
        # for every representing family, independence in its matrix matches H
        walk = RepresentationLattice(BIGEX)
        for f in walk.sorted_families():
            m = walk.record(f).matrix
            for r in range(5):
                for c in itertools.combinations(BIGEX.ground, r):
                    assert columns_independent(m, c) == \
                        (frozenset(c) in BIGEX.independents)


class TestThreeWayClosureEquivalence:
    def test_membership_chains_in_family_and_in_flats(self):
        # for a representable collection and each representing family,
        # membership in H, a decreasing chain of family closures, and a
        # decreasing chain of flat closures are all equivalent
        hc = BIGEX
        walk = RepresentationLattice(hc)

        def chain_in(f, xs):
            def rec(s):
                if len(s) <= 1:
                    return True
                return any(x not in f.closure_of(s - {x}) and rec(s - {x})
                           for x in s)
            return rec(frozenset(xs))

        for fmasks in walk.sorted_families()[:20]:
            f = walk.record(fmasks).family
            for r in range(5):
                for c in itertools.combinations(hc.ground, r):
                    member = frozenset(c) in hc.independents
                    assert chain_in(f, c) == member
                    assert (closure_ordering(hc, c) is not None) == member

    def test_record_lattice_recognizes_h_fano(self):
        # independence in every representing family's matrix matches H,
        # over all 64 seven-point records
        hc = fano()
        walk = RepresentationLattice(hc)
        for fmasks in walk.sorted_families():
            m = walk.record(fmasks).matrix
            for s in hc.independents:
                assert columns_independent(m, s)
            for c in hc.circuits():
                assert not columns_independent(m, c)


class TestJoinMatrixCoherence:
    def test_join_matrix_is_rowsum_closed_stack(self):
        # the join family's matrix rows are exactly the boolean-sum closure
        # of the stacked matrices' rows
        walk = RepresentationLattice(BIGEX)
        fams = [walk.record(f).family for f in walk.sorted_families()[:10]]
        for a, b in itertools.combinations(fams, 2):
            j = join_families(a, b)
            mj = _matrix_for(BIGEX, j)
            stacked = rowsum_closure(
                stack_matrices(_matrix_for(BIGEX, a), _matrix_for(BIGEX, b)))
            assert sorted(mj.rows) == sorted(set(stacked.rows))
