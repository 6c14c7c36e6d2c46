"""Representation lattice: membership, enumeration, minimal/sji, mindeg."""

import ast
import itertools
import pathlib
import random

import pytest

import boolrep
from boolrep import reps
from boolrep.errors import (
    BoolrepError,
    NotRepresentable,
    NotSimple,
    NotSubsemilattice,
    TooLarge,
)
from boolrep.hereditary import (
    HereditaryCollection,
    example_bigex,
    example_libourne_matrix,
    example_unio,
    fano,
    flat_matrix,
    uniform,
    union_hc,
)
from boolrep.lattice import FlatFamily, congruent, flats_of_matrix, matrix_of
from boolrep.reps import (
    RepresentationLattice,
    automorphisms,
    count_up_to_e_bijection,
    enumerate_fisfl,
    enumerate_im_theta,
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
from boolrep.sbcore import BoolMatrix, columns_independent
from conftest import fs


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
            for flset in f.sorted_members():
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

    def test_cap(self):
        with pytest.raises(TooLarge):
            list(enumerate_fisfl(uniform(3, 6), max_nontrivial=10))


class TestWalk:
    def test_walk_equals_brute_filter_bigex(self):
        walk = RepresentationLattice(BIGEX)
        brute = {frozenset(BIGEX.mask_of(m) for m in f.members)
                 for f in enumerate_fisfl(BIGEX) if _brute_represents(BIGEX, f)}
        assert walk.members == brute

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
        assert walk.mindeg() == 6

    def test_im_theta_stream_sorted(self):
        recs = list(enumerate_im_theta(BIGEX))
        keys = [r.canonical_key() for r in recs]
        assert keys == sorted(keys)
        assert len(recs) == 65


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

    def test_smi_rows_bigex_witness(self):
        f = family(BIGEX, E4, "14", "24", "4", "")
        assert smi_members(BIGEX, f) == {fs("1", "4"), fs("2", "4"), fs()}

    def test_order_and_top(self):
        walk = RepresentationLattice(BIGEX)
        top = walk.record(frozenset(walk.top))
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
            assert is_rowmin(BIGEX, rec.reduced_matrix)

    def test_rowmin_does_not_imply_minimal(self):
        m = example_libourne_matrix()
        assert is_rowmin(BIGEX, m)
        fam2, _ = flats_of_matrix(m)
        masks = frozenset(BIGEX.mask_of(s) for s in fam2.members)
        walk = RepresentationLattice(BIGEX)
        assert masks in walk.members
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
    for flset in f.sorted_members():
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
        top = walk.record(frozenset(walk.top))
        assert count_up_to_e_bijection([top]) == 1


def _canonical_orbits(records):
    """Orbit count by canonical keys: a family's key is the least sorted
    tuple of its permuted masks over all automorphisms.  Returns the key of
    each record, so a sublist's count is the number of distinct keys."""
    hc = records[0].hc
    perms = [[hc._gidx[a[g]] for g in hc.ground] for a in automorphisms(hc)]

    def apply(mask, perm):
        return sum(1 << perm[i] for i in range(len(perm)) if (mask >> i) & 1)

    masks = {hc.mask_of(m) for rec in records for m in rec.family.members}
    tables = [{z: apply(z, perm) for z in masks} for perm in perms]
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
        assert set(walk.members) == set(rep)
        assert walk.minimal_families() == sorted(minimal, key=sorted)
        assert walk.sji_families() == sorted(sji, key=sorted)


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
            assert mindeg(hc)[0] == walk.mindeg()

    def test_not_representable_raises(self):
        with pytest.raises(NotRepresentable):
            mindeg(union_hc(*example_unio()))


class TestNoAssertValidation:
    """Checks raise typed errors, so `python -O` cannot strip them."""

    def test_mindeg_witness_check_raises(self, monkeypatch):
        monkeypatch.setattr(reps, "matrix_represents", lambda hc, m: False)
        with pytest.raises(BoolrepError):
            mindeg(BIGEX)

    def test_no_assert_statements_in_src(self):
        src = pathlib.Path(boolrep.__file__).parent
        found = [(path.name, node.lineno)
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []


class TestRowmin:
    def test_full_matrix_not_rowmin(self):
        m = flat_matrix(BIGEX)
        assert not is_rowmin(BIGEX, m)

    def test_reduced_minimal_is_rowmin_fano(self):
        hc = fano()
        walk = RepresentationLattice(hc)
        f = walk.minimal_families()[0]
        assert is_rowmin(hc, walk.record(f).reduced_matrix)


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
        from boolrep.hereditary import closure_ordering

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
