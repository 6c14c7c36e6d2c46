"""Hereditary collections: flats, closure, predicates, representability."""

import itertools
import random
from unittest import mock

import pytest

from boolrep.errors import (
    BoolrepError,
    EmptyFamily,
    FormatError,
    GroundMismatch,
    NotDownwardClosed,
    NotSimple,
    RankTooSmall,
)
from boolrep.hereditary import (
    HereditaryCollection,
    boolean_representability,
    example_bigex,
    example_truno,
    example_unio,
    fano,
    flat_lattice,
    flat_matrix,
    hc_from_json,
    hc_to_json,
    hyperplanes,
    intersection_hc,
    is_boolean_representable,
    is_paving,
    paving_representable,
    rank_function,
    truncation,
    uniform,
    union_hc,
)
from boolrep.lattice import family_matrix, matrix_of
from boolrep.sbcore import columns_independent
from conftest import (
    all_hcs,
    all_simple_hcs,
    check_submodular,
    closure_by_circuits,
    closure_ordering,
    flat_masks_by_circuits,
    fs,
    family_matrix_by_rows,
    full_sweep_fails,
    is_flat_by_circuits,
    maximal_proper_by_labels,
    random_hc,
    random_simple_hc,
    random_sweep_hc,
    rank3_union_representable_hypothesis,
    rank_table_by_masks,
    sweep_rand_hcs,
)


def triples(*ts):
    return [frozenset(t) for t in ts]


def paving_clauses(hc):
    """No circuit below the rank; every set below the rank independent;
    every set below rank - 1 a flat."""
    r = hc.rank
    small = [frozenset(c)
             for s in range(r) for c in itertools.combinations(hc.ground, s)]
    return [all(len(c) >= r for c in hc.circuits()),
            all(s in hc.independents for s in small),
            all(s in hc.flats() for s in small if len(s) < r - 1)]


class TestConstruction:
    def test_from_facets_full(self):
        hc = HereditaryCollection.from_facets("123", ["123"])
        assert len(hc.independents) == 8

    def test_from_independents_validates(self):
        with pytest.raises(NotDownwardClosed):
            HereditaryCollection.from_independents(
                "123", [("1",), ("1", "2")])  # missing the empty set

    def test_empty_rejected(self):
        with pytest.raises(EmptyFamily):
            HereditaryCollection.from_facets("12", [])
        with pytest.raises(EmptyFamily):
            HereditaryCollection.from_independents("12", [])

    def test_uniform_count(self):
        assert len(uniform(3, 6).independents) == 1 + 6 + 15 + 20

    def test_uniform_rank_past_ground_is_free(self):
        # U(a, b) with a >= b is the free matroid: the subset sizes stop at
        # b, so a huge a costs nothing
        real = itertools.combinations
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        with mock.patch("itertools.combinations", counted):
            hc = uniform(20000, 6)
        assert len(calls) <= 7
        assert hc == uniform(6, 6)

    def test_json_round_trip(self):
        hc = example_bigex()
        assert hc_from_json(hc_to_json(hc)) == hc
        hc2 = hc_from_json('{"ground": ["1","2"], "independents": [[],["1"],["2"]]}')
        assert fs("1") in hc2.independents


class TestCircuits:
    def test_brute_force_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            hc = random_hc(rng, 5)
            h = hc.independents
            expected = set()
            ground = list(hc.ground)
            for r in range(len(ground) + 1):
                for c in itertools.combinations(ground, r):
                    s = frozenset(c)
                    if s not in h and all(s - {x} in h for x in s):
                        expected.add(s)
            assert hc.circuits() == expected

    def test_uniform_two_three(self):
        assert uniform(2, 3).circuits() == {fs("1", "2", "3")}

    def test_free_complex_has_none(self):
        hc = HereditaryCollection.from_facets("123", ["123"])
        assert hc.circuits() == frozenset()

    def test_bigex_circuits(self):
        # the only dependent sets are the dropped triple and the full set,
        # and the full set contains the triple, so one circuit remains
        assert example_bigex().circuits() == {fs("1", "2", "3")}


class TestFlats:
    def test_bigex(self):
        hc = example_bigex()
        expected = {fs(), fs("1"), fs("2"), fs("3"), fs("4"),
                    fs("1", "4"), fs("2", "4"), fs("3", "4"),
                    fs("1", "2", "3"), fs("1", "2", "3", "4")}
        assert hc.flats().members == expected

    def test_fano(self):
        hc = fano()
        lines = {fs(*l) for l in
                 (("1", "2", "5"), ("1", "3", "7"), ("1", "4", "6"), ("2", "3", "6"),
                  ("2", "4", "7"), ("3", "4", "5"), ("5", "6", "7"))}
        expected = {fs()} | {fs(e) for e in hc.ground} | lines | {fs(*hc.ground)}
        assert hc.flats().members == expected

    def test_uniform_rank3(self):
        hc = uniform(3, 6)
        fam = hc.flats()
        assert len(fam) == 23  # empty + 6 points + 15 pairs + E
        assert all(len(m) <= 2 or len(m) == 6 for m in fam.members)

    def test_definitional_vs_circuit_flats_exhaustive(self):
        rng = random.Random(41)
        for _ in range(25):
            hc = random_hc(rng, 5)
            for r in range(6):
                for c in itertools.combinations(hc.ground, r):
                    assert hc.is_flat(c) == is_flat_by_circuits(hc, c)

    @pytest.mark.parametrize("hc", [example_bigex(), fano(), uniform(2, 5), uniform(3, 6),
                                    uniform(3, 8), *example_unio(),
                                    union_hc(*example_unio()), example_truno()],
                             ids=["bigex", "fano", "u25", "u36", "u38", "unio-j1",
                                  "unio-j2", "unio-union", "truno"])
    def test_subset_dp_matches_circuit_scan_named(self, hc):
        assert hc._flat_masks == flat_masks_by_circuits(hc)

    def test_subset_dp_matches_circuit_scan_random(self):
        rng = random.Random(2021)
        for i in range(360):
            n = 3 + i % 6
            hc = (random_hc(rng, n), random_simple_hc(rng, n),
                  random_sweep_hc(rng, n, (0.5, 0.8, 0.95)[i % 3], i % 2 == 0))[i % 3]
            assert hc._flat_masks == flat_masks_by_circuits(hc)

    def test_flat_family_is_closed(self):
        rng = random.Random(42)
        for _ in range(25):
            fam = random_hc(rng, 5).flats()
            for a, b in itertools.combinations(fam.members, 2):
                assert a & b in fam.members
            assert frozenset(fam.ground) in fam.members


class TestClosure:
    def test_basis_closes_to_everything(self):
        rng = random.Random(51)
        for _ in range(25):
            hc = random_hc(rng, 5)
            for b in hc.facets:
                if len(b) == hc.rank:
                    assert hc.closure(b) == frozenset(hc.ground)

    def test_empty_set(self):
        hc = example_bigex()
        assert hc.closure(()) == fs()

    def test_component_closures(self):
        # 1235 is closed in the first union component, and the three inner
        # pairs close to it there; in the union itself they blow up to E
        j1, _ = example_unio()
        assert j1.is_flat(("1", "2", "3", "5"))
        target = fs("1", "2", "3", "5")
        for pair in (("1", "3"), ("1", "5"), ("3", "5")):
            assert j1.closure(pair) == target
        u = union_hc(*example_unio())
        for pair in (("1", "3"), ("1", "5"), ("3", "5")):
            assert u.closure(pair) == frozenset(u.ground)

    def test_agrees_with_flat_family_closure(self):
        rng = random.Random(53)
        for _ in range(25):
            hc = random_hc(rng, 5)
            fam = hc.flats()
            for r in range(6):
                for c in itertools.combinations(hc.ground, r):
                    assert hc.closure(c) == fam.closure_of(c)

    def test_circuit_iteration_agrees_on_matroids(self):
        rng = random.Random(52)
        found = 0
        while found < 10:
            hc = random_hc(rng, 4)
            if not hc.is_matroid():
                continue
            found += 1
            for r in range(5):
                for c in itertools.combinations(hc.ground, r):
                    assert hc.closure(c) == closure_by_circuits(hc, c)

    def test_label_outside_ground_is_format_error(self):
        hc = example_bigex()
        for query in (hc.mask_of, hc.closure, rank_function(hc).of):
            for labels in (["9"], ["1", 9]):
                with pytest.raises(FormatError, match="outside ground"):
                    query(labels)


class TestPredicates:
    def test_fourpoints_two_triples_not_matroid(self):
        base = [c for r in range(3) for c in itertools.combinations("1234", r)]
        hc = HereditaryCollection.from_independents(
            "1234", list(base) + [("1", "2", "3"), ("1", "2", "4")])
        assert not hc.is_matroid()
        assert is_boolean_representable(hc)
        assert hc.flats().members == {fs(), fs("1"), fs("2"), fs("3"), fs("4"),
                                      fs("1", "2"), fs("1", "2", "3", "4")}

    def test_fourpoints_one_triple_fails_pr(self):
        base = [c for r in range(3) for c in itertools.combinations("1234", r)]
        hc = HereditaryCollection.from_independents(
            "1234", list(base) + [("1", "2", "3")])
        assert not hc.satisfies_pr()
        assert not is_boolean_representable(hc)

    def test_uniform_is_matroid(self):
        for a, b in ((1, 3), (2, 4), (3, 5)):
            assert uniform(a, b).is_matroid()

    def test_simple(self):
        assert uniform(2, 3).is_simple()
        assert not uniform(1, 3).is_simple()

    def test_representable_implies_pr(self):
        for hc in all_simple_hcs(4):
            if is_boolean_representable(hc):
                assert hc.satisfies_pr()

    def test_not_simple_raises(self):
        with pytest.raises(NotSimple):
            is_boolean_representable(uniform(1, 3))


class TestRank:
    def test_empty_rank_zero(self):
        rf = rank_function(example_bigex())
        assert rf.of(()) == 0

    def test_bigex_values(self):
        rf = rank_function(example_bigex())
        assert rf.of(("1", "2", "3")) == 2
        assert rf.rank == 3

    def test_fano_hyperplanes_are_lines(self):
        assert hyperplanes(fano()) == {
            fs(*l) for l in (("1", "2", "5"), ("1", "3", "7"), ("1", "4", "6"),
                             ("2", "3", "6"), ("2", "4", "7"), ("3", "4", "5"),
                             ("5", "6", "7"))}

    @pytest.mark.parametrize("hc", [uniform(3, 6), fano(), example_bigex(), example_truno(),
                                    uniform(0, 3), HereditaryCollection((), [()])],
                             ids=["u36", "fano", "bigex", "truno", "u03", "empty-ground"])
    def test_table_matches_per_mask_dp(self, hc):
        assert rank_function(hc).table == rank_table_by_masks(hc)

    def test_owners_match_oracles_on_sweep_rand(self):
        # the benchmark's sweep-rand collections (seed 7, pass 0): the rank
        # table, the hyperplanes (the flats' maximal proper members) and the
        # flat matrix, each against the construction it replaced
        for hc in sweep_rand_hcs(7):
            fam = hc.flats()
            assert rank_function(hc).table == rank_table_by_masks(hc)
            assert hyperplanes(hc) == maximal_proper_by_labels(fam.members, frozenset(hc.ground))
            assert family_matrix(fam) == family_matrix_by_rows(fam)

    def test_subadditivity_always(self):
        rng = random.Random(61)
        for _ in range(15):
            hc = random_hc(rng, 4)
            rf = rank_function(hc)
            sets = [frozenset(c) for r in range(5)
                    for c in itertools.combinations(hc.ground, r)]
            for x in sets:
                assert rf.of(x) <= len(x)
                for y in sets:
                    assert rf.of(x) + rf.of(y) >= rf.of(x | y)

    def test_of_matches_brute_force(self):
        # the mask-indexed table agrees with the largest independent subset,
        # for every subset given as labels in any order
        rng = random.Random(20121030)
        for _ in range(10):
            hc = random_hc(rng, 5)
            rf = rank_function(hc)
            for r in range(6):
                for c in itertools.combinations(hc.ground, r):
                    best = max(len(s) for s in hc.independents if s <= frozenset(c))
                    assert rf.of(c) == rf.of(reversed(c)) == best
            assert rf.rank == hc.rank

    def test_submodularity_on_matroids(self):
        check_submodular(rank_function(uniform(2, 4)))
        check_submodular(rank_function(example_bigex()))

    def test_table_axioms_random(self):
        # what downward closure guarantees of the DP, recomputed by definition
        rng = random.Random(20121031)
        matroids = set()
        for _ in range(60):
            hc = random_hc(rng, rng.randint(4, 6))
            n, hm = len(hc.ground), hc.h_masks
            r = rank_function(hc).table
            for m in range(1 << n):
                assert all(r[m] <= r[m | (1 << i)] for i in range(n))  # monotone
                assert (r[m] == m.bit_count()) == (m in hm)  # full rank: independent
                assert any(s & m == s and s.bit_count() == r[m] for s in hm)  # reached
            matroid = hc.is_matroid()
            matroids.add(matroid)
            if matroid:
                assert not full_sweep_fails(r, n)
        assert matroids == {True, False}

    def test_local_submodularity_matches_full_sweep(self):
        # the explicit local check raises exactly when the 4^|E| sweep fails,
        # and that happens exactly on non-matroids: every collection on four
        # points, then random ones on five and six
        rng = random.Random(20121101)
        randoms = (random_hc(rng, rng.randint(5, 6)) for _ in range(40))
        outcomes = set()
        for hc in itertools.chain(all_hcs(4), randoms):
            fails = full_sweep_fails(rank_function(hc).table, len(hc.ground))
            if fails:
                with pytest.raises(BoolrepError, match="submodularity"):
                    check_submodular(rank_function(hc))
            else:
                assert check_submodular(rank_function(hc)).rank == hc.rank
            assert fails == (not hc.is_matroid())
            outcomes.add(fails)
        assert outcomes == {True, False}

    def test_default_runs_no_matroid_test(self, monkeypatch):
        def never(self):
            raise AssertionError("rank_function ran the matroid test")

        monkeypatch.setattr(HereditaryCollection, "is_matroid", never)
        assert rank_function(uniform(3, 8)).rank == 3

    def test_rank_is_longest_closure_chain(self):
        # on representable simple collections the rank of X is the largest
        # size of a subset of X with a strictly decreasing closure chain
        for hc in all_simple_hcs(4):
            if not is_boolean_representable(hc):
                continue
            rf = rank_function(hc)
            for r in range(5):
                for c in itertools.combinations(hc.ground, r):
                    best = max(
                        len(sub)
                        for k in range(len(c) + 1)
                        for sub in itertools.combinations(c, k)
                        if closure_ordering(hc, sub) is not None)
                    assert rf.of(c) == best


class TestRepresentability:
    def test_simple_matroids_are_representable(self):
        for hc in all_simple_hcs(4):
            if hc.is_matroid():
                assert is_boolean_representable(hc)

    def test_union_counterexample(self):
        j1, j2 = example_unio()
        assert is_boolean_representable(j1)
        assert is_boolean_representable(j2)
        u = union_hc(j1, j2)
        res = boolean_representability(u)
        assert not res.holds
        assert res.counterexample in u.independents

    def test_flat_matrix_is_the_representation_test(self):
        # representable iff the flat matrix recognizes exactly H
        for hc in all_simple_hcs(4):
            m = flat_matrix(hc)
            agrees = all(
                (frozenset(c) in hc.independents) == columns_independent(m, c)
                for r in range(5) for c in itertools.combinations(hc.ground, r))
            assert agrees == is_boolean_representable(hc)

    def test_flat_lattice_matches_flat_matrix(self):
        hc = example_bigex()
        vg = flat_lattice(hc)
        from boolrep.lattice import congruent
        assert congruent(matrix_of(vg), flat_matrix(hc))


class TestTruncationAndBooleanOps:
    def test_truncation_at_rank_is_identity(self):
        hc = example_bigex()
        assert truncation(hc, hc.rank).independents == hc.independents

    def test_truncation_counterexample(self):
        hc = example_truno()
        assert is_boolean_representable(hc)
        t3 = truncation(hc, 3)
        assert not is_boolean_representable(t3)
        assert t3.independents == union_hc(*example_unio()).independents

    def test_truncation_flats_shrink(self):
        rng = random.Random(71)
        for _ in range(50):
            hc = random_hc(rng, 5)
            k = rng.randint(0, hc.rank)
            t = truncation(hc, k)
            assert t.flats().members <= hc.flats().members
            # proper subsets are truncation flats iff they are flats that
            # contain no maximal truncated independent set
            bases_t = t.facets
            for r in range(5):
                for c in itertools.combinations(hc.ground, r):
                    s = frozenset(c)
                    if s == frozenset(hc.ground):
                        continue
                    expected = s in hc.flats().members and \
                        not any(b <= s for b in bases_t)
                    assert (s in t.flats().members) == expected

    def test_union_intersection_basics(self):
        hc = example_bigex()
        assert union_hc(hc, hc).independents == hc.independents
        assert intersection_hc(hc, hc).independents == hc.independents
        with pytest.raises(GroundMismatch):
            union_hc(hc, uniform(2, 3))

    def test_rank3_union_hypothesis(self):
        rng = random.Random(81)
        found = 0
        tried = 0
        while found < 20 and tried < 4000:
            tried += 1
            a = random_simple_hc(rng, 5)
            b = random_simple_hc(rng, 5)
            try:
                ok = rank3_union_representable_hypothesis(a, b)
            except NotSimple:
                continue
            if ok:
                found += 1
                assert is_boolean_representable(union_hc(a, b))
        assert found == 20


class TestPaving:
    def test_uniform_three_six(self):
        hc = uniform(3, 6)
        assert is_paving(hc)
        assert paving_representable(hc)
        assert is_boolean_representable(hc)

    def test_union_paving_not_representable(self):
        u = union_hc(*example_unio())
        assert is_paving(u)
        assert not paving_representable(u)
        assert not is_boolean_representable(u)
        # the shedding condition fails on actual rank-size members of H
        bad = [s for s in u.independents if len(s) == 3
               and not any(x not in u.closure(s - {x}) for x in s)]
        assert fs("1", "3", "4") in bad

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            is_paving(uniform(2, 4))

    def test_clause_agreement_random(self):
        # the three paving clauses agree with is_paving: simple rank-3
        # collections (all paving), then non-simple ones of rank 3 and 4
        rng = random.Random(91)
        seen = 0
        while seen < 50:
            hc = random_simple_hc(rng, 5)
            if hc.rank != 3:
                continue
            seen += 1
            assert paving_clauses(hc) == [is_paving(hc)] * 3
        outcomes = set()
        seen = 0
        while seen < 80:
            hc = random_hc(rng, rng.randint(4, 6))
            if hc.rank not in (3, 4):
                continue
            seen += 1
            paving = is_paving(hc)
            assert paving_clauses(hc) == [paving] * 3
            outcomes.add(paving)
        assert outcomes == {True, False}

    def test_paving_representable_agrees(self):
        rng = random.Random(92)
        seen = 0
        while seen < 40:
            hc = random_simple_hc(rng, 5)
            if hc.rank != 3:
                continue
            if not is_paving(hc):
                continue
            seen += 1
            assert paving_representable(hc) == is_boolean_representable(hc)


class TestExhaustiveSmallGround:
    def test_flat_characterizations_agree_all_4point_collections(self):
        # definitional flats and the circuit criterion coincide on every
        # hereditary collection over four points (167 collections)
        from conftest import all_hcs

        hcs = all_hcs(4)
        assert len(hcs) == 167
        for hc in hcs:
            for r in range(5):
                for c in itertools.combinations(hc.ground, r):
                    assert hc.is_flat(c) == is_flat_by_circuits(hc, c)

    def test_representable_implies_pr_five_points(self):
        from conftest import all_simple_hcs

        for hc in all_simple_hcs(5):
            if is_boolean_representable(hc):
                assert hc.satisfies_pr()


# -- the label-set versions of the mask methods, kept here as oracles ---------------


def label_facets(hc):
    h = hc.independents
    return frozenset(s for s in h if not any(s < t for t in h))


def label_rank(hc):
    return max(len(s) for s in hc.independents)


def label_is_simple(hc):
    return all(frozenset(c) in hc.independents
               for r in (1, 2) for c in itertools.combinations(hc.ground, r))


def label_is_matroid(hc):
    h = hc.independents
    by_size = {}
    for s in h:
        by_size.setdefault(len(s), []).append(s)
    for k, js in by_size.items():
        for j in js:
            for i in by_size.get(k + 1, []):
                if not any(j | {x} in h for x in i - j):
                    return False
    return True


def label_satisfies_pr(hc):
    h = hc.independents
    points = [p for p in hc.ground if frozenset((p,)) in h]
    for j in h:
        if not j:
            continue
        for p in points:
            if not any((j - {x}) | {p} in h for x in j):
                return False
    return True


def label_is_paving(hc):
    r = label_rank(hc)
    if r <= 2:
        raise RankTooSmall(r)
    return all(frozenset(c) in hc.independents
               for s in range(r) for c in itertools.combinations(hc.ground, s))


def label_paving_representable(hc):
    r = label_rank(hc)
    if r <= 2:
        raise RankTooSmall(r)
    return all(any(x not in hc.closure(s - {x}) for x in s)
               for s in hc.independents if len(s) == r)


def label_truncation(hc, k):
    return HereditaryCollection(hc.ground, frozenset(s for s in hc.independents
                                                     if len(s) <= k))


def label_weak_map(phi, a, b):
    for r in range(len(a.ground) + 1):
        for c in itertools.combinations(a.ground, r):
            x = frozenset(c)
            img = frozenset(phi[e] for e in x)
            if len(img) == len(x) and img in b.independents \
                    and x not in a.independents:
                return False
    return True


def oracle_collections():
    """Every collection on one to four points, then seeded random ones on 5-7."""
    rng = random.Random(97)
    extra = [random_hc(rng, rng.randint(5, 7)) for _ in range(40)]
    extra += [random_simple_hc(rng, rng.randint(5, 7)) for _ in range(20)]
    return [hc for n in range(1, 5) for hc in all_hcs(n)] + extra


def outcome(f, *args):
    try:
        return f(*args)
    except RankTooSmall:
        return RankTooSmall


class TestMaskFormatOracles:
    """The collection stores H as masks only; each mask-based query agrees
    with the label-set version it replaced, on both of its outcomes."""

    HCS = oracle_collections()

    def test_structure_matches_label_sets(self):
        for hc in self.HCS:
            assert hc.facets == label_facets(hc)
            assert hc.rank == label_rank(hc)
            assert hc.independents == frozenset(map(hc.set_of, hc.h_masks))
            assert hc_from_json(hc_to_json(hc)) == hc

    @pytest.mark.parametrize("new,old", [
        (HereditaryCollection.is_simple, label_is_simple),
        (HereditaryCollection.is_matroid, label_is_matroid),
        (HereditaryCollection.satisfies_pr, label_satisfies_pr),
        (is_paving, label_is_paving),
        (paving_representable, label_paving_representable),
    ], ids=["is_simple", "is_matroid", "satisfies_pr", "is_paving",
            "paving_representable"])
    def test_predicate_matches_label_sets(self, new, old):
        seen = set()
        for hc in self.HCS:
            got = outcome(new, hc)
            assert got == outcome(old, hc), hc
            seen.add(got)
        assert {True, False} <= seen

    def test_flats_match_definition(self):
        for hc in self.HCS:
            expected = {frozenset(c) for r in range(len(hc.ground) + 1)
                        for c in itertools.combinations(hc.ground, r) if hc.is_flat(c)}
            assert hc.flats().members == expected

    def test_truncation_matches_label_sets(self):
        for hc in self.HCS:
            for k in range(hc.rank + 1):
                t = truncation(hc, k)
                assert t == label_truncation(hc, k)
                assert t.independents == label_truncation(hc, k).independents

    def test_union_intersection_match_label_sets(self):
        rng = random.Random(98)
        four = all_hcs(4)
        for _ in range(300):
            a, b = rng.choice(four), rng.choice(four)
            assert union_hc(a, b) == HereditaryCollection(
                a.ground, a.independents | b.independents)
            assert intersection_hc(a, b) == HereditaryCollection(
                a.ground, a.independents & b.independents)

    def test_weak_map_matches_label_sets(self):
        from boolrep.maps import hc_weak_map

        rng = random.Random(99)
        four = all_hcs(4)
        seen = set()
        for _ in range(400):
            a, b = rng.choice(four), rng.choice(four)
            phi = {e: rng.choice(b.ground) for e in a.ground}
            if rng.random() < 0.5:  # half of the maps are bijections
                phi = dict(zip(a.ground, rng.sample(b.ground, len(b.ground))))
            got = hc_weak_map(phi, a, b)
            assert got == label_weak_map(phi, a, b)
            seen.add(got)
        assert seen == {True, False}

    def test_three_constructors_agree(self):
        for hc in self.HCS:
            made = [HereditaryCollection(hc.ground, hc.independents),
                    HereditaryCollection.from_facets(hc.ground, hc.facets),
                    HereditaryCollection.from_masks(hc.ground, hc.h_masks)]
            assert all(m == hc for m in made)
            assert {hash(m) for m in made} == {hash(hc)}

    def test_from_masks_validates(self):
        with pytest.raises(EmptyFamily):
            HereditaryCollection.from_masks("12", [])
        with pytest.raises(NotDownwardClosed):
            HereditaryCollection.from_masks("12", [0, 3])
        with pytest.raises(FormatError):
            HereditaryCollection.from_masks("12", [0, 4])
        with pytest.raises(FormatError):
            HereditaryCollection.from_masks("11", [0])
        with pytest.raises(FormatError):
            HereditaryCollection.from_facets("12", [["1"], ["3"]])
