"""Lattice construction, the matrix correspondence, and c-independence."""

import itertools
import random

import pytest

from boolrep.errors import (
    BottomElement,
    CycleError,
    FormatError,
    NotALattice,
    NotIntersectionClosed,
    ZeroColumn,
)
from boolrep.lattice import (
    FiniteLattice,
    FlatFamily,
    VGenLattice,
    c_independence_chain,
    c_independent,
    closure_in_lattice,
    congruent,
    flats_of_matrix,
    full_matrix,
    hasse_dot,
    lattice_from_covers,
    lattice_from_matrix,
    lattice_from_text,
    lattice_isomorphic,
    lattice_to_text,
    matrix_of,
    vgen_isomorphic,
)
from boolrep.geometry import lattice_hyperplanes
from boolrep.sbcore import BoolMatrix, columns_independent, matrix_rank
from conftest import (
    all_lattice_masks,
    all_lattices,
    all_vgens,
    c_independence_chain_by_search,
    down_sets_by_reachability,
    fs,
    full_matrix_by_rows,
    lattices_up_to,
    matrix_of_by_rows,
    maximal_proper_by_labels,
    random_vgen,
    sorted_members,
    trace_by_leq,
)


def chain3():
    return lattice_from_covers(["B", "a", "T"], [("B", "a"), ("a", "T")])


def diamond():
    return lattice_from_covers(
        ["B", "a", "b", "T"], [("B", "a"), ("B", "b"), ("a", "T"), ("b", "T")])


def boolean_cube(n):
    elems = ["".join(sorted(c)) or "o" for r in range(n + 1)
             for c in itertools.combinations("abcdef"[:n], r)]
    pairs = []
    for x in elems:
        for y in elems:
            sx = set(x) - {"o"}
            sy = set(y) - {"o"}
            if sx < sy and len(sy) == len(sx) + 1:
                pairs.append((x, y))
    return lattice_from_covers(elems, pairs)


class TestConstruction:
    def test_chain(self):
        l = chain3()
        assert l.bottom == "B" and l.top == "T"
        assert l.join("B", "a") == "a" and l.meet("a", "T") == "a"

    def test_diamond(self):
        l = diamond()
        assert l.join("a", "b") == "T" and l.meet("a", "b") == "B"

    def test_missing_join_rejected(self):
        # a, b both below c, d: the pair (a, b) has two minimal upper bounds
        with pytest.raises(NotALattice):
            lattice_from_covers(
                ["B", "a", "b", "c", "d", "T"],
                [("B", "a"), ("B", "b"), ("a", "c"), ("a", "d"),
                 ("b", "c"), ("b", "d"), ("c", "T"), ("d", "T")])

    def test_one_element_lattice_rejected_for_generation(self):
        l = lattice_from_covers(["x"], [])
        with pytest.raises(NotALattice):
            VGenLattice(l, ())

    def test_duplicate_labels_rejected(self):
        # the constructor owns label uniqueness, whichever builder calls it:
        # here a chain of two elements, and from_family over a ground whose
        # labels make the point {"a,b"} and the pair {a, b} both "{a,b}"
        with pytest.raises(FormatError, match="^duplicate element labels$"):
            FiniteLattice(("a", "a"), (1, 3))
        with pytest.raises(FormatError, match="^duplicate element labels$"):
            FiniteLattice.from_family(("a", "b", "a,b"), (0, 1, 2, 3, 4, 7))

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            lattice_from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_from_covers_closure_matches_reachability(self):
        class DownSets(FiniteLattice):  # keeps the closure, skips the lattice checks
            def __init__(self, labels, down):
                self.down = down

        rng = random.Random(20000)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(1, 9)
            labels = [f"e{i}" for i in range(n)]
            order = rng.sample(labels, n)
            pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]
                     if rng.random() < 0.3]
            bad = rng.random()
            if bad < 0.2:  # a pair against the order: usually a cycle
                pairs.insert(rng.randint(0, len(pairs)),
                             (rng.choice(labels), rng.choice(labels)))
            elif bad < 0.25:
                pairs.insert(rng.randint(0, len(pairs)), (rng.choice(labels), "x"))
            elif bad < 0.3:
                labels.append(rng.choice(labels))
            rng.shuffle(labels)
            expect = down_sets_by_reachability(labels, pairs)
            try:
                got = DownSets.from_covers(labels, pairs).down
            except (CycleError, FormatError) as e:
                got = type(e), str(e)
            assert got == expect, (labels, pairs)
            outcomes.add(expect[0] if isinstance(expect[0], type) else "closure")
        assert outcomes == {"closure", CycleError, FormatError}

    def test_redundant_cover_pairs_are_reduced(self):
        l = lattice_from_covers(["B", "a", "T"],
                                [("B", "a"), ("a", "T"), ("B", "T")])
        assert sorted(l.cover_pairs()) == [("B", "a"), ("a", "T")]


    def test_from_covers_matches_pairwise_scan(self):
        accepted = rejected = 0
        for labels, pairs in oracle_inputs():
            expect = brute_lattice(labels, pairs)
            try:
                lat = lattice_from_covers(labels, pairs)
            except NotALattice as e:
                assert expect is None, (labels, pairs)
                a, b = e.args[0]
                assert {a, b} <= set(labels)
                rejected += 1
                continue
            assert expect is not None, (labels, pairs)
            join, meet, bottom, top, covers = expect
            assert (lat.bottom, lat.top) == (bottom, top)
            assert lat.cover_pairs() == covers
            for a in labels:
                for b in labels:
                    assert lat.join(a, b) == join[a, b]
                    assert lat.meet(a, b) == meet[a, b]
            accepted += 1
        assert accepted > 0 and rejected > 0

    def test_from_family_covers_are_inclusion_covers(self):
        # from_family orders the members by inclusion; the covers are the
        # pairs a < b with no member strictly between them
        rng = random.Random(17)
        for _ in range(30):
            members = {frozenset(range(5))}
            for _ in range(6):
                new = frozenset(x for x in range(5) if rng.random() < 0.5)
                members |= {new} | {new & m for m in members}
            mask = {s: sum(1 << x for x in s) for s in members}
            lat, by_mask = FiniteLattice.from_family(
                tuple(map(str, range(5))), mask.values())
            labels = {s: by_mask[mask[s]] for s in members}
            assert lat.cover_pairs() == sorted(
                (labels[a], labels[b]) for a in members for b in members
                if a < b and not any(a < c < b for c in members))


def brute_lattice(elements, pairs):
    """Order, join and meet by the pairwise scan, or None for a non-lattice.

    The order is the reflexive-transitive closure of the pairs; the join of
    a and b is the unique minimal common upper bound, the meet the unique
    maximal common lower bound.  Returns (join, meet, bottom, top, covers).
    """
    le = {(a, b) for a in elements for b in elements if a == b} | set(pairs)
    for k in elements:
        le |= {(a, b) for a, m in le if m == k for n, b in le if n == k}

    def unique_extreme(cands, below):
        ext = [c for c in cands if not any(d != c and below(d, c) for d in cands)]
        return ext[0] if len(ext) == 1 else None

    join, meet = {}, {}
    for a in elements:
        for b in elements:
            up = [c for c in elements if (a, c) in le and (b, c) in le]
            lo = [c for c in elements if (c, a) in le and (c, b) in le]
            join[a, b] = unique_extreme(up, lambda x, y: (x, y) in le)
            meet[a, b] = unique_extreme(lo, lambda x, y: (y, x) in le)
            if join[a, b] is None or meet[a, b] is None:
                return None
    bottom = top = elements[0]
    for x in elements:
        bottom, top = meet[bottom, x], join[top, x]
    covers = sorted((a, b) for a, b in le if a != b and not any(
        c not in (a, b) and (a, c) in le and (c, b) in le for c in elements))
    return join, meet, bottom, top, covers


def _bits(x):
    return [i for i in range(x.bit_length()) if (x >> i) & 1]


def oracle_inputs():
    """Every lattice on at most 6 elements, then seeded random DAGs on at most
    7 (most are not lattices), with shuffled element orders."""
    rng = random.Random(4242)
    for n in range(1, 7):
        for downs in all_lattice_masks(n):
            labels = [f"x{i}" for i in range(n)]
            pairs = [(labels[i], labels[j]) for j in range(n) for i in _bits(downs[j])
                     if i != j]
            rng.shuffle(labels)
            yield labels, pairs
    yield ["B", "a", "b"], [("B", "a"), ("B", "b")]  # every meet, no top
    for _ in range(400):
        n = rng.randint(1, 7)
        labels = [f"y{i}" for i in range(n)]  # edges go up in index: acyclic
        p = rng.choice((0.25, 0.4, 0.6))
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        rng.shuffle(labels)
        yield labels, pairs


class TestHeightAndIrreducibles:
    def test_two_chain(self):
        l = lattice_from_covers(["B", "T"], [("B", "T")])
        assert l.height() == 1
        assert l.sji_elements() == fs("T")
        assert l.smi_elements() == fs("B")

    def test_boolean_cube(self):
        l = boolean_cube(3)
        assert l.height() == 3
        assert l.sji_elements() == fs("a", "b", "c")

    def test_sji_is_minimum_generating_set(self):
        for lat in lattices_up_to(6):
            gens = lat.sji_elements()
            VGenLattice(lat, tuple(sorted(gens, key=lat.index)))  # validates
            for x in gens:
                smaller = tuple(sorted(gens - {x}, key=lat.index))
                with pytest.raises(NotALattice):
                    VGenLattice(lat, smaller)

    def test_enumeration_counts(self):
        assert [len(all_lattices(n)) for n in range(1, 8)] == \
            [1, 1, 1, 2, 5, 15, 53]


class TestMatrixOf:
    def test_two_chain(self):
        l = lattice_from_covers(["B", "T"], [("B", "T")])
        vg = VGenLattice(l, ("T",))
        m = matrix_of(vg)
        rows = dict(zip(m.row_labels, m.rows))
        assert rows["T"] == (0,) and rows["B"] == (1,)

    def test_worked_example_matrix(self):
        # the 8-element flat lattice of the 3x5 worked example
        m0 = BoolMatrix.build(
            [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0)],
            col_labels=[str(i) for i in range(1, 6)])
        vg = lattice_from_matrix(m0)
        assert vg.lattice.height() == 3
        printed = BoolMatrix.build(
            [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0), (1, 0, 1, 1, 1),
             (1, 1, 0, 1, 1), (1, 1, 1, 0, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
            col_labels=[str(i) for i in range(1, 6)])
        assert congruent(matrix_of(vg), printed)

    def test_structural_clauses_on_random_lattices(self):
        # distinct rows/columns, a zero row, an all-ones row, rows sum-closed
        rng = random.Random(2024)
        for _ in range(100):
            vg = random_vgen(rng)
            m = matrix_of(vg)
            assert len(set(m.rows)) == m.n_rows
            assert len(set(zip(*m.rows))) == m.n_cols
            assert tuple([0] * m.n_cols) in m.rows
            assert tuple([1] * m.n_cols) in m.rows
            rowset = set(m.rows)
            for r, s in itertools.combinations(rowset, 2):
                assert tuple(a | b for a, b in zip(r, s)) in rowset


class TestTraceOwners:
    """The generated lattice's traces, its matrices and its hyperplanes
    against the constructions they replaced: every generating set of every
    lattice of two to six elements, then random generated lattices."""

    @staticmethod
    def vgens():
        for lat in lattices_up_to(6):
            yield from all_vgens(lat)
        rng = random.Random(3030)
        for _ in range(40):
            yield random_vgen(rng)

    def test_owners_match_oracles(self):
        for vg in self.vgens():
            lat = vg.lattice
            traces = {x: trace_by_leq(vg, x) for x in lat.labels}
            assert {x: vg.z_of(x) for x in lat.labels} == traces
            assert matrix_of(vg) == matrix_of_by_rows(vg)
            assert full_matrix(lat) == full_matrix_by_rows(lat)
            assert lattice_hyperplanes(vg) == maximal_proper_by_labels(
                traces.values(), frozenset(vg.gens))

    def test_full_matrix_of_one_element(self):
        (lat,) = all_lattices(1)
        assert full_matrix(lat) == full_matrix_by_rows(lat)
        assert full_matrix(lat).ones_masks == (0,)


class TestFlatsOfMatrix:
    def test_worked_example(self):
        m = BoolMatrix.build(
            [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0)],
            col_labels=[str(i) for i in range(1, 6)])
        fam, y = flats_of_matrix(m)
        assert fam.members == frozenset(map(frozenset, [
            "", "2", "3", "4", "23", "24", "345", "12345"]))
        assert y["1"] == fs(*"12345")
        assert y["2"] == fs("2")
        assert y["5"] == fs(*"345")

    def test_identity_complement(self):
        m = BoolMatrix.build([(0, 1, 1), (1, 0, 1), (1, 1, 0)],
                             col_labels=["1", "2", "3"])
        fam, _ = flats_of_matrix(m)
        assert fam.members == frozenset(map(frozenset, ["", "1", "2", "3", "123"]))

    def test_zero_row_contributes_full_flat(self):
        m = BoolMatrix.build([(0, 0, 0), (1, 1, 1)], col_labels=["1", "2", "3"])
        fam, _ = flats_of_matrix(m)
        assert fs("1", "2", "3") in fam.members

    def test_zero_column_rejected(self):
        m = BoolMatrix.build([(0, 1), (0, 1)], col_labels=["a", "b"])
        with pytest.raises(ZeroColumn):
            flats_of_matrix(m)


class TestFlatFamily:
    GROUND = ("a", "b", "c")
    LABELS = [fs(), fs("a"), fs("b"), fs("a", "b", "c")]

    def test_labels_and_masks_agree(self):
        by_labels = FlatFamily(self.GROUND, self.LABELS)
        by_masks = FlatFamily.from_masks(self.GROUND, frozenset({0, 1, 2, 7}))
        unchecked = FlatFamily.unchecked(self.GROUND, frozenset({7, 2, 1, 0}))
        assert by_labels == by_masks == unchecked
        assert hash(by_labels) == hash(by_masks) == hash(unchecked)
        assert by_labels.masks == frozenset({0, 1, 2, 7})
        assert by_masks.members == by_labels.members == frozenset(self.LABELS)
        assert sorted_members(by_masks) == self.LABELS
        assert by_masks.sorted_masks() == [0, 1, 2, 7]
        assert fs("a") in by_masks and fs("c") not in by_masks
        assert len(by_masks) == 4 and by_masks.full

    def test_label_outside_ground(self):
        with pytest.raises(NotIntersectionClosed, match="outside ground"):
            FlatFamily(self.GROUND, self.LABELS + [fs("a", "z")])

    def test_invalid_masks(self):
        with pytest.raises(NotIntersectionClosed, match="full ground set"):
            FlatFamily.from_masks(self.GROUND, frozenset({0, 1}))
        with pytest.raises(NotIntersectionClosed):
            FlatFamily.from_masks(self.GROUND, frozenset({3, 5, 7}))  # no {a}

    def test_closure_of(self):
        fam = FlatFamily(self.GROUND, self.LABELS)
        assert fam.closure_of(()) == fs()
        assert fam.closure_of(("a",)) == fs("a")
        assert fam.closure_of(("c",)) == fs("a", "b", "c")
        assert fam.closure_of(("z",)) == fs("a", "b", "c")  # outside E


class TestRoundTrips:
    def test_boolean_square(self):
        l = boolean_cube(2)
        vg = VGenLattice(l, ("a", "b"))
        back = lattice_from_matrix(matrix_of(vg))
        assert vgen_isomorphic(vg, back)

    def test_matrix_class_round_trip_random(self):
        # matrices of generated lattices satisfy the structural clauses, and
        # expanding their flat lattice recovers them up to congruence
        rng = random.Random(99)
        for _ in range(100):
            vg = random_vgen(rng)
            m = matrix_of(vg)
            again = matrix_of(lattice_from_matrix(m))
            assert congruent(m, again)

    def test_lattice_round_trip_is_identity(self):
        # the canonical map element -> generator trace is an isomorphism
        rng = random.Random(100)
        for _ in range(50):
            vg = random_vgen(rng)
            back = lattice_from_matrix(matrix_of(vg))
            assert vgen_isomorphic(vg, back)
            lat = vg.lattice
            traces = {x: vg.z_of(x) for x in lat.labels}
            for x, y in itertools.combinations(lat.labels, 2):
                assert lat.leq(x, y) == (traces[x] <= traces[y])


class TestCIndependence:
    def test_pairs_always_independent(self):
        for lat in lattices_up_to(6):
            nb = [x for x in lat.labels if x != lat.bottom]
            vg = VGenLattice(lat, tuple(nb))
            for pair in itertools.combinations(nb, 2):
                assert c_independent(vg, pair)

    def test_cube_atoms(self):
        l = boolean_cube(3)
        vg = VGenLattice(l, ("a", "b", "c"))
        chain = c_independence_chain(vg, ("a", "b", "c"))
        assert chain is not None and len(chain) == 3

    def test_bottom_rejected(self):
        l = chain3()
        vg = VGenLattice(l, ("a", "T"))
        with pytest.raises(BottomElement):
            c_independent(vg, ("B",))

    def test_agrees_with_witness_search(self):
        rng = random.Random(7)
        for _ in range(50):
            vg = random_vgen(rng)
            lat = vg.lattice
            m = full_matrix(lat)
            nb = [x for x in lat.labels if x != lat.bottom]
            vg_all = VGenLattice(lat, tuple(nb))
            for k in range(0, min(4, len(nb)) + 1):
                for combo in itertools.combinations(nb, k):
                    assert c_independent(vg_all, combo) == \
                        columns_independent(m, combo)

    def test_certificates_match_search_exhaustive(self):
        for lat in lattices_up_to(7):
            nb = [x for x in lat.labels if x != lat.bottom]
            vg = VGenLattice(lat, tuple(nb))
            for k in range(len(nb) + 1):
                for combo in itertools.combinations(nb, k):
                    assert c_independence_chain(vg, combo) == \
                        c_independence_chain_by_search(vg, combo)

    def test_certificates_match_search_random(self):
        rng = random.Random(9)
        for _ in range(40):
            vg = random_vgen(rng)
            nb = [x for x in vg.lattice.labels if x != vg.lattice.bottom]
            for k in range(min(5, len(nb)) + 1):
                for combo in itertools.combinations(nb, k):
                    assert c_independence_chain(vg, combo) == \
                        c_independence_chain_by_search(vg, combo)

    def test_chain_certificate_has_decreasing_suffix_joins(self):
        rng = random.Random(8)
        for _ in range(30):
            vg = random_vgen(rng)
            lat = vg.lattice
            nb = [x for x in lat.labels if x != lat.bottom]
            vg_all = VGenLattice(lat, tuple(nb))
            for combo in itertools.combinations(nb, min(3, len(nb))):
                chain = c_independence_chain(vg_all, combo)
                if chain is None:
                    continue
                suffix = [lat.join_of(chain[i:]) for i in range(len(chain))]
                for a, b in zip(suffix, suffix[1:]):
                    assert a != b and lat.leq(b, a)


class TestClosure:
    def test_empty_set(self):
        l = chain3()
        vg = VGenLattice(l, ("a", "T"))
        assert closure_in_lattice(vg, ()) == fs()

    def test_worked_example_pair(self):
        m = BoolMatrix.build(
            [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0)],
            col_labels=[str(i) for i in range(1, 6)])
        vg = lattice_from_matrix(m)
        g2, g3 = "{2}", "{3}"  # the column flats of columns 2 and 3
        assert {g2, g3} <= set(vg.gens)
        # the join of the two point flats is the flat {2,3}: no other
        # generator lies below it, so the closure is exactly the pair
        assert vg.lattice.join(g2, g3) == "{2,3}"
        assert closure_in_lattice(vg, (g2, g3)) == fs(g2, g3)

    def test_closure_operator_laws(self):
        rng = random.Random(11)
        for _ in range(50):
            vg = random_vgen(rng)
            gens = vg.gens
            for r in range(min(3, len(gens)) + 1):
                for xs in itertools.combinations(gens, r):
                    c = closure_in_lattice(vg, xs)
                    assert set(xs) <= c
                    assert closure_in_lattice(vg, c) == c
                    for bigger in itertools.combinations(gens, min(r + 1, len(gens))):
                        if set(xs) <= set(bigger):
                            assert c <= closure_in_lattice(vg, bigger)


class TestRankEqualsHeight:
    def test_random_lattices(self):
        rng = random.Random(21)
        for _ in range(50):
            vg = random_vgen(rng)
            h = vg.lattice.height()
            assert matrix_rank(matrix_of(vg)) == h
            assert matrix_rank(full_matrix(vg.lattice)) == h


class TestCongruence:
    def test_permuted_matrices(self):
        m = BoolMatrix.build([(1, 0, 1), (0, 1, 1)], ["a", "b", "c"])
        p = BoolMatrix.build([(1, 1, 0), (1, 0, 1)], ["x", "y", "z"])
        assert congruent(m, p)

    def test_non_congruent(self):
        m = BoolMatrix.build([(1, 0), (0, 1)])
        p = BoolMatrix.build([(1, 1), (0, 1)])
        assert not congruent(m, p)

    def test_lattice_isomorphism(self):
        assert lattice_isomorphic(diamond(), boolean_cube(2))  # both are 2^2
        assert not lattice_isomorphic(chain3(), diamond())


class TestTextAndDot:
    def test_round_trip(self):
        l = diamond()
        vg = VGenLattice(l, ("a", "b"))
        text = lattice_to_text(vg)
        back = lattice_from_text(text)
        assert isinstance(back, VGenLattice)
        assert back.gens == vg.gens
        assert back.lattice.cover_pairs() == l.cover_pairs()

    @pytest.mark.parametrize("header", ["elements: zz yy", "gens: zz"])
    def test_repeated_header_line_refused(self, header):
        # a second elements: or gens: line must not replace the first
        text = lattice_to_text(VGenLattice(diamond(), ("a", "b")))
        with pytest.raises(FormatError, match="repeated"):
            lattice_from_text(f"{header}\n{text}")

    def test_dot_marks_generators(self):
        vg = VGenLattice(diamond(), ("a", "b"))
        dot = hasse_dot(vg)
        assert '"a" [label="a*"]' in dot
        assert '"B" -> "a"' in dot


class TestChainEquivalenceLarger:
    def test_suffix_chain_iff_witness_all_lattices_8(self):
        # the two characterizations agree on every subset of bounded size
        # over every lattice with at most 8 elements
        from conftest import all_lattices

        for lat in all_lattices(8):
            nb = [x for x in lat.labels if x != lat.bottom]
            vg = VGenLattice(lat, tuple(nb))
            m = full_matrix(lat)
            h = lat.height()
            for k in range(min(h, len(nb)) + 1):
                for combo in itertools.combinations(nb, k):
                    assert c_independent(vg, combo) == \
                        columns_independent(m, combo)

    def test_triple_independence_via_point_closure(self):
        # a 3-subset of the generators is independent exactly when some
        # ordering leaves the first point outside the closure of the others
        rng = random.Random(812)
        for _ in range(40):
            vg = random_vgen(rng)
            gens = vg.gens
            for combo in itertools.combinations(gens, min(3, len(gens))):
                if len(combo) != 3:
                    continue
                expected = any(
                    combo[i] not in closure_in_lattice(
                        vg, [combo[j] for j in range(3) if j != i])
                    for i in range(3))
                assert c_independent(vg, combo) == expected
