"""Join maps, factorizations, quotients, and the closure correspondences."""

import itertools
import random
from unittest import mock

import pytest

from boolrep.errors import (
    FormatError,
    JoinViolation,
    NotACongruence,
    NotADownset,
    NotInjective,
    NotIntersectionClosed,
    NotJoinClosed,
    NotRepresentable,
    NotSimple,
    NotSurjective,
    TopInIdeal,
)
from boolrep.hereditary import HereditaryCollection, example_bigex, example_unio, \
    flat_lattice, union_hc, uniform
from boolrep.lattice import (
    VGenLattice,
    lattice_from_covers,
    lattice_isomorphic,
)
from boolrep.maps import (
    VCongruence,
    VMap,
    closure_from_congruence,
    compose,
    compose_steps,
    congruence_from_closure,
    congruence_from_family,
    csi_factorize,
    family_from_congruence,
    hc_strong_map,
    hc_weak_map,
    identity_map,
    induced_flat_map,
    is_strong_lattice_map,
    is_vmap,
    map_from_text,
    map_to_text,
    mpi_factorize,
    mps_factorize,
    quotient_by_subsemilattice,
    quotient_lattice,
    rees_quotient,
    validate_vmap,
)
from conftest import (
    all_lattices,
    congruence_failure_pairwise,
    fs,
    lattices_up_to,
    quotient_by_pair_scan,
    random_vgen,
    raw_subsemilattice_relation_transitive,
    strong_lattice_map_by_labels,
)


def chain(n, names=None):
    labels = names or [f"c{i}" for i in range(n)]
    return lattice_from_covers(labels, list(zip(labels, labels[1:])))


def diamond():
    return lattice_from_covers(
        ["B", "a", "b", "T"], [("B", "a"), ("B", "b"), ("a", "T"), ("b", "T")])


def all_join_congruences(lat):
    """Every join-compatible partition, by brute force over set partitions."""
    labels = list(lat.labels)

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in partitions(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1:]
            yield [[first]] + p

    for p in partitions(labels):
        blocks = tuple(sorted((frozenset(b) for b in p), key=sorted))
        try:
            yield VCongruence(lat, blocks)
        except NotACongruence:
            continue


class TestVMap:
    def test_identity_valid(self):
        for lat in all_lattices(5):
            assert is_vmap(identity_map(lat))

    def test_strong_but_not_join_inclusion(self):
        # two atoms joining directly to the top, included into the lattice
        # where their join is an intermediate element
        small = diamond()
        big = lattice_from_covers(
            ["B", "a", "b", "c", "T"],
            [("B", "a"), ("B", "b"), ("a", "c"), ("b", "c"), ("c", "T")])
        iota = VMap(small, big, {"B": "B", "a": "a", "b": "b", "T": "T"})
        assert not is_vmap(iota)
        with pytest.raises(JoinViolation):
            validate_vmap(iota)
        src = VGenLattice(small, ("a", "b"))
        tgt = VGenLattice(big, ("a", "b", "T"))
        assert is_strong_lattice_map(iota, src, tgt)

    def test_strong_surjection_not_join(self):
        src_l = lattice_from_covers(
            ["B", "a", "b", "d", "c", "T"],
            [("B", "a"), ("B", "b"), ("B", "d"), ("a", "c"), ("b", "c"),
             ("c", "T"), ("d", "T")])
        tgt_l = lattice_from_covers(
            ["B", "ab", "c", "d", "T"],
            [("B", "ab"), ("B", "d"), ("ab", "c"), ("c", "T"), ("d", "T")])
        phi = VMap(src_l, tgt_l, {"B": "B", "a": "ab", "b": "ab", "d": "d",
                                  "c": "c", "T": "T"})
        assert not is_vmap(phi)
        src = VGenLattice(src_l, ("a", "b", "d"))
        tgt = VGenLattice(tgt_l, ("ab", "c", "d"))
        assert phi.is_surjective()
        assert is_strong_lattice_map(phi, src, tgt)

    def test_product_projection_is_join_map(self):
        # componentwise join makes the projection preserve joins
        base = diamond()
        labels = [f"{x}|{y}" for x in base.labels for y in base.labels]
        pairs = []
        for x1, y1 in itertools.product(base.labels, repeat=2):
            for x2, y2 in itertools.product(base.labels, repeat=2):
                if (x1, y1) != (x2, y2) and base.leq(x1, x2) and base.leq(y1, y2):
                    pairs.append((f"{x1}|{y1}", f"{x2}|{y2}"))
        prod = lattice_from_covers(labels, pairs)
        proj = VMap(prod, base, {f"{x}|{y}": x for x in base.labels
                                 for y in base.labels})
        assert is_vmap(proj)

    def test_compose(self):
        lat = diamond()
        phi = identity_map(lat)
        assert compose(phi, phi).mapping == phi.mapping

    def test_every_join_map_in_flg_is_strong(self):
        rng = random.Random(17)
        for _ in range(20):
            vg = random_vgen(rng, universe=3, seeds=3)
            lat = vg.lattice
            for rho in itertools.islice(all_join_congruences(lat), 10):
                q, proj = quotient_lattice(lat, rho, vg.gens)
                if proj.target_gens:
                    tgt = VGenLattice(q, proj.target_gens)
                    assert is_strong_lattice_map(proj, vg, tgt)

    def test_strong_map_matches_label_scan(self):
        # total maps, join maps or not, that send each element to the
        # bottom or to a random element: strong ones and others
        rng = random.Random(1718)
        outcomes = set()
        for _ in range(200):
            src, tgt = (random_vgen(rng, universe=3, seeds=3) for _ in range(2))
            phi = VMap(src.lattice, tgt.lattice, {
                x: rng.choice((tgt.lattice.bottom, *tgt.lattice.labels))
                for x in src.lattice.labels})
            got = is_strong_lattice_map(phi, src, tgt)
            assert got == strong_lattice_map_by_labels(phi, src, tgt)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_text_round_trip(self):
        lat = diamond()
        phi = identity_map(lat)
        text = map_to_text(phi)
        back = map_from_text(text, lat, lat)
        assert back.mapping == phi.mapping

    @pytest.mark.parametrize("extra", ["map: Z -> a", "map: a -> b"],
                             ids=["outside-source", "repeated"])
    def test_text_refuses_a_stray_line(self, extra):
        # a line for an element outside the source, or a second line for one
        # inside it, is a format error, not an extra or overriding entry
        lat = diamond()
        text = map_to_text(identity_map(lat)) + extra + "\n"
        with pytest.raises(FormatError):
            map_from_text(text, lat, lat)


class TestFactorization:
    def test_bijective_yields_empty_lists(self):
        lat = diamond()
        phi = identity_map(lat)
        assert mps_factorize(phi) == []
        assert mpi_factorize(phi) == []
        m, i = csi_factorize(phi)
        assert m == [] and i == []

    def test_wrong_direction_errors(self):
        small = chain(2)
        big = chain(3)
        inc = VMap(small, big, {"c0": "c0", "c1": "c2"})
        with pytest.raises(NotSurjective):
            mps_factorize(inc)
        q = VMap(big, small, {"c0": "c0", "c1": "c0", "c2": "c1"})
        with pytest.raises(NotInjective):
            mpi_factorize(q)

    def test_inclusion_chain_three_insertions(self):
        # the 2-chain into the 5-element lattice via three single insertions
        small = chain(2, ["B", "T"])
        big = lattice_from_covers(
            ["B", "b", "c", "a", "T"],
            [("B", "b"), ("B", "c"), ("b", "a"), ("c", "a"), ("a", "T")])
        inc = VMap(small, big, {"B": "B", "T": "T"})
        steps = mpi_factorize(inc)
        assert len(steps) == 3
        assert {s.added for s in steps} == {"a", "b", "c"}
        total = compose_steps(steps)
        assert total.mapping == inc.mapping

    def test_no_generator_compatible_insertion_chain(self):
        # with generators {T} and {T,b,c} no single-insertion factorization
        # carries generating sets through every intermediate lattice
        big = lattice_from_covers(
            ["B", "b", "c", "a", "T"],
            [("B", "b"), ("B", "c"), ("b", "a"), ("c", "a"), ("a", "T")])
        target_gens = fs("T", "b", "c")
        image = fs("B", "T")

        def _sub(keep):
            kept = sorted(keep, key=big.index)
            pairs = [(x, y) for x in kept for y in kept
                     if x != y and big.leq(x, y)]
            return lattice_from_covers(kept, pairs)

        def gen_sets(sub):
            nonbottom = [x for x in sub.labels if x != sub.bottom]
            for r in range(len(nonbottom) + 1):
                for g in itertools.combinations(nonbottom, r):
                    try:
                        VGenLattice(sub, g)
                    except Exception:
                        continue
                    yield frozenset(g)

        # enumerate genuine single-insertion chains: peel one strictly join
        # irreducible non-image element at a time from the top lattice
        chains = []

        def peel(labels, acc):
            if frozenset(labels) == image:
                chains.append([image, *reversed(acc)])
                return
            sub = _sub(labels)
            for x in sub.sji_elements():
                if x in image:
                    continue
                peel(labels - {x}, acc + [frozenset(labels)])

        peel(frozenset(big.labels), [])
        assert chains  # ungraded factorizations do exist

        found_ok_chain = False
        for chain_fams in chains:
            subs = [_sub(ls) for ls in chain_fams]
            options = [list(gen_sets(s)) for s in subs]
            options[0] = [fs("T")]
            options[-1] = [g for g in options[-1] if g == target_gens]

            def assignable(i, prev):
                if i == len(subs):
                    return True
                for g in options[i]:
                    if prev is None or prev <= (g | {subs[i].bottom}):
                        if assignable(i + 1, g):
                            return True
                return False

            if options[-1] and assignable(0, None):
                found_ok_chain = True
        assert not found_ok_chain

    def test_random_surjections_recompose(self):
        rng = random.Random(23)
        count = 0
        for lat in lattices_up_to(6):
            for rho in itertools.islice(all_join_congruences(lat), 6):
                q, proj = quotient_lattice(lat, rho)
                steps = mps_factorize(proj)
                count += 1
                if steps:
                    total = compose_steps(steps)
                    assert total.mapping == proj.mapping
                    for s in steps:
                        # each step collapses a cover pair with smi lower part
                        src = s.map.source
                        assert src.upper_covers(s.lower) == fs(s.upper)
                else:
                    assert proj.is_injective()
        assert count > 50

    def test_mps_kernels_are_minimal_congruences(self):
        for lat in lattices_up_to(6):
            for b in lat.labels:
                if b == lat.top or len(lat.upper_covers(b)) != 1:
                    continue
                (a,) = lat.upper_covers(b)
                rho = VCongruence.from_pairs(lat, [(a, b)])
                # no nontrivial join congruence sits strictly below rho
                for other in all_join_congruences(lat):
                    fine = all(
                        any(ob <= rb for rb in rho.blocks) for ob in other.blocks)
                    nontrivial = any(len(ob) > 1 for ob in other.blocks)
                    if fine and nontrivial:
                        assert sorted(map(sorted, other.blocks)) == \
                            sorted(map(sorted, rho.blocks))

    def test_mpi_deletion_leaves_lattice(self):
        for lat in lattices_up_to(6):
            for a in lat.sji_elements():
                keep = [x for x in lat.labels if x != a]
                pairs = [(x, y) for x in keep for y in keep
                         if x != y and lat.leq(x, y)]
                sub = lattice_from_covers(keep, pairs)
                inc = VMap(sub, lat, {x: x for x in keep})
                assert is_vmap(inc)

    def test_csi_splits_general_maps(self):
        rng = random.Random(29)
        lat = diamond()
        tgt = lattice_from_covers(
            ["B", "x", "y", "z", "T"],
            [("B", "x"), ("B", "y"), ("x", "z"), ("y", "z"), ("z", "T")])
        phi = VMap(lat, tgt, {"B": "B", "a": "x", "b": "y", "T": "z"})
        if is_vmap(phi):
            mps_steps, mpi_steps = csi_factorize(phi)
            assert len(mpi_steps) >= 1


def _projections(n=6, per_lattice=None):
    """The projection of each join congruence of every lattice of at most n
    elements (the first per_lattice congruences of each), without and with
    the strictly join irreducible elements as generators."""
    for lat in lattices_up_to(n):
        sji = tuple(sorted(lat.sji_elements(), key=lat.index))
        for rho in itertools.islice(all_join_congruences(lat), per_lattice):
            for gens in (None, sji):
                yield quotient_lattice(lat, rho, gens)[1]


def _lattice_key(lat):
    return lat.labels, lat.down


class TestDirectQuotients:
    """MPS steps and subsemilattice quotients name the elements they keep
    and build no congruence; the congruence path stays as their oracle."""

    def test_no_congruence_is_built(self):
        projections = list(_projections())
        subs = []
        for lat in lattices_up_to(6):
            for r in (1, 2, 3):
                for sub in itertools.combinations(lat.labels, r):
                    if all(lat.join(x, y) in sub for x, y in itertools.combinations(sub, 2)):
                        subs.append((lat, sub, _lattice_key(quotient_by_pair_scan(lat, sub))))

        def refuse(self, *args, **kwargs):
            raise AssertionError("a congruence was built")

        # `record` binds __post_init__ when it decorates the class, so the
        # constructor itself is what a patch can replace
        with mock.patch.object(VCongruence, "__init__", refuse):
            for proj in projections:
                steps = mps_factorize(proj)
                if steps:
                    assert compose_steps(steps).mapping == proj.mapping
                else:
                    assert proj.is_injective()
            for lat, sub, expected in subs:
                assert _lattice_key(quotient_by_subsemilattice(lat, sub)) == expected
        assert len(projections) > 900 and len(subs) > 200

    def test_each_step_is_the_pair_quotient(self):
        count = 0
        for proj in _projections(per_lattice=8):
            steps = mps_factorize(proj)
            for k, s in enumerate(steps):
                src = s.map.source
                rho = VCongruence.from_pairs(src, [(s.upper, s.lower)])
                q, oracle = quotient_lattice(src, rho, s.map.source_gens)
                f, g = s.map.mapping, oracle.mapping
                if k < len(steps) - 1:
                    assert _lattice_key(s.map.target) == _lattice_key(q)
                    assert (f, s.map.target_gens) == (g, oracle.target_gens)
                else:  # the final bijection is folded into the last step
                    assert all((f[x] == f[y]) == (g[x] == g[y])
                               for x, y in itertools.combinations(src.labels, 2))
                assert s.map.source_gens == oracle.source_gens
                count += 1
        assert count > 500


class TestRees:
    def test_bottom_ideal_is_isomorphic_copy(self):
        lat = diamond()
        q = rees_quotient(lat, [lat.bottom])
        assert lattice_isomorphic(q, lat)

    def test_square_collapses_to_chain(self):
        lat = diamond()
        q = rees_quotient(lat, ["B", "a"])
        assert lattice_isomorphic(q, chain(3))

    def test_not_a_downset(self):
        lat = diamond()
        with pytest.raises(NotADownset):
            rees_quotient(lat, ["a"])  # missing B below a

    def test_top_rejected(self):
        lat = diamond()
        with pytest.raises(TopInIdeal):
            rees_quotient(lat, ["B", "a", "b", "T"])

    def test_representation_order_is_a_rees_quotient(self):
        # the subfamily lattice modulo the non-representing ideal matches the
        # walk's membership structure on the 4-point example
        from boolrep.reps import RepresentationLattice, enumerate_fisfl

        hc = example_bigex()
        walk = RepresentationLattice(hc)
        fams = [frozenset(hc.mask_of(m) for m in f.members)
                for f in enumerate_fisfl(hc)]
        names = {f: f"F{i}" for i, f in enumerate(sorted(fams, key=sorted))}
        pairs = [(names[a], names[b]) for a in fams for b in fams
                 if a != b and a < b]
        big = lattice_from_covers(list(names.values()), pairs)
        ideal = [names[f] for f in fams if f not in walk]
        q = rees_quotient(big, ideal)
        # the quotient has one element per representing family plus a bottom
        assert len(q) == len(walk) + 1
        # covers above the new bottom are exactly the minimal representations
        atoms = q.atoms()
        minimal = {names[f] for f in walk.minimal_families()}
        assert atoms == frozenset(minimal)


class TestCongruenceCheck:
    def test_matches_pairwise_check(self):
        """Random partitions get the same verdict and the same failing
        triple as the check over every pair of a block."""
        rng = random.Random(61)
        verdicts = set()
        for lat in lattices_up_to(6):
            labels = list(lat.labels)
            for _ in range(80):
                nblocks = rng.randint(1, len(labels))
                where = [rng.randrange(nblocks) for _ in labels]
                blocks = tuple(b for b in (
                    frozenset(x for x, w in zip(labels, where) if w == i)
                    for i in range(nblocks)) if b)
                try:
                    VCongruence(lat, blocks)
                    got = None
                except NotACongruence as e:
                    got = e.args[0]
                assert got == congruence_failure_pairwise(lat, blocks)
                verdicts.add(got is None)
        assert verdicts == {True, False}


class TestClosureCongruence:
    def test_trivial_congruence_is_identity_closure(self):
        lat = diamond()
        rho = VCongruence(lat, tuple(fs(x) for x in lat.labels))
        xi = closure_from_congruence(rho)
        assert all(xi(x) == x for x in lat.labels)

    def test_collapse_pair_closure(self):
        lat = chain(3, ["B", "b", "a"])
        rho = VCongruence.from_pairs(lat, [("a", "b")])
        xi = closure_from_congruence(rho)
        assert xi("b") == "a" and xi("a") == "a" and xi("B") == "B"

    def test_round_trips_exhaustive(self):
        for lat in lattices_up_to(6):
            for rho in all_join_congruences(lat):
                xi = closure_from_congruence(rho)
                back = congruence_from_closure(xi)
                assert sorted(map(sorted, back.blocks)) == \
                    sorted(map(sorted, rho.blocks))

    def test_closure_to_congruence_round_trip(self):
        # closure operators arise exactly as block-maximum maps
        for lat in lattices_up_to(5):
            for rho in all_join_congruences(lat):
                xi = closure_from_congruence(rho)
                again = closure_from_congruence(congruence_from_closure(xi))
                assert again.mapping == xi.mapping

    def test_family_correspondence_round_trip(self):
        rng = random.Random(37)
        for _ in range(25):
            vg = random_vgen(rng, universe=3, seeds=3)
            for rho in all_join_congruences(vg.lattice):
                fam = family_from_congruence(vg, rho)
                back = congruence_from_family(vg, fam)
                assert sorted(map(sorted, back.blocks)) == \
                    sorted(map(sorted, rho.blocks))
                fam2 = family_from_congruence(vg, back)
                assert fam2 == fam

    def test_family_errors(self):
        vg = flat_lattice(example_bigex())  # generators {1} .. {4}

        def fam(*sets):
            return [frozenset("{%s}" % p for p in s) for s in sets]

        with pytest.raises(NotIntersectionClosed, match="outside ground"):
            congruence_from_family(vg, fam("", "1234") + [fs("z")])
        with pytest.raises(NotIntersectionClosed, match="full ground set"):
            congruence_from_family(vg, fam("", "1", "14"))
        with pytest.raises(NotIntersectionClosed, match="not a flat"):
            congruence_from_family(vg, fam("", "1", "2", "12", "1234"))
        with pytest.raises(NotIntersectionClosed) as err:  # {1,4} & {2,4} missing
            congruence_from_family(vg, fam("", "14", "24", "1234"))
        assert sorted(err.value.args[0]) == [["{1}", "{4}"], ["{2}", "{4}"]]


class TestQuotientBySubsemilattice:
    def test_bottom_only_is_identity(self):
        lat = diamond()
        q = quotient_by_subsemilattice(lat, [lat.bottom])
        assert lattice_isomorphic(q, lat)

    def test_whole_lattice_collapses(self):
        lat = diamond()
        q = quotient_by_subsemilattice(lat, lat.labels)
        assert len(q) == 1

    def test_not_join_closed(self):
        lat = diamond()
        with pytest.raises(NotJoinClosed):
            quotient_by_subsemilattice(lat, ["a", "b"])  # join T missing

    def test_random_subsemilattices_give_congruences(self):
        for lat in lattices_up_to(6):
            labels = list(lat.labels)
            for r in (1, 2):
                for sub in itertools.combinations(labels, r):
                    closed = set(sub)
                    for x, y in itertools.combinations_with_replacement(sub, 2):
                        closed.add(lat.join(x, y))
                    q = quotient_by_subsemilattice(lat, closed)
                    assert len(q) <= len(lat)
                    assert raw_subsemilattice_relation_transitive(lat, closed)


    def test_matches_pair_scan(self):
        for lat in lattices_up_to(7):
            for r in (1, 2, 3):
                for sub in itertools.combinations(lat.labels, r):
                    if any(lat.join(x, y) not in sub
                           for x, y in itertools.combinations(sub, 2)):
                        continue
                    q = quotient_by_subsemilattice(lat, sub)
                    oracle = quotient_by_pair_scan(lat, sub)
                    assert (q.labels, q.down) == (oracle.labels, oracle.down)


class TestInducedFlatMap:
    def test_flg_map_induces_join_map_on_flats(self):
        rng = random.Random(43)
        for _ in range(20):
            vg = random_vgen(rng, universe=3, seeds=3)
            lat = vg.lattice
            for rho in itertools.islice(all_join_congruences(lat), 6):
                q, proj = quotient_lattice(lat, rho, vg.gens)
                if not proj.target_gens:
                    continue
                tgt = VGenLattice(q, proj.target_gens)
                fmap = induced_flat_map(proj, vg, tgt)
                # join preservation for the induced map on flat families
                for x, y in itertools.combinations(lat.labels, 2):
                    j = lat.join(x, y)
                    zx, zy, zj = vg.z_of(x), vg.z_of(y), vg.z_of(j)
                    img_join = tgt.z_of(tgt.lattice.join_of(
                        e for e in (fmap[zx] | fmap[zy])))
                    assert fmap[zj] == img_join
                # generator images: closure of the mapped point
                for e in vg.gens:
                    img = {proj.mapping[e]} - {q.bottom}
                    assert fmap[vg.z_of(e)] == tgt.z_of(q.join_of(img))


def simple_hcs_upto3():
    out = []
    for n in (1, 2, 3):
        ground = tuple(str(i) for i in range(1, n + 1))
        base = [frozenset(c) for r in range(min(3, n + 1))
                for c in itertools.combinations(ground, r)]
        hc = HereditaryCollection(ground, frozenset(base))
        out.append(hc)
        if n == 3:
            out.append(HereditaryCollection(
                ground, frozenset(base) | {frozenset(ground)}))
    return out


class TestHcMaps:
    def test_identity_strong_and_weak(self):
        hc = example_bigex()
        ident = {e: e for e in hc.ground}
        assert hc_strong_map(ident, hc, hc)
        assert hc_weak_map(ident, hc, hc)

    def test_refusals(self):
        # a non-simple or non-representable collection is refused on either side
        bad = [(uniform(1, 3), NotSimple, "^strong maps are defined between simple collections$"),
               (union_hc(*example_unio()), NotRepresentable,
                "^strong maps need representable collections$")]
        good = uniform(3, 4)
        for hc, error, message in bad:
            for a, b in ((hc, good), (good, hc)):
                phi = dict(zip(a.ground, itertools.cycle(b.ground)))
                with pytest.raises(error, match=message):
                    hc_strong_map(phi, a, b)

    def test_two_point_target(self):
        ground = ("1", "2")
        tgt = HereditaryCollection.from_facets(ground, [("1", "2")])
        src = example_bigex()
        phi = {"1": "1", "2": "1", "3": "2", "4": "2"}
        assert hc_weak_map(phi, src, tgt) in (True, False)  # evaluates
        hc_strong_map(phi, src, tgt)

    def test_strong_implies_weak_exhaustive(self):
        hcs = simple_hcs_upto3()
        for a in hcs:
            for b in hcs:
                for images in itertools.product(b.ground, repeat=len(a.ground)):
                    phi = dict(zip(a.ground, images))
                    if hc_strong_map(phi, a, b):
                        assert hc_weak_map(phi, a, b)

    def test_strong_implies_weak_four_points(self):
        a = example_bigex()
        b = uniform(3, 4)
        rng = random.Random(47)
        maps_checked = 0
        for images in itertools.product(b.ground, repeat=4):
            phi = dict(zip(a.ground, images))
            if hc_strong_map(phi, a, b):
                maps_checked += 1
                assert hc_weak_map(phi, a, b)
        assert maps_checked > 0


class TestGeneratorTracking:
    def test_surjective_steps_carry_generators(self):
        # every surjective step of a generator-compatible map is itself
        # generator-compatible (images of generators stay generators or B)
        rng = random.Random(53)
        for _ in range(15):
            vg = random_vgen(rng, universe=3, seeds=3)
            lat = vg.lattice
            for rho in itertools.islice(all_join_congruences(lat), 5):
                q, proj = quotient_lattice(lat, rho, vg.gens)
                steps = mps_factorize(proj)
                for s in steps:
                    assert s.map.source_gens is not None
                    assert s.map.target_gens is not None
                    validate_vmap(s.map)  # includes the generator condition
