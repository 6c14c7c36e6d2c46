"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Three pinned counts (the 4-point example's sji orbit count, and the raw
minimal/sji counts for the rank-3 uniform matroid on six points) are
reproduced here exactly as published; the computation disagrees with them
while matching every other pinned value, and the per-type recount in
tests/test_reps.py traces the published arithmetic slips.  Those assertions
are expected to fail red; everything else must pass.
"""

import itertools
import random
import time

from boolrep.hereditary import (
    HereditaryCollection,
    example_bigex,
    example_truno,
    example_unio,
    fano,
    flat_matrix,
    is_boolean_representable,
    truncation,
    uniform,
    union_hc,
)
from boolrep.lattice import (
    VGenLattice,
    c_independent,
    congruent,
    flats_of_matrix,
    full_matrix,
    lattice_from_matrix,
    matrix_of,
    vgen_isomorphic,
)
from boolrep.maps import (
    closure_from_congruence,
    congruence_from_closure,
    congruence_from_family,
    family_from_congruence,
)
from boolrep.geometry import c_indep_via_geometry, mat_of_lattice, potential_lines
from boolrep.reps import (
    RepresentationLattice,
    count_up_to_e_bijection,
    enumerate_fisfl,
    mindeg,
)
from boolrep.sbcore import (
    BoolMatrix,
    SB,
    columns_independent,
    is_nonsingular,
    permanent,
)
from conftest import all_lattices, all_simple_hcs, all_vgens, fs, random_matroid

E4 = ("1", "2", "3", "4")


def report(n: int, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


def test_criterion_1_bigex():
    t0 = time.time()
    hc = example_bigex()
    results = {}
    expected_flats = {fs(), fs("1"), fs("2"), fs("3"), fs("4"),
                      fs("1", "4"), fs("2", "4"), fs("3", "4"),
                      fs("1", "2", "3"), fs(*E4)}
    results["flats"] = (hc.flats().members == expected_flats)
    walk = RepresentationLattice(hc)
    minimal = [walk.record(f) for f in walk.minimal_families()]
    sji = [walk.record(f) for f in walk.sji_families()]
    results["minimal = 6"] = len(minimal) == 6
    results["minimal orbits = 2"] = count_up_to_e_bijection(minimal) == 2
    results["sji = 24"] = len(sji) == 24
    sji_orbits = count_up_to_e_bijection(sji)
    results["sji orbits = 5"] = sji_orbits == 5  # computed: 6 (see notes)
    k, witnesses = mindeg(hc, enumerate_all=True)
    printed = BoolMatrix.build(
        [(0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 1)], col_labels=E4)
    results["mindeg = 3"] = k == 3
    results["printed witness found"] = any(congruent(w, printed) for w in witnesses)
    elapsed = time.time() - t0
    results["runtime < 5 s"] = elapsed < 5
    ok = all(results.values())
    report(1, ok, f"{elapsed:.1f}s; " + ", ".join(
        k for k, v in results.items() if not v) if not ok else f"{elapsed:.1f}s")
    results.pop("sji orbits = 5")  # asserted separately below
    assert all(results.values()), results
    # KNOWN-CONFLICT: published tally 5, computed 6 (orbit sizes
    # 3+6+3+6+3+3, two of them minimal; recount in tests/test_reps.py)
    assert sji_orbits == 5, f"computed sji orbit count {sji_orbits}"


def test_criterion_2_fano():
    t0 = time.time()
    hc = fano()
    results = {}
    walk = RepresentationLattice(hc)
    lines = {fs(*l) for l in (("1", "2", "5"), ("1", "3", "7"), ("1", "4", "6"),
                              ("2", "3", "6"), ("2", "4", "7"), ("3", "4", "5"),
                              ("5", "6", "7"))}
    # membership characterization: >= 5 lines, or 4 lines no three concurrent
    char_ok = True
    for f in enumerate_fisfl(hc):
        flines = [l for l in lines if l in f.members]
        if len(flines) >= 5:
            crit = True
        elif len(flines) == 4:
            # four lines, no three concurrent at a point
            crit = all(
                not frozenset.intersection(*trio)
                for trio in itertools.combinations(flines, 3))
        else:
            crit = False
        if crit != (f in walk):
            char_ok = False
            break
    results["membership characterization"] = char_ok
    minimal = [walk.record(f) for f in walk.minimal_families()]
    sji = [walk.record(f) for f in walk.sji_families()]
    results["minimal = 7"] = len(minimal) == 7
    results["minimal orbits = 1"] = count_up_to_e_bijection(minimal) == 1
    results["sji = 35"] = len(sji) == 35
    results["sji orbits = 3"] = count_up_to_e_bijection(sji) == 3
    k, witnesses = mindeg(hc, enumerate_all=True)
    printed = BoolMatrix.build(
        [(0, 0, 1, 1, 0, 1, 1), (0, 1, 1, 0, 1, 0, 1),
         (1, 0, 0, 1, 1, 0, 1), (1, 1, 0, 0, 0, 1, 1)],
        col_labels=[str(i) for i in range(1, 8)])
    results["mindeg = 4"] = k == 4
    results["witness congruent to printed"] = any(
        congruent(w, printed) for w in witnesses)
    elapsed = time.time() - t0
    results["runtime < 30 s"] = elapsed < 30
    ok = all(results.values())
    report(2, ok, f"{elapsed:.1f}s")
    assert all(results.values()), results


def test_criterion_3_u36():
    t0 = time.time()
    hc = uniform(3, 6)
    results = {}
    walk = RepresentationLattice(hc)
    minimal = walk.minimal_families()
    sji = walk.sji_families()
    n_min, n_sji = len(minimal), len(sji)
    results["minimal orbits = 4"] = count_up_to_e_bijection(
        [walk.record(f) for f in minimal]) == 4
    results["sji orbits = 7"] = count_up_to_e_bijection(
        [walk.record(f) for f in sji]) == 7
    results["mindeg = 6"] = mindeg(hc)[0] == 6
    # graph criterion: complement graph triangle-free and at most one point
    # of the ground set absent from the family
    agree = True
    for f in enumerate_fisfl(hc):
        singles = sum(1 for e in hc.ground if fs(e) in f.members)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                 if fs(str(i + 1), str(j + 1)) not in f.members]
        adj = [0] * 6
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        triangle_free = not any(adj[i] & adj[j] for i, j in edges)
        crit = triangle_free and singles >= 5
        if crit != (f in walk):
            agree = False
            break
    results["girth criterion agreement"] = agree
    elapsed = time.time() - t0
    results["runtime < 5 min"] = elapsed < 300
    ok = all(results.values()) and n_min == 221 and n_sji == 527
    report(3, ok, f"{elapsed:.0f}s; minimal={n_min}, sji={n_sji}")
    assert all(results.values()), results
    # KNOWN-CONFLICT: published 221 = 20+15+6+180 and 527 = 221+180+120+6;
    # computed 226 = 10+30+6+180 and 442 = 226+90+120+6 (recount in
    # tests/test_reps.py)
    assert n_min == 221, f"computed minimal count {n_min}"
    assert n_sji == 527, f"computed sji count {n_sji}"


def test_criterion_4_mindeg_laws():
    results = {}
    results["mindeg U(3,6) = 6 = 3*2"] = mindeg(uniform(3, 6))[0] == 6 == 3 * 2
    k7 = mindeg(uniform(3, 7))[0]
    results["mindeg U(3,7) = 9 = 3^2"] = k7 == 9 == 3 * 3
    ok = all(results.values())
    report(4, ok)
    assert all(results.values()), results


def test_criterion_5_matroids_representable():
    checked = 0
    for a in range(2, 7):
        for b in range(a, 7):
            hc = uniform(a, b)
            if hc.is_simple():
                assert is_boolean_representable(hc)
                checked += 1
    assert is_boolean_representable(fano())
    checked += 1
    rng = random.Random(20260809)
    for _ in range(50):
        n = rng.randint(3, 6)
        hc = random_matroid(rng, n)
        assert hc.is_matroid() and hc.is_simple()
        assert is_boolean_representable(hc)
        checked += 1
    report(5, True, f"{checked} matroids")


def test_criterion_6_negative_cases():
    results = {}
    j1, j2 = example_unio()
    u = union_hc(j1, j2)
    results["union components representable"] = (
        is_boolean_representable(j1) and is_boolean_representable(j2))
    results["union not representable"] = not is_boolean_representable(u)
    t = example_truno()
    results["untruncated representable"] = is_boolean_representable(t)
    results["3-truncation not representable"] = not is_boolean_representable(
        truncation(t, 3))
    # trichotomy over every simple 4-point collection
    ground = E4
    triples = [frozenset(c) for c in itertools.combinations(ground, 3)]
    base = [frozenset(c) for r in range(3)
            for c in itertools.combinations(ground, r)]
    tri_ok = True
    count = 0
    for r in range(5):
        for chosen in itertools.combinations(triples, r):
            variants = [list(chosen)]
            if r == 4:
                variants.append(list(chosen) + [frozenset(ground)])
            for extra in variants:
                hc = HereditaryCollection(ground, frozenset(base + extra))
                count += 1
                k = sum(1 for s in hc.independents if len(s) == 3)
                if k in (0, 3, 4):
                    tri_ok &= hc.is_matroid() and is_boolean_representable(hc)
                elif k == 1:
                    tri_ok &= (not hc.satisfies_pr()) and \
                        (not is_boolean_representable(hc))
                else:
                    tri_ok &= (not hc.is_matroid()) and \
                        is_boolean_representable(hc)
    results["fourpoints trichotomy"] = tri_ok and count == 17
    ok = all(results.values())
    report(6, ok)
    assert all(results.values()), results


def test_criterion_7_oracle_equivalences():
    results = {}
    instances = 0

    # nonsingular <=> permanent = 1: every 3x3, sampled 4x4 and 5x5
    ok = True
    for bits in range(1 << 9):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        m = BoolMatrix.build(rows)
        ok &= is_nonsingular(m) == (permanent(m) is SB.ONE)
        instances += 1
    rng = random.Random(7777)
    for _ in range(10000):
        n = rng.choice((4, 5))
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        m = BoolMatrix.build(rows)
        ok &= is_nonsingular(m) == (permanent(m) is SB.ONE)
        instances += 1
    results["nonsingular iff permanent 1"] = ok

    # c-independence <=> witness search, and rank = height, and the two
    # round trips, over every lattice with at most 7 elements
    ok_ci, ok_rk, ok_rt = True, True, True
    for n in range(2, 8):
        for lat in all_lattices(n):
            nb = tuple(x for x in lat.labels if x != lat.bottom)
            vg_all = VGenLattice(lat, nb)
            m = full_matrix(lat)
            for r in range(len(nb) + 1):
                for c in itertools.combinations(nb, r):
                    instances += 1
                    ok_ci &= c_independent(vg_all, c) == columns_independent(m, c)
            for vg in all_vgens(lat):
                instances += 1
                from boolrep.sbcore import matrix_rank
                h = lat.height()
                ok_rk &= matrix_rank(matrix_of(vg)) == h
                back = lattice_from_matrix(matrix_of(vg))
                ok_rt &= vgen_isomorphic(vg, back)
                ok_rt &= congruent(matrix_of(back), matrix_of(vg))
    results["c-independence iff witness (|L| <= 7)"] = ok_ci
    results["rank = height (|L| <= 7)"] = ok_rk
    results["matrix/lattice round trips (|L| <= 7)"] = ok_rt

    # representation criterion over every simple collection on <= 5 points
    ok_rep = True
    for n in range(1, 6):
        for hc in all_simple_hcs(n):
            m = flat_matrix(hc)
            agrees = all(
                (frozenset(c) in hc.independents) == columns_independent(m, c)
                for r in range(n + 1)
                for c in itertools.combinations(hc.ground, r))
            ok_rep &= agrees == is_boolean_representable(hc)
            instances += 1
    results["flat-matrix criterion (|E| <= 5)"] = ok_rep

    # closure/congruence correspondences over every lattice with <= 6 elements
    from test_maps import all_join_congruences
    ok_cc = True
    for n in range(2, 7):
        for lat in all_lattices(n):
            gens = tuple(sorted(lat.sji_elements(), key=lat.index))
            vg = VGenLattice(lat, gens)
            for rho in all_join_congruences(lat):
                instances += 1
                xi = closure_from_congruence(rho)
                ok_cc &= sorted(map(sorted, congruence_from_closure(xi).blocks)) \
                    == sorted(map(sorted, rho.blocks))
                fam = family_from_congruence(vg, rho)
                back = congruence_from_family(vg, fam)
                ok_cc &= sorted(map(sorted, back.blocks)) == \
                    sorted(map(sorted, rho.blocks))
    results["closure/congruence round trips (|L| <= 6)"] = ok_cc

    # height-3 matroid and the geometric independence test, |L| <= 9
    ok_h3 = True
    for n in range(4, 10):
        for lat in all_lattices(n):
            if lat.height() != 3:
                continue
            hc = mat_of_lattice(lat)
            ok_h3 &= hc.is_matroid()
            nb = tuple(x for x in lat.labels if x != lat.bottom)
            vg = VGenLattice(lat, nb)
            pl = potential_lines(lat)
            for r in range(4):
                for c in itertools.combinations(nb, r):
                    instances += 1
                    geo = c_indep_via_geometry(lat, c)
                    ok_h3 &= geo == c_independent(vg, c)
                    ok_h3 &= geo == (frozenset(c) in hc.independents
                                     and frozenset(c) not in pl)
    results["height-3 matroid + independence (|L| <= 9)"] = ok_h3

    ok = all(results.values())
    report(7, ok, f"{instances} instances")
    assert instances >= 10000
    assert all(results.values()), results


def test_criterion_8_worked_example():
    m = BoolMatrix.build(
        [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0)],
        col_labels=[str(i) for i in range(1, 6)])
    fam, y = flats_of_matrix(m)
    expected = frozenset(map(frozenset, ["", "2", "3", "4", "23", "24",
                                         "345", "12345"]))
    printed = BoolMatrix.build(
        [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0), (1, 0, 1, 1, 1),
         (1, 1, 0, 1, 1), (1, 1, 1, 0, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
        col_labels=[str(i) for i in range(1, 6)])
    vg = lattice_from_matrix(m)
    ok = fam.members == expected and congruent(matrix_of(vg), printed)
    report(8, ok)
    assert fam.members == expected
    assert congruent(matrix_of(vg), printed)
