"""Shared generators and brute-force oracles for the test suite.

The lattice enumerator produces every finite lattice up to isomorphism for
small sizes (1, 1, 1, 2, 5, 15, 53, 222, 1078 for n = 1..9); counts are
asserted in test_lattice.  Oracles here recompute results by definition
(permutation sums, row-subset searches) independently of the library's
algorithms.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from boolrep import reps
from boolrep.cli import _emit, _load_hc, _subsets_sorted
from boolrep.errors import (
    BoolrepError,
    BottomElement,
    CycleError,
    FormatError,
    GroundMismatch,
    NotJoinClosed,
    NotRepresentable,
    NotSimple,
    TooLarge,
    UnknownColumn,
)
from boolrep.lattice import (
    FiniteLattice,
    FlatFamily,
    VGenLattice,
    _bits,
    flat_label,
    mask_label,
    mask_to_labels,
)
from boolrep.hereditary import HereditaryCollection, _submasks, is_boolean_representable, \
    permuted
from boolrep.maps import VCongruence, quotient_lattice
from boolrep.reps import MINDEG_MAX_NODES, ROWSUM_MAX_ROWS, _fresh_label, _smi_masks, \
    matrix_represents
from boolrep.sbcore import MATRIX_RANK_MAX_PEELS, SB, BoolMatrix, Witness, _AUTO_ROW, \
    _auto_rows, _peel


def fs(*items):
    return frozenset(items)


# -- exhaustive lattice enumeration ----------------------------------------------------


def _check_lattice_masks(downs, m):
    ups = [0] * m
    for i in range(m):
        for j in range(m):
            if (downs[j] >> i) & 1:
                ups[i] |= 1 << j
    if any(not (downs[j] & 1) for j in range(m)):
        return False
    for a in range(m):
        for b in range(a + 1, m):
            for cand, masks in ((ups[a] & ups[b], downs), (downs[a] & downs[b], ups)):
                cnt = 0
                mm = cand
                while mm:
                    low = mm & (-mm)
                    i = low.bit_length() - 1
                    if (masks[i] & cand) == (1 << i):
                        cnt += 1
                        if cnt > 1:
                            break
                    mm ^= low
                if cnt != 1:
                    return False
    return True


def _canon_key(downs, m):
    ups = [0] * m
    for i in range(m):
        for j in range(m):
            if (downs[j] >> i) & 1:
                ups[i] |= 1 << j
    inv = [(bin(downs[i]).count("1"), bin(ups[i]).count("1")) for i in range(m)]
    for _ in range(3):
        newinv = []
        for i in range(m):
            below = sorted(inv[j] for j in range(m) if (downs[i] >> j) & 1 and j != i)
            above = sorted(inv[j] for j in range(m) if (ups[i] >> j) & 1 and j != i)
            newinv.append((inv[i], tuple(below), tuple(above)))
        uniq = {v: k for k, v in enumerate(sorted(set(newinv)))}
        inv = [(uniq[v],) for v in newinv]
    groups: dict = {}
    for i in range(m):
        groups.setdefault(inv[i], []).append(i)
    group_keys = sorted(groups)
    total = 1
    for k in group_keys:
        f = 1
        for t in range(2, len(groups[k]) + 1):
            f *= t
        total *= f
    if total > 100000:
        # no safe cheap canonical form: refuse to dedupe (duplicates are harmless)
        return ("raw", m, tuple(downs))
    best = None
    for combo in itertools.product(
            *(itertools.permutations(groups[k]) for k in group_keys)):
        perm = [i for grp in combo for i in grp]
        bits = 0
        idx = 0
        for x in range(m):
            for y in range(m):
                if (downs[perm[y]] >> perm[x]) & 1:
                    bits |= 1 << idx
                idx += 1
        if best is None or bits < best:
            best = bits
    return ("exact", m, best)


def down_sets_by_reachability(labels: Sequence[str], pairs):
    """The down-sets `FiniteLattice.from_covers` builds from (lower, upper)
    pairs, by a search from each element along the pairs, or the (error
    type, message) it raises.  The checks run in its order: the labels, each
    pair in turn, then cycles (two elements each below the other)."""
    if len(set(labels)) != len(labels):
        return FormatError, "duplicate element labels"
    index = {l: i for i, l in enumerate(labels)}
    ups: list[list[int]] = [[] for _ in labels]
    for a, b in pairs:
        if a not in index or b not in index:
            return FormatError, f"unknown element in cover pair ({a}, {b})"
        if a == b:
            return CycleError, f"self-loop at {a}"
        ups[index[a]].append(index[b])
    down = [0] * len(labels)
    for i in range(len(labels)):  # i lies below everything it reaches
        seen, todo = {i}, [i]
        while todo:
            for j in ups[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        for j in seen:
            down[j] |= 1 << i
    if any(i != j and down[i] >> j & 1 and down[j] >> i & 1
           for i in range(len(labels)) for j in range(len(labels))):
        return CycleError, "cover relation contains a cycle"
    return tuple(down)


@lru_cache(maxsize=None)
def all_lattice_masks(n: int) -> tuple:
    """All lattices on exactly n elements, up to isomorphism, as down-mask tuples."""
    if n == 1:
        return ((1,),)
    results: dict = {}

    def rec(j, downs):
        if j == n - 1:
            maximals = [i for i in range(n - 1)
                        if all((downs[k] >> i) & 1 == 0
                               for k in range(n - 1) if k != i)]
            dj = 1 << (n - 1)
            for i in maximals:
                dj |= downs[i]
            downs2 = downs + [dj]
            if _check_lattice_masks(downs2, n):
                key = _canon_key(downs2, n)
                if key not in results:
                    results[key] = tuple(downs2)
            return
        prev = list(range(j))
        for r in range(1, j + 1):
            for d in itertools.combinations(prev, r):
                ok = True
                for a, b in itertools.combinations(d, 2):
                    if (downs[b] >> a) & 1 or (downs[a] >> b) & 1:
                        ok = False
                        break
                if not ok:
                    continue
                dj = 1 << j
                for i in d:
                    dj |= downs[i]
                rec(j + 1, downs + [dj])

    rec(1, [1])
    return tuple(results.values())


def lattice_from_masks(downs) -> FiniteLattice:
    n = len(downs)
    labels = [f"x{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and (downs[j] >> i) & 1:
                pairs.append((labels[i], labels[j]))
    return FiniteLattice.from_covers(labels, pairs)


@lru_cache(maxsize=None)
def all_lattices(n: int) -> tuple:
    return tuple(lattice_from_masks(d) for d in all_lattice_masks(n))


def lattices_up_to(n: int):
    for k in range(2, n + 1):
        yield from all_lattices(k)


def all_vgens(lat: FiniteLattice):
    """Every generating-set choice for a lattice (bottom excluded)."""
    nonbottom = [x for x in lat.labels if x != lat.bottom]
    sji = lat.sji_elements()
    extras = [x for x in nonbottom if x not in sji]
    for r in range(len(extras) + 1):
        for add in itertools.combinations(extras, r):
            yield VGenLattice(lat, tuple(sorted(sji | set(add), key=lat.index)))


# -- random structures --------------------------------------------------------------------


def random_closure_lattice(rng: random.Random, universe: int = 4,
                           seeds: int = 4) -> FiniteLattice:
    """Random intersection-closed family of subsets, ordered by inclusion."""
    items = list(range(universe))
    members = {frozenset(items)}
    for _ in range(seeds):
        members.add(frozenset(x for x in items if rng.random() < 0.5))
    work = list(members)
    while work:
        a = work.pop()
        for b in list(members):
            c = a & b
            if c not in members:
                members.add(c)
                work.append(c)
    # ordered and labelled as the label-set from_family did
    ms = sorted(members, key=lambda s: (len(s), tuple(sorted(s))))
    down = tuple(sum(1 << i for i, a in enumerate(ms) if a <= b) for b in ms)
    return FiniteLattice(tuple("".join(map(str, sorted(s))) or "o" for s in ms), down)


def random_vgen(rng: random.Random, universe: int = 4, seeds: int = 4) -> VGenLattice:
    lat = random_closure_lattice(rng, universe, seeds)
    while len(lat) < 2:
        lat = random_closure_lattice(rng, universe, seeds)
    nonbottom = [x for x in lat.labels if x != lat.bottom]
    gens = set(lat.sji_elements())
    for x in nonbottom:
        if rng.random() < 0.3:
            gens.add(x)
    return VGenLattice(lat, tuple(sorted(gens, key=lat.index)))


def random_lattice_of_height(rng: random.Random, h: int, universe: int = 5,
                             seeds: int = 5, attempts: int = 2000) -> FiniteLattice:
    for _ in range(attempts):
        lat = random_closure_lattice(rng, universe, seeds)
        if lat.height() == h:
            return lat
    raise RuntimeError(f"no height-{h} lattice found")


def random_hc(rng: random.Random, n: int, density: float = 0.6
              ) -> HereditaryCollection:
    """Random downward-closed family by sampling facet candidates."""
    ground = tuple(str(i) for i in range(1, n + 1))
    sets = {frozenset()}
    for _ in range(rng.randint(1, 2 * n)):
        size = rng.randint(1, n)
        cand = frozenset(rng.sample(ground, size))
        if rng.random() < density:
            for r in range(len(cand) + 1):
                for c in itertools.combinations(sorted(cand), r):
                    sets.add(frozenset(c))
    return HereditaryCollection(ground, frozenset(sets))


def random_simple_hc(rng: random.Random, n: int) -> HereditaryCollection:
    """Simple random collection: all pairs independent plus random bigger sets."""
    ground = tuple(str(i) for i in range(1, n + 1))
    sets = set()
    for r in range(3):
        for c in itertools.combinations(ground, r):
            sets.add(frozenset(c))
    for size in range(3, n + 1):
        for c in itertools.combinations(ground, size):
            if all(frozenset(s) in sets for s in itertools.combinations(c, size - 1)) \
                    and rng.random() < 0.45:
                sets.add(frozenset(c))
    return HereditaryCollection(ground, frozenset(sets))


def random_sweep_hc(rng: random.Random, n: int, p: float, add4: bool
                    ) -> HereditaryCollection:
    """Simple collection in the style of the benchmark's sweep-rand inputs:
    each 3-subset independent with probability p; with add4, so is each
    4-subset whose 3-subsets all are, with the same probability."""
    triples = [sum(1 << i for i in t) for t in itertools.combinations(range(n), 3)
               if rng.random() < p]
    tset = set(triples)
    quads = [q for q in (sum(1 << i for i in c) for c in itertools.combinations(range(n), 4))
             if all(q ^ (1 << i) in tset for i in range(n) if q >> i & 1)
             and rng.random() < p] if add4 else []
    pairs = [(1 << i) | (1 << j) for i, j in itertools.combinations(range(n), 2)]
    return HereditaryCollection.from_masks(
        tuple(str(i) for i in range(1, n + 1)),
        {s for f in quads + triples + pairs for s in _submasks(f)})


def random_matroid(rng: random.Random, n: int, attempts: int = 4000
                   ) -> HereditaryCollection:
    """Random simple matroid: uniform, free, or rank-3 with random lines.

    A family of >= 3-point lines meeting pairwise in at most one point gives
    a matroid whose dependent triples are the collinear ones; the exchange
    property is still checked by the caller (and asserted here).
    """
    ground = tuple(str(i) for i in range(1, n + 1))
    style = rng.random()
    if style < 0.3:
        hc = uniform(rng.randint(2, n), n)
    else:
        lines: list[frozenset] = []
        for _ in range(rng.randint(0, n)):
            size = rng.randint(3, max(3, n - 1))
            cand = frozenset(rng.sample(ground, min(size, n)))
            if all(len(cand & l) <= 1 for l in lines):
                lines.append(cand)
        h = [frozenset(c) for r in range(4)
             for c in itertools.combinations(ground, r)
             if not any(frozenset(c) <= l for l in lines) or len(c) < 3]
        hc = HereditaryCollection(ground, frozenset(h))
    assert hc.is_matroid()
    return hc


def uniform(a: int, b: int) -> HereditaryCollection:
    ground = tuple(str(i) for i in range(1, b + 1))
    return HereditaryCollection.from_independents(
        ground, (c for r in range(a + 1)
                 for c in itertools.combinations(ground, r)))


@lru_cache(maxsize=None)
def all_simple_hcs(n: int) -> tuple:
    """Every simple hereditary collection on n points (n <= 5)."""
    assert n <= 5
    ground = tuple(str(i) for i in range(1, n + 1))
    base = [frozenset(c) for r in range(3) for c in itertools.combinations(ground, r)]
    bigger = [[frozenset(c) for c in itertools.combinations(ground, size)]
              for size in range(3, n + 1)]

    out = []

    def rec(level: int, chosen: set):
        if level == len(bigger):
            out.append(HereditaryCollection(
                ground, frozenset(base) | frozenset(chosen)))
            return
        cands = [c for c in bigger[level]
                 if all(frozenset(s) in chosen or len(s) < 3
                        for s in map(frozenset,
                                     itertools.combinations(sorted(c), len(c) - 1)))]
        for r in range(len(cands) + 1):
            for pick in itertools.combinations(cands, r):
                rec(level + 1, chosen | set(pick))

    rec(0, set())
    return tuple(out)


# -- brute-force oracles ---------------------------------------------------------------------


def permanent_oracle(m: BoolMatrix) -> SB:
    """Direct sum over all permutations using the semiring element ops."""
    n = m.n_rows
    total = SB.ZERO
    for sigma in itertools.permutations(range(n)):
        prod = SB.ONE
        for i in range(n):
            prod = prod * SB(m.rows[i][sigma[i]])
        total = total + prod
    return total


def submatrix(m: BoolMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> BoolMatrix:
    """The rows row_idx and the columns col_idx of m, in those orders."""
    return BoolMatrix(
        tuple(tuple(m.rows[i][j] for j in col_idx) for i in row_idx),
        tuple(m.col_labels[j] for j in col_idx),
        tuple(m.row_labels[i] for i in row_idx),
    )


def col_index(m: BoolMatrix, label: str) -> int:
    try:
        return m._col_index[label]
    except KeyError:
        raise UnknownColumn(label) from None


def independent_oracle(m: BoolMatrix, cols) -> bool:
    """Row-subset brute force with the permanent oracle on each candidate."""
    idx = [col_index(m, c) for c in cols]
    k = len(idx)
    if k == 0:
        return True
    if k > m.n_rows:
        return False
    for rows in itertools.combinations(range(m.n_rows), k):
        sub = submatrix(m, rows, idx)
        if permanent_oracle(sub) is SB.ONE:
            return True
    return False


def witness_by_backtracking(m: BoolMatrix, target: int) -> Optional[Witness]:
    """Witness search that backtracks over every marker row at every depth,
    so it tries every peel order and is exponential on dependent sets.  The
    oracle for sbcore.witness_for_mask's certificates."""
    k = target.bit_count()
    if k == 0:
        return Witness((), ())
    if k > m.n_rows:
        return None
    masks = m.ones_masks

    row_order: list[int] = []
    col_order: list[int] = []

    def rec(col_mask: int, used_rows: int) -> bool:
        if col_mask == 0:
            return True
        for i in range(m.n_rows):
            if (used_rows >> i) & 1:
                continue
            rest = masks[i] & col_mask
            if rest and rest & (rest - 1) == 0:
                row_order.append(i)
                col_order.append(rest.bit_length() - 1)
                if rec(col_mask & ~rest, used_rows | (1 << i)):
                    return True
                row_order.pop()
                col_order.pop()
        return False

    if rec(target, 0):
        return Witness(tuple(row_order), tuple(col_order))
    return None


def witness_verifies(w: Witness, m: BoolMatrix) -> bool:
    """Literal triangular-form predicate on the ordered submatrix."""
    if len(w.row_order) != len(w.col_order):
        return False
    k = len(w.row_order)
    for a in range(k):
        r = m.rows[w.row_order[a]]
        if r[w.col_order[a]] != 1:
            return False
        if any(r[w.col_order[b]] != 0 for b in range(a + 1, k)):
            return False
    return True


def transpose(m: BoolMatrix) -> BoolMatrix:
    return BoolMatrix(
        tuple(zip(*m.rows)) if m.rows else (),
        m.row_labels,
        m.col_labels,
    )


def matrix_rank_top_down(m: BoolMatrix) -> int:
    """Maximum size of an independent column subset.

    Independent sets are downward closed, so the first hit scanning sizes from
    the top is the rank; a greedy pass first raises the lower cutoff so small
    matrices exit early.  More than MATRIX_RANK_MAX_PEELS column subsets
    tried after that pass raise TooLarge.  The oracle for sbcore.matrix_rank,
    which scans from the bottom.
    """
    masks = m.ones_masks
    current = 0
    for j in range(m.n_cols):
        if _peel(masks, current | 1 << j):
            current |= 1 << j
    lo = current.bit_count()
    tried = 0
    for k in range(min(m.n_rows, m.n_cols), lo, -1):
        for combo in itertools.combinations(range(m.n_cols), k):
            tried += 1
            if tried > MATRIX_RANK_MAX_PEELS:
                raise TooLarge(
                    f"matrix_rank exceeds its budget of {MATRIX_RANK_MAX_PEELS} peels")
            if _peel(masks, sum(1 << j for j in combo)):
                return k
    return lo


@lru_cache(maxsize=None)
def all_hcs(n: int) -> tuple:
    """Every hereditary collection on n points (n <= 4: 167 of them)."""
    assert n <= 4
    ground = tuple(str(i) for i in range(1, n + 1))
    subsets = sorted((frozenset(c) for r in range(n + 1)
                      for c in itertools.combinations(ground, r)), key=len)
    out = []

    def rec(i, chosen):
        if i == len(subsets):
            if chosen:
                out.append(HereditaryCollection(ground, frozenset(chosen)))
            return
        s = subsets[i]
        rec(i + 1, chosen)
        if all(s - {x} in chosen for x in s):
            chosen.add(s)
            rec(i + 1, chosen)
            chosen.discard(s)

    rec(0, set())
    return tuple(out)


# -- tuple-row matrix builders ------------------------------------------------------------
#
# The builders as they stood when BoolMatrix stored 0/1 tuples, kept verbatim:
# they read and write `rows`, and are the oracles of the mask builders.


def matrix_to_text_by_rows(m: BoolMatrix) -> str:
    lines = ["cols: " + " ".join(m.col_labels)]
    auto = all(_AUTO_ROW.match(l) for l in m.row_labels) and list(
        m.row_labels
    ) == list(_auto_rows(m.n_rows))
    for label, r in zip(m.row_labels, m.rows):
        bits = "".join(str(v) for v in r)
        lines.append(bits if auto else f"row: {label} {bits}")
    return "\n".join(lines) + "\n"


def matrix_from_text_by_rows(text: str) -> BoolMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("cols:"):
        raise FormatError("matrix text must start with a 'cols:' line")
    cols = tuple(lines[0][len("cols:"):].split())
    rows, labels = [], []
    for k, ln in enumerate(lines[1:]):
        if ln.startswith("row:"):
            parts = ln[len("row:"):].split()
            if len(parts) != 2:
                raise FormatError(f"bad row line: {ln!r}")
            label, bits = parts
        else:
            label, bits = f"r{k}", ln
        if not set(bits) <= {"0", "1"} or len(bits) != len(cols):
            raise FormatError(f"bad bit string on line: {ln!r}")
        labels.append(label)
        rows.append(tuple(int(b) for b in bits))
    return BoolMatrix(tuple(rows), cols, tuple(labels))


def stack_matrices_by_rows(m1: BoolMatrix, m2: BoolMatrix) -> BoolMatrix:
    if m1.col_labels != m2.col_labels:
        raise GroundMismatch(m1.col_labels, m2.col_labels)
    auto = all(re.fullmatch(r"r\d+", l)
               for m in (m1, m2) for l in m.row_labels)
    rows, labels = [], []
    seen_rows: set[tuple[int, ...]] = set()
    taken: set[str] = set()
    for m in (m1, m2):
        for label, r in zip(m.row_labels, m.rows):
            if r in seen_rows:
                continue
            seen_rows.add(r)
            lbl = f"r{len(rows)}" if auto else _fresh_label(label, taken)
            taken.add(lbl)
            rows.append(r)
            labels.append(lbl)
    return BoolMatrix(tuple(rows), m1.col_labels, tuple(labels))


def rowsum_closure_by_rows(m: BoolMatrix) -> BoolMatrix:
    base = [tuple(r) for r in m.rows]
    seen = set(base)
    frontier = list(seen)
    while frontier:
        r = frontier.pop()
        for s in base:
            t = tuple(a | b for a, b in zip(r, s))
            if t not in seen:
                seen.add(t)
                frontier.append(t)
                if len(seen) > ROWSUM_MAX_ROWS:
                    raise TooLarge(f"row-sum closure exceeds {ROWSUM_MAX_ROWS} rows")
    zero = tuple(0 for _ in m.col_labels)
    seen.add(zero)
    new_rows = sorted(seen - set(base), key=lambda r: (sum(r), r))
    rows = list(base) + new_rows
    labels = list(m.row_labels)
    taken = set(labels)
    for r in new_rows:
        zset = frozenset(c for c, v in zip(m.col_labels, r) if v == 0)
        lbl = _fresh_label(flat_label(zset, m.col_labels), taken)
        taken.add(lbl)
        labels.append(lbl)
    return BoolMatrix(tuple(rows), m.col_labels, tuple(labels))


def family_matrix_by_rows(fam: FlatFamily) -> BoolMatrix:
    n = len(fam.ground)
    rows, row_labels = [], []
    for m in fam.sorted_masks():
        rows.append(tuple(1 - ((m >> i) & 1) for i in range(n)))
        row_labels.append(mask_label(m, fam.ground))
    return BoolMatrix(tuple(rows), fam.ground, tuple(row_labels))


def matrix_of_by_rows(vg: VGenLattice) -> BoolMatrix:
    lat = vg.lattice
    rows = tuple(
        tuple(0 if lat.leq(c, x) else 1 for c in vg.gens) for x in lat.labels
    )
    return BoolMatrix(rows, vg.gens, lat.labels)


def full_matrix_by_rows(lat: FiniteLattice) -> BoolMatrix:
    cols = tuple(x for x in lat.labels if x != lat.bottom)
    rows = tuple(tuple(0 if lat.leq(c, x) else 1 for c in cols) for x in lat.labels)
    return BoolMatrix(rows, cols, lat.labels)


def congruent_by_rows(m1: BoolMatrix, m2: BoolMatrix) -> bool:
    if m1.n_rows != m2.n_rows or m1.n_cols != m2.n_cols:
        return False

    def colsig(m: BoolMatrix):
        rw = [sum(r) for r in m.rows]
        sigs = []
        for j in range(m.n_cols):
            ones = sorted(rw[i] for i in range(m.n_rows) if m.rows[i][j] == 1)
            sigs.append((len(ones), tuple(ones)))
        return sigs

    s1, s2 = colsig(m1), colsig(m2)
    if sorted(s1) != sorted(s2):
        return False
    classes: dict = {}
    for j, s in enumerate(s2):
        classes.setdefault(s, []).append(j)
    rows2 = sorted(m2.rows)
    order1 = sorted(range(m1.n_cols), key=lambda j: s1[j])

    used = [False] * m2.n_cols
    assign = [0] * m1.n_cols

    def rec(k: int) -> bool:
        if k == len(order1):
            perm = [0] * m1.n_cols
            for j in range(m1.n_cols):
                perm[assign[j]] = j
            rows1 = sorted(tuple(r[perm[t]] for t in range(m1.n_cols)) for r in m1.rows)
            return rows1 == rows2
        j = order1[k]
        for t in classes.get(s1[j], ()):
            if not used[t]:
                used[t] = True
                assign[j] = t
                if rec(k + 1):
                    return True
                used[t] = False
        return False

    return rec(0)


# -- definitional oracles for the library's flats, closure, rank and walk ----------------


def flat_masks_by_circuits(hc: HereditaryCollection) -> tuple[int, ...]:
    """The sets X that no circuit leaves by a single point, in increasing
    order: the oracle for the subset DP behind `hc._flat_masks`.  If s is
    independent inside X and s + p is dependent for a point p outside X, a
    circuit inside s + p holds p and leaves X by p alone; a circuit c
    leaving X by p alone gives the independent s = c - p inside X."""
    circuits = hc._circuit_masks
    return tuple(x for x in range(hc.full_mask + 1)
                 if not any((c & ~x).bit_count() == 1 for c in circuits))


def is_flat_by_circuits(hc: HereditaryCollection, xs) -> bool:
    """Circuit characterization: no circuit leaves X by a single point."""
    x = frozenset(xs)
    for c in hc.circuits():
        extra = c - x
        if len(extra) == 1:
            return False
    return True


def closure_by_circuits(hc: HereditaryCollection, xs) -> frozenset:
    """Iterated circuit augmentation; agrees with closure on matroids."""
    cur = hc.mask_of(xs)
    circ = [hc.mask_of(c) for c in hc.circuits()]
    changed = True
    while changed:
        changed = False
        for c in circ:
            extra = c & ~cur
            if extra and extra & (extra - 1) == 0:
                cur |= extra
                changed = True
    return hc.set_of(cur)


def c_independence_chain_by_search(vg: VGenLattice, xs) -> Optional[list[str]]:
    """An enumeration of xs with strictly decreasing suffix joins, or None.

    Peels the first element: x1 qualifies when dropping it strictly lowers
    the join of the rest; ties break to lattice element order so the
    certificate chain is deterministic.  A memoized backtracking search: the
    oracle for lattice.c_independence_chain, which peels greedily.
    """
    lat = vg.lattice
    s = frozenset(xs)
    if lat.bottom in s:
        raise BottomElement(lat.bottom)
    for x in s:
        if x not in lat._index:
            raise FormatError(f"unknown element {x!r}")
    memo: dict[frozenset, Optional[tuple]] = {}

    def rec(sub: frozenset) -> Optional[tuple]:
        if len(sub) <= 1:
            return tuple(sub)
        if sub in memo:
            return memo[sub]
        j = lat.join_of(sub)
        out = None
        for x1 in sorted(sub, key=lat.index):
            rest = sub - {x1}
            if lat.join_of(rest) != j:
                tail = rec(rest)
                if tail is not None:
                    out = (x1,) + tail
                    break
        memo[sub] = out
        return out

    chain = rec(s)
    return list(chain) if chain is not None else None


def quotient_by_pair_scan(lat: FiniteLattice, s) -> FiniteLattice:
    """Quotient by the congruence generated by joining against members of s,
    as the transitive closure of the pairs x ~ y with x join a = y join b for
    members a, b: the oracle for maps.quotient_by_subsemilattice, which takes
    the kernel of x -> x join (top of s)."""
    sub = sorted(frozenset(s), key=lat.index)
    if not sub:
        raise NotJoinClosed("the subsemilattice must be nonempty")
    for x, y in itertools.combinations_with_replacement(sub, 2):
        if lat.join(x, y) not in sub:
            raise NotJoinClosed((x, y))
    pairs = []
    for x, y in itertools.combinations(lat.labels, 2):
        if any(lat.join(x, a) == lat.join(y, b) for a in sub for b in sub):
            pairs.append((x, y))
    rho = VCongruence.from_pairs(lat, pairs)
    return quotient_lattice(lat, rho)[0]


def congruence_failure_pairwise(lat: FiniteLattice, blocks) -> Optional[tuple]:
    """The first (x, y, z) with x, y in one block whose joins with z lie in
    different blocks, over every pair of a block: the oracle for the join
    check of maps.VCongruence, which pairs each member with its block's
    first member only.  None when the partition is a join congruence."""
    cls = {x: b for b in blocks for x in b}.__getitem__
    for b in blocks:
        for x, y in itertools.combinations(sorted(b), 2):
            for z in lat.labels:
                if cls(lat.join(x, z)) is not cls(lat.join(y, z)):
                    return (x, y, z)
    return None


def raw_subsemilattice_relation_transitive(lat: FiniteLattice, s) -> bool:
    """Whether the one-step relation already equals the generated congruence."""
    sub = sorted(frozenset(s), key=lat.index)

    def related(x, y):
        return x == y or any(
            lat.join(x, a) == lat.join(y, b) for a in sub for b in sub)

    for x, y, z in itertools.permutations(lat.labels, 3):
        if related(x, y) and related(y, z) and not related(x, z):
            return False
    return True


def sorted_members(fam: FlatFamily) -> list[frozenset[str]]:
    return [mask_to_labels(m, fam.ground) for m in fam.sorted_masks()]


def reduced_matrix(rec) -> BoolMatrix:
    """Only the rows that are not boolean sums of others (zero row dropped)."""
    keep = set(_smi_masks(rec.family.masks, rec.hc.full_mask))
    idx = [i for i, m in enumerate(rec.family.sorted_masks()) if m in keep]
    return submatrix(rec.matrix, idx, range(len(rec.hc.ground)))


def closure_ordering(hc: HereditaryCollection, xs):
    """An ordering of xs with strictly decreasing closures, if one exists."""
    x = frozenset(xs)

    def rec(s: frozenset):
        if len(s) <= 1:
            return sorted(s)
        for first in sorted(s):
            rest = s - {first}
            if first not in hc.closure(rest):
                tail = rec(rest)
                if tail is not None:
                    return [first] + tail
        return None

    return rec(x)


def rank3_union_representable_hypothesis(a: HereditaryCollection,
                                         b: HereditaryCollection) -> bool:
    """The rank-3 union theorem's hypothesis: when it holds, the union must test
    representable (asserted by the callers' tests, not here)."""
    if a.ground != b.ground:
        raise GroundMismatch(a.ground, b.ground)
    for hc in (a, b):
        if hc.rank != 3 or not hc.is_simple() or not is_boolean_representable(hc):
            return False
        if any(m.bit_count() > 3 for m in hc._flat_masks if m != hc.full_mask):
            return False
    return True


def full_sweep_fails(r, n):
    """The 4^|E| submodularity sweep over a mask-indexed rank table."""
    return any(r[x] + r[y] < r[x | y] + r[x & y]
               for x in range(1 << n) for y in range(1 << n))


def check_submodular(rf):
    """The local form r(X+a) + r(X+b) >= r(X+a+b) + r(X), for every X and
    distinct a, b outside X, in 2^|E|·|E|² steps; it is equivalent to
    submodularity (Schrijver, Combinatorial Optimization, Thm 44.1), which
    holds exactly for matroids.  A failure raises BoolrepError; returns rf."""
    r, n = rf.table, len(rf.ground)
    for x in range(1 << n):
        out = [1 << i for i in range(n) if not (x >> i) & 1]
        for a, b in itertools.combinations(out, 2):
            if r[x | a] + r[x | b] < r[x | a | b] + r[x]:
                raise BoolrepError("submodularity failed")
    return rf


def automorphisms_by_sweep(hc: HereditaryCollection) -> tuple[tuple[int, ...], ...]:
    """Index permutations p (point i to point p[i]) preserving H, in
    lexicographic order, by the |E|! sweep: the oracle for the generator
    search behind `hc._automorphisms`.  Only facets are tested: H is downward
    closed, so p(facets) in H gives p(H) in H, and a bijection of the finite
    H into itself is onto."""
    hm, facets = hc.h_masks, hc._facet_masks
    return tuple(p for p in itertools.permutations(range(len(hc.ground)))
                 if all(permuted(f, p) in hm for f in facets))


def min_smi_degree(walk) -> int:
    """The fewest smi members of any family the walk reached: the oracle for
    reps.mindeg."""
    full = walk.hc.full_mask
    return min(len(_smi_masks(walk._members(k), full)) for k in walk.nchildren)


def families_by_canon(walk, most: Optional[int] = None) -> list[frozenset[int]]:
    """The walk's members with at most `most` children (all when None) as
    frozensets of point masks, sorted by their sorted mask tuples: the
    oracle of `RepresentationLattice.sorted_keys` and the listing methods."""
    fams = (frozenset(walk._members(k)) for k, n in walk.nchildren.items()
            if most is None or n <= most)
    return sorted(fams, key=lambda f: tuple(sorted(f)))


def rep_report_by_records(args, which: str) -> int:
    """The minimal-reps / sji-reps report built from one RepRecord per printed
    family, its label-row family_matrix turned into text: the oracle for the
    CLI's per-flat rendering (`cli._rep_report`)."""
    hc = _load_hc(args.input)
    walk = reps.RepresentationLattice(hc, max_nontrivial=args.max_flats)
    minimal = walk.minimal_families()
    sji = walk.sji_families()
    chosen = minimal if which == "minimal" else sji
    minset = set(minimal)
    families = []
    for f in chosen:
        rec = walk.record(f)
        families.append({
            "family": _subsets_sorted(hc, rec.family.masks),
            "in_im_theta": True,
            "minimal": f in minset,
            "sji": True,
            "matrix": rec.matrix.to_text().rstrip("\n").split("\n"),
        })
    md, _ = reps.mindeg(hc)
    minimal_orbits, sji_orbits = walk.orbit_counts()
    payload = {
        "families": families,
        "counts": {
            "minimal_raw": len(minimal),
            "minimal_orbits": minimal_orbits,
            "sji_raw": len(sji),
            "sji_orbits": sji_orbits,
            "mindeg": md,
        },
    }
    lines = [f"{which} representations: {len(chosen)}"]
    for fam in families:
        lines.append("  " + "; ".join("{" + ",".join(m) + "}" for m in fam["family"]))
    _emit(args, payload, lines)
    return 0


def _leaf_ok(hc: HereditaryCollection, row_masks: Sequence[int]) -> bool:
    """Do the rows with these zero sets represent hc?  No column is all zero
    (the rows meet in the empty set) and every independent set of two or more
    points has a witnessing row (`HereditaryCollection._witnesses`).  The leaf
    test of `mindeg_unbounded`; reps.mindeg covers the points by witness
    bits instead."""
    wit, every = hc._witnesses
    meet, cov = hc.full_mask, 0
    for z in row_masks:
        meet &= z
        cov |= wit[z]
    return meet == 0 and cov == every


def mindeg_unbounded(hc: HereditaryCollection,
                     enumerate_all: bool = False
                     ) -> tuple[int, list[BoolMatrix]]:
    """Minimum row count of a representing matrix, with witness matrices.

    The search without the gain bound, and with the chain DP as its
    representability test: the oracle for reps.mindeg.

    Any reduced representation's rows are complement indicators of flats, so
    the search runs over subsets of Fl minus E by increasing size, starting
    at the rank (a largest independent set needs that many witness rows).
    Rows represent when they meet in 0 and witness every independent set of
    two or more points (`_leaf_ok`), so a node ORs its rows' witness bits and
    branches on the rows witnessing the lowest uncovered bit (fewest
    witnesses first).  Over MINDEG_MAX_NODES nodes in all raise TooLarge.
    """
    if not hc.is_simple():
        raise NotSimple("minimum degree needs a simple collection")
    if not is_boolean_representable(hc):
        raise NotRepresentable("the collection has no boolean representation")
    full = hc.full_mask
    cands = sorted((m for m in hc._flat_masks if m != full),
                   key=lambda m: (-m.bit_count(), m))
    wit, every = hc._witnesses
    cand_wit = [wit[z] for z in cands]
    witnessed_by: list[list[int]] = [[] for _ in range(every.bit_length())]
    for i, w in enumerate(cand_wit):
        for b in _bits(w):
            witnessed_by[b].append(i)

    def to_matrix(row_masks: Sequence[int]) -> BoolMatrix:
        rows = tuple(
            tuple(0 if (z >> i) & 1 else 1 for i in range(len(hc.ground)))
            for z in row_masks)
        labels = tuple(mask_label(z, hc.ground) for z in row_masks)
        return BoolMatrix(rows, hc.ground, labels)

    found: list[tuple[int, ...]] = []
    nodes = 0

    def leaf(rows: Iterable[int]) -> bool:
        masks = sorted(cands[i] for i in rows)
        if _leaf_ok(hc, masks):
            found.append(tuple(masks))
            return True
        return False

    def rec(chosen: int, banned: int, cov: int) -> bool:
        """Extend chosen (a set of cand indices, none banned) to k rows; cov
        is the OR of the chosen rows' witness bits."""
        nonlocal nodes
        nodes += 1
        if nodes > MINDEG_MAX_NODES:
            raise TooLarge(f"mindeg search exceeds its budget of {MINDEG_MAX_NODES} nodes")
        if cov != every:
            low = ~cov & every
            opts = [i for i in witnessed_by[(low & -low).bit_length() - 1]
                    if not banned >> i & 1]
            if chosen.bit_count() == k or not opts:
                return False
            hit = False
            for i in opts:
                if rec(chosen | 1 << i, banned, cov | cand_wit[i]):
                    hit = True
                    if not enumerate_all:
                        return True
                banned |= 1 << i
            return hit
        if chosen.bit_count() == k:
            return leaf(_bits(chosen))
        rest = [i for i in range(len(cands)) if not (banned | chosen) >> i & 1]
        hit = False
        for extra in itertools.combinations(rest, k - chosen.bit_count()):
            if leaf(itertools.chain(_bits(chosen), extra)):
                hit = True
                if not enumerate_all:
                    return True
        return hit

    for k in range(hc.rank, len(cands) + 1):
        rec(0, 0, 0)
        if found:
            witnesses = [to_matrix(m) for m in sorted(set(found))]
            for w in witnesses:
                if not matrix_represents(hc, w):
                    raise NotRepresentable("mindeg witness failed validation")
            return k, witnesses
    raise NotRepresentable("no representing row set found")  # unreachable
