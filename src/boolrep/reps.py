"""The lattice of boolean representations of a hereditary collection.

Representations of a simple collection correspond to full intersection-closed
subfamilies of its flats that recognize every independent set through a
strictly decreasing closure chain.  Those subfamilies form an up-set inside
the lattice of all full subfamilies, whose covering steps remove a single
strictly meet irreducible member; walking down from the full flat family
therefore enumerates exactly the representing subfamilies.  Minimal
representations admit no such step, strictly join irreducible ones admit at
most one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    FormatError,
    GroundMismatch,
    NotRepresentable,
    NotSimple,
    NotSubsemilattice,
    TooLarge,
)
from .hereditary import (
    HereditaryCollection,
    _chain_admissible,
    closure_op,
    is_boolean_representable,
)
from .lattice import (
    FlatFamily,
    VGenLattice,
    family_matrix,
    flat_label,
    lattice_of_family,
)
from .sbcore import BoolMatrix, columns_independent

DEFAULT_MAX_NONTRIVIAL_FLATS = 24
AUTOMORPHISM_GROUND_CAP = 8


# -- family <-> mask plumbing ------------------------------------------------------


def _family_masks(hc: HereditaryCollection, fam: FlatFamily) -> frozenset[int]:
    if tuple(fam.ground) != tuple(hc.ground):
        raise GroundMismatch(fam.ground, hc.ground)
    return frozenset(hc.mask_of(m) for m in fam.members)


def _family_from_masks(hc: HereditaryCollection, masks: Iterable[int]) -> FlatFamily:
    return FlatFamily.unchecked(
        hc.ground, frozenset(hc.set_of(m) for m in masks))


def _canon(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(masks))


def check_full_subsemilattice(hc: HereditaryCollection, fam: FlatFamily) -> frozenset[int]:
    """Validate fam as a full intersection-closed subfamily of the flats."""
    masks = _family_masks(hc, fam)
    flat_set = hc._flat_set
    for m in masks:
        if m not in flat_set:
            raise NotSubsemilattice(f"{sorted(hc.set_of(m))} is not a flat")
    if 0 not in masks or hc.full_mask not in masks:
        raise NotSubsemilattice("a full subfamily contains the empty set and E")
    for a, b in itertools.combinations(masks, 2):
        if a & b not in masks:
            raise NotSubsemilattice((sorted(hc.set_of(a)), sorted(hc.set_of(b))))
    return masks


# -- the membership test -----------------------------------------------------------


def _represents_masks(hc: HereditaryCollection, members: Sequence[int]) -> bool:
    """Chain test: every independent set has strictly decreasing closures in F."""
    return _chain_admissible(hc._h_sorted, closure_op(members, hc.full_mask)) is None


def represents(hc: HereditaryCollection, fam: FlatFamily) -> bool:
    """Membership of fam in the image of the representation correspondence."""
    if not hc.is_simple():
        raise NotSimple("representation theory needs a simple collection")
    if not is_boolean_representable(hc):
        raise NotRepresentable("the collection has no boolean representation")
    masks = check_full_subsemilattice(hc, fam)
    return _represents_masks(hc, sorted(masks))


# -- smi members of a family ---------------------------------------------------------


def _smi_masks(members: Sequence[int], full: int) -> list[int]:
    """Members (except E) covered by at most one other member under inclusion."""
    out = []
    ms = list(members)
    for z in ms:
        if z == full:
            continue
        sups = [w for w in ms if w != z and (w & z) == z]
        ncov = 0
        for w in sups:
            if not any(v != w and (w & v) == v for v in sups):
                ncov += 1
                if ncov > 1:
                    break
        if ncov <= 1:
            out.append(z)
    return out


def smi_members(hc: HereditaryCollection, fam: FlatFamily) -> frozenset[frozenset[str]]:
    """Smi members of the family, top excluded (the reduced-matrix row set)."""
    masks = _family_masks(hc, fam)
    return frozenset(hc.set_of(m) for m in _smi_masks(sorted(masks), hc.full_mask))


# -- records ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepRecord:
    """One representation: its flat family plus derived lattice and matrices."""

    hc: HereditaryCollection
    family: FlatFamily

    @cached_property
    def lattice(self) -> VGenLattice:
        lat, labels = lattice_of_family(
            self.family, max_size=max(64, len(self.family) + 1))
        gens = []
        for e in self.hc.ground:
            lbl = labels[self.family.closure_of((e,))]
            if lbl not in gens:
                gens.append(lbl)
        return VGenLattice(lat, tuple(gens))

    @cached_property
    def matrix(self) -> BoolMatrix:
        """Rows indexed by all family members (size order), columns by E."""
        return family_matrix(self.family)

    @cached_property
    def smi_rows(self) -> frozenset[frozenset[str]]:
        return smi_members(self.hc, self.family)

    @cached_property
    def reduced_matrix(self) -> BoolMatrix:
        """Only the rows that are not boolean sums of others (zero row dropped)."""
        keep = self.smi_rows
        idx = [i for i, fl in enumerate(self.family.sorted_members()) if fl in keep]
        return self.matrix.submatrix(idx, range(len(self.hc.ground)))

    @property
    def degree(self) -> int:
        return len(self.smi_rows)

    def canonical_key(self) -> tuple:
        return _canon(self.hc.mask_of(m) for m in self.family.members)


def order_le(r1: RepRecord, r2: RepRecord) -> bool:
    """The representation order: inclusion of flat families."""
    if r1.hc.ground != r2.hc.ground:
        raise GroundMismatch(r1.hc.ground, r2.hc.ground)
    return r1.family.members <= r2.family.members


# -- the walk over representing subfamilies --------------------------------------------


class RepresentationLattice:
    """All representing subfamilies of Fl(E,H), with minimal/sji structure.

    Built by walking down from the full flat family, removing one smi member
    at a time and keeping the subfamilies that still represent; covering in
    the representation order is exactly such a removal, and the representing
    families form an up-set, so the walk is exhaustive.  Each member is
    popped once and all its covering steps are tested then, so the walk also
    records how many representing children (lower covers) each member has.
    """

    def __init__(self, hc: HereditaryCollection,
                 max_nontrivial: int = DEFAULT_MAX_NONTRIVIAL_FLATS):
        if not hc.is_simple():
            raise NotSimple("representation theory needs a simple collection")
        self.hc = hc
        flats = sorted(hc._flat_masks)
        nontrivial = [m for m in flats if m not in (0, hc.full_mask)]
        if len(nontrivial) > max_nontrivial:
            raise TooLarge(
                f"{len(nontrivial)} nontrivial flats exceed the cap "
                f"{max_nontrivial}; raise max_nontrivial explicitly")
        if not is_boolean_representable(hc):
            raise NotRepresentable("the collection has no boolean representation")
        top = frozenset(flats)
        full = hc.full_mask
        tested: dict[frozenset[int], bool] = {top: True}
        nchildren: dict[frozenset[int], int] = {}
        stack = [top]
        while stack:
            fam = stack.pop()
            count = 0
            for z in _smi_masks(sorted(fam), full):
                if z == 0:
                    continue  # fullness: the empty set stays
                child = fam - {z}
                hit = tested.get(child)
                if hit is None:
                    hit = _represents_masks(hc, sorted(child))
                    tested[child] = hit
                    if hit:
                        stack.append(child)
                count += hit
            nchildren[fam] = count
        self.top = top
        self.nchildren = nchildren
        self.members = nchildren.keys()

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, fam) -> bool:
        if isinstance(fam, FlatFamily):
            return frozenset(_family_masks(self.hc, fam)) in self.members
        return frozenset(fam) in self.members

    def minimal_families(self) -> list[frozenset[int]]:
        return sorted((f for f, k in self.nchildren.items() if k == 0), key=_canon)

    def sji_families(self) -> list[frozenset[int]]:
        return sorted((f for f, k in self.nchildren.items() if k <= 1), key=_canon)

    def sorted_families(self) -> list[frozenset[int]]:
        return sorted(self.members, key=_canon)

    def record(self, fam: frozenset[int]) -> RepRecord:
        return RepRecord(self.hc, _family_from_masks(self.hc, fam))

    def mindeg(self) -> int:
        full = self.hc.full_mask
        return min(len(_smi_masks(sorted(f), full)) for f in self.members)


def enumerate_im_theta(hc: HereditaryCollection,
                       max_nontrivial: int = DEFAULT_MAX_NONTRIVIAL_FLATS
                       ) -> Iterator[RepRecord]:
    walk = RepresentationLattice(hc, max_nontrivial=max_nontrivial)
    for fam in walk.sorted_families():
        yield walk.record(fam)


def minimal_representations(hc: HereditaryCollection,
                            max_nontrivial: int = DEFAULT_MAX_NONTRIVIAL_FLATS,
                            walk: Optional[RepresentationLattice] = None
                            ) -> list[RepRecord]:
    walk = walk or RepresentationLattice(hc, max_nontrivial=max_nontrivial)
    return [walk.record(f) for f in walk.minimal_families()]


def sji_representations(hc: HereditaryCollection,
                        max_nontrivial: int = DEFAULT_MAX_NONTRIVIAL_FLATS,
                        walk: Optional[RepresentationLattice] = None
                        ) -> list[RepRecord]:
    walk = walk or RepresentationLattice(hc, max_nontrivial=max_nontrivial)
    return [walk.record(f) for f in walk.sji_families()]


# -- exhaustive subfamily enumeration ---------------------------------------------------


def _fisfl_masks(nontrivial: Sequence[int]) -> Iterator[frozenset[int]]:
    """DFS over include/exclude with propagated intersection requirements.

    Elements are visited in decreasing size order; including an element can
    only require strictly smaller elements, which are still ahead, so the
    requirement set is always satisfiable and every leaf is a closed family.
    """
    n = len(nontrivial)

    def dfs(i: int, chosen: frozenset[int], required: frozenset[int]):
        if i == n:
            yield chosen
            return
        m = nontrivial[i]
        if m not in required:
            yield from dfs(i + 1, chosen, required)
        req = set(required)
        req.discard(m)
        for c in chosen:
            inter = m & c
            if inter and inter != m and inter != c and inter not in chosen:
                req.add(inter)
        yield from dfs(i + 1, chosen | {m}, frozenset(req))

    yield from dfs(0, frozenset(), frozenset())


def enumerate_fisfl(hc: HereditaryCollection,
                    max_nontrivial: int = DEFAULT_MAX_NONTRIVIAL_FLATS,
                    max_subsets: int = 1 << 22) -> Iterator[FlatFamily]:
    """All full intersection-closed subfamilies of the flats, sorted canonically."""
    if not hc.is_simple():
        raise NotSimple("subfamily enumeration needs a simple collection")
    flats = sorted(hc._flat_masks)
    nontrivial = sorted((m for m in flats if m not in (0, hc.full_mask)),
                        key=lambda m: (-m.bit_count(), m))
    if len(nontrivial) > max_nontrivial:
        raise TooLarge(
            f"{len(nontrivial)} nontrivial flats exceed the cap {max_nontrivial}")
    if 1 << len(nontrivial) > max_subsets:
        raise TooLarge(
            f"2^{len(nontrivial)} candidate subsets exceed the cap {max_subsets}")
    trivial = frozenset((0, hc.full_mask))
    families = sorted((f | trivial for f in _fisfl_masks(nontrivial)), key=_canon)
    for f in families:
        yield _family_from_masks(hc, f)


# -- join, stacking, row-sum closure -----------------------------------------------------


def join_families(f1: FlatFamily, f2: FlatFamily) -> FlatFamily:
    """Union plus pairwise intersections; already intersection closed."""
    if tuple(f1.ground) != tuple(f2.ground):
        raise GroundMismatch(f1.ground, f2.ground)
    members = set(f1.members) | set(f2.members)
    for a in f1.members:
        for b in f2.members:
            members.add(a & b)
    return FlatFamily(f1.ground, frozenset(members))


def _fresh_label(label: str, taken: set[str]) -> str:
    out = label
    while out in taken:
        out += "'"
    return out


def stack_matrices(m1: BoolMatrix, m2: BoolMatrix) -> BoolMatrix:
    """Concatenate rows, dropping duplicates (first occurrence wins)."""
    import re

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


def rowsum_closure(m: BoolMatrix) -> BoolMatrix:
    """Close the rows under boolean sum and adjoin the zero row.

    Original rows keep their labels and order; generated rows are appended in
    a canonical order, labelled by their zero sets.
    """
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


# -- counting up to ground bijection ------------------------------------------------------


def automorphisms(hc: HereditaryCollection) -> list[dict[str, str]]:
    """Ground permutations preserving the independent sets."""
    n = len(hc.ground)
    if n > AUTOMORPHISM_GROUND_CAP:
        raise TooLarge(f"automorphism sweep capped at |E| <= {AUTOMORPHISM_GROUND_CAP}")
    hm = hc.h_masks
    out = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for s in hm:
            t = 0
            for i in range(n):
                if (s >> i) & 1:
                    t |= 1 << perm[i]
            if t not in hm:
                ok = False
                break
        if ok:
            out.append({hc.ground[i]: hc.ground[perm[i]] for i in range(n)})
    return out


def count_up_to_e_bijection(records: Sequence[RepRecord]) -> int:
    """Orbits of the records' families under the collection's automorphisms.

    Orbit expansion: the first record of each orbit adds its whole orbit to
    `seen`, so later records of that orbit are one lookup each.  This is
    exact for any record list, invariant under the group or not, and costs
    |orbits| x |G| family images instead of |records| x |G|.
    """
    if not records:
        return 0
    hc = records[0].hc
    fams = [_family_masks(hc, rec.family) for rec in records]
    point_bits = [[1 << hc._gidx[a[g]] for g in hc.ground] for a in automorphisms(hc)]
    # the image of every member mask under every automorphism, built once
    masks = frozenset().union(*fams)
    tables = []
    for bits in point_bits:
        image = {}
        for z in masks:
            t = 0
            for i, b in enumerate(bits):
                if (z >> i) & 1:
                    t |= b
            image[z] = t
        tables.append(image)
    seen: set[frozenset[int]] = set()
    count = 0
    for fam in fams:
        if fam not in seen:
            count += 1
            seen.update(frozenset(map(image.__getitem__, fam)) for image in tables)
    return count


# -- matrix-level representation tests ----------------------------------------------------


def matrix_represents(hc: HereditaryCollection, m: BoolMatrix) -> bool:
    """Witness check: members of H independent, circuits dependent.

    Dependence is upward closed and independence downward closed, so checking
    H and the circuits covers every subset of E.
    """
    if tuple(m.col_labels) != tuple(hc.ground):
        raise GroundMismatch(m.col_labels, hc.ground)
    for s in sorted(hc.independents, key=len, reverse=True):
        if not columns_independent(m, s):
            return False
    for c in hc.circuits():
        if columns_independent(m, c):
            return False
    return True


def is_rowmin(hc: HereditaryCollection, m: BoolMatrix) -> bool:
    """Every single-row deletion breaks the representation."""
    if m.dedupe_rows().n_rows != m.n_rows:
        raise FormatError("rowmin is defined for reduced (distinct-row) matrices")
    if not matrix_represents(hc, m):
        raise NotRepresentable("the matrix does not represent the collection")
    cols = range(m.n_cols)
    for i in range(m.n_rows):
        rest = [j for j in range(m.n_rows) if j != i]
        if matrix_represents(hc, m.submatrix(rest, cols)):
            return False
    return True


# -- minimum degree -------------------------------------------------------------------------


def mindeg(hc: HereditaryCollection,
           enumerate_all: bool = False
           ) -> tuple[int, list[BoolMatrix]]:
    """Minimum row count of a representing matrix, with witness matrices.

    Any reduced representation's rows are complement indicators of flats, so
    the search runs over subsets of Fl minus E by increasing size, starting
    at the rank (a largest independent set needs that many witness rows).
    Branching picks an independent set not yet first-row-covered (some chosen
    row must miss exactly one of its points) and tries its viable rows, which
    prunes most of the subset space; leaves get the exact chain test.
    """
    if not hc.is_simple():
        raise NotSimple("minimum degree needs a simple collection")
    if not is_boolean_representable(hc):
        raise NotRepresentable("the collection has no boolean representation")
    full = hc.full_mask
    cands = sorted((m for m in hc._flat_masks if m != full),
                   key=lambda m: (-m.bit_count(), m))
    constraints = [x for x in hc._h_sorted if x.bit_count() >= 2]
    viable = {}
    for x in constraints:
        k = x.bit_count()
        viable[x] = frozenset(
            i for i, z in enumerate(cands) if (z & x).bit_count() == k - 1)
    constraints.sort(key=lambda x: len(viable[x]))

    def leaf_ok(row_masks: list[int]) -> bool:
        members = set(row_masks)
        members.add(full)
        work = list(members)
        while work:
            z = work.pop()
            for w in list(members):
                i = w & z
                if i not in members:
                    members.add(i)
                    work.append(i)
        if 0 not in members:
            return False  # all-zero column: some point in every row's zero set
        return _represents_masks(hc, sorted(members))

    def to_matrix(row_masks: Sequence[int]) -> BoolMatrix:
        rows = tuple(
            tuple(0 if (z >> i) & 1 else 1 for i in range(len(hc.ground)))
            for z in row_masks)
        labels = tuple(flat_label(hc.set_of(z), hc.ground) for z in row_masks)
        return BoolMatrix(rows, hc.ground, labels)

    found: list[tuple[int, ...]] = []

    def search(k: int, collect_all: bool) -> None:
        ncand = len(cands)

        def rec(chosen: frozenset[int], banned: frozenset[int]) -> bool:
            for x in constraints:
                if not any(i in viable[x] for i in chosen):
                    opts = [i for i in sorted(viable[x])
                            if i not in banned and i not in chosen]
                    if len(chosen) == k or not opts:
                        return False
                    hit = False
                    newban = set()
                    for i in opts:
                        if rec(chosen | {i}, banned | frozenset(newban)):
                            hit = True
                            if not collect_all:
                                return True
                        newban.add(i)
                    return hit
            if len(chosen) == k:
                masks = sorted(cands[i] for i in chosen)
                if leaf_ok(masks):
                    found.append(tuple(masks))
                    return True
                return False
            rest = [i for i in range(ncand) if i not in banned and i not in chosen]
            hit = False
            for extra in itertools.combinations(rest, k - len(chosen)):
                masks = sorted(cands[i] for i in chosen | frozenset(extra))
                if leaf_ok(masks):
                    found.append(tuple(masks))
                    hit = True
                    if not collect_all:
                        return True
            return hit

        rec(frozenset(), frozenset())

    for k in range(hc.rank, len(cands) + 1):
        search(k, enumerate_all)
        if found:
            witnesses = [to_matrix(m) for m in sorted(set(found))]
            for w in witnesses:
                if not matrix_represents(hc, w):
                    raise NotRepresentable("mindeg witness failed validation")
            return k, witnesses
    raise NotRepresentable("no representing row set found")  # unreachable
