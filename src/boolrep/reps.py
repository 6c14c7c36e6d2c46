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

from collections.abc import Iterator, Sequence, Set
from functools import cached_property

from ._record import record
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
    _image_tables,
    _orbits,
)
from .lattice import (
    FlatFamily,
    VGenLattice,
    _bits,
    _complement_rows,
    closure_op,
    family_matrix,
    generated_lattice,
    mask_label,
)
from .sbcore import _AUTO_ROW, BoolMatrix, _peel

DEFAULT_MAX_NONTRIVIAL_FLATS = 24
AUTOMORPHISM_GROUND_CAP = 8
MINDEG_MAX_NODES = 10_000_000
FISFL_MAX_SUBSETS = 1 << 22
ROWSUM_MAX_ROWS = 4096


def _masks_over(hc: HereditaryCollection, fam: FlatFamily) -> frozenset[int]:
    """fam's member masks, which index hc's points only if the grounds agree."""
    if tuple(fam.ground) != tuple(hc.ground):
        raise GroundMismatch(fam.ground, hc.ground)
    return fam.masks


def check_full_subsemilattice(hc: HereditaryCollection, fam: FlatFamily) -> frozenset[int]:
    """Validate fam as a full subfamily of the flats; a FlatFamily is already
    intersection closed and holds E."""
    masks = _masks_over(hc, fam)
    flat_set = hc.flats().masks
    for m in masks:
        if m not in flat_set:
            raise NotSubsemilattice(f"{sorted(hc.set_of(m))} is not a flat")
    if 0 not in masks:
        raise NotSubsemilattice("a full subfamily contains the empty set and E")
    return masks


# -- the membership test -----------------------------------------------------------


def _represents_masks(hc: HereditaryCollection, members: Sequence[int]) -> bool:
    """Chain test: every independent set has strictly decreasing closures in F."""
    return _chain_admissible(hc._h_sorted, closure_op(members, hc.full_mask)) is None


def represents(hc: HereditaryCollection, fam: FlatFamily) -> bool:
    """Membership of fam in the image of the representation correspondence."""
    if not hc.is_simple():
        raise NotSimple("representation theory needs a simple collection")
    if hc._chain_failure is not None:
        raise NotRepresentable("the collection has no boolean representation")
    return _represents_masks(hc, check_full_subsemilattice(hc, fam))


# -- smi members of a family ---------------------------------------------------------


def _smi_masks(members: Sequence[int], full: int) -> list[int]:
    """Members (except E) covered by at most one other member under inclusion.

    Two covers of z meet in z, so these are the members that differ from the
    meet of their strict supersets.
    """
    out = []
    for z in members:
        if z == full:
            continue
        meet = full
        for w in members:
            if w & z == z and w != z:
                meet &= w
        if meet != z:
            out.append(z)
    return out


def smi_members(hc: HereditaryCollection, fam: FlatFamily) -> frozenset[frozenset[str]]:
    """Smi members of the family, top excluded (the reduced-matrix row set)."""
    masks = _masks_over(hc, fam)
    return frozenset(hc.set_of(m) for m in _smi_masks(sorted(masks), hc.full_mask))


# -- records ---------------------------------------------------------------------------


@record
class RepRecord:
    """One representation: its flat family plus derived lattice and matrices."""

    hc: HereditaryCollection
    family: FlatFamily

    @cached_property
    def lattice(self) -> VGenLattice:
        return generated_lattice(self.family)

    @cached_property
    def matrix(self) -> BoolMatrix:
        """Rows indexed by all family members (size order), columns by E."""
        return family_matrix(self.family)


def order_le(r1: RepRecord, r2: RepRecord) -> bool:
    """The representation order: inclusion of flat families."""
    if r1.hc.ground != r2.hc.ground:
        raise GroundMismatch(r1.hc.ground, r2.hc.ground)
    return r1.family.masks <= r2.family.masks


# -- the walk over representing subfamilies --------------------------------------------


class RepresentationLattice(Set):
    """All representing subfamilies of Fl(E,H), with minimal/sji structure.

    Built by walking down from the full flat family, removing one smi member
    at a time and keeping the subfamilies that still represent; covering in
    the representation order is exactly such a removal, and the representing
    families form an up-set, so the walk is exhaustive.  Each member is
    popped once and all its covering steps are tested then, so the walk also
    records how many representing children (lower covers) each member has.

    A family is keyed by one int over the flat indices: bit i stands for
    `flats[i]`, the i-th flat mask in increasing order.  A family represents
    exactly when its members witness every independent set of two or more
    points (`HereditaryCollection._witnesses`), so a child P - {z} of a
    representing P represents unless z is the only member of P witnessing
    some set.  `nchildren` maps each member's key to its number of
    representing children; `sorted_keys` lists keys.  The walk is itself
    the set of its families: iterating it and the listing methods give
    frozensets of point masks, made only for the families they return, and
    membership tests a key.

    Each stack entry carries what its popping needs, made from its parent's
    by removing one member z:
    - its smi members.  A flat is smi in K iff one of its `avoid` entries
      misses K: the entry for a point p outside the flat keys its strict
      supersets that miss p, and the meet of the strict supersets (E among
      them) differs from the flat iff it holds such a p.  Removing z shrinks
      only the superset lists of members below z, and a meet over fewer sets
      can only grow, so the child's smi members are the parent's minus z plus
      those below z that the test now accepts.
    - how many members witness each set, as bit planes: plane k holds bit k
      of each count, so removing z subtracts z's witness bits with a borrow
      through the planes, and the sets witnessed once are read off directly.
    """

    def __init__(self, hc: HereditaryCollection,
                 max_nontrivial: int = DEFAULT_MAX_NONTRIVIAL_FLATS):
        if not hc.is_simple():
            raise NotSimple("representation theory needs a simple collection")
        self.hc = hc
        self.flats = flats = hc._flat_masks
        nontrivial = [m for m in flats if m not in (0, hc.full_mask)]
        if len(nontrivial) > max_nontrivial:
            raise TooLarge(
                f"{len(nontrivial)} nontrivial flats exceed the cap "
                f"{max_nontrivial}; raise max_nontrivial explicitly")
        if not all(hc._witness_sets):
            raise NotRepresentable("the collection has no boolean representation")
        self._bit = bit = {m: 1 << i for i, m in enumerate(flats)}
        wit = hc._witnesses[0]
        # per flat bit b of a flat z: wit_at[b] is z's witness bits, below[b]
        # keys the nonempty flats strictly inside z, and avoid[b] holds the
        # distinct avoid entries of z (E has none, so it is smi in no family)
        wit_at = {bit[z]: wit[z] for z in flats}
        below = dict.fromkeys(wit_at, 0)
        avoid = {}
        for z, b in bit.items():
            sup = [(w, c) for w, c in bit.items() if w & z == z and w != z]
            if z:
                for _, c in sup:
                    below[c] |= b
            avoid[b] = tuple({sum(c for w, c in sup if not w >> p & 1)
                              for p in _bits(hc.full_mask & ~z)})
        top = (1 << len(flats)) - 1
        smi_top = sum(b for b, a in avoid.items() if b != bit[0] and not all(a))
        counts = list(map(len, hc._witness_sets))
        planes_top = tuple(sum(1 << x for x, c in enumerate(counts) if c >> k & 1)
                           for k in range(max(counts, default=1).bit_length()))
        nchildren = {top: 0}  # every family reached; counts set when popped
        stack = [(top, smi_top, planes_top)]
        while stack:
            key, smi, planes = stack.pop()
            many = 0
            for p in planes[1:]:
                many |= p
            once = planes[0] & ~many
            count = 0
            rest = smi
            while rest:
                low = rest & -rest
                rest ^= low
                if wit_at[low] & once:
                    continue  # z is the only witness of some set
                count += 1
                child = key ^ low
                if child not in nchildren:
                    nchildren[child] = 0
                    grown = smi ^ low
                    new = child & below[low] & ~smi
                    while new:
                        y = new & -new
                        new ^= y
                        for a in avoid[y]:
                            if not a & child:
                                grown |= y
                                break
                    lower, borrow = [], wit_at[low]
                    for p in planes:
                        lower.append(p ^ borrow)
                        borrow &= ~p
                    stack.append((child, grown, tuple(lower)))
            nchildren[key] = count
        self.nchildren = nchildren

    def _members(self, key: int) -> list[int]:
        """The flat masks of a key, in increasing order."""
        flats = self.flats
        out = []
        while key:
            low = key & -key
            out.append(flats[low.bit_length() - 1])
            key ^= low
        return out

    def _family(self, key: int) -> frozenset[int]:
        return frozenset(self._members(key))

    def _key(self, fam) -> int | None:
        """The key of a FlatFamily or a set of point masks; None if some
        member is not a flat."""
        masks = _masks_over(self.hc, fam) if isinstance(fam, FlatFamily) else frozenset(fam)
        key = 0
        for m in masks:
            b = self._bit.get(m)
            if b is None:
                return None
            key |= b
        return key

    _from_iterable = frozenset  # set algebra on a walk gives frozensets

    def __len__(self) -> int:
        return len(self.nchildren)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return map(self._family, self.nchildren)

    def __contains__(self, fam) -> bool:
        return self._key(fam) in self.nchildren

    def sorted_keys(self, most: int | None = None) -> list[int]:
        """The keys of the members with at most `most` children (all when
        None), in the lexicographic order of their sorted member masks."""
        keys = (self.nchildren if most is None
                else [k for k, n in self.nchildren.items() if n <= most])
        return sorted(keys, key=self._members)

    def minimal_families(self) -> list[frozenset[int]]:
        return list(map(self._family, self.sorted_keys(0)))

    def sji_families(self) -> list[frozenset[int]]:
        return list(map(self._family, self.sorted_keys(1)))

    def sorted_families(self) -> list[frozenset[int]]:
        return list(map(self._family, self.sorted_keys()))

    def record(self, fam: frozenset[int]) -> RepRecord:
        return RepRecord(self.hc, FlatFamily.unchecked(self.hc.ground, fam))

    def orbit_counts(self) -> tuple[int, int]:
        """(minimal, sji) orbits under the collection's automorphisms,
        refused with TooLarge past AUTOMORPHISM_GROUND_CAP points.

        The automorphisms permute the members and keep each one's number of
        children, so every member of an orbit of sji families is minimal or
        none is: one `_orbits` pass over the sji keys counts both, reading
        any member's child count.  The flats are closed under the
        automorphisms, so `_image_tables` numbers them as the keys do."""
        sji_keys = (k for k, n in self.nchildren.items() if n <= 1)
        images = _image_tables(_generators(self.hc), self.flats)[1]
        minimal = sji = 0
        for orbit in _orbits(sji_keys, images):
            sji += 1
            minimal += self.nchildren[next(iter(orbit))] == 0
        return minimal, sji


def minimal_representations(hc: HereditaryCollection,
                            walk: RepresentationLattice | None = None
                            ) -> list[RepRecord]:
    walk = walk or RepresentationLattice(hc)
    return [walk.record(f) for f in walk.minimal_families()]


def sji_representations(hc: HereditaryCollection,
                        walk: RepresentationLattice | None = None
                        ) -> list[RepRecord]:
    walk = walk or RepresentationLattice(hc)
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


def enumerate_fisfl(hc: HereditaryCollection) -> Iterator[FlatFamily]:
    """All full intersection-closed subfamilies of the flats, streamed in DFS
    order: each family is yielded as the DFS of `_fisfl_masks` reaches it
    (nontrivial flats by decreasing size, a flat's exclusion branch before
    its inclusion branch).  Callers that need an order sort for themselves.
    More than FISFL_MAX_SUBSETS candidate subsets raise TooLarge.
    """
    if not hc.is_simple():
        raise NotSimple("subfamily enumeration needs a simple collection")
    full = hc.full_mask
    nontrivial = sorted((m for m in hc._flat_masks if m not in (0, full)),
                        key=lambda m: (-m.bit_count(), m))
    if 1 << len(nontrivial) > FISFL_MAX_SUBSETS:
        raise TooLarge(
            f"2^{len(nontrivial)} candidate subsets exceed the cap {FISFL_MAX_SUBSETS}")
    trivial = frozenset((0, full))
    for f in _fisfl_masks(nontrivial):
        yield FlatFamily.unchecked(hc.ground, f | trivial)


# -- join, stacking, row-sum closure -----------------------------------------------------


def join_families(f1: FlatFamily, f2: FlatFamily) -> FlatFamily:
    """Union plus pairwise intersections; already intersection closed."""
    if tuple(f1.ground) != tuple(f2.ground):
        raise GroundMismatch(f1.ground, f2.ground)
    meets = frozenset(a & b for a in f1.masks for b in f2.masks)
    return FlatFamily.from_masks(f1.ground, meets | f1.masks | f2.masks)


def _fresh_label(label: str, taken: set[str]) -> str:
    out = label
    while out in taken:
        out += "'"
    return out


def stack_matrices(m1: BoolMatrix, m2: BoolMatrix) -> BoolMatrix:
    """Concatenate rows, dropping duplicates (first occurrence wins)."""
    if m1.col_labels != m2.col_labels:
        raise GroundMismatch(m1.col_labels, m2.col_labels)
    auto = all(_AUTO_ROW.fullmatch(l) for m in (m1, m2) for l in m.row_labels)
    rows: dict[int, str] = {}  # mask -> label, in first-occurrence order
    taken: set[str] = set()
    for m in (m1, m2):
        for label, r in zip(m.row_labels, m.ones_masks):
            if r not in rows:
                lbl = f"r{len(rows)}" if auto else _fresh_label(label, taken)
                taken.add(lbl)
                rows[r] = lbl
    return BoolMatrix.from_masks(tuple(rows), m1.col_labels, tuple(rows.values()))


def rowsum_closure(m: BoolMatrix) -> BoolMatrix:
    """Close the rows under boolean sum and adjoin the zero row.

    Original rows keep their labels and order; generated rows are appended in
    a canonical order (by row sum, then as the 0/1 rows compare: by the
    column-reversed mask), labelled by their zero sets.  The closure can have
    2^n rows, so more than ROWSUM_MAX_ROWS distinct sums raise TooLarge.
    """
    base = m.ones_masks
    seen = set(base)
    cap = max(ROWSUM_MAX_ROWS, len(seen))  # only a generated row can pass the cap
    for s in base:  # now every OR of a nonempty subset of the rows so far
        seen |= {r | s for r in seen}
        if len(seen) > cap:
            raise TooLarge(f"row-sum closure exceeds {ROWSUM_MAX_ROWS} rows")
    seen.add(0)
    w = m.n_cols
    new_rows = sorted(seen.difference(base),
                      key=lambda r: (r.bit_count(), int(format(r, f"0{w}b")[::-1], 2)))
    labels = list(m.row_labels)
    taken = set(labels)
    full = (1 << w) - 1
    for r in new_rows:
        lbl = _fresh_label(mask_label(full & ~r, m.col_labels), taken)
        taken.add(lbl)
        labels.append(lbl)
    return BoolMatrix.from_masks(base + tuple(new_rows), m.col_labels, tuple(labels))


# -- counting up to ground bijection ------------------------------------------------------


def _generators(hc: HereditaryCollection) -> tuple[tuple[int, ...], ...]:
    """A strong generating set of hc's automorphisms, refused past the cap."""
    if len(hc.ground) > AUTOMORPHISM_GROUND_CAP:
        raise TooLarge(f"automorphism search capped at |E| <= {AUTOMORPHISM_GROUND_CAP}")
    return hc._automorphism_generators


def automorphisms(hc: HereditaryCollection) -> list[dict[str, str]]:
    """Ground permutations preserving the independent sets, in lexicographic
    order of their index permutations."""
    _generators(hc)  # refused past the cap
    g = hc.ground
    return [{g[i]: g[j] for i, j in enumerate(p)} for p in hc._automorphisms]


def count_up_to_e_bijection(records: Sequence[RepRecord]) -> int:
    """Orbits of the records' families under the collection's automorphisms."""
    if not records:
        return 0
    hc = records[0].hc
    fams = [_masks_over(hc, rec.family) for rec in records]
    bit, images = _image_tables(_generators(hc), frozenset().union(*fams))
    keys = (sum(map(bit.__getitem__, fam)) for fam in fams)
    return sum(1 for _ in _orbits(keys, images))


# -- matrix-level representation tests ----------------------------------------------------


def _peel_represents(hc: HereditaryCollection, masks: Sequence[int]) -> bool:
    """Do these row masks represent hc?  Facets of H independent, circuits
    dependent: dependence is upward closed and independence downward closed,
    so checking the facets and the circuits covers every subset of E."""
    return (all(_peel(masks, f) for f in hc._facet_masks)
            and not any(_peel(masks, c) for c in hc._circuit_masks))


def matrix_represents(hc: HereditaryCollection, m: BoolMatrix) -> bool:
    """Witness check: facets of H independent, circuits dependent."""
    if tuple(m.col_labels) != tuple(hc.ground):
        raise GroundMismatch(m.col_labels, hc.ground)
    return _peel_represents(hc, m.ones_masks)


def is_rowmin(hc: HereditaryCollection, m: BoolMatrix) -> bool:
    """Every single-row deletion breaks the representation."""
    masks = m.ones_masks
    if len(set(masks)) != len(masks):
        raise FormatError("rowmin is defined for reduced (distinct-row) matrices")
    if not matrix_represents(hc, m):
        raise NotRepresentable("the matrix does not represent the collection")
    return not any(_peel_represents(hc, masks[:i] + masks[i + 1:])
                   for i in range(len(masks)))


# -- minimum degree -------------------------------------------------------------------------


def mindeg(hc: HereditaryCollection,
           enumerate_all: bool = False
           ) -> tuple[int, list[BoolMatrix]]:
    """Minimum row count of a representing matrix, with witness matrices.

    Any reduced representation's rows are complement indicators of flats, so
    the search runs over subsets of Fl minus E by increasing size, starting
    at the rank (a largest independent set needs that many witness rows).
    Rows represent when they witness every independent set x, that is, some
    row z has |z & x| = |x| - 1.  The sets of two or more points have their
    witness bits (`HereditaryCollection._witnesses`); each point p gets one
    more bit, numbered after those, set in the rows that miss p (x = {p}:
    the rows then meet in the empty set).  A node ORs its rows' witness
    bits, records its rows once they cover every bit, and otherwise branches
    on the rows witnessing the lowest uncovered bit (fewest witnesses first,
    the points last).

    A node with `left` rows still to choose is cut when the `left` largest
    gains, each row's count of uncovered set bits, add up to fewer than
    the uncovered set bits: no `left` rows can then cover them, so no node
    below it records.  The point bits stay out of the bound, which they
    would only weaken.  The cut only drops subtrees without recorded rows, so
    the search records the same row sets in the same order and returns the
    same k, witnesses and `enumerate_all` set.

    At the root, until some first row has led to a representing k-set, a
    failed first row bans its whole orbit under the automorphisms of H, not
    just itself.  Up to then every banned row lies in no representing k-set,
    and an automorphism maps representing row sets onto representing row
    sets, so neither does any image of it: the rows skipped or banned this
    way would only have led to nodes that record nothing.  After a hit,
    `banned` holds a row of a representing set, a later failure only rules
    out the sets that avoid it, and rows are banned one at a time.  The row
    sets recorded, and their order, stay the same.  The candidates are
    closed under the automorphisms (E is fixed), so a failed root row's
    orbit is a set of candidates, expanded over the generators' point tables
    (`_orbits`) once per call and kept under that row.  The root tries the
    same rows in the same order at every k, so an earlier member of the
    orbit would have been tried first and either failed, banning the row,
    or hit, ending the orbit bans: only that row of its orbit ever fails
    at the root, and a later ban of the orbit is one lookup and one OR.
    Past AUTOMORPHISM_GROUND_CAP points no generator search runs and each
    row is its own orbit.  Over MINDEG_MAX_NODES nodes in all raise
    TooLarge.

    No recorded set has fewer than k rows, since the sizes below k found
    none; the rows returned are not re-checked, as covering every witness
    bit is the representation test itself.
    """
    if not hc.is_simple():
        raise NotSimple("minimum degree needs a simple collection")
    full = hc.full_mask
    cands = sorted((m for m in hc._flat_masks if m != full),
                   key=lambda m: (-m.bit_count(), m))
    index = {z: i for i, z in enumerate(cands)}
    # E witnesses nothing, so these are the flats' lists over cand indices
    witnessed_by = [sorted(map(index.__getitem__, zs)) for zs in hc._witness_sets]
    if not all(witnessed_by):
        raise NotRepresentable("the collection has no boolean representation")
    wit, sets = hc._witnesses
    n_sets = sets.bit_length()
    witnessed_by += [[i for i, z in enumerate(cands) if not z >> p & 1]
                     for p in range(len(hc.ground))]
    cand_wit = [wit[z] | (full & ~z) << n_sets for z in cands]
    every = sets | full << n_sets

    found: list[tuple[int, ...]] = []
    nodes = 0
    orbit_of: dict[int, int] = {}  # failed root row's cand index -> its orbit's bits
    points: list[list[int]] = []  # per generator g, the point bit x to g[x]

    def rec(chosen: int, banned: int, cov: int) -> bool:
        """Extend chosen (a set of cand indices, none banned) to k rows; cov
        is the OR of the chosen rows' witness bits."""
        nonlocal nodes
        nodes += 1
        if nodes > MINDEG_MAX_NODES:
            raise TooLarge(f"mindeg search exceeds its budget of {MINDEG_MAX_NODES} nodes")
        if cov == every:
            found.append(tuple(sorted(cands[i] for i in _bits(chosen))))
            return True
        low = ~cov & every
        opts = [i for i in witnessed_by[(low & -low).bit_length() - 1]
                if not banned >> i & 1]
        left = k - chosen.bit_count()
        if not left or not opts:
            return False
        # the gain bound: can the `left` largest gains cover the uncovered sets?
        low &= sets
        gains = sorted(map(int.bit_count, map(low.__and__, cand_wit)))
        if sum(gains[-left:]) < low.bit_count():
            return False
        hit = False
        for i in opts:
            if banned >> i & 1:
                continue  # in the orbit of a failed first row
            if rec(chosen | 1 << i, banned, cov | cand_wit[i]):
                hit = True
                if not enumerate_all:
                    return True
            if chosen or hit:
                banned |= 1 << i
                continue
            if i not in orbit_of:
                if not orbit_of and len(hc.ground) <= AUTOMORPHISM_GROUND_CAP:
                    points.extend([1 << x for x in g] for g in hc._automorphism_generators)
                orbit_of[i] = sum(1 << index[z] for z in next(_orbits([cands[i]], points)))
            banned |= orbit_of[i]
        return hit

    for k in range(hc.rank, len(cands) + 1):
        rec(0, 0, 0)
        if found:
            return k, [_complement_rows(rows, hc.ground) for rows in sorted(set(found))]
    raise NotRepresentable("no representing row set found")  # unreachable
