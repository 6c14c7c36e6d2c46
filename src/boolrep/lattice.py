"""Finite lattices, join-generated lattices and their boolean matrices.

A join-generated lattice (L, E) with generating set E not containing the
bottom corresponds to the boolean matrix with one row per lattice element and
one column per generator, where an entry is 0 exactly when the column's
generator lies below the row's element.  The zero sets of any boolean matrix,
closed under intersection, form the lattice of flats; the two constructions
are mutually inverse up to congruence (independent row/column permutation).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

from ._record import record
from .errors import (
    BottomElement,
    CycleError,
    FormatError,
    NotALattice,
    NotIntersectionClosed,
    TooLarge,
    ZeroColumn,
)
from .sbcore import BoolMatrix

DEFAULT_LATTICE_CAP = 64
DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})  # escapes a label for a quoted DOT string


def _bits(x: int):
    while x:
        low = x & (-x)
        yield low.bit_length() - 1
        x ^= low


def closure_op(members: Sequence[int], full: int) -> Callable[[int], int]:
    """Closure in an intersection-closed family of masks, memoized.

    The returned operator maps a mask s to the meet of the members that
    contain s, or to `full` when none does.
    """
    members = tuple(members)
    cache: dict[int, int] = {}

    def cl(s: int) -> int:
        v = cache.get(s)
        if v is None:
            v = full
            for z in members:
                if z & s == s:
                    v &= z
            cache[s] = v
        return v

    return cl


class FiniteLattice:
    """A finite lattice stored as its principal down-sets.

    down[i] is the bitmask of the elements j <= i.  These masks form an
    intersection-closed family ordered by inclusion: the meet of i and j is
    the element whose down-set is down[i] & down[j], and their join is the
    closure of down[i] | down[j], the smallest down-set containing it.
    """

    def __init__(self, labels: tuple[str, ...], down: tuple[int, ...]) -> None:
        """Validate: a top exists and every pair of down-sets meets in one."""
        n = len(labels)
        if n == 0:
            raise NotALattice("empty element set")
        self.labels = labels
        self._index = {l: i for i, l in enumerate(labels)}
        self.down = down
        self._by_down = {d: i for i, d in enumerate(down)}
        full = (1 << n) - 1
        if full not in self._by_down:
            below = 0
            for i, d in enumerate(down):
                below |= d ^ (1 << i)
            a, b = itertools.islice(_bits(full & ~below), 2)
            raise NotALattice((labels[a], labels[b]))
        for i in range(n):
            for j in range(i + 1, n):
                if down[i] & down[j] not in self._by_down:
                    raise NotALattice((labels[i], labels[j]))
        self.top_i = self._by_down[full]
        self.bottom_i = self._by_down[self._closure(0)]

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_covers(
        cls,
        elements: Sequence[str],
        cover_pairs: Iterable[tuple[str, str]],
    ) -> "FiniteLattice":
        """Build and validate from labels and (lower, upper) order generators.

        Rejects cyclic inputs and posets that are not lattices (a pair without
        a meet, or two maximal elements, is reported).
        """
        labels = tuple(elements)
        if len(set(labels)) != len(labels):
            raise FormatError("duplicate element labels")
        n = len(labels)
        index = {l: i for i, l in enumerate(labels)}
        down = [1 << i for i in range(n)]
        for a, b in cover_pairs:
            if a not in index or b not in index:
                raise FormatError(f"unknown element in cover pair ({a}, {b})")
            if a == b:
                raise CycleError(f"self-loop at {a}")
            down[index[b]] |= 1 << index[a]
        # transitive closure (Warshall): once k is done, every down-set that
        # reaches k holds all of down[k]
        for k in range(n):
            for i in range(n):
                if down[i] >> k & 1:
                    down[i] |= down[k]
        # elements on a common cycle lie below each other: equal down-sets
        if len(set(down)) != n:
            raise CycleError("cover relation contains a cycle")
        return cls(labels, tuple(down))

    @classmethod
    def from_family(cls, ground: Sequence[str], masks: Iterable[int]
                    ) -> tuple["FiniteLattice", dict[int, str]]:
        """Lattice of a family of masks over ground, ordered by inclusion
        (meets must exist).

        Returns the lattice plus the mask -> mask_label map.  Members are
        sorted by size, then by their sorted labels, so construction is
        deterministic; the down-set of each member is the set of members it
        includes.
        """
        ms = sorted(set(masks), key=lambda m: (m.bit_count(),
                                               sorted(mask_to_list(m, ground))))
        labels = {m: mask_label(m, ground) for m in ms}
        down = tuple(sum(1 << i for i, a in enumerate(ms) if a & b == a) for b in ms)
        return cls(tuple(labels.values()), down), labels

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def bottom(self) -> str:
        return self.labels[self.bottom_i]

    @property
    def top(self) -> str:
        return self.labels[self.top_i]

    def index(self, label: str) -> int:
        return self._index[label]

    def leq(self, a: str, b: str) -> bool:
        return bool((self.down[self._index[b]] >> self._index[a]) & 1)

    @cached_property
    def _closure(self) -> Callable[[int], int]:
        return closure_op(self.down, (1 << len(self.labels)) - 1)

    def join(self, a: str, b: str) -> str:
        return self.join_of((a, b))

    def meet(self, a: str, b: str) -> str:
        return self.labels[self._by_down[self.down[self._index[a]]
                                         & self.down[self._index[b]]]]

    def join_of(self, xs: Iterable[str]) -> str:
        s = 0
        for x in xs:
            s |= self.down[self._index[x]]
        return self.labels[self._by_down[self._closure(s)]]

    @cached_property
    def _lower_covers(self) -> tuple[int, ...]:
        """_lower_covers[j]: bitmask of the maximal elements strictly below j."""
        out = []
        for j, d in enumerate(self.down):
            strict = d ^ (1 << j)
            inner = 0
            for k in _bits(strict):
                inner |= self.down[k] ^ (1 << k)
            out.append(strict & ~inner)
        return tuple(out)

    def lower_covers(self, x: str) -> frozenset[str]:
        return frozenset(self.labels[i] for i in _bits(self._lower_covers[self._index[x]]))

    def upper_covers(self, x: str) -> frozenset[str]:
        i = self._index[x]
        return frozenset(self.labels[j] for j, m in enumerate(self._lower_covers)
                         if (m >> i) & 1)

    def cover_pairs(self) -> list[tuple[str, str]]:
        return sorted((self.labels[i], self.labels[j])
                      for j, m in enumerate(self._lower_covers) for i in _bits(m))

    def atoms(self) -> frozenset[str]:
        return self.upper_covers(self.bottom)

    @cached_property
    def _heights(self) -> tuple[int, ...]:
        h = [0] * len(self.labels)
        for j in sorted(range(len(h)), key=lambda i: self.down[i].bit_count()):
            h[j] = max((h[i] + 1 for i in _bits(self._lower_covers[j])), default=0)
        return tuple(h)

    def height_of(self, x: str) -> int:
        return self._heights[self._index[x]]

    def height(self) -> int:
        return self._heights[self.top_i]

    def sji_elements(self) -> frozenset[str]:
        """Elements other than the bottom covering at most one element."""
        return frozenset(
            x for x in self.labels
            if x != self.bottom and len(self.lower_covers(x)) <= 1
        )

    def smi_elements(self) -> frozenset[str]:
        """Elements other than the top covered by at most one element."""
        return frozenset(
            x for x in self.labels
            if x != self.top and len(self.upper_covers(x)) <= 1
        )

    def is_atomic(self) -> bool:
        atoms = labels_to_mask(self.atoms(), self._index)
        return all(self._closure(d & atoms) == d for d in self.down)

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self.labels)} elements, height {self.height()})"


def check_lattice_cap(n: int) -> None:
    """Refuse a lattice of n elements over DEFAULT_LATTICE_CAP."""
    if n > DEFAULT_LATTICE_CAP:
        raise TooLarge(f"lattice cap exceeded: {n} > {DEFAULT_LATTICE_CAP}")


def lattice_from_covers(elements, cover_pairs):
    return FiniteLattice.from_covers(elements, cover_pairs)


@record
class VGenLattice:
    """A finite lattice together with a join-generating set E (bottom excluded)."""

    lattice: FiniteLattice
    gens: tuple[str, ...]

    def __post_init__(self) -> None:
        lat = self.lattice
        if len(lat) < 2:
            raise NotALattice("one-element lattices are not supported here")
        if len(set(self.gens)) != len(self.gens):
            raise FormatError("duplicate generators")
        for g in self.gens:
            if g not in lat._index:
                raise FormatError(f"unknown generator {g!r}")
            if g == lat.bottom:
                raise BottomElement("the bottom element cannot generate")
        gen_mask = labels_to_mask(self.gens, lat._index)
        for x, d in zip(lat.labels, lat.down):
            if lat._closure(d & gen_mask) != d:
                raise NotALattice(f"{x!r} is not a join of generators")

    @cached_property
    def _traces(self) -> tuple[int, ...]:
        """Per element, in lattice order, the mask over gens of the generators
        below it.  Each element is the join of its trace, so x <= y exactly
        when trace(x) is inside trace(y): the traces are ordered as L is."""
        return _traces_over(self.lattice, self.gens)

    def z_of(self, x: str) -> frozenset[str]:
        """Generators below x (the zero set of x's matrix row)."""
        return mask_to_labels(self._traces[self.lattice.index(x)], self.gens)


def _traces_over(lat: FiniteLattice, cols: Sequence[str]) -> tuple[int, ...]:
    """Per element of lat, the mask over cols of the columns below it."""
    idx = [lat.index(c) for c in cols]
    return tuple(sum(1 << k for k, i in enumerate(idx) if d >> i & 1) for d in lat.down)


def labels_to_mask(labels: Iterable[str], index: dict[str, int]) -> int:
    """The mask with bit index[x] set for each label x."""
    m = 0
    for x in labels:
        m |= 1 << index[x]
    return m


def mask_to_labels(mask: int, ground: Sequence[str]) -> frozenset[str]:
    """The labels ground[i] of the set bits i of mask."""
    return frozenset(ground[i] for i in _bits(mask))


def mask_to_list(mask: int, ground: Sequence[str]) -> list[str]:
    """mask_to_labels in ground order, for printing."""
    return [ground[i] for i in _bits(mask)]


def mask_order(mask: int) -> tuple[int, list[int]]:
    """Sort key: size, then the points' ground positions."""
    return mask.bit_count(), list(_bits(mask))


@record
class FlatFamily:
    """An intersection-closed family of subsets of a ground set, containing E.

    Members are stored as masks over `ground` (bit i is ground[i]); the label
    sets in `members` are computed on first use.
    """

    ground: tuple[str, ...]
    masks: frozenset[int]

    def __init__(self, ground: Sequence[str], members: Iterable[Iterable[str]]) -> None:
        members = frozenset(map(frozenset, members))
        g = frozenset(ground)
        if g not in members:
            raise NotIntersectionClosed("the full ground set must be a member")
        for m in members:
            if not m <= g:
                raise NotIntersectionClosed(f"member {sorted(m)} outside ground")
        object.__setattr__(self, "ground", tuple(ground))
        object.__setattr__(self, "masks",
                           frozenset(labels_to_mask(m, self._index) for m in members))
        self.__dict__["members"] = members  # the label view, already at hand
        self._check_meets()

    @classmethod
    def unchecked(cls, ground: tuple[str, ...], masks: frozenset[int]) -> "FlatFamily":
        """Skip validation; for internal paths that construct closed families."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ground", ground)
        object.__setattr__(obj, "masks", masks)
        return obj

    @classmethod
    def from_masks(cls, ground: tuple[str, ...], masks: frozenset[int]) -> "FlatFamily":
        """The family of the given masks over ground, validated."""
        if (1 << len(ground)) - 1 not in masks:
            raise NotIntersectionClosed("the full ground set must be a member")
        obj = cls.unchecked(ground, masks)
        obj._check_meets()
        return obj

    def _check_meets(self) -> None:
        for a, b in itertools.combinations(self.masks, 2):
            if a & b not in self.masks:
                raise NotIntersectionClosed((sorted(mask_to_labels(a, self.ground)),
                                             sorted(mask_to_labels(b, self.ground))))

    @cached_property
    def members(self) -> frozenset[frozenset[str]]:
        return frozenset(mask_to_labels(m, self.ground) for m in self.masks)

    @property
    def full(self) -> bool:
        return 0 in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.members

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.ground)}

    def closure_of(self, xs: Iterable[str]) -> frozenset[str]:
        """Smallest member containing xs (E if nothing smaller does)."""
        try:
            s = labels_to_mask(xs, self._index)
        except KeyError:
            return frozenset(self.ground)  # no member holds a label outside E
        return mask_to_labels(self._closure(s), self.ground)

    @cached_property
    def _closure(self) -> Callable[[int], int]:
        return closure_op(self.masks, (1 << len(self.ground)) - 1)

    def sorted_masks(self) -> list[int]:
        """Members by size, then by their points' ground positions."""
        return sorted(self.masks, key=mask_order)

    def coatom_masks(self) -> list[int]:
        """The maximal members other than E (a collection's hyperplanes)."""
        full = (1 << len(self.ground)) - 1
        proper = [m for m in self.masks if m != full]
        return [m for m in proper if not any(w != m and w & m == m for w in proper)]


def flat_label(s: frozenset, ground: Sequence[str]) -> str:
    """Canonical label of a flat: members in ground order inside braces."""
    order = {g: i for i, g in enumerate(ground)}
    return "{" + ",".join(sorted(s, key=order.__getitem__)) + "}"


def mask_label(mask: int, ground: Sequence[str]) -> str:
    """flat_label of the set whose points are the set bits of mask."""
    return "{" + ",".join(mask_to_list(mask, ground)) + "}"


def _complement_rows(zero_masks: Sequence[int], cols: Sequence[str],
                     labels: Sequence[str] | None = None) -> BoolMatrix:
    """One row per zero-set mask over cols, 0 exactly at the mask's columns;
    rows are labelled by mask_label unless labels are given."""
    full = (1 << len(cols)) - 1
    return BoolMatrix.from_masks(tuple(full & ~z for z in zero_masks), cols,
                                 labels or tuple(mask_label(z, cols) for z in zero_masks))


def family_matrix(fam: FlatFamily) -> BoolMatrix:
    """Rows: members in size order, labelled by flat_label; columns: points.

    An entry is 0 exactly when the column's point lies in the row's member.
    """
    return _complement_rows(fam.sorted_masks(), fam.ground)


# -- matrix of a generated lattice ----------------------------------------------


def matrix_of(vg: VGenLattice) -> BoolMatrix:
    """The boolean matrix with rows L and columns E; 0 where column <= row."""
    return _complement_rows(vg._traces, vg.gens, vg.lattice.labels)


def full_matrix(lat: FiniteLattice) -> BoolMatrix:
    """Matrix of (L, L minus bottom), used for c-independence of elements."""
    cols = tuple(x for x in lat.labels if x != lat.bottom)
    return _complement_rows(_traces_over(lat, cols), cols, lat.labels)


# -- lattice of flats of a matrix ----------------------------------------------


def flats_of_matrix(m: BoolMatrix) -> tuple[FlatFamily, dict[str, frozenset[str]]]:
    """Intersection closure of the row zero sets, plus the per-column flats.

    The column flat of j, the family's closure of j, is the intersection of
    all zero sets containing j; it always contains j.  Zero columns are
    rejected (the empty set would escape the construction).
    """
    ground = m.col_labels
    full = (1 << len(ground)) - 1
    ones = m.ones_masks
    for j, c in enumerate(ground):
        if not any((r >> j) & 1 for r in ones):
            raise ZeroColumn(c)
    members = {full}  # the meets of every subset of the zero sets
    for r in ones:
        members |= {full & ~r & w for w in members}
    fam = FlatFamily.from_masks(ground, frozenset(members))
    return fam, {c: mask_to_labels(fam._closure(1 << j), ground) for j, c in enumerate(ground)}


def generated_lattice(fam: FlatFamily) -> VGenLattice:
    """fam ordered by inclusion, join-generated by the closures of its
    ground's points (each once, in ground order)."""
    lat, labels = FiniteLattice.from_family(fam.ground, fam.masks)
    gens = dict.fromkeys(labels[fam._closure(1 << j)] for j in range(len(fam.ground)))
    return VGenLattice(lat, tuple(gens))


def lattice_from_matrix(m: BoolMatrix) -> VGenLattice:
    """The flat lattice of m, join-generated by the column flats."""
    return generated_lattice(flats_of_matrix(m)[0])


# -- c-independence --------------------------------------------------------------


def c_independence_chain(vg: VGenLattice, xs: Iterable[str]) -> list[str] | None:
    """An enumeration of xs with strictly decreasing suffix joins, or None.

    Peels greedily the first x1, in lattice order, whose removal strictly
    lowers the join of the rest.  c-independence is closed downward (a
    chain's order restricted to a subset is still a chain, as the join of
    fewer elements is lower), so no such peel loses a chain.
    """
    lat = vg.lattice
    s = frozenset(xs)
    if lat.bottom in s:
        raise BottomElement(lat.bottom)
    for x in s:
        if x not in lat._index:
            raise FormatError(f"unknown element {x!r}")
    rest = sorted(s, key=lat.index)
    chain = []
    while len(rest) > 1:
        j = lat.join_of(rest)
        for x1 in rest:
            others = [x for x in rest if x != x1]
            if lat.join_of(others) != j:
                chain.append(x1)
                rest = others
                break
        else:
            return None
    return chain + rest


def c_independent(vg: VGenLattice, xs: Iterable[str]) -> bool:
    return c_independence_chain(vg, xs) is not None


def closure_in_lattice(vg: VGenLattice, xs: Iterable[str]) -> frozenset[str]:
    """Generators below the join of xs — the closure operator of (L, E)."""
    for x in xs:
        if x not in vg.gens:
            raise FormatError(f"{x!r} is not a generator")
    return vg.z_of(vg.lattice.join_of(xs))


# -- congruence (matrices up to independent row/column permutation) --------------


def congruent(m1: BoolMatrix, m2: BoolMatrix) -> bool:
    """True when m2 arises from m1 by permuting rows and columns independently.

    Columns are first partitioned by invariant signatures; a backtracking
    assignment within classes compares sorted row multisets at the leaves.
    """
    if m1.n_rows != m2.n_rows or m1.n_cols != m2.n_cols:
        return False

    def colsig(m: BoolMatrix):
        rw = [r.bit_count() for r in m.ones_masks]
        sigs = []
        for j in range(m.n_cols):
            ones = sorted(w for w, r in zip(rw, m.ones_masks) if r >> j & 1)
            sigs.append((len(ones), tuple(ones)))
        return sigs

    s1, s2 = colsig(m1), colsig(m2)
    if sorted(s1) != sorted(s2):
        return False
    classes: dict = {}
    for j, s in enumerate(s2):
        classes.setdefault(s, []).append(j)
    rows2 = sorted(m2.ones_masks)
    order1 = sorted(range(m1.n_cols), key=lambda j: s1[j])

    used = [False] * m2.n_cols
    assign = [0] * m1.n_cols

    def rec(k: int) -> bool:
        if k == len(order1):  # column j of m1 goes to column assign[j]
            return sorted(sum(1 << assign[j] for j in _bits(r))
                          for r in m1.ones_masks) == rows2
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


def vgen_isomorphic(a: VGenLattice, b: VGenLattice) -> bool:
    """Lattice isomorphism mapping generators onto generators.

    Elements are determined by their generator zero sets, so this is exactly
    congruence of the two matrices.
    """
    la, lb = a.lattice, b.lattice
    if len(la) != len(lb) or len(a.gens) != len(b.gens):
        return False
    return congruent(matrix_of(a), matrix_of(b))


def lattice_isomorphic(a: FiniteLattice, b: FiniteLattice) -> bool:
    """Plain lattice isomorphism, via the canonical sji generating sets."""
    if len(a) != len(b):
        return False
    if len(a) == 1:
        return True
    ga = tuple(sorted(a.sji_elements(), key=a.index))
    gb = tuple(sorted(b.sji_elements(), key=b.index))
    return vgen_isomorphic(VGenLattice(a, ga), VGenLattice(b, gb))


# -- text format and DOT ----------------------------------------------------------


def lattice_to_text(obj) -> str:
    """`elements:` line, one `covers: a < b` line per cover, `gens:` if any."""
    vg = obj if isinstance(obj, VGenLattice) else None
    lat = vg.lattice if vg else obj
    lines = ["elements: " + " ".join(lat.labels)]
    for a, b in lat.cover_pairs():
        lines.append(f"covers: {a} < {b}")
    if vg:
        lines.append("gens: " + " ".join(vg.gens))
    return "\n".join(lines) + "\n"


def lattice_from_text(text: str):
    """Parse the text format; returns VGenLattice when a gens line is present."""
    elements: list[str] | None = None
    pairs: list[tuple[str, str]] = []
    gens: list[str] | None = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("elements:"):
            if elements is not None:
                raise FormatError("repeated elements: line")
            elements = ln[len("elements:"):].split()
        elif ln.startswith("covers:"):
            body = ln[len("covers:"):]
            if "<" not in body:
                raise FormatError(f"bad covers line: {ln!r}")
            a, b = (p.strip() for p in body.split("<", 1))
            pairs.append((a, b))
        elif ln.startswith("gens:"):
            if gens is not None:
                raise FormatError("repeated gens: line")
            gens = ln[len("gens:"):].split()
        else:
            raise FormatError(f"unrecognized line: {ln!r}")
    if not elements:
        raise FormatError("missing elements: line")
    check_lattice_cap(len(elements))
    lat = FiniteLattice.from_covers(elements, pairs)
    if gens is None:
        return lat
    return VGenLattice(lat, tuple(gens))


def hasse_dot(obj) -> str:
    """DOT source for the Hasse diagram; edges point bottom-up, gens get *."""
    vg = obj if isinstance(obj, VGenLattice) else None
    lat = vg.lattice if vg else obj
    gens = set(vg.gens) if vg else set()
    esc = {x: x.translate(DOT_ESCAPES) for x in lat.labels}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for x in lat.labels:
        text = esc[x] + ("*" if x in gens else "")
        lines.append(f'  "{esc[x]}" [label="{text}"];')
    for a, b in lat.cover_pairs():
        lines.append(f'  "{esc[a]}" -> "{esc[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
