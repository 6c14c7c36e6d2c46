"""Hereditary collections: circuits, flats, closure, rank, representability.

A hereditary collection (E, H) is a nonempty downward-closed family of
subsets of a finite ground set.  Its flats are the subsets X such that every
independent subset of X stays independent after adding any point outside X;
they are closed under intersection and induce a closure operator.  A simple
collection (all 1- and 2-subsets independent) is boolean representable
exactly when every independent set admits an ordering whose successive
closures strictly decrease.

H is stored once, as int masks over the ground order (bit i is ground[i]).
Every query reads those masks; label sets are made only where a result is
returned or printed, and `independents` is such a view.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from math import comb

from ._record import record
from .errors import (
    EmptyFamily,
    FormatError,
    GroundMismatch,
    NotDownwardClosed,
    NotSimple,
    RankTooSmall,
    TooLarge,
)
from .lattice import FlatFamily, VGenLattice, _bits, family_matrix, generated_lattice, \
    labels_to_mask, mask_order, mask_to_labels, mask_to_list
from .sbcore import BoolMatrix


def permuted(mask: int, perm: Sequence[int]) -> int:
    """The image of mask when point i goes to point perm[i]."""
    t = 0
    while mask:
        low = mask & -mask
        t |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return t


def _image_tables(gens: Sequence[Sequence[int]], masks: Iterable[int]
                  ) -> tuple[dict[int, int], list[list[int]]]:
    """A bit for each of the distinct masks and for each of their images
    under the group the index permutations gens generate (numbered in order
    of appearance), and per generator the bit of each numbered mask's image:
    the mask with bit 1 << i goes to the mask whose bit is the i-th entry.
    A set of masks keyed over the bits maps to one int under each generator.
    For masks closed under the group, bit i stands for the i-th mask."""
    order = list(masks)
    bit = {z: 1 << i for i, z in enumerate(order)}
    tables: list[list[int]] = [[] for _ in gens]
    for z in order:  # images not yet numbered join the end of the list
        for p, table in zip(gens, tables):
            w = permuted(z, p)
            if w not in bit:
                bit[w] = 1 << len(order)
                order.append(w)
            table.append(bit[w])
    return bit, tables


def _orbits(keys: Iterable[int], images: Sequence[Sequence[int]]) -> Iterator[set[int]]:
    """The orbits of the keys, each as a set of keys, yielded when its first
    key is met; later keys of a met orbit are one lookup each.  A key is an
    OR of bits 1 << i, and each image table sends bit 1 << i to its i-th
    entry (`_image_tables`).  The orbit is a search over the tables: the
    group is finite, so closure under the generators is closure under the
    group.  This is exact for any key list, invariant under the group or
    not, and costs |orbit| x |generators| key images per orbit met."""
    seen: set[int] = set()
    for key in keys:
        if key in seen:
            continue
        orbit, todo = {key}, [key]
        while todo:
            idx = list(_bits(todo.pop()))
            for image in images:
                k = sum(map(image.__getitem__, idx))
                if k not in orbit:
                    orbit.add(k)
                    todo.append(k)
        seen |= orbit
        yield orbit


def _strong_generators(n: int, hm: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """A strong generating set, for the base 0, 1, ..., n-1, of the index
    permutations p of n points with p(S) in hm exactly when S is in hm.

    The levels run from the deepest stabilizer up.  The generators found
    for the points after i fix 0..i and generate the stabilizer of 0..i;
    with one element fixing 0..i-1 that sends i to each point of its orbit
    they generate the stabilizer of 0..i-1 (a subgroup that holds the
    stabilizer of i and moves i to every point of its orbit is the whole
    group).  So each j > i not yet in the orbit of i under the generators
    found so far needs one search for an automorphism that fixes 0..i-1 and
    sends i to j; there may be none.

    The search assigns p(i), p(i+1), ... in turn and drops a partial map as
    soon as a subset S whose top point t was just assigned has (S in hm) !=
    (p(S) in hm).  Every nonempty subset has a top point, so a complete map
    that survives preserves hm both ways.

    The points are first split into cells by how many members of hm of each
    size hold them.  An automorphism keeps these counts, so p(t) is tried
    only inside t's cell, and i is never sent to a point of another cell.
    """
    inh = bytearray(1 << n)
    # key[x] holds, as digit k in base 2^n, the number of members of size k
    # through x (at most C(n-1, k-1) < 2^n)
    key = [0] * n
    for s in hm:
        inh[s] = 1
        digit = 1 << n * s.bit_count()
        while s:
            low = s & -s
            key[low.bit_length() - 1] += digit
            s ^= low
    cells: dict[int, list[int]] = {}
    for x, k in enumerate(key):
        cells.setdefault(k, []).append(x)
    cell = [cells[k] for k in key]
    img = list(range(1 << n))  # img[S] = p(S) for S inside the assigned points
    gens: list[tuple[int, ...]] = []
    points: list[list[int]] = []  # per generator g, the point bit x to g[x]

    def extend(p: list[int], t: int, used: int, cands) -> tuple[int, ...] | None:
        top = 1 << t
        for q in cands:
            b = 1 << q
            if used & b:
                continue
            for s in range(top):
                im = img[s] | b
                if inh[s | top] != inh[im]:
                    break
                img[s | top] = im
            else:
                p.append(q)
                found = (tuple(p) if t + 1 == n
                         else extend(p, t + 1, used | b, cell[t + 1]))
                if found:
                    return found
                p.pop()
        return None

    for i in reversed(range(n)):
        orbit = {1 << i}  # the point bits of i's orbit: the generators so far fix i
        for j in range(i + 1, n):
            if 1 << j in orbit or cell[j] is not cell[i]:
                continue
            g = extend(list(range(i)), i, (1 << i) - 1, (j,))
            if g:
                gens.append(g)
                points.append([1 << x for x in g])
                orbit = next(_orbits([1 << i], points))
    return tuple(gens)


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _label_mask(s: Iterable[str], gidx: dict[str, int], what: str) -> int:
    """The mask of a label set; a label outside the ground is a FormatError."""
    try:
        return labels_to_mask(s, gidx)
    except KeyError:
        raise FormatError(f"{what} {sorted(set(s), key=str)} outside ground") from None


def _label_masks(sets: Iterable[Iterable[str]], ground: tuple[str, ...], what: str
                 ) -> Iterator[int]:
    gidx = {g: i for i, g in enumerate(ground)}
    return (_label_mask(s, gidx, what) for s in sets)


@record
class HereditaryCollection:
    """Ground set plus the downward-closed family H of independent sets.

    H is stored as `h_masks`, masks over `ground` (bit i is ground[i]); the
    label sets in `independents` are made on first use.
    """

    ground: tuple[str, ...]
    h_masks: frozenset[int]

    def __init__(self, ground: Sequence[str], independents: Iterable[Iterable[str]]
                 ) -> None:
        ground = tuple(ground)
        self._store(ground, _label_masks(independents, ground, "independent set"))

    def _store(self, ground: tuple[str, ...], masks: Iterable[int]) -> None:
        """Check the ground's labels are distinct and H is nonempty and
        downward closed, then set the two fields."""
        if len(set(ground)) != len(ground):
            raise FormatError("duplicate ground labels")
        hm = frozenset(masks)
        if not hm:
            raise EmptyFamily("a hereditary collection needs at least one set")
        full = (1 << len(ground)) - 1
        for s in hm:
            if s & ~full:
                raise FormatError(f"mask {s} outside ground")
            for x in _bits(s):
                if s ^ (1 << x) not in hm:
                    raise NotDownwardClosed((sorted(mask_to_labels(s, ground)),
                                             sorted(mask_to_labels(s ^ (1 << x), ground))))
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "h_masks", hm)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_masks(cls, ground: Sequence[str], masks: Iterable[int]
                   ) -> "HereditaryCollection":
        """The collection whose independent sets are the given masks, validated."""
        obj = object.__new__(cls)
        obj._store(tuple(ground), masks)
        return obj

    @classmethod
    def from_independents(cls, ground: Sequence[str], sets: Iterable[Iterable[str]]):
        return cls(ground, sets)

    @classmethod
    def from_facets(cls, ground: Sequence[str], facets: Iterable[Iterable[str]]):
        """Downward closure of the given maximal sets."""
        ground = tuple(ground)
        # each facet is a mask, so inside E, before any is expanded into subsets
        fac = list(_label_masks(facets, ground, "facet"))
        if not fac:
            raise EmptyFamily("no facets given")
        return cls.from_masks(ground, {s for f in fac for s in _submasks(f)})

    # -- bitmask internals --------------------------------------------------------

    @cached_property
    def _gidx(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.ground)}

    def mask_of(self, s: Iterable[str]) -> int:
        return _label_mask(s, self._gidx, "set")

    def set_of(self, mask: int) -> frozenset[str]:
        return mask_to_labels(mask, self.ground)

    @cached_property
    def independents(self) -> frozenset[frozenset[str]]:
        """H as label sets (a view of `h_masks`)."""
        return frozenset(map(self.set_of, self.h_masks))

    @cached_property
    def _h_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.h_masks, key=lambda m: (m.bit_count(), m)))

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    # -- basic structure ----------------------------------------------------------

    @cached_property
    def _extensions(self) -> dict[int, int]:
        """ext[J], for each J in H: the points p outside J with J + p in H."""
        ext = dict.fromkeys(self.h_masks, 0)
        for s in self.h_masks:
            r = s
            while r:
                low = r & -r
                ext[s ^ low] |= low
                r ^= low
        return ext

    @cached_property
    def _facet_masks(self) -> tuple[int, ...]:
        """Members of H with no one-point extension in H (the maximal ones)."""
        return tuple(s for s, e in self._extensions.items() if not e)

    @cached_property
    def facets(self) -> frozenset[frozenset[str]]:
        """Maximal independent sets (the bases)."""
        return frozenset(map(self.set_of, self._facet_masks))

    @cached_property
    def rank(self) -> int:
        return max(m.bit_count() for m in self.h_masks)

    def is_simple(self) -> bool:
        return self._simple

    @cached_property
    def _simple(self) -> bool:
        n, hm = len(self.ground), self.h_masks
        return all((1 << i) | (1 << j) in hm for i in range(n) for j in range(i, n))

    # -- flats and closure ----------------------------------------------------------

    def is_flat(self, xs: Iterable[str]) -> bool:
        """Definitional test: independents inside extend by any outside point."""
        x = frozenset(xs)
        outside = [p for p in self.ground if p not in x]
        for s in self.independents:
            if s <= x:
                for p in outside:
                    if s | {p} not in self.independents:
                        return False
        return True

    @cached_property
    def _flat_masks(self) -> tuple[int, ...]:
        """The sets X such that every independent J inside X extends by every
        point outside X, in increasing order: the definition, by one subset DP.

        need[J], for J in H, holds the points p outside J with J + p
        dependent.  OR-ing need up over subsets, one pass per point, gives at
        each X the points that some independent J inside X cannot take; X is
        a flat iff all of them lie in X.
        """
        full = self.full_mask
        need = [0] * (full + 1)
        for j, e in self._extensions.items():
            need[j] = full & ~j & ~e
        for b in range(len(self.ground)):
            step = 1 << b
            for x in range(full + 1):
                if x & step:
                    need[x] |= need[x ^ step]
        return tuple(x for x in range(full + 1) if not need[x] & ~x)

    @cached_property
    def _flats(self) -> FlatFamily:
        return FlatFamily.from_masks(self.ground, frozenset(self._flat_masks))

    def flats(self) -> FlatFamily:
        return self._flats

    @cached_property
    def _chain_failure(self) -> int | None:
        """An independent set without strictly decreasing flat closures, or None."""
        return _chain_admissible(self._h_sorted, self._flats._closure)

    @cached_property
    def _witness_sets(self) -> list[list[int]]:
        """For the i-th independent set x of two or more points, the flats z
        that witness it, |z & x| = |x| - 1, in increasing mask order; the
        sets are numbered fewest witnessing flats first (ties in `_h_sorted`
        order).  The collection is boolean representable exactly when its
        full flat family represents, that is, when no list is empty."""
        flats = self._flat_masks
        by_set = [[z for z in flats if (z & x).bit_count() == x.bit_count() - 1]
                  for x in self._h_sorted if x & (x - 1)]
        return sorted(by_set, key=len)

    @cached_property
    def _witnesses(self) -> tuple[dict[int, int], int]:
        """wit[z] for each flat z, and the int with all its bits set: bit i
        of wit[z] says z witnesses the i-th independent set of two or more
        points (`_witness_sets`).  Rows with no all-zero column give every
        x a strictly decreasing closure chain exactly when they witness each
        x: p is outside cl(x - p) iff a row holds x - p and misses p."""
        sets = self._witness_sets
        wit = dict.fromkeys(self._flat_masks, 0)
        for i, zs in enumerate(sets):
            for z in zs:
                wit[z] |= 1 << i
        return wit, (1 << len(sets)) - 1

    def closure(self, xs: Iterable[str]) -> frozenset[str]:
        """Smallest flat containing xs."""
        return self.set_of(self._flats._closure(self.mask_of(xs)))

    # -- circuits -----------------------------------------------------------------

    def circuits(self) -> frozenset[frozenset[str]]:
        return frozenset(self.set_of(m) for m in self._circuit_masks)

    @cached_property
    def _circuit_masks(self) -> tuple[int, ...]:
        """The dependent sets whose one-point deletions are all independent."""
        hm = self.h_masks
        out = []
        for x in range(1 << len(self.ground)):
            if x not in hm:
                r = x
                while r and x ^ (r & -r) in hm:
                    r &= r - 1
                if not r:
                    out.append(x)
        return tuple(out)

    @cached_property
    def _automorphism_generators(self) -> tuple[tuple[int, ...], ...]:
        """A strong generating set, for the base 0, 1, ..., n-1, of the index
        permutations p (point i to point p[i]) preserving H; the search runs
        once per collection, and callers check any cap."""
        return _strong_generators(len(self.ground), self.h_masks)

    @cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Every automorphism, in lexicographic order: the closure of the
        strong generating set under composition.  It closes group elements,
        not int keys, so it does not go through `_orbits`."""
        ident = tuple(range(len(self.ground)))
        seen, todo = {ident}, [ident]
        while todo:
            p = todo.pop()
            for g in self._automorphism_generators:
                q = tuple(map(g.__getitem__, p))
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return tuple(sorted(seen))

    # -- predicates -----------------------------------------------------------------

    def is_matroid(self) -> bool:
        """Exchange property over all pairs with |I| = |J| + 1: some point of
        I - J extends J, that is, I meets ext[J]."""
        ext = self._extensions
        by_size: dict[int, list[int]] = {}
        for s in ext:
            by_size.setdefault(s.bit_count(), []).append(s)
        return all(i & ext[j] for k, js in by_size.items() for j in js
                   for i in by_size.get(k + 1, ()))

    def satisfies_pr(self) -> bool:
        """Point replacement: for nonempty J in H and an independent point p,
        some J - x + p is in H: p lies in J or in ext[J - x] for an x in J."""
        ext = self._extensions
        for j in ext:
            reach, r = j, j
            while r:
                low = r & -r
                reach |= ext[j ^ low]
                r ^= low
            if j and ext[0] & ~reach:
                return False
        return True

    def __repr__(self) -> str:
        return (f"HereditaryCollection(|E|={len(self.ground)}, "
                f"|H|={len(self.h_masks)}, rank={self.rank})")


# -- rank functions ---------------------------------------------------------------


@record
class RankFunction:
    """The full rank table of a hereditary collection, indexed by mask
    (bit i is ground[i])."""

    ground: tuple[str, ...]
    table: tuple[int, ...]

    def of(self, xs: Iterable[str]) -> int:
        return self.table[_label_mask(xs, self._index, "set")]

    @property
    def rank(self) -> int:
        return self.table[-1]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.ground)}


def rank_function(hc: HereditaryCollection) -> RankFunction:
    """Max independent-subset size for every subset, by one subset DP.

    r starts at |m| on each m in H and 0 elsewhere; taking, one pass per
    point b, r(X) = max(r(X), r(X - b)) for each X that holds b leaves at X
    the largest |m| over the members m of H inside X.
    """
    r = [0] * (hc.full_mask + 1)
    for m in hc.h_masks:
        r[m] = m.bit_count()
    for b in range(len(hc.ground)):
        step = 1 << b
        for x in range(len(r)):
            if x & step and r[x ^ step] > r[x]:
                r[x] = r[x ^ step]
    return RankFunction(hc.ground, tuple(r))


def hyperplanes(hc: HereditaryCollection) -> frozenset[frozenset[str]]:
    """Maximal flats other than the full ground set."""
    return frozenset(map(hc.set_of, hc.flats().coatom_masks()))


# -- boolean representability --------------------------------------------------------


@record
class RepresentabilityResult:
    holds: bool
    counterexample: frozenset[str] | None  # an independent set with no ordering

    # written out, not the record's generic one: `represents` builds one per
    # call, over 10^5 times per enumeration of U(3,6)
    def __init__(self, holds: bool, counterexample: frozenset[str] | None) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "counterexample", counterexample)

    def __bool__(self) -> bool:
        return self.holds


def _chain_admissible(h_masks_sorted: Sequence[int], cl) -> int | None:
    """DP over independent sets: does each admit strictly decreasing closures?

    `cl` maps a subset mask to its closure mask.  Returns a failing mask or
    None.  Strictness of Cl(x_i..x_k) over Cl(x_{i+1}..x_k) is equivalent to
    x_i lying outside the smaller closure.  H is downward closed and scanned
    by size, and the scan stops at the first failure, so every proper subset
    of x already has a chain: x needs one point outside the closure of the
    rest.
    """
    for x in h_masks_sorted:
        if x & (x - 1) == 0:
            continue
        m = x
        while m:
            low = m & (-m)
            if not (cl(x ^ low) & low):
                break
            m ^= low
        else:
            return x
    return None


def boolean_representability(hc: HereditaryCollection) -> RepresentabilityResult:
    """Existence of orderings with strictly decreasing closures, per member."""
    if not hc.is_simple():
        raise NotSimple("representability is defined here for simple collections")
    bad = hc._chain_failure
    if bad is None:
        return RepresentabilityResult(True, None)
    return RepresentabilityResult(False, hc.set_of(bad))


def is_boolean_representable(hc: HereditaryCollection) -> bool:
    return boolean_representability(hc).holds


# -- flat lattice bridge ----------------------------------------------------------


def flat_lattice(hc: HereditaryCollection) -> VGenLattice:
    """(Fl(E,H), E) as a generated lattice; points must be flats (simple)."""
    if not hc.is_simple():
        raise NotSimple("the point closures must be the points themselves")
    return generated_lattice(hc.flats())


def flat_matrix(hc: HereditaryCollection) -> BoolMatrix:
    """Matrix with one row per flat and one column per point; 0 iff point in flat."""
    return family_matrix(hc.flats())


# -- boolean operations, truncation, paving ------------------------------------------


def truncation(hc: HereditaryCollection, k: int) -> HereditaryCollection:
    if k < 0:
        raise FormatError("truncation level must be >= 0")
    return HereditaryCollection.from_masks(
        hc.ground, (s for s in hc.h_masks if s.bit_count() <= k))


def union_hc(a: HereditaryCollection, b: HereditaryCollection) -> HereditaryCollection:
    if a.ground != b.ground:
        raise GroundMismatch(a.ground, b.ground)
    return HereditaryCollection.from_masks(a.ground, a.h_masks | b.h_masks)


def intersection_hc(a: HereditaryCollection, b: HereditaryCollection) -> HereditaryCollection:
    if a.ground != b.ground:
        raise GroundMismatch(a.ground, b.ground)
    return HereditaryCollection.from_masks(a.ground, a.h_masks & b.h_masks)


def is_paving(hc: HereditaryCollection) -> bool:
    """Every set of fewer than r points is independent (no circuit is smaller
    than the rank r)."""
    r = hc.rank
    if r <= 2:
        raise RankTooSmall(f"paving needs rank > 2, got {r}")
    n = len(hc.ground)
    return (sum(1 for m in hc.h_masks if m.bit_count() < r)
            == sum(comb(n, s) for s in range(r)))


def paving_representable(hc: HereditaryCollection) -> bool:
    """Rank-size independents must shed a point outside the rest's closure.

    Meaningful (provably equal to representability) for paving collections.
    """
    r = hc.rank
    if r <= 2:
        raise RankTooSmall(f"paving semantics need rank > 2, got {r}")
    cl = hc.flats()._closure
    return all(any(not cl(s ^ (1 << x)) >> x & 1 for x in _bits(s))
               for s in hc.h_masks if s.bit_count() == r)


# -- JSON ------------------------------------------------------------------------


def hc_to_json(hc: HereditaryCollection) -> str:
    fac = [mask_to_list(f, hc.ground) for f in sorted(hc._facet_masks, key=mask_order)]
    return json.dumps({"ground": list(hc.ground), "facets": fac})


def _json_load(text: str):
    """The decoded JSON value; every decoding failure, including nesting too
    deep to parse and an integer past Python's digit limit, is a FormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise FormatError(f"bad JSON: {e}") from None


def _json_labels(value, what: str) -> list[str]:
    """A decoded JSON array of strings or integers, as label strings."""
    if not isinstance(value, list) or not all(
            isinstance(x, (str, int)) and not isinstance(x, bool) for x in value):
        raise FormatError(f"{what} must be an array of strings or integers")
    return [str(x) for x in value]


def _json_label_sets(value, what: str) -> list[list[str]]:
    """A decoded JSON array of label arrays."""
    if not isinstance(value, list):
        raise FormatError(f"{what} must be an array of arrays")
    return [_json_labels(v, f"each member of {what}") for v in value]


def hc_from_json(text: str, max_ground: int | None = None) -> HereditaryCollection:
    """Parse a collection; with max_ground, refuse a larger ground before
    any facet is expanded into its subsets."""
    data = _json_load(text)
    if not isinstance(data, dict) or "ground" not in data:
        raise FormatError("expected an object with a 'ground' key")
    ground = _json_labels(data["ground"], "'ground'")
    if max_ground is not None and len(ground) > max_ground:
        raise TooLarge(f"|E| = {len(ground)} exceeds the cap {max_ground}")
    if "facets" in data:
        return HereditaryCollection.from_facets(
            ground, _json_label_sets(data["facets"], "'facets'"))
    if "independents" in data:
        return HereditaryCollection.from_independents(
            ground, _json_label_sets(data["independents"], "'independents'"))
    raise FormatError("expected a 'facets' or 'independents' key")


# -- generators for the worked examples ----------------------------------------------


def _ground(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(1, n + 1))


def _collection(n: int, r: int, drop: str = "", extra: str = "") -> HereditaryCollection:
    """The subsets of at most r of the points 1..n, less the sets in drop,
    plus those in extra; drop and extra are space-separated digit strings."""
    g = _ground(n)
    # no subset of the n points has more than n members
    h = {c for k in range(min(r, n) + 1) for c in itertools.combinations(g, k)}
    h -= set(map(tuple, drop.split()))
    return HereditaryCollection(g, [*h, *extra.split()])


def uniform(a: int, b: int) -> HereditaryCollection:
    """All subsets of size <= a of a b-element ground set."""
    return _collection(b, a)


FANO_LINES = tuple(map(tuple, "125 137 146 236 247 345 567".split()))


def fano() -> HereditaryCollection:
    """Rank-3 matroid on 7 points whose dependent triples are the 7 lines."""
    return _collection(7, 3, " ".join(map("".join, FANO_LINES)))


def example_bigex() -> HereditaryCollection:
    """Rank-3 matroid on 4 points: every at-most-3-subset except one triple."""
    return _collection(4, 3, "123")


def example_libourne_matrix() -> BoolMatrix:
    """The 3x4 row-minimal representation discussed alongside the 4-point matroid."""
    return BoolMatrix.build(
        [(1, 0, 1, 1), (0, 1, 1, 0), (0, 0, 0, 1)], col_labels=_ground(4))


def example_unio() -> tuple[HereditaryCollection, HereditaryCollection]:
    """Two representable collections on 6 points whose union is not."""
    return (_collection(6, 3, "123 125 135 235 146 246 346 456"),
            _collection(6, 2, extra="123 124 125 126"))


def example_truno() -> HereditaryCollection:
    """Representable collection whose 3-truncation is not representable."""
    return _collection(6, 3, "135 235 146 246 346 456", "1234 1236 1245 1256")


def section3_matrix() -> BoolMatrix:
    """The 3x5 matrix whose flat lattice is the worked 8-element example."""
    return BoolMatrix.build(
        [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0)], col_labels=_ground(5))
