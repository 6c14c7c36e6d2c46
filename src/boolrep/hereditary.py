"""Hereditary collections: circuits, flats, closure, rank, representability.

A hereditary collection (E, H) is a nonempty downward-closed family of
subsets of a finite ground set.  Its flats are the subsets X such that every
independent subset of X stays independent after adding any point outside X;
they are closed under intersection and induce a closure operator.  A simple
collection (all 1- and 2-subsets independent) is boolean representable
exactly when every independent set admits an ordering whose successive
closures strictly decrease.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BoolrepError,
    EmptyFamily,
    FormatError,
    GroundMismatch,
    NotDownwardClosed,
    NotSimple,
    RankTooSmall,
    TooLarge,
)
from .lattice import FlatFamily, VGenLattice, family_matrix, lattice_of_family
from .sbcore import BoolMatrix


def _all_subsets(items: Sequence) -> Iterable[frozenset]:
    for r in range(len(items) + 1):
        for c in itertools.combinations(items, r):
            yield frozenset(c)


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


@dataclass(frozen=True)
class HereditaryCollection:
    """Ground set plus the downward-closed family of independent sets."""

    ground: tuple[str, ...]
    independents: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        if len(set(self.ground)) != len(self.ground):
            raise FormatError("duplicate ground labels")
        if not self.independents:
            raise EmptyFamily("a hereditary collection needs at least one set")
        g = frozenset(self.ground)
        for s in self.independents:
            if not s <= g:
                raise FormatError(f"independent set {sorted(s)} outside ground")
            for x in s:
                smaller = s - {x}
                if smaller not in self.independents:
                    raise NotDownwardClosed((sorted(s), sorted(smaller)))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_independents(cls, ground: Sequence[str], sets: Iterable[Iterable[str]]):
        return cls(tuple(ground), frozenset(frozenset(s) for s in sets))

    @classmethod
    def from_facets(cls, ground: Sequence[str], facets: Iterable[Iterable[str]]):
        """Downward closure of the given maximal sets."""
        fac = [frozenset(f) for f in facets]
        if not fac:
            raise EmptyFamily("no facets given")
        h: set[frozenset] = set()
        for f in fac:
            for s in _all_subsets(sorted(f)):
                h.add(s)
        return cls(tuple(ground), frozenset(h))

    # -- bitmask internals --------------------------------------------------------

    @cached_property
    def _gidx(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.ground)}

    def mask_of(self, s: Iterable[str]) -> int:
        m = 0
        for x in s:
            m |= 1 << self._gidx[x]
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[i] for i in range(len(self.ground))
                         if (mask >> i) & 1)

    @cached_property
    def h_masks(self) -> frozenset[int]:
        return frozenset(self.mask_of(s) for s in self.independents)

    @cached_property
    def _h_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.h_masks, key=lambda m: (m.bit_count(), m)))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    # -- basic structure ----------------------------------------------------------

    @cached_property
    def facets(self) -> frozenset[frozenset[str]]:
        """Maximal independent sets (the bases)."""
        return frozenset(
            s for s in self.independents
            if not any(s < t for t in self.independents)
        )

    @cached_property
    def rank(self) -> int:
        return max(len(s) for s in self.independents)

    def is_simple(self) -> bool:
        return self._simple

    @cached_property
    def _simple(self) -> bool:
        e = list(self.ground)
        return all(frozenset(c) in self.independents
                   for r in (1, 2) for c in itertools.combinations(e, r))

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

    def is_flat_by_circuits(self, xs: Iterable[str]) -> bool:
        """Circuit characterization: no circuit leaves X by a single point."""
        x = frozenset(xs)
        for c in self.circuits():
            extra = c - x
            if len(extra) == 1:
                return False
        return True

    @cached_property
    def _flat_masks(self) -> tuple[int, ...]:
        hm = self.h_masks
        n = len(self.ground)
        out = []
        for x in range(1 << n):
            ok = True
            for s in hm:
                if s & x == s:
                    rest = self.full_mask & ~x
                    r = rest
                    while r:
                        low = r & (-r)
                        if (s | low) not in hm:
                            ok = False
                            break
                        r ^= low
                    if not ok:
                        break
            if ok:
                out.append(x)
        return tuple(out)

    @cached_property
    def _flat_set(self) -> frozenset[int]:
        return frozenset(self._flat_masks)

    def flats(self) -> FlatFamily:
        return FlatFamily(
            self.ground, frozenset(self.set_of(m) for m in self._flat_masks)
        )

    @cached_property
    def _closure(self) -> Callable[[int], int]:
        return closure_op(self._flat_masks, self.full_mask)

    @cached_property
    def _chain_failure(self) -> Optional[int]:
        """An independent set without strictly decreasing flat closures, or None."""
        return _chain_admissible(self._h_sorted, self._closure)

    def closure(self, xs: Iterable[str]) -> frozenset[str]:
        """Smallest flat containing xs."""
        return self.set_of(self._closure(self.mask_of(xs)))

    def closure_by_circuits(self, xs: Iterable[str]) -> frozenset[str]:
        """Iterated circuit augmentation; agrees with closure on matroids."""
        cur = self.mask_of(xs)
        circ = [self.mask_of(c) for c in self.circuits()]
        changed = True
        while changed:
            changed = False
            for c in circ:
                extra = c & ~cur
                if extra and extra & (extra - 1) == 0:
                    cur |= extra
                    changed = True
        return self.set_of(cur)

    # -- circuits -----------------------------------------------------------------

    def circuits(self) -> frozenset[frozenset[str]]:
        return frozenset(self.set_of(m) for m in self._circuit_masks)

    @cached_property
    def _circuit_masks(self) -> tuple[int, ...]:
        hm = self.h_masks
        out = []
        for x in range(1 << len(self.ground)):
            if x in hm:
                continue
            minimal = True
            r = x
            while r:
                low = r & (-r)
                if (x ^ low) not in hm:
                    minimal = False
                    break
                r ^= low
            if minimal:
                out.append(x)
        return tuple(out)

    # -- predicates -----------------------------------------------------------------

    def is_matroid(self) -> bool:
        """Exchange property over all pairs with |I| = |J| + 1."""
        by_size: dict[int, list[frozenset]] = {}
        for s in self.independents:
            by_size.setdefault(len(s), []).append(s)
        for k, js in by_size.items():
            bigger = by_size.get(k + 1, [])
            for j in js:
                for i in bigger:
                    if not any(j | {x} in self.independents for x in i - j):
                        return False
        return True

    def satisfies_pr(self) -> bool:
        """Point replacement: swap some member of J for any independent point."""
        points = [p for p in self.ground if frozenset((p,)) in self.independents]
        for j in self.independents:
            if not j:
                continue
            for p in points:
                if not any((j - {x}) | {p} in self.independents for x in j):
                    return False
        return True

    def __repr__(self) -> str:
        return (f"HereditaryCollection(|E|={len(self.ground)}, "
                f"|H|={len(self.independents)}, rank={self.rank})")


# -- rank functions ---------------------------------------------------------------


@dataclass(frozen=True)
class RankFunction:
    """The full rank table of a hereditary collection."""

    ground: tuple[str, ...]
    table: dict

    def of(self, xs: Iterable[str]) -> int:
        return self.table[frozenset(xs)]

    @property
    def rank(self) -> int:
        return self.table[frozenset(self.ground)]


def rank_function(hc: HereditaryCollection, check_submodular: Optional[bool] = None
                  ) -> RankFunction:
    """Max independent-subset size for every subset; axioms checked on build.

    Monotonicity, the realization axiom and heredity on full-rank sets are
    checked always; submodularity (a matroid property) is checked when the
    collection is a matroid and the ground is small enough for the quadratic
    sweep (or when explicitly requested).  The first three follow from
    downward closure and raise NotDownwardClosed when they fail; a failed
    submodularity check raises BoolrepError.
    """
    n = len(hc.ground)
    hm = hc.h_masks
    r = [0] * (1 << n)
    for m in range(1, 1 << n):
        if m in hm:
            r[m] = m.bit_count()
        else:
            best = 0
            t = m
            while t:
                low = t & (-t)
                best = max(best, r[m ^ low])
                t ^= low
            r[m] = best
    # (A1) monotone over covers, (A2) witness subset, (A3) heredity on full rank
    for m in range(1 << n):
        for i in range(n):
            if not (m >> i) & 1:
                if r[m] > r[m | (1 << i)]:
                    raise NotDownwardClosed("rank monotonicity failed")
        if r[m] == m.bit_count() and m:
            t = m
            while t:
                low = t & (-t)
                if r[m ^ low] != (m ^ low).bit_count():
                    raise NotDownwardClosed("heredity failed")
                t ^= low
        # realization: some independent subset of m attains r[m]
        if not any(s & m == s and s.bit_count() == r[m] for s in hm):
            raise NotDownwardClosed("rank not realized by an independent subset")
    if check_submodular is None:
        check_submodular = hc.is_matroid() and n <= 8
    if check_submodular:
        for x in range(1 << n):
            for y in range(1 << n):
                if r[x] + r[y] < r[x | y] + r[x & y]:
                    raise BoolrepError("submodularity failed")
    table = {hc.set_of(m): r[m] for m in range(1 << n)}
    return RankFunction(hc.ground, table)


def hyperplanes(hc: HereditaryCollection) -> frozenset[frozenset[str]]:
    """Maximal flats other than the full ground set."""
    fl = [m for m in hc._flat_masks if m != hc.full_mask]
    out = []
    for m in fl:
        if not any(w != m and w & m == m for w in fl):
            out.append(m)
    return frozenset(hc.set_of(m) for m in out)


# -- boolean representability --------------------------------------------------------


@dataclass(frozen=True)
class RepresentabilityResult:
    holds: bool
    counterexample: Optional[frozenset[str]]  # an independent set with no ordering

    def __bool__(self) -> bool:
        return self.holds


def _chain_admissible(h_masks_sorted: Sequence[int], cl) -> Optional[int]:
    """DP over independent sets: does each admit strictly decreasing closures?

    `cl` maps a subset mask to its closure mask.  Returns a failing mask or
    None.  Strictness of Cl(x_i..x_k) over Cl(x_{i+1}..x_k) is equivalent to
    x_i lying outside the smaller closure.
    """
    ch: dict[int, bool] = {0: True}
    for x in h_masks_sorted:
        if x == 0:
            continue
        if x & (x - 1) == 0:
            ch[x] = True
            continue
        ok = False
        m = x
        while m:
            low = m & (-m)
            rest = x ^ low
            if ch[rest] and not (cl(rest) & low):
                ok = True
                break
            m ^= low
        ch[x] = ok
        if not ok:
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


def closure_ordering(hc: HereditaryCollection, xs: Iterable[str]) -> Optional[list[str]]:
    """An ordering of xs with strictly decreasing closures, if one exists."""
    x = frozenset(xs)

    def rec(s: frozenset) -> Optional[list]:
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


# -- flat lattice bridge ----------------------------------------------------------


def flat_lattice(hc: HereditaryCollection) -> VGenLattice:
    """(Fl(E,H), E) as a generated lattice; points must be flats (simple)."""
    if not hc.is_simple():
        raise NotSimple("the point closures must be the points themselves")
    fam = hc.flats()
    lat, labels = lattice_of_family(fam, max_size=max(64, len(fam) + 1))
    gens = tuple(labels[frozenset((e,))] for e in hc.ground)
    return VGenLattice(lat, gens)


def flat_matrix(hc: HereditaryCollection) -> BoolMatrix:
    """Matrix with one row per flat and one column per point; 0 iff point in flat."""
    return family_matrix(hc.flats())


# -- boolean operations, truncation, paving ------------------------------------------


def truncation(hc: HereditaryCollection, k: int) -> HereditaryCollection:
    if k < 0:
        raise FormatError("truncation level must be >= 0")
    return HereditaryCollection(
        hc.ground, frozenset(s for s in hc.independents if len(s) <= k)
    )


def union_hc(a: HereditaryCollection, b: HereditaryCollection) -> HereditaryCollection:
    if a.ground != b.ground:
        raise GroundMismatch(a.ground, b.ground)
    return HereditaryCollection(a.ground, a.independents | b.independents)


def intersection_hc(a: HereditaryCollection, b: HereditaryCollection) -> HereditaryCollection:
    if a.ground != b.ground:
        raise GroundMismatch(a.ground, b.ground)
    return HereditaryCollection(a.ground, a.independents & b.independents)


def rank3_union_representable_hypothesis(a: HereditaryCollection,
                                         b: HereditaryCollection) -> bool:
    """The rank-3 union theorem's hypothesis: when it holds, the union must test
    representable (asserted by the callers' tests, not here)."""
    if a.ground != b.ground:
        raise GroundMismatch(a.ground, b.ground)
    for hc in (a, b):
        if hc.rank != 3 or not hc.is_simple() or not is_boolean_representable(hc):
            return False
        full = frozenset(hc.ground)
        if any(len(f) > 3 for f in hc.flats().members if f != full):
            return False
    return True


def is_paving(hc: HereditaryCollection) -> bool:
    """No circuit smaller than the rank; the three equivalent forms must agree."""
    r = hc.rank
    if r <= 2:
        raise RankTooSmall(f"paving needs rank > 2, got {r}")
    no_small_circuit = all(len(c) >= r for c in hc.circuits())
    all_small_independent = all(
        frozenset(c) in hc.independents
        for c in itertools.chain.from_iterable(
            itertools.combinations(hc.ground, s) for s in range(r))
    )
    fl = hc.flats()
    small_sets_closed = all(
        frozenset(c) in fl.members
        for c in itertools.chain.from_iterable(
            itertools.combinations(hc.ground, s) for s in range(r - 1))
    )
    if not (no_small_circuit == all_small_independent == small_sets_closed):
        raise NotDownwardClosed("paving clause disagreement")
    return no_small_circuit


def paving_representable(hc: HereditaryCollection) -> bool:
    """Rank-size independents must shed a point outside the rest's closure.

    Meaningful (provably equal to representability) for paving collections.
    """
    r = hc.rank
    if r <= 2:
        raise RankTooSmall(f"paving semantics need rank > 2, got {r}")
    for s in hc.independents:
        if len(s) == r:
            if not any(x not in hc.closure(s - {x}) for x in s):
                return False
    return True


# -- JSON ------------------------------------------------------------------------


def hc_to_json(hc: HereditaryCollection) -> str:
    order = {g: i for i, g in enumerate(hc.ground)}
    fac = sorted(
        (sorted(f, key=order.__getitem__) for f in hc.facets),
        key=lambda f: (len(f), [order[x] for x in f]),
    )
    return json.dumps({"ground": list(hc.ground), "facets": fac})


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


def hc_from_json(text: str, max_ground: Optional[int] = None) -> HereditaryCollection:
    """Parse a collection; with max_ground, refuse a larger ground before
    any facet is expanded into its subsets."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON: {e}") from None
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


def uniform(a: int, b: int) -> HereditaryCollection:
    """All subsets of size <= a of a b-element ground set."""
    g = _ground(b)
    return HereditaryCollection.from_independents(
        g, (c for r in range(a + 1) for c in itertools.combinations(g, r)))


FANO_LINES = (("1", "2", "5"), ("1", "3", "7"), ("1", "4", "6"), ("2", "3", "6"),
              ("2", "4", "7"), ("3", "4", "5"), ("5", "6", "7"))


def fano() -> HereditaryCollection:
    """Rank-3 matroid on 7 points whose dependent triples are the 7 lines."""
    g = _ground(7)
    lines = {frozenset(l) for l in FANO_LINES}
    h = [c for r in range(4) for c in itertools.combinations(g, r)
         if frozenset(c) not in lines]
    return HereditaryCollection.from_independents(g, h)


def example_bigex() -> HereditaryCollection:
    """Rank-3 matroid on 4 points: every at-most-3-subset except one triple."""
    g = _ground(4)
    h = [c for r in range(4) for c in itertools.combinations(g, r)
         if frozenset(c) != frozenset(("1", "2", "3"))]
    return HereditaryCollection.from_independents(g, h)


def example_libourne_matrix() -> BoolMatrix:
    """The 3x4 row-minimal representation discussed alongside the 4-point matroid."""
    return BoolMatrix.build(
        [(1, 0, 1, 1), (0, 1, 1, 0), (0, 0, 0, 1)], col_labels=_ground(4))


def example_unio() -> tuple[HereditaryCollection, HereditaryCollection]:
    """Two representable collections on 6 points whose union is not."""
    g = _ground(6)
    drop1 = {frozenset(t) for t in
             (("1", "2", "3"), ("1", "2", "5"), ("1", "3", "5"), ("2", "3", "5"),
              ("1", "4", "6"), ("2", "4", "6"), ("3", "4", "6"), ("4", "5", "6"))}
    j1 = [c for r in range(4) for c in itertools.combinations(g, r)
          if frozenset(c) not in drop1]
    j2 = [c for r in range(3) for c in itertools.combinations(g, r)]
    j2 += [("1", "2", "3"), ("1", "2", "4"), ("1", "2", "5"), ("1", "2", "6")]
    return (HereditaryCollection.from_independents(g, j1),
            HereditaryCollection.from_independents(g, j2))


def example_truno() -> HereditaryCollection:
    """Representable collection whose 3-truncation is not representable."""
    g = _ground(6)
    drop = {frozenset(t) for t in
            (("1", "3", "5"), ("2", "3", "5"), ("1", "4", "6"),
             ("2", "4", "6"), ("3", "4", "6"), ("4", "5", "6"))}
    h = [c for r in range(4) for c in itertools.combinations(g, r)
         if frozenset(c) not in drop]
    h += [("1", "2", "3", "4"), ("1", "2", "3", "6"),
          ("1", "2", "4", "5"), ("1", "2", "5", "6")]
    return HereditaryCollection.from_independents(g, h)


def section3_matrix() -> BoolMatrix:
    """The 3x5 matrix whose flat lattice is the worked 8-element example."""
    return BoolMatrix.build(
        [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0)], col_labels=_ground(5))
