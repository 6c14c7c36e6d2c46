"""Join-preserving maps, their factorizations, and quotient constructions.

A map between finite lattices preserving all joins (checked on pairs plus the
empty join) is decomposed here into maximal proper surjective steps, each
collapsing one cover pair whose lower element is strictly meet irreducible,
followed by maximal proper injective steps, each inserting one strictly join
irreducible element.  Congruences compatible with joins correspond to closure
operators and, through the flat representation, to intersection-closed flat
subfamilies.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from ._record import record
from .errors import (
    FormatError,
    JoinViolation,
    NotAClosure,
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
from .hereditary import HereditaryCollection, is_boolean_representable
from .lattice import FiniteLattice, FlatFamily, VGenLattice, mask_to_labels

# -- join-preserving maps -----------------------------------------------------------


@record
class VMap:
    """A total map between lattice element sets, with optional generator data."""

    source: FiniteLattice
    target: FiniteLattice
    mapping: Mapping[str, str]
    source_gens: tuple[str, ...] | None = None
    target_gens: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for x in self.source.labels:
            if x not in self.mapping:
                raise FormatError(f"map not total: missing {x!r}")
            if self.mapping[x] not in self.target._index:
                raise FormatError(f"image {self.mapping[x]!r} not in target")

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def image(self) -> frozenset[str]:
        return frozenset(self.mapping[x] for x in self.source.labels)

    def is_surjective(self) -> bool:
        return self.image() == frozenset(self.target.labels)

    def is_injective(self) -> bool:
        return len(self.image()) == len(self.source.labels)


def is_vmap(phi: VMap) -> bool:
    try:
        validate_vmap(phi)
        return True
    except JoinViolation:
        return False


def validate_vmap(phi: VMap) -> bool:
    """Join preservation on pairs and on the empty join (bottom to bottom).

    Pairwise preservation plus the bottom condition extends to all finite
    joins by induction.
    """
    src, tgt, f = phi.source, phi.target, phi.mapping
    if f[src.bottom] != tgt.bottom:
        raise JoinViolation((src.bottom,))
    for x, y in itertools.combinations_with_replacement(src.labels, 2):
        if f[src.join(x, y)] != tgt.join(f[x], f[y]):
            raise JoinViolation((x, y))
    if phi.source_gens is not None and phi.target_gens is not None:
        allowed = set(phi.target_gens) | {tgt.bottom}
        for e in phi.source_gens:
            if f[e] not in allowed:
                raise JoinViolation(("generators", e))
    return True


def compose(phi: VMap, psi: VMap) -> VMap:
    """phi followed by psi."""
    if phi.target.labels != psi.source.labels:
        raise FormatError("composition needs matching middle lattices")
    return VMap(
        phi.source, psi.target,
        {x: psi.mapping[phi.mapping[x]] for x in phi.source.labels},
        phi.source_gens, psi.target_gens,
    )


def identity_map(l: FiniteLattice, gens: tuple[str, ...] | None = None) -> VMap:
    return VMap(l, l, {x: x for x in l.labels}, gens, gens)


# -- congruences and closure operators -------------------------------------------------


@record
class VCongruence:
    """A partition of a lattice compatible with joins."""

    lattice: FiniteLattice
    blocks: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for b in self.blocks:
            if not b or seen & b:
                raise NotACongruence("blocks must partition the elements")
            seen |= b
        if seen != set(self.lattice.labels):
            raise NotACongruence("blocks must cover the elements")
        # "same block" is an equivalence: if the joins of y and w with z lie
        # in different blocks, the first member's join lies apart from one of
        # them, so matching each member against the first member suffices
        cls = self.block_of
        lat = self.lattice
        for b in self.blocks:
            x, *rest = sorted(b)
            for y in rest:
                for z in lat.labels:
                    if cls(lat.join(x, z)) is not cls(lat.join(y, z)):
                        raise NotACongruence((x, y, z))

    @cached_property
    def block_of(self):
        return {x: b for b in self.blocks for x in b}.__getitem__

    @cached_property
    def block_max(self) -> dict[str, str]:
        """Each element's block maximum (the join of its block), in lattice order."""
        lat, of = self.lattice, self.block_of
        tops = {b: lat.join_of(b) for b in self.blocks}
        return {x: tops[of(x)] for x in lat.labels}

    @classmethod
    def from_pairs(cls, lattice: FiniteLattice, pairs: Iterable[tuple[str, str]]
                   ) -> "VCongruence":
        """Smallest equivalence containing the pairs (validated as a congruence)."""
        parent = {x: x for x in lattice.labels}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return cls(lattice, _blocks_by(lattice.labels, find))


def _blocks_by(labels: Iterable[str], key) -> tuple[frozenset[str], ...]:
    """The classes of labels with equal keys, ordered by sorted contents."""
    groups: dict = {}
    for x in labels:
        groups.setdefault(key(x), set()).add(x)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=sorted))


@record
class ClosureOp:
    """An extensive, monotone, idempotent self-map of a lattice."""

    lattice: FiniteLattice
    mapping: Mapping[str, str]

    def __post_init__(self) -> None:
        lat, f = self.lattice, self.mapping
        for x in lat.labels:
            if x not in f:
                raise NotAClosure(f"missing {x!r}")
            if not lat.leq(x, f[x]):
                raise NotAClosure(("extensive", x))
            if f[f[x]] != f[x]:
                raise NotAClosure(("idempotent", x))
        for x, y in itertools.permutations(lat.labels, 2):
            if lat.leq(x, y) and not lat.leq(f[x], f[y]):
                raise NotAClosure(("monotone", x, y))

    def __call__(self, x: str) -> str:
        return self.mapping[x]


def closure_from_congruence(rho: VCongruence) -> ClosureOp:
    """Send each element to the maximum (= join) of its block."""
    return ClosureOp(rho.lattice, dict(rho.block_max))


def congruence_from_closure(xi: ClosureOp) -> VCongruence:
    """Kernel of the closure operator."""
    return VCongruence(xi.lattice, _blocks_by(xi.lattice.labels, xi))


def family_from_congruence(vg: VGenLattice, rho: VCongruence) -> frozenset[frozenset[str]]:
    """The flat subfamily of the block maxima."""
    lat = vg.lattice
    if rho.lattice is not lat and rho.lattice.labels != lat.labels:
        raise FormatError("congruence lives on a different lattice")
    return frozenset(map(vg.z_of, set(rho.block_max.values())))


def congruence_from_family(vg: VGenLattice, family: Iterable[frozenset[str]]
                           ) -> VCongruence:
    """Elements are identified when the same family members lie above them."""
    fam = FlatFamily(vg.gens, family)  # closed under meets, holds the gens
    lat, traces = vg.lattice, vg._traces
    stray = sorted(fam.masks.difference(traces))
    if stray:
        raise NotIntersectionClosed(
            f"member {sorted(mask_to_labels(stray[0], vg.gens))} is not a flat")
    return VCongruence(lat, _blocks_by(lat.labels, lambda x: fam._closure(traces[lat.index(x)])))


# -- quotients ---------------------------------------------------------------------------


def quotient_lattice(lat: FiniteLattice, rho: VCongruence,
                     gens: Sequence[str] | None = None
                     ) -> tuple[FiniteLattice, VMap]:
    """Quotient by a join congruence, with the canonical projection.

    Blocks are named after their maximum element.  When generators are given
    they are pushed through the projection (dropping the new bottom).
    """
    return _quotient(lat, dict(rho.block_max), gens)


def _quotient(lat: FiniteLattice, names: dict[str, str],
              gens: Sequence[str] | None) -> tuple[FiniteLattice, VMap]:
    """The sublattice of the values of a block-maximum map, the projection
    onto it, and the generators pushed through (the new bottom dropped)."""
    q = _sublattice(lat, names.values())
    qgens = None
    if gens is not None:
        qgens = tuple(dict.fromkeys(
            names[e] for e in gens if names[e] != q.bottom))
    return q, VMap(lat, q, names, tuple(gens) if gens else None, qgens)


def rees_quotient(lat: FiniteLattice, ideal: Iterable[str]) -> FiniteLattice:
    """Collapse a downset not containing the top into a new bottom."""
    ide = frozenset(ideal)
    for x in ide:
        if x not in lat._index:
            raise FormatError(f"unknown element {x!r}")
    for x in lat.labels:
        for y in ide:
            if lat.leq(x, y) and x not in ide:
                raise NotADownset((x, y))
    if lat.top in ide:
        raise TopInIdeal(lat.top)
    if not ide:
        return lat
    keep = [x for x in lat.labels if x not in ide]
    bot = "_B_"
    while bot in lat._index:
        bot += "_"
    # the new bottom is bit 0, below everything; keep[t] moves to bit t + 1
    down = (1,) + tuple(d << 1 | 1 for d in _induced_down(lat, keep))
    return FiniteLattice((bot, *keep), down)


def quotient_by_subsemilattice(lat: FiniteLattice, s: Iterable[str]) -> FiniteLattice:
    """Quotient by the congruence generated by joining against members of s.

    s is join closed, so it has a top t, and x join a = y join b for some
    members a, b exactly when x join t = y join t.  The relation is therefore
    already transitive: it is the kernel of the closure operator x -> x join t.
    Named by their maxima, its blocks are the values x join t, which are
    exactly the elements above t (each such x is x join t): the quotient is
    the up-set of t.
    """
    sub = sorted(frozenset(s), key=lat.index)
    if not sub:
        raise NotJoinClosed("the subsemilattice must be nonempty")
    for x, y in itertools.combinations_with_replacement(sub, 2):
        if lat.join(x, y) not in sub:
            raise NotJoinClosed((x, y))
    t = lat.join_of(sub)
    return _sublattice(lat, (x for x in lat.labels if lat.leq(t, x)))


# -- MPS / MPI factorization ---------------------------------------------------------------


@record
class MpsStep:
    """One surjective step: collapse the cover pair (upper, lower), lower smi."""

    upper: str
    lower: str
    map: VMap


@record
class MpiStep:
    """One injective step: include into the lattice that adds one sji element."""

    added: str
    map: VMap


def mps_factorize(phi: VMap) -> list[MpsStep]:
    """Decompose a surjective join map into single-collapse steps.

    Each step's kernel joins one cover pair with a strictly meet irreducible
    lower element; composing the steps (with the final bijection folded into
    the last step) reproduces the original map exactly.  A bijection yields
    the empty list.

    A non-injective map always has such a pair.  Let b be maximal among the
    elements strictly below the maximum m of their kernel block.  An upper
    cover c <= m of b lies in b's block, so c = m; any other upper cover c
    lies strictly below c join m, which is in c's own block, against the
    choice of b.  So m is b's only upper cover, and f(m) = f(b).  The pair's
    congruence has the one nontrivial block {upper, lower}, named upper, so
    the step deletes its lower element.
    """
    validate_vmap(phi)
    if not phi.is_surjective():
        raise NotSurjective("factorization needs an onto map")
    steps: list[MpsStep] = []
    cur = phi
    while not cur.is_injective():
        lat, f = cur.source, cur.mapping
        for b in lat.labels:
            ups = lat.upper_covers(b)
            if len(ups) == 1:  # b strictly meet irreducible
                (a,) = ups
                if f[a] == f[b]:
                    break
        q, proj = _quotient(lat, {x: a if x == b else x for x in lat.labels},
                            cur.source_gens)
        steps.append(MpsStep(a, b, proj))
        cur = VMap(q, cur.target, {x: f[x] for x in q.labels},
                   proj.target_gens, cur.target_gens)
    if steps:
        # fold the remaining bijection into the last step so composition == phi
        last = steps[-1]
        steps[-1] = MpsStep(last.upper, last.lower, compose(last.map, cur))
    return steps


def mpi_factorize(phi: VMap) -> list[MpiStep]:
    """Decompose an injective join map into single-insertion steps.

    Working down from the target, a minimal missing element is strictly join
    irreducible, so deleting it leaves a lattice and the inclusion is a
    maximal proper injective step.  A finite nonempty set of missing
    elements always has a minimal one.
    """
    validate_vmap(phi)
    if not phi.is_injective():
        raise NotInjective("factorization needs a one-to-one map")
    tgt, image = phi.target, phi.image()
    chain, removed = [tgt], []
    cur = set(tgt.labels)
    while cur != image:
        missing = sorted(cur - image, key=tgt.index)
        # minimal missing element: nothing missing strictly below it
        a = next(x for x in missing
                 if not any(tgt.leq(y, x) and y != x for y in missing))
        removed.append(a)
        cur.discard(a)
        chain.append(_sublattice(tgt, cur))
    chain.reverse()  # smallest first
    steps = [MpiStep(added, VMap(small, big, {x: x for x in small.labels}))
             for added, small, big in zip(reversed(removed), chain, chain[1:])]
    if steps:
        # fold the initial bijection (source onto its image) into the first step
        iso = VMap(phi.source, chain[0], dict(phi.mapping), phi.source_gens, None)
        steps[0] = MpiStep(steps[0].added, compose(iso, steps[0].map))
    return steps


def _induced_down(lat: FiniteLattice, keep: Sequence[str]) -> tuple[int, ...]:
    """Down-sets of the order lat induces on keep (bit t is keep[t])."""
    idx = [lat.index(x) for x in keep]
    return tuple(sum(1 << t for t, i in enumerate(idx) if lat.down[j] >> i & 1)
                 for j in idx)


def _sublattice(lat: FiniteLattice, labels: Iterable[str]) -> FiniteLattice:
    """The induced suborder on labels, in lat's order, validated as a lattice."""
    keep = tuple(sorted(frozenset(labels), key=lat.index))
    return FiniteLattice(keep, _induced_down(lat, keep))


def csi_factorize(phi: VMap) -> tuple[list[MpsStep], list[MpiStep]]:
    """Surjective steps onto the image, then injective steps into the target."""
    validate_vmap(phi)
    image = phi.image()
    mid = _sublattice(phi.target, image)
    onto = VMap(phi.source, mid, dict(phi.mapping), phi.source_gens, None)
    inc = VMap(mid, phi.target, {x: x for x in mid.labels}, None, phi.target_gens)
    return mps_factorize(onto), mpi_factorize(inc)


def compose_steps(phi_steps: Sequence) -> VMap | None:
    """Compose the maps of a step list; None for an empty list."""
    maps = [s.map for s in phi_steps]
    if not maps:
        return None
    out = maps[0]
    for m in maps[1:]:
        out = compose(out, m)
    return out


# -- strong maps --------------------------------------------------------------------------


def is_strong_lattice_map(phi: VMap, src: VGenLattice, tgt: VGenLattice) -> bool:
    """Preimages of target flats (with the bottom adjoined) meet E in flats."""
    src_flats = set(src._traces)
    f = phi.mapping
    for t in tgt._traces:
        zb = {tgt.lattice.bottom, *mask_to_labels(t, tgt.gens)}
        if sum(1 << k for k, e in enumerate(src.gens) if f[e] in zb) not in src_flats:
            return False
    return True


def induced_flat_map(phi: VMap, src: VGenLattice, tgt: VGenLattice
                     ) -> dict[frozenset[str], frozenset[str]]:
    """The flat-to-flat map: image of the flat, bottom dropped, then closed."""
    validate_vmap(phi)
    f = phi.mapping
    out = {}
    for x in src.lattice.labels:
        z = src.z_of(x)
        image = {f[e] for e in z} - {tgt.lattice.bottom}
        out[z] = tgt.z_of(tgt.lattice.join_of(image))
    return out


# -- strong and weak maps of hereditary collections ------------------------------------------


def hc_strong_map(phi: Mapping[str, str], a: HereditaryCollection,
                  b: HereditaryCollection) -> bool:
    """Preimages of flats are flats (both collections simple representable)."""
    for hc in (a, b):
        if not hc.is_simple():
            raise NotSimple("strong maps are defined between simple collections")
        if not is_boolean_representable(hc):
            raise NotRepresentable("strong maps need representable collections")
    for e in a.ground:
        if phi[e] not in b._gidx:
            raise FormatError(f"image {phi[e]!r} outside the target ground")
    img = [b._gidx[phi[e]] for e in a.ground]
    afl = a.flats().masks
    for z in b.flats().masks:
        pre = sum(1 << i for i, j in enumerate(img) if z >> j & 1)
        if pre not in afl:
            return False
    return True


def hc_weak_map(phi: Mapping[str, str], a: HereditaryCollection,
                b: HereditaryCollection) -> bool:
    """Injective images of independence pull back to independence."""
    for e in a.ground:
        if phi[e] not in b._gidx:
            raise FormatError(f"image {phi[e]!r} outside the target ground")
    img = [0] * (1 << len(a.ground))  # img[x]: the mask of phi's image of x
    for x in range(1, len(img)):
        low = x & -x
        img[x] = img[x ^ low] | 1 << b._gidx[phi[a.ground[low.bit_length() - 1]]]
        if img[x].bit_count() == x.bit_count() and img[x] in b.h_masks \
                and x not in a.h_masks:
            return False
    return True


# -- text format -----------------------------------------------------------------------------


def map_to_text(phi: VMap) -> str:
    lines = [f"map: {x} -> {phi.mapping[x]}" for x in phi.source.labels]
    return "\n".join(lines) + "\n"


def map_from_text(text: str, source: FiniteLattice, target: FiniteLattice) -> VMap:
    mapping = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if not ln.startswith("map:") or "->" not in ln:
            raise FormatError(f"bad map line: {ln!r}")
        body = ln[len("map:"):]
        x, y = (p.strip() for p in body.split("->", 1))
        if x not in source._index:
            raise FormatError(f"map line for {x!r}, not in the source")
        if x in mapping:
            raise FormatError(f"repeated map line for {x!r}")
        mapping[x] = y
    return VMap(source, target, mapping)
