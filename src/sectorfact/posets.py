"""Thin orthogonal categories of regions ordered by inclusion.

A `PosetCategory` holds its objects, their site sets and an
orthogonality predicate, and answers every query of `OrthCategory` from
them; the table category of the same arrows (`_poset_table`) is built
only for readers that need one.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .orthcat import Morphism, OrthCategory
from .reports import SchemaError

__all__ = ["PosetCategory"]


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PosetCategory(OrthCategory):
    """Thin orthogonal category of regions ordered by inclusion of their
    site sets, with the arrow U <= V, id "U<=V", whenever U's sites lie in
    V's.  A cospan (U1 <= V, U2 <= V) is orthogonal when `pair(sites U1,
    sites U2)` holds or, with `wide` given, `wide(sites V)` does.

    Every query answers from the order and the predicates, with the values
    and orders of the table category of the same arrows; `table` is that
    category, built on first use, and `morphisms`, `compose_table` and
    `orth` read it.  Positions are those of `objects` (sorted ids): each
    object's up-set and down-set is a bitmask of positions, and so is the
    set of U2 with pair(U1, U2).  Arrow ids sort by source, in the order of
    `id + "<="`, then by target.  An id containing "<=" would make arrow
    ids ambiguous: SchemaError.
    """

    induced_ids = True

    def __init__(self, name: str, regions: dict[str, frozenset], pair, wide=None):
        for u in (u for u in regions if "<=" in u):
            raise SchemaError(f"region id {u} contains <=, which arrow ids use")
        self.name = name
        self.objects = tuple(sorted(regions))
        self.regions = {u: regions[u] for u in self.objects}
        self.pair, self.wide = pair, wide
        self.identities = {u: f"{u}<={u}" for u in self.objects}
        self._pos = {u: i for i, u in enumerate(self.objects)}
        n = len(self.objects)
        self._cells = cells = [self.regions[u] for u in self.objects]
        self._src_order = sorted(range(n), key=lambda i: self.objects[i] + "<=")
        self._src_rank = [0] * n
        for rank, i in enumerate(self._src_order):
            self._src_rank[i] = rank
        # per site, the objects holding it: an up-set is their meet over
        # the object's sites, a down-set misses the holders of every other
        holders: dict = {}
        for i, c in enumerate(cells):
            for x in c:
                holders[x] = holders.get(x, 0) | 1 << i
        full = (1 << n) - 1
        self._up = [functools.reduce(int.__and__, (holders[x] for x in c), full) for c in cells]
        self._down = [
            full & ~functools.reduce(int.__or__, (m for x, m in holders.items() if x not in c), 0)
            for c in cells
        ]
        self._wide = 0 if wide is None else sum(1 << i for i, c in enumerate(cells) if wide(c))
        self._arrows: dict[str, Morphism] = {}
        self._into: dict[str, list[Morphism]] = {}
        self._outof: dict[str, list[Morphism]] = {}
        self._partners: dict[str, list[str]] = {}

    @functools.cached_property
    def table(self) -> OrthCategory:
        return _poset_table(self.name, self.regions, self.pair, self.wide)

    morphisms = property(lambda self: self.table.morphisms)
    compose_table = property(lambda self: self.table.compose_table)
    orth = property(lambda self: self.table.orth)

    @functools.cached_property
    def _pairs(self) -> list[int]:
        """Per position i, the mask of positions j with pair(U_i, U_j)."""
        cells = self._cells
        return [sum(1 << j for j, s2 in enumerate(cells) if self.pair(s1, s2)) for s1 in cells]

    def _targets(self, i: int, j: int) -> int:
        """The mask of targets V with (U_i <= V) perp (U_j <= V)."""
        common = self._up[i] & self._up[j]
        return common if self._pairs[i] >> j & 1 else common & self._wide

    def _mor(self, i: int, j: int) -> Morphism:
        mid = f"{self.objects[i]}<={self.objects[j]}"
        m = self._arrows.get(mid)
        if m is None:
            m = self._arrows[mid] = Morphism(mid, self.objects[i], self.objects[j])
        return m

    def _by_source(self, mask: int) -> list[int]:
        return sorted(_bits(mask), key=self._src_rank.__getitem__)

    # -- accessors -------------------------------------------------------

    def arrow(self, mid: str) -> Morphism | None:
        m = self._arrows.get(mid)
        if m is None:
            src, sep, tgt = mid.partition("<=")
            i, j = self._pos.get(src), self._pos.get(tgt)
            if sep and i is not None and j is not None and self._up[i] >> j & 1:
                m = self._mor(i, j)
        return m

    def hom(self, src: str, tgt: str) -> list[Morphism]:
        i, j = self._pos.get(src), self._pos.get(tgt)
        return [self._mor(i, j)] if i is not None and j is not None and self._up[i] >> j & 1 else []

    def into(self, obj: str) -> list[Morphism]:
        if obj not in self._into:
            j = self._pos.get(obj)
            self._into[obj] = [] if j is None else [
                self._mor(i, j) for i in self._by_source(self._down[j])]
        return self._into[obj]

    def outof(self, obj: str) -> list[Morphism]:
        if obj not in self._outof:
            i = self._pos.get(obj)
            self._outof[obj] = [] if i is None else [self._mor(i, j) for j in _bits(self._up[i])]
        return self._outof[obj]

    def compose(self, g: str, f: str) -> str | None:
        mg, mf = self.arrow(g), self.arrow(f)
        if mg is None or mf is None or mf.tgt != mg.src:
            return None
        return f"{mf.src}<={mg.tgt}"

    def is_orth(self, f1: str, f2: str) -> bool:
        m1, m2 = self.arrow(f1), self.arrow(f2)
        if m1 is None or m2 is None or m1.tgt != m2.tgt:
            return False
        i, j = self._pos[m1.src], self._pos[m2.src]
        return bool(self._pairs[i] >> j & 1 or self._wide >> self._pos[m1.tgt] & 1)

    def orth_pairs(self) -> Iterable[tuple[str, str]]:
        """The orth pairs in sorted order, made one at a time: each f1 in
        arrow-id order, then the f2 into its target, by source."""
        objs = self.objects
        for i in self._src_order:
            for v in _bits(self._up[i]):
                mask = self._down[v] if self._wide >> v & 1 else self._down[v] & self._pairs[i]
                f1 = f"{objs[i]}<={objs[v]}"
                for j in self._by_source(mask):
                    yield f1, f"{objs[j]}<={objs[v]}"

    def same_orth(self, other: OrthCategory) -> bool:
        """Equal orth pairs; on one order, compared per source pair."""
        if not isinstance(other, PosetCategory) or other.regions != self.regions:
            return self.orth == other.orth
        n = range(len(self.objects))
        return all(self._targets(i, j) == other._targets(i, j) for i in n for j in n)

    def has_cocone(self, a: str, b: str) -> bool:
        i, j = self._pos.get(a), self._pos.get(b)
        return i is not None and j is not None and bool(self._up[i] & self._up[j])

    def partners(self, obj: str) -> list[str]:
        if obj not in self._partners:
            j = self._pos.get(obj)
            self._partners[obj] = [] if j is None else [
                u for i, u in enumerate(self.objects) if self._targets(i, j)]
        return self._partners[obj]

    def source_pairs(self) -> list[tuple[str, str]]:
        """As `OrthCategory.source_pairs`.  The least orth pair of sources
        (U_i, U_j) has the least target V in S = `_targets(i, j)`, and pairs
        compare as (source rank of U_i, position of V, source rank of U_j)."""
        rank, n, firsts = self._src_rank, len(self.objects), []
        for i in range(n):
            for j in range(n):
                s = self._targets(i, j)
                if not s:
                    continue
                key = (rank[i], (s & -s).bit_length(), rank[j])
                back = self._targets(j, i)
                if not back or key <= (rank[j], (back & -back).bit_length(), rank[i]):
                    firsts.append((key, i, j))
        firsts.sort()
        return [(self.objects[i], self.objects[j]) for _, i, j in firsts]

    def is_thin(self) -> bool:
        return True

    def schema_errors(self) -> list[str]:
        return []

    @functools.cached_property
    def _covers(self) -> list[tuple[int, int]]:
        """Position pairs (a, b), a below b, generating the order: each b
        with the maximal objects strictly below it and the objects
        isomorphic to it."""
        out = []
        strict = [down & ~up for down, up in zip(self._down, self._up)]
        for b, below in enumerate(strict):
            lower = functools.reduce(int.__or__, (strict[a] for a in _bits(below)), 0)
            same = self._down[b] & self._up[b] & ~(1 << b)
            out += [(a, b) for a in _bits(below & ~lower | same)]
        return out

    def generating_arrows(self) -> list[Morphism]:
        """The covers and the arrows between isomorphic objects: every arrow
        U <= V is a chain of them."""
        return [self._mor(a, b) for a, b in self._covers]

    def proved(self) -> bool:
        """Whether the orthogonality is symmetric and closed under shrinking
        a source and enlarging the target, which proves every axiom
        (`orthcat.validate_category`)."""
        n, up, pairs, wide = len(self.objects), self._up, self._pairs, self._wide
        cols = [0] * n
        for i in range(n):
            for j in _bits(pairs[i]):
                cols[j] |= 1 << i
        for i in range(n):
            if any(up[i] & up[j] & ~wide for j in _bits(pairs[i] ^ cols[i])):
                return False
        covers = self._covers
        for a, b in covers:
            if any(up[b] & up[j] & ~wide for j in _bits(pairs[b] & ~pairs[a])):
                return False
        for v, w in covers:
            if wide >> v & 1 and not wide >> w & 1:
                if any(self._down[v] & ~pairs[i] for i in _bits(self._down[v])):
                    return False
        return True

    def induces(self, target: OrthCategory, obj_map: dict[str, str]) -> bool:
        """Whether the functor induced by the object map into a poset
        category has no violation, decided on the object map: every object
        maps to an object, the order is kept along the generating arrows
        (so along every arrow, by transitivity), and each orthogonal
        cospan (U1 <= V, U2 <= V) maps to one, checked per source pair on
        its set of targets V.  Then every arrow's image is an arrow with
        the image ends, and identities and composites are kept by
        construction."""
        if not isinstance(target, PosetCategory):
            return False
        img = [target._pos.get(obj_map.get(u)) for u in self.objects]
        if None in img or any(not target._up[img[a]] >> img[b] & 1 for a, b in self._covers):
            return False
        wide = sum(1 << i for i, p in enumerate(img) if target._wide >> p & 1)
        n = range(len(img))
        return not any(
            s & ~wide and not target._pairs[img[i]] >> img[j] & 1
            for i in n for j in n for s in (self._targets(i, j),)
        )


def _poset_table(name: str, regions: dict[str, frozenset], pair, wide) -> OrthCategory:
    """The table category of `PosetCategory(name, regions, pair, wide)`,
    its arrows indexed by target in one pass: g after f is the arrow src f
    <= tgt g, read off the order, and the cospans into V are drawn from the
    arrows into V."""
    objects = sorted(regions)
    morphisms = []
    into: dict[str, list[Morphism]] = {v: [] for v in objects}
    arrow: dict[tuple[str, str], str] = {}  # one id string per arrow, shared by the tables
    for a in objects:
        for b in objects:
            if regions[a] <= regions[b]:
                m = Morphism(f"{a}<={b}", a, b)
                morphisms.append(m)
                into[b].append(m)
                arrow[a, b] = m.id
    compose = {(g.id, f.id): arrow[f.src, g.tgt] for g in morphisms for f in into[g.src]}
    identities = {a: arrow[a, a] for a in objects}
    orth = [(m1.id, m2.id) for v in objects for m1 in into[v] for m2 in into[v]
            if pair(regions[m1.src], regions[m2.src]) or wide is not None and wide(regions[v])]
    return OrthCategory(objects, morphisms, compose, identities, orth, name=name)
