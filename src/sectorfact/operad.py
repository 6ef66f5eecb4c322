"""Prefactorization operads of finite orthogonal categories.

Operations are tuples of pairwise-orthogonal morphisms into a common
target; composition is arrow-wise composition with tuple concatenation and
the symmetric group acts by reindexing.  Validators check the operad
axioms, the algebra diagrams (unit, composition, permutation) on finite
spanning sets, and the equivariant-algebra coherence laws up to an arity
bound.  The operad axioms follow from the category axioms (unit laws,
associativity, and the closure of orthogonality under transposition, pre-
and post-composition), so `validate_operad` runs `validate_category` first
and enumerates nothing when it is clean.  On any other schema-clean
category it sweeps the operations into targets above a violation on an
interned kernel: equivariance needs no walk of
permutations, and the associativity sweep skips the operations f, the
pairs (f, g) and the h-tuples that interned proofs clear and runs the
reference body on `compose` for the rest.  Likewise `validate_algebra`
proves the composition and permutation diagrams when every carrier element
carries an XOR-additive summary (the sign bits of Pauli conjugations) and
walks every instance otherwise, and `validate_equivariant_algebra` proves
the naturality square when the isomorphisms also act on the summaries, and
enumerates nothing when the group acts by orthogonal functors as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from .orthcat import GroupActionSpec, OrthCategory, validate_category, violation_top
from .reports import PreconditionError, SchemaError, ValidationReport

__all__ = [
    "PrefactOperation",
    "make_operation",
    "point_operation",
    "enumerate_operations",
    "enumerate_all_operations",
    "compose",
    "permute",
    "validate_operad",
    "FiniteAlgebraAssignment",
    "validate_algebra",
    "EquivariantAlgebraAssignment",
    "validate_equivariant_algebra",
]


@dataclass(frozen=True, order=True)
class PrefactOperation:
    """Tuple of pairwise-orthogonal arrows U_i -> V; arity 0 is the point."""

    target: str
    sources: tuple[str, ...]
    arrows: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.arrows)

    def label(self) -> str:
        return f"({','.join(self.arrows)})->{self.target}" if self.arrows else f"pt_{self.target}"


def point_operation(target: str) -> PrefactOperation:
    return PrefactOperation(target=target, sources=(), arrows=())


def make_operation(cat: OrthCategory, arrows: Sequence[str], target: str | None = None) -> PrefactOperation:
    """Build and check an operation from arrow ids (target needed for arity 0)."""
    if not arrows:
        if target is None:
            raise PreconditionError("arity-0 operation needs an explicit target")
        if target not in set(cat.objects):
            raise SchemaError(f"unknown object {target}")
        return point_operation(target)
    ms = []
    for a in arrows:
        m = cat.arrow(a)
        if m is None:
            raise SchemaError(f"unknown morphism {a}")
        ms.append(m)
    tgt = ms[0].tgt
    if any(m.tgt != tgt for m in ms):
        raise PreconditionError("arrows of an operation must share a target")
    if target is not None and target != tgt:
        raise PreconditionError(f"declared target {target} differs from arrow target {tgt}")
    for i in range(len(ms)):
        for j in range(len(ms)):
            if i != j and not cat.is_orth(ms[i].id, ms[j].id):
                raise PreconditionError(
                    f"arrows {ms[i].id} and {ms[j].id} are not orthogonal"
                )
    return PrefactOperation(tgt, tuple(m.src for m in ms), tuple(m.id for m in ms))


def enumerate_operations(
    cat: OrthCategory, sources: Sequence[str], target: str
) -> list[PrefactOperation]:
    """All operations with the given source tuple and target, sorted."""
    objset = set(cat.objects)
    if target not in objset:
        raise SchemaError(f"unknown object {target}")
    for u in sources:
        if u not in objset:
            raise SchemaError(f"unknown object {u}")
    if not sources:
        return [point_operation(target)]
    homs = [cat.hom(u, target) for u in sources]
    out = []
    for combo in itertools.product(*homs):
        if all(
            cat.is_orth(combo[i].id, combo[j].id)
            for i in range(len(combo))
            for j in range(len(combo))
            if i != j
        ):
            out.append(
                PrefactOperation(target, tuple(sources), tuple(m.id for m in combo))
            )
    return sorted(out)


def enumerate_all_operations(
    cat: OrthCategory, bound: int, target: str | None = None
) -> list[PrefactOperation]:
    """All operations of arity <= bound (into `target`, or every object)."""
    targets = [target] if target is not None else list(cat.objects)
    out = []
    for v in targets:
        out.append(point_operation(v))
        incoming = cat.into(v)
        level = [(m,) for m in incoming]
        for arity in range(1, bound + 1):
            for ms in level:
                out.append(
                    PrefactOperation(v, tuple(m.src for m in ms), tuple(m.id for m in ms))
                )
            if arity < bound:
                level = [
                    ms + (m,)
                    for ms in level
                    for m in incoming
                    if all(
                        cat.is_orth(a.id, m.id) and cat.is_orth(m.id, a.id) for a in ms
                    )
                ]
    return sorted(out)


def compose(
    cat: OrthCategory, outer: PrefactOperation, inners: Sequence[PrefactOperation]
) -> PrefactOperation:
    """Operadic composition: arrow-wise composition, tuples concatenated.

    The result is checked to be pairwise orthogonal; closure of the
    orthogonality relation guarantees this on valid categories, so a
    failure here indicts the input category.
    """
    if len(inners) != outer.arity:
        raise PreconditionError(
            f"arity mismatch: outer expects {outer.arity} inner operations"
        )
    arrows: list[str] = []
    sources: list[str] = []
    for f_id, inner in zip(outer.arrows, inners):
        if inner.target != cat.arrow(f_id).src:
            raise PreconditionError(
                f"inner target {inner.target} does not match source of {f_id}"
            )
        for g_id in inner.arrows:
            c = cat.compose(f_id, g_id)
            if c is None:
                raise PreconditionError(f"non-composable arrow pair ({f_id},{g_id})")
            arrows.append(c)
        sources.extend(inner.sources)
    for i in range(len(arrows)):
        for j in range(len(arrows)):
            if i != j and not cat.is_orth(arrows[i], arrows[j]):
                raise PreconditionError(
                    f"composite arrows {arrows[i]} and {arrows[j]} are not orthogonal"
                )
    return PrefactOperation(outer.target, tuple(sources), tuple(arrows))


def permute(op: PrefactOperation, sigma: Sequence[int]) -> PrefactOperation:
    """Right action: (f sigma)_i = f_{sigma(i)}; sigma is 0-based."""
    if sorted(sigma) != list(range(op.arity)):
        raise PreconditionError("sigma must be a permutation of the arity")
    return PrefactOperation(
        op.target,
        tuple(op.sources[s] for s in sigma),
        tuple(op.arrows[s] for s in sigma),
    )


def _inner_tuples(ops_by_target: dict, sources: tuple, budget: int):
    """All tuples (g_1,...,g_n) with g_i targeting sources[i], total arity <= budget.

    Anything with an `arity` works as g: operations or interned operations."""
    if not sources:
        yield ()
        return
    head, rest = sources[0], sources[1:]
    for g in ops_by_target.get(head, []):
        remaining = budget - g.arity
        if remaining < 0:
            continue
        for tail in _inner_tuples(ops_by_target, rest, remaining):
            yield (g,) + tail


def _mutual_orth_masks(cat: OrthCategory, index: dict[str, int]) -> list[int]:
    """Per arrow a, the bitmask of arrows b with both (a, b) and (b, a) in
    the orthogonality relation: the row mask of a ANDed with its column
    mask.  Both directions are needed because transposition-closure is an
    axiom that a corrupted category can break."""
    rows = [0] * len(index)
    cols = [0] * len(index)
    for f1, f2 in cat.orth:
        a, b = index[f1], index[f2]
        rows[a] |= 1 << b
        cols[b] |= 1 << a
    return [r & c for r, c in zip(rows, cols)]


class _IOp(NamedTuple):
    """Interned operation: object and arrow ids are positions in the sorted
    object and morphism lists; `index` is the position in the op list and
    `rank` the position among the operations into the same target."""

    index: int
    target: int
    arrows: tuple[int, ...]
    sources: tuple[int, ...]
    arity: int
    rank: int


class _OperadKernel:
    """The operad-axiom sweep of `validate_operad` on an interned form of a
    schema-clean category that fails some category axiom (a clean one is
    proved), built once per call.  Only the operations into the `dirty`
    targets are swept; an operation into any other target is proved.

    Arrows and objects are ints, composition is a list of lists with -1
    where a composite is missing, and each arrow carries a mutual
    orthogonality mask, so that a tuple is pairwise orthogonal exactly when
    folding `acc &= mutual[a]` over it never meets an arrow outside `acc`.
    On a schema-clean category every operation's sources are the sources
    of its arrows, so operations are `(target, arrows)`, and `_IOp.index`
    is the position of the public operation in `public`.

    The kernel decides the unit laws and which gamma(f; g) are defined, and
    proves what it can of the associativity sweep at three levels: whole
    operations f (`proved`), pairs (f, g) (`clean_summary`) and h-tuples
    (`cleared`).  On a category broken in one place that is almost all of
    it, so the walk stays small; every associativity witness comes from
    the public `compose`, the reference.  Each composite the kernel finds
    undefined is re-run through `compose` for its `PreconditionError`;
    `compose` disagreeing either way is an internal error.
    """

    def __init__(self, cat: OrthCategory, bound: int, report: ValidationReport, dirty: set[str]):
        self.cat = cat
        self.bound = bound
        self.report = report
        obj_id = {u: i for i, u in enumerate(cat.objects)}
        self.names = sorted(cat.morphisms)
        aid = {a: i for i, a in enumerate(self.names)}
        self.src = [obj_id[cat.morphisms[a].src] for a in self.names]
        self.ident = [aid[cat.identities[u]] for u in cat.objects]
        n = len(self.names)
        self.comp = [[-1] * n for _ in range(n)]
        for (g, f), r in cat.compose_table.items():
            self.comp[aid[g]][aid[f]] = aid[r]
        self.bit = [1 << a for a in range(n)]
        self.mutual = _mutual_orth_masks(cat, aid)
        self.public = enumerate_all_operations(cat, bound)
        # the operations into dirty targets, in `public` order
        self.swept: list[_IOp] = []
        self.by_target: dict[int, list[_IOp]] = {}
        for k, op in enumerate(self.public):
            into = self.by_target.setdefault(obj_id[op.target], [])
            iop = _IOp(k, obj_id[op.target], tuple(aid[a] for a in op.arrows),
                       tuple(obj_id[u] for u in op.sources), op.arity, len(into))
            into.append(iop)
            if op.target in dirty:
                self.swept.append(iop)
        self.arrow_folds: list[tuple | None] = [None] * n
        self.positions: dict[tuple[int, int], tuple] = {}
        # per-h parts of the positions of the f being swept
        self.parts: dict[tuple[int, int], list] = {}
        # the (f, gs) with gamma(f; gs) undefined, in the order walked
        self.undefined: list[tuple[_IOp, tuple]] = []

    # -- interned arithmetic ---------------------------------------------

    def fold(self, arrows) -> tuple[bool, int, int]:
        """(pairwise orthogonal and defined, OR of bits, AND of mutual masks)."""
        bit, mutual = self.bit, self.mutual
        ok, bits, meet = True, 0, -1
        for a in arrows:
            if a < 0:
                return False, 0, 0
            b = bit[a]
            if not meet & b:
                ok = False
            meet &= mutual[a]
            bits |= b
        return ok, bits, meet

    @staticmethod
    def joined(folds) -> bool:
        """Whether the concatenation of blocks with these folds is pairwise
        orthogonal: each block is, and each block's arrows lie in the
        mutual masks of every earlier block's arrows."""
        meet = -1
        for ok, bits, m in folds:
            if not ok or bits & ~meet:
                return False
            meet &= m
        return True

    @staticmethod
    def merged(folds) -> tuple[bool, int, int]:
        """One fold that stands for any of these: ok when all are, the OR of
        their bits and the AND of their masks.  `joined` of merged folds
        implies `joined` of any one choice from each."""
        ok, bits, meet = True, 0, -1
        for o, b, m in folds:
            ok, bits, meet = ok and o, bits | b, meet & m
        return ok, bits, meet

    def block(self, fi: int, g: _IOp) -> tuple[bool, int, int]:
        """The fold of the block of gamma(f; g) that f_i contributes."""
        row = self.comp[fi]
        return self.fold([row[a] for a in g.arrows])

    def position_parts(self, fi: int, gj: int) -> list:
        """Per operation h into the source of g_j, in `rank` order: (clean,
        fold of the h-part of gamma(g_j; h), fold of the h-part of
        (f_i g_j) h), clean when both are defined and pairwise orthogonal
        and f_i (g_j h) equals (f_i g_j) h arrow by arrow."""
        comp, fold = self.comp, self.fold
        row_f, row_g = comp[fi], comp[gj]
        row_fg = comp[row_f[gj]]
        out = []
        for h in self.by_target[self.src[gj]]:
            inner = [row_g[a] for a in h.arrows]
            left = [row_fg[a] for a in h.arrows]
            in_fold, left_fold = fold(inner), fold(left)
            clean = in_fold[0] and left_fold[0] and [row_f[c] for c in inner] == left
            out.append((clean, in_fold, left_fold))
        return out

    def position(self, fi: int, gj: int):
        """The merged inner and left folds of `position_parts`, both ok
        only when every part is clean.  Cached per arrow pair, so the table
        is at most the size of the composition table."""
        key = (fi, gj)
        got = self.positions.get(key)
        if got is None:
            parts = self.position_parts(fi, gj)
            clean = all(c for c, _, _ in parts)
            _, in_bits, in_meet = self.merged(i for _, i, _ in parts)
            _, left_bits, left_meet = self.merged(left for _, _, left in parts)
            got = self.positions[key] = (clean, in_bits, in_meet), (clean, left_bits, left_meet)
        return got

    def clean_summary(self, fi: int, g: _IOp) -> tuple[bool, int, int]:
        """Summary fold of the left blocks (f_i g) h over every block h for
        g, ok only when no h can produce a violation.  Conservative: each
        h-part must be clean and the parts of different positions mutually
        orthogonal, whatever the other parts are."""
        ps = [self.position(fi, gj) for gj in g.arrows]
        lefts = [left for _, left in ps]
        if not (self.joined(inner for inner, _ in ps) and self.joined(lefts)):
            return False, 0, 0
        return self.merged(lefts)

    def arrow(self, a: int) -> tuple:
        """The merged `block` folds and the merged `clean_summary` folds of
        a over every operation g into its source.  Cached per arrow."""
        got = self.arrow_folds[a]
        if got is None:
            gs = self.by_target[self.src[a]]
            got = self.arrow_folds[a] = (
                self.merged(self.block(a, g) for g in gs),
                self.merged(self.clean_summary(a, g) for g in gs),
            )
        return got

    def cleared(self, f: _IOp, gs, hs) -> bool:
        """Whether gamma(gamma(f; g); h) and gamma(f; gamma(g_i; h_i)) are
        both defined and equal, decided on the parts of each position's h:
        every part clean, each g_i's inner parts joined and all left parts
        joined.  Parts are cached for the f being swept."""
        parts, lefts, pos = self.parts, [], 0
        for fi, g in zip(f.arrows, gs):
            inners = []
            for gj in g.arrows:
                key = (fi, gj)
                got = parts.get(key)
                if got is None:
                    got = parts[key] = self.position_parts(fi, gj)
                clean, inner, left = got[hs[pos].rank]
                if not clean:
                    return False
                inners.append(inner)
                lefts.append(left)
                pos += 1
            if not self.joined(inners):
                return False
        return self.joined(lefts)

    # -- witnesses -----------------------------------------------------------

    def op(self, target: int, arrows) -> PrefactOperation:
        return PrefactOperation(
            self.cat.objects[target],
            tuple(self.cat.objects[self.src[a]] for a in arrows),
            tuple(self.names[a] for a in arrows),
        )

    def guarded(self, outer: PrefactOperation, inners, context: str) -> PrefactOperation | None:
        """`compose`, or None after witnessing its `PreconditionError` as
        composition-welldefined under `context`."""
        try:
            return compose(self.cat, outer, inners)
        except PreconditionError as exc:
            self.report.add(
                "composition-welldefined",
                {
                    "context": context,
                    "outer": outer.label(),
                    "inners": [g.label() for g in inners],
                    "detail": str(exc),
                },
            )
            return None

    def witness(self, outer: PrefactOperation, inners: list[PrefactOperation], context: str):
        """Witness a composite the kernel found undefined."""
        if self.guarded(outer, inners, context) is not None:
            raise RuntimeError(
                f"operad kernel rejected {outer.label()} composed with "
                f"{[g.label() for g in inners]}, which compose accepts"
            )

    # -- the sweep -------------------------------------------------------------

    def run(self) -> None:
        """Unit laws, then associativity, then the equivariance witnesses.

        Equivariance needs no sigma walk (see `validate_operad`): what the
        reference reports under it is each undefined gamma(f; g) with f of
        arity at least 2, which the associativity walk has recorded."""
        self.unit_laws()
        self.associativity()
        for f, gs in self.undefined:
            if f.arity >= 2:
                inners = [self.public[g.index] for g in gs]
                self.witness(self.public[f.index], inners, "equivariance")

    def unit_laws(self) -> None:
        comp, ident, src, report = self.comp, self.ident, self.src, self.report
        for op in self.swept:
            pub = self.public[op.index]
            right = tuple([comp[a][ident[src[a]]] for a in op.arrows])
            if not self.fold(right)[0]:
                self.witness(pub, [self.op(u, (ident[u],)) for u in op.sources], "unit-right")
            elif right != op.arrows:
                report.add("unit-right", {"op": pub.label(),
                                          "got": self.op(op.target, right).label()})
            row = comp[ident[op.target]]
            left = tuple([row[a] for a in op.arrows])
            if not self.fold(left)[0]:
                self.witness(self.op(op.target, (ident[op.target],)), [pub], "unit-left")
            elif left != op.arrows:
                report.add("unit-left", {"op": pub.label(),
                                         "got": self.op(op.target, left).label()})

    def proved(self, f: _IOp) -> bool:
        """Whether no (f, g) can report anything: the merged blocks of f's
        arrows are joined, so every gamma(f; g) is defined, and so are
        their merged summaries, so no h breaks associativity."""
        folds = [self.arrow(a) for a in f.arrows]
        return self.joined(b for b, _ in folds) and self.joined(s for _, s in folds)

    def associativity(self) -> None:
        """gamma(gamma(f; g); h) = gamma(f; gamma(g_i; h_i)), in the
        reference order.

        An f that is `proved` enumerates no g.  For every other f, each
        (f_i, g_i) is folded once, for its block and its `clean_summary`:
        an undefined gamma(f; g) is witnessed under `associativity` and
        recorded in `undefined`, and a defined one whose summaries are not
        joined is walked over h.  The folds and the per-h parts are cached
        per f."""
        cache: dict[tuple[int, int], tuple] = {}
        for f in self.swept:
            if not f.arity or self.proved(f):
                continue
            cache.clear()
            self.parts.clear()
            for gs in _inner_tuples(self.by_target, f.sources, self.bound):
                folds, sums = [], []
                for fi, g in zip(f.arrows, gs):
                    key = (fi, g.index)
                    got = cache.get(key)
                    if got is None:
                        got = cache[key] = self.block(fi, g), self.clean_summary(fi, g)
                    folds.append(got[0])
                    sums.append(got[1])
                if not self.joined(folds):
                    self.undefined.append((f, gs))
                    self.witness(
                        self.public[f.index],
                        [self.public[g.index] for g in gs],
                        "associativity",
                    )
                elif not self.joined(sums):
                    self.walk(f, gs)

    def walk(self, f: _IOp, gs: tuple) -> None:
        """The reference associativity loop over h for one (f, g), on
        `compose`, for each h that is not `cleared`; the kernel has found
        gamma(f; g) defined."""
        public = self.public
        pf, pgs = public[f.index], [public[g.index] for g in gs]
        try:
            fg = compose(self.cat, pf, pgs)
        except PreconditionError as exc:
            raise RuntimeError(
                f"operad kernel accepted {pf.label()} composed with "
                f"{[g.label() for g in pgs]}, which compose rejects: {exc}"
            ) from exc
        guarded = self.guarded
        sources = tuple(u for g in gs for u in g.sources)
        for his in _inner_tuples(self.by_target, sources, self.bound):
            if self.cleared(f, gs, his):
                continue
            hs = [public[h.index] for h in his]
            left = guarded(fg, hs, "associativity")
            if left is None:
                continue
            gh, pos = [], 0
            for g in pgs:
                inner = guarded(g, hs[pos : pos + g.arity], "associativity")
                if inner is None:
                    break
                gh.append(inner)
                pos += g.arity
            else:
                right = guarded(pf, gh, "associativity")
                if right is not None and left != right:
                    self.report.add(
                        "associativity",
                        {
                            "f": pf.label(),
                            "g": [g.label() for g in pgs],
                            "h": [h.label() for h in hs],
                        },
                    )


def validate_operad(cat: OrthCategory, bound: int = 3) -> ValidationReport:
    """Unit/associativity/equivariance check up to an arity bound.

    When the category has no schema errors and `validate_category` reports
    nothing, every axiom is proved from the category's and the report is
    empty at every bound; no operation is enumerated.  The operad is built
    from the orthogonal category as in Benini, Schenkel and Woike
    (arXiv:1709.08657).  The proof, for operations f = (f_1..f_n) and
    g_i = (g_i1..g_ik) into the source of f_i, all pairwise orthogonal:

    - Composites are defined.  Each arrow f_i g_ij is in the composition
      table, which is total on composable pairs.  Within one block,
      g_ij perp g_ik gives f_i g_ij perp f_i g_ik by post-composition with
      f_i.  Across blocks, f_i perp f_l gives f_i g_ij perp f_l by
      pre-composition on the left and then f_i g_ij perp f_l g_lm by
      pre-composition on the right; the reverse direction is the same
      argument from f_l perp f_i, which transposition provides.
    - Unit laws: gamma(f; id..id) and gamma(id; f) have the arrows f_i id
      and id f_i, which are f_i by the category's unit laws.
    - Associativity: gamma(gamma(f; g); h) and gamma(f; gamma(g_i; h_i))
      have the arrows (f_i g_ij) h and f_i (g_ij h), equal by the
      category's associativity, and the same sources and target.
    - Equivariance holds by construction: gamma(f sigma; g_sigma) is the
      blocks of gamma(f; g) in sigma order, which is gamma(f; g) sigma<k>,
      and reordering a pairwise-orthogonal tuple keeps it pairwise
      orthogonal, since orthogonality is checked in both directions.

    The same proof holds target by target.  For operations f into V, every
    object above is in the down-set D(V) = {U : hom(U, V) nonempty}, and
    every category axiom it uses is an instance that `validate_category`
    checks under a top object in D(V) (`violation_top`): the pairs it
    closes end in V or in a source U_i of f, and its unit and
    associativity instances end in V.  So V is dirty only when some
    violation's top T has hom(T, V) nonempty, and operations into any other
    target report nothing.  An orth-cospan violation has no top, and then
    every target is dirty.

    Otherwise the sweep runs on `_OperadKernel` over the operations into
    the dirty targets, an interned form of the category built once per
    call: int arrows, the composition table as a
    list of lists and one mutual-orthogonality bitmask per arrow.  The
    kernel decides the unit laws and which gamma(f; g) are defined, and
    proves associativity where it can, on folds (ok, OR of arrow bits, AND
    of masks) of arrow tuples.  A fold is ok when its tuple is defined and
    pairwise orthogonal, and a concatenation of tuples is pairwise
    orthogonal when each fold is ok and each tuple's bits lie in the masks
    of every earlier one (`joined`).  Merging folds (AND of ok, OR of bits,
    AND of masks) only grows bits and shrinks masks, so tuples joined as
    merged folds are joined for any choice of one tuple from each merge.
    The proof has three levels, each built on the one before:

    - h-tuples.  For f_i, g_ij and an operation h into the source of g_ij,
      the part is clean when the tuples g_ij h and (f_i g_ij) h are defined
      and pairwise orthogonal and f_i (g_ij h) = (f_i g_ij) h arrow by
      arrow.  When every part of an h-tuple is clean, the inner parts of
      each g_i are joined and all left parts are joined, then each
      gamma(g_i; h_i) and gamma(gamma(f; g); h) are defined, and
      gamma(f; gamma(g_i; h_i)) has the same arrows, sources and target
      as the latter, so it is defined and equal: nothing is reported.
    - Pairs (f, g).  Merge each position's parts over every h.  When for
      each f_i the positions of g_i are clean and their merged inner and
      left parts are joined, and the merged left parts of the f_i are
      joined across i, every h-tuple of (f, g) is cleared as above.
    - Operations f.  Merge the block f_i g and the summary of the previous
      level over every g into the source of f_i.  When the merged blocks
      of f's arrows are joined, every gamma(f; g) is defined, and when the
      merged summaries are joined, every (f, g) is cleared as above, so f
      reports nothing and no g is enumerated for it.

    Every (f, g) not cleared runs the reference loop over h, in the
    reference order, and each h-tuple not cleared runs the reference body
    on `compose`, so violations appear in the same order; each composition
    the kernel finds undefined is re-run through `compose` for the witness.
    What the reference reports under equivariance is each undefined
    gamma(f; g) with f of arity at least 2 (by the argument above), which
    the kernel witnesses after the associativity walk with no permutation
    sweep.  The tests compare the reports with the brute-force loop over
    `compose` byte for byte.
    """
    report = ValidationReport(check="operad-axioms", subject=cat.name)
    category = validate_category(cat)
    report.schema_errors = category.schema_errors
    if not category.ok and not report.schema_errors:
        tops = {violation_top(cat, v) for v in category.violations}
        dirty = set(cat.objects) if None in tops else {
            v for v in cat.objects if any(cat.hom(t, v) for t in tops)
        }
        _OperadKernel(cat, bound, report, dirty).run()
    return report


@dataclass
class FiniteAlgebraAssignment:
    """Algebra data evaluated on finite spanning sets.

    carrier(U) lists spanning elements of the carrier at U; structure(op)
    returns the map applied to element tuples; equal decides exact equality
    of carrier elements; describe renders an element for witnesses.

    summary(U, x) is an exact summary of the element x at U in a group of
    exponent two (XOR of masks), or None.  The contract, on every tuple of
    elements that all have a summary at the sources of an operation: the
    structure map is defined, its result's summary at the target is the
    XOR of the inputs' summaries (the identity in arity 0), and elements
    with equal summaries are `equal`.  The default summarizes nothing.
    `validate_algebra` reads only whether a summary is None; the value is
    what the contract speaks of, and the tests check it against the
    structure maps.
    """

    carrier: Callable[[str], Sequence[Any]]
    structure: Callable[[PrefactOperation], Callable[[tuple], Any]]
    equal: Callable[[Any, Any], bool]
    describe: Callable[[Any], str] = staticmethod(lambda x: str(x))
    name: str = ""
    summary: Callable[[str, Any], Any] = staticmethod(lambda u, x: None)


def validate_algebra(
    cat: OrthCategory, assign: FiniteAlgebraAssignment, bound: int = 3
) -> ValidationReport:
    """Check the unit, composition, and permutation diagrams of an algebra
    over the prefactorization operad on spanning elements, exactly.

    The unit diagram is walked on every element.  When every carrier
    element has a summary, the composition and permutation diagrams are
    proved rather than walked: by the summary contract of
    `FiniteAlgebraAssignment`, each side of each instance is defined and
    its summary is the XOR of the same multiset of input summaries, so the
    sides are equal, and no operation is enumerated.  Otherwise every
    instance is walked.  The tests keep the full walk as the oracle.
    """
    report = ValidationReport(check="algebra-axioms", subject=assign.name or cat.name)

    def apply(op: PrefactOperation, args: tuple, context: str):
        try:
            return assign.structure(op)(args)
        except PreconditionError as exc:
            report.add(
                "structure-arity", {"context": context, "op": op.label(), "detail": str(exc)}
            )
            return None

    def tuples_for(sources: tuple[str, ...]):
        return itertools.product(*(assign.carrier(u) for u in sources))

    # unit diagram: F(id_V) = id
    for v in cat.objects:
        unary = PrefactOperation(v, (v,), (cat.identities[v],))
        for x in assign.carrier(v):
            y = apply(unary, (x,), "unit")
            if y is not None and not assign.equal(x, y):
                report.add(
                    "unit-diagram",
                    {"object": v, "element": assign.describe(x), "got": assign.describe(y)},
                )
    if all(assign.summary(v, x) is not None for v in cat.objects for x in assign.carrier(v)):
        return report
    ops = enumerate_all_operations(cat, bound)
    ops_by_target: dict[str, list[PrefactOperation]] = {}
    for op in ops:
        ops_by_target.setdefault(op.target, []).append(op)

    # composition diagram: F(gamma(f;g)) = F(f) o (F(g_1) x ... x F(g_n))
    for f in ops:
        for gs in _inner_tuples(ops_by_target, f.sources, bound):
            try:
                fg = compose(cat, f, gs)
            except PreconditionError:
                continue
            for xs in tuples_for(fg.sources):
                lhs = apply(fg, tuple(xs), "composition")
                if lhs is None:
                    continue
                pos = 0
                mids = []
                for g in gs:
                    mid = apply(g, tuple(xs[pos : pos + g.arity]), "composition")
                    pos += g.arity
                    mids.append(mid)
                if any(m is None for m in mids):
                    continue
                rhs = apply(f, tuple(mids), "composition")
                if rhs is not None and not assign.equal(lhs, rhs):
                    report.add(
                        "composition-diagram",
                        {
                            "f": f.label(),
                            "g": [g.label() for g in gs],
                            "elements": [assign.describe(x) for x in xs],
                        },
                    )

    # permutation diagram: F(f sigma)(x sigma) = F(f)(x)
    for f in ops:
        if f.arity < 2:
            continue
        for sigma in itertools.permutations(range(f.arity)):
            fsig = permute(f, sigma)
            for xs in tuples_for(f.sources):
                lhs = apply(fsig, tuple(xs[s] for s in sigma), "permutation")
                rhs = apply(f, tuple(xs), "permutation")
                if lhs is None or rhs is None:
                    continue
                if not assign.equal(lhs, rhs):
                    report.add(
                        "permutation-diagram",
                        {
                            "f": f.label(),
                            "sigma": list(sigma),
                            "elements": [assign.describe(x) for x in xs],
                        },
                    )
    return report


@dataclass
class EquivariantAlgebraAssignment:
    """Equivariance data on top of an algebra assignment.

    iso(g, U) is the component of the algebra isomorphism at U, a map from
    carrier(U) to carrier(alpha_g(U)).

    iso_summary(g, s) is what the isomorphism of g does to summaries (see
    `FiniteAlgebraAssignment.summary`), or None, the default, which makes
    `validate_equivariant_algebra` walk every naturality instance.  The
    contract, for every element x that the validator builds and that has
    a summary s at U (a carrier element, or a structure-map output on a
    tuple of carrier elements): iso(g, U)(x) is defined and has the
    summary iso_summary(g, s) at alpha_g(U).  And s -> iso_summary(g, s)
    is XOR-additive and does not depend on U.
    """

    base: FiniteAlgebraAssignment
    iso: Callable[[str, str], Callable[[Any], Any]]
    name: str = ""
    iso_summary: Callable[[str, Any], Any] | None = None


def validate_equivariant_algebra(
    cat: OrthCategory,
    assign: EquivariantAlgebraAssignment,
    action: GroupActionSpec,
    bound: int = 3,
) -> ValidationReport:
    """Check the unit law, the cocycle square, and naturality of the
    equivariance isomorphisms against the structure maps.

    The unit law and the cocycle square are walked on every carrier
    element.  Every moved operation g.f is built, a failure being an
    `action-operation` violation, unless it is proved (below).  The
    naturality square
    iso_g(F(f)(x)) = F(g.f)(iso_g x) is proved for an operation f and g,
    rather than walked, when `iso_summary` is set, every carrier element
    has a summary, the image of each one under each iso_g (which the
    cocycle walk computes) has the summary `iso_summary` gives it, and the
    sources of g.f are the functor's images of the sources of f.  The
    proof: let s_i be the summaries of the x_i at the sources U_i of f.
    By the contract of `FiniteAlgebraAssignment`, F(f)(x) is defined and
    has the summary XOR s_i at the target V.  By the contract of
    `EquivariantAlgebraAssignment`, its image under iso_g is defined and
    has the summary iso_summary(g, XOR s_i) at gV.  Each iso_g x_i has the
    summary iso_summary(g, s_i) at gU_i, the i-th source of g.f, so
    F(g.f)(iso_g x) is defined and has the summary XOR iso_summary(g, s_i)
    at gV, which is the same by additivity, and elements with equal
    summaries are `equal`.  Any other (g, f) is walked on every element
    tuple.  An assignment declares `iso_summary` only where its contract
    holds; that is where a model's own preconditions go, such as the clean
    category `sector_equivariant_assignment` needs.

    When the square is proved this way and every g acts on `cat` by an
    orthogonal functor (`OrthFunctor.violations` empty), no operation is
    enumerated: the functor sends each arrow f_i : U_i -> V of an operation
    f to an arrow of `cat` from gU_i to gV, and each orthogonal pair of
    f's arrows to an orthogonal pair, so `make_operation` builds g.f with
    the sources gU_i, nothing reports `action-operation`, and every square
    is proved.  The tests keep the full walk as the oracle.
    """
    report = ValidationReport(
        check="equivariant-algebra-axioms", subject=assign.name or cat.name
    )
    base = assign.base
    unit = action.group.unit()
    if unit is None:
        report.schema_errors.append("group table has no identity element")
        return report
    for g in action.group.elements:
        if g not in action.action:
            report.schema_errors.append(f"missing functor for group element {g}")
        try:
            for u in cat.objects:
                assign.iso(g, u)
        except KeyError:
            report.schema_errors.append(f"missing isomorphism data for group element {g}")
    if report.schema_errors:
        return report

    # unit law
    for u in cat.objects:
        psi = assign.iso(unit, u)
        for x in base.carrier(u):
            if not base.equal(psi(x), x):
                report.add("iso-unit", {"object": u, "element": base.describe(x)})

    # cocycle square, which also checks the images' summaries for the proof
    provable = assign.iso_summary is not None
    for g1 in action.group.elements:
        for g2 in action.group.elements:
            prod = action.group.mult(g2, g1)
            for u in cat.objects:
                mid = action.action[g1].apply_obj(u)
                for x in base.carrier(u):
                    second, image = assign.iso(g2, mid), assign.iso(g1, u)(x)
                    if provable:
                        s = base.summary(u, x)
                        provable = s is not None and (
                            base.summary(mid, image) == assign.iso_summary(g1, s)
                        )
                    two_step = second(image)
                    one_step = assign.iso(prod, u)(x)
                    if not base.equal(two_step, one_step):
                        report.add(
                            "iso-cocycle",
                            {
                                "g1": g1,
                                "g2": g2,
                                "object": u,
                                "element": base.describe(x),
                            },
                        )

    # naturality against structure maps
    functors = [action.action[g] for g in action.group.elements]
    if provable and all(
        f.source is cat and f.target is cat and not f.violations() for f in functors
    ):
        return report
    ops = enumerate_all_operations(cat, bound)
    for g in action.group.elements:
        functor = action.action[g]
        for op in ops:
            try:
                moved = make_operation(
                    cat,
                    [functor.apply_mor(a) for a in op.arrows],
                    target=functor.apply_obj(op.target),
                )
            except (PreconditionError, SchemaError) as exc:  # SchemaError: no arrow of cat
                report.add(
                    "action-operation",
                    {"g": g, "op": op.label(), "detail": str(exc)},
                )
                continue
            if provable and moved.sources == tuple(functor.apply_obj(u) for u in op.sources):
                continue
            for xs in itertools.product(*(base.carrier(u) for u in op.sources)):
                lhs = assign.iso(g, op.target)(base.structure(op)(tuple(xs)))
                moved_args = tuple(
                    assign.iso(g, u)(x) for u, x in zip(op.sources, xs)
                )
                rhs = base.structure(moved)(moved_args)
                if not base.equal(lhs, rhs):
                    report.add(
                        "iso-naturality",
                        {
                            "g": g,
                            "op": op.label(),
                            "elements": [base.describe(x) for x in xs],
                        },
                    )
    return report
