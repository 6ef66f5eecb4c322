"""Finite orthogonal categories, orthogonal functors, and group actions.

An orthogonal category is a finite category together with a set of
distinguished cospan pairs ("orthogonal" pairs) that is closed under
transposition and under pre- and post-composition.  `OrthCategory` holds
explicit tables and is validated exhaustively; `posets.PosetCategory`, a
thin category of regions ordered by inclusion, answers the same queries
from the order and an orthogonality predicate, and proves what it can.
Validators return structured reports listing each violated axiom with a
witness, never bare booleans.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Iterable

from .reports import SchemaError, ValidationReport, Violation, json_list, json_str

__all__ = [
    "Morphism",
    "OrthCategory",
    "OrthFunctor",
    "GroupTable",
    "GroupActionSpec",
    "FilteredReport",
    "OrthocomplementReport",
    "ExtensionReport",
    "validate_category",
    "violation_top",
    "check_filtered",
    "check_assumption_orthocomplement",
    "check_assumption_extension",
    "validate_group_action",
    "category_to_json",
    "category_from_json",
    "action_to_json",
    "action_from_json",
]


@dataclass(frozen=True, order=True)
class Morphism:
    id: str
    src: str
    tgt: str


class OrthCategory:
    """Finite category with a composition table and an orthogonality relation.

    `orth` stores ordered pairs of morphism ids; closure under transposition
    is an axiom checked by ``validate_category``, not a structural guarantee.
    `into`/`outof` of an id that is no object (an arrow's dangling end) are
    empty.  Which sources are orthogonal is known to one index of `orth`
    alone, built in one pass on first use: for each ordered source pair
    (U', U), the least orth pair (U' -> V, U -> V).  `partners` and
    `source_pairs` read it.
    """

    # whether each arrow U -> V has the id "U<=V", which an induced
    # functor (`OrthFunctor` without `mor_map`) maps it to
    induced_ids = False

    def __init__(
        self,
        objects: Iterable[str],
        morphisms: Iterable[Morphism],
        compose_table: dict[tuple[str, str], str],
        identities: dict[str, str],
        orth: Iterable[tuple[str, str]],
        name: str = "",
    ):
        self.objects = tuple(sorted(objects))
        self.morphisms = {m.id: m for m in morphisms}
        self.compose_table = dict(compose_table)
        self.identities = dict(identities)
        self.orth = frozenset(orth)
        self.name = name
        self._into: dict[str, list[Morphism]] = {u: [] for u in self.objects}
        self._outof: dict[str, list[Morphism]] = {u: [] for u in self.objects}
        self._hom: dict[tuple[str, str], list[Morphism]] = {}
        self._partners: dict[str, list[str]] = {}
        for m in sorted(self.morphisms.values()):
            if m.tgt in self._into:
                self._into[m.tgt].append(m)
            if m.src in self._outof:
                self._outof[m.src].append(m)
            self._hom.setdefault((m.src, m.tgt), []).append(m)

    # -- accessors -------------------------------------------------------

    def hom(self, src: str, tgt: str) -> list[Morphism]:
        return self._hom.get((src, tgt), [])

    def into(self, obj: str) -> list[Morphism]:
        return self._into.get(obj, [])

    def outof(self, obj: str) -> list[Morphism]:
        return self._outof.get(obj, [])

    def compose(self, g: str, f: str) -> str | None:
        """Composite id of g after f, or None when undefined."""
        return self.compose_table.get((g, f))

    def arrow(self, mid: str) -> Morphism | None:
        """The arrow with this id, or None."""
        return self.morphisms.get(mid)

    def is_orth(self, f1: str, f2: str) -> bool:
        return (f1, f2) in self.orth

    def orth_pairs(self) -> Iterable[tuple[str, str]]:
        """The orth pairs in sorted order."""
        return sorted(self.orth)

    def same_orth(self, other: "OrthCategory") -> bool:
        return self.orth == other.orth

    def has_cocone(self, a: str, b: str) -> bool:
        """Whether some object V has arrows a -> V and b -> V."""
        return any(self.hom(a, v) and self.hom(b, v) for v in self.objects)

    def generating_arrows(self) -> list[Morphism]:
        """Arrows such that a reflexive, transitive relation on objects that
        holds along each of them holds along every arrow: here all of them."""
        return sorted(self.morphisms.values())

    @property
    def table(self) -> "OrthCategory":
        """The table category with these arrows, composites and orth pairs."""
        return self

    def proved(self) -> bool:
        """Whether `validate_category` is proved to report nothing without
        a walk: never, for a table category."""
        return False

    def induces(self, target: "OrthCategory", obj_map: dict[str, str]) -> bool:
        """Whether the object map induces a functor into target that is
        proved to have no `OrthFunctor.violations`: never, here."""
        return False

    @functools.cached_property
    def _orth_index(self) -> dict[str, dict[str, tuple[str, str]]]:
        """U -> {U': least orth pair (U' -> V, U -> V)}, built in one pass;
        a pair naming an unknown morphism is skipped."""
        index: dict[str, dict[str, tuple[str, str]]] = {}
        for pair in self.orth:
            m1, m2 = self.morphisms.get(pair[0]), self.morphisms.get(pair[1])
            if m1 is not None and m2 is not None:
                row = index.setdefault(m2.src, {})
                row[m1.src] = min(pair, row.get(m1.src, pair))
        return index

    def partners(self, obj: str) -> list[str]:
        """Sorted sources U' of the orthogonal pairs (U' -> V, obj -> V), obj
        itself included when it is one."""
        if obj not in self._partners:
            self._partners[obj] = sorted(self._orth_index.get(obj, ()))
        return self._partners[obj]

    def source_pairs(self) -> list[tuple[str, str]]:
        """Each unordered pair of orthogonal sources once, as the sources of
        its least orth pair in either orientation, ordered by that pair:
        the order in which ``sorted(orth)`` first meets each pair."""
        index = self._orth_index
        firsts = sorted((pair, u1, u) for u, row in index.items() for u1, pair in row.items()
                        if pair <= index.get(u1, {}).get(u, pair))
        return [(u1, u) for _, u1, u in firsts]

    def is_thin(self) -> bool:
        return all(len(ms) <= 1 for ms in self._hom.values())

    def schema_errors(self) -> list[str]:
        errors = []
        objset = set(self.objects)
        for m in self.morphisms.values():
            if m.src not in objset:
                errors.append(f"morphism {m.id} has dangling source {m.src}")
            if m.tgt not in objset:
                errors.append(f"morphism {m.id} has dangling target {m.tgt}")
        for u in self.objects:
            mid = self.identities.get(u)
            if mid is None:
                errors.append(f"object {u} has no identity morphism")
            elif mid not in self.morphisms:
                errors.append(f"identity of {u} references unknown morphism {mid}")
            else:
                m = self.morphisms[mid]
                if m.src != u or m.tgt != u:
                    errors.append(f"identity of {u} is not an endomorphism: {mid}")
        for u in self.identities.keys() - objset:
            errors.append(f"identity given for unknown object {u}")
        for (g, f), r in self.compose_table.items():
            if g not in self.morphisms or f not in self.morphisms:
                errors.append(f"compose entry ({g},{f}) references unknown morphism")
                continue
            if r not in self.morphisms:
                errors.append(f"compose entry ({g},{f}) has unknown result {r}")
                continue
            mg, mf, mr = self.morphisms[g], self.morphisms[f], self.morphisms[r]
            if mf.tgt != mg.src:
                errors.append(f"compose entry ({g},{f}) is not composable")
            elif mr.src != mf.src or mr.tgt != mg.tgt:
                errors.append(f"compose entry ({g},{f}) -> {r} has wrong signature")
        by_tgt: dict[str, list[str]] = {}  # dangling targets too
        for f in self.morphisms.values():
            by_tgt.setdefault(f.tgt, []).append(f.id)
        for g in self.morphisms.values():
            for f in by_tgt.get(g.src, ()):
                if (g.id, f) not in self.compose_table:
                    errors.append(f"composable pair ({g.id},{f}) missing from table")
        for f1, f2 in sorted(self.orth):
            if f1 not in self.morphisms or f2 not in self.morphisms:
                errors.append(f"orth pair ({f1},{f2}) references unknown morphism")
        return sorted(set(errors))


def validate_category(cat: OrthCategory) -> ValidationReport:
    """Exhaustive axiom check; schema problems short-circuit axiom checks.

    A poset category (`posets.PosetCategory`) is proved rather than walked
    when its `proved()` holds.
    It has no schema errors: its arrows are the pairs U <= V, every
    composable pair has the composite read off the order, and identities
    are U <= U, so the unit laws and associativity hold by construction,
    as does orth-cospan, since a cospan's arrows share their target.  An
    orth pair (U1 <= V, U2 <= V) is one where S(U1, U2), the set of
    targets V with pair(U1, U2) or wide(V), contains V, so:

    - Transposition is S(U1, U2) = S(U2, U1): it fails exactly when
      pair(U1, U2) differs from pair(U2, U1) and some common upper bound
      of U1 and U2 is not wide.
    - Pre-composition with h : U1' <= U1 is S(U1, U2) within S(U1', U2),
      closure under shrinking a source.  Upper bounds of U1 and U2 bound
      U1' and U2, so it fails exactly when pair(U1, U2) holds,
      pair(U1', U2) does not, and some common upper bound of U1 and U2 is
      not wide.  With transposition, the second source follows.
    - Post-composition with g : V <= V' is closure of S(U1, U2) under
      enlarging the target.  A pair orthogonal by `pair` is orthogonal
      into every target, so it fails exactly when V is wide, V' is not,
      and some U1, U2 below V fail `pair`.
    - Each closure holds along every arrow once it holds along the covers
      and the arrows between isomorphic objects (`generating_arrows`),
      since every arrow is a chain of them and each step keeps the
      cospans into V (pre-composition) or the sources (post-composition).

    Otherwise the walk runs on `table`, so the witnesses and their order
    are the table category's.
    """
    report = ValidationReport(check="validate-category", subject=cat.name)
    if cat.proved():
        return report
    cat = cat.table
    report.schema_errors = cat.schema_errors()
    if report.schema_errors:
        return report

    # Without schema errors every composable pair has a composite, so no
    # composite below is None; an arrow may be named "", so none is tested
    # for truth either.
    mors = sorted(cat.morphisms.values())
    # unit laws
    for f in mors:
        left = cat.compose(cat.identities[f.tgt], f.id)
        right = cat.compose(f.id, cat.identities[f.src])
        if left != f.id:
            report.add("unit-left", {"f": f.id, "got": left})
        if right != f.id:
            report.add("unit-right", {"f": f.id, "got": right})
    # associativity over all composable triples
    for f in mors:
        for g in cat.outof(f.tgt):
            gf = cat.compose(g.id, f.id)
            for h in cat.outof(g.tgt):
                left = cat.compose(h.id, gf)
                right = cat.compose(cat.compose(h.id, g.id), f.id)
                if left != right:
                    report.add(
                        "associativity",
                        {"h": h.id, "g": g.id, "f": f.id, "h(gf)": left, "(hg)f": right},
                    )
    # orthogonality axioms
    for f1, f2 in sorted(cat.orth):
        m1, m2 = cat.morphisms[f1], cat.morphisms[f2]
        if m1.tgt != m2.tgt:
            report.add("orth-cospan", {"pair": [f1, f2]})
            continue
        if (f2, f1) not in cat.orth:
            report.add("orth-transposition", {"pair": [f1, f2]})
        # one-step closures; the general g.f1.h1 / g.f2.h2 form follows by induction
        for g in cat.outof(m1.tgt):
            c1, c2 = cat.compose(g.id, f1), cat.compose(g.id, f2)
            if (c1, c2) not in cat.orth:
                report.add(
                    "orth-post-composition",
                    {"pair": [f1, f2], "g": g.id, "composite": [c1, c2]},
                )
        for h1 in cat.into(m1.src):
            c1 = cat.compose(f1, h1.id)
            if (c1, f2) not in cat.orth:
                report.add(
                    "orth-pre-composition",
                    {"pair": [f1, f2], "h": h1.id, "composite": [c1, f2]},
                )
        for h2 in cat.into(m2.src):
            c2 = cat.compose(f2, h2.id)
            if (f1, c2) not in cat.orth:
                report.add(
                    "orth-pre-composition",
                    {"pair": [f1, f2], "h": h2.id, "composite": [f1, c2]},
                )
    return report


# the witness arrow whose target is a violation's top; the orthogonality
# axioms but post-composition name the pair's target
_TOP_ARROW = {
    "unit-left": "f", "unit-right": "f", "associativity": "h", "orth-post-composition": "g",
}


def violation_top(cat: OrthCategory, violation: Violation) -> str | None:
    """The object T a `validate_category` violation lives under: every
    arrow of its instance ends in T or has a composite into T.  For the
    unit laws it is f's target, for associativity h's, for transposition
    and pre-composition the pair's, and for post-composition g's.  An
    orth-cospan violation has two targets and no top: None."""
    if violation.axiom == "orth-cospan":
        return None
    key = _TOP_ARROW.get(violation.axiom)
    arrow = violation.witness[key] if key else violation.witness["pair"][0]
    return cat.arrow(arrow).tgt


@dataclass
class FilteredReport:
    check: str = "check-filtered"
    subject: str = ""
    thin: bool = True
    filtered: bool = False
    reason: str = ""
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def check_filtered(cat: OrthCategory) -> FilteredReport:
    """Filteredness: nonempty, cocones for object pairs, coequalizing arrows
    for parallel pairs.  For thin categories this reduces to directedness."""
    report = FilteredReport(subject=cat.name, thin=cat.is_thin())
    if not cat.objects:
        report.reason = "category is empty"
        return report
    for a in cat.objects:
        for b in cat.objects:
            if a > b:
                continue
            if not cat.has_cocone(a, b):
                report.reason = "object pair admits no cocone"
                report.counterexample = {"pair": [a, b]}
                return report
    if not report.thin:
        for (src, tgt), ms in sorted(cat._hom.items()):
            for i, f in enumerate(ms):
                for g in ms[i + 1 :]:
                    if not any(
                        cat.compose(h.id, f.id) == cat.compose(h.id, g.id)
                        for h in cat.outof(tgt)
                    ):
                        report.reason = "parallel pair admits no coequalizing arrow"
                        report.counterexample = {"parallel": [f.id, g.id]}
                        return report
    report.filtered = True
    report.reason = "all cocone and coequalizer searches succeeded"
    return report


@dataclass
class OrthocomplementReport:
    check: str = "check-orthocomplement"
    subject: str = ""
    holds: bool = True
    per_object: dict[str, bool] = field(default_factory=dict)
    witness: str | None = None  # first object without an orthogonal cospan

    def to_dict(self) -> dict:
        return asdict(self)


def check_assumption_orthocomplement(cat: OrthCategory) -> OrthocomplementReport:
    """Every object U admits some orthogonal cospan (U' -> V) perp (U -> V)."""
    report = OrthocomplementReport(subject=cat.name)
    report.per_object = {u: bool(cat.partners(u)) for u in cat.objects}
    report.witness = next((u for u, ok in report.per_object.items() if not ok), None)
    report.holds = bool(cat.objects) and report.witness is None
    return report


@dataclass
class ExtensionReport:
    check: str = "check-extension"
    subject: str = ""
    holds: bool = True
    cospans_checked: int = 0
    failure: dict | None = None  # first cospan with no seven-object diagram
    witness_example: dict | None = None  # diagram found for the first cospan

    def to_dict(self) -> dict:
        return asdict(self)


def _extension_side(
    cat: OrthCategory, u: str, w: Morphism
) -> dict[str, tuple[str, str]]:
    """For one leg U of a cospan into src(w): all b ids (V -> W) such that
    some a: U -> V and t: U' -> V satisfy t perp a and (b.t) perp w.
    Returns b -> (a, t) with one witnessing choice each."""
    out: dict[str, tuple[str, str]] = {}
    for b in cat.into(w.tgt):
        v = b.src
        alist = cat.hom(u, v)
        if not alist:
            continue
        done = False
        for a in alist:
            for t in cat.into(v):
                if not cat.is_orth(t.id, a.id):
                    continue
                bt = cat.compose(b.id, t.id)
                if bt is None or not cat.is_orth(bt, w.id):
                    continue
                out[b.id] = (a.id, t.id)
                done = True
                break
            if done:
                break
    return out


def check_assumption_extension(cat: OrthCategory) -> ExtensionReport:
    """For every orthogonal cospan (U1 -> T) perp (U2 -> T), search for the
    seven-object extension diagram: a morphism T -> W and orthogonal cospans
    with V1 perp V2 over W, Ui -> Vi, and primed legs Ui' -> Vi whose
    composites into W are orthogonal to T -> W.  The cospans are read in
    sorted order (`orth_pairs`), and the first without a diagram ends the
    search."""
    report = ExtensionReport(subject=cat.name)
    for f1, f2 in cat.orth_pairs():
        if f2 < f1 and cat.is_orth(f2, f1):
            continue  # checked as its transpose
        report.cospans_checked += 1
        m1, m2 = cat.arrow(f1), cat.arrow(f2)
        found = None
        for w in cat.outof(m1.tgt):
            side1 = _extension_side(cat, m1.src, w)
            if not side1:
                continue
            side2 = _extension_side(cat, m2.src, w)
            if not side2:
                continue
            for b1, (a1, t1) in sorted(side1.items()):
                for b2, (a2, t2) in sorted(side2.items()):
                    if cat.is_orth(b1, b2):
                        found = {
                            "cospan": [f1, f2],
                            "T_to_W": w.id,
                            "V1_to_W": b1,
                            "V2_to_W": b2,
                            "U1_to_V1": a1,
                            "U2_to_V2": a2,
                            "U1p_to_V1": t1,
                            "U2p_to_V2": t2,
                        }
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            report.holds = False
            report.failure = {"cospan": [f1, f2], "target": m1.tgt}
            return report
        if report.witness_example is None:
            report.witness_example = found
    return report


class OrthFunctor:
    """Functor between orthogonal categories, given by its object table and
    a morphism table, or `induced` by the object map when `mor_map` is
    None: each arrow U -> V goes to the id F(U)<=F(V), the arrow between
    the images in a poset category.  An induced functor's `mor_map` is
    built on first read."""

    def __init__(
        self,
        source: OrthCategory,
        target: OrthCategory,
        obj_map: dict[str, str],
        mor_map: dict[str, str] | None = None,
        name: str = "",
    ):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.induced = mor_map is None
        if not self.induced:
            self.mor_map = dict(mor_map)
        self.name = name

    @functools.cached_property
    def mor_map(self) -> dict[str, str]:
        return {m.id: self._image(m) for m in self.source.morphisms.values()}

    def _image(self, m: Morphism) -> str:
        return f"{self.obj_map[m.src]}<={self.obj_map[m.tgt]}"

    def violations(self) -> list[Violation]:
        out: list[Violation] = []
        if self.induced and self.source.induces(self.target, self.obj_map):
            return out
        src, tgt = self.source, self.target
        for u in src.objects:
            if self.obj_map.get(u) not in tgt.objects:
                out.append(Violation("functor-object-map", {"object": u}))
        for m in sorted(src.morphisms.values()):
            fm_id = self.mor_map.get(m.id)
            fm = tgt.morphisms.get(fm_id) if fm_id else None
            if fm is None:
                out.append(Violation("functor-morphism-map", {"morphism": m.id}))
                continue
            if fm.src != self.obj_map.get(m.src) or fm.tgt != self.obj_map.get(m.tgt):
                out.append(
                    Violation("functor-signature", {"morphism": m.id, "image": fm.id})
                )
        if out:
            return out
        for u in src.objects:
            if self.mor_map[src.identities[u]] != tgt.identities[self.obj_map[u]]:
                out.append(Violation("functor-identity", {"object": u}))
        # only the failing entries are sorted, for the witness order
        mor = self.mor_map
        for g, f in sorted(
            k for k, r in src.compose_table.items() if tgt.compose(mor[k[0]], mor[k[1]]) != mor[r]
        ):
            img = tgt.compose(mor[g], mor[f])
            out.append(Violation("functor-composition", {"g": g, "f": f, "expected": img}))
        for f1, f2 in sorted(p for p in src.orth if (mor[p[0]], mor[p[1]]) not in tgt.orth):
            image = [mor[f1], mor[f2]]
            out.append(Violation("functor-orthogonality", {"cospan": [f1, f2], "image": image}))
        return out

    def apply_obj(self, u: str) -> str:
        return self.obj_map[u]

    def apply_mor(self, f: str) -> str:
        return self._image(self.source.arrow(f)) if self.induced else self.mor_map[f]

    def _induced_on_poset(self) -> bool:
        """Whether each arrow's image is read off the object map with ids
        that name their ends, so the object maps decide the morphism maps."""
        return self.induced and self.source.induced_ids

    def is_identity(self) -> bool:
        return all(v == k for k, v in self.obj_map.items()) and (
            self._induced_on_poset() or all(v == k for k, v in self.mor_map.items())
        )

    @staticmethod
    def identity_on(cat: OrthCategory) -> "OrthFunctor":
        mor_map = None if cat.induced_ids else {m: m for m in cat.morphisms}
        return OrthFunctor(cat, cat, {u: u for u in cat.objects}, mor_map, name="id")

    def after(self, other: "OrthFunctor") -> "OrthFunctor":
        """self o other."""
        return OrthFunctor(
            other.source,
            self.target,
            {u: self.obj_map[v] for u, v in other.obj_map.items()},
            None if self.induced and other.induced else
            {f: self.mor_map[g] for f, g in other.mor_map.items()},
            name=f"{self.name}.{other.name}",
        )

    def same_tables(self, other: "OrthFunctor") -> bool:
        by_objects = (self.source is other.source and self._induced_on_poset()
                      and other._induced_on_poset())
        return self.obj_map == other.obj_map and (by_objects or self.mor_map == other.mor_map)


class GroupTable:
    """Finite group presented by a multiplication table."""

    def __init__(self, elements: Iterable[str], table: dict[tuple[str, str], str]):
        self.elements = tuple(elements)
        self.table = dict(table)

    def mult(self, a: str, b: str) -> str | None:
        return self.table.get((a, b))

    def schema_errors(self) -> list[str]:
        errors = []
        els = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                r = self.table.get((a, b))
                if r is None or r not in els:
                    errors.append(f"multiplication table incomplete at ({a},{b})")
        if errors:
            return errors
        unit = self.unit()
        if unit is None:
            errors.append("group table has no identity element")
            return errors
        for a in self.elements:
            if not any(
                self.mult(a, b) == unit and self.mult(b, a) == unit
                for b in self.elements
            ):
                errors.append(f"element {a} has no inverse")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.mult(self.mult(a, b), c) != self.mult(a, self.mult(b, c)):
                        errors.append(f"group multiplication not associative at ({a},{b},{c})")
                        return errors
        return errors

    def unit(self) -> str | None:
        for e in self.elements:
            if all(
                self.mult(e, a) == a and self.mult(a, e) == a for a in self.elements
            ):
                return e
        return None


@dataclass
class GroupActionSpec:
    """Discrete group acting on an orthogonal category by orthogonal functors."""

    group: GroupTable
    action: dict[str, OrthFunctor]
    name: str = ""

    @property
    def category(self) -> OrthCategory:
        return next(iter(self.action.values())).source


def validate_group_action(spec: GroupActionSpec) -> ValidationReport:
    """Each g acts by an orthogonal functor, the unit acts as the identity
    and composition follows the group table.  The unit and composition
    checks compose the functors' tables, so they run only once every
    functor is one."""
    report = ValidationReport(check="validate-action", subject=spec.name)
    report.schema_errors = list(spec.group.schema_errors())
    missing = [g for g in spec.group.elements if g not in spec.action]
    report.schema_errors += [f"no functor assigned to group element {g}" for g in missing]
    if report.schema_errors:
        return report
    unit = spec.group.unit()
    for g in spec.group.elements:
        for v in spec.action[g].violations():
            report.add(
                "action-functor", {"g": g, "axiom": v.axiom, **v.witness}
            )
    if report.violations:
        return report
    if not spec.action[unit].is_identity():
        report.add("action-unit", {"e": unit})
    for g1 in spec.group.elements:
        for g2 in spec.group.elements:
            composite = spec.action[g1].after(spec.action[g2])
            expected = spec.action[spec.group.mult(g1, g2)]
            if not composite.same_tables(expected):
                diff = next(
                    (
                        f
                        for f in composite.mor_map
                        if composite.mor_map[f] != expected.mor_map[f]
                    ),
                    None,
                )
                report.add(
                    "action-composition",
                    {"g1": g1, "g2": g2, "product": spec.group.mult(g1, g2), "morphism": diff},
                )
    return report


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def category_to_json(cat: OrthCategory) -> dict:
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"id": m.id, "src": m.src, "tgt": m.tgt}
            for m in sorted(cat.morphisms.values())
        ],
        "compose": [
            {"g": g, "f": f, "result": r}
            for (g, f), r in sorted(cat.compose_table.items())
        ],
        "identities": dict(sorted(cat.identities.items())),
        "orth": sorted([list(p) for p in cat.orth]),
    }


def category_from_json(doc: dict) -> OrthCategory:
    try:
        objects = [json_str(u, "object id") for u in json_list(doc["objects"], "objects")]
        morphisms = [
            Morphism(json_str(m["id"], "morphism id"), json_str(m["src"], "morphism src"),
                     json_str(m["tgt"], "morphism tgt"))
            for m in json_list(doc["morphisms"], "morphisms")
        ]
        compose = {}
        for e in json_list(doc.get("compose", []), "compose"):
            pair = json_str(e["g"], "compose g"), json_str(e["f"], "compose f")
            compose[pair] = json_str(e["result"], "compose result")
        identities = _str_map(doc.get("identities", {}), "identity")
        orth = []
        for pair in json_list(doc.get("orth", []), "orth"):
            a, b = json_list(pair, "an orth pair")
            orth.append((json_str(a, "orth morphism"), json_str(b, "orth morphism")))
        name = json_str(doc.get("name", ""), "category name")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed category document: {exc}") from exc
    if len(set(objects)) != len(objects):
        raise SchemaError("duplicate object ids")
    ids = [m.id for m in morphisms]
    if len(set(ids)) != len(ids):
        raise SchemaError("duplicate morphism ids")
    return OrthCategory(objects, morphisms, compose, identities, orth, name=name)


def _str_map(doc: dict, what: str) -> dict[str, str]:
    """A JSON object from ids to ids, every value a string as it stands."""
    return {json_str(k, what): json_str(v, what) for k, v in doc.items()}


def action_to_json(spec: GroupActionSpec) -> dict:
    """JSON form read back by `action_from_json`."""
    return {
        "name": spec.name,
        "category": category_to_json(spec.category),
        "group": {
            "elements": list(spec.group.elements),
            "table": [
                {"a": a, "b": b, "result": spec.group.mult(a, b)}
                for a in spec.group.elements
                for b in spec.group.elements
            ],
        },
        "action": {
            g: {"objects": f.obj_map, "morphisms": f.mor_map}
            for g, f in spec.action.items()
        },
    }


def action_from_json(doc: dict) -> GroupActionSpec:
    try:
        cat = category_from_json(doc["category"])
        group = doc["group"]
        elements = [
            json_str(e, "group element") for e in json_list(group["elements"], "group elements")
        ]
        table = {}
        for e in json_list(group["table"], "group table"):
            pair = json_str(e["a"], "group table a"), json_str(e["b"], "group table b")
            table[pair] = json_str(e["result"], "group table result")
        action = {}
        for g, maps in doc["action"].items():
            g = json_str(g, "group element")
            action[g] = OrthFunctor(
                cat,
                cat,
                _str_map(maps["objects"], "functor object"),
                _str_map(maps["morphisms"], "functor morphism"),
                name=g,
            )
        name = json_str(doc.get("name", ""), "action name")
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed action document: {exc}") from exc
    return GroupActionSpec(group=GroupTable(elements, table), action=action, name=name)
