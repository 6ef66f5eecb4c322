import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_operad import reference_validate_operad, spy_on_the_sweep, with_parallel_copy

from sectorfact.fixtures import (
    interval_category,
    interval_reflection_action,
    interval_regions,
    trivial_action,
)
from sectorfact.orthcat import (
    GroupActionSpec,
    GroupTable,
    Morphism,
    OrthCategory,
    OrthFunctor,
    action_from_json,
    action_to_json,
    category_from_json,
    category_to_json,
    check_assumption_extension,
    check_assumption_orthocomplement,
    check_filtered,
    validate_category,
    validate_group_action,
)
from sectorfact.operad import validate_operad
from sectorfact.posets import PosetCategory, _poset_table
from sectorfact.reports import dump_json
from sectorfact.sectors import MatrixAlg, MatrixNet


def one_object_category():
    return OrthCategory(
        objects=["*"],
        morphisms=[Morphism("id*", "*", "*")],
        compose_table={("id*", "id*"): "id*"},
        identities={"*": "id*"},
        orth=[],
        name="point",
    )


def two_parallel_category(with_orth=True, with_transpose=True):
    """Two objects, two arrows a,b: U -> V; orth optionally one-sided."""
    orth = []
    if with_orth:
        orth.append(("a", "b"))
        if with_transpose:
            orth.append(("b", "a"))
    return OrthCategory(
        objects=["U", "V"],
        morphisms=[
            Morphism("idU", "U", "U"),
            Morphism("idV", "V", "V"),
            Morphism("a", "U", "V"),
            Morphism("b", "U", "V"),
        ],
        compose_table={
            ("idU", "idU"): "idU",
            ("idV", "idV"): "idV",
            ("a", "idU"): "a",
            ("b", "idU"): "b",
            ("idV", "a"): "a",
            ("idV", "b"): "b",
        },
        identities={"U": "idU", "V": "idV"},
        orth=orth,
        name="parallel",
    )


# -- validate_category ---------------------------------------------------------


def test_intcat6_valid(intcat6):
    report = validate_category(intcat6)
    assert report.ok
    assert report.schema_errors == []
    assert report.violations == []


def test_missing_transpose_detected():
    report = validate_category(two_parallel_category(with_transpose=False))
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "orth-transposition" in axioms


def test_degenerate_category_valid():
    assert validate_category(one_object_category()).ok


def test_dangling_ids_are_schema_errors():
    cat = OrthCategory(
        objects=["U"],
        morphisms=[Morphism("f", "U", "GHOST")],
        compose_table={},
        identities={"U": "f"},
        orth=[],
    )
    report = validate_category(cat)
    assert report.schema_errors
    assert not report.violations  # schema errors short-circuit axiom checks


def test_orth_closure_full_form(intcat4):
    # exhaustive: f1 perp f2 with composable g, h1, h2 implies
    # (g f1 h1) perp (g f2 h2) -- the one-step checks must imply this
    assert validate_category(intcat4).ok
    cat = intcat4
    for f1, f2 in cat.orth:
        m1, m2 = cat.morphisms[f1], cat.morphisms[f2]
        for g in cat.outof(m1.tgt):
            for h1 in cat.into(m1.src):
                for h2 in cat.into(m2.src):
                    c1 = cat.compose(cat.compose(g.id, f1), h1.id)
                    c2 = cat.compose(cat.compose(g.id, f2), h2.id)
                    assert (c1, c2) in cat.orth


def test_cyclic_category_valid(cyccat6):
    assert validate_category(cyccat6).ok


# -- corruption probes: each axiom of validate_category can fail -------------------
#
# `validate_operad` proves the operad axioms from a clean report here, so
# each branch is shown to fire on its own mutated intcat4 (schema-clean),
# and on each the operad check falls back to its kernel.


def _arrow(src, tgt):
    return f"{src}<={tgt}"


def _mutated(cat, table=None, orth=None):
    return OrthCategory(
        cat.objects, cat.morphisms.values(), table or cat.compose_table, cat.identities,
        cat.orth if orth is None else orth, name="mutated",
    )


def _moved_entry(cat, key, copy_of):
    """`cat` with a parallel copy of `copy_of` and the composite `key` sent
    to the copy instead of its result."""
    doubled = with_parallel_copy(cat, copy_of)
    table = dict(doubled.compose_table)
    table[key] = copy_of + "'"
    return _mutated(doubled, table=table)


def _unit_left(cat):
    f = _arrow("[1,1]", "[1,2]")
    return _moved_entry(cat, (cat.identities["[1,2]"], f), f)


def _unit_right(cat):
    f = _arrow("[1,1]", "[1,2]")
    return _moved_entry(cat, (f, cat.identities["[1,1]"]), f)


def _associativity(cat):
    # x (b a) goes to the copy of [1,1]<=[1,4], while (x b) a stays
    return _moved_entry(cat, (_arrow("[1,3]", "[1,4]"), _arrow("[1,1]", "[1,3]")),
                        _arrow("[1,1]", "[1,4]"))


def _orth_cospan(cat):
    return _mutated(cat, orth=set(cat.orth) | {(_arrow("[1,1]", "[1,2]"), _arrow("[4,4]", "[3,4]"))})


def _without(cat, *pairs):
    return _mutated(cat, orth=set(cat.orth) - set(pairs))


def _orth_transposition(cat):
    return _without(cat, (_arrow("[1,1]", "[1,2]"), _arrow("[2,2]", "[1,2]")))


def _orth_post_composition(cat):
    pair = (_arrow("[1,1]", "[1,4]"), _arrow("[2,2]", "[1,4]"))
    return _without(cat, pair, pair[::-1])


# [2,2] grows to [1,2] inside [1,4] beside [3,4], but [3,4] cannot grow beside [2,2]
_SMALL, _LARGE = _arrow("[2,2]", "[1,4]"), _arrow("[3,4]", "[1,4]")


def _orth_pre_composition_left(cat):
    return _without(cat, (_SMALL, _LARGE))


def _orth_pre_composition_right(cat):
    return _without(cat, (_LARGE, _SMALL))


def _pre_composed_on(side):
    def fired(v):
        pair, composite = v.witness["pair"], v.witness["composite"]
        other = 1 - side
        return composite[other] == pair[other] and composite[side] != pair[side]

    return fired


_CATEGORY_PROBES = {
    "unit-left": ("unit-left", _unit_left, lambda v: v.witness == {
        "f": _arrow("[1,1]", "[1,2]"), "got": _arrow("[1,1]", "[1,2]") + "'"}),
    "unit-right": ("unit-right", _unit_right,
                   lambda v: v.witness["got"] == _arrow("[1,1]", "[1,2]") + "'"),
    "associativity": ("associativity", _associativity,
                      lambda v: v.witness["h(gf)"] != v.witness["(hg)f"]),
    "orth-cospan": ("orth-cospan", _orth_cospan, lambda v: True),
    "orth-transposition": ("orth-transposition", _orth_transposition, lambda v: True),
    "orth-post-composition": ("orth-post-composition", _orth_post_composition, lambda v: True),
    "orth-pre-composition-left": ("orth-pre-composition", _orth_pre_composition_left,
                                  _pre_composed_on(0)),
    "orth-pre-composition-right": ("orth-pre-composition", _orth_pre_composition_right,
                                   _pre_composed_on(1)),
}


@pytest.mark.parametrize("probe", sorted(_CATEGORY_PROBES))
def test_each_category_axiom_can_fail(intcat4, probe, monkeypatch):
    axiom, mutate, shape = _CATEGORY_PROBES[probe]
    cat = mutate(intcat4)
    report = validate_category(cat)
    assert report.schema_errors == []
    assert any(v.axiom == axiom and shape(v) for v in report.violations)
    # the operad verdict no longer rests on a clean category: the kernel runs
    calls = spy_on_the_sweep(monkeypatch)
    got = dump_json(validate_operad(cat, 2).to_dict())
    assert calls == {"kernel": 1, "enumerate": 1}
    assert got == dump_json(reference_validate_operad(cat, 2).to_dict())


def test_an_arrow_named_empty_is_still_checked():
    # the composite of g and a is the arrow "", which a truth test would skip
    objects = ["U", "V", "W"]
    arrows = {"idU": "UU", "idV": "VV", "idW": "WW", "a": "UV", "b": "UV", "g": "VW",
              "": "UW", "gb": "UW"}
    ids = {u: f"id{u}" for u in objects}
    table = {}
    for m, (src, tgt) in arrows.items():
        table[m, ids[src]] = m
        table[ids[tgt], m] = m
    table["g", "a"], table["g", "b"] = "", "gb"
    orth = [("a", "b"), ("b", "a")]
    cat = OrthCategory(objects, [Morphism(m, st[0], st[1]) for m, st in arrows.items()],
                       table, ids, orth, name="empty-name")
    axioms = {v.axiom for v in validate_category(cat).violations}
    assert axioms == {"orth-post-composition"}
    report = validate_operad(cat, 2)
    assert not report.ok
    assert dump_json(report.to_dict()) == dump_json(reference_validate_operad(cat, 2).to_dict())


# -- filteredness ---------------------------------------------------------------


def test_filtered_full_interval_category(intcat6):
    report = check_filtered(intcat6)
    assert report.thin and report.filtered


def test_not_filtered_with_length_cap():
    report = check_filtered(interval_category(6, max_len=4))
    assert not report.filtered
    a, b = report.counterexample["pair"]
    # oracle: the reported pair really admits no cocone
    cat = interval_category(6, max_len=4)
    assert not any(cat.hom(a, v) and cat.hom(b, v) for v in cat.objects)


def test_empty_category_not_filtered():
    empty = OrthCategory([], [], {}, {}, [])
    report = check_filtered(empty)
    assert not report.filtered
    assert "empty" in report.reason


def test_thin_agrees_with_directedness(intcat6_proper):
    # brute-force statement: every pair of objects admits a cospan
    cat = intcat6_proper
    directed = all(
        any(cat.hom(a, v) and cat.hom(b, v) for v in cat.objects)
        for a in cat.objects
        for b in cat.objects
    )
    assert check_filtered(cat).filtered == directed


def test_nonthin_parallel_pair_counterexample():
    report = check_filtered(two_parallel_category())
    assert not report.thin
    assert not report.filtered
    assert report.counterexample == {"parallel": ["a", "b"]}


# -- orthocomplement assumption ---------------------------------------------------


def test_orthocomplement_full_fails_at_top(intcat6):
    report = check_assumption_orthocomplement(intcat6)
    assert not report.holds
    assert report.witness == "[1,6]"
    failing = [u for u, ok in report.per_object.items() if not ok]
    assert failing == ["[1,6]"]


def test_orthocomplement_proper_intervals(intcat6_proper):
    # maximal proper intervals cannot see a disjoint partner inside any
    # common target, so the assumption fails exactly there; verified
    # against the exhaustive cospan search oracle
    report = check_assumption_orthocomplement(intcat6_proper)
    cat = intcat6_proper

    def oracle(u):
        for f1, f2 in cat.orth:
            if cat.morphisms[f2].src == u:
                return True
        return False

    for u in cat.objects:
        assert report.per_object[u] == oracle(u)
    assert not report.holds
    failing = sorted(u for u, ok in report.per_object.items() if not ok)
    assert failing == ["[1,5]", "[2,6]"]


def test_orthocomplement_cyclic_holds(cyccat6):
    assert check_assumption_orthocomplement(cyccat6).holds


def test_orthocomplement_one_object_fails():
    assert not check_assumption_orthocomplement(one_object_category()).holds


# -- extension assumption ----------------------------------------------------------


def test_extension_cyclic_toy_holds(cyccat6):
    report = check_assumption_extension(cyccat6)
    assert report.holds
    assert report.cospans_checked > 0
    assert report.witness_example is not None


def test_extension_fails_on_chain(intcat6_proper):
    report = check_assumption_extension(intcat6_proper)
    assert not report.holds
    assert report.failure is not None
    f1, f2 = report.failure["cospan"]
    assert (f1, f2) in intcat6_proper.orth


def test_extension_vacuous_without_orth():
    cat = two_parallel_category(with_orth=False)
    report = check_assumption_extension(cat)
    assert report.holds
    assert report.cospans_checked == 0


# -- group actions -----------------------------------------------------------------


def test_reflection_action_valid(z2_intcat6):
    assert validate_group_action(z2_intcat6).ok


def test_trivial_action_valid(intcat6):
    assert validate_group_action(trivial_action(intcat6)).ok


def test_orth_breaking_functor_detected():
    cat = two_parallel_category()
    # swap only one of the two arrows: composition still works (thin enough)
    # but orthogonality of (a, b) maps to (a, a) which is not in orth
    bad = OrthFunctor(
        cat,
        cat,
        {"U": "U", "V": "V"},
        {"idU": "idU", "idV": "idV", "a": "a", "b": "a"},
        name="collapse",
    )
    group = GroupTable(["e", "g"], {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"})
    spec = GroupActionSpec(group=group, action={"e": OrthFunctor.identity_on(cat), "g": bad})
    report = validate_group_action(spec)
    assert not report.ok
    assert any(
        v.witness.get("axiom") == "functor-orthogonality" for v in report.violations
    )


def test_non_group_table_is_schema_error():
    table = GroupTable(["e", "g"], {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"})
    cat = one_object_category()
    spec = GroupActionSpec(
        group=table,
        action={"e": OrthFunctor.identity_on(cat), "g": OrthFunctor.identity_on(cat)},
    )
    report = validate_group_action(spec)
    assert report.schema_errors


def test_action_composition_law_checked(intcat6):
    spec = interval_reflection_action(intcat6, 6)
    # tamper: replace r*r composite expectation by corrupting the table
    bad_group = GroupTable(
        ["e", "r"],
        {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "r"},
    )
    report = validate_group_action(
        GroupActionSpec(group=bad_group, action=spec.action)
    )
    assert report.schema_errors or not report.ok


# -- JSON round trips -----------------------------------------------------------------


def test_category_json_round_trip(intcat6):
    doc = category_to_json(intcat6)
    again = category_from_json(doc)
    assert again.objects == intcat6.objects
    assert again.orth == intcat6.orth
    assert again.compose_table == intcat6.compose_table
    assert validate_category(again).ok


def test_action_json_round_trip():
    spec = interval_reflection_action(interval_category(4), 4)
    doc = action_to_json(spec)
    again = action_from_json(doc)
    assert validate_group_action(again).ok


# -- the partner index, composition from the order and schema errors --------------
#
# The three whole-relation scans that the index and the per-target lists
# replaced, kept verbatim as differential oracles.


def reference_orth_partners(category, region):
    """`MatrixNet.orth_partners` before the partner index: one scan of the
    whole relation per region."""
    out = set()
    for f1, f2 in category.orth:
        m1 = category.morphisms.get(f1)
        m2 = category.morphisms.get(f2)
        if m1 and m2 and m2.src == region:
            out.add(m1.src)
    out.discard(region)
    return sorted(out)


def reference_poset_category(name, regions, orth_pred):
    """`PosetCategory` before composition was read off the order: a
    double loop over all arrows, and one scan of them per target."""
    objects = sorted(regions)
    morphisms = []
    for a in objects:
        for b in objects:
            if regions[a] <= regions[b]:
                morphisms.append(Morphism(f"{a}<={b}", a, b))
    mor_ids = {(m.src, m.tgt): m.id for m in morphisms}
    compose = {}
    for g in morphisms:
        for f in morphisms:
            if f.tgt == g.src:
                compose[(g.id, f.id)] = mor_ids[(f.src, g.tgt)]
    identities = {a: mor_ids[(a, a)] for a in objects}
    orth = []
    for v in objects:
        incoming = [m for m in morphisms if m.tgt == v]
        for m1 in incoming:
            for m2 in incoming:
                if orth_pred(regions[m1.src], regions[m2.src], regions[v]):
                    orth.append((m1.id, m2.id))
    return OrthCategory(objects, morphisms, compose, identities, orth, name=name)


def reference_schema_errors(self):
    """`OrthCategory.schema_errors` before its by-target index: every arrow
    paired with every other arrow.  (Identities given for undeclared
    objects were refused in both later.)"""
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
    for u in self.identities:
        if u not in objset:
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
    for g in self.morphisms.values():
        for f in self.morphisms.values():
            if f.tgt == g.src and (g.id, f.id) not in self.compose_table:
                errors.append(f"composable pair ({g.id},{f.id}) missing from table")
    for f1, f2 in sorted(self.orth):
        if f1 not in self.morphisms or f2 not in self.morphisms:
            errors.append(f"orth pair ({f1},{f2}) references unknown morphism")
    return sorted(set(errors))


def _arcs(m):
    """The regions of `cyclic_arc_category(m)`."""
    return {
        f"arc({s},{k})": frozenset((s + j) % m for j in range(k))
        for s in range(m)
        for k in range(1, m)
    }


def _seeded_pred(seed):
    """A deterministic orthogonality predicate that need not be symmetric,
    so it yields one-way pairs, and that may vary with the target for a
    fixed source pair."""

    def pred(s1, s2, tgt):
        key = repr((sorted(s1), sorted(s2), sorted(tgt), seed))
        return random.Random(key).random() < 0.5

    return pred


def _disjoint(s1, s2, _tgt):
    return not (s1 & s2)


def _joined(pair, wide):
    """The (source, source, target) predicate of `PosetCategory(...,
    pair, wide)`, for the double-loop reference."""
    return lambda s1, s2, tgt: pair(s1, s2) or wide is not None and wide(tgt)


@st.composite
def region_posets(draw):
    """(regions, predicate): intervals, cyclic arcs, or random site sets
    (equal sets allowed, so some objects are isomorphic), with the disjoint,
    cyclic or a seeded one-way (source, source, target) predicate."""
    kind = draw(st.sampled_from(["interval", "cyclic", "random"]))
    if kind == "interval":
        n = draw(st.integers(1, 5))
        regions = interval_regions(n, draw(st.integers(1, n)))
    elif kind == "cyclic":
        regions = _arcs(draw(st.integers(2, 5)))
    else:
        regions = draw(
            st.dictionaries(
                st.sampled_from("abcdefg"),
                st.frozensets(st.integers(0, 3), max_size=3),
                min_size=1,
                max_size=6,
            )
        )
    preds = [_disjoint, lambda s1, s2, tgt: len(tgt) >= 3 or not (s1 & s2)]
    preds.append(_seeded_pred(draw(st.integers(0, 10**6))))
    return regions, draw(st.sampled_from(preds))


@st.composite
def region_pair_posets(draw):
    """(regions, (pair, wide)) for `PosetCategory`: the regions of
    `region_posets`, a disjoint or seeded source-pair predicate, and no,
    large or seeded wide targets."""
    regions, _ = draw(region_posets())
    coin, none = _seeded_pred(draw(st.integers(0, 10**6))), frozenset()
    pair = draw(st.sampled_from([lambda s1, s2: not (s1 & s2), lambda s1, s2: coin(s1, s2, none)]))
    wide = draw(st.sampled_from([None, lambda tgt: len(tgt) >= 3, lambda tgt: coin(none, none, tgt)]))
    return regions, (pair, wide)


@st.composite
def poset_categories(draw, name="p"):
    """(regions, category): the table category of a `region_posets` draw,
    built by the double loop, or the thin category of a
    `region_pair_posets` draw."""
    if draw(st.booleans()):
        regions, pred = draw(region_posets())
        return regions, reference_poset_category(name, regions, pred)
    regions, (pair, wide) = draw(region_pair_posets())
    return regions, PosetCategory(name, regions, pair, wide)


@st.composite
def damaged_categories(draw):
    """A poset category with one-way orth drops, and optionally dropped
    compose entries, extra arrows with dangling ends, orth pairs naming
    them or unknown ids, and an identity given for an undeclared object."""
    _, cat = draw(poset_categories("drawn"))
    orth = sorted(cat.orth)
    drops = draw(st.sets(st.sampled_from(orth), max_size=4)) if orth else set()
    orth = [p for p in orth if p not in drops]
    table = dict(cat.compose_table)
    for key in draw(st.sets(st.sampled_from(sorted(table)), max_size=3)):
        del table[key]
    ends = list(cat.objects) + ["GHOST", "X"]
    extra = [
        Morphism(f"extra{i}", src, tgt)
        for i, (src, tgt) in enumerate(
            draw(st.lists(st.tuples(st.sampled_from(ends), st.sampled_from(ends)), max_size=3))
        )
    ]
    ids = sorted(cat.morphisms) + [m.id for m in extra] + ["unknown"]
    orth += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4))
    morphisms = list(cat.morphisms.values()) + extra
    identities = dict(cat.identities)
    if draw(st.booleans()):
        identities["GHOST"] = draw(st.sampled_from(ids))
    return OrthCategory(cat.objects, morphisms, table, identities, orth, name="damaged")


def _same_category(a, b):
    assert a.objects == b.objects
    assert list(a.morphisms.items()) == list(b.morphisms.items())
    assert list(a.compose_table.items()) == list(b.compose_table.items())
    assert a.identities == b.identities
    assert a.orth == b.orth


@given(region_pair_posets())
@settings(max_examples=150, deadline=None)
def test_poset_category_matches_the_double_loop(drawn):
    regions, preds = drawn
    _same_category(
        PosetCategory("p", regions, *preds),
        reference_poset_category("p", regions, _joined(*preds)),
    )


def test_bundled_categories_match_the_double_loop(intcat6, intcat6_proper, cyccat6):
    cyclic = lambda s1, s2, tgt: len(tgt) >= 5 or not (s1 & s2)
    for cat, regions, pred in [
        (intcat6, interval_regions(6), _disjoint),
        (intcat6_proper, interval_regions(6, 5), _disjoint),
        (cyccat6, _arcs(6), cyclic),
    ]:
        _same_category(cat, reference_poset_category(cat.name, regions, pred))


@given(damaged_categories())
@settings(max_examples=200, deadline=None)
def test_partner_index_matches_the_scan(cat):
    for u in list(cat.objects) + ["GHOST", "X"]:
        partners = cat.partners(u)
        assert partners == sorted(set(partners))
        assert [p for p in partners if p != u] == reference_orth_partners(cat, u)
        self_pair = any(
            cat.morphisms[f1].src == u == cat.morphisms[f2].src
            for f1, f2 in cat.orth
            if f1 in cat.morphisms and f2 in cat.morphisms
        )
        assert (u in partners) == self_pair


@given(poset_categories(), st.data())
@settings(max_examples=100, deadline=None)
def test_net_partners_match_the_scan_after_one_way_drops(drawn, data):
    regions, cat = drawn
    drops = data.draw(st.sets(st.sampled_from(sorted(cat.orth)), max_size=4)) if cat.orth else set()
    cat = OrthCategory(cat.objects, cat.morphisms.values(), cat.compose_table,
                       cat.identities, cat.orth - drops, name="p")
    net = MatrixNet(category=cat, sites=4, region_sites=regions)
    for u in cat.objects:
        assert net.orth_partners(u) == reference_orth_partners(cat, u)


@given(damaged_categories())
@settings(max_examples=200, deadline=None)
def test_schema_errors_match_the_all_pairs_loop(cat):
    assert cat.schema_errors() == reference_schema_errors(cat)


@given(poset_categories())
@settings(max_examples=100, deadline=None)
def test_orthocomplement_matches_the_source_scan(drawn):
    _, cat = drawn
    report = check_assumption_orthocomplement(cat)
    for u in cat.objects:
        assert report.per_object[u] == any(cat.morphisms[f2].src == u for _, f2 in cat.orth)


def test_orthocomplement_skips_a_pair_naming_an_unknown_arrow():
    # (zz, idU) names no arrow zz, so it is no cospan over U
    cat = OrthCategory(["U"], [Morphism("idU", "U", "U")], {("idU", "idU"): "idU"},
                       {"U": "idU"}, [("zz", "idU")])
    report = check_assumption_orthocomplement(cat)
    assert report.per_object == {"U": False} and report.witness == "U"
    assert not report.holds


# -- the source pairs of the index --------------------------------------------------


def reference_source_pairs(category):
    """The region pairs `check_perp_commutativity` walked before the index:
    `sorted(orth)`, each pair of sources kept in the orientation it is first
    met in, either orientation deduped (pairs naming unknown ids skipped)."""
    seen, out = set(), []
    for f1, f2 in sorted(category.orth):
        m1, m2 = category.morphisms.get(f1), category.morphisms.get(f2)
        if m1 is None or m2 is None:
            continue
        key = (m1.src, m2.src)
        if key in seen or (key[1], key[0]) in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


def _assert_index_matches_the_walks(cat):
    assert cat.source_pairs() == reference_source_pairs(cat)
    for u in list(cat.objects) + ["GHOST", "X"]:
        assert [p for p in cat.partners(u) if p != u] == reference_orth_partners(cat, u)


@given(damaged_categories())
@settings(max_examples=200, deadline=None)
def test_source_pairs_match_the_sorted_walk(cat):
    _assert_index_matches_the_walks(cat)


@given(poset_categories(), st.data())
@settings(max_examples=100, deadline=None)
def test_source_pairs_of_json_categories_with_parallel_arrows(drawn, data):
    """Read back from JSON: a parallel copy of an arrow (orthogonal wherever
    the arrow is), one-way drops, and an orth pair naming an unknown id."""
    _, cat = drawn
    arrows = sorted(cat.morphisms)
    doc = category_to_json(with_parallel_copy(cat, data.draw(st.sampled_from(arrows))))
    drops = data.draw(st.sets(st.integers(0, len(doc["orth"]) - 1), max_size=3)) if doc["orth"] else set()
    doc["orth"] = [p for i, p in enumerate(doc["orth"]) if i not in drops]
    if data.draw(st.booleans()):
        doc["orth"].append(["zz", data.draw(st.sampled_from(arrows))])
    again = category_from_json(doc)
    assert not again.is_thin()
    _assert_index_matches_the_walks(again)


def test_source_pairs_on_bundled_categories(intcat6, intcat6_proper, cyccat6):
    for cat in (intcat6, intcat6_proper, cyccat6, interval_category(8)):
        pairs = cat.source_pairs()
        assert pairs and pairs == reference_source_pairs(cat)
        assert len({frozenset(p) for p in pairs}) == len(pairs)


def test_source_pairs_orient_by_the_least_pair():
    # (a, b) and (b, a) have sources (U, U); (idV, a) has sources (V, U),
    # and its transpose (a, idV), when present, is the lesser pair
    base = two_parallel_category(with_orth=False)
    for extra, expected in [([], ("V", "U")), ([("a", "idV")], ("U", "V"))]:
        cat = OrthCategory(base.objects, base.morphisms.values(), base.compose_table,
                           base.identities, [("b", "a"), ("idV", "a"), ("a", "b")] + extra)
        assert cat.source_pairs() == [("U", "U"), expected]
        assert cat.source_pairs() == reference_source_pairs(cat)
    assert cat.partners("U") == ["U", "V"] and cat.partners("V") == ["U"]


def reference_check_assumption_extension(cat):
    """`check_assumption_extension` as it deduped transposed cospans with a
    frozenset per cospan."""
    from sectorfact.orthcat import ExtensionReport, _extension_side

    report = ExtensionReport(subject=cat.name)
    seen = set()
    for f1, f2 in sorted(cat.orth):
        key = frozenset((f1, f2))
        if key in seen:
            continue
        seen.add(key)
        report.cospans_checked += 1
        m1, m2 = cat.morphisms[f1], cat.morphisms[f2]
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
                    if (b1, b2) in cat.orth:
                        found = {
                            "cospan": [f1, f2], "T_to_W": w.id, "V1_to_W": b1, "V2_to_W": b2,
                            "U1_to_V1": a1, "U2_to_V2": a2, "U1p_to_V1": t1, "U2p_to_V2": t2,
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


@given(poset_categories(), st.data())
@settings(max_examples=100, deadline=None)
def test_extension_matches_the_frozenset_dedupe(drawn, data):
    _, cat = drawn
    drops = data.draw(st.sets(st.sampled_from(sorted(cat.orth)), max_size=4)) if cat.orth else set()
    cat = OrthCategory(cat.objects, cat.morphisms.values(), cat.compose_table,
                       cat.identities, cat.orth - drops, name="p")
    fast, slow = check_assumption_extension(cat), reference_check_assumption_extension(cat)
    assert dump_json(fast.to_dict()) == dump_json(slow.to_dict())


def test_extension_counts_each_cospan_once_as_the_frozenset_did(cyccat6):
    # cyccat6 holds with every cospan counted; dropping (f1, f2) with f1 < f2
    # leaves (f2, f1) to be counted alone, so the count stays the same
    drop = [p for p in sorted(cyccat6.orth) if p[0] < p[1]][:40]
    dropped = OrthCategory(cyccat6.objects, cyccat6.morphisms.values(), cyccat6.compose_table,
                           cyccat6.identities, cyccat6.orth - set(drop))
    for cat in (cyccat6, dropped):
        fast, slow = check_assumption_extension(cat), reference_check_assumption_extension(cat)
        assert dump_json(fast.to_dict()) == dump_json(slow.to_dict())
        assert fast.holds and fast.cospans_checked == 846


# -- thin categories by predicate against their tables -----------------------------
#
# A `PosetCategory` answers from the order and its predicates; its `table`
# (the explicit category that was built before) is the reference.  Ids
# are chosen so that sorting by id and by arrow id ("id<=...") disagree
# ("a1<=" sorts before "a<="), and equal site sets make isomorphic objects.

_IDS = ["a", "a1", "a-b", "ab", "b", "b0", "c", "[1,2]", "[1,2]x"]


@st.composite
def poset_predicates(draw):
    """(regions, pair, wide) on at most 5 sites, a top region among them:
    the disjoint, marked-pair and cyclic-style predicates, clean or with
    one damage (a one-way drop, a pair not closed under shrinking a
    source, wide targets not closed under enlarging), or with random
    pairs and wide targets."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=7, unique=True))
    sets = st.frozensets(st.integers(0, 4), max_size=4)
    regions = {u: draw(sets) for u in ids}
    regions["top"] = frozenset(range(5))
    cells = sorted(set(regions.values()), key=sorted)
    disjoint = {(s, t) for s in cells for t in cells if not s & t}
    some_disjoint = sorted(disjoint, key=repr) or [(cells[0], cells[0])]
    kind = draw(st.sampled_from(["disjoint", "marked", "cyclic", "one-way", "unshrunk",
                                 "narrow", "random"]))
    wide = None
    if kind == "marked":
        chosen = draw(st.sets(st.sampled_from(some_disjoint), max_size=4))
        pairs = {(s, t) for s0, t0 in chosen for s in cells for t in cells
                 if (s <= s0 and t <= t0) or (s <= t0 and t <= s0)}
    elif kind == "one-way":
        s1, s2 = draw(st.sampled_from(some_disjoint))
        pairs = {(s, t) for s, t in disjoint if not (t == s2 and s >= s1)}
    elif kind == "unshrunk":
        s1, s2 = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
        pairs = disjoint | {(s1, s2), (s2, s1)}
    elif kind == "random":
        pairs = draw(st.sets(st.tuples(st.sampled_from(cells), st.sampled_from(cells)), max_size=12))
        wide = set(draw(st.sets(st.sampled_from(cells), max_size=3)))
    else:
        pairs = disjoint
    if kind == "cyclic":
        k = draw(st.integers(1, 5))
        wide = {s for s in cells if len(s) >= k}
    elif kind == "narrow":
        k = draw(st.integers(0, 4))
        wide = {s for s in cells if len(s) == k}
    return regions, (lambda s, t: (s, t) in pairs, None if wide is None else wide.__contains__)


def _accessors(cat):
    """Every query of a category on its objects, an unknown id and every
    arrow pair, as plain values."""
    objs = list(cat.objects) + ["GHOST"]
    ids = sorted(m.id for u in cat.objects for m in cat.into(u)) + ["GHOST<=a", "zz"]
    return {
        "objects": cat.objects,
        "identities": cat.identities,
        "hom": [cat.hom(a, b) for a in objs for b in objs],
        "into": [cat.into(u) for u in objs],
        "outof": [cat.outof(u) for u in objs],
        "arrow": [cat.arrow(f) for f in ids],
        "compose": [cat.compose(g, f) for g in ids for f in ids],
        "is_orth": [cat.is_orth(f1, f2) for f1 in ids for f2 in ids],
        "orth_pairs": list(cat.orth_pairs()),
        "partners": [cat.partners(u) for u in objs],
        "source_pairs": cat.source_pairs(),
        "has_cocone": [cat.has_cocone(a, b) for a in objs for b in objs],
        "is_thin": cat.is_thin(),
        "schema_errors": cat.schema_errors(),
    }


def _reports(cat, net):
    return [dump_json(r.to_dict()) for r in (
        validate_category(cat), check_filtered(cat), check_assumption_orthocomplement(cat),
        check_assumption_extension(cat), net.validate(),
    )] + [dump_json(category_to_json(cat))]


@given(poset_predicates(), st.data())
@settings(max_examples=300, deadline=None)
def test_thin_category_answers_as_its_table(drawn, data):
    regions, (pair, wide) = drawn
    thin = PosetCategory("p", regions, pair, wide)
    assert isinstance(thin, PosetCategory)
    table = _poset_table("p", regions, pair, wide)
    assert _accessors(thin) == _accessors(table)
    assert thin.same_orth(table) and table.same_orth(thin)
    assert thin.proved() == validate_category(table).ok
    # a net over the same regions, with some algebras diagonal and some
    # regions moved, so that inclusion and monotonicity can fail
    diagonal = data.draw(st.sets(st.sampled_from(sorted(regions))))
    moved = data.draw(st.dictionaries(st.sampled_from(sorted(regions)),
                                      st.frozensets(st.integers(0, 4)), max_size=2))
    sites = {**regions, **moved}
    overrides = {u: MatrixAlg.diagonal_on_sites(5, sites[u]) for u in diagonal}
    nets = [MatrixNet(cat, 5, sites, overrides, name="n") for cat in (thin, table)]
    assert _reports(thin, nets[0]) == _reports(table, nets[1])
    # an induced functor against the same object map on the tables
    obj_map = {u: data.draw(st.sampled_from(sorted(regions) + ["GHOST"])) for u in thin.objects}
    induced = OrthFunctor(thin, thin, obj_map)
    mor_map = {m.id: f"{obj_map[m.src]}<={obj_map[m.tgt]}" for m in table.morphisms.values()}
    assert induced.violations() == OrthFunctor(table, table, obj_map, mor_map).violations()
    assert induced.mor_map == mor_map


def _intervals4(pair, wide=None):
    regions = interval_regions(4)
    return PosetCategory("i4", regions, pair, wide), _poset_table("i4", regions, pair, wide)


@pytest.mark.parametrize("damage", ["one-way", "unshrunk", "narrow"])
def test_each_closure_of_a_thin_category_is_checked(damage):
    """One damage each, the rest closed: a one-way drop of the pairs ([1,*],
    [4,4]), a pair of overlapping sources whose shrinkings are not
    orthogonal, and wide targets of two sites under wider ones."""
    disjoint = lambda s1, s2: not s1 & s2
    thin, table = {
        "one-way": lambda: _intervals4(lambda s1, s2: disjoint(s1, s2) and not (s2 == {4} and 1 in s1)),
        "unshrunk": lambda: _intervals4(
            lambda s1, s2: disjoint(s1, s2) or {s1, s2} == {frozenset({1, 2}), frozenset({2, 3})}),
        "narrow": lambda: _intervals4(disjoint, lambda tgt: len(tgt) == 2),
    }[damage]()
    report = validate_category(thin)
    assert not report.ok and not thin.proved()
    assert dump_json(report.to_dict()) == dump_json(validate_category(table).to_dict())

