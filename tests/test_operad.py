import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectorfact.operad as operad_module
import sectorfact.sectors as sectors_module
from dense_oracle import entangler_unitary
from sectorfact.fixtures import (
    collapse_sector,
    diagonal_net,
    interval_category,
    pauli_sector,
    qubit_net,
    standard_sector_family,
    trivial_action,
)
from sectorfact.linalg import pauli_string
from sectorfact.operad import (
    EquivariantAlgebraAssignment,
    FiniteAlgebraAssignment,
    PrefactOperation,
    compose,
    enumerate_all_operations,
    enumerate_operations,
    make_operation,
    permute,
    point_operation,
    validate_algebra,
    validate_equivariant_algebra,
    validate_operad,
)
from sectorfact.orthcat import GroupActionSpec, Morphism, OrthCategory, validate_category
from sectorfact.reports import (
    PreconditionError,
    SchemaError,
    ValidationReport,
    dump_json,
)
from sectorfact.sectors import LocalizedEndo, sector_algebra_assignment


def unary(cat, u, v):
    (m,) = cat.hom(u, v)
    return PrefactOperation(v, (u,), (m.id,))


# -- enumeration ------------------------------------------------------------------


def test_enumerate_disjoint_pair(intcat6):
    ops = enumerate_operations(intcat6, ["[1,1]", "[3,3]"], "[1,3]")
    assert len(ops) == 1
    (op,) = ops
    assert op.sources == ("[1,1]", "[3,3]")


def test_enumerate_point(intcat6):
    assert enumerate_operations(intcat6, [], "[1,3]") == [point_operation("[1,3]")]


def test_enumerate_overlap_empty(intcat6):
    assert enumerate_operations(intcat6, ["[1,2]", "[2,3]"], "[1,3]") == []


def test_enumerate_unknown_object(intcat6):
    with pytest.raises(SchemaError):
        enumerate_operations(intcat6, ["[1,1]"], "[9,9]")


def test_unary_operations_are_morphisms(intcat6):
    # bijection between unary operations and hom-sets
    for u in intcat6.objects:
        for v in intcat6.objects:
            ops = enumerate_operations(intcat6, [u], v)
            assert len(ops) == len(intcat6.hom(u, v))


# -- composition --------------------------------------------------------------------


def test_compose_identities_is_identity(intcat6):
    op = enumerate_operations(intcat6, ["[1,1]", "[3,3]"], "[1,3]")[0]
    ids = tuple(
        PrefactOperation(u, (u,), (intcat6.identities[u],)) for u in op.sources
    )
    assert compose(intcat6, op, ids) == op
    unary_id = PrefactOperation(
        op.target, (op.target,), (intcat6.identities[op.target],)
    )
    assert compose(intcat6, unary_id, (op,)) == op


def test_compose_with_point(intcat6):
    # 2-ary composed with (2-ary, 0-ary): result must appear in enumeration
    outer = enumerate_operations(intcat6, ["[1,3]", "[5,5]"], "[1,6]")[0]
    inner2 = enumerate_operations(intcat6, ["[1,1]", "[3,3]"], "[1,3]")[0]
    inner0 = point_operation("[5,5]")
    got = compose(intcat6, outer, (inner2, inner0))
    assert got.arity == 2
    assert got in enumerate_operations(intcat6, ["[1,1]", "[3,3]"], "[1,6]")


def test_compose_arity_mismatch(intcat6):
    op = enumerate_operations(intcat6, ["[1,1]", "[3,3]"], "[1,3]")[0]
    with pytest.raises(PreconditionError):
        compose(intcat6, op, (point_operation("[1,1]"),))


def test_make_operation_rejects_overlap(intcat6):
    f = intcat6.hom("[1,2]", "[1,3]")[0].id
    g = intcat6.hom("[2,3]", "[1,3]")[0].id
    with pytest.raises(PreconditionError):
        make_operation(intcat6, [f, g])


# -- permutation --------------------------------------------------------------------


def test_permute_identity_and_inverse(intcat6):
    op = enumerate_operations(intcat6, ["[1,1]", "[3,3]", "[5,5]"], "[1,6]")[0]
    assert permute(op, (0, 1, 2)) == op
    sigma = (2, 0, 1)
    inverse = (1, 2, 0)
    assert permute(permute(op, sigma), inverse) == op


def test_permuted_operation_still_enumerated(intcat6):
    op = enumerate_operations(intcat6, ["[1,1]", "[3,3]"], "[1,3]")[0]
    swapped = permute(op, (1, 0))
    assert swapped in enumerate_operations(intcat6, ["[3,3]", "[1,1]"], "[1,3]")


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(3)), st.permutations(range(3)))
def test_permute_right_action(sigma, tau):
    cat = interval_category(6)
    op = enumerate_operations(cat, ["[1,1]", "[3,3]", "[5,5]"], "[1,6]")[0]
    composite = tuple(sigma[tau[i]] for i in range(3))
    assert permute(permute(op, sigma), tau) == permute(op, composite)


# -- operad validation -----------------------------------------------------------------


def test_operad_axioms_small_interval_category(intcat4):
    assert validate_operad(intcat4, bound=3).ok


def test_operad_corrupted_table_detected(intcat6):
    table = dict(intcat6.compose_table)
    # redirect one inclusion composite to a wrong-source morphism
    victim = next(
        (g, f)
        for (g, f), r in table.items()
        if intcat6.morphisms[f].src == "[1,1]" and intcat6.morphisms[r].tgt == "[1,3]"
        and g != intcat6.identities["[1,3]"]
    )
    table[victim] = intcat6.hom("[2,2]", "[1,3]")[0].id
    corrupted = OrthCategory(
        intcat6.objects,
        intcat6.morphisms.values(),
        table,
        intcat6.identities,
        intcat6.orth,
        name="corrupted",
    )
    report = validate_operad(corrupted, bound=2)
    assert not report.ok
    assert all(v.witness for v in report.violations)


def test_operad_empty_category_vacuous():
    empty = OrthCategory([], [], {}, {}, [])
    assert validate_operad(empty, bound=3).ok


# -- algebras ---------------------------------------------------------------------------


def multiplication_assignment(net):
    """The net itself as an algebra: carriers are matrix bases and the
    structure maps multiply the included elements in the target algebra."""

    def structure(op):
        def run(args):
            out = None
            for m in args:
                out = m if out is None else out @ m
            if out is None:
                from sectorfact.linalg import GMat

                out = GMat.identity(net.n)
            return out

        return run

    return FiniteAlgebraAssignment(
        carrier=lambda u: net.algebra(u).basis,
        structure=structure,
        equal=lambda a, b: a == b,
        describe=lambda m: repr(m),
        name=f"mult({net.name})",
    )


def test_net_multiplication_is_algebra(net2):
    assign = multiplication_assignment(net2)
    assert validate_algebra(net2.category, assign, bound=2).ok


def test_zero_structure_map_breaks_composition(net2):
    from sectorfact.linalg import GMat

    good = multiplication_assignment(net2)
    target = enumerate_operations(net2.category, ["[1,1]", "[2,2]"], "[1,2]")[0]

    def structure(op):
        if op == target:
            return lambda args: GMat.zero(net2.n)
        return good.structure(op)

    bad = FiniteAlgebraAssignment(
        carrier=good.carrier,
        structure=structure,
        equal=good.equal,
        describe=good.describe,
        name="broken",
    )
    report = validate_algebra(net2.category, bad, bound=2)
    assert not report.ok
    assert any(v.axiom == "composition-diagram" for v in report.violations)


def test_algebra_over_empty_operad_valid():
    empty = OrthCategory([], [], {}, {}, [])
    assign = FiniteAlgebraAssignment(
        carrier=lambda u: [],
        structure=lambda op: (lambda args: None),
        equal=lambda a, b: True,
    )
    assert validate_algebra(empty, assign, bound=3).ok


def test_arity_mismatch_reported_as_violation(net2):
    from sectorfact.reports import PreconditionError

    good = multiplication_assignment(net2)

    def structure(op):
        def run(args):
            if len(args) != op.arity:
                raise PreconditionError("arity mismatch")
            if op.arity == 2:
                raise PreconditionError("map registered with wrong arity")
            return good.structure(op)(args)

        return run

    bad = FiniteAlgebraAssignment(
        carrier=good.carrier,
        structure=structure,
        equal=good.equal,
        describe=good.describe,
        name="miswired",
    )
    report = validate_algebra(net2.category, bad, bound=2)
    assert not report.ok
    assert any(v.axiom == "structure-arity" for v in report.violations)


def test_composition_closure_never_fires_defensively(intcat4):
    # on a validated category the defensive orthogonality assertion in
    # compose cannot trigger: exercise it across all (outer, inners) pairs
    ops = enumerate_all_operations(intcat4, 2)
    by_target = {}
    for op in ops:
        by_target.setdefault(op.target, []).append(op)
    count = 0
    for outer in ops:
        pools = [by_target.get(u, []) for u in outer.sources]
        if not all(pools):
            continue
        inners = tuple(pool[0] for pool in pools)
        compose(intcat4, outer, inners)
        count += 1
    assert count > 0


# -- equivariant algebras ------------------------------------------------------------------


def test_equivariant_algebra_z2(net2):
    from sectorfact.fixtures import qubit_reflection_data, standard_sector_family
    from sectorfact.sectors import sector_equivariant_assignment

    data = qubit_reflection_data(net2)
    family = standard_sector_family(net2)
    assign = sector_equivariant_assignment(net2, data, family)
    report = validate_equivariant_algebra(net2.category, assign, data.action, bound=2)
    assert report.ok


def test_equivariant_trivial_group_reduces_to_algebra(net2):
    from sectorfact.fixtures import standard_sector_family
    from sectorfact.linalg import GMat
    from sectorfact.sectors import (
        SectorGroupData,
        sector_algebra_assignment,
        sector_equivariant_assignment,
    )

    family = standard_sector_family(net2)
    triv = trivial_action(net2.category)
    data = SectorGroupData.from_unitaries(net2, triv, {"e": GMat.identity(net2.n)}, name="triv")
    assign = sector_equivariant_assignment(net2, data, family)
    eq_report = validate_equivariant_algebra(net2.category, assign, triv, bound=2)
    plain = validate_algebra(
        net2.category, sector_algebra_assignment(net2, family), bound=2
    )
    assert eq_report.ok == plain.ok


def test_non_intertwining_iso_detected(net2):
    from sectorfact.fixtures import (
        pauli_sector,
        qubit_reflection_data,
        standard_sector_family,
    )
    from sectorfact.sectors import g_act_sector, sector_algebra_assignment

    data = qubit_reflection_data(net2)
    family = standard_sector_family(net2)
    base = sector_algebra_assignment(net2, family)

    def bad_iso(g, u):
        def run(rho):
            moved = g_act_sector(g, rho, data)
            if g != "e" and rho.label.startswith("X"):
                # deliberately map the X sector to a Z-type sector at the image
                letters = "Z" * len(net2.region_sites[moved.region])
                return pauli_sector(net2, letters, moved.region)
            return moved

        return run

    assign = EquivariantAlgebraAssignment(base=base, iso=bad_iso, name="bad")
    report = validate_equivariant_algebra(net2.category, assign, data.action, bound=1)
    assert not report.ok
    assert any("g" in v.witness and v.witness["g"] == "r" for v in report.violations)


# -- the interned kernel against the brute-force reference ---------------------------


def _reference_inner_tuples(ops_by_target, sources, budget):
    if not sources:
        yield ()
        return
    head, rest = sources[0], sources[1:]
    for g in ops_by_target.get(head, []):
        remaining = budget - g.arity
        if remaining < 0:
            continue
        for tail in _reference_inner_tuples(ops_by_target, rest, remaining):
            yield (g,) + tail


def reference_validate_operad(cat, bound=3):
    """The brute-force sweep over `compose` that `validate_operad` ran
    before its interned kernel, kept verbatim as the differential oracle."""
    report = ValidationReport(check="operad-axioms", subject=cat.name)
    report.schema_errors = cat.schema_errors()
    if report.schema_errors:
        return report

    ops = enumerate_all_operations(cat, bound)
    ops_by_target = {}
    for op in ops:
        ops_by_target.setdefault(op.target, []).append(op)

    def guarded(outer, inners, context):
        try:
            return compose(cat, outer, inners)
        except PreconditionError as exc:
            report.add(
                "composition-welldefined",
                {
                    "context": context,
                    "outer": outer.label(),
                    "inners": [g.label() for g in inners],
                    "detail": str(exc),
                },
            )
            return None

    # unit laws
    for op in ops:
        ids = tuple(
            PrefactOperation(u, (u,), (cat.identities[u],)) for u in op.sources
        )
        right = guarded(op, ids, "unit-right")
        if right is not None and right != op:
            report.add("unit-right", {"op": op.label(), "got": right.label()})
        unary_id = PrefactOperation(
            op.target, (op.target,), (cat.identities[op.target],)
        )
        left = guarded(unary_id, (op,), "unit-left")
        if left is not None and left != op:
            report.add("unit-left", {"op": op.label(), "got": left.label()})

    # associativity gamma(gamma(f;g);h) = gamma(f; gamma(g_i;h_i))
    for f in ops:
        if f.arity == 0:
            continue
        for gs in _reference_inner_tuples(ops_by_target, f.sources, bound):
            fg = guarded(f, gs, "associativity")
            if fg is None:
                continue
            for hs in _reference_inner_tuples(ops_by_target, fg.sources, bound):
                left = guarded(fg, hs, "associativity")
                if left is None:
                    continue
                pos = 0
                gh = []
                ok = True
                for g in gs:
                    block = hs[pos : pos + g.arity]
                    pos += g.arity
                    inner = guarded(g, block, "associativity")
                    if inner is None:
                        ok = False
                        break
                    gh.append(inner)
                if not ok:
                    continue
                right = guarded(f, gh, "associativity")
                if right is not None and left != right:
                    report.add(
                        "associativity",
                        {
                            "f": f.label(),
                            "g": [g.label() for g in gs],
                            "h": [h.label() for h in hs],
                        },
                    )

    # equivariance: gamma(f sigma; g_{sigma(1)},...) = gamma(f; g) sigma<k>
    for f in ops:
        if f.arity < 2:
            continue
        for gs in _reference_inner_tuples(ops_by_target, f.sources, bound):
            fg = guarded(f, gs, "equivariance")
            if fg is None:
                continue
            for sigma in itertools.permutations(range(f.arity)):
                lhs = guarded(
                    permute(f, sigma), tuple(gs[s] for s in sigma), "equivariance"
                )
                if lhs is None:
                    continue
                expected_arrows = []
                expected_sources = []
                blocks = []
                pos = 0
                for g in gs:
                    blocks.append(
                        (fg.arrows[pos : pos + g.arity], fg.sources[pos : pos + g.arity])
                    )
                    pos += g.arity
                for s in sigma:
                    expected_arrows.extend(blocks[s][0])
                    expected_sources.extend(blocks[s][1])
                rhs = PrefactOperation(
                    fg.target, tuple(expected_sources), tuple(expected_arrows)
                )
                if lhs != rhs:
                    report.add(
                        "equivariance",
                        {
                            "f": f.label(),
                            "sigma": list(sigma),
                            "g": [g.label() for g in gs],
                        },
                    )
    return report


def assert_same_report(cat, bound):
    got = dump_json(validate_operad(cat, bound).to_dict())
    want = dump_json(reference_validate_operad(cat, bound).to_dict())
    assert got == want
    return want


def kernel_report(cat, bound):
    """The kernel sweep alone over every target, also on a category whose
    clean `validate_category` report lets `validate_operad` skip it."""
    report = ValidationReport(check="operad-axioms", subject=cat.name)
    operad_module._OperadKernel(cat, bound, report, set(cat.objects)).run()
    return dump_json(report.to_dict())


def with_orth(cat, orth, name):
    return OrthCategory(
        cat.objects, cat.morphisms.values(), cat.compose_table, cat.identities,
        orth, name=name,
    )


def probe_a(cat):
    """Criterion-5 probe A: one composite redirected to a wrong-signature arrow."""
    table = dict(cat.compose_table)
    victim = next(
        (g, f)
        for (g, f), r in table.items()
        if cat.morphisms[f].src == "[1,1]"
        and cat.morphisms[r].tgt == "[1,3]"
        and g != cat.identities["[1,3]"]
    )
    table[victim] = cat.hom("[2,2]", "[1,3]")[0].id
    return OrthCategory(
        cat.objects, cat.morphisms.values(), table, cat.identities, cat.orth,
        name="corrupted-table",
    )


PROBE_B_DROP = {("[1,1]<=[1,4]", "[3,3]<=[1,4]"), ("[3,3]<=[1,4]", "[1,1]<=[1,4]")}


def probe_b(cat):
    """Criterion-5 probe B: one closure pair dropped in both directions."""
    return with_orth(cat, [p for p in cat.orth if p not in PROBE_B_DROP], "corrupted-orth")


def nonassociative_category():
    """A chain A -> B -> C -> D whose table is schema-clean but breaks the
    laws: (fg) h2 = v while f (g h2) = w, and id_D v = w.  (u, v) is
    orthogonal and (u, w) is not, so gamma(f; gamma(g; (h1, h2))) and the
    left unit of (u, v) are undefined while gamma(gamma(f; g); (h1, h2)) is
    defined."""
    arrows = {
        "idA": "AA", "idB": "BB", "idC": "CC", "idD": "DD", "h1": "AB", "h2": "AB",
        "g": "BC", "gh1": "AC", "gh2": "AC", "f": "CD", "fg": "BD",
        "u": "AD", "v": "AD", "w": "AD",
    }
    mors = [Morphism(a, st[0], st[1]) for a, st in arrows.items()]
    identities = {u: f"id{u}" for u in "ABCD"}
    table = {}
    for a, (src, tgt) in arrows.items():
        table[(a, identities[src])] = a
        table[(identities[tgt], a)] = a
    table.update({
        ("g", "h1"): "gh1", ("g", "h2"): "gh2", ("fg", "h1"): "u", ("fg", "h2"): "v",
        ("f", "g"): "fg", ("f", "gh1"): "u", ("f", "gh2"): "w", ("idD", "v"): "w",
    })
    orth = [("h1", "h2"), ("gh1", "gh2"), ("u", "v")]
    orth += [(b, a) for a, b in orth]
    return OrthCategory("ABCD", mors, table, identities, orth, name="nonassociative")


@pytest.mark.parametrize("n,bound", [(4, 3), (6, 2)])
def test_kernel_matches_reference_on_interval_categories(n, bound):
    cat = interval_category(n)
    assert kernel_report(cat, bound) == assert_same_report(cat, bound)


def test_kernel_matches_reference_on_probes(intcat6):
    assert '"schema_errors": []' not in assert_same_report(probe_a(intcat6), 2)
    report = assert_same_report(probe_b(intcat6), 2)
    assert "composition-welldefined" in report


def test_kernel_matches_reference_on_one_directional_drop(intcat6):
    # only (a, b) goes: the row mask of a loses b, the column mask of b keeps a
    one_way = ("[1,1]<=[1,4]", "[3,3]<=[1,4]")
    cat = with_orth(intcat6, [p for p in intcat6.orth if p != one_way], "one-way")
    assert "composition-welldefined" in assert_same_report(cat, 2)


def test_kernel_matches_reference_on_broken_laws():
    cat = nonassociative_category()
    assert not cat.schema_errors()
    report = assert_same_report(cat, 3)
    for axiom in ("unit-left", "associativity", "composition-welldefined"):
        assert f'"axiom": "{axiom}"' in report
    assert '"context": "unit-left"' in report


_INTERVAL_CATS = {n: interval_category(n) for n in (4, 5)}


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_dropped_orth_pairs(data):
    n = data.draw(st.sampled_from([4, 5]), label="n")
    bound = data.draw(st.integers(2, 3) if n == 4 else st.just(2), label="bound")
    cat = _INTERVAL_CATS[n]
    pairs = sorted(cat.orth)
    dropped = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True),
        label="dropped",
    )
    both = data.draw(st.booleans(), label="both directions")
    gone = set(dropped) | ({(b, a) for a, b in dropped} if both else set())
    assert_same_report(with_orth(cat, [p for p in cat.orth if p not in gone], "dropped"), bound)


def test_kernel_accepting_non_orthogonal_tuple_is_caught(intcat6, monkeypatch):
    import sectorfact.operad as operad_module

    # a kernel that takes every pair as orthogonal loses probe B's witnesses
    monkeypatch.setattr(
        operad_module, "_mutual_orth_masks", lambda cat, index: [-1] * len(index)
    )
    cat = probe_b(intcat6)
    got = dump_json(validate_operad(cat, 2).to_dict())
    assert got != dump_json(reference_validate_operad(cat, 2).to_dict())


def test_kernel_rejecting_orthogonal_tuple_is_internal_error(intcat4, monkeypatch):
    monkeypatch.setattr(
        operad_module, "_mutual_orth_masks", lambda cat, index: [0] * len(index)
    )
    with pytest.raises(RuntimeError, match="compose accepts"):
        kernel_report(intcat4, 2)


def test_equivariance_walk_keeps_its_witnesses(intcat6):
    # equivariance itself cannot fail, but an undefined gamma(f; g) with f
    # of arity >= 2 is witnessed once more under context equivariance
    report = validate_operad(probe_b(intcat6), 2)
    contexts = [
        v.witness["context"] for v in report.violations if v.axiom == "composition-welldefined"
    ]
    assert contexts.count("equivariance") == 14


def _force_proof(monkeypatch, level, verdict):
    """Make one proof level of the kernel answer `verdict` everywhere:
    `proved` for whole operations f, `cleared` for h-tuples."""
    monkeypatch.setattr(operad_module._OperadKernel, level, lambda self, *args: verdict)


def _force_clean_summary(monkeypatch, clean):
    """Force every (f, g) summary clean or not; not clean also turns the
    proofs for whole operations and for h-tuples off."""
    summary = (True, 0, -1) if clean else (False, 0, 0)
    monkeypatch.setattr(
        operad_module._OperadKernel, "clean_summary", lambda self, fi, g: summary
    )
    if not clean:
        _force_proof(monkeypatch, "proved", False)
        _force_proof(monkeypatch, "cleared", False)


def test_walking_every_pair_matches_reference_on_intcat4(intcat4, monkeypatch):
    # with no (f, g) proven clean, every associativity check runs on compose
    _force_clean_summary(monkeypatch, clean=False)
    want = dump_json(reference_validate_operad(intcat4, 3).to_dict())
    assert kernel_report(intcat4, 3) == want


def test_walking_every_pair_matches_reference_on_probe_b_drop(monkeypatch):
    cat = probe_b(_INTERVAL_CATS[5])
    _force_clean_summary(monkeypatch, clean=False)
    assert '"axiom": "composition-welldefined"' in assert_same_report(cat, 2)


def _associativity_witnesses(report):
    return [
        v for v in report.violations
        if v.axiom == "associativity" or v.witness.get("context") == "associativity"
    ]


def test_proof_carries_the_associativity_result(intcat6, monkeypatch):
    # a proof that clears every (f, g) loses probe B's witnesses from the walk
    cat = probe_b(intcat6)
    want = _associativity_witnesses(reference_validate_operad(cat, 2))
    _force_clean_summary(monkeypatch, clean=True)
    got = _associativity_witnesses(validate_operad(cat, 2))
    assert len(got) < len(want)


@pytest.mark.parametrize("level", ["proved", "cleared"])
def test_each_proof_level_carries_the_associativity_result(intcat6, monkeypatch, level):
    # a proof level that clears everything loses probe B's witnesses
    cat = probe_b(intcat6)
    want = _associativity_witnesses(reference_validate_operad(cat, 2))
    _force_proof(monkeypatch, level, True)
    got = _associativity_witnesses(validate_operad(cat, 2))
    assert len(got) < len(want)


@pytest.mark.parametrize("level", ["proved", "cleared"])
def test_kernel_matches_reference_with_one_proof_level_off(intcat6, monkeypatch, level):
    _force_proof(monkeypatch, level, False)
    assert '"context": "associativity"' in assert_same_report(probe_b(intcat6), 2)


def test_kernel_matches_reference_on_probe_b_drop_at_bound_3():
    assert '"context": "associativity"' in assert_same_report(probe_b(_INTERVAL_CATS[5]), 3)


def test_kernel_accepting_undefined_outer_composite_is_internal_error(intcat6, monkeypatch):
    import sectorfact.operad as operad_module

    # every pair taken as orthogonal: the kernel accepts gamma(f; g) that
    # compose rejects on probe B, and the walk must not start from it
    monkeypatch.setattr(
        operad_module, "_mutual_orth_masks", lambda cat, index: [-1] * len(index)
    )
    _force_clean_summary(monkeypatch, clean=False)
    with pytest.raises(RuntimeError, match="compose rejects"):
        validate_operad(probe_b(intcat6), 2)


# -- the proof path: a clean category enumerates nothing ---------------------------------


def spy_on_the_sweep(monkeypatch):
    """Count kernel constructions and operation enumerations."""
    calls = {"kernel": 0, "enumerate": 0}
    kernel, enumerate_all = operad_module._OperadKernel, operad_module.enumerate_all_operations

    class CountedKernel(kernel):
        def __init__(self, *args):
            calls["kernel"] += 1
            super().__init__(*args)

    def counted_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_all(*args, **kwargs)

    monkeypatch.setattr(operad_module, "_OperadKernel", CountedKernel)
    monkeypatch.setattr(operad_module, "enumerate_all_operations", counted_enumerate)
    return calls


@pytest.mark.parametrize("name", ["intcat6", "cyccat6"])
def test_clean_category_enumerates_no_operation(name, request, monkeypatch):
    cat = request.getfixturevalue(name)
    calls = spy_on_the_sweep(monkeypatch)
    report = validate_operad(cat, 3)
    assert report.ok and report.violations == []
    assert calls == {"kernel": 0, "enumerate": 0}


def test_dirty_category_runs_the_kernel(intcat6, monkeypatch):
    calls = spy_on_the_sweep(monkeypatch)
    assert not validate_operad(probe_b(intcat6), 2).ok
    assert calls == {"kernel": 1, "enumerate": 1}


def test_schema_errors_are_reported_once_and_stop_the_sweep(intcat6, monkeypatch):
    cat = probe_a(intcat6)
    calls = spy_on_the_sweep(monkeypatch)
    report = validate_operad(cat, 2)
    assert report.schema_errors == cat.schema_errors() != []
    assert report.violations == []
    assert calls == {"kernel": 0, "enumerate": 0}


_SUBSET_RELATIONS = {
    # each is symmetric and holds for subsets of related sources, so the
    # relation on arrows is closed under transposition and pre- and
    # post-composition
    "disjoint": lambda u, w, v: not u & w,
    "disjoint-not-covering": lambda u, w, v: not u & w and u | w != v,
    "gap": lambda u, w, v: all(abs(x - y) >= 2 for x in u for y in w),
}


def _subset_name(u):
    return "s" + "".join(str(x) for x in sorted(u))


def subset_category(family, relation, name="subsets"):
    """The thin category of a family of subsets ordered by inclusion; two
    arrows into V are orthogonal when `relation(U, U', V)` holds on their
    sources."""
    family = sorted(set(family), key=lambda u: (len(u), sorted(u)))
    arrow = {(u, v): f"{_subset_name(u)}<{_subset_name(v)}" for u in family for v in family if u <= v}
    mors = [Morphism(a, _subset_name(u), _subset_name(v)) for (u, v), a in arrow.items()]
    table = {
        (arrow[v, w], arrow[u, v]): arrow[u, w]
        for (u, v) in arrow for w in family if v <= w
    }
    orth = [
        (arrow[u, v], arrow[w, v])
        for (u, v) in arrow for w in family if w <= v and relation(u, w, v)
    ]
    identities = {_subset_name(u): arrow[u, u] for u in family}
    return OrthCategory([_subset_name(u) for u in family], mors, table, identities, orth, name=name)


def with_parallel_copy(cat, a):
    """`cat` with a second arrow a' parallel to a that composes like a (a'
    itself only with identities) and is orthogonal wherever a is, so the
    category axioms still hold; it lets a unit entry or a composite move to
    an arrow of the right signature."""
    m, copy = cat.morphisms[a], a + "'"
    ids = set(cat.identities.values())
    table = dict(cat.compose_table)
    for (g, f), r in cat.compose_table.items():
        if f == a:
            table[g, copy] = copy if g in ids else r
        if g == a:
            table[copy, f] = copy if f in ids else r
    swap = {a: (a, copy)}
    orth = {(x, y) for p, q in cat.orth for x in swap.get(p, (p,)) for y in swap.get(q, (q,))}
    return OrthCategory(
        cat.objects, [*cat.morphisms.values(), Morphism(copy, m.src, m.tgt)], table,
        cat.identities, orth, name=cat.name,
    )


@st.composite
def thin_orthogonal_categories(draw):
    """A random thin orthogonal category of subsets, sometimes with one
    parallel copy of an arrow, and sometimes mutated: an orthogonality pair
    dropped (one way or both), a composite redirected, or a unit entry
    broken."""
    ground = range(4)
    subsets = [frozenset(c) for k in range(5) for c in itertools.combinations(ground, k)]
    family = draw(st.lists(st.sampled_from(subsets), min_size=2, max_size=6, unique=True))
    relation = draw(st.sampled_from(sorted(_SUBSET_RELATIONS)))
    cat = subset_category(family, _SUBSET_RELATIONS[relation], name=relation)
    ids = set(cat.identities.values())
    proper = sorted(set(cat.morphisms) - ids)
    if proper and draw(st.booleans()):
        cat = with_parallel_copy(cat, draw(st.sampled_from(proper)))
    mutation = draw(st.sampled_from(["none", "drop-one-way", "drop-both", "redirect", "unit"]))
    orth, table = set(cat.orth), dict(cat.compose_table)
    # a moved entry goes to a parallel arrow where there is one, keeping the
    # schema clean; without a copy it goes anywhere and is a schema error
    doubled = sorted(m.id for m in cat.morphisms.values() if len(cat.hom(m.src, m.tgt)) > 1)

    def moved(r):
        m = cat.morphisms[r]
        parallel = [x for x in cat.hom(m.src, m.tgt) if x.id != r]
        return draw(st.sampled_from(parallel or sorted(cat.morphisms.values()))).id

    if mutation.startswith("drop") and orth:
        a, b = draw(st.sampled_from(sorted(orth)))
        orth -= {(a, b), (b, a)} if mutation == "drop-both" else {(a, b)}
    elif mutation == "redirect":
        key = draw(st.sampled_from(sorted(k for k, r in table.items() if r in doubled) or sorted(table)))
        table[key] = moved(table[key])
    elif mutation == "unit":
        f = cat.morphisms[draw(st.sampled_from(doubled or sorted(cat.morphisms)))]
        key = draw(st.sampled_from([
            (cat.identities[f.tgt], f.id), (f.id, cat.identities[f.src]),
        ]))
        table[key] = moved(table[key])
    name = f"{cat.name}/{mutation}"
    return OrthCategory(cat.objects, cat.morphisms.values(), table, cat.identities, orth, name=name)


def test_subset_categories_are_orthogonal_categories():
    subsets = [frozenset(c) for k in range(4) for c in itertools.combinations(range(3), k)]
    for relation, pred in _SUBSET_RELATIONS.items():
        cat = subset_category(subsets, pred, name=relation)
        assert cat.is_thin() and validate_category(cat).ok, relation
        (a, *_) = sorted(set(cat.morphisms) - set(cat.identities.values()))
        assert validate_category(with_parallel_copy(cat, a)).ok, relation


@settings(max_examples=60, deadline=None)
@given(thin_orthogonal_categories(), st.integers(0, 3))
def test_proof_path_matches_reference_on_random_orthogonal_categories(cat, bound):
    assert_same_report(cat, bound)


# -- the kernel sweeps only the targets above a violation ---------------------------------


def _dirty_targets(cat):
    """The targets whose operations the kernel sweeps, and the targets of
    the operations whose `proved` it asks."""
    swept, asked = [], []
    kernel, proved = operad_module._OperadKernel, operad_module._OperadKernel.proved

    class Spy(kernel):
        def __init__(self, cat, bound, report, dirty):
            swept.extend(sorted(dirty))
            super().__init__(cat, bound, report, dirty)

        def proved(self, f):
            asked.append(self.cat.objects[f.target])
            return proved(self, f)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operad_module, "_OperadKernel", Spy)
        validate_operad(cat, 2)
    return swept, asked


def damaged_at_two_incomparable_objects(cat):
    """Probe B's pair dropped at [1,4] and a pair of [4,6] dropped too."""
    drop = PROBE_B_DROP | {("[4,4]<=[4,6]", "[6,6]<=[4,6]"), ("[6,6]<=[4,6]", "[4,4]<=[4,6]")}
    return with_orth(cat, [p for p in cat.orth if p not in drop], "two-damaged")


def damaged_below_every_target():
    """Subsets of {0, 1, 2} with an idempotent e != id at the empty set,
    which has an arrow into every object: e composes like the identity
    with the arrows out of it, and (id, e), (e, id), (e, e) are
    orthogonal like (id, id), except that (e, id) is dropped.  Every
    violation then has the empty set as its top."""
    subsets = [frozenset(c) for k in range(4) for c in itertools.combinations(range(3), k)]
    cat = subset_category(subsets, _SUBSET_RELATIONS["disjoint"])
    bottom, ident = "s", cat.identities["s"]
    table = dict(cat.compose_table)
    table.update({("e", "e"): "e", ("e", ident): "e", (ident, "e"): "e"})
    table.update({(g.id, "e"): g.id for g in cat.outof(bottom) if g.id != ident})
    orth = set(cat.orth) | {(ident, "e"), ("e", "e")}
    return OrthCategory(
        cat.objects, [*cat.morphisms.values(), Morphism("e", bottom, bottom)], table,
        cat.identities, orth, name="damaged-bottom",
    )


def with_orth_cospan_violation(cat):
    """Probe B with a pair of arrows into different targets marked orthogonal."""
    return with_orth(probe_b(cat), set(probe_b(cat).orth) | {("[1,1]<=[1,2]", "[3,3]<=[3,4]")},
                     "cospan-violation")


_DAMAGED = {
    "probe-a": probe_a,
    "probe-b": probe_b,
    "two-incomparable": damaged_at_two_incomparable_objects,
    "below-every-target": lambda cat: damaged_below_every_target(),
    "orth-cospan": with_orth_cospan_violation,
}


@pytest.mark.parametrize("name", sorted(_DAMAGED))
def test_sweeping_the_dirty_targets_matches_the_reference(intcat6, name):
    cat = _DAMAGED[name](intcat6)
    report = assert_same_report(cat, 2)
    if name != "probe-a":
        assert not validate_category(cat).ok and '"violations": []' not in report


def test_the_dirty_targets_are_the_up_sets_of_the_violation_tops(intcat6):
    above_14 = ["[1,4]", "[1,5]", "[1,6]"]
    swept, asked = _dirty_targets(probe_b(intcat6))
    assert swept == above_14
    # the kernel asks `proved` of operations into dirty targets only
    assert asked and set(asked) <= set(above_14)
    swept, _ = _dirty_targets(damaged_at_two_incomparable_objects(intcat6))
    assert swept == sorted({*above_14, "[1,6]", "[2,6]", "[3,6]", "[4,6]"})
    everything = damaged_below_every_target()
    assert {v.axiom for v in validate_category(everything).violations} == {
        "orth-transposition", "orth-pre-composition"
    }
    assert _dirty_targets(everything)[0] == sorted(everything.objects)
    cospan = with_orth_cospan_violation(intcat6)
    assert _dirty_targets(cospan)[0] == sorted(intcat6.objects)


def test_violation_tops_follow_the_witnesses(intcat6):
    from sectorfact.orthcat import violation_top

    cats = (probe_b(intcat6), nonassociative_category(), with_orth_cospan_violation(intcat6),
            damaged_below_every_target())
    tops = {(v.axiom, violation_top(cat, v)) for cat in cats for v in validate_category(cat).violations}
    assert tops == {
        ("orth-post-composition", "[1,4]"), ("orth-pre-composition", "[1,4]"),
        ("unit-left", "D"), ("associativity", "D"), ("orth-post-composition", "D"),
        ("orth-cospan", None), ("orth-transposition", "s"), ("orth-pre-composition", "s"),
    }


# -- the algebra proof against the full walk ---------------------------------------------


def reference_validate_algebra(cat, assign, bound=3):
    """The walk of every diagram instance that `validate_algebra` ran
    before it proved the summarized tuples, kept verbatim as the oracle."""
    report = ValidationReport(check="algebra-axioms", subject=assign.name or cat.name)
    ops = enumerate_all_operations(cat, bound)
    ops_by_target = {}
    for op in ops:
        ops_by_target.setdefault(op.target, []).append(op)

    def apply(op, args, context):
        try:
            return assign.structure(op)(args)
        except PreconditionError as exc:
            report.add(
                "structure-arity", {"context": context, "op": op.label(), "detail": str(exc)}
            )
            return None

    def tuples_for(sources):
        return itertools.product(*(assign.carrier(u) for u in sources))

    for v in cat.objects:
        unary = PrefactOperation(v, (v,), (cat.identities[v],))
        for x in assign.carrier(v):
            y = apply(unary, (x,), "unit")
            if y is not None and not assign.equal(x, y):
                report.add(
                    "unit-diagram",
                    {"object": v, "element": assign.describe(x), "got": assign.describe(y)},
                )

    for f in ops:
        for gs in _reference_inner_tuples(ops_by_target, f.sources, bound):
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


def _cz_family(net):
    # CZ on sites 0 and 1 at [1,2]: inner, but no Pauli string, so no summary
    family = standard_sector_family(net)
    family["[1,2]"] = [
        LocalizedEndo(net, "[1,2]", unitary=entangler_unitary(net, 0, 1), label="CZ@[1,2]")
    ]
    return family


def _misfiled_family(net):
    # [1,1] also lists an X on site 1 labelled [1,1] (not localized there,
    # yet every diagram holds) and the X sector of [2,2]: every structure
    # map on a tuple holding the latter raises, a structure-arity witness
    family = standard_sector_family(net)
    stray = LocalizedEndo(net, "[1,1]", unitary=pauli_string(net.sites, 1 << (net.sites - 2), 0),
                          label="X@[2,2]-listed-at-[1,1]")
    family["[1,1]"] = family["[1,1]"] + [stray, pauli_sector(net, "X", "[2,2]")]
    return family


def _collapse_family(net):
    # the image-built reset sector of the diagonal net next to its inner ones
    family = standard_sector_family(net)
    family["[1,2]"] = [collapse_sector(net)]
    return family


def _sectors(net, family_of):
    return net.category, sector_algebra_assignment(net, family_of(net))


# name -> (net and assignment, bound); built when a test asks
_PROOF_CASES = {
    **{
        f"standard-qubit{L}-b{b}": (lambda L=L: _sectors(qubit_net(L), standard_sector_family), b)
        for L in (2, 3, 4)
        for b in (1, 2, 3)
    },
    "standard-qubit5-b2": (lambda: _sectors(qubit_net(5), standard_sector_family), 2),
    "cz-qubit4-b2": (lambda: _sectors(qubit_net(4), _cz_family), 2),
    "cz-qubit3-b3": (lambda: _sectors(qubit_net(3), _cz_family), 3),
    "misfiled-qubit4-b2": (lambda: _sectors(qubit_net(4), _misfiled_family), 2),
    "collapse-bits4-b2": (lambda: _sectors(diagonal_net(4), _collapse_family), 2),
    **{
        f"multiplication-qubit{L}-b2": (
            lambda L=L: (qubit_net(L).category, multiplication_assignment(qubit_net(L))), 2
        )
        for L in (2, 3)
    },
}


@pytest.mark.parametrize("name", sorted(_PROOF_CASES))
def test_algebra_proof_matches_the_full_walk(name):
    build, bound = _PROOF_CASES[name]
    cat, assign = build()
    want = dump_json(reference_validate_algebra(cat, assign, bound).to_dict())
    assert dump_json(validate_algebra(cat, assign, bound).to_dict()) == want
    if name.startswith("misfiled"):
        assert '"structure-arity"' in want and '"composition"' in want


def test_summary_without_the_region_test_loses_the_misfiled_witnesses(monkeypatch):
    net = qubit_net(4)
    want = reference_validate_algebra(*_sectors(net, _misfiled_family), 2).violations
    # corruption probe: a summary that ignores where the sector is filed
    real = sectors_module._sector_summary
    monkeypatch.setattr(sectors_module, "_sector_summary", lambda u, s: real(s.region, s))
    got = validate_algebra(*_sectors(net, _misfiled_family), 2).violations
    assert all(v.axiom == "structure-arity" for v in want + got)
    assert len(got) < len(want)
    assert {v.witness["context"] for v in got} == {"unit"}


def _count_theorem311(monkeypatch, family_of):
    """theorem311 on qubit4 at bound 3, counting structure maps and sector
    products in all and inside `validate_algebra`."""
    calls = {"pfa": 0, "diamond": 0, "pfa-in-algebra": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return run

    def algebra(*args, **kwargs):
        before = calls["pfa"]
        out = real_algebra(*args, **kwargs)
        calls["pfa-in-algebra"] += calls["pfa"] - before
        return out

    real_algebra = operad_module.validate_algebra
    for key, name in (("pfa", "pfa_structure_map"), ("diamond", "diamond")):
        monkeypatch.setattr(sectors_module, name, counted(key, getattr(sectors_module, name)))
    monkeypatch.setattr(operad_module, "validate_algebra", algebra)
    net = qubit_net(4)
    family = family_of(net)
    report = sectors_module.validate_theorem_3_11(net, family, bound=3)
    return report, calls, net, sectors_module.sector_carriers(net, family)


def test_theorem311_on_the_standard_family_evaluates_only_the_unit_diagram(monkeypatch):
    report, calls, _, carriers = _count_theorem311(monkeypatch, standard_sector_family)
    assert report.ok
    # one evaluation of F(id_V) per carrier element, and no sector product
    units = sum(len(sectors) for sectors in carriers.values())
    assert calls == {"pfa": units, "diamond": 0, "pfa-in-algebra": units}


def _logged(assign, log):
    """The assignment with each structure evaluation appended to `log`."""
    def structure(op):
        run = assign.structure(op)

        def logged(args):
            log.append((op.label(), tuple(x.label for x in args)))
            return run(args)

        return logged

    return dataclasses.replace(assign, structure=structure)


def test_a_mixed_family_walks_everything(monkeypatch):
    # CZ at [1,2] has no summary, so nothing is proved: validate_algebra
    # makes the evaluations of the full walk, in its order
    net = qubit_net(4)
    walked, full = [], []
    validate_algebra(net.category, _logged(sector_algebra_assignment(net, _cz_family(net)), walked))
    reference_validate_algebra(
        net.category, _logged(sector_algebra_assignment(net, _cz_family(net)), full)
    )
    assert walked == full
    # and strict monoidality makes three structure-map evaluations per pair
    # of tuples (rhos, rhodots), over every pair
    report, calls, net, carriers = _count_theorem311(monkeypatch, _cz_family)
    pairs = sum(
        math.prod(len(carriers[u]) for u in op.sources) ** 2
        for op in enumerate_all_operations(net.category, 2)
        if op.arity
    )
    assert calls["pfa"] - calls["pfa-in-algebra"] == 3 * pairs


def test_theorem311_on_qubit5_at_bound_3_matches_the_full_walk(monkeypatch):
    def report():
        net = qubit_net(5)
        family = standard_sector_family(net)
        return dump_json(sectors_module.validate_theorem_3_11(net, family, bound=3).to_dict())

    proved = report()
    # the full walk: the reference sweep, and no sector summarized for the
    # strict-monoidality loop
    monkeypatch.setattr(operad_module, "validate_algebra", reference_validate_algebra)
    monkeypatch.setattr(sectors_module, "_sector_summary", lambda u, s: None)
    assert report() == proved


# -- the equivariant naturality proof against the full walk -----------------------


def reference_validate_equivariant_algebra(
    cat: OrthCategory,
    assign: EquivariantAlgebraAssignment,
    action: GroupActionSpec,
    bound: int = 3,
) -> ValidationReport:
    """Check the unit law, the cocycle square, and naturality of the
    equivariance isomorphisms against the structure maps."""
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

    # cocycle square
    for g1 in action.group.elements:
        for g2 in action.group.elements:
            prod = action.group.mult(g2, g1)
            for u in cat.objects:
                mid = action.action[g1].apply_obj(u)
                for x in base.carrier(u):
                    two_step = assign.iso(g2, mid)(assign.iso(g1, u)(x))
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


def _equivariant_case(kind, L, orth, drop, extra, action):
    """(category, assignment, action) for the sector model, built afresh so
    that each validator starts with empty caches.  `kind` is "qubit",
    "bits" (the diagonal net) or "mixed" (the qubit net with a diagonal
    algebra at [1,2], not a functor); `orth` the net document's orth field;
    `drop` labels of standard sectors to leave out; `extra` None, "cz" (CZ on sites
    0 and 1 at [1,2], no summary), "images" (the same map built from basis
    images) or "collapse" (bits only); `action` "reflection", "trivial" or
    ("skew", a, b): the reflection with arrow a sent to b instead."""
    from sectorfact.fixtures import net_from_json, net_to_json, qubit_reflection_data
    from sectorfact.linalg import GMat
    from sectorfact.orthcat import OrthFunctor
    from sectorfact.sectors import SectorGroupData, sector_equivariant_assignment

    doc = net_to_json(diagonal_net(L) if kind == "bits" else qubit_net(L))
    doc["orth"] = orth
    if kind == "mixed":
        next(r for r in doc["regions"] if r["id"] == "[1,2]")["algebra"] = "diagonal"
    net = net_from_json(doc)
    family = {
        u: [s for s in sectors if s.label not in drop]
        for u, sectors in standard_sector_family(net).items()
    }
    if extra == "cz":
        cz = entangler_unitary(net, 0, 1)
        family["[1,2]"] = [LocalizedEndo(net, "[1,2]", unitary=cz, label="CZ@[1,2]")]
    elif extra == "images":
        cz = entangler_unitary(net, 0, 1)
        images = [cz @ b @ cz for b in net.global_algebra().basis]
        family["[1,2]"] = [LocalizedEndo(net, "[1,2]", images=images, label="CZ-images@[1,2]")]
    elif extra == "collapse":
        family["[1,2]"] = [collapse_sector(net)]
    if action == "trivial":
        data = SectorGroupData.from_unitaries(net, trivial_action(net.category), {"e": GMat.identity(net.n)})
    else:
        data = qubit_reflection_data(net)
    if action not in ("reflection", "trivial"):
        _, a, b = action
        spec = data.action
        r = spec.action["r"]
        skewed = OrthFunctor(r.source, r.target, r.obj_map, {**r.mor_map, a: b}, name="r")
        data.action = GroupActionSpec(spec.group, {**spec.action, "r": skewed}, spec.name)
    assign = sector_equivariant_assignment(net, data, family)
    return net.category, assign, data.action


def _equivariant_outcome(validate, case, bound):
    """The report's bytes, or the type and message of what it raised."""
    try:
        return dump_json(validate(*_equivariant_case(*case), bound=bound).to_dict())
    except Exception as exc:  # compared, not swallowed: both sides must agree
        return type(exc).__name__, str(exc)


def _region_sites(L):
    return {f"[{a},{b}]": set(range(a, b + 1)) for a in range(1, L + 1) for b in range(a, L + 1)}


def _down_closed(L, pairs):
    """The marked pairs with every pair of subregions added: a clean
    category, so the proof may run."""
    sites = _region_sites(L)
    return sorted({
        (a2, b2)
        for a, b in pairs
        for a2 in sites if sites[a2] <= sites[a]
        for b2 in sites if sites[b2] <= sites[b]
    })


@st.composite
def equivariant_cases(draw):
    kind = draw(st.sampled_from(["qubit", "qubit", "bits", "mixed"]))
    L = 4 if kind == "bits" else draw(st.sampled_from([3, 4]))
    regions = sorted(_region_sites(L))
    orth = "disjoint"
    if draw(st.booleans()):
        # any pairs, overlapping ones of larger regions included
        pair = st.tuples(st.sampled_from(regions), st.sampled_from(regions))
        pairs = draw(st.lists(pair, min_size=1, max_size=5))
        orth = [list(p) for p in (_down_closed(L, pairs) if draw(st.booleans()) else pairs)]
    labels = [f"{p}@[{i},{i}]" for i in range(1, L + 1) for p in "XZ"]
    drop = tuple(draw(st.lists(st.sampled_from(labels), max_size=3, unique=True)))
    extra = draw(st.sampled_from([None, "collapse"] if kind == "bits" else [None, "cz", "images"]))
    action = draw(st.sampled_from(["reflection", "trivial", "skew"]))
    if action == "skew":
        from sectorfact.fixtures import interval_reflection_action

        cat = interval_category(L)
        r = interval_reflection_action(cat, L).action["r"]
        a = draw(st.sampled_from(sorted(cat.morphisms)))
        into = sorted(m.id for m in cat.into(r.apply_obj(cat.morphisms[a].tgt)))
        action = ("skew", a, draw(st.sampled_from(into)))
    bound = draw(st.sampled_from([1, 2, 3] if L == 3 else [1, 2]))
    return (kind, L, orth, drop, extra, action), bound


@settings(max_examples=100, deadline=None)
@given(equivariant_cases())
def test_equivariant_proof_matches_the_full_walk(case_and_bound):
    case, bound = case_and_bound
    want = _equivariant_outcome(reference_validate_equivariant_algebra, case, bound)
    assert _equivariant_outcome(validate_equivariant_algebra, case, bound) == want


_OVERLAP3 = [["[1,2]", "[2,3]"]]
_EQUIVARIANT_PINS = {
    # the proof runs: clean category, every carrier summarized
    "qubit4-b2": (("qubit", 4, "disjoint", (), None, "reflection"), 2),
    "qubit3-down-closed-overlap-b3": (
        ("qubit", 3, [list(p) for p in _down_closed(3, _OVERLAP3)],
         ("X@[2,2]", "Z@[2,2]"), None, "reflection"), 3),
    "bits4-trivial-b2": (("bits", 4, "disjoint", (), None, "trivial"), 2),
    # walked although the category is clean: A([1,1]) does not lie in the
    # diagonal A([1,2]), which is orthogonal to it, so Z@[1,1] is localized
    # at [1,1] and its inclusion in [1,2] is not localized there
    "mixed2-not-a-functor-b1": (
        ("mixed", 2, [list(p) for p in _down_closed(2, [("[1,1]", "[1,2]")])],
         ("X@[1,1]", "X@[2,2]", "Z@[2,2]"), None, "reflection"), 1),
    # walked: no summary, a dirty category, an arrow image off the object map
    "qubit4-cz-b2": (("qubit", 4, "disjoint", (), "cz", "reflection"), 2),
    "bits4-collapse-b2": (("bits", 4, "disjoint", (), "collapse", "reflection"), 2),
    "overlap3-b3": (("qubit", 3, _OVERLAP3, (), None, "reflection"), 3),
    "qubit3-skew-b2": (("qubit", 3, "disjoint", (), None, ("skew", "[1,1]<=[1,2]", "[2,2]<=[2,3]")), 2),
}


@pytest.mark.parametrize("name", sorted(_EQUIVARIANT_PINS))
def test_equivariant_proof_matches_the_full_walk_on_pinned_cases(name):
    case, bound = _EQUIVARIANT_PINS[name]
    want = _equivariant_outcome(reference_validate_equivariant_algebra, case, bound)
    assert _equivariant_outcome(validate_equivariant_algebra, case, bound) == want
    if name == "overlap3-b3":
        assert want == ("PreconditionError", "transformed sector is not localized in [1,2]")
    if name == "mixed2-not-a-functor-b1":
        assert want == ("PreconditionError", "transformed sector is not localized in [1,2]")
    if name == "qubit3-skew-b2":
        assert want[0] == "PreconditionError"


@pytest.mark.parametrize(
    "name, walks",
    [("qubit4-b2", False), ("qubit3-down-closed-overlap-b3", False), ("bits4-trivial-b2", False),
     ("qubit4-cz-b2", True)],
)
def test_equivariant_proof_evaluates_no_structure_map(name, walks):
    # where the naturality square is proved, the unit and cocycle walks
    # evaluate no structure map and nothing else does; CZ has no summary
    case, bound = _EQUIVARIANT_PINS[name]
    cat, assign, action = _equivariant_case(*case)
    walked = []
    logged = dataclasses.replace(assign, base=_logged(assign.base, walked))
    assert validate_equivariant_algebra(cat, logged, action, bound=bound).ok
    assert bool(walked) == walks


def test_non_intertwining_iso_detected_with_the_sector_iso_summary(net2):
    # the corruption of test_non_intertwining_iso_detected with the sector
    # model's iso_summary declared: the images of X disagree with it, so the
    # naturality square is walked and both laws are witnessed
    from sectorfact.fixtures import qubit_reflection_data
    from sectorfact.sectors import g_act_sector, sector_equivariant_assignment

    data = qubit_reflection_data(net2)
    family = standard_sector_family(net2)

    def bad_iso(g, u):
        def run(rho):
            moved = g_act_sector(g, rho, data)
            if g != "e" and rho.label.startswith("X"):
                letters = "Z" * len(net2.region_sites[moved.region])
                return pauli_sector(net2, letters, moved.region)
            return moved

        return run

    def build():
        sectors = sector_equivariant_assignment(net2, data, family)
        assert sectors.iso_summary is not None
        return dataclasses.replace(sectors, iso=bad_iso, name="bad")

    want = reference_validate_equivariant_algebra(net2.category, build(), data.action, bound=1)
    got = validate_equivariant_algebra(net2.category, build(), data.action, bound=1)
    assert dump_json(got.to_dict()) == dump_json(want.to_dict())
    assert {v.axiom for v in got.violations} == {"iso-cocycle", "iso-naturality"}


# -- moved operations proved from the functor check ---------------------------------------


def _marked_qubit3(orth, name):
    from sectorfact.fixtures import net_from_json, net_to_json

    doc = net_to_json(qubit_net(3, name=name))
    doc["orth"] = orth
    return net_from_json(doc)


def _skew4():
    """qubit4 with region [2,3] on sites {1, 3}: a clean category and a
    net, but the reflection sends [2,2] <= [2,3] to no arrow."""
    from sectorfact.fixtures import net_from_json, net_to_json

    doc = net_to_json(qubit_net(4, name="skew4"))
    next(r for r in doc["regions"] if r["id"] == "[2,3]")["sites"] = [1, 3]
    return net_from_json(doc)


_MOVED_NETS = {
    **{f"qubit{L}": (lambda L=L: qubit_net(L)) for L in (2, 3, 4, 5)},
    "bits4": lambda: diagonal_net(4),
    # [1,1] is orthogonal to [2,3], but [3,3] is not to [1,2]
    "oneway3": lambda: _marked_qubit3([["[1,1]", "[2,3]"]], "oneway3"),
    "skew4": _skew4,
}


def _reflection_case(name):
    from sectorfact.fixtures import qubit_reflection_data
    from sectorfact.sectors import sector_equivariant_assignment

    net = _MOVED_NETS[name]()
    data = qubit_reflection_data(net)
    return net.category, sector_equivariant_assignment(net, data, standard_sector_family(net)), data.action


def _count_moved_operations(monkeypatch):
    calls = {"enumerate_all_operations": 0, "make_operation": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(operad_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(operad_module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(_MOVED_NETS))
def test_moved_operations_proof_matches_the_full_walk(name, monkeypatch):
    want = dump_json(reference_validate_equivariant_algebra(*_reflection_case(name), bound=2).to_dict())
    calls = _count_moved_operations(monkeypatch)
    got = dump_json(validate_equivariant_algebra(*_reflection_case(name), bound=2).to_dict())
    assert got == want
    if name in ("oneway3", "skew4"):
        # no orthogonal functor: every moved operation is built
        assert '"axiom": "action-operation"' in got
        assert calls["enumerate_all_operations"] == 1 and calls["make_operation"] > 0
    else:
        assert '"ok": true' in got
        assert calls == {"enumerate_all_operations": 0, "make_operation": 0}


def test_equivariant_algebra_cli_on_qubit6_builds_no_operation(tmp_path, monkeypatch):
    from sectorfact.cli import main
    from sectorfact.fixtures import net_to_json

    path = tmp_path / "qubit6.json"
    path.write_text(dump_json(net_to_json(qubit_net(6))))
    calls = _count_moved_operations(monkeypatch)
    argv = ["operad", "algebra", "--net", str(path), "--bound", "2", "--equivariant"]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert calls == {"enumerate_all_operations": 0, "make_operation": 0}


def test_a_functor_violation_keeps_the_moved_operations_walked(monkeypatch):
    # corruption probe: with the functor check skipped, skew4's moved
    # operations are proved and its action-operation witnesses are lost
    from sectorfact.orthcat import OrthFunctor

    want = validate_equivariant_algebra(*_reflection_case("skew4"), bound=2)
    monkeypatch.setattr(OrthFunctor, "violations", lambda self: [])
    got = validate_equivariant_algebra(*_reflection_case("skew4"), bound=2)
    assert {v.axiom for v in want.violations} == {"action-operation"}
    assert got.violations == []
