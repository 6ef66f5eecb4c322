import functools
import itertools
import json
import operator
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorfact.fixtures import (
    collapse_sector,
    diagonal_net,
    pauli_sector,
    poset_orth_category,
    qubit_net,
    qubit_reflection_data,
    standard_sector_family,
)
from dense_oracle import (
    collapse_sector_from_images,
    entangler_unitary,
    m_n_tableau,
    pauli_unitary,
    reflection_unitaries,
    reflection_unitary,
    scalar_multiple_of_identity,
    solve_intertwiner,
)
import sectorfact.cli as cli_module
import sectorfact.fixtures as fixtures_module
import sectorfact.linalg as linalg_module
import sectorfact.posets as posets_module
import sectorfact.sectors as sectors_module
from sectorfact.linalg import (
    GMat,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    _StringMap,
    _chase,
    _extension_tableau,
    _inverse_tableau,
    _string_matrix,
    as_pauli_string,
    nullspace,
    pauli_coefficients,
    pauli_commute,
    pauli_string,
)
from sectorfact.reports import PreconditionError, SchemaError, ValidationReport, dump_json
from sectorfact.sectors import (
    Intertwiner,
    LocalizedEndo,
    MatrixAlg,
    MatrixNet,
    bicommutant,
    check_haag_duality,
    check_localized,
    check_perp_commutativity,
    check_perp_commutativity_sectors,
    check_transportable,
    commutant,
    diamond,
    diamond_mor,
    find_covariance,
    identity_sector,
    pfa_structure_map,
    sector_algebra_assignment,
    span_equal,
    validate_theorem_3_11,
)
from sectorfact.operad import enumerate_all_operations, enumerate_operations
from sectorfact.orthcat import OrthCategory


# -- commutants -------------------------------------------------------------------


def test_commutant_of_full_algebra_is_scalars():
    full = MatrixAlg.full_on_sites(2, [0, 1])
    c = commutant(full)
    assert c.dim == 1
    assert span_equal(c, MatrixAlg.pauli_span(2, [(0, 0)]))


def test_commutant_of_scalars_is_full():
    scalars = MatrixAlg.pauli_span(2, [(0, 0)])
    assert commutant(scalars).dim == 16


def test_commutant_of_middle_factor(net4):
    # A([2,3]) has dimension 16; its commutant is the outer factor, also 16
    alg = net4.algebra("[2,3]")
    assert alg.dim == 16
    c = commutant(alg)
    assert c.dim == 16
    assert span_equal(c, MatrixAlg.full_on_sites(4, [0, 3]))


def test_commutant_dense_agrees_with_mask_path():
    # dual route: the dense exact nullspace solve must reproduce the
    # symplectic mask computation on every single-qubit string algebra
    for masks in [
        [(0, 0), (1, 0)],
        [(0, 0), (0, 1)],
        [(0, 0), (1, 1)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
    ]:
        alg = MatrixAlg.pauli_span(1, masks)
        fast = commutant(alg)
        dense = reference_dense_commutant(2, alg.basis)
        assert fast.dim == len(dense)
        assert all(fast.contains(m) for m in dense)


def test_commutant_dense_agrees_two_qubits():
    alg = MatrixAlg.full_on_sites(2, [0])
    fast = commutant(alg)
    dense = reference_dense_commutant(4, alg.basis)
    assert fast.dim == len(dense) == 4
    assert all(fast.contains(m) for m in dense)


def test_bicommutant_fixtures(net4):
    for region in net4.category.objects:
        alg = net4.algebra(region)
        assert span_equal(bicommutant(alg), alg)
    diag = MatrixAlg.diagonal_on_sites(1, [0])
    assert span_equal(bicommutant(diag), diag)
    scalars = MatrixAlg.pauli_span(2, [(0, 0)])
    assert span_equal(bicommutant(scalars), scalars)


def test_bicommutant_check_detects_corrupted_commutant(monkeypatch):
    # corruption probe: a commutant that loses one row must make the
    # double-commutant check fail loudly
    import sectorfact.sectors as sectors

    real = sectors.commutant

    def corrupted(alg):
        out = real(alg)
        return MatrixAlg(out.L, [r for _, r in out.rows[:-1]], name=out.name)

    alg = MatrixAlg.full_on_sites(2, [0], name="A(0)")
    monkeypatch.setattr(sectors, "commutant", corrupted)
    with pytest.raises(PreconditionError, match="double commutant"):
        bicommutant(alg)


def test_bicommutant_check_survives_optimize():
    import os
    import subprocess
    import sys

    import sectorfact

    script = (
        "import sys\n"
        "import sectorfact.sectors as sectors\n"
        "from sectorfact.reports import PreconditionError\n"
        "assert False, 'asserts must be stripped'\n"
        "real = sectors.commutant\n"
        "def corrupted(alg):\n"
        "    out = real(alg)\n"
        "    return sectors.MatrixAlg(out.L, [r for _, r in out.rows[:-1]])\n"
        "sectors.commutant = corrupted\n"
        "try:\n"
        "    sectors.bicommutant(sectors.MatrixAlg.full_on_sites(2, [0]))\n"
        "except PreconditionError:\n"
        "    sys.exit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sectorfact.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, env=env, timeout=60
    )
    assert result.returncode == 3, result.stderr


def test_commutant_dimension_inequality(net4):
    n2 = net4.n ** 2
    for region in net4.category.objects:
        alg = net4.algebra(region)
        c = commutant(alg)
        assert alg.dim * c.dim >= n2
        # tensor factors realize equality
        assert alg.dim * c.dim == n2


def _frontier_closure(gens):
    """Reference XOR closure: grow {(0, 0)} by the generators until stable."""
    masks = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, z = frontier.pop()
        for gx, gz in gens:
            m = (x ^ gx, z ^ gz)
            if m not in masks:
                masks.add(m)
                frontier.append(m)
    return masks


def _random_mask_subgroup(rng, L):
    return _frontier_closure(
        [(rng.randrange(1 << L), rng.randrange(1 << L)) for _ in range(rng.randint(1, 3))]
    )


def test_random_string_algebras_double_commutant():
    # property over random XOR-subgroups: bicommutant returns the algebra,
    # and dimensions satisfy dim S * dim S' >= n^2
    import random as _random

    rng = _random.Random(31415)
    for L in (2, 3):
        for _ in range(25):
            alg = MatrixAlg.pauli_span(L, _random_mask_subgroup(rng, L))
            c = commutant(alg)
            assert span_equal(bicommutant(alg), alg)
            assert alg.dim * c.dim >= (1 << L) ** 2


# -- Haag duality -----------------------------------------------------------------------


def test_haag_duality_middle_interval(net4):
    report = check_haag_duality(net4, "[2,3]")
    assert report["holds"]
    assert report["lhs_dim"] == report["rhs_dim"] == 16


def test_haag_duality_single_site(net4):
    report = check_haag_duality(net4, "[2,2]")
    assert report["holds"]


def test_haag_duality_all_eligible(net4):
    for region in net4.category.objects:
        report = check_haag_duality(net4, region)
        if net4.orth_partners(region):
            assert report["holds"], region
        else:
            assert not report["holds"]
            assert report["assumption_failure"] == "orthocomplement"


def test_haag_fails_for_diagonal_override():
    cat_net = qubit_net(4)
    overrides = {"[2,3]": MatrixAlg.diagonal_on_sites(4, [1, 2], name="D([2,3])")}
    crippled = MatrixNet(
        category=cat_net.category,
        sites=4,
        region_sites=cat_net.region_sites,
        overrides=overrides,
        name="crippled",
    )
    report = check_haag_duality(crippled, "[2,3]")
    assert not report["holds"]
    assert report["lhs_dim"] != report["rhs_dim"]


# -- perp commutativity --------------------------------------------------------------------


def test_perp_commutativity_holds(net4):
    assert check_perp_commutativity(net4).ok


def test_perp_commutativity_violation_witnessed():
    # declare overlapping intervals orthogonal: sharing site 2 breaks it
    from sectorfact.fixtures import interval_regions, poset_orth_category

    regions = {
        u: frozenset(s - 1 for s in cells)
        for u, cells in interval_regions(3).items()
    }
    bad_cat = poset_orth_category(
        "bad", regions, lambda s1, s2: len(s1 & s2) <= 1
    )
    net = MatrixNet(category=bad_cat, sites=3, region_sites=regions, name="bad")
    report = check_perp_commutativity(net)
    assert not report.ok
    assert all(v.witness for v in report.violations)


def test_perp_commutativity_vacuous_without_orth():
    from sectorfact.fixtures import interval_regions, poset_orth_category

    regions = {
        u: frozenset(s - 1 for s in cells)
        for u, cells in interval_regions(2).items()
    }
    cat = poset_orth_category("noorth", regions, lambda s1, s2: False)
    net = MatrixNet(category=cat, sites=2, region_sites=regions, name="noorth")
    assert check_perp_commutativity(net).ok


def reference_check_perp_commutativity(net):
    """Every mask pair of every orthogonal pair of algebras, in mask order:
    the oracle of the generator test in `check_perp_commutativity`."""
    report = ValidationReport(check="perp-commutativity", subject=net.name)
    seen = set()
    for f1, f2 in sorted(net.category.orth):
        m1, m2 = net.category.morphisms[f1], net.category.morphisms[f2]
        key = (m1.src, m2.src)
        if key in seen or (key[1], key[0]) in seen:
            continue
        seen.add(key)
        p2 = sorted(net.algebra(m2.src).masks())
        for x1, z1 in sorted(net.algebra(m1.src).masks()):
            for x2, z2 in p2:
                if not pauli_commute(x1, z1, x2, z2):
                    report.add(
                        "perp-commutation",
                        {"regions": [m1.src, m2.src], "witness": [[x1, z1], [x2, z2]]},
                    )
    return report


def _assert_perp_matches_reference(net):
    fast = check_perp_commutativity(net)
    assert dump_json(fast.to_dict()) == dump_json(reference_check_perp_commutativity(net).to_dict())
    return fast


def test_perp_commutativity_matches_reference_on_x_next_to_z():
    # X-type strings on sites 0 and 1 at [1,1], Z-type on site 1 at [2,2]:
    # the two disjoint regions' algebras anticommute at site 1
    base = qubit_net(3, name="xz3")
    overrides = {
        "[1,1]": MatrixAlg(3, [0b100 << 3, 0b010 << 3], name="X01"),
        "[2,2]": MatrixAlg(3, [0b010], name="Z1"),
    }
    net = MatrixNet(base.category, 3, base.region_sites, overrides=overrides, name="xz3")
    report = _assert_perp_matches_reference(net)
    assert not report.ok
    regions = {tuple(v.witness["regions"]) for v in report.violations}
    assert regions == {("[1,1]", "[2,2]"), ("[1,1]", "[2,3]")}
    for good in (qubit_net(4), diagonal_net(4), _x_type_net()):
        assert _assert_perp_matches_reference(good).ok


_PERP_BASES = {L: qubit_net(L) for L in (2, 3, 4)}


@st.composite
def overridden_nets(draw):
    """qubit_net(L) with a random span of up to three strings put at some
    of its regions, whatever their sites, and up to four orth pairs dropped
    one way."""
    L = draw(st.integers(2, 4))
    base = _PERP_BASES[L]
    mask = st.integers(0, (1 << (2 * L)) - 1)
    regions = draw(st.lists(st.sampled_from(sorted(base.category.objects)), max_size=3))
    overrides = {u: MatrixAlg(L, draw(st.lists(mask, max_size=3)), name=u) for u in regions}
    cat = base.category
    drops = draw(st.sets(st.sampled_from(sorted(cat.orth)), max_size=4))
    if drops:
        cat = OrthCategory(cat.objects, cat.morphisms.values(), cat.compose_table,
                           cat.identities, cat.orth - drops, name=cat.name)
    return MatrixNet(cat, L, base.region_sites, overrides=overrides, name="rand")


@settings(max_examples=60, deadline=None)
@given(overridden_nets())
def test_perp_commutativity_matches_reference_on_random_overrides(net):
    _assert_perp_matches_reference(net)


def reference_joint_commutant(net, region):
    """The right side of Haag duality from every partner's rows, repeats
    and all."""
    rows = [r for u in net.orth_partners(region) for _, r in net.algebra(u).rows]
    return sectors_module._commutant_of(net.sites, rows, "ref")


@settings(max_examples=40, deadline=None)
@given(overridden_nets())
def test_haag_reads_each_row_once_to_the_same_commutant(net):
    for u in net.category.objects:
        report = check_haag_duality(net, u)
        if net.orth_partners(u):
            ref = reference_joint_commutant(net, u)
            assert report["rhs_dim"] == ref.dim
            assert report["holds"] == span_equal(net.algebra(u), ref)


class _UnwalkableOrth(frozenset):
    """An orth relation that answers membership but cannot be walked."""

    def __iter__(self):
        raise AssertionError("the orth relation was walked")


def _no_table(*args):
    raise AssertionError("a category table was built")


def test_perp_and_haag_read_the_index_not_the_relation(monkeypatch):
    """On a table category the net reads the partner index, not `orth`; on
    the thin category of a net no table is built.  The reports agree."""
    net = qubit_net(8)
    table_net = MatrixNet(net.category.table, net.sites, net.region_sites, name=net.name)
    expected = [check_haag_duality(table_net, u) for u in net.category.objects]
    perp = check_perp_commutativity(table_net).to_dict()
    table_net.category.orth = _UnwalkableOrth(table_net.category.orth)
    with pytest.raises(AssertionError):
        sorted(table_net.category.orth)
    assert check_perp_commutativity(table_net).to_dict() == perp
    assert [check_haag_duality(table_net, u) for u in net.category.objects] == expected
    net = qubit_net(8)
    monkeypatch.setattr(posets_module, "_poset_table", _no_table)
    assert check_perp_commutativity(net).to_dict() == perp
    assert [check_haag_duality(net, u) for u in net.category.objects] == expected


def test_net_commands_build_no_table(monkeypatch, tmp_path, capsys):
    """theorem311, the equivariant algebra and the other net commands on a
    chain read the order and the predicate alone: neither `compose_table`
    nor the full `orth` set is built."""
    path = tmp_path / "q6.json"
    path.write_text(json.dumps(fixtures_module.net_to_json(qubit_net(6))))
    monkeypatch.setattr(posets_module, "_poset_table", _no_table)
    for args in (["sectors", "theorem311", "--bound", "3"], ["sectors", "haag"],
                 ["sectors", "perp"], ["sectors", "diamond"], ["sectors", "equivariance"],
                 ["operad", "algebra", "--bound", "2", "--equivariant"]):
        assert cli_module.main(args + ["--net", str(path)]) == 0, args
    capsys.readouterr()
    net = qubit_net(6)
    assert validate_theorem_3_11(net, standard_sector_family(net), bound=3).ok


def test_each_net_command_validates_the_net_once(monkeypatch, tmp_path, capsys):
    """The net-structure check walks the net once per command: the report
    is kept, and the equivariant algebra's clean-category guard reads it."""
    doc = fixtures_module.net_to_json(qubit_net(3))
    assert isinstance(fixtures_module.net_from_json(doc).category, posets_module.PosetCategory)
    path = tmp_path / "q3.json"
    path.write_text(json.dumps(doc))
    walks = []
    walk = posets_module.PosetCategory.generating_arrows
    monkeypatch.setattr(posets_module.PosetCategory, "generating_arrows",
                        lambda cat: walks.append(cat) or walk(cat))
    for args in (["operad", "algebra", "--bound", "2", "--equivariant"],
                 ["operad", "algebra", "--bound", "2"], ["sectors", "theorem311"],
                 ["sectors", "haag"], ["sectors", "equivariance"]):
        walks.clear()
        assert cli_module.main(args + ["--net", str(path)]) == 0, args
        assert len(walks) == 1, args
    capsys.readouterr()


# -- localization ------------------------------------------------------------------------------


def test_localized_inner_sector(net4):
    rho = pauli_sector(net4, "XZ", "[1,2]")
    assert check_localized(rho, net4).ok


def test_entangler_not_localized(net4):
    rho = LocalizedEndo(net4, "[1,1]", unitary=entangler_unitary(net4, 0, 3), label="CZ")
    report = check_localized(rho, net4)
    assert not report.ok
    assert report.violations[0].witness["orthogonal_region"]


def test_identity_localized_anywhere(net4):
    for region in net4.category.objects:
        assert check_localized(identity_sector(net4, region), net4).ok


def reference_check_localized(rho, net):
    """Every basis matrix of every orthogonal algebra mapped by `apply`: the
    oracle of the generator test and the mask walk of `check_localized`."""
    report = ValidationReport(check="localized", subject=rho.label)
    for u in net.orth_partners(rho.region):
        for i, a in enumerate(net.algebra(u).basis):
            if rho.apply(a) != a:
                report.add(
                    "strict-localization",
                    {"region": rho.region, "orthogonal_region": u, "basis_index": i},
                )
    return report


def _skew4():
    # region [2,3] moved to sites {1,3}: the reflection no longer maps the
    # net onto itself, so some transformed sectors are not localized
    from sectorfact.fixtures import net_from_json, net_to_json

    doc = net_to_json(qubit_net(4, name="skew4"))
    for region in doc["regions"]:
        if region["id"] == "[2,3]":
            region["sites"] = [1, 3]
    return net_from_json(doc)


@pytest.fixture(scope="module")
def localization_cases():
    """(net, sector) for every sector of `_wrong_site_family`, a CZ on sites
    0 and 3 filed at [1,1], the reset sector on bits4, and every sector
    `g_act_sector` checks when it transforms them, on qubit4, skew4 and
    bits4."""
    cases = []
    real = sectors_module.check_localized

    def record(rho, net):
        cases.append((net, rho))
        return real(rho, net)

    for net in (qubit_net(4), _skew4(), diagonal_net(4)):
        data = qubit_reflection_data(net)
        sectors = [rho for family in _wrong_site_family(net).values() for rho in family]
        sectors.append(
            LocalizedEndo(net, "[1,1]", unitary=entangler_unitary(net, 0, 3), label="CZ")
        )
        if net.overrides:
            sectors.append(collapse_sector(net))
        for rho in sectors:
            cases.append((net, rho))
            with mock.patch.object(sectors_module, "check_localized", record):
                for g in data.action.group.elements:
                    try:
                        sectors_module.g_act_sector(g, rho, data)
                    except PreconditionError:
                        pass
    return cases


def _localization_reports(check, cases):
    return [dump_json(check(rho, net).to_dict()) for net, rho in cases]


def _is_pauli_conjugation(rho):
    # a tableau that fixes every mask
    return sectors_module._sector_summary(rho.region, rho) is not None


def test_check_localized_matches_the_matrix_loop(localization_cases):
    want = _localization_reports(reference_check_localized, localization_cases)
    assert _localization_reports(check_localized, localization_cases) == want
    failing = [
        rho for (_, rho), report in zip(localization_cases, want) if '"basis_index"' in report
    ]
    # Pauli conjugations and other maps fail, Pauli ones at several indices
    pauli = [_is_pauli_conjugation(rho) for rho in failing]
    assert not all(pauli) and sum(pauli) >= 4


def test_check_localized_probes(monkeypatch, localization_cases):
    want = _localization_reports(reference_check_localized, localization_cases)
    with monkeypatch.context() as m:
        # the masks in set order, not in the order of `basis`
        m.setattr(sectors_module, "sorted", lambda xs: list(xs), raising=False)
        assert _localization_reports(check_localized, localization_cases) != want
    with monkeypatch.context() as m:
        # a generator test that passes every algebra
        m.setattr(sectors_module, "all", lambda checks: True, raising=False)
        assert _localization_reports(check_localized, localization_cases) != want


# -- transport ----------------------------------------------------------------------------------


def test_transport_single_site(net4):
    rho = pauli_sector(net4, "X", "[1,1]")
    report = check_transportable(rho, "[3,3]", net4)
    assert report.found and report.transporter_label == "translated-pattern"
    # v = u' u* for the same pattern at the target site, so Ad v after rho
    # is Ad u'
    v = pauli_string(4, 0b0010, 0) @ pauli_string(4, 0b1000, 0).adjoint()
    assert reference_ad_equal(net4, pauli_unitary(report.transported), v @ pauli_string(4, 0b1000, 0))
    assert report.transported.same_map(pauli_sector(net4, "X", "[3,3]"))
    assert report.transported.region == "[3,3]"
    assert check_localized(report.transported, net4).ok


def test_transport_identity(net4):
    report = check_transportable(identity_sector(net4, "[1,1]"), "[4,4]", net4)
    assert report.found
    assert report.transporter_label == "identity"


def test_transport_not_found(net4):
    # an entangler admits no transporter within the searched family
    rho = LocalizedEndo(net4, "[1,2]", unitary=entangler_unitary(net4, 0, 1), label="CZ12")
    report = check_transportable(rho, "[3,4]", net4)
    assert not report.found and report.transporter_label is None
    # CZ is no Pauli conjugation, so only the identity was tried
    assert rho.pauli_mask() is None
    assert report.to_dict() == {
        "check": "transport", "found": False, "sector": "CZ12", "target": "[3,4]", "transporter": None
    }


def _rotation_on_site(net, site):
    """[[3/5, -4/5], [4/5, 3/5]] on one site: unitary, and Ad of it sends
    Z to -7/25 Z + 24/25 X, no signed string."""
    r = GMat.from_rows([[GaussianRational.of(F(3, 5)), GaussianRational.of(F(-4, 5))],
                        [GaussianRational.of(F(4, 5)), GaussianRational.of(F(3, 5))]])
    out = GMat.identity(1)
    for s in range(net.sites):
        out = out.tensor(r if s == site else GMat.identity(2))
    return out


# -- the sector product ---------------------------------------------------------------------------


def test_diamond_unit_laws(net4):
    rho = pauli_sector(net4, "X", "[1,1]")
    one = identity_sector(net4, "[1,1]")
    assert diamond(rho, one).same_map(rho)
    assert diamond(one, rho).same_map(rho)


def test_diamond_inner_product(net4):
    # Ad_u diamond Ad_w = Ad_{uw} verified on every global basis element
    rho = pauli_sector(net4, "X", "[1,1]")
    sig = pauli_sector(net4, "Z", "[1,1]")
    prod = diamond(rho, sig)
    uw = pauli_unitary(rho) @ pauli_unitary(sig)
    for a in net4.global_algebra().basis:
        assert prod.apply(a) == uw @ a @ uw.adjoint()


def test_diamond_associativity_instance(net4):
    r1 = pauli_sector(net4, "X", "[2,2]")
    r2 = pauli_sector(net4, "Z", "[2,2]")
    r3 = pauli_sector(net4, "Y", "[2,2]")
    assert diamond(diamond(r1, r2), r3).same_map(diamond(r1, diamond(r2, r3)))


def test_diamond_region_bookkeeping(net4):
    r1 = pauli_sector(net4, "X", "[1,1]")
    r2 = pauli_sector(net4, "X", "[3,3]")
    with pytest.raises(PreconditionError):
        diamond(r1, r2)  # no common region supplied
    out = diamond(r1, r2, region="[1,3]")
    assert out.region == "[1,3]"
    with pytest.raises(PreconditionError):
        diamond(r1, r2, region="[1,2]")  # does not contain [3,3]


# -- intertwiners ------------------------------------------------------------------------------------


def intertwiner_between(net, a, b):
    """The canonical intertwiner w u* between inner sectors at one region."""
    return Intertwiner(a, b, pauli_unitary(b) @ pauli_unitary(a).adjoint())


def test_intertwiner_membership_enforced(net4):
    rho = pauli_sector(net4, "X", "[1,1]")
    sig = pauli_sector(net4, "Z", "[1,1]")
    t = intertwiner_between(net4, rho, sig)
    local = bicommutant(net4.algebra("[1,1]"))
    assert local.contains(t.matrix)
    # a matrix that intertwines but is declared at the wrong regions fails:
    # X at site 3 intertwines X@[3,3] with itself but lives outside A([1,1])
    far = pauli_sector(net4, "X", "[3,3]")
    with pytest.raises(PreconditionError):
        Intertwiner(rho, rho, pauli_unitary(far))


def test_intertwiner_for_general_endomorphism(bits4):
    # the abelian reset endomorphism admits diagonal intertwiners with itself
    from sectorfact.fixtures import collapse_sector

    rho = collapse_sector(bits4)
    t = Intertwiner(rho, rho, pauli_string(4, 0, 0b1000))  # Z at site 0
    assert t.matrix @ rho.apply(pauli_string(4, 0, 0b0011)) == rho.apply(
        pauli_string(4, 0, 0b0011)
    ) @ t.matrix
    # an X-type matrix intertwines (the reset images are diagonal on other
    # sites) but lies outside the abelian local algebra of the join region
    with pytest.raises(PreconditionError):
        Intertwiner(rho, rho, pauli_string(4, 0b1000, 0))  # X at site 0


# -- dense oracles ---------------------------------------------------------------------


def reference_ad_equal(net, a, b):
    """Ad_a == Ad_b on the global algebra, for unitaries a and b: exactly
    when b* a commutes with the global algebra, that is, lies in its
    commutant.  The `GMat` oracle of tableau equality."""
    c = b.adjoint() @ a
    return scalar_multiple_of_identity(c) is not None or net.global_commutant().contains(c)


def reference_dense_commutant(n, constraints):
    """Exact nullspace basis of {X : X A = A X for every constraint A}, one
    row per matrix entry: the dense oracle of the symplectic commutant."""
    rows = []
    for a in constraints:
        for i in range(n):
            for j in range(n):
                row = [GR_ZERO] * (n * n)
                for k in range(n):
                    akj = a.data.get((k, j))
                    if akj is not None:
                        row[i * n + k] = row[i * n + k] + akj
                    aik = a.data.get((i, k))
                    if aik is not None:
                        row[k * n + j] = row[k * n + j] - aik
                if any(not v.is_zero() for v in row):
                    rows.append(row)
    basis = nullspace(rows, n * n)
    out = []
    for vec in basis:
        data = {}
        for idx, v in enumerate(vec):
            if not v.is_zero():
                data[(idx // n, idx % n)] = v
        out.append(GMat(n, data))
    return out


def reference_dense_intertwiner(n, pairs):
    """The first vector of the exact nullspace basis of {Y : L Y = Y R for
    every pair (L, R)} that is unitary up to a scalar, or None: the dense
    search `find_covariance` ran before the Pauli twirl, verbatim."""
    rows = []
    for lhs, rhs in pairs:
        for i in range(n):
            for j in range(n):
                row = [GR_ZERO] * (n * n)
                for k in range(n):
                    lik = lhs.data.get((i, k))
                    if lik is not None:
                        row[k * n + j] = row[k * n + j] + lik
                    rkj = rhs.data.get((k, j))
                    if rkj is not None:
                        row[i * n + k] = row[i * n + k] - rkj
                if any(not v.is_zero() for v in row):
                    rows.append(row)
    basis = nullspace(rows, n * n)
    for vec in basis:
        y = GMat(n, {(k // n, k % n): v for k, v in enumerate(vec) if not v.is_zero()})
        prod = scalar_multiple_of_identity(y @ y.adjoint())
        if prod is not None and not prod.is_zero():
            return y
    return None


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_UNITS = [GR_ONE, GaussianRational.of(0, 1), -GR_ONE, GaussianRational.of(0, -1)]


def gmats(n):
    return st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.builds(GaussianRational, _small, _small),
        max_size=n * n,
    ).map(lambda data: GMat(n, data))


# -- Pauli expansion: membership without a dense engine -------------------------------


def scaled_strings(L):
    n = 1 << L
    return st.builds(
        pauli_string,
        st.just(L),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.builds(GaussianRational, _small, _small),
    )


# CZ and the site reflection: monomial unitaries that are not strings
NON_STRING_UNITARIES = [
    entangler_unitary(qubit_net(2), 0, 1),
    reflection_unitary(2),
    entangler_unitary(qubit_net(3), 0, 2),
    reflection_unitary(3),
]
EXPANDED = st.one_of(
    st.sampled_from([0, 1, 2]).flatmap(lambda L: gmats(1 << L)),
    st.sampled_from([0, 1, 2]).flatmap(scaled_strings),
    st.sampled_from(NON_STRING_UNITARIES),
)


@settings(max_examples=150, deadline=None)
@given(EXPANDED)
def test_pauli_coefficients_are_the_hs_projections(m):
    n = m.n
    L = n.bit_length() - 1
    want = {}
    for x in range(n):
        for z in range(n):
            c = pauli_string(L, x, z).hs_inner(m) / GaussianRational.of(n)
            if not c.is_zero():
                want[(x, z)] = c
    coeffs = pauli_coefficients(m)
    assert coeffs == want
    total = GMat.zero(n)
    for (x, z), c in coeffs.items():
        total = total + pauli_string(L, x, z, c)
    assert total == m


@st.composite
def algebra_and_matrix(draw):
    L = draw(st.integers(1, 2))
    n = 1 << L
    masks = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    alg = MatrixAlg.pauli_span(L, _frontier_closure(draw(st.lists(masks, max_size=3))))
    # a combination of the algebra's strings, sometimes plus anything
    m = GMat.zero(n)
    for x, z in draw(st.lists(st.sampled_from(sorted(alg.masks())), max_size=3)):
        m = m + pauli_string(L, x, z, draw(st.builds(GaussianRational, _small, _small)))
    if draw(st.booleans()):
        m = m + draw(st.one_of(gmats(n), scaled_strings(L)))
    return alg, m


@settings(max_examples=150, deadline=None)
@given(algebra_and_matrix())
def test_contains_matches_projection_oracle(case):
    # oracle: m lies in the algebra exactly when it equals its HS projection
    # onto the algebra's strings, which are orthogonal with squared norm N
    alg, m = case
    projection = GMat.zero(alg.n)
    for b in alg.basis:
        projection = projection + b.scale(b.hs_inner(m) / GaussianRational.of(alg.n))
    assert alg.contains(m) == (projection == m)


@settings(max_examples=100, deadline=None)
@given(algebra_and_matrix())
def test_generators_are_a_basis_of_the_mask_group(case):
    alg, _ = case
    decoded = [as_pauli_string(g) for g in alg.generators]
    assert all(c == GR_ONE for _, _, c in decoded)
    masks = [(x, z) for x, z, _ in decoded]
    assert len(masks) <= 2 * alg.L and 1 << len(masks) == alg.dim
    assert _frontier_closure(masks) == alg.masks()


def test_contains_on_the_span_of_i_and_x():
    i2, x, z = GMat.identity(2), pauli_string(1, 1, 0), pauli_string(1, 0, 1)
    alg = MatrixAlg.pauli_span(1, [(0, 0), (1, 0)])
    assert alg.dim == 2
    assert alg.contains(i2 + x.scale(GaussianRational.of(7)))
    assert alg.contains(x.scale(GR_I))
    assert not alg.contains(z)


def _assert_membership_verdicts(bits4, rho):
    ident = GMat.identity(bits4.n)
    # the reset sector is intertwined with itself by Z and by X at site 0,
    # but only Z lies in the abelian local algebra
    Intertwiner(rho, rho, pauli_string(4, 0, 0b1000))
    with pytest.raises(PreconditionError, match="leaves the local algebra"):
        Intertwiner(rho, rho, pauli_string(4, 0b1000, 0))
    # CZ lies in the diagonal commutant but is not a string
    if not reference_ad_equal(bits4, ident, entangler_unitary(bits4, 1, 2)):
        pytest.fail("CZ commutes with the diagonal global algebra")
    if bits4.global_algebra().contains(ident + pauli_string(4, 0b1000, 0)):
        pytest.fail("I + X0 is not diagonal")


def test_membership_verdicts(bits4):
    _assert_membership_verdicts(bits4, collapse_sector(bits4))


def test_membership_check_can_fail(monkeypatch, bits4):
    # corruption probe: an expansion that drops its last term must turn a
    # membership verdict
    rho = collapse_sector(bits4)
    real = sectors_module.pauli_coefficients
    monkeypatch.setattr(
        sectors_module, "pauli_coefficients", lambda m: dict(list(real(m).items())[:-1])
    )
    with pytest.raises(pytest.fail.Exception):
        _assert_membership_verdicts(bits4, rho)


def test_mask_only_net_checks_build_no_matrix():
    patches = [
        mock.patch.object(module, "pauli_string", wraps=pauli_string)
        for module in (linalg_module, sectors_module)
    ]
    built = [p.start() for p in patches]
    try:
        for net in (qubit_net(5), diagonal_net(4)):
            assert net.validate().ok
            assert check_perp_commutativity(net).ok
            for u in net.category.objects:
                check_haag_duality(net, u)
    finally:
        for p in patches:
            p.stop()
    assert [b.call_count for b in built] == [0, 0]


def test_diamond_mor_identity(net4):
    rho = pauli_sector(net4, "X", "[1,1]")
    sig = pauli_sector(net4, "X", "[2,2]")
    id1 = Intertwiner(rho, rho, GMat.identity(net4.n))
    id2 = Intertwiner(sig, sig, GMat.identity(net4.n))
    assert diamond_mor(id1, id2).matrix.is_identity()


def test_diamond_mor_interchange(net4):
    rho, rho2 = pauli_sector(net4, "X", "[1,1]"), pauli_sector(net4, "Z", "[1,1]")
    rho3 = pauli_sector(net4, "Y", "[1,1]")
    sig, sig2 = pauli_sector(net4, "X", "[2,2]"), pauli_sector(net4, "Z", "[2,2]")
    sig3 = pauli_sector(net4, "Y", "[2,2]")
    t1 = intertwiner_between(net4, rho, rho2)
    t1p = intertwiner_between(net4, rho2, rho3)
    t2 = intertwiner_between(net4, sig, sig2)
    t2p = intertwiner_between(net4, sig2, sig3)
    lhs = diamond_mor(
        Intertwiner(rho, rho3, t1p.matrix @ t1.matrix),
        Intertwiner(sig, sig3, t2p.matrix @ t2.matrix),
    ).matrix
    rhs = diamond_mor(t1p, t2p).matrix @ diamond_mor(t1, t2).matrix
    assert lhs == rhs


def test_diamond_mor_involution(net4):
    rho, rho2 = pauli_sector(net4, "X", "[1,1]"), pauli_sector(net4, "Z", "[1,1]")
    sig, sig2 = pauli_sector(net4, "X", "[2,2]"), pauli_sector(net4, "Z", "[2,2]")
    t1 = intertwiner_between(net4, rho, rho2)
    t2 = intertwiner_between(net4, sig, sig2)
    lhs = diamond_mor(t1, t2).matrix.adjoint()
    t1s = Intertwiner(rho2, rho, t1.matrix.adjoint())
    t2s = Intertwiner(sig2, sig, t2.matrix.adjoint())
    rhs = diamond_mor(t1s, t2s).matrix
    assert lhs == rhs


# -- perp commutativity of sectors -----------------------------------------------------------------------


def test_sector_commutativity_disjoint(net4):
    rho1 = pauli_sector(net4, "X", "[1,1]")
    rho2 = pauli_sector(net4, "X", "[3,3]")
    t1 = intertwiner_between(net4, rho1, pauli_sector(net4, "Z", "[1,1]"))
    t2 = intertwiner_between(net4, rho2, pauli_sector(net4, "Z", "[3,3]"))
    report = check_perp_commutativity_sectors(rho1, rho2, t1, t2, net4)
    assert report.ok


def test_sector_commutativity_same_region_rejected(net4):
    rho1 = pauli_sector(net4, "X", "[1,1]")
    rho2 = pauli_sector(net4, "Z", "[1,1]")
    with pytest.raises(PreconditionError):
        check_perp_commutativity_sectors(rho1, rho2, None, None, net4)


# -- structure maps ----------------------------------------------------------------------------------------


def test_structure_map_arities(net4):
    op0 = enumerate_operations(net4.category, [], "[1,3]")[0]
    out0 = pfa_structure_map(op0, (), net4)
    assert out0.same_map(identity_sector(net4, "[1,3]"))

    op1 = enumerate_operations(net4.category, ["[1,1]"], "[1,3]")[0]
    rho = pauli_sector(net4, "X", "[1,1]")
    out1 = pfa_structure_map(op1, (rho,), net4)
    assert out1.region == "[1,3]"
    assert out1.same_map(rho)

    op2 = enumerate_operations(net4.category, ["[1,1]", "[3,3]"], "[1,3]")[0]
    sig = pauli_sector(net4, "Z", "[3,3]")
    both = pfa_structure_map(op2, (rho, sig), net4)
    swapped = pfa_structure_map(
        enumerate_operations(net4.category, ["[3,3]", "[1,1]"], "[1,3]")[0],
        (sig, rho),
        net4,
    )
    assert both.same_map(swapped)  # Eckmann-Hilton consistency at arity 2


def test_structure_map_localization_mismatch(net4):
    op = enumerate_operations(net4.category, ["[1,1]"], "[1,3]")[0]
    rho = pauli_sector(net4, "X", "[2,2]")
    with pytest.raises(PreconditionError):
        pfa_structure_map(op, (rho,), net4)


def test_theorem_validation_rejects_nonlocalized(net4, family4):
    bad = dict(family4)
    bad["[1,1]"] = family4["[1,1]"] + [
        LocalizedEndo(net4, "[1,1]", unitary=entangler_unitary(net4, 0, 3), label="CZ")
    ]
    report = validate_theorem_3_11(net4, bad, bound=1)
    assert not report.ok
    assert report.violations[0].axiom == "localization-precheck"


def test_theorem_validation_empty_family(net4):
    report = validate_theorem_3_11(net4, {}, bound=1)
    assert report.ok


def test_net_structure_valid(net4, bits4):
    assert net4.validate().ok
    assert bits4.validate().ok


def test_net_json_round_trip(net4, bits4):
    from sectorfact.fixtures import net_from_json, net_to_json, poset_orth_category
    from sectorfact.orthcat import validate_category

    q3 = qubit_net(3)

    def q3_with(alg):
        return MatrixNet(q3.category, 3, q3.region_sites, {"[1,1]": alg}, name="q3")

    no_orth_doc = net_to_json(qubit_net(2))
    no_orth_doc["orth"] = []
    no_orth = net_from_json(no_orth_doc)
    assert not no_orth.category.orth
    # a and c are disjoint but not marked
    pair_only = net_from_json({
        "name": "pairnet",
        "sites": 3,
        "regions": [
            {"id": "a", "sites": [0]},
            {"id": "b", "sites": [1]},
            {"id": "c", "sites": [2]},
            {"id": "abc", "sites": [0, 1, 2]},
        ],
        "orth": [["a", "b"]],
    })
    full_override = q3_with(MatrixAlg.full_on_sites(3, [0]))
    for net in (net4, bits4, full_override, no_orth, pair_only):
        doc = net_to_json(net)
        again = net_from_json(doc)
        assert again.sites == net.sites
        assert again.region_sites == net.region_sites
        assert again.category.orth == net.category.orth
        assert validate_category(again.category).ok
        for u in net.category.objects:
            assert span_equal(again.algebra(u), net.algebra(u))
    assert net_to_json(no_orth)["orth"] == [] and net_to_json(pair_only)["orth"] == [["a", "b"]]
    # arrow a2<=t sorts before a<=t, so the index orients the pair (a2, a);
    # the document writes it sorted
    a2_doc = {"name": "a2", "sites": 3, "orth": [["a2", "a"]], "regions": [
        {"id": u, "sites": s} for u, s in (("a", [0]), ("a2", [1]), ("c", [2]), ("t", [0, 1, 2]))]}
    assert net_from_json(a2_doc).category.source_pairs() == [("a2", "a")]
    assert net_to_json(net_from_json(a2_doc))["orth"] == [["a", "a2"]]
    # an X-only algebra is neither "full" nor "diagonal"
    with pytest.raises(SchemaError, match="neither full nor diagonal"):
        net_to_json(q3_with(MatrixAlg.pauli_span(3, [(0, 0), (4, 0)])))
    # orthogonality that depends on the target is no set of region pairs
    regions = {"a": frozenset({0}), "b": frozenset({1}), "ab": frozenset({0, 1}),
               "abc": frozenset({0, 1, 2})}
    narrow = poset_orth_category("narrow", regions, lambda s1, s2: False, lambda tgt: len(tgt) == 2)
    with pytest.raises(SchemaError, match="orthogonality"):
        net_to_json(MatrixNet(narrow, 3, regions))


def test_net_json_explicit_orth():
    from sectorfact.fixtures import net_from_json

    doc = {
        "name": "pairnet",
        "sites": 2,
        "local_dim": 2,
        "regions": [
            {"id": "a", "sites": [0]},
            {"id": "b", "sites": [1]},
            {"id": "ab", "sites": [0, 1]},
        ],
        "orth": [["a", "b"]],
    }
    net = net_from_json(doc)
    assert net.orth_partners("b") == ["a"]
    assert check_perp_commutativity(net).ok


def test_net_json_schema_errors():
    from sectorfact.fixtures import net_from_json
    from sectorfact.reports import SchemaError

    with pytest.raises(SchemaError):
        net_from_json({"sites": 2, "regions": [{"id": "a", "sites": [5]}]})
    with pytest.raises(SchemaError):
        net_from_json({"sites": 2, "regions": [{"id": "a", "sites": [0], "algebra": "weird"}]})
    with pytest.raises(SchemaError):
        net_from_json({"sites": 2, "local_dim": 3, "regions": [{"id": "a", "sites": [0]}]})


# -- mask closure -----------------------------------------------------------------------


def _letter_product_masks(L, sites):
    """Pre-GF(2) enumeration of ``full_on_sites`` masks, kept as the oracle."""
    sites = sorted(sites)
    masks = []
    for letters in itertools.product(range(4), repeat=len(sites)):
        x = z = 0
        for site, letter in zip(sites, letters):
            shift = L - 1 - site
            if letter in (1, 3):
                x |= 1 << shift
            if letter in (2, 3):
                z |= 1 << shift
        masks.append((x, z))
    return masks


def _bit_product_masks(L, sites):
    """Pre-GF(2) enumeration of ``diagonal_on_sites`` masks, kept as the oracle."""
    sites = sorted(sites)
    masks = []
    for bits in itertools.product((0, 1), repeat=len(sites)):
        z = 0
        for site, b in zip(sites, bits):
            if b:
                z |= 1 << (L - 1 - site)
        masks.append((0, z))
    return masks


def test_site_algebras_match_letter_enumeration():
    for L in range(1, 5):
        for k in range(L + 1):
            for sites in itertools.combinations(range(L), k):
                full = MatrixAlg.full_on_sites(L, sites)
                diag = MatrixAlg.diagonal_on_sites(L, sites)
                assert full.masks() == set(_letter_product_masks(L, sites))
                assert diag.masks() == set(_bit_product_masks(L, sites))
                assert full.dim == 4**k and diag.dim == 2**k


def _assert_rejects_unclosed():
    not_closed = [(0, 0), (1, 0), (0, 1)]  # X and Z without Y = iXZ
    no_identity = [(1, 0), (0, 1), (1, 1)]
    with pytest.raises(SchemaError, match="span not closed under products"):
        MatrixAlg.pauli_span(1, not_closed)
    with pytest.raises(SchemaError, match="identity string missing from basis span"):
        MatrixAlg.pauli_span(1, no_identity)
    with pytest.raises(SchemaError, match="span not closed under products"):
        MatrixAlg.pauli_span(2, [(0, 0), (1, 0), (2, 0)])  # (3, 0) missing


def test_unclosed_mask_sets_are_rejected():
    _assert_rejects_unclosed()
    assert MatrixAlg.pauli_span(1, [(0, 0), (1, 0), (0, 1), (1, 1)]).dim == 4


def test_unclosed_mask_check_can_fail(monkeypatch):
    # corruption probe: a `dim` that counts the identity and the rows
    # instead of their span lets {I, X, Z} through the size test
    monkeypatch.setattr(MatrixAlg, "dim", property(lambda self: 1 + len(self.rows)))
    with pytest.raises(pytest.fail.Exception):
        _assert_rejects_unclosed()


@st.composite
def generator_pairs(draw):
    """Two generator lists on L <= 4 qubits; half the time the second spans
    the same group as the first, rewritten as prefix XORs of a shuffle."""
    L = draw(st.integers(1, 4))
    mask = st.tuples(st.integers(0, (1 << L) - 1), st.integers(0, (1 << L) - 1))
    gens = draw(st.lists(mask, max_size=6))
    if gens and draw(st.booleans()):
        shuffled = draw(st.permutations(gens))
        other = [shuffled[0]] + [
            (a[0] ^ b[0], a[1] ^ b[1]) for a, b in zip(shuffled, shuffled[1:])
        ]
    else:
        other = draw(st.lists(mask, max_size=6))
    return L, gens, other, draw(mask), draw(mask)


@settings(max_examples=150, deadline=None)
@given(generator_pairs())
def test_rows_form_matches_the_mask_set_oracle(case):
    L, gens_a, gens_b, p, q = case
    a, b = (MatrixAlg(L, [(x << L) | z for x, z in g]) for g in (gens_a, gens_b))
    set_a, set_b = _frontier_closure(gens_a), _frontier_closure(gens_b)
    assert a.masks() == set_a and a.dim == len(set_a) and b.masks() == set_b
    for x in range(1 << L):
        for z in range(1 << L):
            assert a._spans((x << L) | z) == ((x, z) in set_a)
    m = pauli_string(L, *p) + pauli_string(L, *q, GR_I)
    assert a.contains(m) == (p in set_a and q in set_a)
    assert a.contains(pauli_string(L, *p)) == (p in set_a)
    assert span_equal(a, b) == (set_a == set_b)
    # inclusion, as `MatrixNet.validate` reads it
    assert all(b._spans(r) for _, r in a.rows) == (set_a <= set_b)
    empty, full = frozenset(), frozenset(range(L))
    cat = poset_orth_category("incl", {"a": empty, "b": full}, lambda *_: False)
    net = MatrixNet(cat, L, {"a": empty, "b": full}, overrides={"a": a, "b": b})
    assert net.validate().ok == (set_a <= set_b)
    expected = {
        (x, z) for x in range(1 << L) for z in range(1 << L)
        if all(pauli_commute(x, z, gx, gz) for gx, gz in set_a)
    }
    assert commutant(a).masks() == expected


def test_checks_on_rows_build_no_mask_set(monkeypatch):
    # nothing of size 2**rank is built until `masks` or `basis` is read
    def refuse(L, vectors):
        raise AssertionError("mask set built")

    monkeypatch.setattr(sectors_module, "_mask_span", refuse)
    net = qubit_net(12)
    assert net.validate().ok and check_perp_commutativity(net).ok
    for u in ("[1,1]", "[2,11]", "[1,12]"):
        assert check_haag_duality(net, u)["holds"] is not None
    assert net.global_commutant().dim == 1 and commutant(net.algebra("[3,5]")).dim == 4 ** 9
    net6 = qubit_net(6)
    assert validate_theorem_3_11(net6, standard_sector_family(net6), bound=2).ok
    with pytest.raises(AssertionError, match="mask set built"):
        net.algebra("[1,1]").masks()


def test_algebra_lookups_built_once():
    alg = qubit_net(4).algebra("[2,3]")
    assert isinstance(alg.masks(), frozenset) and alg.masks() is alg.masks()
    with mock.patch.object(sectors_module, "pauli_string", wraps=pauli_string) as built:
        assert alg.basis is alg.basis
    assert built.call_count == alg.dim == 16


def test_global_algebra_of_six_sites():
    assert qubit_net(6).global_algebra().dim == 4096


# -- the net layer: every region algebra is a string algebra ------------------------------


def test_net_rejects_override_of_wrong_size():
    base = qubit_net(2)
    wrong_size = MatrixAlg.full_on_sites(1, [0], name="one-qubit")
    with pytest.raises(SchemaError, match="acts on 1 qubits, not 2"):
        MatrixNet(
            category=base.category,
            sites=2,
            region_sites=base.region_sites,
            overrides={"[1,2]": wrong_size},
        )


def _image_sector(rho):
    """The inner sector rho rebuilt from its images of the global basis."""
    glob = rho.net.global_algebra()
    return LocalizedEndo(
        rho.net, rho.region, images=[rho.apply(a) for a in glob.basis], label=f"img-{rho.label}"
    )


def test_image_sectors_agree_with_inner_sectors(net2):
    x, z = pauli_sector(net2, "X", "[1,1]"), pauli_sector(net2, "Z", "[1,1]")
    ix, iz = _image_sector(x), _image_sector(z)
    # the tableau is all a sector holds, so an image-built Pauli sector
    # derives the same implementing string
    for inner, image, u in ((x, ix, pauli_string(2, 2, 0)), (z, iz, pauli_string(2, 0, 2))):
        assert image.same_map(inner) and inner.same_map(image)
        assert reference_ad_equal(net2, pauli_unitary(image), u)
    assert not ix.same_map(iz) and not iz.same_map(x)
    prod = diamond(ix, iz)
    assert prod.region == "[1,1]"
    assert reference_ad_equal(net2, pauli_unitary(prod), pauli_string(2, 2, 0) @ pauli_string(2, 0, 2))
    assert prod.same_map(diamond(x, z)) and diamond(x, z).same_map(prod)


def test_image_sector_transport_with_inner_transporter(net2):
    x = pauli_sector(net2, "X", "[1,1]")
    inner = check_transportable(x, "[2,2]", net2)
    assert inner.found and inner.transporter_label == "translated-pattern"
    # the image-built sector derives its string from the tableau, so it is
    # moved by the same translated pattern
    got = check_transportable(_image_sector(x), "[2,2]", net2)
    assert got.found and got.transporter_label == "translated-pattern"
    assert got.transported.region == "[2,2]"
    assert got.transported.same_map(inner.transported)
    assert got.transported.same_map(pauli_sector(net2, "X", "[2,2]"))
    # the identity alone leaves X on site 0
    assert not check_localized(x.relabel("[2,2]"), net2).ok


# -- image-built sectors: the homomorphism check and covariance -------------------------


def _linear(net, images):
    """The linear map sending the k-th global basis string to images[k]."""
    index = {mask: k for k, mask in enumerate(sorted(net.global_algebra().masks()))}

    def apply(m):
        out = GMat.zero(net.n)
        for mask, c in pauli_coefficients(m).items():
            out = out + images[index[mask]].scale(c)
        return out

    return apply


def reference_is_homomorphism(net, images):
    """Whether `_linear(net, images)` is a unital *-homomorphism, checked on
    the full basis: images in the global algebra, unital, and adjoints and
    products on every pair of basis strings."""
    glob, apply = net.global_algebra(), _linear(net, images)
    return (
        all(glob.contains(img) for img in images)
        and apply(GMat.identity(net.n)).is_identity()
        and all(apply(a.adjoint()) == apply(a).adjoint() for a in glob.basis)
        and all(apply(a @ b) == apply(a) @ apply(b) for a in glob.basis for b in glob.basis)
    )


def _accepted(net, images):
    """Whether the constructor accepts the raw basis images."""
    try:
        LocalizedEndo(net, "[1,1]", images=images)
    except PreconditionError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["X", "Y", "Z"]),
    st.dictionaries(st.integers(0, 15), st.sampled_from(_UNITS), max_size=3),
)
def test_homomorphism_check_matches_the_full_basis(letter, phases):
    # a phase on some basis images keeps every image a string, so only
    # unitality, adjoints or products can break
    net = qubit_net(2)
    rho = pauli_sector(net, letter, "[1,1]")
    images = [rho.apply(a) for a in net.global_algebra().basis]
    for i, c in phases.items():
        images[i] = images[i].scale(c)
    assert _accepted(net, images) == reference_is_homomorphism(net, images)


def test_homomorphism_check_probes(net2):
    glob = net2.global_algebra()
    intact = [pauli_sector(net2, "X", "[1,1]").apply(a) for a in glob.basis]
    generator = glob.basis.index(glob.generators[0])
    partner = next(  # a generator that anticommutes with the first one
        glob.basis.index(g) for g in glob.generators if not g.commutes_with(glob.generators[0])
    )
    product = len(intact) - 1  # Y (x) Y, a product of generators
    assert glob.basis[product] not in glob.generators and generator != 0
    broken = [
        ("not unital", {0: intact[0].scale(-GR_ONE)}),
        ("does not respect adjoints", {generator: intact[generator].scale(GR_I)}),
        ("not multiplicative", {product: intact[product].scale(-GR_ONE)}),
        # two anticommuting generators sent to one string
        ("not multiplicative", {partner: intact[generator]}),
    ]
    for message, changes in broken:
        images = [changes.get(i, m) for i, m in enumerate(intact)]
        with pytest.raises(PreconditionError, match=message):
            LocalizedEndo(net2, "[1,1]", images=images)
        assert not reference_is_homomorphism(net2, images)
    # X and Z sent to one string on one qubit: the generators' images
    # commute, and no sign of the image of Y makes that a homomorphism
    qubit1 = qubit_net(1)
    i1, x1, z1 = GMat.identity(2), pauli_string(1, 1, 0), pauli_string(1, 0, 1)
    for sign in (GR_ONE, -GR_ONE):
        images = [i1, z1, z1, i1.scale(sign)]  # the images of I, Z, X, Y
        with pytest.raises(PreconditionError, match="not multiplicative"):
            LocalizedEndo(qubit1, "[1,1]", images=images)
        assert not reference_is_homomorphism(qubit1, images)
    # an X string is no image on the diagonal net
    bits2 = diagonal_net(2)
    reset = collapse_sector(bits2, "[1,1]")
    images = [reset.apply(a) for a in bits2.global_algebra().basis]
    images[1] = pauli_string(2, 0b10, 0)
    with pytest.raises(PreconditionError, match="image leaves the global algebra"):
        LocalizedEndo(bits2, "[1,1]", images=images)
    assert not reference_is_homomorphism(bits2, images)


def test_non_clifford_maps_are_refused(net2):
    # Ad R for a rotation R is an automorphism, but it sends Z to no
    # signed string, so it has no tableau
    r = _rotation_on_site(net2, 0)
    images = [r @ a @ r.adjoint() for a in net2.global_algebra().basis]
    assert reference_is_homomorphism(net2, images)
    for built in (lambda: LocalizedEndo(net2, "[1,1]", unitary=r),
                  lambda: LocalizedEndo(net2, "[1,1]", images=images)):
        with pytest.raises(PreconditionError, match="not a signed Pauli string"):
            built()


def test_intertwiner_law_probe(net4):
    # Z at site 0 lies in A([1,1]) but anticommutes with the X sector's
    # unitary, so only the intertwining law can reject it
    for rho in (pauli_sector(net4, "X", "[1,1]"), _image_sector(pauli_sector(net4, "X", "[1,1]"))):
        z0 = pauli_string(4, 0, 0b1000)
        with pytest.raises(PreconditionError, match="does not intertwine"):
            Intertwiner(rho, rho, z0)
        assert any(
            z0 @ rho.apply(a) != rho.apply(a) @ z0 for a in net4.global_algebra().basis
        )


def _pauli_and_cz_images(net):
    """Every single-site Pauli sector and a CZ on every pair of sites (at
    the smallest interval holding both), each with its implementing matrix
    and rebuilt from its basis images."""
    L = net.sites
    cases = [
        (pauli_string(L, xb << (L - 1 - c), zb << (L - 1 - c)), f"[{c + 1},{c + 1}]")
        for c in range(L)
        for xb, zb in ((1, 0), (1, 1), (0, 1))
    ]
    for a, b in itertools.combinations(range(net.sites), 2):
        cases.append((entangler_unitary(net, a, b), f"[{a + 1},{b + 1}]"))
    return [(u, _image_sector(LocalizedEndo(net, region, unitary=u))) for u, region in cases]


@pytest.mark.parametrize("sites", [2, 3])
def test_every_image_sector_gets_a_family(sites):
    # the Pauli images derive their string and get the inner family; the
    # CZ images are no Pauli conjugation, and their extension's family is
    # rho(u_g).
    # Either way the family's tableau is that of the dense u u_g u*
    net = qubit_net(sites)
    data = qubit_reflection_data(net)
    cases = _pauli_and_cz_images(net)
    assert len(cases) == 3 * sites + sites * (sites - 1) // 2
    methods = []
    for u, image in cases:
        fam = find_covariance(image, data)
        methods.append(fam.method)
        assert fam.method == ("extension" if pauli_unitary(image) is None else "inner")
        for g, u_g in reflection_unitaries(net).items():
            y = u @ u_g @ u.adjoint()
            assert fam.tableaux[g] == m_n_tableau(sites, y)
            for a in net.global_algebra().basis:
                assert image.apply(u_g @ a @ u_g.adjoint()) @ y == y @ image.apply(a)
    assert methods == ["inner"] * (3 * sites) + ["extension"] * (sites * (sites - 1) // 2)


def test_twirl_family_matches_the_dense_nullspace(net2):
    data = qubit_reflection_data(net2)
    glob = net2.global_algebra()
    for _, image in _pauli_and_cz_images(net2):
        fam = find_covariance(image, data)
        for g, u_g in reflection_unitaries(net2).items():
            pairs = [(image.apply(u_g @ a @ u_g.adjoint()), image.apply(a)) for a in glob.basis]
            want = reference_dense_intertwiner(net2.n, pairs)
            # scaled to a unit first entry, the solution is a monomial unitary
            (i, j), v = next(iter(want.data.items()))
            assert fam.tableaux[g] == m_n_tableau(2, want.scale(GR_ONE / v))


def test_automorphism_family_probes(monkeypatch, net2):
    # rho(u_g) serves sectors that are no Pauli conjugation: CZ on sites 0
    # and 1 of three, which the reflection moves to sites 1 and 2
    net3 = qubit_net(3)
    data = qubit_reflection_data(net3)
    cz = entangler_unitary(net3, 0, 1)
    rho = _image_sector(LocalizedEndo(net3, "[1,2]", unitary=cz))
    fam = find_covariance(rho, data)
    assert pauli_unitary(rho) is None and fam.method == "extension"
    for g, u_g in reflection_unitaries(net3).items():
        assert rho.apply(u_g) == cz @ u_g @ cz
        assert fam.tableaux[g] == m_n_tableau(3, rho.apply(u_g))
    # every string to the identity is no homomorphism, so it has no tableau
    with pytest.raises(PreconditionError, match="not multiplicative"):
        LocalizedEndo(net2, "[1,1]", images=[GMat.identity(net2.n)] * net2.global_algebra().dim)
    # a family that misses rho^-1: with the identity for it, Ad y_g is
    # rho Ad u_g, and Ad y_g rho = rho Ad u_g rho is not rho Ad u_g
    identity = lambda L, tableau: tuple(1 << k << 1 for k in range(2 * L))
    monkeypatch.setattr(sectors_module, "_inverse_tableau", identity)
    with pytest.raises(PreconditionError, match="does not intertwine"):
        find_covariance(rho, data)


def _x_type_net():
    """qubit2 with every region algebra cut down to its X-type strings:
    abelian, reflection-symmetric, neither full nor diagonal."""
    base = qubit_net(2, name="xbits2")
    overrides = {
        u: MatrixAlg(2, [(1 << (1 - s)) << 2 for s in cells], name=f"X({u})")
        for u, cells in base.region_sites.items()
    }
    return MatrixNet(base.category, 2, base.region_sites, overrides=overrides, name="xbits2")


def test_covariance_search_decides_a_partial_global_algebra():
    net = _x_type_net()
    data = qubit_reflection_data(net)
    assert data.validate().ok
    glob = net.global_algebra()
    assert glob.dim == 4 and net.global_commutant().dim == 4
    # the site swap on the X strings is no Pauli conjugation, but it
    # extends to M_N, so its family is decided
    swap = reflection_unitary(2)
    rho = LocalizedEndo(net, "[1,2]", images=[swap @ a @ swap for a in glob.basis])
    assert pauli_unitary(rho) is None
    fam = find_covariance(rho, data)
    assert fam is not None and fam.method == "extension"
    for g in ("e", "r"):
        y, image = _StringMap(2, data._m_n.rows, fam.tableaux[g]), data._full_maps(g)[0]
        assert all(_chase((rho._map, y), r) == _chase((image, rho._map), r) for _, r in glob.rows)
    # Ad Z0 built from its images derives Z0 and gets the conjugated family
    z0 = pauli_string(2, 0, 0b10)
    image = LocalizedEndo(net, "[1,1]", images=[z0 @ a @ z0 for a in glob.basis])
    assert pauli_unitary(image) == z0
    assert find_covariance(image, data).method == "inner"


# -- the implementing string, derived from the tableau ------------------------------------------


def _sectors_of(net):
    """Ad P for every string P, CZ on every pair of sites, the site
    reflection, the collapse on a diagonal net, their g-images and some
    products, all at the full region; a map the tableau form refuses is
    skipped."""
    L, full = net.sites, f"[1,{net.sites}]"
    unitaries = [pauli_string(L, x, z) for x in range(1 << L) for z in range(1 << L)]
    unitaries += [entangler_unitary(net, a, b) for a, b in itertools.combinations(range(L), 2)]
    unitaries.append(reflection_unitary(L))
    out = []
    for u in unitaries:
        try:
            out.append(LocalizedEndo(net, full, unitary=u))
        except PreconditionError:
            continue
    if all(x == 0 for x, _ in net.global_algebra().masks()):
        out.append(collapse_sector(net).relabel(full))
    data = qubit_reflection_data(net)
    out += [sectors_module.g_act_sector("r", rho, data) for rho in out[:: 1 << L]]
    out += [diamond(rho, sig) for rho in out[-3:] for sig in out[:: 1 << L]]
    return out


@pytest.mark.parametrize(
    "net",
    [qubit_net(2), qubit_net(3), qubit_net(4), diagonal_net(4), _x_type_net()],
    ids=lambda net: net.name,
)
def test_derived_string_implements_exactly_the_pauli_conjugations(net):
    sectors = _sectors_of(net)
    commutant = net.global_commutant().masks()
    L, low = net.sites, (1 << net.sites) - 1
    kinds = set()
    for rho in sectors:
        summary = sectors_module._sector_summary(rho.region, rho)
        assert (pauli_unitary(rho) is None) == (summary is None)
        kinds.add(summary is None)
        if pauli_unitary(rho) is None:
            continue
        assert LocalizedEndo(net, rho.region, unitary=pauli_unitary(rho)).tableau == rho.tableau
        a = rho.pauli_mask()
        assert pauli_unitary(rho) == pauli_string(L, a >> L, a & low)
    assert kinds == {True, False}
    # a Pauli conjugation derives the string it was built from, up to the
    # global commutant, and the one representative with zero free
    # coordinates: equal maps derive equal strings
    derived = {}
    for x in range(1 << L):
        for z in range(1 << L):
            rho = LocalizedEndo(net, f"[1,{L}]", unitary=pauli_string(L, x, z))
            a = rho.pauli_mask()
            assert (a >> L ^ x, (a & low) ^ z) in commutant
            assert derived.setdefault(rho.tableau, a) == a
    assert len(derived) * len(commutant) == 4 ** L


def test_pauli_sectors_on_a_200_site_net_build_no_matrix(monkeypatch):
    from sectorfact.fixtures import net_from_json

    regions = [{"id": "a", "sites": [0]}, {"id": "b", "sites": [1]}, {"id": "ab", "sites": [0, 1]}]
    net = net_from_json({"name": "three200", "sites": 200, "regions": regions})

    def refuse(*args):
        raise AssertionError("a 2**200 matrix was asked for")

    for module in (linalg_module, sectors_module):
        monkeypatch.setattr(module, "pauli_string", refuse)
    monkeypatch.setattr(GMat, "identity", staticmethod(refuse))
    family = standard_sector_family(net)
    x = family["a"][0]
    assert x.pauli_mask() == 1 << 399 and check_localized(x, net).ok
    report = check_transportable(x, "b", net)
    assert report.found and report.transporter_label == "translated-pattern"
    assert report.transported.same_map(pauli_sector(net, "X", "b"))
    assert diamond(x, family["a"][1]).same_map(pauli_sector(net, "Y", "a"))
    theorem = validate_theorem_3_11(net, family, bound=3)
    assert [v.axiom for v in theorem.violations] == ["haag-precheck"]


def _permutation_solutions(n, pairs):
    for perm in itertools.permutations(range(n)):
        y = GMat(n, {(i, perm[i]): GR_ONE for i in range(n)})
        if all(lhs @ y == y @ rhs for lhs, rhs in pairs):
            yield y


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_dense_matching_oracle_is_complete(data):
    # a unitary supported on the allowed pattern exists exactly when a
    # permutation does (Birkhoff), so the permutations are the oracle
    n = data.draw(st.integers(1, 4), label="n")
    labels = st.lists(st.sampled_from([GR_ONE, -GR_ONE, GR_I]), min_size=n, max_size=n)
    count = data.draw(st.integers(1, 3), label="pairs")
    rhs = [data.draw(labels, label="rhs") for _ in range(count)]
    if data.draw(st.booleans(), label="permuted"):
        perm = data.draw(st.permutations(range(n)), label="perm")
        lhs = [[r[perm[i]] for i in range(n)] for r in rhs]
    else:
        lhs = [data.draw(labels, label="lhs") for _ in range(count)]
    diag = lambda d: GMat(n, {(i, i): v for i, v in enumerate(d)})
    pairs = [(diag(a), diag(b)) for a, b in zip(lhs, rhs)]
    got = solve_intertwiner(n, pairs)
    assert (got is None) == (next(_permutation_solutions(n, pairs), None) is None)
    if got is not None:
        assert got.is_unitary() and all(a @ got == got @ b for a, b in pairs)


def _invertible_columns(data, L):
    """The columns N e_k of a random invertible L x L matrix over GF(2): a
    unit upper triangle with its rows permuted."""
    perm = data.draw(st.permutations(range(L)), label="perm")
    cols = [1 << k | data.draw(st.integers(0, (1 << k) - 1), label="above") for k in range(L)]
    return [sum((c >> i & 1) << perm[i] for i in range(L)) for c in cols]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_diagonal_matching_is_complete(data):
    # `_extension_tableau` on random signed Z-mask pairs against the dense
    # matcher, and at L <= 2 against every permutation; half the examples
    # are solvable by construction: lhs = (-1)**(d . m) Z^(N m) for rhs Z^m
    L = data.draw(st.integers(1, 4), label="L")
    signed = st.integers(0, (2 << L) - 1)
    rhs = data.draw(st.lists(signed, min_size=1, max_size=4), label="rhs")
    solvable = data.draw(st.booleans(), label="solvable")
    if solvable:
        cols = _invertible_columns(data, L)
        d = data.draw(st.integers(0, (1 << L) - 1), label="d")
        times_n = lambda m: functools.reduce(operator.xor, (c for k, c in enumerate(cols) if m >> k & 1), 0)
        lhs = [times_n(b >> 1) << 1 | (b ^ (d & b >> 1).bit_count()) & 1 for b in rhs]
    else:
        lhs = data.draw(st.lists(signed, min_size=len(rhs), max_size=len(rhs)), label="lhs")
    pairs = list(zip(lhs, rhs))
    got = _extension_tableau(L, pairs)
    n, dense = 1 << L, [(_string_matrix(L, a), _string_matrix(L, b)) for a, b in pairs]
    assert (got is None) == (solve_intertwiner(n, dense) is None)
    if L <= 2:
        assert (got is None) == (next(_permutation_solutions(n, dense), None) is None)
    assert got is not None or not solvable
    if got is not None:
        rows, low = [(k, 1 << k) for k in range(2 * L)], (1 << L) - 1
        image = _StringMap(L, rows, got)
        assert all(image[b >> 1] ^ (b & 1) == a for a, b in pairs)
        _inverse_tableau(L, got)
        commute = lambda v, w: pauli_commute(v >> L, v & low, w >> L, w & low)
        assert len(got) == 2 * L
        for (_, r), t in zip(rows, got):
            for (_, r2), t2 in zip(rows, got):
                assert commute(r, r2) == commute(t >> 1, t2 >> 1)


def test_extension_kernel_on_non_diagonal_pairs():
    # X at site 0 and Z at site 1 on two sites: the identity solves
    # Ad y(X0) = X0; Z1 cannot go to both Z1 and X0; some Clifford sends X0
    # to Z1.  The dense matcher is complete on diagonal pairs only
    x0, z1 = 0b1000 << 1, 0b0001 << 1
    assert _extension_tableau(2, [(x0, x0)]) == (2, 4, 8, 16)
    assert _extension_tableau(2, [(z1, z1), (x0, z1)]) is None
    y = _extension_tableau(2, [(z1, x0)])
    assert y is not None and _StringMap(2, [(k, 1 << k) for k in range(4)], y)[x0 >> 1] == z1
    for pairs in ([(x0, x0)], [(z1, z1), (x0, z1)], [(z1, x0)]):
        with pytest.raises(PreconditionError, match="neither full nor diagonal"):
            solve_intertwiner(4, [(_string_matrix(2, a), _string_matrix(2, b)) for a, b in pairs])


def test_net_json_orth_on_shared_site_sets():
    from sectorfact.fixtures import net_from_json
    from sectorfact.orthcat import validate_category

    doc = {
        "sites": 2,
        "regions": [
            {"id": "a", "sites": [0]},
            {"id": "b", "sites": [0]},
            {"id": "c", "sites": [1]},
            {"id": "ac", "sites": [0, 1]},
        ],
        "orth": [["a", "c"]],
    }
    net = net_from_json(doc)
    # a and b are isomorphic objects, so b inherits a's orthogonal cospans
    assert len(net.category.orth) == 4
    assert net.orth_partners("b") == ["c"] and net.orth_partners("c") == ["a", "b"]
    assert validate_category(net.category).ok
    assert check_perp_commutativity(net).ok


def test_region_named_like_the_global_cache_key():
    from sectorfact.fixtures import net_from_json

    doc = {
        "sites": 2,
        "regions": [
            {"id": "__global__", "sites": [0]},
            {"id": "b", "sites": [1]},
            {"id": "ab", "sites": [0, 1]},
        ],
    }
    region_first = net_from_json(doc)
    assert region_first.algebra("__global__").dim == 4
    assert region_first.global_algebra().dim == 16
    global_first = net_from_json(doc)
    assert global_first.global_algebra().dim == 16
    assert global_first.algebra("__global__").dim == 4


# -- the tableau rule of same_map and diamond ------------------------------------------------------
#
# A sector is its tableau: `same_map` is tableau equality and `diamond`
# composes tableaux without multiplying matrices.  The oracle is
# `reference_ad_equal` on the unitaries the sectors were built from, and on
# the product of those unitaries for a product.

# qubit chains have the scalars as global commutant; the diagonal net's is
# the 16 Z-type strings, so distinct strings can give the same map there
QUBIT_NETS = [qubit_net(L) for L in (1, 2, 3, 4)]
BITS4 = diagonal_net(4)
UNIMODULAR = [GR_ONE, GaussianRational.of(0, 1), GaussianRational.of(-1), GaussianRational.of(0, -1)]
UNIMODULAR += [c * GaussianRational.of(F(3, 5), F(4, 5)) for c in UNIMODULAR]


def _decoded(u):
    p = as_pauli_string(u)
    return None if p is None else (p[0], p[1])


def _check_mask_rule(net, rho, u, sig, w):
    """same_map, diamond and the derived strings on rho = Ad u, sig = Ad w
    and their products agree with the GMat oracle on u, w, uw and wu."""
    prod, swapped = sectors_module.diamond(rho, sig), sectors_module.diamond(sig, rho)
    unitary = {id(rho): u, id(sig): w, id(prod): u @ w, id(swapped): w @ u}
    for s in (prod, swapped):
        assert s.tableau == LocalizedEndo(net, s.region, unitary=unitary[id(s)]).tableau
    for s in (rho, sig, prod, swapped):
        if pauli_unitary(s) is not None:
            assert reference_ad_equal(net, pauli_unitary(s), unitary[id(s)])
    pairs = [(rho, sig), (sig, rho), (prod, swapped), (prod, rho), (sig, prod), (rho, rho)]
    for a, b in pairs:
        assert a.same_map(b) == reference_ad_equal(net, unitary[id(a)], unitary[id(b)])


@st.composite
def masked_pairs(draw):
    # half the draws on the diagonal net, where strings a commutant string
    # apart are the same map
    net = draw(st.one_of(st.sampled_from(QUBIT_NETS), st.just(BITS4)))
    L, region = net.sites, draw(st.sampled_from(sorted(net.category.objects)))
    commutant = sorted(net.global_commutant().masks())

    def operand(near=None):
        kinds = ["pauli"] * 3 + (["entangler", "reflection"] if L >= 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "entangler":
            a, b = draw(st.lists(st.integers(0, L - 1), min_size=2, max_size=2, unique=True))
            u = entangler_unitary(net, a, b)
        elif kind == "reflection":
            u = reflection_unitary(L)
        else:
            x, z = draw(st.integers(0, (1 << L) - 1)), draw(st.integers(0, (1 << L) - 1))
            if near is not None and draw(st.booleans()):
                # shift a string operand by a commutant string: same map
                cx, cz = draw(st.sampled_from(commutant))
                x, z = near[0] ^ cx, near[1] ^ cz
            u = pauli_string(L, x, z, draw(st.sampled_from(UNIMODULAR)))
        return LocalizedEndo(net, region, unitary=u, label=kind), u

    rho, u = operand()
    return (net, rho, u, *operand(near=_decoded(u)))


@settings(max_examples=150, deadline=None)
@given(masked_pairs())
def test_mask_rule_matches_ad_equal(case):
    _check_mask_rule(*case)


def test_mask_rule_covers_both_branches():
    # distinct strings that are the same map, and unitaries that are no
    # strings (CZ, the reflection) next to a string
    assert len(BITS4.global_commutant().masks()) == 16
    u, w = pauli_string(4, 8, 0), pauli_string(4, 8, 4, GaussianRational.of(F(3, 5), F(4, 5)))
    x0, x0z1 = (LocalizedEndo(BITS4, "[1,1]", unitary=m) for m in (u, w))
    # the XOR (0, 4) is a commutant string, and the derived string of both
    # is the one without it
    assert x0.same_map(x0z1) and reference_ad_equal(BITS4, u, w)
    assert _decoded(pauli_unitary(x0)) == _decoded(pauli_unitary(x0z1)) == (8, 0)
    _check_mask_rule(BITS4, x0, u, x0z1, w)
    net = qubit_net(4)
    xzyi = pauli_string(4, 0b1010, 0b0110)
    for u in (entangler_unitary(net, 0, 3), reflection_unitary(4)):
        rho = LocalizedEndo(net, "[1,4]", unitary=u)
        assert rho.relabel("[1,4]").same_map(rho) and pauli_unitary(rho) is None
        _check_mask_rule(net, rho, u, pauli_sector(net, "XZYI", "[1,4]"), xzyi)


def test_diamond_probe_or_instead_of_xor(monkeypatch):
    # corruption probe: a composition that ORs the carried sign into the
    # image's sign instead of XORing it
    monkeypatch.setattr(
        sectors_module, "_compose",
        lambda outer, tableau: tuple(outer[code >> 1] | (code & 1) for code in tableau),
    )
    net = qubit_net(2)
    x, y = pauli_sector(net, "X", "[1,1]"), pauli_sector(net, "Y", "[1,1]")
    with pytest.raises(AssertionError):
        _check_mask_rule(net, x, pauli_string(2, 2, 0), y, pauli_string(2, 2, 2))


def test_same_map_probe_ignoring_the_commutant(monkeypatch):
    # corruption probe: comparing the strings the sectors were built from
    # is right on the qubit chains (scalar commutant) and must fail on the
    # diagonal net
    real, built = LocalizedEndo.same_map, {}

    def naive(self, other):
        if self in built and other in built:
            return built[self] == built[other]
        return real(self, other)

    def sector(net, region, x, z):
        rho = LocalizedEndo(net, region, unitary=pauli_string(net.sites, x, z))
        built[rho] = (x, z)
        return rho, pauli_string(net.sites, x, z)

    monkeypatch.setattr(LocalizedEndo, "same_map", naive)
    net = qubit_net(4)
    _check_mask_rule(net, *sector(net, "[1,2]", 8, 0), *sector(net, "[1,2]", 8, 4))
    with pytest.raises(AssertionError):
        _check_mask_rule(BITS4, *sector(BITS4, "[1,1]", 8, 0), *sector(BITS4, "[1,1]", 8, 4))


# -- the diamond laws proved from sign bits -----------------------------------------------------------


def reference_diamond_laws(net, family):
    """Every monoid-law instance of `sectors diamond` walked on every pool,
    the oracle of the proof in `cli._diamond_laws`."""
    checked, violations = 0, []
    for u, sectors in sorted(family.items()):
        pool = [identity_sector(net, u)] + sectors
        for rho in pool:
            left = diamond(rho, identity_sector(net, u))
            right = diamond(identity_sector(net, u), rho)
            checked += 1
            if not (left.same_map(rho) and right.same_map(rho)):
                violations.append({"axiom": "monoid-unit", "sector": rho.label})
        for r1, r2, r3 in itertools.product(pool, repeat=3):
            checked += 1
            if not diamond(diamond(r1, r2), r3).same_map(diamond(r1, diamond(r2, r3))):
                violations.append(
                    {"axiom": "monoid-associativity", "sectors": [r1.label, r2.label, r3.label]}
                )
    return checked, violations


def _count_compositions(monkeypatch):
    """The tableau compositions made, each sector product being one."""
    calls = []
    real = sectors_module._compose

    def counted(outer, tableau):
        calls.append(len(tableau))
        return real(outer, tableau)

    monkeypatch.setattr(sectors_module, "_compose", counted)
    return calls


def _walked_diamond_laws(net, family):
    checked, violations = reference_diamond_laws(net, family)
    assert violations == []
    return checked


@pytest.mark.parametrize("net", [qubit_net(2), qubit_net(3), qubit_net(4), diagonal_net(4)],
                         ids=lambda net: net.name)
def test_diamond_laws_proof_matches_the_walk_by_report_bytes(net, tmp_path, monkeypatch):
    path = tmp_path / "net.json"
    path.write_text(dump_json(fixtures_module.net_to_json(net)))

    def report():
        out = tmp_path / "diamond.json"
        assert cli_module.main(["sectors", "diamond", "--net", str(path), "--out", str(out)]) == 0
        return out.read_bytes()

    composed = _count_compositions(monkeypatch)
    proved = report()
    assert composed == []
    monkeypatch.setattr(cli_module, "_diamond_laws", _walked_diamond_laws)
    assert report() == proved


@pytest.mark.parametrize("kind", ["cz", "collapse"])
def test_a_pool_with_a_non_summary_sector_is_refused(kind):
    # the walk reports nothing here either, composition of endomorphisms
    # being unital and associative, but the proof does not cover the pool
    net = qubit_net(4) if kind == "cz" else diagonal_net(4)
    family = standard_sector_family(net)
    if kind == "cz":
        family["[1,2]"] = [LocalizedEndo(net, "[1,2]", unitary=entangler_unitary(net, 0, 1), label="CZ")]
    else:
        family["[1,2]"] = [collapse_sector(net)]
    assert reference_diamond_laws(net, family)[1] == []
    with pytest.raises(PreconditionError, match=r"at \[1,2\] is not a Pauli conjugation"):
        cli_module._diamond_laws(net, family)


def _check_diamond_premise(net):
    """On every pair of Pauli conjugations at one region of at most two
    sites, `diamond` keeps every mask and XORs the sign bits."""
    summary = sectors_module._sector_summary
    for u, cells in sorted(net.region_sites.items()):
        if len(cells) > 2:
            continue
        pool = [identity_sector(net, u)] + [
            pauli_sector(net, "".join(p), u) for p in itertools.product("IXYZ", repeat=len(cells))
        ]
        for a, b in itertools.product(pool, repeat=2):
            assert summary(u, diamond(a, b)) == summary(u, a) ^ summary(u, b), (u, a, b)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_diamond_keeps_masks_and_xors_sign_bits(L):
    _check_diamond_premise(qubit_net(L))


def test_diamond_premise_probe_dropping_the_sign(monkeypatch):
    # corruption probe: a composition that drops the carried sign
    monkeypatch.setattr(
        sectors_module, "_compose", lambda outer, tableau: tuple(outer[code >> 1] for code in tableau)
    )
    with pytest.raises(AssertionError):
        _check_diamond_premise(qubit_net(2))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_collapse_tableau_matches_the_image_built_sector(L):
    net = diagonal_net(L)
    for region in sorted(net.region_sites):
        rho, oracle = collapse_sector(net, region), collapse_sector_from_images(net, region)
        assert rho.tableau == oracle.tableau and rho.label == oracle.label


def test_collapse_refusals_match_the_image_built_sector():
    # a full algebra at [1,2]; a diagonal global algebra without Z1 alone,
    # so resetting site 0 of Z0 Z1 leaves it; a missing region
    pair = MatrixAlg.pauli_span(2, [(0, 0), (0, 3)])
    qubit2 = qubit_net(2)
    narrow = MatrixNet(qubit2.category, 2, qubit2.region_sites,
                       overrides={u: pair for u in qubit2.region_sites})
    cases = [(qubit2, "[1,2]", SchemaError, "needs a diagonal net"),
             (narrow, "[1,1]", PreconditionError, "image leaves the global algebra"),
             (diagonal_net(1), "[1,2]", SchemaError, "which the net lacks")]
    for net, region, error, message in cases:
        for build in (collapse_sector, collapse_sector_from_images):
            with pytest.raises(error, match=message):
                build(net, region)


# -- tableaux against the GMat oracle ---------------------------------------------------------------


ORACLE_NETS = [qubit_net(2), qubit_net(3), diagonal_net(3)]
ORACLE_DATA = {id(net): qubit_reflection_data(net) for net in ORACLE_NETS}


@st.composite
def oracle_sectors(draw):
    """A net and two sectors at its full region, each a product of one to
    three atoms, with the map each stands for as a function on GMats.
    Atoms: Pauli, CZ and reflection-conjugated sectors, the collapse sector
    on the diagonal net, and any of these rebuilt from its images."""
    net = draw(st.sampled_from(ORACLE_NETS))
    L, full = net.sites, f"[1,{net.sites}]"
    data = ORACLE_DATA[id(net)]
    basis = net.global_algebra().basis

    def conj(u):
        return lambda m: u @ m @ u.adjoint()

    def atom():
        kinds = ["pauli", "entangler", "reflected"] + (["collapse"] if net.overrides else [])
        kind = draw(st.sampled_from(kinds), label="kind")
        if kind == "collapse":
            # the reset of sites 0 and 1 keeps the Z bit of site 2 only
            rho = collapse_sector(net).relabel(full)
            masks = sorted(net.global_algebra().masks())
            dense = _linear(net, [pauli_string(L, 0, z & 0b001) for _, z in masks])
        elif kind == "entangler":
            a, b = draw(st.lists(st.integers(0, L - 1), min_size=2, max_size=2, unique=True))
            u = entangler_unitary(net, a, b)
            rho, dense = LocalizedEndo(net, full, unitary=u), conj(u)
        else:
            x, z = draw(st.integers(0, (1 << L) - 1)), draw(st.integers(0, (1 << L) - 1))
            u = pauli_string(L, x, z, draw(st.sampled_from(UNIMODULAR)))
            rho, dense = LocalizedEndo(net, full, unitary=u), conj(u)
            if kind == "reflected":
                r = reflection_unitary(L)
                rho = sectors_module.g_act_sector("r", rho, data)
                dense = conj(r @ u @ r.adjoint())
        if draw(st.booleans(), label="rebuilt from images"):
            rho = LocalizedEndo(net, full, images=[dense(a) for a in basis])
        return rho, dense

    def product(atoms):
        rho, dense = atoms[0]
        for sig, sig_dense in atoms[1:]:
            rho = diamond(rho, sig)
            dense = (lambda f, g: lambda m: f(g(m)))(dense, sig_dense)
        return rho, dense

    atoms = [atom() for _ in range(draw(st.integers(1, 3), label="factors"))]
    other = list(reversed(atoms)) if draw(st.booleans(), label="reversed") else [atom()]
    return net, product(atoms), product(other)


@settings(max_examples=80, deadline=None)
@given(oracle_sectors())
def test_tableau_apply_and_same_map_match_the_gmat_oracle(case):
    net, (rho, rho_dense), (sig, sig_dense) = case
    basis = net.global_algebra().basis
    assert all(rho.apply(a) == rho_dense(a) for a in basis)
    assert all(sig.apply(a) == sig_dense(a) for a in basis)
    assert rho.same_map(sig) == all(rho_dense(a) == sig_dense(a) for a in basis)


# -- the summary behind the algebra proof ----------------------------------------------------------


def _sign_bits(net, x, z):
    """Bit k set when P(x, z) anticommutes with the k-th row's string: the
    sign bits of Ad P(x, z)."""
    L, low = net.sites, (1 << net.sites) - 1
    rows = net.global_algebra().rows
    return sum((not pauli_commute(x, z, r >> L, r & low)) << k for k, (_, r) in enumerate(rows))


def test_sector_summary_is_the_sign_bits(net2, net4):
    summary = sector_algebra_assignment(net4, {}).summary
    xz = pauli_sector(net4, "XZ", "[1,2]")
    assert summary("[1,2]", xz) == _sign_bits(net4, 0b1000, 0b0100) != 0
    assert summary("[1,3]", xz) is None  # filed at another region
    assert summary("[1,1]", identity_sector(net4, "[1,1]")) == 0
    cz = LocalizedEndo(net4, "[1,2]", unitary=entangler_unitary(net4, 0, 1), label="CZ")
    assert summary("[1,2]", cz) is None
    # a sector rebuilt from its images is the same tableau
    x = pauli_sector(net2, "X", "[1,1]")
    summary2 = sector_algebra_assignment(net2, {}).summary
    assert summary2("[1,1]", _image_sector(x)) == summary2("[1,1]", x) == _sign_bits(net2, 2, 0)
    bits4 = diagonal_net(4)
    assert sector_algebra_assignment(bits4, {}).summary("[1,2]", collapse_sector(bits4)) is None


def test_equal_tableaux_share_cached_outputs(bits4):
    # Ad X0 and Ad X0 Z1 are one map on the diagonal net.  The caches key on
    # tableaux, so the second sector gets the first one's output; the
    # validators still name each carrier element by its own label
    import dataclasses

    from sectorfact.operad import validate_algebra
    from sectorfact.sectors import sector_equivariant_assignment

    x = pauli_sector(bits4, "X", "[1,1]")
    xz = LocalizedEndo(bits4, "[1,1]", unitary=pauli_string(4, 0b1000, 0b0100), label="XZ")
    assert x.tableau == xz.tableau and x.label != xz.label
    family = {"[1,1]": [x, xz]}
    assign = sector_algebra_assignment(bits4, family)
    op = next(
        op for op in enumerate_all_operations(bits4.category, 1)
        if op.sources == ("[1,1]",) and op.target == "[1,2]"
    )
    out_x, out_xz = (assign.structure(op)((s,)) for s in (x, xz))
    assert out_xz is out_x and out_x.label == x.label
    assert out_xz.same_map(pfa_structure_map(op, (xz,), bits4))
    iso = sector_equivariant_assignment(bits4, qubit_reflection_data(bits4), family).iso
    moved_x, moved_xz = (iso("r", "[1,1]")(s) for s in (x, xz))
    assert moved_xz is moved_x and moved_x.region == "[4,4]"
    assert validate_algebra(bits4.category, assign, bound=2).ok
    # every diagram failing: the unit witnesses name both sectors
    failing = dataclasses.replace(assign, equal=lambda a, b: False)
    report = validate_algebra(bits4.category, failing, bound=1)
    named = {v.witness["element"] for v in report.violations if v.witness["object"] == "[1,1]"}
    assert named == {"1", x.label, "XZ"}


def _cz_as_a_group(net):
    """Z2 acting trivially on the regions and by CZ on sites 0 and 1: a
    Clifford map that sends a row to a product of several rows, unlike the
    reflection, which permutes them."""
    from sectorfact.fixtures import interval_reflection_action
    from sectorfact.orthcat import GroupActionSpec, OrthFunctor
    from sectorfact.sectors import SectorGroupData

    group = interval_reflection_action(net.category, net.sites).group
    same = OrthFunctor.identity_on(net.category)
    action = GroupActionSpec(group, {"e": same, "r": same})
    unitaries = {"e": GMat.identity(net.n), "r": entangler_unitary(net, 0, 1)}
    return SectorGroupData.from_unitaries(net, action, unitaries)


@pytest.mark.parametrize(
    "net, data_of",
    [(qubit_net(L), qubit_reflection_data) for L in (2, 3, 4, 5)]
    + [(qubit_net(3), _cz_as_a_group), (diagonal_net(4), qubit_reflection_data)],
    ids=["qubit2", "qubit3", "qubit4", "qubit5", "qubit3-cz", "bits4"],
)
def test_iso_summary_is_the_summary_of_the_g_image(net, data_of):
    # random products of single-site Pauli sectors, at the whole chain (its
    # own image under every g, and orthogonal to nothing): the sign bits of
    # each g-image are iso_summary of the product's, which is XOR-additive
    import random

    from sectorfact.sectors import g_act_sector, sector_equivariant_assignment

    data = data_of(net)
    iso_summary = sector_equivariant_assignment(net, data, {}).iso_summary
    summary = sectors_module._sector_summary
    whole = f"[1,{net.sites}]"
    singles = [
        pauli_sector(net, p, f"[{i},{i}]").relabel(whole)
        for i in range(1, net.sites + 1)
        for p in "XYZ"
    ]
    rng = random.Random(net.sites)
    previous = 0
    for _ in range(200):
        rho = identity_sector(net, whole)
        for factor in rng.sample(singles, rng.randint(0, len(singles))):
            rho = diamond(rho, factor)
        s = summary(whole, rho)
        for g in data.action.group.elements:
            image = g_act_sector(g, rho, data)
            assert summary(whole, image) == iso_summary(g, s)
            assert iso_summary(g, s ^ previous) == iso_summary(g, s) ^ iso_summary(g, previous)
        previous = s


def test_iso_summary_is_declared_only_on_a_clean_category():
    from sectorfact.fixtures import net_from_json, net_to_json
    from sectorfact.sectors import sector_equivariant_assignment

    doc = net_to_json(qubit_net(3))
    clean = net_from_json(doc)
    doc["orth"] = [["[1,2]", "[2,3]"]]
    dirty = net_from_json(doc)
    for net, declared in ((clean, True), (dirty, False)):
        assign = sector_equivariant_assignment(net, qubit_reflection_data(net), {})
        assert (assign.iso_summary is not None) == declared


_PREMISE_NETS = {L: qubit_net(L) for L in (2, 3, 4)}
_PREMISE_OPS = {
    L: enumerate_all_operations(net.category, 3) for L, net in _PREMISE_NETS.items()
}


@st.composite
def masked_structure_inputs(draw):
    L = draw(st.sampled_from(sorted(_PREMISE_NETS)))
    net, ops = _PREMISE_NETS[L], _PREMISE_OPS[L]
    arity = draw(st.sampled_from(sorted({op.arity for op in ops})))
    op = draw(st.sampled_from([op for op in ops if op.arity == arity]))
    sectors = []
    for u in op.sources:
        x, z = draw(st.integers(0, (1 << L) - 1)), draw(st.integers(0, (1 << L) - 1))
        u_built = draw(st.sampled_from([u] + sorted(net.category.objects)))
        rho = LocalizedEndo(
            net, u_built, unitary=pauli_string(L, x, z, draw(st.sampled_from(UNIMODULAR)))
        )
        sectors.append(rho if u_built == u else rho.relabel(u))
    return net, op, tuple(sectors)


@settings(max_examples=120, deadline=None)
@given(masked_structure_inputs())
def test_structure_maps_xor_the_masks(case):
    net, op, sectors = case
    summary = sector_algebra_assignment(net, {}).summary
    x = z = bits = 0
    for rho, u in zip(sectors, op.sources):
        mx, mz = _decoded(pauli_unitary(rho))
        assert summary(u, rho) == _sign_bits(net, mx, mz)
        x, z, bits = x ^ mx, z ^ mz, bits ^ summary(u, rho)
    out = pfa_structure_map(op, sectors, net)
    assert out.region == op.target
    assert out.same_map(LocalizedEndo(net, op.target, unitary=pauli_string(net.sites, x, z)))
    assert summary(op.target, out) == bits == _sign_bits(net, x, z)


# -- reports with and without the summaries --------------------------------------------------------


def _wrong_site_family(net):
    # an X on site 1 listed at region [1,1]: not localized there
    family = standard_sector_family(net)
    stray = LocalizedEndo(net, "[1,1]", unitary=pauli_string(net.sites, 1 << (net.sites - 2), 0),
                          label="X@[2,2]-listed-at-[1,1]")
    family["[1,1]"] = family["[1,1]"] + [stray]
    return family


@pytest.mark.parametrize(
    "sites, bound, family_of",
    [(4, 3, standard_sector_family), (5, 2, standard_sector_family), (4, 2, _wrong_site_family)],
)
def test_theorem_reports_identical_without_masks(monkeypatch, sites, bound, family_of):
    def report():
        net = qubit_net(sites)
        return dump_json(validate_theorem_3_11(net, family_of(net), bound=bound).to_dict())

    fast = report()
    # without summaries nothing is proved and every diagram is walked
    monkeypatch.setattr(sectors_module, "_sector_summary", lambda u, s: None)
    assert report() == fast
    if family_of is _wrong_site_family:
        assert '"localization-precheck"' in fast and "X@[2,2]-listed-at-[1,1]" in fast


def test_sector_campaigns_identical_without_masks(monkeypatch, tmp_path):
    from sectorfact.cli import main

    net = str(tmp_path / "qubit4.json")
    assert main(["fixtures", "export", "qubit4", "--out", net]) == 0
    # with the summaries hidden theorem311 and operad algebra walk every
    # diagram instance the proof skips
    campaigns = [
        ["sectors", "equivariance", "--net", net],
        ["operad", "algebra", "--net", net, "--bound", "2", "--equivariant"],
        ["sectors", "diamond", "--net", net],
        ["sectors", "theorem311", "--net", net, "--bound", "3"],
        ["operad", "algebra", "--net", net, "--bound", "3"],
    ]

    def outputs(tag):
        out = []
        for i, argv in enumerate(campaigns):
            path = tmp_path / f"{tag}-{i}.json"
            assert main(argv + ["--out", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    fast = outputs("fast")
    monkeypatch.setattr(sectors_module, "_sector_summary", lambda u, s: None)
    assert outputs("slow") == fast
