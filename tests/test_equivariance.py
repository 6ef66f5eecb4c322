import itertools
import json
import random

import pytest

from dense_oracle import (
    dense_diagonal_family,
    entangler_unitary,
    m_n_tableau,
    pauli_unitary,
    reflection_unitaries,
    reflection_unitary,
    scalar_multiple_of_identity,
)
from sectorfact.fixtures import (
    collapse_sector,
    diagonal_net,
    interval_reflection_action,
    net_to_json,
    pauli_sector,
    qubit_net,
    qubit_reflection_data,
    standard_sector_family,
    trivial_action,
)
from sectorfact.cli import main as cli_main
from sectorfact.linalg import GMat, _StringMap, _chase, pauli_string
from sectorfact.orthcat import GroupActionSpec, OrthFunctor, validate_group_action
from sectorfact.reports import PreconditionError, ValidationReport, dump_json
from sectorfact.sectors import (
    CovarianceFamily,
    LocalizedEndo,
    MatrixAlg,
    SectorGroupData,
    _conjugation_tableau,
    _inverse_tableau,
    MatrixNet,
    action_laws_hold,
    check_haag_duality,
    check_localized,
    diamond,
    diamond_covariance,
    find_covariance,
    g_act_sector,
    identity_sector,
)
from test_sectors import _rotation_on_site, _x_type_net


def ad_equal(net, a, b):
    """Ad_a == Ad_b as maps on the global algebra (phase-insensitive).

    Deliberately independent of the library's scalar shortcut: conjugates
    every basis element of the global algebra."""
    return all(
        a @ m @ a.adjoint() == b @ m @ b.adjoint()
        for m in net.global_algebra().basis
    )


# -- implementation data -----------------------------------------------------------


def reference_composite(v, u_rho, u_dot, u_g):
    """The dense composite y_g v (u_g* ydot_g) v* of `diamond_covariance`
    for rho = Ad v, with y_g = u_rho and ydot_g = u_dot."""
    return u_rho @ v @ u_g.adjoint() @ u_dot @ v.adjoint()


def test_reflection_unitary_is_permutation(net4):
    u = reflection_unitary(4)
    assert u.is_unitary()
    assert u @ u == GMat.identity(16)


@pytest.mark.parametrize("L", range(1, 9))
def test_reflection_tableaux_match_the_dense_reflection(L):
    # built from the site permutation, checked against conjugating R
    data = qubit_reflection_data(qubit_net(L))
    r = reflection_unitary(L)
    assert data.tableaux["e"] == m_n_tableau(L, GMat.identity(1 << L))
    assert data.tableaux["r"] == m_n_tableau(L, r)
    ad_r, ad_r_inv = data._full_maps("r")
    rows = data._m_n.rows
    assert tuple(ad_r_inv[v] for _, v in rows) == m_n_tableau(L, r.adjoint())
    assert tuple(ad_r[v] for _, v in rows) == data.tableaux["r"]


def test_the_reflection_path_builds_no_matrix(monkeypatch, tmp_path):
    # qubit_reflection_data -> validate -> g_act_sector -> find_covariance
    # on a qubit net runs on tableaux alone, and so do the equivariance
    # campaigns on diagonal nets, whose collapse sector takes the
    # extension kernel once per g
    net = qubit_net(6)
    family = standard_sector_family(net)
    nets = []
    for L in range(4, 9):
        nets.append(tmp_path / f"bits{L}.json")
        nets[-1].write_text(json.dumps(net_to_json(diagonal_net(L))))

    def refuse(*args, **kwargs):
        raise AssertionError("a GMat was built")

    monkeypatch.setattr(GMat, "__init__", refuse)
    monkeypatch.setattr(GMat, "_monomial_of", staticmethod(refuse))
    data = qubit_reflection_data(net)
    report = data.validate()
    assert report.ok
    for sectors in family.values():
        for rho in sectors:
            moved = {g: g_act_sector(g, rho, data) for g in ("e", "r")}
            assert action_laws_hold(rho, moved, data, report.ok)
            assert find_covariance(rho, data).method == "inner"
    out = str(tmp_path / "report.json")
    for path in nets:
        for args in (["sectors", "equivariance"], ["operad", "algebra", "--equivariant", "--bound", "2"]):
            assert cli_main(args + ["--net", str(path), "--out", out]) == 0


def _clifford_samples(net):
    """The site reflection R, R P for every single-site Pauli P, R CZ(a, b)
    and CZ(a, b) for every pair of sites, and every P."""
    L, r = net.sites, reflection_unitary(net.sites)
    singles = [
        pauli_string(L, xb << (L - 1 - s), zb << (L - 1 - s))
        for s in range(L)
        for xb, zb in ((1, 0), (1, 1), (0, 1))
    ]
    czs = [entangler_unitary(net, a, b) for a, b in itertools.combinations(range(L), 2)]
    return [r] + [r @ p for p in singles] + [r @ cz for cz in czs] + czs + singles


@pytest.mark.parametrize("L", range(1, 5))
def test_inverse_tableau_matches_the_dense_adjoint(L):
    signed = 0
    for u in _clifford_samples(qubit_net(L)):
        inverse = _inverse_tableau(L, m_n_tableau(L, u))
        assert inverse == m_n_tableau(L, u.adjoint())
        signed += any(code & 1 for code in inverse)
    assert signed  # some inverse carries a sign, so the sign bits are compared


def test_inverse_tableau_refuses_dependent_images():
    # X0 and Z0 both sent to X0: no map of M_N with an inverse
    with pytest.raises(PreconditionError, match="dependent"):
        _inverse_tableau(1, (0b10 << 1, 0b10 << 1))


def test_from_unitaries_refuses_a_matrix_with_no_tableau(net4):
    action = qubit_reflection_data(net4).action
    with pytest.raises(PreconditionError, match="not unitary"):
        SectorGroupData.from_unitaries(net4, action, {"e": GMat.identity(16), "r": GMat.zero(16)})


def test_group_implementation_valid(z2_data):
    assert validate_group_action(z2_data.action).ok
    assert z2_data.validate().ok


def test_implementation_breaks_with_wrong_unitary(net4):
    data = qubit_reflection_data(net4)
    unitaries = {"e": GMat.identity(16), "r": pauli_unitary(pauli_sector(net4, "X", "[1,1]"))}
    broken = SectorGroupData.from_unitaries(net4, data.action, unitaries, name="broken")
    report = broken.validate()
    assert not report.ok
    assert any(v.axiom == "covariant-implementation" for v in report.violations)


# -- the action on sectors ----------------------------------------------------------


def test_action_moves_localization(net4, z2_data):
    rho = pauli_sector(net4, "X", "[1,1]")
    moved = g_act_sector("r", rho, z2_data)
    assert moved.region == "[4,4]"
    assert moved.same_map(pauli_sector(net4, "X", "[4,4]"))


def test_action_unit_law(net4, z2_data, family4):
    for sectors in family4.values():
        for rho in sectors:
            assert g_act_sector("e", rho, z2_data).same_map(rho)


def test_action_composition_law(net4, z2_data, family4):
    group = z2_data.action.group
    for sectors in family4.values():
        for rho in sectors:
            for g1 in group.elements:
                for g2 in group.elements:
                    stepwise = g_act_sector(g2, g_act_sector(g1, rho, z2_data), z2_data)
                    direct = g_act_sector(group.mult(g2, g1), rho, z2_data)
                    assert stepwise.same_map(direct)


def test_proved_action_laws_agree_with_the_walk(net4, z2_data, family4):
    assert z2_data.validate().ok
    for sectors in family4.values():
        for rho in sectors:
            moved = {g: g_act_sector(g, rho, z2_data) for g in ("e", "r")}
            assert action_laws_hold(rho, moved, z2_data, True)
            assert action_laws_hold(rho, moved, z2_data, False)


def test_action_laws_are_walked_when_the_implementation_fails(net4):
    # u_r = R CZ(0,1) squares to CZ(0,1) CZ(3,2), no scalar: validate
    # reports projective composition (r, r), next to the single sites it
    # does not map covariantly.  XX at [1,2] and its image YY at [3,4] are
    # localized, but r.(r.XX) is Ad Y0 Y1, not Ad X0 X1: the walked
    # composition law fails, and a proof without validate's verdict would
    # hide it
    u_r = reflection_unitary(4) @ entangler_unitary(net4, 0, 1)
    data = _z2_data(net4, GMat.identity(16), u_r)
    report = data.validate()
    assert [v.axiom for v in report.violations] == (
        ["covariant-implementation"] * 4 + ["projective-composition"]
    )
    assert report.violations[-1].witness == {"g1": "r", "g2": "r"}
    rho = pauli_sector(net4, "XX", "[1,2]")
    moved = {g: g_act_sector(g, rho, data) for g in ("e", "r")}
    assert moved["r"].region == "[3,4]"
    assert all(check_localized(m, net4).ok for m in moved.values())
    assert moved["e"].same_map(rho)
    assert not g_act_sector("r", moved["r"], data).same_map(rho)
    assert not action_laws_hold(rho, moved, data, report.ok)


def test_action_compatible_with_diamond(net4, z2_data):
    rho = pauli_sector(net4, "X", "[2,2]")
    sig = pauli_sector(net4, "Z", "[2,2]")
    lhs = g_act_sector("r", diamond(rho, sig), z2_data)
    rhs = diamond(
        g_act_sector("r", rho, z2_data), g_act_sector("r", sig, z2_data)
    )
    assert lhs.same_map(rhs)


def test_action_fixes_unit(net4, z2_data):
    one = identity_sector(net4, "[2,2]")
    moved = g_act_sector("r", one, z2_data)
    assert moved.same_map(identity_sector(net4, moved.region))


# -- covariance ---------------------------------------------------------------------


def test_identity_sector_covariant_with_reference_family(net4, z2_data):
    fam = find_covariance(identity_sector(net4, "[1,1]"), z2_data)
    assert fam is not None
    for g, u_g in reflection_unitaries(net4).items():
        assert fam.tableaux[g] == z2_data.tableaux[g] == m_n_tableau(4, u_g)


def test_inner_sector_family_form(net4, z2_data, family4):
    # the family u^rho_g = u u_g u* verifies for every bundled inner sector
    for sectors in family4.values():
        for rho in sectors:
            fam = find_covariance(rho, z2_data)
            assert fam is not None and fam.method == "inner"
            for g, u_g in reflection_unitaries(net4).items():
                expected = pauli_unitary(rho) @ u_g @ pauli_unitary(rho).adjoint()
                assert fam.tableaux[g] == m_n_tableau(4, expected)
                # the defining identity: rho Ad_{u_g} and Ad_{u^rho_g} rho
                # are conjugations by v u_g and u^rho_g v respectively
                assert ad_equal(net4, pauli_unitary(rho) @ u_g, expected @ pauli_unitary(rho))


def test_broken_symmetry_not_covariant(bits4):
    data = qubit_reflection_data(bits4)
    assert data.validate().ok
    rho = collapse_sector(bits4)
    assert check_localized(rho, bits4).ok
    assert find_covariance(rho, data) is None
    # the reflection maps [2,3] to itself, and the reset there commutes
    # with it: a family of affine basis permutations
    fam = find_covariance(collapse_sector(bits4, "[2,3]"), data)
    assert fam is not None and fam.method == "match"


def _diagonal_group_data(net):
    """The site reflection; the trivial group; and Z2 acting by identity
    functors, implemented by X at site 0, which flips the sign of every Z
    string with a letter there."""
    L, m_n = net.sites, MatrixAlg.full_on_sites(net.sites, range(net.sites))
    one = _conjugation_tableau(m_n, 0)
    same = OrthFunctor.identity_on(net.category)
    flip = GroupActionSpec(interval_reflection_action(net.category, L).group, {"e": same, "r": same})
    return [
        qubit_reflection_data(net),
        SectorGroupData(net, trivial_action(net.category), {"e": one}),
        SectorGroupData(net, flip, {"e": one, "r": _conjugation_tableau(m_n, 1 << (2 * L - 1))}),
    ]


@pytest.mark.parametrize("L", range(2, 7))
def test_diagonal_families_match_the_dense_matching(L):
    # on diagonal_net(L) every sector's verdict equals the dense matching's,
    # and every family found satisfies rho Ad u_g = Ad y_g rho on the global
    # rows.  Any GF(2)-linear map of the Z rows, with signs, is a
    # *-endomorphism of the commutative global algebra
    net, rng = diagonal_net(L), random.Random(L)
    sectors = [collapse_sector(net, f"[{k},{k + 1}]") for k in range(1, L)]
    sectors.append(identity_sector(net, "[1,1]"))
    for _ in range(12):
        tableau = tuple(rng.randrange(1 << L) << 1 | rng.randrange(2) for _ in range(L))
        sectors.append(LocalizedEndo(net, f"[1,{L}]", _tableau=tableau))
    verdicts = []
    for data in _diagonal_group_data(net):
        assert data.validate().ok
        for rho in sectors:
            fam = find_covariance(rho, data)
            assert (fam is None) == (dense_diagonal_family(rho, data) is None)
            verdicts.append(fam is not None)
            for g in () if fam is None else data.action.group.elements:
                y, image = _StringMap(L, data._m_n.rows, fam.tableaux[g]), data._full_maps(g)[0]
                for _, r in net.global_algebra().rows:
                    assert _chase((rho._map, y), r) == _chase((image, rho._map), r)
    assert any(verdicts) and not all(verdicts)


def _x_mirror(net):
    """The X-letter mirror of a diagonal net, the image of Hadamard on every
    site: each region gets the X-type strings on its sites."""
    L = net.sites
    overrides = {
        u: MatrixAlg(L, [1 << (L - 1 - s) << L for s in cells], name=f"X({u})")
        for u, cells in net.region_sites.items()
    }
    return MatrixNet(net.category, L, net.region_sites, overrides=overrides, name=f"x{net.name}")


@pytest.mark.parametrize("L", range(2, 7))
def test_collapse_verdicts_survive_the_hadamard_mirror(L):
    # Hadamard on every site commutes with the site reflection, so the
    # reset of each region is covariant on diagonal_net(L) exactly when
    # the reset of the X letters there is covariant on the mirror
    net = diagonal_net(L)
    mirror = _x_mirror(net)
    data, mirror_data = qubit_reflection_data(net), qubit_reflection_data(mirror)
    verdicts = []
    for u, cells in net.region_sites.items():
        keep = sum(1 << (L - 1 - s) for s in range(L) if s not in cells)
        reset = LocalizedEndo(mirror, u, _tableau=tuple((r & keep << L) << 1 for _, r in mirror.global_algebra().rows))
        verdict = find_covariance(collapse_sector(net, u), data) is not None
        assert (find_covariance(reset, mirror_data) is not None) == verdict
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def _z2_fixed_point_net(L=4):
    """qubit_net(L) cut down to the strings with an even number of Z or Y
    letters in each region, those that commute with X on all its sites:
    spanned by X at each site and Z Z at each pair of neighbours."""
    base, bit = qubit_net(L, name=f"z2fix{L}"), lambda s: 1 << (L - 1 - s)
    overrides = {
        u: MatrixAlg(L, [bit(s) << L for s in cells] + [bit(s) | bit(s + 1) for s in cells if s + 1 in cells])
        for u, cells in base.region_sites.items()
    }
    return MatrixNet(base.category, L, base.region_sites, overrides=overrides, name=base.name)


def test_z2_fixed_point_net_has_covariant_sectors_that_extend():
    net = _z2_fixed_point_net()
    assert net.validate().ok
    assert net.global_algebra().dim == 128 and net.global_commutant().dim == 2
    haag = {u: check_haag_duality(net, u) for u in net.category.objects if net.orth_partners(u)}
    assert not any(r["holds"] for r in haag.values())
    assert [(haag[u]["lhs_dim"], haag[u]["rhs_dim"]) for u in ("[1,1]", "[2,3]")] == [(2, 8), (8, 64)]
    data = qubit_reflection_data(net)
    assert data.validate().ok
    # Ad Z at site 2 is a Pauli conjugation, though Z there lies outside
    # the global algebra; the restricted reflection is none, and extends
    z = pauli_sector(net, "Z", "[2,2]")
    assert check_localized(z, net).ok and not net.global_algebra()._spans(z.pauli_mask())
    reflection = data._conjugation("r")[0]
    assert reflection.pauli_mask() is None
    fam, famz = find_covariance(reflection, data), find_covariance(z, data)
    assert (fam.method, famz.method) == ("extension", "inner")
    for g in ("e", "r"):
        y, image = _StringMap(4, data._m_n.rows, fam.tableaux[g]), data._full_maps(g)[0]
        for _, r in net.global_algebra().rows:
            assert _chase((reflection._map, y), r) == _chase((image, reflection._map), r)
    for pair in ((reflection, z, fam, famz), (z, reflection, famz, fam)):
        assert diamond_covariance(*pair, data).method == "composite"


# -- composite families ------------------------------------------------------------------


def test_composite_family_two_sites(net4, z2_data):
    rho = pauli_sector(net4, "X", "[1,1]").relabel("[1,2]")
    sig = pauli_sector(net4, "X", "[2,2]").relabel("[1,2]")
    fam = find_covariance(rho, z2_data)
    famdot = find_covariance(sig, z2_data)
    joint = diamond_covariance(rho, sig, fam, famdot, z2_data)
    # independent solve confirms the composite is a covariance family
    prod = diamond(rho, sig)
    direct = find_covariance(prod, z2_data)
    assert direct is not None
    v, w = pauli_unitary(rho), pauli_unitary(sig)
    for g, u_g in reflection_unitaries(net4).items():
        assert joint.tableaux[g] == direct.tableaux[g]
        dense = reference_composite(v, v @ u_g @ v.adjoint(), w @ u_g @ w.adjoint(), u_g)
        assert joint.tableaux[g] == m_n_tableau(4, dense)


def test_composite_with_identity_returns_family(net4, z2_data):
    rho = pauli_sector(net4, "X", "[1,1]")
    one = identity_sector(net4, "[1,1]")
    fam = find_covariance(rho, z2_data)
    fam_one = find_covariance(one, z2_data)
    joint = diamond_covariance(rho, one, fam, fam_one, z2_data)
    assert joint.tableaux == fam.tableaux


def test_covariant_sectors_closed_under_product(net4, z2_data, family4):
    # the composite of two verified families is again a verified family
    rho = family4["[2,2]"][0].relabel("[2,3]")
    sig = family4["[3,3]"][1].relabel("[2,3]")
    fam = find_covariance(rho, z2_data)
    famdot = find_covariance(sig, z2_data)
    joint = diamond_covariance(rho, sig, fam, famdot, z2_data)
    prod = diamond(rho, sig)
    v, w = pauli_unitary(rho), pauli_unitary(sig)
    for g, u_g in reflection_unitaries(net4).items():
        u = reference_composite(v, v @ u_g @ v.adjoint(), w @ u_g @ w.adjoint(), u_g)
        assert joint.tableaux[g] == m_n_tableau(4, u)
        for m in net4.global_algebra().basis:
            lhs = prod.apply(u_g @ m @ u_g.adjoint())
            rhs = u @ prod.apply(m) @ u.adjoint()
            assert lhs == rhs


def test_composite_family_on_a_diagonal_global_algebra(bits4):
    # the bridge u_g* u_dot of two X sectors under the reflection is no
    # diagonal matrix, so rho(bridge) lies outside the global algebra and is
    # read from rho's extension Ad P(a) to M_N
    data = qubit_reflection_data(bits4)
    assert data.validate().ok
    x1, x2 = (pauli_sector(bits4, "X", u).relabel("[1,2]") for u in ("[1,1]", "[2,2]"))
    for rho, sig in ((x1, x2), (x2, x1)):
        fam, famdot = find_covariance(rho, data), find_covariance(sig, data)
        joint = diamond_covariance(rho, sig, fam, famdot, data)
        prod = diamond(rho, sig)
        v, w = pauli_unitary(rho), pauli_unitary(sig)
        for g, u_g in reflection_unitaries(bits4).items():
            y = reference_composite(v, v @ u_g @ v.adjoint(), w @ u_g @ w.adjoint(), u_g)
            assert joint.tableaux[g] == m_n_tableau(4, y)
            for m in bits4.global_algebra().basis:
                assert prod.apply(u_g @ m @ u_g.adjoint()) == y @ prod.apply(m) @ y.adjoint()


def test_derived_sectors_keep_their_implementing_unitary(bits4):
    # a product, transport or g-image of Pauli conjugations is one again, so
    # its string is derived from its tableau and the inner family, the
    # translated pattern and the composite family reach it
    from sectorfact.linalg import pauli_string
    from sectorfact.sectors import check_transportable

    data = qubit_reflection_data(bits4)
    x1, x2, x3 = (pauli_sector(bits4, "X", f"[{k},{k}]") for k in (1, 2, 3))
    pair = diamond(x1.relabel("[1,2]"), x2.relabel("[1,2]"))
    x1x2 = pauli_string(4, 0b1100, 0)
    assert ad_equal(bits4, pauli_unitary(pair), x1x2)
    moved = g_act_sector("r", pair, data)
    u_r = reflection_unitary(4)
    assert ad_equal(bits4, pauli_unitary(moved), u_r @ x1x2 @ u_r.adjoint()) and moved.region == "[3,4]"
    report = check_transportable(pair, "[3,4]", bits4)
    assert report.found and report.transporter_label == "translated-pattern"
    assert ad_equal(bits4, pauli_unitary(report.transported), pauli_string(4, 0b0011, 0))
    assert report.transported.same_map(pauli_sector(bits4, "XX", "[3,4]"))
    fam = find_covariance(pair, data)
    assert fam.method == "inner"
    triple = pair.relabel("[1,3]")
    sig = x3.relabel("[1,3]")
    joint = diamond_covariance(triple, sig, fam, find_covariance(sig, data), data)
    prod = diamond(triple, sig)
    v, w = pauli_unitary(triple), pauli_unitary(sig)
    for g, u_g in reflection_unitaries(bits4).items():
        y = reference_composite(v, v @ u_g @ v.adjoint(), w @ u_g @ w.adjoint(), u_g)
        assert joint.tableaux[g] == m_n_tableau(4, y)
        for m in bits4.global_algebra().basis:
            assert prod.apply(u_g @ m @ u_g.adjoint()) == y @ prod.apply(m) @ y.adjoint()
    # the collapse is no Pauli conjugation, and neither is its product
    assert pauli_unitary(diamond(collapse_sector(bits4), pair)) is None


def test_composite_family_with_a_diagonal_match_factor(bits4):
    # the reset at [2,3] has only a match family, and rho = X at
    # [2,2] extends to M_N, so their composite is a family of the product
    data = qubit_reflection_data(bits4)
    x, reset = pauli_sector(bits4, "X", "[2,2]"), collapse_sector(bits4, "[2,3]")
    fam, famdot = find_covariance(x, data), find_covariance(reset, data)
    assert (fam.method, famdot.method) == ("inner", "match")
    joint = diamond_covariance(x, reset, fam, famdot, data)
    assert joint.method == "composite"
    prod = diamond(x, reset, region="[2,3]")
    for g in ("e", "r"):
        y, image = _StringMap(4, data._m_n.rows, joint.tableaux[g]), data._full_maps(g)[0]
        for _, r in bits4.global_algebra().rows:
            assert _chase((prod._map, y), r) == _chase((image, prod._map), r)
    # the reset has no extension to M_N, so no composite starts from it
    with pytest.raises(PreconditionError, match=r"no composite family for reset@\[2,3\] without tableaux on M_N"):
        diamond_covariance(reset, x, famdot, fam, data)


def test_covariance_chain_probe_shifted_family(net4, z2_data):
    # X at site 1 lies outside the trivial global commutant, so shifting a
    # family entry by it must break the chain where that entry enters
    from sectorfact.linalg import pauli_string

    rho = pauli_sector(net4, "X", "[1,1]").relabel("[1,2]")
    sig = pauli_sector(net4, "Z", "[2,2]").relabel("[1,2]")
    fam, famdot = find_covariance(rho, z2_data), find_covariance(sig, z2_data)
    diamond_covariance(rho, sig, fam, famdot, z2_data)
    m_n = z2_data._m_n
    shift = _StringMap(4, m_n.rows, _conjugation_tableau(m_n, 0b0100 << 4))

    def shifted(f):
        # the tableau of Ad (X1 y_r)
        tableaux = {**f.tableaux, "r": tuple(shift[c >> 1] ^ (c & 1) for c in f.tableaux["r"])}
        return CovarianceFamily(f.sector, f.method, tableaux)

    with pytest.raises(PreconditionError, match="chain broke at step 2 for r"):
        diamond_covariance(rho, sig, shifted(fam), famdot, z2_data)
    with pytest.raises(PreconditionError, match="chain broke at step 0 for r"):
        diamond_covariance(rho, sig, fam, shifted(famdot), z2_data)


def test_transformed_sector_covariant(net4, z2_data, family4):
    # g |> rho admits the transformed family: covariance survives the action
    rho = family4["[1,1]"][0]
    moved = g_act_sector("r", rho, z2_data)
    assert find_covariance(moved, z2_data) is not None


# -- image-built sectors and the adjoint-action test ---------------------------------------


def test_image_sector_action_and_covariance(net2):
    from sectorfact.sectors import LocalizedEndo

    data = qubit_reflection_data(net2)
    glob = net2.global_algebra()
    for letter in "XZ":
        inner = pauli_sector(net2, letter, "[1,1]")
        image = LocalizedEndo(net2, "[1,1]", images=[inner.apply(a) for a in glob.basis])
        moved, moved_inner = g_act_sector("r", image, data), g_act_sector("r", inner, data)
        # the tableau is all either holds, so both derive one string
        assert ad_equal(net2, pauli_unitary(moved), pauli_unitary(moved_inner))
        assert moved.region == moved_inner.region == "[2,2]"
        assert moved.same_map(moved_inner) and moved_inner.same_map(moved)
        fam = find_covariance(image, data)
        assert fam is not None and fam.method == "inner"
        v = pauli_unitary(inner)
        for g, u_g in reflection_unitaries(net2).items():
            y = v @ u_g @ v.adjoint()
            assert fam.tableaux[g] == m_n_tableau(2, y)
            for a in glob.basis:
                assert image.apply(u_g @ a @ u_g.adjoint()) @ y == y @ image.apply(a)


def test_ad_equal_on_a_diagonal_global_algebra(bits4):
    from sectorfact.linalg import pauli_string
    from sectorfact.sectors import LocalizedEndo

    assert bits4.global_algebra().dim == 16  # the diagonal of M_16
    z_type = [pauli_string(4, 0, z) for z in (0, 0b1000, 0b0110, 0b1111)]
    z_type.append(entangler_unitary(bits4, 1, 2))
    x_type = [pauli_string(4, x, 0) for x in (0b1000, 0b0100, 0b0011)]
    x_type.append(pauli_string(4, 0b1000, 0b0001))
    ad = {id(u): LocalizedEndo(bits4, "[1,1]", unitary=u) for u in z_type + x_type}

    def same(a, b):
        return ad[id(a)].same_map(ad[id(b)])

    outcomes = set()
    for a in z_type + x_type:
        for b in z_type + x_type:
            want = ad_equal(bits4, a, b)
            assert same(a, b) == want
            outcomes.add(want)
    assert outcomes == {True, False}
    # Z-type unitaries commute with the diagonal; distinct X parts do not agree
    assert all(same(a, b) for a in z_type for b in z_type)
    assert not same(x_type[0], x_type[1])
    assert same(x_type[0], x_type[3])


# -- the tableau validate against the dense oracle ------------------------------------------


def reference_group_validate(self, unitaries):
    """`SectorGroupData.validate` as it was before it decided on tableaux,
    verbatim but for reading the matrices from `unitaries`: the dense
    `GMat` oracle of the implementation axioms."""
    report = ValidationReport(check="group-implementation", subject=self.name)
    group = self.action.group
    unit = group.unit()
    for g in group.elements:
        u = unitaries.get(g)
        if u is None:
            report.schema_errors.append(f"missing unitary for {g}")
            continue
        if not u.is_unitary():
            report.add("unitary", {"g": g})
    if report.schema_errors or report.violations:
        return report
    u_e = unitaries[unit]
    if any(u_e @ m != m @ u_e for m in self.net.global_algebra().generators):
        report.add("unit-implementation", {"g": unit})
    for g in group.elements:
        u = unitaries[g]
        functor = self.action.action[g]
        for region in self.net.category.objects:
            img = functor.apply_obj(region)
            alg = self.net.algebra(region)
            target = self.net.algebra(img)
            for m in alg.generators:
                if not target.contains(u @ m @ u.adjoint()):
                    report.add(
                        "covariant-implementation", {"g": g, "region": region}
                    )
                    break
    for g1 in group.elements:
        for g2 in group.elements:
            u12 = unitaries[g1] @ unitaries[g2]
            uprod = unitaries[group.mult(g1, g2)]
            phase = scalar_multiple_of_identity(uprod.adjoint() @ u12)
            if phase is None:
                report.add("projective-composition", {"g1": g1, "g2": g2})
    if report.ok:
        action = validate_group_action(self.action)
        report.schema_errors, report.violations = action.schema_errors, action.violations
    return report


def _z2_data(net, u_e, u_r, reflect=True):
    """Z2 implemented by u_e and u_r, acting on the regions by the site
    reflection, or by identity functors."""
    action = interval_reflection_action(net.category, net.sites)
    if not reflect:
        same = OrthFunctor.identity_on(net.category)
        action = GroupActionSpec(action.group, {"e": same, "r": same}, name="Z2|identity")
    return SectorGroupData.from_unitaries(net, action, {"e": u_e, "r": u_r}, name=f"Z2|{net.name}")


def _clifford_implementations(net):
    """(u_e, u_r) pairs: u_e the identity or a Pauli at site 0; u_r any of
    `_clifford_samples`."""
    L = net.sites
    site0 = [pauli_string(L, xb << (L - 1), zb << (L - 1)) for xb, zb in ((1, 0), (1, 1), (0, 1))]
    return [(u_e, u_r) for u_e in [GMat.identity(net.n)] + site0 for u_r in _clifford_samples(net)]


@pytest.mark.parametrize(
    "net",
    [qubit_net(2), qubit_net(3), qubit_net(4), diagonal_net(4), _x_type_net()],
    ids=["qubit2", "qubit3", "qubit4", "bits4", "xbits2"],
)
def test_group_validate_matches_the_dense_oracle(net):
    failing = set()
    for u_e, u_r in _clifford_implementations(net):
        for reflect in (True, False):
            data = _z2_data(net, u_e, u_r, reflect)
            got = data.validate()
            want = reference_group_validate(data, {"e": u_e, "r": u_r})
            assert dump_json(got.to_dict()) == dump_json(want.to_dict())
            failing |= {v.axiom for v in got.violations}
    # every axiom is seen to fail somewhere, so no comparison is vacuous
    assert {"unit-implementation", "covariant-implementation",
            "projective-composition"} <= failing


def test_projective_composition_is_decided_on_m_n(bits4):
    # (R CZ(0,1))^2 = CZ(0,1) CZ(3,2) fixes the diagonal global algebra but
    # is no scalar: only the comparison on all of M_N sees it
    u_r = reflection_unitary(4) @ entangler_unitary(bits4, 0, 1)
    square = u_r @ u_r
    assert all(square @ m == m @ square for m in bits4.global_algebra().generators)
    assert scalar_multiple_of_identity(square) is None
    data = _z2_data(bits4, GMat.identity(16), u_r)
    report = data.validate()
    assert [v.to_dict() for v in report.violations] == [
        {"axiom": "projective-composition", "witness": {"g1": "r", "g2": "r"}}
    ]
    want = reference_group_validate(data, {"e": GMat.identity(16), "r": u_r})
    assert dump_json(report.to_dict()) == dump_json(want.to_dict())


def test_a_pauli_unit_breaks_the_unit_and_the_compositions(net4):
    # Ad X0 keeps every local algebra but flips the signs of Z0 and Y0
    unitaries = {"e": pauli_string(4, 0b1000, 0), "r": reflection_unitary(4)}
    data = _z2_data(net4, unitaries["e"], unitaries["r"])
    report = data.validate()
    assert [v.axiom for v in report.violations] == (
        ["unit-implementation"] + ["projective-composition"] * 4
    )
    assert dump_json(report.to_dict()) == dump_json(reference_group_validate(data, unitaries).to_dict())


def test_a_non_clifford_implementation_is_refused(net4):
    # R (rot0 (x) rot3*) implements the reflection and squares to 1, so the
    # dense oracle accepts it; it sends Z0 to no signed string, so it has no
    # tableau and no group data is built from it
    u_r = reflection_unitary(4) @ _rotation_on_site(net4, 0) @ _rotation_on_site(net4, 3).adjoint()
    unitaries = {"e": GMat.identity(16), "r": u_r}
    action = interval_reflection_action(net4.category, 4)
    assert reference_group_validate(SectorGroupData(net4, action, {}), unitaries).ok
    with pytest.raises(PreconditionError, match="not a signed Pauli string"):
        SectorGroupData.from_unitaries(net4, action, unitaries)
