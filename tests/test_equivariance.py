import pytest

from sectorfact.fixtures import (
    collapse_sector,
    pauli_sector,
    qubit_reflection_data,
    reflection_unitary,
)
from sectorfact.linalg import GMat
from sectorfact.orthcat import validate_group_action
from sectorfact.reports import PreconditionError
from sectorfact.sectors import (
    CovarianceFamily,
    SectorGroupData,
    check_localized,
    diamond,
    diamond_covariance,
    find_covariance,
    g_act_sector,
    identity_sector,
)


def ad_equal(net, a, b):
    """Ad_a == Ad_b as maps on the global algebra (phase-insensitive).

    Deliberately independent of the library's scalar shortcut: conjugates
    every basis element of the global algebra."""
    return all(
        a @ m @ a.adjoint() == b @ m @ b.adjoint()
        for m in net.global_algebra().basis
    )


# -- implementation data -----------------------------------------------------------


def test_reflection_unitary_is_permutation(net4):
    u = reflection_unitary(4)
    assert u.is_unitary()
    assert u @ u == GMat.identity(16)


def test_group_implementation_valid(z2_data):
    assert validate_group_action(z2_data.action).ok
    assert z2_data.validate().ok


def test_implementation_breaks_with_wrong_unitary(net4):
    data = qubit_reflection_data(net4)
    broken = SectorGroupData(
        net=net4,
        action=data.action,
        unitaries={"e": GMat.identity(16), "r": pauli_sector(net4, "X", "[1,1]").unitary},
        name="broken",
    )
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
    for g in z2_data.action.group.elements:
        assert ad_equal(net4, fam.unitaries[g], z2_data.unitaries[g])


def test_inner_sector_family_form(net4, z2_data, family4):
    # the family u^rho_g = u u_g u* verifies for every bundled inner sector
    for sectors in family4.values():
        for rho in sectors:
            fam = find_covariance(rho, z2_data)
            assert fam is not None and fam.method == "inner"
            for g in z2_data.action.group.elements:
                expected = rho.unitary @ z2_data.unitaries[g] @ rho.unitary.adjoint()
                assert fam.unitaries[g] == expected
                # the defining identity: rho Ad_{u_g} and Ad_{u^rho_g} rho
                # are conjugations by v u_g and u^rho_g v respectively
                assert ad_equal(
                    net4,
                    rho.unitary @ z2_data.unitaries[g],
                    fam.unitaries[g] @ rho.unitary,
                )


def test_broken_symmetry_not_covariant(bits4):
    data = qubit_reflection_data(bits4)
    assert data.validate().ok
    rho = collapse_sector(bits4)
    assert check_localized(rho, bits4).ok
    assert find_covariance(rho, data) is None


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
    for g in z2_data.action.group.elements:
        assert ad_equal(net4, joint.unitaries[g], direct.unitaries[g])


def test_composite_with_identity_returns_family(net4, z2_data):
    rho = pauli_sector(net4, "X", "[1,1]")
    one = identity_sector(net4, "[1,1]")
    fam = find_covariance(rho, z2_data)
    fam_one = find_covariance(one, z2_data)
    joint = diamond_covariance(rho, one, fam, fam_one, z2_data)
    for g in z2_data.action.group.elements:
        assert ad_equal(net4, joint.unitaries[g], fam.unitaries[g])


def test_covariant_sectors_closed_under_product(net4, z2_data, family4):
    # the composite of two verified families is again a verified family
    rho = family4["[2,2]"][0].relabel("[2,3]")
    sig = family4["[3,3]"][1].relabel("[2,3]")
    fam = find_covariance(rho, z2_data)
    famdot = find_covariance(sig, z2_data)
    joint = diamond_covariance(rho, sig, fam, famdot, z2_data)
    prod = diamond(rho, sig)
    for g in z2_data.action.group.elements:
        u = joint.unitaries[g]
        for m in net4.global_algebra().basis:
            lhs = prod.apply(z2_data.unitaries[g] @ m @ z2_data.unitaries[g].adjoint())
            rhs = u @ prod.apply(m) @ u.adjoint()
            assert lhs == rhs


def test_covariance_chain_probe_shifted_family(net4, z2_data):
    # X at site 1 lies outside the trivial global commutant, so shifting a
    # family entry by it must break the chain where that entry enters
    from sectorfact.linalg import pauli_string

    rho = pauli_sector(net4, "X", "[1,1]").relabel("[1,2]")
    sig = pauli_sector(net4, "Z", "[2,2]").relabel("[1,2]")
    fam, famdot = find_covariance(rho, z2_data), find_covariance(sig, z2_data)
    diamond_covariance(rho, sig, fam, famdot, z2_data)
    shift = pauli_string(4, 0b0100, 0)

    def shifted(f):
        return CovarianceFamily(f.sector, {**f.unitaries, "r": shift @ f.unitaries["r"]}, f.method)

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
        assert moved.unitary is None
        assert moved.region == moved_inner.region == "[2,2]"
        assert moved.same_map(moved_inner) and moved_inner.same_map(moved)
        fam = find_covariance(image, data)
        assert fam is not None and fam.method == "twirl"
        for g, u_g in data.unitaries.items():
            y = fam.unitaries[g]
            assert y.is_unitary()
            for a in glob.basis:
                assert image.apply(u_g @ a @ u_g.adjoint()) @ y == y @ image.apply(a)


def test_ad_equal_on_a_diagonal_global_algebra(bits4):
    from sectorfact.fixtures import entangler_unitary
    from sectorfact.linalg import pauli_string
    from sectorfact.sectors import _ad_equal

    assert bits4.global_algebra().dim == 16  # the diagonal of M_16
    z_type = [pauli_string(4, 0, z) for z in (0, 0b1000, 0b0110, 0b1111)]
    z_type.append(entangler_unitary(bits4, 1, 2))
    x_type = [pauli_string(4, x, 0) for x in (0b1000, 0b0100, 0b0011)]
    x_type.append(pauli_string(4, 0b1000, 0b0001))
    outcomes = set()
    for a in z_type + x_type:
        for b in z_type + x_type:
            want = ad_equal(bits4, a, b)
            assert _ad_equal(bits4, a, b) == want
            outcomes.add(want)
    assert outcomes == {True, False}
    # Z-type unitaries commute with the diagonal; distinct X parts do not agree
    assert all(_ad_equal(bits4, a, b) for a in z_type for b in z_type)
    assert not _ad_equal(bits4, x_type[0], x_type[1])
    assert _ad_equal(bits4, x_type[0], x_type[3])
