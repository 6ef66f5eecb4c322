import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorfact.fixtures import (
    collapse_sector,
    diagonal_net,
    entangler_unitary,
    pauli_sector,
    qubit_net,
    qubit_reflection_data,
    reflection_unitary,
    standard_sector_family,
)
import sectorfact.fixtures as fixtures_module
import sectorfact.linalg as linalg_module
import sectorfact.sectors as sectors_module
from sectorfact.linalg import (
    GMat,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    as_pauli_string,
    nullspace,
    pauli_coefficients,
    pauli_commute,
    pauli_mask_span,
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
    _ad_equal,
    _solve_intertwiner,
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


def test_commutant_of_non_string_algebra():
    # projections onto the two coordinates span an abelian algebra with no
    # string basis; a MatrixAlg is a string algebra, so it is refused
    e00 = GMat(2, {(0, 0): GR_ONE})
    e11 = GMat(2, {(1, 1): GR_ONE})
    with pytest.raises(SchemaError, match="not a scaled Pauli string"):
        MatrixAlg(2, [e00, e11], name="diag")


def test_bicommutant_fixtures(net4):
    for region in net4.category.objects:
        alg = net4.algebra(region)
        assert span_equal(bicommutant(alg), alg)
    diag = MatrixAlg.diagonal_on_sites(1, [0])
    assert span_equal(bicommutant(diag), diag)
    scalars = MatrixAlg.pauli_span(2, [(0, 0)])
    assert span_equal(bicommutant(scalars), scalars)


def test_bicommutant_check_detects_corrupted_commutant(monkeypatch):
    # corruption probe: a commutant that loses one basis element must make
    # the double-commutant check fail loudly
    import sectorfact.sectors as sectors

    real = sectors.commutant

    def corrupted(alg):
        out = real(alg)
        return MatrixAlg(out.n, out.basis[:-1], validate=False, name=out.name)

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
        "    return sectors.MatrixAlg(out.n, out.basis[:-1], validate=False)\n"
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


def _random_mask_subgroup(rng, L):
    gens = [
        (rng.randrange(1 << L), rng.randrange(1 << L))
        for _ in range(rng.randint(1, 3))
    ]
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
        "bad", regions, lambda s1, s2, _t: len(s1 & s2) <= 1
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
    cat = poset_orth_category("noorth", regions, lambda s1, s2, _t: False)
    net = MatrixNet(category=cat, sites=2, region_sites=regions, name="noorth")
    assert check_perp_commutativity(net).ok


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
    """The `GMat` loop that `check_localized` runs for unmasked sectors, run
    on every sector: the oracle of the mask branch."""
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


def test_check_localized_matches_the_matrix_loop(localization_cases):
    want = _localization_reports(reference_check_localized, localization_cases)
    assert _localization_reports(check_localized, localization_cases) == want
    failing = [
        rho.mask for (_, rho), report in zip(localization_cases, want) if '"basis_index"' in report
    ]
    # both branches are exercised, and masked sectors fail at several indices
    assert any(m is None for m in failing) and sum(m is not None for m in failing) >= 4


def test_check_localized_probes(monkeypatch, localization_cases):
    masked = [(net, rho) for net, rho in localization_cases if rho.mask is not None]
    want = _localization_reports(reference_check_localized, masked)
    with monkeypatch.context() as m:
        # the masks in set order, not in the order of `basis`
        m.setattr(sectors_module, "sorted", lambda xs: list(xs), raising=False)
        assert _localization_reports(check_localized, masked) != want
    with monkeypatch.context() as m:
        m.setattr(sectors_module, "pauli_commute", lambda *masks: not pauli_commute(*masks))
        assert _localization_reports(check_localized, masked) != want


# -- transport ----------------------------------------------------------------------------------


def test_transport_single_site(net4):
    rho = pauli_sector(net4, "X", "[1,1]")
    report = check_transportable(rho, "[3,3]", net4)
    assert report.found
    # v = u' u* for the same pattern at the target site
    expected = pauli_string(4, 0b0010, 0) @ pauli_string(4, 0b1000, 0).adjoint()
    assert report.transporter == expected
    assert check_localized(report.transported, net4).ok


def test_transport_identity(net4):
    report = check_transportable(identity_sector(net4, "[1,1]"), "[4,4]", net4)
    assert report.found
    assert report.transporter_label == "identity"


def test_transport_not_found(net4):
    # an entangler admits no transporter within the searched family
    rho = LocalizedEndo(net4, "[1,2]", unitary=entangler_unitary(net4, 0, 1), label="CZ12")
    report = check_transportable(rho, "[3,4]", net4)
    assert not report.found


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
    uw = rho.unitary @ sig.unitary
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
    return Intertwiner(a, b, b.unitary @ a.unitary.adjoint())


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
        Intertwiner(rho, rho, far.unitary)


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
        prod = (y @ y.adjoint()).scalar_multiple_of_identity()
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
    alg = MatrixAlg.pauli_span(L, pauli_mask_span(L, draw(st.lists(masks, max_size=3))))
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
    assert pauli_mask_span(alg.L, masks) == alg.masks()


def test_contains_on_the_span_of_i_and_x():
    i2, x, z = GMat.identity(2), pauli_string(1, 1, 0), pauli_string(1, 0, 1)
    alg = MatrixAlg(2, [i2, x])
    assert alg.dim == 2
    assert alg.contains(i2 + x.scale(GaussianRational.of(7)))
    assert alg.contains(x.scale(GR_I))
    assert not alg.contains(z)
    with pytest.raises(SchemaError, match="linearly dependent"):
        MatrixAlg(2, [i2, x, x.scale(GR_I)])


def _assert_membership_verdicts(bits4, rho):
    ident = GMat.identity(bits4.n)
    # the reset sector is intertwined with itself by Z and by X at site 0,
    # but only Z lies in the abelian local algebra
    Intertwiner(rho, rho, pauli_string(4, 0, 0b1000))
    with pytest.raises(PreconditionError, match="leaves the local algebra"):
        Intertwiner(rho, rho, pauli_string(4, 0b1000, 0))
    # CZ lies in the diagonal commutant but is not a string
    if not _ad_equal(bits4, ident, entangler_unitary(bits4, 1, 2)):
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
        for module in (linalg_module, sectors_module, fixtures_module)
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
    assert [b.call_count for b in built] == [0, 0, 0]


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
    # an X-only algebra is neither "full" nor "diagonal"
    with pytest.raises(SchemaError, match="neither full nor diagonal"):
        net_to_json(q3_with(MatrixAlg.pauli_span(3, [(0, 0), (4, 0)])))
    # orthogonality that depends on the target is no set of region pairs
    regions = {"a": frozenset({0}), "b": frozenset({1}), "ab": frozenset({0, 1}),
               "abc": frozenset({0, 1, 2})}
    narrow = poset_orth_category(
        "narrow", regions, lambda s1, s2, tgt: not (s1 & s2) and len(tgt) == 2
    )
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
    for masks in (not_closed, no_identity):
        with pytest.raises(SchemaError):
            MatrixAlg.pauli_span(1, masks)
        with pytest.raises(SchemaError):
            MatrixAlg(2, [pauli_string(1, x, z) for x, z in masks])
    with pytest.raises(SchemaError):
        MatrixAlg.pauli_span(2, [(0, 0), (1, 0), (2, 0)])  # (3, 0) missing


def test_unclosed_mask_sets_are_rejected():
    _assert_rejects_unclosed()
    assert MatrixAlg.pauli_span(1, [(0, 0), (1, 0), (0, 1), (1, 1)]).dim == 4


def test_unclosed_mask_check_can_fail(monkeypatch):
    # corruption probe: a closure helper that returns its input unchanged
    # must let a non-closed mask set through
    import sectorfact.sectors as sectors

    monkeypatch.setattr(sectors, "pauli_mask_span", lambda L, masks: set(masks))
    with pytest.raises(pytest.fail.Exception):
        _assert_rejects_unclosed()


def test_algebra_lookups_built_once():
    alg = qubit_net(4).algebra("[2,3]")
    assert isinstance(alg.masks(), frozenset) and alg.masks() is alg.masks()
    with mock.patch.object(sectors_module, "pauli_string", wraps=pauli_string) as built:
        assert alg.basis is alg.basis
    assert built.call_count == alg.dim == 16


def test_global_algebra_of_six_sites():
    assert qubit_net(6).global_algebra().dim == 4096


# -- the net layer: every region algebra is a string algebra ------------------------------


def test_net_rejects_non_string_override():
    base = qubit_net(2)
    cz = entangler_unitary(base, 0, 1)
    with pytest.raises(SchemaError, match="not a scaled Pauli string"):
        MatrixAlg(4, [GMat.identity(4), cz], name="CZ")
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
    assert ix.unitary is None and iz.unitary is None
    for inner, image in ((x, ix), (z, iz)):
        assert image.same_map(inner) and inner.same_map(image)
    assert not ix.same_map(iz) and not iz.same_map(x)
    prod = diamond(ix, iz)
    assert prod.unitary is None and prod.region == "[1,1]"
    assert prod.same_map(diamond(x, z)) and diamond(x, z).same_map(prod)


def test_image_sector_transport_with_inner_transporter(net2):
    x = pauli_sector(net2, "X", "[1,1]")
    inner = check_transportable(x, "[2,2]", net2)
    assert inner.found and inner.transporter_label == "translated-pattern"
    got = check_transportable(_image_sector(x), "[2,2]", net2, [("inner", inner.transporter)])
    assert got.found and got.transporter_label == "inner"
    assert got.transported.unitary is None and got.transported.region == "[2,2]"
    assert got.transported.same_map(inner.transported)
    # without the candidate only the identity is tried, which leaves X on site 0
    assert not check_transportable(_image_sector(x), "[2,2]", net2).found


# -- image-built sectors: the homomorphism check and covariance -------------------------


def reference_is_homomorphism(rho):
    """The full-basis check `_check_homomorphism` made before it moved to
    the generators: images in the global algebra, unital, and adjoints and
    products on every pair of basis strings."""
    glob = rho.net.global_algebra()
    return (
        all(glob.contains(rho.apply(a)) for a in glob.basis)
        and rho.apply(GMat.identity(rho.net.n)).is_identity()
        and all(rho.apply(a.adjoint()) == rho.apply(a).adjoint() for a in glob.basis)
        and all(
            rho.apply(a @ b) == rho.apply(a) @ rho.apply(b)
            for a in glob.basis
            for b in glob.basis
        )
    )


def _rebuilt(rho, images):
    """An unvalidated copy of rho with the given basis images, and whether
    the generator check accepts it."""
    out = LocalizedEndo(rho.net, rho.region, images=images, validate=False)
    try:
        out._check_homomorphism()
    except PreconditionError:
        return out, False
    return out, True


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["X", "Y", "Z"]),
    st.dictionaries(st.integers(0, 15), st.sampled_from(_UNITS), max_size=3),
)
def test_homomorphism_check_matches_the_full_basis(letter, phases):
    # a phase on some basis images keeps every image a string, so only
    # unitality, adjoints or products can break
    rho = _image_sector(pauli_sector(qubit_net(2), letter, "[1,1]"))
    images = [rho.apply(a) for a in rho.net.global_algebra().basis]
    for i, c in phases.items():
        images[i] = images[i].scale(c)
    out, accepted = _rebuilt(rho, images)
    assert accepted == reference_is_homomorphism(out)


def test_homomorphism_check_probes(net2):
    rho = _image_sector(pauli_sector(net2, "X", "[1,1]"))
    glob = net2.global_algebra()
    intact = [rho.apply(a) for a in glob.basis]
    generator = glob.basis.index(glob.generators[0])
    product = len(intact) - 1  # Y (x) Y, a product of generators
    assert glob.basis[product] not in glob.generators and generator != 0
    broken = {
        "not unital": {0: intact[0].scale(-GR_ONE)},
        "does not respect adjoints": {generator: intact[generator].scale(GR_I)},
        "not multiplicative": {product: intact[product].scale(-GR_ONE)},
    }
    for message, changes in broken.items():
        images = [changes.get(i, m) for i, m in enumerate(intact)]
        with pytest.raises(PreconditionError, match=message):
            LocalizedEndo(net2, "[1,1]", images=images)
        assert not reference_is_homomorphism(_rebuilt(rho, images)[0])
    # an X string is no image on the diagonal net
    bits2 = diagonal_net(2)
    reset = collapse_sector(bits2, "[1,1]")
    images = [reset.apply(a) for a in bits2.global_algebra().basis]
    images[1] = pauli_string(2, 0b10, 0)
    with pytest.raises(PreconditionError, match="image leaves the global algebra"):
        LocalizedEndo(bits2, "[1,1]", images=images)


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
    the smallest interval holding both), rebuilt from their basis images."""
    inner = [
        pauli_sector(net, letter, u)
        for u, cells in sorted(net.region_sites.items())
        if len(cells) == 1
        for letter in "XYZ"
    ]
    for a, b in itertools.combinations(range(net.sites), 2):
        u = entangler_unitary(net, a, b)
        inner.append(LocalizedEndo(net, f"[{a + 1},{b + 1}]", unitary=u, label=f"CZ{a}{b}"))
    return [(rho, _image_sector(rho)) for rho in inner]


@pytest.mark.parametrize("sites", [2, 3])
def test_every_image_sector_gets_a_family(sites):
    net = qubit_net(sites)
    data = qubit_reflection_data(net)
    cases = _pauli_and_cz_images(net)
    assert len(cases) == 3 * sites + sites * (sites - 1) // 2
    for inner, image in cases:
        fam = find_covariance(image, data)
        assert fam.method == "twirl"
        for g, u_g in data.unitaries.items():
            y = fam.unitaries[g]
            assert y.is_unitary()
            assert _ad_equal(net, y, inner.unitary @ u_g @ inner.unitary.adjoint())
            for a in net.global_algebra().basis:
                assert image.apply(u_g @ a @ u_g.adjoint()) @ y == y @ image.apply(a)


def test_twirl_family_matches_the_dense_nullspace(net2):
    data = qubit_reflection_data(net2)
    glob = net2.global_algebra()
    for inner, image in _pauli_and_cz_images(net2):
        fam = find_covariance(image, data)
        for g, u_g in data.unitaries.items():
            pairs = [(image.apply(u_g @ a @ u_g.adjoint()), image.apply(a)) for a in glob.basis]
            want = reference_dense_intertwiner(net2.n, pairs)
            got = fam.unitaries[g]
            (i, j), v = next(iter(want.data.items()))
            assert got == want.scale(got.data[(i, j)] / v)


def test_twirl_probes(monkeypatch, net2):
    data = qubit_reflection_data(net2)
    rho = _image_sector(pauli_sector(net2, "X", "[1,1]"))
    # every string to the identity: a linear map whose twirl is not unitary
    flat, _ = _rebuilt(rho, [GMat.identity(net2.n)] * net2.global_algebra().dim)
    with pytest.raises(PreconditionError, match="no automorphism"):
        find_covariance(flat, data)
    # a twirl that misses w: the family u_g must fail the law at the swap
    monkeypatch.setattr(sectors_module, "_pauli_twirl", lambda rho: GMat.identity(rho.net.n))
    with pytest.raises(PreconditionError, match="does not intertwine"):
        find_covariance(rho, data)


def _x_type_net():
    """qubit2 with every region algebra cut down to its X-type strings:
    abelian, reflection-symmetric, neither full nor diagonal."""
    base = qubit_net(2, name="xbits2")
    overrides = {
        u: MatrixAlg.pauli_span(
            2, pauli_mask_span(2, [(1 << (1 - s), 0) for s in cells]), name=f"X({u})"
        )
        for u, cells in base.region_sites.items()
    }
    return MatrixNet(base.category, 2, base.region_sites, overrides=overrides, name="xbits2")


def test_covariance_search_refused_on_a_partial_global_algebra():
    net = _x_type_net()
    data = qubit_reflection_data(net)
    assert data.validate().ok
    glob = net.global_algebra()
    assert glob.dim == 4 and net.global_commutant().dim == 4
    z0 = pauli_string(2, 0, 0b10)
    rho = LocalizedEndo(net, "[1,1]", images=[z0 @ a @ z0 for a in glob.basis])
    with pytest.raises(PreconditionError, match="neither full nor diagonal"):
        find_covariance(rho, data)
    # the inner form of the same sector still gets its conjugated family
    assert find_covariance(LocalizedEndo(net, "[1,1]", unitary=z0), data).method == "inner"


def _permutation_solutions(n, pairs):
    for perm in itertools.permutations(range(n)):
        y = GMat(n, {(i, perm[i]): GR_ONE for i in range(n)})
        if all(lhs @ y == y @ rhs for lhs, rhs in pairs):
            yield y


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_diagonal_matching_is_complete(data):
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
    got = _solve_intertwiner(n, pairs)
    assert (got is None) == (next(_permutation_solutions(n, pairs), None) is None)
    if got is not None:
        assert got.is_unitary() and all(a @ got == got @ b for a, b in pairs)


def test_intertwiner_search_refuses_non_diagonal_pairs():
    # the identity solves (X (x) I) Y = Y (X (x) I); no search short of the
    # whole solution space may answer None here
    x1 = pauli_string(2, 0b10, 0)
    with pytest.raises(PreconditionError, match="neither full nor diagonal"):
        _solve_intertwiner(4, [(x1, x1)])


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


# -- the mask rule of same_map and diamond ---------------------------------------------------------
#
# A sector whose unitary is a scaled Pauli string carries its (x, z) mask;
# `diamond` hands the XOR of two masks to the product, and `same_map` of two
# masked sectors looks the XOR up in the global commutant's masks.  The
# oracle is `_ad_equal` on the GMats and `as_pauli_string` of the product.

# qubit chains have the scalars as global commutant; the diagonal net's is
# the 16 Z-type strings, so distinct masks can give the same map there
QUBIT_NETS = [qubit_net(L) for L in (1, 2, 3, 4)]
BITS4 = diagonal_net(4)
UNIMODULAR = [GR_ONE, GaussianRational.of(0, 1), GaussianRational.of(-1), GaussianRational.of(0, -1)]
UNIMODULAR += [c * GaussianRational.of(F(3, 5), F(4, 5)) for c in UNIMODULAR]


def _decoded(u):
    p = as_pauli_string(u)
    return None if p is None else (p[0], p[1])


def _check_mask_rule(net, rho, sig):
    """same_map and diamond on rho, sig and their products agree with the
    GMat oracle; pairs without two masks must go through `_ad_equal`."""
    prod, swapped = sectors_module.diamond(rho, sig), sectors_module.diamond(sig, rho)
    for s in (rho, sig, prod, swapped):
        assert s.mask == _decoded(s.unitary)
    pairs = [(rho, sig), (sig, rho), (prod, swapped), (prod, rho), (sig, prod), (rho, rho)]
    spy = mock.patch.object(sectors_module, "_ad_equal", wraps=_ad_equal)
    for a, b in pairs:
        with spy as oracle_calls:
            got = a.same_map(b)
        masked = a.mask is not None and b.mask is not None
        assert oracle_calls.call_count == (0 if masked else 1)
        assert got == _ad_equal(net, a.unitary, b.unitary)


@st.composite
def masked_pairs(draw):
    # half the draws on the diagonal net, whose commutant branch is the one
    # a rule testing a == b would get wrong
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
                # shift a masked operand by a commutant string: same map
                cx, cz = draw(st.sampled_from(commutant))
                x, z = near[0] ^ cx, near[1] ^ cz
            u = pauli_string(L, x, z, draw(st.sampled_from(UNIMODULAR)))
        return LocalizedEndo(net, region, unitary=u, label=kind, validate=False)

    rho = operand()
    return net, rho, operand(near=rho.mask)


@settings(max_examples=150, deadline=None)
@given(masked_pairs())
def test_mask_rule_matches_ad_equal(case):
    _check_mask_rule(*case)


def test_mask_rule_covers_both_branches():
    assert len(BITS4.global_commutant().masks()) == 16
    x0 = LocalizedEndo(BITS4, "[1,1]", unitary=pauli_string(4, 8, 0), validate=False)
    x0z1 = LocalizedEndo(
        BITS4, "[1,1]", unitary=pauli_string(4, 8, 4, GaussianRational.of(F(3, 5), F(4, 5)))
    )
    # distinct masks, same map: the XOR (0, 4) is a commutant string
    assert x0.mask == (8, 0) and x0z1.mask == (8, 4)
    assert x0.same_map(x0z1) and _ad_equal(BITS4, x0.unitary, x0z1.unitary)
    _check_mask_rule(BITS4, x0, x0z1)
    net = qubit_net(4)
    for u in (entangler_unitary(net, 0, 3), reflection_unitary(4)):
        rho = LocalizedEndo(net, "[1,4]", unitary=u)
        assert rho.mask is None and rho.relabel("[1,4]").mask is None
        _check_mask_rule(net, rho, pauli_sector(net, "XZYI", "[1,4]"))


def test_diamond_probe_or_instead_of_xor(monkeypatch):
    # corruption probe: a product handed xa | xb instead of the XOR
    real = sectors_module.diamond

    def or_diamond(rho, rhodot, region=None):
        out = real(rho, rhodot, region)
        a, b = rho.mask, rhodot.mask
        if a is not None and b is not None:
            out._mask = (a[0] | b[0], a[1] | b[1])
        return out

    net = qubit_net(2)
    x, y = pauli_sector(net, "X", "[1,1]"), pauli_sector(net, "Y", "[1,1]")
    monkeypatch.setattr(sectors_module, "diamond", or_diamond)
    # only the decoded product sees this: OR, like XOR, is associative and
    # commutative, so both sides of every theorem311 diagram agree under it
    with pytest.raises(AssertionError):
        _check_mask_rule(net, x, y)


def test_same_map_probe_ignoring_the_commutant(monkeypatch):
    # corruption probe: a mask rule that tests a == b is right on the qubit
    # chains (scalar commutant) and must fail on the diagonal net
    real = LocalizedEndo.same_map

    def naive(self, other):
        if self.mask is not None and other.mask is not None:
            return self.mask == other.mask
        return real(self, other)

    monkeypatch.setattr(LocalizedEndo, "same_map", naive)
    net = qubit_net(4)
    _check_mask_rule(net, pauli_sector(net, "XI", "[1,2]"), pauli_sector(net, "XZ", "[1,2]"))
    x0 = LocalizedEndo(BITS4, "[1,1]", unitary=pauli_string(4, 8, 0))
    x0z1 = LocalizedEndo(BITS4, "[1,1]", unitary=pauli_string(4, 8, 4))
    with pytest.raises(AssertionError):
        _check_mask_rule(BITS4, x0, x0z1)


# -- the summary behind the algebra proof ----------------------------------------------------------


def test_sector_summary_is_the_rederived_mask(net2, net4):
    summary = sector_algebra_assignment(net4, {}).summary
    xz = pauli_sector(net4, "XZ", "[1,2]")
    assert summary("[1,2]", xz) == xz.mask == (0b1000, 0b0100)
    assert summary("[1,3]", xz) is None  # filed at another region
    assert summary("[1,1]", identity_sector(net4, "[1,1]")) == (0, 0)
    cz = LocalizedEndo(net4, "[1,2]", unitary=entangler_unitary(net4, 0, 1), label="CZ")
    assert cz.mask is None and summary("[1,2]", cz) is None
    lying = LocalizedEndo(net4, "[1,2]", unitary=xz.unitary, mask=(0b1000, 0))
    assert lying.mask == (0b1000, 0) and summary("[1,2]", lying) is None
    image = _image_sector(pauli_sector(net2, "X", "[1,1]"))
    assert sector_algebra_assignment(net2, {}).summary("[1,1]", image) is None


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
            net, u_built, unitary=pauli_string(L, x, z, draw(st.sampled_from(UNIMODULAR))),
            validate=False,
        )
        sectors.append(rho if u_built == u else rho.relabel(u))
    return net, op, tuple(sectors)


@settings(max_examples=120, deadline=None)
@given(masked_structure_inputs())
def test_structure_maps_xor_the_masks(case):
    net, op, sectors = case
    summary = sector_algebra_assignment(net, {}).summary
    x = z = 0
    for rho, u in zip(sectors, op.sources):
        assert summary(u, rho) == rho.mask
        x, z = x ^ rho.mask[0], z ^ rho.mask[1]
    out = pfa_structure_map(op, sectors, net)
    assert out.region == op.target
    assert out.mask == _decoded(out.unitary) == (x, z)
    assert summary(op.target, out) == (x, z)


# -- reports with and without the mask rule --------------------------------------------------------


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
    monkeypatch.setattr(LocalizedEndo, "mask", None)
    assert report() == fast
    if family_of is _wrong_site_family:
        assert '"localization-precheck"' in fast and "X@[2,2]-listed-at-[1,1]" in fast


def test_sector_campaigns_identical_without_masks(monkeypatch, tmp_path):
    from sectorfact.cli import main

    net = str(tmp_path / "qubit4.json")
    assert main(["fixtures", "export", "qubit4", "--out", net]) == 0
    # with the masks hidden no sector has a summary, so theorem311 and
    # operad algebra walk every diagram instance the proof skips
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
    monkeypatch.setattr(LocalizedEndo, "mask", None)
    assert outputs("slow") == fast
