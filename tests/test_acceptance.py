"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Every verdict is exact (rational/Gaussian-rational
arithmetic); the only tolerance anywhere is the wall-clock bound of
criterion 1."""

import json
import random
import time
from fractions import Fraction as F

from sectorfact.cli import main
from sectorfact.configspace import certify_homotopy, sample_causal_config
from sectorfact.fixtures import (
    interval_category,
    pauli_sector,
    qubit_net,
    qubit_reflection_data,
    standard_sector_family,
)
from sectorfact.linalg import GMat
from sectorfact.minkowski import (
    DoubleCone,
    MPoint,
    build_witness,
    cauchy_lift,
    causally_disjoint,
    cone_contains,
    cone_included,
    minkowski_inner,
    project_cone,
    sq_interval,
)
from sectorfact.operad import validate_operad
from sectorfact.orthcat import OrthCategory, validate_group_action
from sectorfact.sectors import (
    Intertwiner,
    MatrixAlg,
    bicommutant,
    check_haag_duality,
    check_perp_commutativity_sectors,
    diamond,
    diamond_covariance,
    diamond_mor,
    find_covariance,
    g_act_sector,
    identity_sector,
    sector_algebra_assignment,
    span_equal,
)
from sectorfact.operad import validate_algebra

from dense_oracle import m_n_tableau, pauli_unitary, reflection_unitaries


def verdict(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


# -- random geometry helpers (all seeded, all exact) ---------------------------


def rnd_frac(rng, lo, hi, den=16):
    return F(rng.randint(int(lo * den), int(hi * den)), den)


def random_cone(rng, n, height_range=(1, 5), center_range=(-4, 4)):
    d = n - 1
    cx = tuple(rnd_frac(rng, *center_range) for _ in range(d))
    h = rnd_frac(rng, *height_range)
    tilt = tuple(rnd_frac(rng, -1, 1, 32) * h / 4 for _ in range(d))
    return DoubleCone(
        MPoint(-h, tuple(a - b / 2 for a, b in zip(cx, tilt))),
        MPoint(h, tuple(a + b / 2 for a, b in zip(cx, tilt))),
    )


def random_point_in(rng, cone, denom=32):
    half = (cone.pplus.t - cone.pminus.t) / 2
    c = cone.center
    while True:
        p = MPoint(
            c.t + F(rng.randint(-denom, denom), denom) * half,
            tuple(x + F(rng.randint(-denom, denom), denom) * half for x in c.x),
        )
        if cone_contains(cone, p):
            return p


def random_disjoint_pair(rng, n):
    while True:
        u1 = random_cone(rng, n)
        offset = tuple(
            rnd_frac(rng, 6, 14) * (1 if rng.random() < 0.5 else -1)
            for _ in range(n - 1)
        )
        shift = MPoint(F(0), offset)
        u2 = DoubleCone(u1.pminus + shift, u1.pplus + shift)
        if causally_disjoint(u1, u2):
            return u1, u2


def random_cospan(rng, n):
    while True:
        ut = random_cone(rng, n, height_range=(3, 7))
        cones = []
        for _ in range(60):
            half = (ut.pplus.t - ut.pminus.t) / 2
            px = tuple(
                x + F(rng.randint(-24, 24), 32) * half for x in ut.center.x
            )
            r = rnd_frac(rng, 0.05, 0.5, 64) * half
            t0 = ut.center.t + F(rng.randint(-8, 8), 32) * half
            cand = DoubleCone(MPoint(t0 - r, px), MPoint(t0 + r, px))
            if not cone_included(cand, ut):
                continue
            if all(causally_disjoint(cand, c) for c in cones):
                cones.append(cand)
            if len(cones) == 2:
                return cones[0], cones[1], ut


# -- criterion 1: homotopy certification ------------------------------------------


def test_criterion_1_homotopy_certification():
    rng = random.Random(20240001)
    t0 = time.time()
    certified = 0
    total = 1000
    for case in range(total):
        n = 2 + case % 3
        m = 2 + case % 4
        cone = random_cone(rng, n, height_range=(2, 6))
        config = sample_causal_config(cone, m, seed=case)
        report = certify_homotopy(config)
        certified += report.certified
    elapsed = time.time() - t0
    verdict(
        "criterion-1 homotopy certification",
        certified == total and elapsed < 60,
        f"{certified}/{total} certified in {elapsed:.1f}s",
    )


# -- criterion 2: section identity ---------------------------------------------------


def test_criterion_2_section_identity():
    rng = random.Random(20240002)
    ok = True
    for case in range(500):
        n = 2 + case % 3
        cone = random_cone(rng, n)
        shadow = project_cone(cone)
        m = 1 + case % 4
        points = []
        while len(points) < m:
            q = random_point_in(rng, cone).x
            if shadow.contains(q) and q not in points:
                points.append(q)
        for q in points:
            p = cauchy_lift(cone, q)
            ok = ok and p.x == q  # projection returns the input exactly
            ok = ok and minkowski_inner(p - cone.center, cone.axis) == 0
            ok = ok and cone_contains(cone, p)
        if not ok:
            break
    verdict("criterion-2 section identity", ok, "500 configurations, exact")


# -- criterion 3: projection inequality -------------------------------------------------


def test_criterion_3_projection_inequality():
    rng = random.Random(20240003)
    ok = True
    for case in range(500):
        n = 2 + case % 3
        u1, u2 = random_disjoint_pair(rng, n)
        for _ in range(20):
            p1 = random_point_in(rng, u1)
            p2 = random_point_in(rng, u2)
            gap = sq_interval(p1, p2)
            euclid = sum((a - b) ** 2 for a, b in zip(p1.x, p2.x))
            ok = ok and 0 < gap <= euclid
            ok = ok and p1.x != p2.x
        if not ok:
            break
    verdict(
        "criterion-3 projection inequality", ok, "500 pairs x 20 point pairs, exact"
    )


# -- criterion 4: witness construction ----------------------------------------------------


def test_criterion_4_witness_construction():
    rng = random.Random(20240004)
    failures = 0
    total = 200
    for case in range(total):
        n = 2 + case % 3
        u1, u2, ut = random_cospan(rng, n)
        try:
            diagram = build_witness(u1, u2, ut)
            if not all(diagram.verify(u1, u2, ut).values()):
                failures += 1
        except Exception:
            failures += 1
    verdict(
        "criterion-4 witness construction",
        failures == 0,
        f"{total - failures}/{total} verified witnesses",
    )


# -- criterion 5: operad axioms --------------------------------------------------------------


def test_criterion_5_operad_axioms():
    cat = interval_category(6)
    report = validate_operad(cat, bound=3)

    # corruption probe A: redirect a composite to a wrong-signature morphism;
    # in a thin category this surfaces as a schema-level detection
    corrupted_table = dict(cat.compose_table)
    victim = next(
        (g, f)
        for (g, f), r in corrupted_table.items()
        if cat.morphisms[f].src == "[1,1]"
        and cat.morphisms[r].tgt == "[1,3]"
        and g != cat.identities["[1,3]"]
    )
    corrupted_table[victim] = cat.hom("[2,2]", "[1,3]")[0].id
    bad_table = OrthCategory(
        cat.objects,
        cat.morphisms.values(),
        corrupted_table,
        cat.identities,
        cat.orth,
        name="corrupted-table",
    )
    table_detected = not validate_operad(bad_table, bound=2).ok

    # corruption probe B: delete a closure pair from the orthogonality table;
    # composing a unary operation onto a binary one now produces a tuple the
    # validator rejects, with the witnessing operations in the report
    drop = {
        ("[1,1]<=[1,4]", "[3,3]<=[1,4]"),
        ("[3,3]<=[1,4]", "[1,1]<=[1,4]"),
    }
    bad_orth = OrthCategory(
        cat.objects,
        cat.morphisms.values(),
        cat.compose_table,
        cat.identities,
        [p for p in cat.orth if p not in drop],
        name="corrupted-orth",
    )
    detection = validate_operad(bad_orth, bound=2)
    orth_detected = not detection.ok and detection.violations and all(
        v.witness for v in detection.violations
    )
    verdict(
        "criterion-5 operad axioms",
        report.ok and table_detected and bool(orth_detected),
        f"exhaustive bound 3 clean; corruptions detected "
        f"(schema + {len(detection.violations)} witnessed violations)",
    )


# -- criterion 6: Haag duality and bicommutant --------------------------------------------------


def test_criterion_6_haag_duality():
    net = qubit_net(4)
    ok = True
    checked = 0
    for region in net.category.objects:
        if not net.orth_partners(region):
            continue
        checked += 1
        ok = ok and check_haag_duality(net, region)["holds"]
    fixtures = [net.algebra(u) for u in net.category.objects]
    fixtures.append(MatrixAlg.diagonal_on_sites(4, [1, 2]))
    fixtures.append(MatrixAlg.pauli_span(4, [(0, 0)]))
    for alg in fixtures:
        ok = ok and span_equal(bicommutant(alg), alg)
    verdict(
        "criterion-6 haag duality + bicommutant",
        ok,
        f"{checked} eligible intervals, {len(fixtures)} bicommutant fixtures",
    )


# -- criterion 7: sector calculus -----------------------------------------------------------------


def test_criterion_7_sector_calculus():
    net = qubit_net(4)
    family = standard_sector_family(net)
    ok = True

    # strict monoid laws at one region
    pool = [identity_sector(net, "[2,2]")] + family["[2,2]"]
    for rho in pool:
        one = identity_sector(net, "[2,2]")
        ok = ok and diamond(rho, one).same_map(rho) and diamond(one, rho).same_map(rho)
    for r1 in pool:
        for r2 in pool:
            for r3 in pool:
                ok = ok and diamond(diamond(r1, r2), r3).same_map(
                    diamond(r1, diamond(r2, r3))
                )

    # the three *-functor laws for the product of intertwiners
    x1, z1 = family["[1,1]"]
    x2, z2 = family["[2,2]"]
    y1 = pauli_sector(net, "Y", "[1,1]")
    y2 = pauli_sector(net, "Y", "[2,2]")
    t1 = Intertwiner(x1, z1, pauli_unitary(z1) @ pauli_unitary(x1).adjoint())
    t1p = Intertwiner(z1, y1, pauli_unitary(y1) @ pauli_unitary(z1).adjoint())
    t2 = Intertwiner(x2, z2, pauli_unitary(z2) @ pauli_unitary(x2).adjoint())
    t2p = Intertwiner(z2, y2, pauli_unitary(y2) @ pauli_unitary(z2).adjoint())
    id1 = Intertwiner(x1, x1, GMat.identity(net.n))
    id2 = Intertwiner(x2, x2, GMat.identity(net.n))
    ok = ok and diamond_mor(id1, id2).matrix.is_identity()
    lhs = diamond_mor(
        Intertwiner(x1, y1, t1p.matrix @ t1.matrix),
        Intertwiner(x2, y2, t2p.matrix @ t2.matrix),
    ).matrix
    rhs = diamond_mor(t1p, t2p).matrix @ diamond_mor(t1, t2).matrix
    ok = ok and lhs == rhs
    star_l = diamond_mor(t1, t2).matrix.adjoint()
    star_r = diamond_mor(
        Intertwiner(z1, x1, t1.matrix.adjoint()),
        Intertwiner(z2, x2, t2.matrix.adjoint()),
    ).matrix
    ok = ok and star_l == star_r

    # perp-commutativity for disjointly localized sectors and intertwiners
    far_x, far_z = family["[4,4]"]
    t_far = Intertwiner(far_x, far_z, pauli_unitary(far_z) @ pauli_unitary(far_x).adjoint())
    report = check_perp_commutativity_sectors(x1, far_x, t1, t_far, net)
    ok = ok and report.ok

    # algebra diagrams over the bundled operad, exhaustively to arity 3
    algebra = validate_algebra(
        net.category, sector_algebra_assignment(net, family), bound=3
    )
    ok = ok and algebra.ok
    verdict(
        "criterion-7 sector calculus",
        ok,
        "monoid + *-functor + perp-commutativity + algebra diagrams (arity <= 3)",
    )


# -- criterion 8: G-equivariance -----------------------------------------------------------------------


def test_criterion_8_equivariance():
    net = qubit_net(4)
    data = qubit_reflection_data(net)
    family = standard_sector_family(net)
    group = data.action.group
    unitaries = reflection_unitaries(net)
    ok = validate_group_action(data.action).ok
    ok = ok and data.validate().ok

    for sectors in family.values():
        for rho in sectors:
            # action laws
            ok = ok and g_act_sector(group.unit(), rho, data).same_map(rho)
            for g1 in group.elements:
                for g2 in group.elements:
                    ok = ok and g_act_sector(
                        g2, g_act_sector(g1, rho, data), data
                    ).same_map(g_act_sector(group.mult(g2, g1), rho, data))
            # covariance family of the stated form
            fam = find_covariance(rho, data)
            ok = ok and fam is not None
            for g in group.elements:
                ok = ok and fam.tableaux[g] == m_n_tableau(
                    4, pauli_unitary(rho) @ unitaries[g] @ pauli_unitary(rho).adjoint()
                )

    # compatibility of the action with the product
    a = family["[2,2]"][0]
    b = family["[2,2]"][1]
    ok = ok and g_act_sector("r", diamond(a, b), data).same_map(
        diamond(g_act_sector("r", a, data), g_act_sector("r", b, data))
    )

    # composite family and its verification chain
    left = family["[1,1]"][0].relabel("[1,2]")
    right = family["[2,2]"][0].relabel("[1,2]")
    fam_l = find_covariance(left, data)
    fam_r = find_covariance(right, data)
    joint = diamond_covariance(left, right, fam_l, fam_r, data)
    check = find_covariance(diamond(left, right), data)
    # equal tableaux on the simple M_N: the matrices agree up to a scalar
    for g in group.elements:
        ok = ok and check.tableaux[g] == joint.tableaux[g]
    verdict(
        "criterion-8 equivariance",
        ok,
        "implementation + action laws + covariance families + composite chain",
    )


# -- criterion 9: determinism -----------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    fixture = tmp_path / "cone.json"
    main(["fixtures", "export", "wide-cone-m2", "--out", str(fixture)])
    net = tmp_path / "net.json"
    main(["fixtures", "export", "qubit4", "--out", str(net)])
    cat = tmp_path / "cat.json"
    main(["fixtures", "export", "intcat4", "--out", str(cat)])
    u1 = tmp_path / "u1.json"
    u2 = tmp_path / "u2.json"
    ut = tmp_path / "ut.json"
    main(["fixtures", "export", "cone-u1", "--out", str(u1)])
    main(["fixtures", "export", "cone-u2", "--out", str(u2)])
    main(["fixtures", "export", "cone-utilde", "--out", str(ut)])

    def run_suite(tag: str) -> bytes:
        blobs = []
        for name, argv in (
            ("homotopy", [
                "homotopy", "verify", "--cone", str(fixture), "--m", "4",
                "--cases", "40", "--seed", "7", "--detail",
            ]),
            ("haag", ["sectors", "haag", "--net", str(net)]),
            ("category", ["validate-category", "--in", str(cat), "--filtered"]),
            ("witness", [
                "geometry", "witness", "--u1", str(u1), "--u2", str(u2),
                "--utilde", str(ut),
            ]),
        ):
            out = tmp_path / f"{tag}-{name}.json"
            main(argv + ["--out", str(out)])
            blobs.append(out.read_bytes())
        return b"\n".join(blobs)

    first = run_suite("a")
    second = run_suite("b")
    verdict(
        "criterion-9 determinism",
        first == second,
        f"{len(first)} report bytes byte-identical across runs",
    )
