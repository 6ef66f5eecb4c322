"""Batch command-line front end.

Loads fixtures from JSON, runs validation campaigns, and writes
machine-readable reports (optionally rendered as text).  Runs are
deterministic for fixed inputs and seed: reports carry no timestamps and
all numbers are exact rationals serialized as strings.

Exit codes: 0 all checks passed, 1 violations found, 2 schema errors,
failed preconditions and exhausted sampling.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .configspace import SamplingExhausted, certify_homotopy, sample_causal_config
from .fixtures import (
    collapse_sector,
    cyclic_arc_category,
    diagonal_net,
    interval_category,
    interval_reflection_action,
    net_from_json,
    net_to_json,
    pauli_sector,
    qubit_net,
    qubit_reflection_data,
    standard_sector_family,
)
from .minkowski import (
    DoubleCone,
    MPoint,
    build_witness,
    causally_disjoint,
    cone_from_json,
    cone_included,
    cone_to_json,
    project_cone,
    ExhaustedRetries,
)
from .operad import (
    enumerate_all_operations,
    validate_algebra,
    validate_equivariant_algebra,
    validate_operad,
)
from .orthcat import (
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
from .reports import PreconditionError, SchemaError, attach_citation, dump_json, render_text
from .sectors import (
    INNER_MODEL_NOTE,
    _sector_summary,
    action_laws_hold,
    check_haag_duality,
    check_perp_commutativity,
    check_transportable,
    find_covariance,
    g_act_sector,
    identity_sector,
    sector_algebra_assignment,
    sector_equivariant_assignment,
    validate_theorem_3_11,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_SCHEMA = 2


def _check_counts(**counts: int) -> None:
    """Refuse a negative count before any work, with the schema exit code."""
    for name, value in counts.items():
        if value < 0:
            raise SchemaError(f"count {name} must be nonnegative, got {value}")


def _load_json(path: str) -> dict:
    """Parse an input file; a file that cannot be read or decoded is a
    schema error, like malformed JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise SchemaError(f"input file not readable: {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input file is not UTF-8 text: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _write_file(path: str, payload: str) -> None:
    """Write an output file; a path that cannot be written is a schema
    error, like an unreadable input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise SchemaError(f"output file not writable: {path}: {exc.strerror}") from exc


def _emit(doc: dict, args) -> None:
    """Write a report to --out, and to stdout when there is no --out; with
    --render stdout gets the text form."""
    doc = {**doc, "tool_version": __version__}
    if args.paper_ref:
        doc = attach_citation(doc)
    payload = dump_json(doc)
    if args.out:
        _write_file(args.out, payload)
    if args.render or not args.out:
        sys.stdout.write(render_text(doc) if args.render else payload)


def _on_a_functor(handler):
    """Run `handler(args, net)` on the net of --net once `MatrixNet.validate`
    shows that nested regions have nested algebras; otherwise the report
    is that net-structure report, with a failed verdict."""

    @functools.wraps(handler)
    def run(args) -> tuple[dict, bool]:
        net = net_from_json(_load_json(args.net))
        structure = net.validate()
        if not structure.ok:
            return structure.to_dict(), False
        return handler(args, net)

    return run


def _region_id(net, text: str) -> str:
    """A region of the net named by its id, or by the interval shorthand
    `a-b` or `a` for `[a,b]`; anything else is a schema error."""
    text = text.strip()
    if text in net.region_sites:
        return text
    a, dash, b = text.partition("-")
    try:
        region = f"[{int(a)},{int(b if dash else a)}]"
    except ValueError:
        region = None
    if region not in net.region_sites:
        raise SchemaError(f"unknown region {text!r}")
    return region


# ---------------------------------------------------------------------------
# command handlers: a report command returns (report, verdict); `main`
# writes the report and maps it to the exit code
# ---------------------------------------------------------------------------


def cmd_validate_category(args) -> tuple[dict, bool]:
    cat = category_from_json(_load_json(args.infile))
    report = validate_category(cat).to_dict()
    if report["schema_errors"]:
        # the assumption checks read the tables as a category
        return report, False
    extra = {}
    if args.filtered:
        extra["filtered"] = check_filtered(cat).to_dict()
    if args.orthocomplement:
        extra["orthocomplement"] = check_assumption_orthocomplement(cat).to_dict()
    if args.extension:
        extra["extension"] = check_assumption_extension(cat).to_dict()
    if extra:
        report["assumptions"] = extra
    return report, report["ok"] and all(
        v.get("holds", v.get("filtered", True)) for v in extra.values()
    )


def cmd_validate_action(args) -> tuple[dict, bool]:
    spec = action_from_json(_load_json(args.infile))
    report = validate_group_action(spec).to_dict()
    return report, report["ok"]


def cmd_operad_check(args) -> tuple[dict, bool]:
    _check_counts(bound=args.bound)
    cat = category_from_json(_load_json(args.infile))
    report = validate_operad(cat, bound=args.bound).to_dict()
    if args.dump:
        grouped: dict = {}
        for op in enumerate_all_operations(cat, args.bound):
            key = f"({','.join(op.sources)})->{op.target}"
            grouped.setdefault(key, []).append(list(op.arrows))
        _write_file(args.dump, dump_json({"bound": args.bound, "operations": grouped}))
    return report, report["ok"]


@_on_a_functor
def cmd_operad_algebra(args, net) -> tuple[dict, bool]:
    _check_counts(bound=args.bound)
    family = standard_sector_family(net)
    if args.equivariant:
        data = qubit_reflection_data(net)
        assign = sector_equivariant_assignment(net, data, family)
        report = validate_equivariant_algebra(
            net.category, assign, data.action, bound=args.bound
        ).to_dict()
    else:
        assign = sector_algebra_assignment(net, family)
        report = validate_algebra(net.category, assign, bound=args.bound).to_dict()
    return report, report["ok"]


def cmd_geometry_disjoint(args) -> tuple[dict, bool]:
    a = cone_from_json(_load_json(args.cone_a))
    b = cone_from_json(_load_json(args.cone_b))
    verdict = causally_disjoint(a, b)
    doc = {
        "check": "geometry-disjoint",
        "a": cone_to_json(a),
        "b": cone_to_json(b),
        "holds": verdict,
    }
    return doc, verdict


def cmd_geometry_include(args) -> tuple[dict, bool]:
    inner = cone_from_json(_load_json(args.inner))
    outer = cone_from_json(_load_json(args.outer))
    verdict = cone_included(inner, outer)
    doc = {
        "check": "geometry-include",
        "inner": cone_to_json(inner),
        "outer": cone_to_json(outer),
        "holds": verdict,
    }
    return doc, verdict


def cmd_geometry_project(args) -> tuple[dict, bool]:
    cone = cone_from_json(_load_json(args.infile))
    shadow = project_cone(cone)
    doc = {
        "check": "geometry-project",
        "cone": cone_to_json(cone),
        "shadow": shadow.to_json(),
        "holds": True,
    }
    return doc, True


def cmd_geometry_witness(args) -> tuple[dict, bool]:
    _check_counts(retry_budget=args.budget)
    u1 = cone_from_json(_load_json(args.u1))
    u2 = cone_from_json(_load_json(args.u2))
    ut = cone_from_json(_load_json(args.utilde))
    try:
        diagram = build_witness(u1, u2, ut, retry_budget=args.budget)
    except ExhaustedRetries as exc:
        return {"check": "witness-diagram", "holds": False, "reason": str(exc)}, False
    doc = diagram.to_json()
    doc["check"] = "witness-diagram"
    doc["holds"] = all(diagram.invariants.values())
    return doc, doc["holds"]


def cmd_homotopy_verify(args) -> tuple[dict, bool]:
    _check_counts(m=args.m, cases=args.cases)
    cone = cone_from_json(_load_json(args.cone))
    cases = []
    for seed in range(args.seed, args.seed + args.cases):
        report = certify_homotopy(sample_causal_config(cone, args.m, seed=seed))
        case = {"seed": seed, "certified": report.certified}
        if args.detail:
            case["pairs"] = report.pairs
        cases.append(case)
    certified = sum(1 for c in cases if c["certified"])
    doc = {
        "check": "homotopy-certification",
        "cone": cone_to_json(cone),
        "m": args.m,
        "cases": args.cases,
        "seed": args.seed,
        "certified": certified,
        "holds": certified == args.cases,
        "per_seed": cases,
    }
    return doc, doc["holds"]


@_on_a_functor
def cmd_sectors_haag(args, net) -> tuple[dict, bool]:
    if args.region:
        regions = [_region_id(net, args.region)]
    else:
        regions = [u for u in net.category.objects if net.orth_partners(u)]
    results = [check_haag_duality(net, u) for u in regions]
    doc = {
        "check": "haag-duality",
        "subject": net.name,
        "regions": results,
        "holds": all(r["holds"] for r in results),
    }
    return doc, doc["holds"]


@_on_a_functor
def cmd_sectors_perp(args, net) -> tuple[dict, bool]:
    report = check_perp_commutativity(net).to_dict()
    return report, report["ok"]


def _diamond_laws(net, family) -> int:
    """The number of monoid-law instances of the sector product on each
    region's pool, the identity sector and the family's sectors there, each
    one proved: a pool with a sector that is no Pauli conjugation is refused.

    Every sector in a proved pool has a summary (`_sector_summary`): its
    tableau keeps every mask, so `diamond` at the region keeps every mask
    and XORs the sign bits, the identity's being 0.  Then rho <> 1 and
    1 <> rho have rho's tableau, (r1 <> r2) <> r3 and r1 <> (r2 <> r3) both
    carry the XOR of the three sign bits, and `same_map` is tableau
    equality: no instance fails, and none is built.  The family of
    `sectors diamond`, `standard_sector_family`, holds Pauli conjugations
    only; the tests keep the instance walk as the oracle."""
    checked = 0
    for u, sectors in sorted(family.items()):
        pool = [identity_sector(net, u)] + sectors
        for s in pool:
            if _sector_summary(u, s) is None:
                raise PreconditionError(f"sector {s.label} at {u} is not a Pauli conjugation")
        checked += len(pool) + len(pool) ** 3
    return checked


@_on_a_functor
def cmd_sectors_diamond(args, net) -> tuple[dict, bool]:
    doc = {
        "check": "diamond-laws",
        "subject": net.name,
        "instances": _diamond_laws(net, standard_sector_family(net)),
        "violations": [],
        "ok": True,
        "notes": {"model": INNER_MODEL_NOTE},
    }
    return doc, doc["ok"]


@_on_a_functor
def cmd_sectors_transport(args, net) -> tuple[dict, bool]:
    letters, _, region = args.sector.partition("@")
    rho = pauli_sector(net, letters, _region_id(net, region))
    report = check_transportable(rho, _region_id(net, args.target), net)
    doc = report.to_dict()
    doc["subject"] = net.name
    return doc, report.found


@_on_a_functor
def cmd_sectors_equivariance(args, net) -> tuple[dict, bool]:
    data = qubit_reflection_data(net)
    # the collapse sector serves an overridden net whose global algebra is
    # diagonal; any other net gets the standard family
    L = net.sites
    collapse = bool(net.overrides) and all(r >> L == 0 for _, r in net.global_algebra().rows)
    family = {} if collapse else standard_sector_family(net)
    impl = data.validate()
    doc = {
        "check": "group-implementation",
        "subject": net.name,
        "implementation": impl.to_dict(),
        "sectors": [],
    }
    ok = impl.ok
    group = data.action.group
    for u, sectors in sorted(family.items()):
        for rho in sectors:
            entry = {"sector": rho.label}
            moved = {g: g_act_sector(g, rho, data) for g in group.elements}
            entry["action_regions"] = {g: m.region for g, m in moved.items()}
            entry["action_laws"] = action_laws_hold(rho, moved, data, impl.ok)
            fam = find_covariance(rho, data)
            entry["covariant"] = fam is not None
            ok = ok and entry["action_laws"] and entry["covariant"]
            doc["sectors"].append(entry)
    if collapse:
        rho = collapse_sector(net)
        fam = find_covariance(rho, data)
        doc["sectors"].append(
            {"sector": rho.label, "covariant": fam is not None}
        )
    doc["notes"] = {"model": INNER_MODEL_NOTE}
    doc["ok"] = ok
    return doc, ok


def cmd_sectors_theorem311(args) -> tuple[dict, bool]:
    _check_counts(bound=args.bound)
    net = net_from_json(_load_json(args.net))
    family = standard_sector_family(net)
    report = validate_theorem_3_11(net, family, bound=args.bound).to_dict()
    return report, report["ok"]


def cmd_report_render(args) -> int:
    doc = _load_json(args.infile)
    if not isinstance(doc, dict):
        raise SchemaError(f"report in {args.infile} is not a JSON object")
    sys.stdout.write(render_text(doc))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    bundled = {
        "intcat6": lambda: category_to_json(interval_category(6)),
        "intcat6-proper": lambda: category_to_json(interval_category(6, max_len=5)),
        "intcat4": lambda: category_to_json(interval_category(4)),
        "cyccat6": lambda: category_to_json(cyclic_arc_category(6)),
        "z2-intcat6": lambda: action_to_json(interval_reflection_action(interval_category(6), 6)),
        "qubit2": lambda: net_to_json(qubit_net(2)),
        "qubit4": lambda: net_to_json(qubit_net(4)),
        "bits4": lambda: net_to_json(diagonal_net(4)),
        "unit-cone-m2": lambda: cone_to_json(
            DoubleCone(MPoint.of(-1, 0), MPoint.of(1, 0))
        ),
        "wide-cone-m2": lambda: cone_to_json(
            DoubleCone(MPoint.of(-5, 0), MPoint.of(5, 0))
        ),
        "cone-u1": lambda: cone_to_json(DoubleCone(MPoint.of(-1, 0), MPoint.of(1, 0))),
        "cone-u2": lambda: cone_to_json(DoubleCone(MPoint.of(-1, 4), MPoint.of(1, 4))),
        "cone-utilde": lambda: cone_to_json(
            DoubleCone(MPoint.of(-4, 2), MPoint.of(4, 2))
        ),
    }
    if args.action == "list":
        for name in sorted(bundled):
            sys.stdout.write(name + "\n")
        return EXIT_OK
    if args.name not in bundled:
        raise SchemaError(f"unknown fixture {args.name}")
    payload = dump_json(bundled[args.name]())
    if args.out:
        _write_file(args.out, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--render", action="store_true", help="print human-readable text")
    p.add_argument(
        "--paper-ref",
        action="store_true",
        help="annotate the report with the citation label of the check",
    )


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing keeps no state in it,
    each `parse_args` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sectorfact",
        description="exact validation campaigns for finite orthogonal categories, "
        "double-cone geometry, and matrix-net sector calculus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-category", help="category and orthogonality axioms")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--filtered", action="store_true", help="also check filteredness")
    p.add_argument(
        "--orthocomplement", action="store_true", help="also check orthogonal complements"
    )
    p.add_argument(
        "--extension", action="store_true", help="also check the extension property"
    )
    _add_common(p)
    p.set_defaults(func=cmd_validate_category)

    p = sub.add_parser("validate-action", help="group action axioms")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_validate_action)

    operad = sub.add_parser("operad", help="operad and algebra validation").add_subparsers(
        dest="subcommand", required=True
    )
    p = operad.add_parser("check", help="operad axioms up to an arity bound")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--dump", help="also write the operations grouped by (sources, target)")
    _add_common(p)
    p.set_defaults(func=cmd_operad_check)
    p = operad.add_parser("algebra", help="algebra diagrams for the sector model")
    p.add_argument("--net", required=True)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--equivariant", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_operad_algebra)

    geometry = sub.add_parser("geometry", help="double-cone predicates").add_subparsers(
        dest="subcommand", required=True
    )
    p = geometry.add_parser("disjoint", help="causal disjointness of two cones")
    p.add_argument("--a", dest="cone_a", required=True)
    p.add_argument("--b", dest="cone_b", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_geometry_disjoint)
    p = geometry.add_parser("include", help="inclusion of double cones")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_geometry_include)
    p = geometry.add_parser("project", help="spatial shadow of a cone")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_geometry_project)
    p = geometry.add_parser("witness", help="extension witness for a disjoint pair")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--utilde", required=True)
    p.add_argument("--budget", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_geometry_witness)

    homotopy = sub.add_parser("homotopy", help="configuration-space campaigns").add_subparsers(
        dest="subcommand", required=True
    )
    p = homotopy.add_parser("verify", help="certify sampled configurations")
    p.add_argument("--cone", required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detail", action="store_true", help="include per-pair certificates")
    _add_common(p)
    p.set_defaults(func=cmd_homotopy_verify)

    sectors = sub.add_parser("sectors", help="matrix-net sector calculus").add_subparsers(
        dest="subcommand", required=True
    )
    p = sectors.add_parser("haag", help="Haag duality as exact span equality")
    p.add_argument("--net", required=True)
    p.add_argument("--region", help="single region like 2-3; default: all eligible")
    _add_common(p)
    p.set_defaults(func=cmd_sectors_haag)
    p = sectors.add_parser("perp", help="commutation over orthogonal cospans")
    p.add_argument("--net", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sectors_perp)
    p = sectors.add_parser("diamond", help="monoid laws for the sector product")
    p.add_argument("--net", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sectors_diamond)
    p = sectors.add_parser("transport", help="search for a transporting unitary")
    p.add_argument("--net", required=True)
    p.add_argument("--sector", required=True, help="pattern@region, e.g. X@1-1")
    p.add_argument("--target", required=True, help="target region, e.g. 3-3")
    _add_common(p)
    p.set_defaults(func=cmd_sectors_transport)
    p = sectors.add_parser("equivariance", help="reflection symmetry suite")
    p.add_argument("--net", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sectors_equivariance)
    p = sectors.add_parser("theorem311", help="full structure-map validation")
    p.add_argument("--net", required=True)
    p.add_argument("--bound", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_sectors_theorem311)

    report = sub.add_parser("report", help="report utilities").add_subparsers(
        dest="subcommand", required=True
    )
    p = report.add_parser("render", help="render a JSON report as text")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_report_render)

    fixtures = sub.add_parser("fixtures", help="bundled inputs").add_subparsers(
        dest="action", required=True
    )
    p = fixtures.add_parser("list", help="list bundled fixture names")
    p.set_defaults(func=cmd_fixtures, action="list")
    p = fixtures.add_parser("export", help="write a bundled fixture as JSON")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixtures, action="export")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The one place where a report command's report is
    written and mapped to its exit code (see the module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        report, verdict = result
        _emit(report, args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return EXIT_SCHEMA
    except SamplingExhausted as exc:
        sys.stderr.write(f"sampling exhausted: {exc}\n")
        return EXIT_SCHEMA
    if report.get("schema_errors"):
        return EXIT_SCHEMA
    return EXIT_OK if verdict else EXIT_VIOLATIONS

if __name__ == "__main__":
    sys.exit(main())
