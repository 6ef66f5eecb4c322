"""Bundled finite models: interval and cyclic-arc categories, the 4-qubit
matrix net with its reflection symmetry, and small counterexample inputs.

All fixtures are generated programmatically so that tests and the CLI can
rebuild them deterministically; `sectorfact fixtures export` writes the
JSON form used by the batch interface.
"""

from __future__ import annotations

from .linalg import GMat, GR_ONE, GaussianRational, pauli_string
from .orthcat import (
    GroupActionSpec,
    GroupTable,
    Morphism,
    OrthCategory,
    OrthFunctor,
)
from .reports import SchemaError, json_int, json_list, json_str
from .sectors import LocalizedEndo, MatrixAlg, MatrixNet, SectorGroupData, span_equal

__all__ = [
    "poset_orth_category",
    "interval_category",
    "cyclic_arc_category",
    "interval_reflection_action",
    "trivial_action",
    "qubit_net",
    "reflection_unitary",
    "qubit_reflection_data",
    "pauli_sector",
    "standard_sector_family",
    "entangler_unitary",
    "diagonal_net",
    "collapse_sector",
    "net_to_json",
    "net_from_json",
]


def poset_orth_category(
    name: str,
    regions: dict[str, frozenset],
    orth_pred,
) -> OrthCategory:
    """Thin category of regions ordered by inclusion.

    `orth_pred(cells1, cells2, target_cells)` decides which cospans are
    orthogonal; the caller must supply a predicate whose relation is closed
    under the category operations (validated separately).
    """
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


def _interval_id(a: int, b: int) -> str:
    return f"[{a},{b}]"


def interval_regions(n: int, max_len: int | None = None) -> dict[str, frozenset]:
    max_len = n if max_len is None else max_len
    out = {}
    for a in range(1, n + 1):
        for b in range(a, min(n, a + max_len - 1) + 1):
            out[_interval_id(a, b)] = frozenset(range(a, b + 1))
    return out


def interval_category(n: int, max_len: int | None = None) -> OrthCategory:
    """Intervals [a,b] of an n-site chain ordered by inclusion; cospans are
    orthogonal exactly when the sources are disjoint.  `max_len` restricts
    the interval length (n-1 drops the full interval)."""
    label = f"IntCat({n})" if max_len in (None, n) else f"IntCat({n},len<={max_len})"
    return poset_orth_category(
        label,
        interval_regions(n, max_len),
        lambda s1, s2, _tgt: not (s1 & s2),
    )


def cyclic_arc_category(m: int) -> OrthCategory:
    """Arcs on a cyclic m-site lattice ordered by inclusion.

    Cospans are orthogonal when their sources are disjoint, and every
    cospan into an arc of length m-1 (the longest) is orthogonal:
    at full scale the lattice wraps onto itself and independence
    trivializes.  This keeps the relation closed under composition while
    giving every cospan room to extend sideways.
    """
    regions = {}
    for s in range(m):
        for length in range(1, m):
            cells = frozenset((s + k) % m for k in range(length))
            regions[f"arc({s},{length})"] = cells

    def pred(s1, s2, tgt):
        return len(tgt) >= m - 1 or not (s1 & s2)

    return poset_orth_category(f"CycCat({m})", regions, pred)


def interval_reflection_action(n: int, max_len: int | None = None) -> GroupActionSpec:
    """Z2 acting on the interval category by [a,b] -> [n+1-b, n+1-a]."""
    cat = interval_category(n, max_len)

    def refl_obj(u: str) -> str:
        a, b = u.strip("[]").split(",")
        return _interval_id(n + 1 - int(b), n + 1 - int(a))

    obj_map = {u: refl_obj(u) for u in cat.objects}
    mor_map = {
        m.id: f"{obj_map[m.src]}<={obj_map[m.tgt]}" for m in cat.morphisms.values()
    }
    g = OrthFunctor(cat, cat, obj_map, mor_map, name="r")
    e = OrthFunctor.identity_on(cat)
    group = GroupTable(
        ["e", "r"],
        {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "e"},
    )
    return GroupActionSpec(group=group, action={"e": e, "r": g}, name=f"Z2|{cat.name}")


def trivial_action(cat: OrthCategory) -> GroupActionSpec:
    group = GroupTable(["e"], {("e", "e"): "e"})
    return GroupActionSpec(
        group=group,
        action={"e": OrthFunctor.identity_on(cat)},
        name=f"triv|{cat.name}",
    )


# ---------------------------------------------------------------------------
# Qubit chain nets
# ---------------------------------------------------------------------------


def qubit_net(sites: int = 4, name: str | None = None) -> MatrixNet:
    """Chain of qubits indexed by the interval category; a region's algebra
    is the full tensor factor on its sites."""
    cat = interval_category(sites)
    region_sites = {u: frozenset(s - 1 for s in cells) for u, cells in
                    interval_regions(sites).items()}
    return MatrixNet(
        category=cat,
        sites=sites,
        region_sites=region_sites,
        name=name or f"qubit{sites}",
    )


def reflection_unitary(sites: int) -> GMat:
    """Permutation matrix reversing the site order on the chain."""
    n = 1 << sites
    data = {}
    for b in range(n):
        rev = 0
        for s in range(sites):
            if (b >> s) & 1:
                rev |= 1 << (sites - 1 - s)
        data[(rev, b)] = GR_ONE
    return GMat(n, data)


def qubit_reflection_data(net: MatrixNet) -> SectorGroupData:
    """Z2 site-reflection on the qubit chain implemented by the SWAP network.

    The reflection acts on the interval ids [a,b]; a net region with any
    other id is a schema error."""
    action = interval_reflection_action(net.sites)
    intervals = action.category.objects
    for u in net.region_sites:
        if u not in intervals:
            raise SchemaError(f"region {u} is not an interval [a,b] of the {net.sites}-site chain")
    return SectorGroupData(
        net=net,
        action=action,
        unitaries={"e": GMat.identity(net.n), "r": reflection_unitary(net.sites)},
        name=f"Z2|{net.name}",
    )


_LETTER_MASKS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def pauli_sector(net: MatrixNet, letters: str, region: str) -> LocalizedEndo:
    """Inner sector implemented by the Pauli pattern placed on the region's
    sites in order; e.g. letters "X" on a single-site region."""
    cells = sorted(net.region_sites[region])
    if len(letters) != len(cells):
        raise SchemaError(
            f"pattern {letters!r} does not fit region {region} with {len(cells)} sites"
        )
    x = z = 0
    for site, letter in zip(cells, letters.upper()):
        if letter not in _LETTER_MASKS:
            raise SchemaError(f"unknown Pauli letter {letter!r}")
        xb, zb = _LETTER_MASKS[letter]
        shift = net.sites - 1 - site
        x |= xb << shift
        z |= zb << shift
    u = pauli_string(net.sites, x, z)
    return LocalizedEndo(net, region, unitary=u, label=f"{letters.upper()}@{region}")


def standard_sector_family(net: MatrixNet) -> dict[str, list[LocalizedEndo]]:
    """X- and Z-type inner sectors at every single-site region; closed under
    the site reflection."""
    family: dict[str, list[LocalizedEndo]] = {}
    for u, cells in net.region_sites.items():
        if len(cells) == 1:
            family[u] = [pauli_sector(net, "X", u), pauli_sector(net, "Z", u)]
    return family


def entangler_unitary(net: MatrixNet, site_a: int, site_b: int) -> GMat:
    """Controlled-Z between two sites: diagonal, unitary, and in no proper
    tensor factor containing only one of the sites."""
    data = {}
    for b in range(net.n):
        sign = -1 if ((b >> (net.sites - 1 - site_a)) & 1) and (
            (b >> (net.sites - 1 - site_b)) & 1
        ) else 1
        data[(b, b)] = GaussianRational.of(sign)
    return GMat(net.n, data)


# ---------------------------------------------------------------------------
# Abelian (broken-symmetry) net and its non-covariant sector
# ---------------------------------------------------------------------------


def diagonal_net(sites: int = 4, name: str | None = None) -> MatrixNet:
    """Net of diagonal (abelian) algebras on the chain: every region gets the
    Z-type strings on its sites.  Its global algebra is the full diagonal."""
    cat = interval_category(sites)
    region_sites = {u: frozenset(s - 1 for s in cells) for u, cells in
                    interval_regions(sites).items()}
    overrides = {
        u: MatrixAlg.diagonal_on_sites(sites, cells, name=f"D({u})")
        for u, cells in region_sites.items()
    }
    return MatrixNet(
        category=cat,
        sites=sites,
        region_sites=region_sites,
        overrides=overrides,
        name=name or f"bits{sites}",
    )


def collapse_sector(net: MatrixNet, region: str = "[1,2]") -> LocalizedEndo:
    """Endomorphism of the diagonal net that resets the region's bits to zero:
    unital, multiplicative, strictly localized, but admitting no unitary
    covariance family for the reflection."""
    keep = 0
    region_cells = net.region_sites[region]
    for s in range(net.sites):
        if s not in region_cells:
            keep |= 1 << (net.sites - 1 - s)
    images = []
    for x, z in sorted(net.global_algebra().masks()):
        if x != 0:
            raise SchemaError("collapse sector needs a diagonal net")
        images.append(pauli_string(net.sites, 0, z & keep))
    return LocalizedEndo(net, region, images=images, label=f"reset@{region}")


# ---------------------------------------------------------------------------
# Net JSON interchange
# ---------------------------------------------------------------------------


def _region_category(name: str, region_sites: dict[str, frozenset], marked) -> OrthCategory:
    """Inclusion category of the regions.  With `marked` None a cospan is
    orthogonal when its sources are disjoint; otherwise `marked` lists pairs
    of region ids, and a cospan is orthogonal when its two site sets are
    those of a marked pair, in either order."""
    if marked is None:
        pred = lambda s1, s2, _tgt: not (s1 & s2)
    else:
        cell_pairs = set()
        for a, b in marked:
            cell_pairs.add((region_sites[a], region_sites[b]))
            cell_pairs.add((region_sites[b], region_sites[a]))
        pred = lambda s1, s2, _tgt: (s1, s2) in cell_pairs
    return poset_orth_category(name, region_sites, pred)


def net_to_json(net: MatrixNet) -> dict:
    """JSON form read back by `net_from_json`.  A region's algebra is
    written as "full" or "diagonal" on its sites, and the orthogonality as
    "disjoint" or as the marked pairs of region ids; SchemaError when
    either cannot describe the net."""
    regions = []
    written = {u: net.region_sites[u] for u in net.category.objects}
    for u, sites in written.items():
        # a region without an override has the full algebra on its sites
        alg = net.overrides.get(u)
        if alg is None or span_equal(alg, MatrixAlg.full_on_sites(net.sites, sites)):
            kind = "full"
        elif span_equal(alg, MatrixAlg.diagonal_on_sites(net.sites, sites)):
            kind = "diagonal"
        else:
            raise SchemaError(f"algebra of region {u} is neither full nor diagonal on its sites")
        regions.append({"id": u, "sites": sorted(sites), "algebra": kind})
    orth, spec = net.category.orth, "disjoint"
    if _region_category(net.name, written, None).orth != orth:
        mors = net.category.morphisms
        pairs = sorted({tuple(sorted((mors[f1].src, mors[f2].src))) for f1, f2 in orth})
        if _region_category(net.name, written, pairs).orth != orth:
            raise SchemaError("the orthogonality of the net is not given by pairs of regions")
        spec = [[a, b] for a, b in pairs]
    return {
        "name": net.name,
        "sites": net.sites,
        "local_dim": 2,
        "regions": regions,
        "orth": spec,
    }


def net_from_json(doc: dict) -> MatrixNet:
    """Net from its JSON form.  Every region algebra is a Pauli-string
    algebra ("full" or "diagonal" on the region's sites) and `local_dim`
    must be 2.  An explicit `orth` list marks pairs of region ids; regions
    on equal site sets are isomorphic objects, so a cospan is orthogonal
    when any pair of ids with its two site sets is marked."""
    try:
        sites = json_int(doc["sites"], "sites")
        local_dim = json_int(doc.get("local_dim", 2), "local_dim")
        ids = [json_str(r["id"], "region id") for r in doc["regions"]]
        region_sites = {
            u: frozenset(json_int(s, f"region {u} site") for s in r["sites"])
            for u, r in zip(ids, doc["regions"])
        }
        kinds = {
            u: json_str(r.get("algebra", "full"), f"region {u} algebra")
            for u, r in zip(ids, doc["regions"])
        }
        orth_spec = doc.get("orth", "disjoint")
        marked = None
        if orth_spec != "disjoint":
            marked = []
            for pair in json_list(orth_spec, "orth"):
                a, b = json_list(pair, "an orth pair")
                marked.append((json_str(a, "orth region"), json_str(b, "orth region")))
        name = json_str(doc.get("name", "net"), "net name")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed net document: {exc}") from exc
    if local_dim != 2:
        raise SchemaError("only local dimension 2 (qubit chains) is supported")
    if sites < 1:
        raise SchemaError("a net needs at least one site")
    if len(region_sites) != len(ids):
        repeated = next(u for u in ids if ids.count(u) > 1)
        raise SchemaError(f"region id {repeated} is repeated")
    for u, cells in region_sites.items():
        if any(s < 0 or s >= sites for s in cells):
            raise SchemaError(f"region {u} has sites outside the chain")
    if marked is not None:
        unknown = sorted({u for pair in marked for u in pair} - region_sites.keys())
        if unknown:
            raise SchemaError(f"orth names unknown region {unknown[0]}")
    cat = _region_category(name, region_sites, marked)
    overrides = {}
    for u, kind in kinds.items():
        if kind == "diagonal":
            overrides[u] = MatrixAlg.diagonal_on_sites(
                sites, region_sites[u], name=f"D({u})"
            )
        elif kind != "full":
            raise SchemaError(f"unknown algebra kind {kind} for region {u}")
    return MatrixNet(
        category=cat,
        sites=sites,
        region_sites=region_sites,
        overrides=overrides,
        name=name,
    )
