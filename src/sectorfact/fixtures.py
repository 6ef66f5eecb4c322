"""Bundled finite models: interval and cyclic-arc categories, the 4-qubit
matrix net with its reflection symmetry, and small counterexample inputs.

All fixtures are generated programmatically so that tests and the CLI can
rebuild them deterministically; `sectorfact fixtures export` writes the
JSON form used by the batch interface.
"""

from __future__ import annotations

from .orthcat import (
    GroupActionSpec,
    GroupTable,
    OrthCategory,
    OrthFunctor,
)
from .posets import PosetCategory
from .reports import PreconditionError, SchemaError, json_int, json_list, json_str
from .sectors import LocalizedEndo, MatrixAlg, MatrixNet, SectorGroupData, span_equal
from .sectors import _conjugation_tableau

__all__ = [
    "poset_orth_category",
    "interval_category",
    "cyclic_arc_category",
    "interval_reflection_action",
    "trivial_action",
    "qubit_net",
    "qubit_reflection_data",
    "pauli_sector",
    "standard_sector_family",
    "diagonal_net",
    "collapse_sector",
    "net_to_json",
    "net_from_json",
]


# Thin category of regions ordered by inclusion; `validate_category` checks
# that the caller's predicates give a relation closed under its operations.
poset_orth_category = PosetCategory


def _disjoint(s1: frozenset, s2: frozenset) -> bool:
    return not (s1 & s2)


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
    return poset_orth_category(label, interval_regions(n, max_len), _disjoint)


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

    return poset_orth_category(f"CycCat({m})", regions, _disjoint, lambda tgt: len(tgt) >= m - 1)


def interval_reflection_action(cat: OrthCategory, n: int) -> GroupActionSpec:
    """Z2 acting on a category of intervals of the n-site chain by
    [a,b] -> [n+1-b, n+1-a] and U<=V -> r(U)<=r(V) (an induced
    `OrthFunctor`), which need not be an arrow of `cat` unless it is
    `interval_category(n)`."""
    obj_map = {}
    for u in cat.objects:
        a, b = u.strip("[]").split(",")
        obj_map[u] = _interval_id(n + 1 - int(b), n + 1 - int(a))
    g = OrthFunctor(cat, cat, obj_map, name="r")
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
    """Chain of qubits indexed by the interval category, built as
    `net_from_json` builds it; a region's algebra is the full tensor factor
    on its sites."""
    name = name or f"qubit{sites}"
    region_sites = {u: frozenset(s - 1 for s in cells)
                    for u, cells in interval_regions(sites).items()}
    return MatrixNet(_region_category(name, region_sites, None), sites, region_sites, name=name)


def _permutation_tableau(L: int, perm) -> tuple[int, ...]:
    """M_N tableau (`SectorGroupData.tableaux`) of the unitary moving site
    s to perm[s]: each row, a single-site Z (row k < L) or X string at site
    L-1-k mod L, goes to the same letter at the image site, sign 0."""
    return tuple(
        1 << (k // L * L + L - 1 - perm[L - 1 - k % L]) << 1 for k in range(2 * L)
    )


def qubit_reflection_data(net: MatrixNet) -> SectorGroupData:
    """Z2 site-reflection on the qubit chain implemented by the SWAP network
    R, held as the tableaux of Ad 1 and Ad R on M_N, built from the site
    permutations (no matrix is built).

    The reflection acts on the interval ids [a,b], 1 <= a <= b <= n, by
    [a,b] -> [n+1-b, n+1-a], as an action on the net's own category.  A
    net region with any other id, or whose image is not a net region, is a
    schema error."""
    n = net.sites
    for u in net.region_sites:
        try:
            a, b = (int(t) for t in u[1:-1].split(","))
        except ValueError:
            a = b = 0
        if _interval_id(a, b) != u or not 1 <= a <= b <= n:
            raise SchemaError(f"region {u} is not an interval [a,b] of the {n}-site chain")
        image = _interval_id(n + 1 - b, n + 1 - a)
        if image not in net.region_sites:
            raise SchemaError(f"region {u} reflects to {image}, which is not a region of the net")
    return SectorGroupData(
        net=net,
        action=interval_reflection_action(net.category, n),
        tableaux={
            "e": _permutation_tableau(n, range(n)),
            "r": _permutation_tableau(n, [n - 1 - s for s in range(n)]),
        },
        name=f"Z2|{net.name}",
    )


_LETTER_MASKS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def pauli_sector(net: MatrixNet, letters: str, region: str) -> LocalizedEndo:
    """Inner sector Ad P of the Pauli pattern P placed on the region's
    sites in order, e.g. letters "X" on a single-site region; held as its
    tableau, so no matrix is built."""
    cells = sorted(net.region_sites[region])
    if len(letters) != len(cells):
        raise SchemaError(
            f"pattern {letters!r} does not fit region {region} with {len(cells)} sites"
        )
    L, v = net.sites, 0
    for site, letter in zip(cells, letters.upper()):
        if letter not in _LETTER_MASKS:
            raise SchemaError(f"unknown Pauli letter {letter!r}")
        xb, zb = _LETTER_MASKS[letter]
        v |= (xb << L | zb) << (L - 1 - site)
    tableau = _conjugation_tableau(net.global_algebra(), v)
    return LocalizedEndo(net, region, label=f"{letters.upper()}@{region}", _tableau=tableau)


def standard_sector_family(net: MatrixNet) -> dict[str, list[LocalizedEndo]]:
    """X- and Z-type inner sectors at every single-site region; closed under
    the site reflection."""
    family: dict[str, list[LocalizedEndo]] = {}
    for u, cells in net.region_sites.items():
        if len(cells) == 1:
            family[u] = [pauli_sector(net, "X", u), pauli_sector(net, "Z", u)]
    return family


# ---------------------------------------------------------------------------
# Abelian (broken-symmetry) net and its non-covariant sector
# ---------------------------------------------------------------------------


def diagonal_net(sites: int = 4, name: str | None = None) -> MatrixNet:
    """Net of diagonal (abelian) algebras on the chain: every region gets the
    Z-type strings on its sites.  Its global algebra is the full diagonal."""
    net = qubit_net(sites, name or f"bits{sites}")
    overrides = {
        u: MatrixAlg.diagonal_on_sites(sites, cells, name=f"D({u})")
        for u, cells in net.region_sites.items()
    }
    return MatrixNet(net.category, sites, net.region_sites, overrides=overrides, name=net.name)


def collapse_sector(net: MatrixNet, region: str = "[1,2]") -> LocalizedEndo:
    """Endomorphism of the diagonal net that resets the region's bits to zero:
    unital, multiplicative, strictly localized, but admitting no unitary
    covariance family for the reflection.  Built as its tableau: each row
    of the global algebra, a Z-type string, keeps its letters off the
    region, sign 0.  A row with an X letter is refused (the net is not
    diagonal), and so is an image outside the global algebra."""
    if region not in net.region_sites:
        raise SchemaError(f"collapse sector needs region {region}, which the net lacks")
    L, cells = net.sites, net.region_sites[region]
    keep = sum(1 << (L - 1 - s) for s in range(L) if s not in cells)
    glob = net.global_algebra()
    if any(r >> L for _, r in glob.rows):
        raise SchemaError("collapse sector needs a diagonal net")
    tableau = tuple((r & keep) << 1 for _, r in glob.rows)
    if not all(glob._spans(code >> 1) for code in tableau):
        raise PreconditionError("image leaves the global algebra")
    return LocalizedEndo(net, region, label=f"reset@{region}", _tableau=tableau)


# ---------------------------------------------------------------------------
# Net JSON interchange
# ---------------------------------------------------------------------------


def _region_category(name: str, region_sites: dict[str, frozenset], marked) -> OrthCategory:
    """Inclusion category of the regions.  With `marked` None a cospan is
    orthogonal when its sources are disjoint; otherwise `marked` lists pairs
    of region ids, and a cospan is orthogonal when its two site sets are
    those of a marked pair, in either order."""
    if marked is None:
        return poset_orth_category(name, region_sites, _disjoint)
    cell_pairs = set()
    for a, b in marked:
        cell_pairs.add((region_sites[a], region_sites[b]))
        cell_pairs.add((region_sites[b], region_sites[a]))
    return poset_orth_category(name, region_sites, lambda s1, s2: (s1, s2) in cell_pairs)


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
    cat, spec = net.category, "disjoint"
    if not cat.same_orth(_region_category(net.name, written, None)):
        pairs = sorted(tuple(sorted(pair)) for pair in cat.source_pairs())
        if not cat.same_orth(_region_category(net.name, written, pairs)):
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
