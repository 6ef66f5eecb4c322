"""Dense `GMat` forms that only the tests read: the site reflection and CZ as
matrices, the scalar test of a matrix, the M_N tableau of Ad u for a
dense u, the Pauli string implementing a sector, the collapse sector
built from dense images, and the diagonal matching of covariance pairs
as matrices.  The package holds sectors, group data and covariance
families as tableaux; these are the oracles its tableaux are compared
with."""

from sectorfact.linalg import (
    GMat,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    _UNITS,
    _chase,
    _string_matrix,
    pauli_string,
)
from sectorfact.reports import PreconditionError, SchemaError
from sectorfact.sectors import LocalizedEndo, MatrixAlg, _ad_tableau


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


def entangler_unitary(net, site_a: int, site_b: int) -> GMat:
    """Controlled-Z between two sites: diagonal, unitary, and in no proper
    tensor factor containing only one of the sites."""
    data = {}
    for b in range(net.n):
        sign = -1 if ((b >> (net.sites - 1 - site_a)) & 1) and (
            (b >> (net.sites - 1 - site_b)) & 1
        ) else 1
        data[(b, b)] = GaussianRational.of(sign)
    return GMat(net.n, data)


def scalar_multiple_of_identity(m: GMat) -> GaussianRational | None:
    """The scalar c with m == c*1, or None."""
    mono = m._monomial()
    if mono is not None and m.n:
        rows, phases = mono
        p = phases[0]
        if rows == tuple(range(m.n)) and all(q == p for q in phases):
            return _UNITS[p]
        return None
    c = m.data.get((0, 0), GR_ZERO)
    if c.is_zero():
        return GR_ZERO if m.is_zero() else None
    if len(m.data) != m.n:
        return None
    if all(m.data.get((i, i)) == c for i in range(m.n)):
        return c
    return None


def m_n_tableau(L: int, u: GMat) -> tuple[int, ...]:
    """The M_N tableau of Ad u, conjugated densely."""
    return _ad_tableau(MatrixAlg.full_on_sites(L, range(L)), u)


def reflection_unitaries(net) -> dict[str, GMat]:
    """The matrices u_e = 1 and u_r = R that `qubit_reflection_data` holds
    as tableaux."""
    return {"e": GMat.identity(net.n), "r": reflection_unitary(net.sites)}


def pauli_unitary(rho) -> GMat | None:
    """P(a) for a = `rho.pauli_mask()`: a matrix implementing the sector,
    or None when it is no Pauli conjugation."""
    a, L = rho.pauli_mask(), rho.net.sites
    return None if a is None else pauli_string(L, a >> L, a & ((1 << L) - 1))


def collapse_sector_from_images(net, region: str = "[1,2]") -> LocalizedEndo:
    """The collapse sector of `fixtures.collapse_sector` built from the
    2**L x 2**L image of every string of the global basis: each Z string
    with the region's letters dropped."""
    if region not in net.region_sites:
        raise SchemaError(f"collapse sector needs region {region}, which the net lacks")
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


def solve_intertwiner(n: int, pairs: list[tuple[GMat, GMat]]) -> GMat | None:
    """A permutation y with lhs*y = y*rhs for every pair of diagonal
    matrices, or None when no unitary solves them; PreconditionError for
    any other pair."""
    if any(i != j for pair in pairs for m in pair for i, j in m.data):
        raise PreconditionError(
            "no complete intertwiner search on a global algebra that is "
            "neither full nor diagonal-constrained"
        )
    # diagonal pairs pin each entry: y may join row i to column j exactly
    # when the diagonals agree there in every pair.  The support of a
    # unitary solution holds a permutation (Birkhoff), and on this union of
    # complete bipartite blocks greedy matching finds one if any exists
    left = [tuple(lhs.data.get((i, i), GR_ZERO) for lhs, _ in pairs) for i in range(n)]
    right = [tuple(rhs.data.get((j, j), GR_ZERO) for _, rhs in pairs) for j in range(n)]
    free = list(range(n))
    match = {}
    for i in range(n):
        j = next((j for j in free if right[j] == left[i]), None)
        if j is None:
            return None
        free.remove(j)
        match[(i, j)] = GR_ONE
    y = GMat(n, match)
    return y if all(lhs @ y == y @ rhs for lhs, rhs in pairs) else None


def dense_diagonal_family(rho, data) -> dict[str, GMat] | None:
    """`find_covariance`'s match on a diagonal net, on matrices: for each g
    the pairs (rho(Ad u_g(a)), rho(a)) over the global rows a, built as
    2**L x 2**L matrices and matched by `solve_intertwiner`; the
    permutations y_g, or None when some g has none."""
    L, fam = data.net.sites, {}
    for g in data.action.group.elements:
        image = data._full_maps(g)[0]
        pairs = [
            (_string_matrix(L, _chase((image, rho._map), r)), _string_matrix(L, rho._map[r]))
            for _, r in data.net.global_algebra().rows
        ]
        y = solve_intertwiner(data.net.n, pairs)
        if y is None:
            return None
        fam[g] = y
    return fam
