"""Dense `GMat` forms that only the tests read.  The package holds sectors,
group data and covariance families as tableaux, algebras as GF(2) rows
and intertwiners as Pauli sums; these are the oracles they are compared
with at small L:

- the exact Pauli expansion of a matrix and the matrix of a signed mask;
- an algebra's strings as matrices, and membership of a matrix;
- sectors built from a unitary (Ad u) or from the images of the global
  basis, and a sector applied to a matrix;
- group data from implementing unitaries;
- intertwiners as matrices, their product and the sector
  perp-commutativity check on them;
- the site reflection and CZ as matrices, the scalar test of a matrix, the
  M_N tableau of Ad u for a dense u, the Pauli string implementing a
  sector, the collapse sector built from dense images, and the diagonal
  matching of covariance pairs as matrices."""

from fractions import Fraction

from sectorfact.linalg import (
    GMat,
    GR_MINUS_ONE,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    _UNITS,
    _StringMap,
    _chase,
    as_pauli_string,
    pauli_string,
)
from sectorfact.reports import PreconditionError, SchemaError, ValidationReport
from sectorfact.sectors import LocalizedEndo, MatrixAlg, SectorGroupData, diamond


# -- Pauli expansions ---------------------------------------------------------------------


def pauli_coefficients(m: GMat) -> dict[tuple[int, int], GaussianRational]:
    """{(x, z): c} with m == sum of c * P(x, z), zero coefficients left out,
    keys in sorted order.

    The coefficient on P(x, z) is tr(P(x, z)* m) / N.  A scaled string
    decodes through ``as_pauli_string``; any other matrix is expanded per
    x = row ^ col: P(x, z)* holds i**-|x & z| * (-1)**|z & col| at
    (col, col ^ x), so each coefficient is a signed sum of the entries of m
    on that x.
    """
    n = m.n
    if n <= 0 or n & (n - 1):
        raise ValueError(f"no Pauli expansion of a matrix of size {n}")
    p = as_pauli_string(m)
    if p is not None:
        return {(p[0], p[1]): p[2]}
    by_x: dict[int, list[tuple[int, GaussianRational]]] = {}
    for (row, col), v in m.data.items():
        by_x.setdefault(row ^ col, []).append((col, v))
    out = {}
    for x in sorted(by_x):
        entries = by_x[x]
        for z in range(n):
            re = im = Fraction(0)
            for col, v in entries:
                if (z & col).bit_count() & 1:
                    re -= v.re
                    im -= v.im
                else:
                    re += v.re
                    im += v.im
            if re or im:
                out[(x, z)] = GaussianRational(re / n, im / n) * _UNITS[-(x & z).bit_count() & 3]
    return out


def _string_matrix(L: int, code: int) -> GMat:
    """The matrix (-1)**s P(t) of the signed mask t << 1 | s."""
    t = code >> 1
    return pauli_string(L, t >> L, t & ((1 << L) - 1), GR_MINUS_ONE if code & 1 else GR_ONE)


def pauli_sum_matrix(L: int, terms: dict[int, GaussianRational]) -> GMat:
    """The matrix sum of c P(v) of the Pauli sum {v: c}, v = x << L | z."""
    out = GMat.zero(1 << L)
    for v, c in terms.items():
        out = out + pauli_string(L, v >> L, v & ((1 << L) - 1), c)
    return out


def as_pauli_sum(m: GMat) -> dict[int, GaussianRational]:
    """The Pauli sum {x << L | z: c} of the matrix m."""
    L = m.n.bit_length() - 1
    return {x << L | z: c for (x, z), c in pauli_coefficients(m).items()}


# -- algebras as matrices -----------------------------------------------------------------


def dense_basis(alg: MatrixAlg) -> list[GMat]:
    """The unit strings of the masks in sorted mask order."""
    return [pauli_string(alg.L, x, z) for x, z in sorted(alg.masks())]


def dense_generators(alg: MatrixAlg) -> list[GMat]:
    """The unit strings of `rows`: every string of the algebra is a
    scalar times a product of them."""
    L, low = alg.L, (1 << alg.L) - 1
    return [pauli_string(L, r >> L, r & low) for _, r in alg.rows]


def dense_contains(alg: MatrixAlg, m: GMat) -> bool:
    """m lies in the algebra exactly when every Pauli coefficient of m
    sits on one of its strings."""
    L = alg.L
    return m.n == alg.n and all(alg._spans((x << L) | z) for x, z in pauli_coefficients(m))


# -- sectors from matrices ----------------------------------------------------------------


def _signed_strings(glob: MatrixAlg, images: list[GMat]) -> tuple[int, ...]:
    """Tableau of a map from its images of glob's generators, refused
    unless each is a scaled string of glob.  Any coefficient but -1 reads
    as +1: a unitary's images have +-1, and image lists are compared with
    the tableau's images afterwards."""
    L = glob.L
    out = []
    for a in images:
        p = as_pauli_string(a)
        if p is None:
            raise PreconditionError("generator image is not a signed Pauli string")
        x, z, c = p
        if not glob._spans((x << L) | z):
            raise PreconditionError("image leaves the global algebra")
        out.append((((x << L) | z) << 1) | (c == GR_MINUS_ONE))
    return tuple(out)


def _ad_tableau(alg: MatrixAlg, u: GMat) -> tuple[int, ...]:
    """Tableau of Ad u on alg, refused unless u is unitary and Ad u sends
    each of alg's generators to a signed string of alg."""
    if not u.is_unitary():
        raise PreconditionError("implementing matrix is not unitary")
    adj = u.adjoint()
    return _signed_strings(alg, [u @ g @ adj for g in dense_generators(alg)])


def _tableau_from_image_list(glob: MatrixAlg, images: list[GMat]) -> tuple[int, ...]:
    """Tableau of the linear map sending the k-th string of `dense_basis(glob)`
    to images[k], refused unless it is a unital *-homomorphism: Hermitian
    signed strings as the generators' images, commuting pairwise as the
    generators do (`_StringMap` checks it), and every image the tableau's."""
    masks = sorted(glob.masks())
    if len(images) != len(masks):
        raise PreconditionError("basis images do not match the global basis")
    if not images[0].is_identity():
        raise PreconditionError("endomorphism is not unital")
    L = glob.L
    index = {(x << L) | z: k for k, (x, z) in enumerate(masks)}
    gens = [images[index[r]] for _, r in glob.rows]
    if any(a != a.adjoint() for a in gens):
        raise PreconditionError("endomorphism does not respect adjoints")
    tableau = _signed_strings(glob, gens)
    image = _StringMap(L, glob.rows, tableau)
    for v, k in index.items():
        if images[k] != _string_matrix(L, image[v]):
            raise PreconditionError("endomorphism is not multiplicative")
    return tableau


def ad_sector(net, region: str, u: GMat, label: str = "") -> LocalizedEndo:
    """Ad u as a sector at region, PreconditionError unless Ad u sends each
    generator of the global algebra to +-1 times a string of it."""
    return LocalizedEndo(net, region, _ad_tableau(net.global_algebra(), u), label or f"Ad[{u!r}]")


def image_sector(net, region: str, images: list[GMat], label: str = "") -> LocalizedEndo:
    """The sector at region sending the k-th string of
    `dense_basis(net.global_algebra())` to images[k]."""
    return LocalizedEndo(net, region, _tableau_from_image_list(net.global_algebra(), images), label)


def dense_apply(rho: LocalizedEndo, m: GMat) -> GMat:
    """The image of m, mapped term by term on its Pauli expansion."""
    L, low = rho.net.sites, (1 << rho.net.sites) - 1
    out = GMat.zero(rho.net.n)
    for (x, z), c in pauli_coefficients(m).items():
        code = rho._map[(x << L) | z]
        t = code >> 1
        term = pauli_string(L, t >> L, t & low, -c if code & 1 else c)
        out = term if out.is_zero() else out + term
    return out


def group_data_from_unitaries(net, action, unitaries: dict[str, GMat], name: str = "") -> SectorGroupData:
    """Group data from implementing unitaries: a matrix that is no Clifford
    unitary has no tableau, PreconditionError."""
    data = SectorGroupData(net, action, {}, name)
    data.tableaux.update({g: _ad_tableau(data._m_n, u) for g, u in unitaries.items()})
    return data


# -- intertwiners as matrices -------------------------------------------------------------


class DenseIntertwiner:
    """Matrix T with T rho(a) = rho'(a) T on the global algebra, checked on
    its generators; membership in the local algebra of a joint localization
    region is validated."""

    def __init__(self, source: LocalizedEndo, target: LocalizedEndo, matrix: GMat):
        self.source = source
        self.target = target
        self.matrix = matrix
        net = source.net
        for a in dense_generators(net.global_algebra()):
            if matrix @ dense_apply(source, a) != dense_apply(target, a) @ matrix:
                raise PreconditionError("matrix does not intertwine the sectors")
        # a string algebra is its own double commutant
        join = net.join(source.region, target.region)
        if not dense_contains(net.algebra(join), matrix):
            raise PreconditionError(f"intertwiner leaves the local algebra of {join}")

    def __repr__(self) -> str:
        return f"Intertwiner({self.source.label}->{self.target.label})"


def dense_diamond_mor(t: DenseIntertwiner, tdot: DenseIntertwiner) -> DenseIntertwiner:
    """Product of intertwiners T <> Tdot = T rho(Tdot); the intertwining law
    for the product sectors is re-verified exactly."""
    rho, rho_p = t.source, t.target
    sig, sig_p = tdot.source, tdot.target
    matrix = t.matrix @ dense_apply(rho, tdot.matrix)
    region = rho.net.join(rho.region, sig.region)
    return DenseIntertwiner(
        source=diamond(rho, sig, region=region),
        target=diamond(rho_p, sig_p, region=region),
        matrix=matrix,
    )


def dense_perp_sectors(rho1, rho2, t1, t2) -> ValidationReport:
    """`check_perp_commutativity_sectors` on `DenseIntertwiner`s."""
    if (t1 is None) != (t2 is None):
        raise PreconditionError("give both intertwiners or neither")
    for rho, t in ((rho1, t1), (rho2, t2)):
        if t is not None and not (
            isinstance(t, DenseIntertwiner) and t.source.region == t.target.region == rho.region
        ):
            raise PreconditionError(f"{t!r} is no intertwiner of sectors at {rho.region}")
    report = ValidationReport(
        check="sector-perp-commutativity", subject=f"{rho1.label},{rho2.label}"
    )
    net = rho1.net
    partners = net.orth_partners(rho1.region)
    if rho2.region not in partners:
        raise PreconditionError(
            f"regions {rho1.region} and {rho2.region} are not orthogonal"
        )
    join = net.join(rho1.region, rho2.region)
    left = diamond(rho1, rho2, region=join)
    right = diamond(rho2, rho1, region=join)
    if not left.same_map(right):
        report.add("object-commutativity", {"regions": [rho1.region, rho2.region]})
    if t1 is not None and t2 is not None:
        m_left = t1.matrix @ dense_apply(t1.source, t2.matrix)
        m_right = t2.matrix @ dense_apply(t2.source, t1.matrix)
        if m_left != m_right:
            report.add("morphism-commutativity", {"pair": [repr(t1), repr(t2)]})
        if m_left != t1.matrix @ t2.matrix:
            report.add("morphism-localization", {"pair": [repr(t1), repr(t2)]})
    return report


# -- fixtures as matrices -----------------------------------------------------------------


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
    return image_sector(net, region, images, label=f"reset@{region}")


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
