"""Finite-dimensional sector calculus on nets of matrix algebras.

A net assigns to every region of a finite orthogonal index category a
unital *-subalgebra of a global matrix algebra over the Gaussian
rationals.  Nets are qubit chains, and `MatrixNet` requires every local
algebra to be spanned by Pauli strings.  That keeps commutants, Haag
duality and all sector identities decidable by exact symplectic/mask
arithmetic: a set of (x, z) masks holding (0, 0) spans an algebra exactly
when it is as large as its GF(2) span, a commutant is a GF(2) nullspace,
and a matrix lies in an algebra exactly when its exact Pauli expansion
(`pauli_coefficients`) uses only the algebra's masks.  `MatrixAlg` is
therefore its mask set alone.  The one dense exact solve left is the
intertwiner search of `find_covariance` for sectors given by basis
images.  Sectors are unital *-endomorphisms of the global algebra acting
as the identity on every algebra orthogonal to their localization region;
the bundled ones are inner (conjugation by a local unitary).

An inner sector whose unitary is a scalar times a Pauli string carries its
(x, z) mask.  Products of such sectors get the XOR of the masks, and two
of them are the same map exactly when the XOR lies in the mask set of the
global commutant (Ad_a = Ad_b iff b* a commutes with the global algebra,
and b* a is a scalar times the string of the XOR).  Other unitaries (CZ,
the site reflection) are compared by `_ad_equal` on `GMat`s, image-built
sectors on the global basis.  An image-built sector maps a matrix by its
Pauli expansion: each coefficient times the image of its string.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .linalg import (
    GMat,
    GR_ONE,
    GR_ZERO,
    as_pauli_string,
    nullspace,
    pauli_coefficients,
    pauli_commutant_masks,
    pauli_commute,
    pauli_mask_span,
    pauli_string,
)
from .orthcat import GroupActionSpec, OrthCategory
from .reports import PreconditionError, SchemaError, ValidationReport

INNER_MODEL_NOTE = (
    "bundled sectors are inner (conjugation by a local unitary); every "
    "identity checked here is insensitive to innerness, and finite "
    "dimension admits no nontrivial outer sectors"
)

__all__ = [
    "INNER_MODEL_NOTE",
    "MatrixAlg",
    "MatrixNet",
    "LocalizedEndo",
    "Intertwiner",
    "SectorGroupData",
    "CovarianceFamily",
    "commutant",
    "bicommutant",
    "span_equal",
    "check_haag_duality",
    "check_perp_commutativity",
    "check_localized",
    "check_transportable",
    "diamond",
    "diamond_mor",
    "check_perp_commutativity_sectors",
    "pfa_structure_map",
    "sector_carriers",
    "sector_algebra_assignment",
    "sector_equivariant_assignment",
    "validate_theorem_3_11",
    "g_act_sector",
    "find_covariance",
    "diamond_covariance",
    "identity_sector",
]


class MatrixAlg:
    """Unital *-subalgebra of M_N, N = 2**L, spanned by Pauli strings and
    held as the frozenset of their (x, z) masks.

    A mask set holding (0, 0) spans a unital *-algebra exactly when it is
    closed under XOR, checked on construction as a size test against its
    GF(2) span.  Membership of a matrix is read off its exact Pauli
    expansion (`pauli_coefficients`), commutants are symplectic complements
    and span equality is mask-set equality, so no operation needs the
    strings as matrices; `basis` builds them only when a caller asks.
    """

    def __init__(self, n: int, basis: list[GMat], validate: bool = True, name: str = ""):
        """Algebra spanned by a caller's basis: every element must be a
        scaled Pauli string on log2(n) qubits, else SchemaError."""
        if not basis:
            raise SchemaError("algebra needs at least one basis element")
        if any(m.n != n for m in basis):
            raise SchemaError("basis dimensions disagree")
        decoded = [as_pauli_string(m) for m in basis]
        if any(p is None for p in decoded):
            raise SchemaError("basis element is not a scaled Pauli string")
        self._init(n.bit_length() - 1, [(x, z) for x, z, _ in decoded], validate, name)

    def _init(self, L: int, masks: list[tuple[int, int]], validate: bool, name: str) -> None:
        self.L = L
        self.n = 1 << L
        self.name = name
        self._masks = frozenset(masks)
        if validate:
            errs = self._closure_errors(len(masks))
            if errs:
                raise SchemaError("; ".join(errs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def pauli_span(L: int, masks, name: str = "") -> "MatrixAlg":
        """Algebra spanned by the Pauli strings of the given (x, z) masks.

        The mask set must contain (0,0) and be closed under XOR, which makes
        the span a unital *-subalgebra; ``_closure_errors`` decides this as
        a size test against the GF(2) span and raises SchemaError otherwise.
        """
        alg = MatrixAlg.__new__(MatrixAlg)
        alg._init(L, list(set(masks)), True, name)
        return alg

    @staticmethod
    def full_on_sites(L: int, sites, name: str = "") -> "MatrixAlg":
        """Tensor factor: all Pauli strings supported on the given sites."""
        bits = [1 << (L - 1 - site) for site in sites]
        gens = [(b, 0) for b in bits] + [(0, b) for b in bits]
        return MatrixAlg.pauli_span(L, pauli_mask_span(L, gens), name=name)

    @staticmethod
    def diagonal_on_sites(L: int, sites, name: str = "") -> "MatrixAlg":
        """Abelian subalgebra: Z-type strings supported on the given sites."""
        gens = [(0, 1 << (L - 1 - site)) for site in sites]
        return MatrixAlg.pauli_span(L, pauli_mask_span(L, gens), name=name)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._masks)

    def masks(self) -> frozenset[tuple[int, int]]:
        """The (x, z) masks of the spanning strings."""
        return self._masks

    @functools.cached_property
    def basis(self) -> list[GMat]:
        """The unit strings of the masks in sorted mask order, built on
        first use."""
        return [pauli_string(self.L, x, z) for x, z in sorted(self._masks)]

    def contains(self, m: GMat) -> bool:
        """m lies in the algebra exactly when every Pauli coefficient of m
        sits on one of its masks."""
        return m.n == self.n and pauli_coefficients(m).keys() <= self._masks

    def _closure_errors(self, count: int) -> list[str]:
        """Why `count` strings with these masks span no unital *-algebra."""
        mset = self._masks
        errs = []
        if len(mset) != count:
            errs.append("basis strings are linearly dependent")
        # a mask set holding (0, 0) is XOR-closed exactly when it is as
        # large as its GF(2) span
        if (0, 0) not in mset:
            errs.append("identity string missing from basis span")
        elif len(pauli_mask_span(self.L, mset)) != len(mset):
            errs.append("span not closed under products")
        return errs

    def __repr__(self) -> str:
        return f"MatrixAlg({self.name or 'anon'}, n={self.n}, dim={self.dim} pauli L={self.L})"


def _sylvester_basis(n: int, pairs: list[tuple[GMat, GMat]]) -> list[GMat]:
    """Exact nullspace basis of {Y : L Y = Y R for every pair (L, R)}, one
    row of the linear system per entry (i, j) of L Y - Y R."""
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
    return [
        GMat(n, {(k // n, k % n): v for k, v in enumerate(vec) if not v.is_zero()})
        for vec in nullspace(rows, n * n)
    ]


def _commutant_of(L: int, masks, name: str) -> MatrixAlg:
    return MatrixAlg.pauli_span(L, pauli_commutant_masks(L, masks), name=name)


def commutant(alg: MatrixAlg) -> MatrixAlg:
    """{X : XA = AX for every A in alg}: the strings symplectically
    orthogonal to every mask of alg."""
    return _commutant_of(alg.L, alg.masks(), name=f"{alg.name}'")


def bicommutant(alg: MatrixAlg) -> MatrixAlg:
    """Commutant applied twice; equals the algebra itself in finite dimension."""
    out = commutant(commutant(alg))
    if not span_equal(out, alg):
        raise PreconditionError(
            f"double commutant of {alg.name or 'the algebra'} differs from it"
        )
    return out


def span_equal(a: MatrixAlg, b: MatrixAlg) -> bool:
    return a.n == b.n and a.masks() == b.masks()


# ---------------------------------------------------------------------------
# Nets
# ---------------------------------------------------------------------------


class MatrixNet:
    """Functor from a finite orthogonal index category to subalgebras of a
    global qubit-chain matrix algebra.

    Regions name site sets; the default algebra of a region is the full
    tensor factor on its sites, overridable per region (used by the
    counterexample fixtures).  Every region algebra is a Pauli-string
    algebra on `sites` qubits, checked here once, so the net-level
    checks (inclusion, perp-commutativity, Haag duality, the global
    algebra and its commutant) run on (x, z) masks only.
    """

    def __init__(
        self,
        category: OrthCategory,
        sites: int,
        region_sites: dict[str, frozenset[int]],
        overrides: dict[str, MatrixAlg] | None = None,
        name: str = "",
    ):
        self.category = category
        self.sites = sites
        self.region_sites = dict(region_sites)
        self.overrides = dict(overrides or {})
        self.name = name
        self.n = 2 ** sites
        self._algebras: dict[str, MatrixAlg] = {}
        # "__global__": the global algebra, "__commutant__": its commutant
        self._cache: dict[str, MatrixAlg] = {}
        missing = [u for u in category.objects if u not in self.region_sites]
        if missing:
            raise SchemaError(f"regions without site sets: {missing}")
        for u, alg in sorted(self.overrides.items()):
            if alg.n != self.n:
                raise SchemaError(
                    f"algebra of region {u} acts on {alg.L} qubits, not {sites}"
                )

    def algebra(self, region: str) -> MatrixAlg:
        if region not in self.region_sites:
            raise SchemaError(f"unknown region {region}")
        if region not in self._algebras:
            if region in self.overrides:
                self._algebras[region] = self.overrides[region]
            else:
                self._algebras[region] = MatrixAlg.full_on_sites(
                    self.sites, self.region_sites[region], name=f"A({region})"
                )
        return self._algebras[region]

    def global_algebra(self) -> MatrixAlg:
        if "__global__" not in self._cache:
            masks = pauli_mask_span(
                self.sites,
                [m for u in self.category.objects for m in self.algebra(u).masks()],
            )
            self._cache["__global__"] = MatrixAlg.pauli_span(
                self.sites, masks, name="A(global)"
            )
        return self._cache["__global__"]

    def global_commutant(self) -> MatrixAlg:
        if "__commutant__" not in self._cache:
            self._cache["__commutant__"] = commutant(self.global_algebra())
        return self._cache["__commutant__"]

    def orth_partners(self, region: str) -> list[str]:
        """Objects U' admitting an orthogonal cospan (U' -> V) perp (region -> V)."""
        out = set()
        for f1, f2 in self.category.orth:
            m1 = self.category.morphisms.get(f1)
            m2 = self.category.morphisms.get(f2)
            if m1 and m2 and m2.src == region:
                out.add(m1.src)
        out.discard(region)
        return sorted(out)

    def join(self, u1: str, u2: str) -> str:
        """A minimal common superregion (fewest sites) of two regions."""
        best = None
        for v in self.category.objects:
            if self.category.hom(u1, v) and self.category.hom(u2, v):
                if best is None or len(self.region_sites[v]) < len(
                    self.region_sites[best]
                ):
                    best = v
        if best is None:
            raise PreconditionError(f"no common superregion of {u1} and {u2}")
        return best

    def validate(self) -> ValidationReport:
        """Functoriality (nested regions give nested algebras) and local
        commutation for unit checks; perp-commutativity has its own check."""
        report = ValidationReport(check="net-structure", subject=self.name)
        for m in sorted(self.category.morphisms.values()):
            if not self.region_sites[m.src] <= self.region_sites[m.tgt]:
                report.add(
                    "region-monotonicity", {"morphism": m.id, "src": m.src, "tgt": m.tgt}
                )
                continue
            if not self.algebra(m.src).masks() <= self.algebra(m.tgt).masks():
                report.add("algebra-inclusion", {"morphism": m.id})
        return report


def check_perp_commutativity(net: MatrixNet) -> ValidationReport:
    """Commutation of the local algebras over every orthogonal cospan of
    the index category, decided string by string by the symplectic form."""
    report = ValidationReport(check="perp-commutativity", subject=net.name)
    seen: set[tuple[str, str]] = set()
    for f1, f2 in sorted(net.category.orth):
        m1, m2 = net.category.morphisms[f1], net.category.morphisms[f2]
        key = (m1.src, m2.src)
        if key in seen or (key[1], key[0]) in seen:
            continue
        seen.add(key)
        p1, p2 = net.algebra(m1.src).masks(), net.algebra(m2.src).masks()
        for (x1, z1) in sorted(p1):
            for (x2, z2) in sorted(p2):
                if not pauli_commute(x1, z1, x2, z2):
                    report.add(
                        "perp-commutation",
                        {
                            "regions": [m1.src, m2.src],
                            "witness": [[x1, z1], [x2, z2]],
                        },
                    )
    return report


def check_haag_duality(net: MatrixNet, region: str) -> dict:
    """Bicommutant of A(U) against the joint commutant of all orthogonal
    local algebras, as exact span equality; the joint commutant is the
    symplectic complement of the partners' masks."""
    partners = net.orth_partners(region)
    if not partners:
        return {
            "check": "haag-duality",
            "subject": net.name,
            "region": region,
            "holds": False,
            "reason": "no orthogonal cospan exists for the region",
            "assumption_failure": "orthocomplement",
        }
    lhs = bicommutant(net.algebra(region))
    rhs = MatrixAlg.pauli_span(
        net.sites,
        pauli_commutant_masks(
            net.sites, [m for u in partners for m in net.algebra(u).masks()]
        ),
        name=f"joint-commutant({region})",
    )
    holds = span_equal(lhs, rhs)
    return {
        "check": "haag-duality",
        "subject": net.name,
        "region": region,
        "partners": partners,
        "lhs_dim": lhs.dim,
        "rhs_dim": rhs.dim,
        "holds": holds,
    }


# ---------------------------------------------------------------------------
# Localized endomorphisms and intertwiners
# ---------------------------------------------------------------------------


class LocalizedEndo:
    """Unital *-endomorphism of the net's global algebra together with a
    localization region; inner sectors carry their implementing unitary.

    An inner sector whose unitary is a scalar times the Pauli string
    P(x, z) also carries the mask (x, z), decoded once when the sector is
    built unless the caller passes it (products and relabelled copies do).
    """

    def __init__(
        self,
        net: MatrixNet,
        region: str,
        unitary: GMat | None = None,
        images: list[GMat] | None = None,
        label: str = "",
        validate: bool = True,
        mask: tuple[int, int] | None = None,
    ):
        if region not in net.region_sites:
            raise SchemaError(f"unknown region {region}")
        self.net = net
        self.region = region
        self.unitary = unitary
        self.label = label or (f"Ad[{unitary!r}]" if unitary is not None else "endo")
        if unitary is not None and validate and not unitary.is_unitary():
            raise PreconditionError("implementing matrix is not unitary")
        if unitary is not None and mask is None:
            p = as_pauli_string(unitary)
            mask = None if p is None else (p[0], p[1])
        self._mask = mask
        if unitary is None and images is None:
            raise PreconditionError("endomorphism needs a unitary or basis images")
        if images is not None:
            # images of the global basis, keyed by the mask of its string
            glob_masks = sorted(net.global_algebra().masks())
            if len(images) != len(glob_masks):
                raise PreconditionError("basis images do not match the global basis")
            images = dict(zip(glob_masks, images))
        self._images = images
        if validate and images is not None:
            self._check_homomorphism()

    def _check_homomorphism(self) -> None:
        glob = self.net.global_algebra()
        for img in self._images.values():
            if not glob.contains(img):
                raise PreconditionError("image leaves the global algebra")
        ident = GMat.identity(self.net.n)
        if not self.apply(ident).is_identity():
            raise PreconditionError("endomorphism is not unital")
        for a in glob.basis:
            if not self.apply(a.adjoint()) == self.apply(a).adjoint():
                raise PreconditionError("endomorphism does not respect adjoints")
            for b in glob.basis:
                if not self.apply(a @ b) == self.apply(a) @ self.apply(b):
                    raise PreconditionError("endomorphism is not multiplicative")

    def apply(self, m: GMat) -> GMat:
        if self.unitary is not None:
            return self.unitary @ m @ self.unitary.adjoint()
        # m is the sum of c * P(x, z), so its image is the sum of c times the
        # image of P(x, z)
        out = GMat.zero(self.net.n)
        for mask, c in pauli_coefficients(m).items():
            img = self._images.get(mask)
            if img is None:
                raise PreconditionError("matrix outside the global algebra")
            term = img if c == GR_ONE else img.scale(c)
            out = term if out.is_zero() else out + term
        return out

    @property
    def mask(self) -> tuple[int, int] | None:
        """(x, z) when the unitary is a scalar times P(x, z), else None."""
        return self._mask

    def same_map(self, other: "LocalizedEndo") -> bool:
        """Equality as maps on the global basis (region labels ignored).

        Two masked sectors are compared on their masks: b* a is a scalar
        times P(xa ^ xb, za ^ zb), so the `_ad_equal` rule reads as a lookup
        in the commutant's mask set; equal masks (a scalar b* a) are
        decided without building the commutant.  Other inner pairs go
        through `_ad_equal`, and image-built sectors are compared on the
        basis."""
        a, b = self.mask, other.mask
        if a is not None and b is not None:
            return a == b or (
                (a[0] ^ b[0], a[1] ^ b[1]) in self.net.global_commutant().masks()
            )
        if self.unitary is not None and other.unitary is not None:
            return _ad_equal(self.net, self.unitary, other.unitary)
        return _maps_equal_on_basis(self.net, self.apply, other.apply)

    def relabel(self, region: str, label: str | None = None) -> "LocalizedEndo":
        return LocalizedEndo(
            self.net,
            region,
            unitary=self.unitary,
            images=None if self._images is None else list(self._images.values()),
            label=label or self.label,
            validate=False,
            mask=self._mask,
        )

    def __repr__(self) -> str:
        return f"LocalizedEndo({self.label}@{self.region})"


def identity_sector(net: MatrixNet, region: str) -> LocalizedEndo:
    return LocalizedEndo(net, region, unitary=GMat.identity(net.n), label="1", mask=(0, 0))


def check_localized(rho: LocalizedEndo, net: MatrixNet) -> ValidationReport:
    """Strict localization: the endomorphism fixes every local algebra
    orthogonal to its region, elementwise on basis matrices.  A masked
    sector Ad P(a) fixes the string P(b) exactly when the two strings
    commute, so it is decided on the masks, taken in basis order."""
    report = ValidationReport(check="localized", subject=rho.label)
    a = rho.mask
    for u in net.orth_partners(rho.region):
        if a is None:
            fixed = (rho.apply(m) == m for m in net.algebra(u).basis)
        else:
            fixed = (pauli_commute(*a, *b) for b in sorted(net.algebra(u).masks()))
        for i, ok in enumerate(fixed):
            if not ok:
                report.add(
                    "strict-localization",
                    {"region": rho.region, "orthogonal_region": u, "basis_index": i},
                )
    return report


def translate_string(net: MatrixNet, u: GMat, src: str, tgt: str) -> GMat | None:
    """Move a Pauli-string unitary supported on src's sites to tgt's sites,
    preserving the per-site letters in site order; None when shapes differ."""
    p = as_pauli_string(u)
    if p is None:
        return None
    x, z, coeff = p
    L = net.sites
    src_sites = sorted(net.region_sites[src])
    tgt_sites = sorted(net.region_sites[tgt])
    letters = {}
    for s in range(L):
        shift = L - 1 - s
        xb, zb = (x >> shift) & 1, (z >> shift) & 1
        if xb or zb:
            if s not in src_sites:
                return None
            letters[src_sites.index(s)] = (xb, zb)
    if letters and max(letters) >= len(tgt_sites):
        return None
    nx = nz = 0
    for pos, (xb, zb) in letters.items():
        shift = L - 1 - tgt_sites[pos]
        nx |= xb << shift
        nz |= zb << shift
    return pauli_string(L, nx, nz, coeff)


@dataclass
class TransportReport:
    found: bool
    sector: str
    target: str
    transporter_label: str | None = None
    transporter: GMat | None = None
    transported: LocalizedEndo | None = None

    def to_dict(self) -> dict:
        return {
            "check": "transport",
            "found": self.found,
            "sector": self.sector,
            "target": self.target,
            "transporter": self.transporter_label,
        }


def check_transportable(
    rho: LocalizedEndo,
    target: str,
    net: MatrixNet,
    candidates: list[tuple[str, GMat]] | None = None,
) -> TransportReport:
    """Search for a unitary v with Ad_v after rho strictly localized in the
    target region.  For inner sectors the translated unitary v = u' u* is
    tried first; extra candidates extend the searched family.  Absence is a
    report outcome, not an error."""
    tried: list[tuple[str, GMat]] = [("identity", GMat.identity(net.n))]
    if rho.unitary is not None:
        moved = translate_string(net, rho.unitary, rho.region, target)
        if moved is not None:
            tried.append(("translated-pattern", moved @ rho.unitary.adjoint()))
    for item in candidates or []:
        tried.append(item)
    for label, v in tried:
        if not v.is_unitary():
            continue
        if rho.unitary is not None:
            cand = LocalizedEndo(
                net,
                target,
                unitary=v @ rho.unitary,
                label=f"{rho.label}~>{target}",
                validate=False,
            )
        else:
            glob = net.global_algebra()
            cand = LocalizedEndo(
                net,
                target,
                images=[v @ rho.apply(a) @ v.adjoint() for a in glob.basis],
                label=f"{rho.label}~>{target}",
                validate=False,
            )
        if check_localized(cand, net).ok:
            return TransportReport(
                found=True,
                sector=rho.label,
                target=target,
                transporter_label=label,
                transporter=v,
                transported=cand,
            )
    return TransportReport(found=False, sector=rho.label, target=target)


class Intertwiner:
    """Matrix T with T rho(a) = rho'(a) T on the global basis; membership in
    the local algebra of a joint localization region is validated."""

    def __init__(
        self,
        source: LocalizedEndo,
        target: LocalizedEndo,
        matrix: GMat,
        validate: bool = True,
    ):
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            net = source.net
            for a in net.global_algebra().basis:
                if matrix @ source.apply(a) != target.apply(a) @ matrix:
                    raise PreconditionError("matrix does not intertwine the sectors")
            join = net.join(source.region, target.region)
            local = bicommutant(net.algebra(join))
            if not local.contains(matrix):
                raise PreconditionError(
                    f"intertwiner leaves the local algebra of {join}"
                )

    def __repr__(self) -> str:
        return f"Intertwiner({self.source.label}->{self.target.label})"


def diamond(
    rho: LocalizedEndo, rhodot: LocalizedEndo, region: str | None = None
) -> LocalizedEndo:
    """Sector product: composition of endomorphisms.  Both factors must share
    a region, or the caller supplies a common superregion."""
    net = rho.net
    if region is None:
        if rho.region != rhodot.region:
            raise PreconditionError(
                "sectors live in different regions and no superregion was supplied"
            )
        region = rho.region
    else:
        for r in (rho.region, rhodot.region):
            if not net.category.hom(r, region):
                raise PreconditionError(f"{r} is not included in {region}")
    label = f"({rho.label}<>{rhodot.label})"
    if rho.unitary is not None and rhodot.unitary is not None:
        # a product of scaled Pauli strings is the scaled string of the XOR
        a, b = rho.mask, rhodot.mask
        return LocalizedEndo(
            net,
            region,
            unitary=rho.unitary @ rhodot.unitary,
            label=label,
            validate=False,
            mask=None if a is None or b is None else (a[0] ^ b[0], a[1] ^ b[1]),
        )
    glob = net.global_algebra()
    images = [rho.apply(rhodot.apply(a)) for a in glob.basis]
    return LocalizedEndo(net, region, images=images, label=label, validate=False)


def diamond_mor(t: Intertwiner, tdot: Intertwiner) -> Intertwiner:
    """Product of intertwiners T <> Tdot = T rho(Tdot); the intertwining law
    for the product sectors is re-verified exactly."""
    rho, rho_p = t.source, t.target
    sig, sig_p = tdot.source, tdot.target
    matrix = t.matrix @ rho.apply(tdot.matrix)
    region = rho.net.join(rho.region, sig.region)
    return Intertwiner(
        source=diamond(rho, sig, region=region),
        target=diamond(rho_p, sig_p, region=region),
        matrix=matrix,
    )


def check_perp_commutativity_sectors(
    rho1: LocalizedEndo,
    rho2: LocalizedEndo,
    t1: Intertwiner | None,
    t2: Intertwiner | None,
    net: MatrixNet,
) -> ValidationReport:
    """Sectors localized in orthogonal regions commute under the product, and
    so do their intertwiners, exactly."""
    report = ValidationReport(
        check="sector-perp-commutativity", subject=f"{rho1.label},{rho2.label}"
    )
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
        m_left = t1.matrix @ t1.source.apply(t2.matrix)
        m_right = t2.matrix @ t2.source.apply(t1.matrix)
        if m_left != m_right:
            report.add("morphism-commutativity", {"pair": [repr(t1), repr(t2)]})
        if m_left != t1.matrix @ t2.matrix:
            report.add("morphism-localization", {"pair": [repr(t1), repr(t2)]})
    return report


def pfa_structure_map(
    op, sectors: tuple[LocalizedEndo, ...], net: MatrixNet
) -> LocalizedEndo:
    """Structure map of the sector prefactorization algebra: include each
    sector along its arrow and take the iterated product in the target;
    arity zero yields the identity sector (the monoidal unit)."""
    if len(sectors) != len(op.sources):
        raise PreconditionError("operation arity does not match the sector tuple")
    for rho, u in zip(sectors, op.sources):
        if rho.region != u:
            raise PreconditionError(
                f"sector {rho.label} is localized in {rho.region}, not {u}"
            )
    if not sectors:
        return identity_sector(net, op.target)
    out = sectors[0].relabel(op.target)
    for rho in sectors[1:]:
        out = diamond(out, rho.relabel(op.target))
    return out


def sector_carriers(
    net: MatrixNet, family: dict[str, list[LocalizedEndo]]
) -> dict[str, list[LocalizedEndo]]:
    """Carrier lists for the operad validators: the identity sector plus the
    supplied family members at each region."""
    return {
        u: [identity_sector(net, u)] + list(family.get(u, []))
        for u in net.category.objects
    }


def _sector_summary(u: str, s: LocalizedEndo) -> tuple[int, int] | None:
    """The mask of an inner masked sector at region u, re-derived from its
    unitary; None for any other sector, one at another region, or one whose
    stored mask disagrees with its unitary."""
    if s.region != u or s.mask is None or s.unitary is None:
        return None
    p = as_pauli_string(s.unitary)
    return s.mask if p is not None and (p[0], p[1]) == s.mask else None


def sector_algebra_assignment(
    net: MatrixNet, family: dict[str, list[LocalizedEndo]]
):
    """Algebra-over-the-operad data for the sector model.  Structure-map
    evaluations are cached on the operation and the regions and implementing
    unitaries of the sectors (equal unitaries share an entry; a `GMat`
    caches its hash): the diagram validators evaluate the same (operation,
    sectors) pairs repeatedly.  The regions are part of the key because a
    sector at a region other than its source makes the map raise.  Tuples
    holding an image-built sector are not cached.

    The summary of a sector is its mask (`_sector_summary`).  It meets the
    contract of `FiniteAlgebraAssignment`: `pfa_structure_map` on sectors
    at their sources relabels them to the target and multiplies them, and
    `diamond` gives a product of masked sectors the XOR of the masks (the
    identity sector has mask (0, 0)); `same_map` accepts equal masks."""
    from .operad import FiniteAlgebraAssignment

    carriers = sector_carriers(net, family)
    cache: dict = {}

    def structure(op):
        def run(args):
            key = (op, *[s.unitary for s in args], *[s.region for s in args])
            out = cache.get(key)
            if out is None:
                out = pfa_structure_map(op, args, net)
                if all(s.unitary is not None for s in args):
                    cache[key] = out
            return out

        return run

    return FiniteAlgebraAssignment(
        carrier=lambda u: carriers[u],
        structure=structure,
        equal=lambda a, b: a.same_map(b),
        describe=lambda s: s.label,
        name=f"sectors({net.name})",
        summary=_sector_summary,
    )


def sector_equivariant_assignment(
    net: MatrixNet, data: "SectorGroupData", family: dict[str, list[LocalizedEndo]]
):
    """Equivariant algebra data: the isomorphisms act by the implementing
    unitaries, sending sectors at U to transformed sectors at alpha_g(U).
    Transformed inner sectors are cached on (g, region, unitary); the
    diagram validators revisit the same elements many times and each
    transform re-verifies localization."""
    from .operad import EquivariantAlgebraAssignment

    base = sector_algebra_assignment(net, family)
    cache: dict = {}

    def act(g: str, rho: LocalizedEndo) -> LocalizedEndo:
        key = (g, rho.region, rho.unitary)
        out = cache.get(key)
        if out is None:
            out = g_act_sector(g, rho, data)
            if rho.unitary is not None:
                cache[key] = out
        return out

    return EquivariantAlgebraAssignment(
        base=base,
        iso=lambda g, u: (lambda rho: act(g, rho)),
        name=f"equivariant-sectors({net.name})",
    )


def validate_theorem_3_11(
    net: MatrixNet,
    family: dict[str, list[LocalizedEndo]],
    bound: int = 3,
) -> ValidationReport:
    """Full structure-map validation for a sector family: net prechecks,
    strict localization of every family member, the algebra diagrams over
    the operad of the index category, and strict monoidality of every
    structure map on sector pairs.

    Strict monoidality is proved, like the algebra diagrams, when every
    sector has a summary (`_sector_summary`): each side is a product of
    the same masks, so both carry their XOR and `same_map` accepts them.
    Otherwise every pair of tuples is walked."""
    from .operad import enumerate_all_operations, validate_algebra
    from .orthcat import (
        check_assumption_extension,
        check_assumption_orthocomplement,
        check_filtered,
    )

    report = ValidationReport(check="structure-maps", subject=net.name)
    # no finite net satisfies every global hypothesis at once; record which
    # ones the index category carries so readers see the checked scope
    report.notes = {
        "filtered": check_filtered(net.category).filtered,
        "orthocomplement": check_assumption_orthocomplement(net.category).holds,
        "extension": check_assumption_extension(net.category).holds,
        "model": INNER_MODEL_NOTE,
    }
    perp = check_perp_commutativity(net)
    if not perp.ok:
        report.violations.extend(perp.violations)
        return report
    for u in net.category.objects:
        if net.orth_partners(u):
            haag = check_haag_duality(net, u)
            if not haag["holds"]:
                report.add("haag-precheck", {"region": u})
                return report
    carriers = sector_carriers(net, family)
    for u, sectors in sorted(carriers.items()):
        for s in sectors:
            if s.region != u:
                report.add("localization-precheck", {"sector": s.label, "carrier": u})
                return report
            loc = check_localized(s, net)
            if not loc.ok:
                report.add(
                    "localization-precheck",
                    {"sector": s.label, "violations": len(loc.violations)},
                )
                return report

    assign = sector_algebra_assignment(net, family)
    alg_report = validate_algebra(net.category, assign, bound=bound)
    report.violations.extend(alg_report.violations)

    # strict monoidality of each structure map on sector pairs
    if all(assign.summary(u, s) is not None for u, sectors in carriers.items() for s in sectors):
        return report
    for op in enumerate_all_operations(net.category, min(bound, 2)):
        if op.arity == 0:
            continue
        pools = [carriers[u] for u in op.sources]
        for rhos in itertools.product(*pools):
            for rhodots in itertools.product(*pools):
                left = pfa_structure_map(
                    op,
                    tuple(
                        diamond(r, rd) for r, rd in zip(rhos, rhodots)
                    ),
                    net,
                )
                right = diamond(
                    pfa_structure_map(op, rhos, net),
                    pfa_structure_map(op, rhodots, net),
                    region=op.target,
                )
                if not left.same_map(right):
                    report.add(
                        "strict-monoidality",
                        {
                            "op": op.label(),
                            "sectors": [r.label for r in rhos],
                            "dotted": [r.label for r in rhodots],
                        },
                    )
    return report


# ---------------------------------------------------------------------------
# Group actions on sectors
# ---------------------------------------------------------------------------


@dataclass
class SectorGroupData:
    """Finite group acting on the index category together with implementing
    unitaries on the global algebra."""

    net: MatrixNet
    action: GroupActionSpec
    unitaries: dict[str, GMat]
    name: str = ""

    def validate(self) -> ValidationReport:
        """Implementation axioms: each u_g unitary, the adjoint action matches
        the region action on every local algebra, compositions hold up to
        phase, and the unit acts trivially."""
        report = ValidationReport(check="group-implementation", subject=self.name)
        group = self.action.group
        unit = group.unit()
        for g in group.elements:
            u = self.unitaries.get(g)
            if u is None:
                report.schema_errors.append(f"missing unitary for {g}")
                continue
            if not u.is_unitary():
                report.add("unitary", {"g": g})
        if report.schema_errors or report.violations:
            return report
        if not _ad_equal(self.net, self.unitaries[unit], GMat.identity(self.net.n)):
            report.add("unit-implementation", {"g": unit})
        for g in group.elements:
            u = self.unitaries[g]
            functor = self.action.action[g]
            for region in self.net.category.objects:
                img = functor.apply_obj(region)
                alg = self.net.algebra(region)
                target = self.net.algebra(img)
                for m in alg.basis:
                    if not target.contains(u @ m @ u.adjoint()):
                        report.add(
                            "covariant-implementation", {"g": g, "region": region}
                        )
                        break
        for g1 in group.elements:
            for g2 in group.elements:
                u12 = self.unitaries[g1] @ self.unitaries[g2]
                uprod = self.unitaries[group.mult(g1, g2)]
                phase = (uprod.adjoint() @ u12).scalar_multiple_of_identity()
                if phase is None:
                    report.add("projective-composition", {"g1": g1, "g2": g2})
        return report


def g_act_sector(g: str, rho: LocalizedEndo, data: SectorGroupData) -> LocalizedEndo:
    """Transformed sector: conjugate the endomorphism by the implementing
    unitary; localization in the moved region is re-verified."""
    u = data.unitaries[g]
    moved_region = data.action.action[g].apply_obj(rho.region)
    label = f"{g}|>{rho.label}"
    if rho.unitary is not None:
        out = LocalizedEndo(
            data.net,
            moved_region,
            unitary=u @ rho.unitary @ u.adjoint(),
            label=label,
            validate=False,
        )
    else:
        glob = data.net.global_algebra()
        images = [
            u @ rho.apply(u.adjoint() @ a @ u) @ u.adjoint() for a in glob.basis
        ]
        out = LocalizedEndo(data.net, moved_region, images=images, label=label, validate=False)
    loc = check_localized(out, data.net)
    if not loc.ok:
        raise PreconditionError(
            f"transformed sector is not localized in {moved_region}"
        )
    return out


@dataclass
class CovarianceFamily:
    sector: str
    unitaries: dict[str, GMat]
    method: str


def _maps_equal_on_basis(net: MatrixNet, f, g) -> bool:
    return all(f(a) == g(a) for a in net.global_algebra().basis)


def _ad_equal(net: MatrixNet, a: GMat, b: GMat) -> bool:
    """Ad_a == Ad_b on the global algebra, for unitaries a and b: exactly
    when b* a commutes with the global algebra, that is, lies in its
    commutant.  A scalar b* a is decided without the commutant.

    `LocalizedEndo.same_map` reads this rule on masks when both unitaries
    are scaled Pauli strings and calls it for every other inner pair; the
    tests keep it as the oracle of the mask rule."""
    c = b.adjoint() @ a
    if c.scalar_multiple_of_identity() is not None:
        return True
    return net.global_commutant().contains(c)


def find_covariance(
    rho: LocalizedEndo, data: SectorGroupData
) -> CovarianceFamily | None:
    """Projective family implementing the sector's covariance.

    Inner sectors always admit the conjugated family.  For general sectors
    the intertwining system is solved exactly by `_solve_intertwiner`, and
    None is returned when it finds no solution.  On diagonal constraints
    (the abelian nets) that search is complete, so None proves that no
    unitary family exists; on other constraints it is not.
    """
    net = data.net
    group = data.action.group
    if rho.unitary is not None:
        fam = {}
        for g in group.elements:
            u_g = data.unitaries[g]
            cand = rho.unitary @ u_g @ rho.unitary.adjoint()
            # rho Ad_{u_g} = Ad_{v u_g} and Ad_cand rho = Ad_{cand v}
            if not _ad_equal(net, rho.unitary @ u_g, cand @ rho.unitary):
                return None
            fam[g] = cand
        return CovarianceFamily(sector=rho.label, unitaries=fam, method="inner")
    fam = {}
    for g in group.elements:
        u_g = data.unitaries[g]
        glob = net.global_algebra()
        pairs = [
            (rho.apply(u_g @ a @ u_g.adjoint()), rho.apply(a)) for a in glob.basis
        ]
        y = _solve_intertwiner(net.n, pairs)
        if y is None:
            return None
        fam[g] = y
    return CovarianceFamily(sector=rho.label, unitaries=fam, method="linear-solve")


def _solve_intertwiner(
    n: int, pairs: list[tuple[GMat, GMat]]
) -> GMat | None:
    """A y with lhs*y = y*rhs for all pairs and y y* a nonzero scalar, or None.

    On diagonal constraints the search is complete: None means no unitary
    solution exists.  Otherwise only the nullspace basis vectors are tried,
    so None can come back although a solution exists in their span: for
    the single pair (X (x) I, X (x) I) the identity solves the system, yet
    no basis vector of the 8-dimensional nullspace is unitary up to
    scale."""
    if all(
        all(i == j for (i, j) in m.data) for pair in pairs for m in pair
    ):
        # diagonal constraints pin each entry separately
        allowed = {}
        for i in range(n):
            for j in range(n):
                if all(
                    lhs.data.get((i, i), GR_ZERO) == rhs.data.get((j, j), GR_ZERO)
                    for lhs, rhs in pairs
                ):
                    allowed[(i, j)] = GR_ONE
        if not allowed:
            return None
        # a unitary solution must hit every row and column within the pattern
        rows = {i for i, _ in allowed}
        cols = {j for _, j in allowed}
        if len(rows) < n or len(cols) < n:
            return None
        # diagonal constraints partition indices into label classes, so the
        # pattern is a union of complete bipartite blocks and greedy
        # matching within blocks is complete
        match: dict[int, int] = {}
        used: set[int] = set()
        for i in range(n):
            for j in range(n):
                if (i, j) in allowed and j not in used:
                    match[i] = j
                    used.add(j)
                    break
            else:
                return None
        y = GMat(n, {(i, j): GR_ONE for i, j in match.items()})
        if all(lhs @ y == y @ rhs for lhs, rhs in pairs):
            return y
        return None
    for y in _sylvester_basis(n, pairs):
        prod = (y @ y.adjoint()).scalar_multiple_of_identity()
        if prod is not None and not prod.is_zero():
            return y
    return None


def diamond_covariance(
    rho: LocalizedEndo,
    rhodot: LocalizedEndo,
    fam: CovarianceFamily,
    famdot: CovarianceFamily,
    data: SectorGroupData,
) -> CovarianceFamily:
    """Composite covariance family for the product sector, with the defining
    identity chain re-verified term by term on the global basis."""
    net = data.net
    group = data.action.group
    out: dict[str, GMat] = {}
    prod = diamond(rho, rhodot, region=net.join(rho.region, rhodot.region))
    inner = rho.unitary is not None and rhodot.unitary is not None
    for g in group.elements:
        u_g = data.unitaries[g]
        u_rho = fam.unitaries[g]
        u_dot = famdot.unitaries[g]
        composite = u_rho @ rho.apply(u_g.adjoint() @ u_dot)
        if inner:
            # every stage of the identity chain is conjugation by an explicit
            # unitary; consecutive stages are compared as adjoint actions
            v, w = rho.unitary, rhodot.unitary
            bridge = u_g.adjoint() @ u_dot
            stages = [
                v @ w @ u_g,
                v @ u_dot @ w,
                v @ u_g @ bridge @ w,
                u_rho @ v @ bridge @ w,
                composite @ v @ w,
            ]
            for step in range(len(stages) - 1):
                if not _ad_equal(net, stages[step], stages[step + 1]):
                    raise PreconditionError(
                        f"covariance chain broke at step {step} for {g}"
                    )
            out[g] = composite
            continue
        # general sectors: compare the chain stages as maps on the basis
        chain = [
            lambda a: prod.apply(u_g @ a @ u_g.adjoint()),
            lambda a: rho.apply(u_dot @ rhodot.apply(a) @ u_dot.adjoint()),
            lambda a: rho.apply(
                u_g
                @ (
                    (u_g.adjoint() @ u_dot)
                    @ rhodot.apply(a)
                    @ (u_g.adjoint() @ u_dot).adjoint()
                )
                @ u_g.adjoint()
            ),
            lambda a: u_rho
            @ rho.apply(
                (u_g.adjoint() @ u_dot) @ rhodot.apply(a) @ (u_g.adjoint() @ u_dot).adjoint()
            )
            @ u_rho.adjoint(),
            lambda a: composite @ prod.apply(a) @ composite.adjoint(),
        ]
        for step in range(len(chain) - 1):
            if not _maps_equal_on_basis(net, chain[step], chain[step + 1]):
                raise PreconditionError(
                    f"covariance chain broke at step {step} for {g}"
                )
        out[g] = composite
    return CovarianceFamily(
        sector=f"({fam.sector}<>{famdot.sector})",
        unitaries=out,
        method="composite",
    )
