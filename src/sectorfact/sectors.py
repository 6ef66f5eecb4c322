"""Finite-dimensional sector calculus on nets of matrix algebras.

A net assigns to every region of a finite orthogonal index category a
unital *-subalgebra of a global matrix algebra over the Gaussian
rationals.  Nets are qubit chains, and `MatrixNet` requires every local
algebra to be spanned by Pauli strings.  That keeps commutants, Haag
duality and all sector identities decidable by exact symplectic
arithmetic on GF(2) rows (Gottesman, arXiv:quant-ph/9705052; Dehaene and
De Moor, Phys. Rev. A 68, 042318): the strings of an algebra are the XOR
span of at most 2L (x, z) masks, a commutant is a GF(2) nullspace, and a
string lies in an algebra exactly when its mask reduces to zero against
the algebra's rows.  `MatrixAlg` is therefore its reduced rows alone.

Sectors are unital *-endomorphisms of the global algebra acting as the
identity on every algebra orthogonal to their localization region.  Such
a map is fixed by its images of the strings of the global algebra's rows
(at most 2L), and every sector is held in that one form, its tableau
(Aaronson and Gottesman, arXiv:quant-ph/0406196): each row's image as a
sign and a mask.  A string's image is read off the tableau on masks, two
sectors are the same map exactly when their tableaux are equal, and the
sector product composes tableaux.  When a sector is a Pauli conjugation,
the implementing string is derived from its tableau by one GF(2) solve.
Group data and covariance families are tableaux on all of M_N too.

Intertwiners, the morphisms between sectors (Doplicher, Haag and Roberts,
Commun. Math. Phys. 23 (1971)), are Pauli sums {x << L | z: c}: a sector
maps a sum term by term, and sums multiply string by string
(`_string_product`).  So the sector layer holds masks only, and no
verdict builds a matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .linalg import (
    GR_ONE,
    GaussianRational,
    _StringMap,
    _chase,
    _compose,
    _extension_tableau,
    _gf2_nullspace,
    _gf2_pivots,
    _gf2_solve,
    _inverse_tableau,
    _mask_span,
    _string_product,
    pauli_commute,
)
from .operad import EquivariantAlgebraAssignment, FiniteAlgebraAssignment
from .operad import enumerate_all_operations, validate_algebra
from .orthcat import (
    GroupActionSpec,
    OrthCategory,
    check_assumption_extension,
    check_assumption_orthocomplement,
    check_filtered,
    validate_category,
    validate_group_action,
)
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
    "action_laws_hold",
    "find_covariance",
    "diamond_covariance",
    "identity_sector",
]


class MatrixAlg:
    """Unital *-subalgebra of M_N, N = 2**L, spanned by Pauli strings and
    held as the reduced GF(2) rows of their (x, z) masks.

    `rows` are the (pivot bit, x << L | z) pairs of one Gauss-Jordan
    elimination (`_gf2_pivots`) in pivot order, at most 2L: each pivot is
    its row's highest bit and is set in no other row, so the rows are the
    span's canonical basis and span equality is rows equality.  Strings of
    an XOR span multiply to scalars times strings of the span, so every
    span is an algebra.  Membership, inclusion and commutants are read off
    the rows, and masks are the algebra's only element form: the 2**rank
    masks of its strings (`masks`) are built only when a caller asks.
    """

    def __init__(self, L: int, vectors, name: str = ""):
        """Algebra of the XOR span of the 2L-bit vectors x << L | z."""
        self.L = L
        self.n = 1 << L
        self.name = name
        self.rows = sorted(_gf2_pivots(list(vectors)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def pauli_span(L: int, masks, name: str = "") -> "MatrixAlg":
        """Algebra spanned by the Pauli strings of the given (x, z) masks,
        which must hold (0, 0) and be closed under XOR, else SchemaError.
        A set lies in its span, so it is closed exactly when it is as large
        as the span."""
        masks = set(masks)
        alg = MatrixAlg(L, [(x << L) | z for x, z in masks], name)
        if (0, 0) not in masks:
            raise SchemaError("identity string missing from basis span")
        if len(masks) != alg.dim:
            raise SchemaError("span not closed under products")
        return alg

    @staticmethod
    def full_on_sites(L: int, sites, name: str = "") -> "MatrixAlg":
        """Tensor factor: all Pauli strings supported on the given sites."""
        bits = [1 << (L - 1 - site) for site in sites]
        return MatrixAlg(L, [b << L for b in bits] + bits, name=name)

    @staticmethod
    def diagonal_on_sites(L: int, sites, name: str = "") -> "MatrixAlg":
        """Abelian subalgebra: Z-type strings supported on the given sites."""
        return MatrixAlg(L, [1 << (L - 1 - site) for site in sites], name=name)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << len(self.rows)

    def _spans(self, v: int) -> bool:
        """Whether the string of the vector v = x << L | z lies in the
        algebra: v reduces to 0 against the pivots."""
        for bit, r in self.rows:
            if (v >> bit) & 1:
                v ^= r
        return v == 0

    def masks(self) -> frozenset[tuple[int, int]]:
        """The (x, z) masks of the spanning strings, built on first use."""
        return self._masks

    @functools.cached_property
    def _masks(self) -> frozenset[tuple[int, int]]:
        return frozenset(_mask_span(self.L, [r for _, r in self.rows]))

    def __repr__(self) -> str:
        return f"MatrixAlg({self.name or 'anon'}, n={self.n}, dim={self.dim} pauli L={self.L})"


def _commutant_of(L: int, rows: list[int], name: str) -> MatrixAlg:
    """The strings commuting with those of `rows`: P(v) commutes with
    P(x, z) exactly when v is orthogonal to z << L | x over GF(2)."""
    low = (1 << L) - 1
    swapped = [((r & low) << L) | (r >> L) for r in rows]
    return MatrixAlg(L, _gf2_nullspace(swapped, 2 * L), name)


def commutant(alg: MatrixAlg) -> MatrixAlg:
    """{X : XA = AX for every A in alg}: the strings symplectically
    orthogonal to every row of alg."""
    return _commutant_of(alg.L, [r for _, r in alg.rows], name=f"{alg.name}'")


def bicommutant(alg: MatrixAlg) -> MatrixAlg:
    """Commutant applied twice; equals the algebra itself in finite dimension."""
    out = commutant(commutant(alg))
    if not span_equal(out, alg):
        raise PreconditionError(
            f"double commutant of {alg.name or 'the algebra'} differs from it"
        )
    return out


def span_equal(a: MatrixAlg, b: MatrixAlg) -> bool:
    return a.n == b.n and a.rows == b.rows


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
    algebra and its commutant) run on the algebras' GF(2) rows only.
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
        # checked tableau -> its `_StringMap`, shared by equal sectors
        self._maps: dict[tuple, _StringMap] = {}
        self._structure: ValidationReport | None = None
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
            rows = [r for u in self.category.objects for _, r in self.algebra(u).rows]
            self._cache["__global__"] = MatrixAlg(self.sites, rows, name="A(global)")
        return self._cache["__global__"]

    def global_commutant(self) -> MatrixAlg:
        if "__commutant__" not in self._cache:
            self._cache["__commutant__"] = commutant(self.global_algebra())
        return self._cache["__commutant__"]

    def orth_partners(self, region: str) -> list[str]:
        """Sorted objects U' != region with an orthogonal cospan (U' -> V)
        perp (region -> V): `OrthCategory.partners` without the region."""
        return [u for u in self.category.partners(region) if u != region]

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

    def _fault(self, m):  # the violation along the arrow m, if any
        if not self.region_sites[m.src] <= self.region_sites[m.tgt]:
            return "region-monotonicity", {"morphism": m.id, "src": m.src, "tgt": m.tgt}
        tgt = self.algebra(m.tgt)
        if not all(tgt._spans(r) for _, r in self.algebra(m.src).rows):
            return "algebra-inclusion", {"morphism": m.id}

    def validate(self) -> ValidationReport:
        """Functoriality: nested regions give nested algebras, along every
        arrow.  Both are transitive, so they are checked along the
        category's generating arrows, and every arrow is walked, for the
        witnesses, only when one fails there.  The net does not change once
        built, so the report is made once and kept."""
        if self._structure is None:
            self._structure = ValidationReport(check="net-structure", subject=self.name)
            if any(map(self._fault, self.category.generating_arrows())):
                for fault in map(self._fault, sorted(self.category.morphisms.values())):
                    if fault:
                        self._structure.add(*fault)
        return self._structure


def check_perp_commutativity(net: MatrixNet) -> ValidationReport:
    """Commutation of the local algebras over every pair of orthogonal
    regions (`OrthCategory.source_pairs`), decided by the symplectic form
    on their rows: two algebras commute exactly when their generators do.
    Only a pair that fails is walked string by string, in mask order, for
    the witnesses."""
    report = ValidationReport(check="perp-commutativity", subject=net.name)
    L, low = net.sites, (1 << net.sites) - 1
    for u1, u2 in net.category.source_pairs():
        a1, a2 = net.algebra(u1), net.algebra(u2)
        if all(
            pauli_commute(r1 >> L, r1 & low, r2 >> L, r2 & low)
            for _, r1 in a1.rows
            for _, r2 in a2.rows
        ):
            continue
        p2 = sorted(a2.masks())
        for (x1, z1) in sorted(a1.masks()):
            for (x2, z2) in p2:
                if not pauli_commute(x1, z1, x2, z2):
                    report.add(
                        "perp-commutation",
                        {
                            "regions": [u1, u2],
                            "witness": [[x1, z1], [x2, z2]],
                        },
                    )
    return report


def check_haag_duality(net: MatrixNet, region: str) -> dict:
    """A(U), a string algebra and so its own bicommutant, against the joint
    commutant of all orthogonal local algebras, as exact span equality; the
    joint commutant is the symplectic complement of the partners' distinct
    rows."""
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
    lhs = net.algebra(region)
    rows = list({r for u in partners for _, r in net.algebra(u).rows})
    rhs = _commutant_of(net.sites, rows, f"joint-commutant({region})")
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


def _conjugation_tableau(glob: MatrixAlg, v: int) -> tuple[int, ...]:
    """Tableau of Ad P(v), v = x << L | z, on glob: each row kept, with
    the sign bit set exactly when its string anticommutes with P(v)."""
    L, low = glob.L, (1 << glob.L) - 1
    return tuple(
        (r << 1) | (not pauli_commute(v >> L, v & low, r >> L, r & low)) for _, r in glob.rows
    )


class LocalizedEndo:
    """Unital *-endomorphism of the net's global algebra together with a
    localization region, held as its tableau alone: for the k-th row of the
    global algebra's reduced GF(2) basis (`MatrixAlg.rows`), the image of
    its string as the signed mask t << 1 | s, meaning (-1)**s P(t).

    A tableau with other than one image per row, or with an image outside
    the global algebra, is refused with PreconditionError.  Each distinct
    tableau is checked once per net, which keeps it with its `_StringMap`
    in `net._maps`.  Reading the image of a string outside the global
    algebra, or of a product whose row images break a commutation among
    the rows, raises PreconditionError (`_StringMap`).
    """

    def __init__(self, net: MatrixNet, region: str, tableau: tuple[int, ...], label: str = ""):
        if region not in net.region_sites:
            raise SchemaError(f"unknown region {region}")
        image = net._maps.get(tableau)
        if image is None:
            glob = net.global_algebra()
            if len(tableau) != len(glob.rows) or not all(
                code >> 1 == r or glob._spans(code >> 1) for code, (_, r) in zip(tableau, glob.rows)
            ):
                raise PreconditionError("image leaves the global algebra")
            image = net._maps[tableau] = _StringMap(glob.L, glob.rows, tableau)
        self.net, self.region, self.tableau, self._map = net, region, tableau, image
        self.label = label or "endo"

    def pauli_mask(self) -> int | None:
        """A mask a = x << L | z with Ad P(a) equal to the sector on the
        global algebra, or None when the tableau is no Pauli conjugation
        (`_sector_summary`).  Ad P(a) gives row r the sign bit a . swap(r)
        (the symplectic form), so a solves the swapped rows, each with its
        sign bit appended as bit 0 (`_gf2_solve`, free coordinates zero).
        a is unique modulo the global commutant's masks."""
        signs = _sector_summary(self.region, self)
        if signs is None:
            return None
        L, low = self.net.sites, (1 << self.net.sites) - 1
        rows = self.net.global_algebra().rows
        eqs = [((r & low) << L | r >> L) << 1 | (signs >> k) & 1 for k, (_, r) in enumerate(rows)]
        return _gf2_solve(eqs)

    def apply(self, terms: dict[int, GaussianRational]) -> dict[int, GaussianRational]:
        """The image of the Pauli sum {v: c}, term by term: each string to
        its signed string.  A sector need not be injective, so images may
        meet and cancel."""
        image = self._map
        return _pauli_sum((image[v] >> 1, -c if image[v] & 1 else c) for v, c in terms.items())

    def same_map(self, other: "LocalizedEndo") -> bool:
        """Equality as maps on the global algebra (region labels ignored):
        tableau equality, as a *-map is fixed on the strings of the rows."""
        return self.tableau == other.tableau

    def relabel(self, region: str, label: str | None = None) -> "LocalizedEndo":
        return LocalizedEndo(self.net, region, self.tableau, label or self.label)

    def __repr__(self) -> str:
        return f"LocalizedEndo({self.label}@{self.region})"


def identity_sector(net: MatrixNet, region: str) -> LocalizedEndo:
    tableau = _conjugation_tableau(net.global_algebra(), 0)
    return LocalizedEndo(net, region, tableau, "1")


def check_localized(rho: LocalizedEndo) -> ValidationReport:
    """Strict localization: the endomorphism fixes every local algebra of
    its net orthogonal to its region, string by string.  It fixes an algebra
    exactly when it fixes the strings of the algebra's rows; only an
    algebra where one is moved is walked, in mask order, for the
    witnesses."""
    report = ValidationReport(check="localized", subject=rho.label)
    net, image, L = rho.net, rho._map, rho.net.sites
    for u in net.orth_partners(rho.region):
        alg = net.algebra(u)
        if all(image[r] == r << 1 for _, r in alg.rows):
            continue
        for i, (x, z) in enumerate(sorted(alg.masks())):
            v = (x << L) | z
            if image[v] != v << 1:
                report.add(
                    "strict-localization",
                    {"region": rho.region, "orthogonal_region": u, "basis_index": i},
                )
    return report


def translate_string(net: MatrixNet, v: int, src: str, tgt: str) -> int | None:
    """Move the string of the mask v = x << L | z from src's sites to tgt's,
    keeping the per-site letters in site order; None when the shapes differ."""
    L, moved = net.sites, 0
    tgt_sites = sorted(net.region_sites[tgt])
    for k, s in enumerate(sorted(net.region_sites[src])):
        letter = v >> (L - 1 - s) & (1 << L | 1)  # the x and z bits of site s
        if letter:
            if k >= len(tgt_sites):
                return None
            v ^= letter << (L - 1 - s)
            moved |= letter << (L - 1 - tgt_sites[k])
    return None if v else moved


@dataclass
class TransportReport:
    found: bool
    sector: str
    target: str
    transporter_label: str | None = None
    transported: LocalizedEndo | None = None

    def to_dict(self) -> dict:
        return {
            "check": "transport",
            "found": self.found,
            "sector": self.sector,
            "target": self.target,
            "transporter": self.transporter_label,
        }


def check_transportable(rho: LocalizedEndo, target: str) -> TransportReport:
    """Search for a unitary v with Ad_v after rho strictly localized in the
    target region of rho's net, on tableaux.  Two transporters are tried:
    the identity (rho itself moved to the target), and, for a Pauli
    conjugation Ad P(a) (`LocalizedEndo.pauli_mask`), v = P(a') P(a)* with
    a' the letters of a moved to the target's sites, whose transported
    sector is Ad P(a').
    Absence is a report outcome, not an error."""
    net, moved_label = rho.net, f"{rho.label}~>{target}"
    tried = [("identity", rho.relabel(target, moved_label))]
    a = rho.pauli_mask()
    moved = None if a is None else translate_string(net, a, rho.region, target)
    if moved is not None:
        tableau = _conjugation_tableau(net.global_algebra(), moved)
        ad_moved = LocalizedEndo(net, target, tableau, moved_label)
        tried.append(("translated-pattern", ad_moved))
    for label, cand in tried:
        if check_localized(cand).ok:
            return TransportReport(True, rho.label, target, label, cand)
    return TransportReport(found=False, sector=rho.label, target=target)


def _pauli_sum(terms) -> dict[int, GaussianRational]:
    """{v: c} summed over the (v, c) pairs of `terms`, zeros dropped."""
    out: dict[int, GaussianRational] = {}
    for v, c in terms:
        out[v] = out[v] + c if v in out else c
    return {v: c for v, c in out.items() if not c.is_zero()}


def _times(L: int, s: dict, t: dict) -> dict[int, GaussianRational]:
    """The Pauli sum of the product of two Pauli sums, string by string."""
    out = []
    for a, c in s.items():
        for b, d in t.items():
            v, unit = _string_product(L, a, b)
            out.append((v, unit * c * d))
    return _pauli_sum(out)


class Intertwiner:
    """Pauli sum T = sum of c P(v) over `terms` {v: c}, v = x << L | z, with
    T rho(a) = rho'(a) T for rho = source and rho' = target on the global
    algebra, checked on the strings of its rows.  T must lie in the local
    algebra of a joint localization region: every mask is spanned there."""

    def __init__(self, source: LocalizedEndo, target: LocalizedEndo, terms: dict[int, GaussianRational]):
        net, L = source.net, source.net.sites
        self.source, self.target = source, target
        self.terms = _pauli_sum(terms.items())
        for _, r in net.global_algebra().rows:
            row = {r: GR_ONE}
            if _times(L, self.terms, source.apply(row)) != _times(L, target.apply(row), self.terms):
                raise PreconditionError("Pauli sum does not intertwine the sectors")
        join = net.join(source.region, target.region)
        if not all(map(net.algebra(join)._spans, self.terms)):
            raise PreconditionError(f"intertwiner leaves the local algebra of {join}")

    def __repr__(self) -> str:
        return f"Intertwiner({self.source.label}->{self.target.label})"


def diamond(
    rho: LocalizedEndo, rhodot: LocalizedEndo, region: str | None = None
) -> LocalizedEndo:
    """Sector product: composition of endomorphisms, as the tableau of rho
    after rhodot.  Both factors must share a region, or the caller supplies
    a common superregion."""
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
    tableau = _compose(rho._map, rhodot.tableau)
    return LocalizedEndo(net, region, tableau, label)


def diamond_mor(t: Intertwiner, tdot: Intertwiner) -> Intertwiner:
    """Product of intertwiners T <> Tdot = T rho(Tdot); the intertwining law
    for the product sectors is re-verified exactly."""
    rho, rho_p = t.source, t.target
    sig, sig_p = tdot.source, tdot.target
    terms = _times(rho.net.sites, t.terms, rho.apply(tdot.terms))
    region = rho.net.join(rho.region, sig.region)
    return Intertwiner(diamond(rho, sig, region), diamond(rho_p, sig_p, region), terms)


def check_perp_commutativity_sectors(
    rho1: LocalizedEndo,
    rho2: LocalizedEndo,
    t1: Intertwiner | None,
    t2: Intertwiner | None,
) -> ValidationReport:
    """Sectors localized in orthogonal regions of rho1's net commute under
    the product, and so do their intertwiners, exactly.  The intertwiners
    are given both or neither, t_k between sectors at rho_k's region, else
    PreconditionError."""
    if (t1 is None) != (t2 is None):
        raise PreconditionError("give both intertwiners or neither")
    for rho, t in ((rho1, t1), (rho2, t2)):
        if t is not None and not (
            isinstance(t, Intertwiner) and t.source.region == t.target.region == rho.region
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
    if t1 is not None:
        L = net.sites
        m_left = _times(L, t1.terms, t1.source.apply(t2.terms))
        m_right = _times(L, t2.terms, t2.source.apply(t1.terms))
        if m_left != m_right:
            report.add("morphism-commutativity", {"pair": [repr(t1), repr(t2)]})
        if m_left != _times(L, t1.terms, t2.terms):
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


def _sector_summary(u: str, s: LocalizedEndo) -> int | None:
    """The sign bits of a sector at region u whose tableau fixes every
    mask (a Pauli conjugation), bit k for row k; None for any other sector
    or one at another region."""
    if s.region != u:
        return None
    bits = 0
    for k, (code, (_, r)) in enumerate(zip(s.tableau, s.net.global_algebra().rows)):
        if code >> 1 != r:
            return None
        bits |= (code & 1) << k
    return bits


def sector_algebra_assignment(
    net: MatrixNet, family: dict[str, list[LocalizedEndo]]
):
    """Algebra-over-the-operad data for the sector model.  Structure-map
    evaluations are cached on the operation and the regions and tableaux of
    the sectors (equal tableaux share an entry): the diagram validators
    evaluate the same (operation, sectors) pairs repeatedly.  The regions
    are part of the key because a sector at a region other than its source
    makes the map raise.  Sectors with equal tableaux but other labels
    share the first one's output; no report prints it, as the validators
    describe carrier elements, and a unit diagram's output only when it is
    another map.

    The summary of a sector is its sign bits (`_sector_summary`).  It meets
    the contract of `FiniteAlgebraAssignment`: `pfa_structure_map` on
    sectors at their sources relabels them to the target and multiplies
    them; `diamond` of two tableaux that fix every mask fixes every mask
    and XORs the sign bits (the identity sector's are 0); `same_map` is
    tableau equality."""
    carriers = sector_carriers(net, family)
    cache: dict = {}

    def structure(op):
        def run(args):
            key = (op, *[s.tableau for s in args], *[s.region for s in args])
            out = cache.get(key)
            if out is None:
                out = cache[key] = pfa_structure_map(op, args, net)
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
    data: "SectorGroupData", family: dict[str, list[LocalizedEndo]]
):
    """Equivariant algebra data on the net of `data`: the isomorphisms act
    by the implementing unitaries, sending sectors at U to transformed
    sectors at alpha_g(U).  Transformed sectors are cached on (g, region,
    tableau), shared like the structure maps' outputs; the diagram
    validators revisit the same elements many times and each transform
    re-verifies localization.

    `iso_summary` maps sign bits (`_sector_summary`): bit k is the parity
    of s & J_k, J_k the rows whose pivots are set in row k's image under
    Ad u_g*, as <a', r_k> = <a, t_k> for Ad u_g Ad P(a) Ad u_g* = Ad P(a').
    Such an image is defined where it is localized: so it is on a product
    at V of sectors localized at the U_i, and on its g-image, when the
    category is clean and the net a functor (the guard is this model's).
    A region orthogonal to V is orthogonal to each U_i, or is U_i, and
    then V, whose algebra contains A(U_i), is orthogonal to U_i.  The
    validator maps a carrier element by g (`g_act_sector`, which refuses a
    g whose Ad u_g* leaves the global algebra) before it reads a summary."""
    net = data.net
    base = sector_algebra_assignment(net, family)
    cache: dict = {}
    parity_masks: dict = {}

    def act(g: str, rho: LocalizedEndo) -> LocalizedEndo:
        key = (g, rho.region, rho.tableau)
        out = cache.get(key)
        if out is None:
            out = cache[key] = g_act_sector(g, rho, data)
        return out

    def iso_summary(g: str, s: int) -> int:
        if g not in parity_masks:
            rows, inverse = net.global_algebra().rows, data._full_maps(g)[1]
            parity_masks[g] = [sum((t >> (p + 1) & 1) << j for j, (p, _) in enumerate(rows))
                               for t in (inverse[r] for _, r in rows)]
        return sum(((s & m).bit_count() & 1) << k for k, m in enumerate(parity_masks[g]))

    clean = validate_category(net.category).ok and net.validate().ok
    return EquivariantAlgebraAssignment(
        base=base,
        iso=lambda g, u: (lambda rho: act(g, rho)),
        name=f"equivariant-sectors({net.name})",
        iso_summary=iso_summary if clean else None,
    )


def validate_theorem_3_11(
    net: MatrixNet,
    family: dict[str, list[LocalizedEndo]],
    bound: int = 3,
) -> ValidationReport:
    """Full structure-map validation for a sector family: net prechecks
    (nested regions have nested algebras, perp-commutativity, Haag
    duality), strict localization of every family member, the algebra
    diagrams over the operad of the index category, and strict monoidality
    of every structure map on sector pairs.

    Strict monoidality is proved, like the algebra diagrams, when every
    sector has a summary (`_sector_summary`): each side is a product of
    Pauli conjugations with the same sign bits, so both carry their XOR and
    `same_map` accepts them.  Otherwise every pair of tuples is walked."""
    report = ValidationReport(check="structure-maps", subject=net.name)
    # no finite net satisfies every global hypothesis at once; record which
    # ones the index category carries so readers see the checked scope
    report.notes = {
        "filtered": check_filtered(net.category).filtered,
        "orthocomplement": check_assumption_orthocomplement(net.category).holds,
        "extension": check_assumption_extension(net.category).holds,
        "model": INNER_MODEL_NOTE,
    }
    structure = net.validate()
    if not structure.ok:
        report.violations.extend(structure.violations)
        return report
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
            loc = check_localized(s)
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
    Clifford unitaries, held as their tableaux alone: `tableaux[g]` is the
    M_N tableau of Ad u_g on the rows of `MatrixAlg.full_on_sites(L,
    range(L))`, the single-site Z and X strings (row k the unit vector
    1 << k).  Ad u_g and Ad u_g* are held as M_N string maps, built once
    per g (`_full_maps`); sectors are moved by chasing the global rows
    through them (`g_act_sector`).  The fixtures build the tableaux from
    site permutations (`fixtures._permutation_tableau`).  The data do not
    change once built, so `validate` makes its report once and keeps it."""

    net: MatrixNet
    action: GroupActionSpec
    tableaux: dict[str, tuple[int, ...]]
    name: str = ""
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _report: ValidationReport | None = field(default=None, init=False, repr=False, compare=False)

    @functools.cached_property
    def _m_n(self) -> MatrixAlg:
        return MatrixAlg.full_on_sites(self.net.sites, range(self.net.sites), name="M_N")

    def _full_maps(self, g: str) -> tuple[_StringMap, _StringMap]:
        """Ad u_g and Ad u_g* on M_N as string maps, built once per g."""
        if g not in self._maps:
            L, t = self.net.sites, self.tableaux[g]
            self._maps[g] = tuple(_StringMap(L, self._m_n.rows, s) for s in (t, _inverse_tableau(L, t)))
        return self._maps[g]

    def validate(self) -> ValidationReport:
        """Implementation axioms: the adjoint action matches the region
        action on every local algebra, compositions hold up to phase, and
        the unit acts trivially.  Once these hold, the action must be one
        by orthogonal functors (`validate_group_action`).  A g without a
        tableau is a schema error.

        All three are decided on the M_N tableaux.  Ad u_g maps an algebra
        into another exactly when it maps its generators there (row
        membership), and u_e acts trivially when it keeps every global row,
        sign 0.  u_g1 u_g2 = c u_g1g2 exactly when (u_g1g2)* u_g1 u_g2 lies
        in the commutant of the simple M_N, that is, when the tableaux of
        Ad u_g1 Ad u_g2 and Ad u_g1g2 on M_N are equal, signs included; a
        product that fixes the global algebra need not be a scalar."""
        if self._report is not None:
            return self._report
        report = self._report = ValidationReport(check="group-implementation", subject=self.name)
        group = self.action.group
        unit = group.unit()
        for g in group.elements:
            if g not in self.tableaux:
                report.schema_errors.append(f"missing unitary for {g}")
        if report.schema_errors:
            return report
        ad = self.tableaux
        maps = {g: self._full_maps(g)[0] for g in group.elements}
        if any(maps[unit][r] != r << 1 for _, r in self.net.global_algebra().rows):
            report.add("unit-implementation", {"g": unit})
        for g in group.elements:
            functor, image = self.action.action[g], maps[g]
            for region in self.net.category.objects:
                target = self.net.algebra(functor.apply_obj(region))
                if not all(target._spans(image[r] >> 1) for _, r in self.net.algebra(region).rows):
                    report.add("covariant-implementation", {"g": g, "region": region})
        for g1 in group.elements:
            for g2 in group.elements:
                if _compose(maps[g1], ad[g2]) != ad[group.mult(g1, g2)]:
                    report.add("projective-composition", {"g1": g1, "g2": g2})
        if report.ok:
            action = validate_group_action(self.action)
            report.schema_errors, report.violations = action.schema_errors, action.violations
        return report


def g_act_sector(g: str, rho: LocalizedEndo, data: SectorGroupData) -> LocalizedEndo:
    """Transformed sector Ad u_g after rho after Ad u_g*: each global row
    chased through Ad u_g*, rho and Ad u_g, the outer two on M_N
    (`_full_maps`); localization in the moved region is re-verified.  A
    row that Ad u_g* moves out of the global algebra, rho's domain, raises
    PreconditionError (`_StringMap`)."""
    ad_u, ad_inv = data._full_maps(g)
    moved_region = data.action.action[g].apply_obj(rho.region)
    rows = data.net.global_algebra().rows
    tableau = tuple(_chase((ad_inv, rho._map, ad_u), r) for _, r in rows)
    label = f"{g}|>{rho.label}"
    out = LocalizedEndo(data.net, moved_region, tableau, label)
    loc = check_localized(out)
    if not loc.ok:
        raise PreconditionError(
            f"transformed sector is not localized in {moved_region}"
        )
    return out


def action_laws_hold(
    rho: LocalizedEndo, moved: dict[str, LocalizedEndo], data: SectorGroupData
) -> bool:
    """The unit law e.rho = rho and the composition law g2.(g1.rho) =
    (g2 g1).rho as maps, given the g-images `moved` of rho (`g_act_sector`).

    Proved when the kept report of `data.validate()` is ok.  g.rho is
    Ad u_g rho Ad u_g* on the global rows (`g_act_sector`).  The
    unit keeps every global row with sign 0, so Ad u_e and its inverse are
    the identity there, and e.rho is rho's tableau.  Projective composition
    is the M_N tableau identity Ad u_g2 Ad u_g1 = Ad u_g2g1; both sides map
    the global algebra into itself, so it holds restricted there, and so
    does its inverse Ad u_g1* Ad u_g2* = Ad u_g2g1*: g2.(g1.rho) and
    (g2 g1).rho are one tableau.  `validate_group_action`, which validate
    runs, makes their regions agree, and (g2 g1).rho is localized there, so
    the walk's `g_act_sector` would raise nothing.  Otherwise both laws are
    walked."""
    if data.validate().ok:
        return True
    group = data.action.group
    unit_ok = moved[group.unit()].same_map(rho)
    comp_ok = all(
        g_act_sector(g2, moved[g1], data).same_map(moved[group.mult(g2, g1)])
        for g1 in group.elements
        for g2 in group.elements
    )
    return unit_ok and comp_ok


@dataclass
class CovarianceFamily:
    """A sector's covariance family y_g: for each g the M_N tableau of Ad y_g."""

    sector: str
    method: str
    tableaux: dict[str, tuple[int, ...]] = field(default_factory=dict)


def _extension(rho: LocalizedEndo, data: SectorGroupData):
    """(method, rhohat, rhohat^-1): rho extended to all of M_N, as M_N
    tableaux, or None.  A Pauli conjugation is Ad P(a), a its mask
    (`LocalizedEndo.pauli_mask`), its own inverse ("inner"); any other
    sector extends exactly when `_extension_tableau` maps the global rows
    as rho does, inverted by `_inverse_tableau` ("extension")."""
    a, L = rho.pauli_mask(), rho.net.sites
    if a is not None:
        hat = _conjugation_tableau(data._m_n, a)
        return "inner", hat, hat
    hat = _extension_tableau(L, [(rho._map[r], r << 1) for _, r in rho.net.global_algebra().rows])
    return None if hat is None else ("extension", hat, _inverse_tableau(L, hat))


def find_covariance(
    rho: LocalizedEndo, data: SectorGroupData
) -> CovarianceFamily | None:
    """Projective family implementing the sector's covariance: for each g the
    M_N tableau of a unitary y_g with rho Ad u_g = Ad y_g rho on the global algebra.

    When rho extends to Ad v on M_N (`_extension`), y_g = v u_g v* does:
    its tableau is rhohat Ad u_g rhohat^-1, and for an "extension" the law
    is checked on the global rows.  Otherwise the pairs (rho(Ad u_g(a)),
    rho(a)) over the global rows a are signed strings read off the
    tableaux, and `_extension_tableau` is complete on them ("match"), so
    None proves that no unitary family exists.
    """
    glob, L, rows = data.net.global_algebra(), data.net.sites, data._m_n.rows
    ext, fam = _extension(rho, data), {}
    hat = ext and _StringMap(L, rows, ext[1])
    for g in data.action.group.elements:
        image = data._full_maps(g)[0]
        if ext is None:
            pairs = [(_chase((image, rho._map), r), rho._map[r]) for _, r in glob.rows]
            y = fam[g] = _extension_tableau(L, pairs)
            if y is None:
                return None
            continue
        y = fam[g] = _compose(hat, _compose(image, ext[2]))
        if ext[0] == "extension" and _compose(_StringMap(L, rows, y), rho.tableau) != tuple(
            _chase((image, rho._map), r) for _, r in glob.rows
        ):
            raise PreconditionError(f"family rho(u_g) of {rho.label} does not intertwine")
    return CovarianceFamily(sector=rho.label, method=ext[0] if ext else "match", tableaux=fam)


def diamond_covariance(
    rho: LocalizedEndo,
    rhodot: LocalizedEndo,
    fam: CovarianceFamily,
    famdot: CovarianceFamily,
    data: SectorGroupData,
) -> CovarianceFamily:
    """Composite covariance family for the product sector, as M_N tableaux,
    with the defining identity chain re-verified stage by stage on the
    global rows.

    y_g's composite is y_g rhohat(u_g* ydot_g), whose Ad is Ad y_g rhohat
    Ad u_g* Ad ydot_g rhohat^-1.  The bridge u_g* ydot_g need not lie in the
    global algebra (on a diagonal net it permutes the basis), so rho is
    extended to M_N as rhohat (`_extension`).  A rho without one raises
    PreconditionError."""
    net, L = data.net, data.net.sites
    rows, glob = data._m_n.rows, net.global_algebra()
    ext = _extension(rho, data)
    if ext is None:
        raise PreconditionError(f"no composite family for {rho.label} without tableaux on M_N")
    _, hat, hat_inv = ext
    hat_map = _StringMap(L, rows, hat)
    out: dict[str, tuple[int, ...]] = {}
    prod = diamond(rho, rhodot, region=net.join(rho.region, rhodot.region))
    for g in data.action.group.elements:
        ad_u, ad_inv = data._full_maps(g)
        y, ydot = (_StringMap(L, rows, f.tableaux[g]) for f in (fam, famdot))
        composite = _compose(y, _compose(hat_map, _compose(ad_inv, _compose(ydot, hat_inv))))
        chain = [
            (ad_u, prod._map),
            (rhodot._map, ydot, rho._map),
            (rhodot._map, ydot, ad_inv, ad_u, rho._map),
            (rhodot._map, ydot, ad_inv, rho._map, y),
            (prod._map, _StringMap(L, rows, composite)),
        ]
        for step in range(len(chain) - 1):
            if any(_chase(chain[step], r) != _chase(chain[step + 1], r) for _, r in glob.rows):
                raise PreconditionError(
                    f"covariance chain broke at step {step} for {g}"
                )
        out[g] = composite
    return CovarianceFamily(
        sector=f"({fam.sector}<>{famdot.sector})",
        method="composite",
        tableaux=out,
    )
