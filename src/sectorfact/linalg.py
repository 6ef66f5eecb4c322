"""Exact linear algebra over the Gaussian rationals, and the GF(2) kernels
of the Pauli-string calculus.

Scalars are complex numbers with rational real and imaginary parts, so
every verdict downstream (commutants, span equalities, intertwiner laws)
is a matter of exact equality rather than tolerance.  The package decides
everything on GF(2) masks: strings are (x, z) bit masks, algebras are
reduced rows (`_gf2_pivots`), sectors and Cliffords are tableaux
(`_StringMap`), and a product of two strings is a mask XOR and a phase
(`_string_product`), so intertwiners are Pauli sums of Gaussian
rationals.

``GMat`` is the dense matrix type the tests' oracle compares those masks
with, at small L; no command builds one.  It stays here, with
``nullspace``, ``pauli_string`` and ``as_pauli_string``, because
``bench/tracer.py`` binds those names at import.  A ``GMat`` has two exact
forms: a sparse one for any matrix, and a monomial one (a permutation
times phases in {1, i, -1, -i}, as a Pauli string with unit coefficient,
the site reflection or CZ) whose products, adjoints, inner products,
equality and hashing are O(n) work on small ints, in the spirit of
stabilizer-circuit simulation (Aaronson and Gottesman,
arXiv:quant-ph/0406196).  ``sparse_matmul`` is the sparse path's product
and the reference the monomial product is tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .reports import PreconditionError

__all__ = [
    "GaussianRational",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "GMat",
    "sparse_matmul",
    "nullspace",
    "parse_rational",
    "format_rational",
    "pauli_string",
    "as_pauli_string",
    "pauli_commute",
]


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str | int) -> Fraction:
    """"p/q" or "p" in decimal digits, or an int that is not a bool ->
    Fraction in lowest terms; anything else raises ValueError.

    Exponents, decimal points, underscores and whitespace are refused, so a
    short string cannot make `Fraction` build a huge integer."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"rational must be an int or a \"p/q\" string, not {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        # fixture matrices are axis-aligned (0, +-1, +-i): skip zero components
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b and not d:
            return GaussianRational(a * c, b)
        if not a and not c:
            return GaussianRational(-(b * d), a)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else ""
        return f"{format_rational(self.re)}{sign}{format_rational(self.im)}i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))
GR_MINUS_ONE = GaussianRational(Fraction(-1))


class GMat:
    """Immutable square matrix over the Gaussian rationals: the type of the
    tests' dense oracle (see the module docstring).

    Two exact forms describe the same entries.  The sparse form ``data``
    maps (row, col) to a nonzero scalar and works for any matrix.  The
    monomial form ``(rows, phases)`` exists when every column holds exactly
    one entry, the rows form a permutation and every entry is a unit
    i**p: column j then holds i**phases[j] at row rows[j], with phases
    ints mod 4.  Pauli strings with unit coefficient, the site reflection,
    CZ and the identity are of this shape, and so are their products and
    adjoints.

    The monomial form is produced directly by ``identity``,
    ``pauli_string`` and monomial products and adjoints, or found once from
    ``data`` on first use; ``data`` is then built lazily from it.  Products,
    adjoints, Hilbert-Schmidt inner products, equality, hashing and the
    identity, unitarity and scalar tests run on the monomial form when
    every operand has one, and on the sparse form otherwise.
    """

    __slots__ = ("n", "_data", "_mono", "_hash")

    def __init__(self, n: int, data: dict[tuple[int, int], GaussianRational]):
        self.n = n
        self._data = {k: v for k, v in data.items() if not v.is_zero()}
        self._mono = None  # (rows, phases), False when not monomial, None until found
        self._hash = None

    @staticmethod
    def _monomial_of(n: int, rows: tuple, phases: tuple) -> "GMat":
        m = GMat.__new__(GMat)
        m.n = n
        m._data = None
        m._mono = (rows, phases)
        m._hash = None
        return m

    @property
    def data(self) -> dict[tuple[int, int], GaussianRational]:
        if self._data is None:
            rows, phases = self._mono
            self._data = {
                (r, j): _UNITS[p] for j, (r, p) in enumerate(zip(rows, phases))
            }
        return self._data

    def _monomial(self) -> tuple[tuple, tuple] | None:
        """The (rows, phases) form, or None when self is not monomial."""
        mono = self._mono
        if mono is None:
            mono = self._mono = _find_monomial(self.n, self._data)
        return mono or None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "GMat":
        return GMat(n, {})

    @staticmethod
    def identity(n: int) -> "GMat":
        return GMat._monomial_of(n, tuple(range(n)), (0,) * n)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[GaussianRational]]) -> "GMat":
        n = len(rows)
        data = {}
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j, v in enumerate(row):
                if not v.is_zero():
                    data[(i, j)] = v
        return GMat(n, data)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "GMat") -> "GMat":
        data = dict(self.data)
        for k, v in other.data.items():
            s = data.get(k, GR_ZERO) + v
            if s.is_zero():
                data.pop(k, None)
            else:
                data[k] = s
        return GMat(self.n, data)

    def scale(self, c: GaussianRational) -> "GMat":
        if c.is_zero():
            return GMat.zero(self.n)
        return GMat(self.n, {k: c * v for k, v in self.data.items()})

    def __matmul__(self, other: "GMat") -> "GMat":
        if self.n != other.n:
            raise ValueError("size mismatch")
        a, b = self._monomial(), other._monomial()
        if a is None or b is None:
            return sparse_matmul(self, other)
        # column j of other is i**pb at row k = rb[j]; self maps it to row ra[k]
        (ra, pa), (rb, pb) = a, b
        return GMat._monomial_of(
            self.n,
            tuple([ra[k] for k in rb]),
            tuple([(pa[k] + q) & 3 for k, q in zip(rb, pb)]),
        )

    def adjoint(self) -> "GMat":
        mono = self._monomial()
        if mono is None:
            return GMat(self.n, {(j, i): v.conj() for (i, j), v in self.data.items()})
        rows, phases = mono
        out_rows = [0] * self.n
        out_phases = [0] * self.n
        for j, (r, p) in enumerate(zip(rows, phases)):
            out_rows[r] = j
            out_phases[r] = -p & 3
        return GMat._monomial_of(self.n, tuple(out_rows), tuple(out_phases))

    def hs_inner(self, other: "GMat") -> GaussianRational:
        """Hilbert-Schmidt inner product tr(self* other)."""
        a, b = self._monomial(), other._monomial()
        if a is not None and b is not None:
            # conj(i**p) * i**q = i**(q - p) in every column where the rows agree
            counts = [0, 0, 0, 0]
            for ra, pa, rb, pb in zip(*a, *b):
                if ra == rb:
                    counts[(pb - pa) & 3] += 1
            return GaussianRational.of(counts[0] - counts[2], counts[1] - counts[3])
        t = GR_ZERO
        small, big, conj_small = (
            (self.data, other.data, True)
            if len(self.data) <= len(other.data)
            else (other.data, self.data, False)
        )
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                t = t + (v.conj() * w if conj_small else w.conj() * v)
        return t

    def commutes_with(self, other: "GMat") -> bool:
        return self @ other == other @ self

    def is_zero(self) -> bool:
        return not self.data

    def is_identity(self) -> bool:
        mono = self._monomial()
        if mono is not None:
            rows, phases = mono
            return rows == tuple(range(self.n)) and not any(phases)
        if len(self.data) != self.n:
            return False
        return all(self.data.get((i, i)) == GR_ONE for i in range(self.n))

    def is_unitary(self) -> bool:
        if self._monomial() is not None:
            return True
        return (self @ self.adjoint()).is_identity() and (
            self.adjoint() @ self
        ).is_identity()

    def tensor(self, other: "GMat") -> "GMat":
        data = {}
        for (i, j), a in self.data.items():
            for (k, l), b in other.data.items():
                data[(i * other.n + k, j * other.n + l)] = a * b
        return GMat(self.n * other.n, data)

    # -- identity & hashing ------------------------------------------------

    def key(self):
        """Hashable value, equal for equal matrices.  Whether a matrix is
        monomial depends only on its entries, so the two shapes of key never
        describe the same matrix."""
        mono = self._monomial()
        if mono is not None:
            return (self.n,) + mono
        return (self.n, tuple(sorted(self.data.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GMat) or self.n != other.n:
            return False
        a, b = self._monomial(), other._monomial()
        if a is not None or b is not None:
            return a == b
        return self.data == other.data

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        return f"GMat(n={self.n}, nnz={len(self.data)})"


# i**p for p = 0..3
_UNITS = (GR_ONE, GR_I, GR_MINUS_ONE, GaussianRational(Fraction(0), Fraction(-1)))


def _unit_phase(v: GaussianRational) -> int | None:
    """p with v == i**p, or None when v is not a unit of that form."""
    if not v.im:
        return 0 if v.re == 1 else 2 if v.re == -1 else None
    if not v.re:
        return 1 if v.im == 1 else 3 if v.im == -1 else None
    return None


def _find_monomial(n: int, data: dict) -> tuple[tuple, tuple] | bool:
    """The (rows, phases) form of a sparse matrix, or False."""
    if len(data) != n:
        return False
    rows = [-1] * n
    phases = [0] * n
    for (i, j), v in data.items():
        p = _unit_phase(v)
        if p is None or rows[j] >= 0:
            return False
        rows[j] = i
        phases[j] = p
    if len(set(rows)) != n:
        return False
    return tuple(rows), tuple(phases)


def sparse_matmul(a: GMat, b: GMat) -> GMat:
    """Product on the sparse form: the general path of ``GMat.__matmul__``
    and the reference its monomial path is tested against."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    by_row: dict[int, list[tuple[int, GaussianRational]]] = {}
    for (i, j), v in b.data.items():
        by_row.setdefault(i, []).append((j, v))
    out: dict[tuple[int, int], GaussianRational] = {}
    for (i, k), a_ik in a.data.items():
        cols = by_row.get(k)
        if not cols:
            continue
        for j, b_kj in cols:
            key = (i, j)
            s = out.get(key, GR_ZERO) + a_ik * b_kj
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return GMat(a.n, out)


def nullspace(
    rows: list[list[GaussianRational]], ncols: int
) -> list[list[GaussianRational]]:
    """Basis of {v : R v = 0} by exact Gauss-Jordan elimination.

    The library itself solves no dense system; this is the dense oracle of
    the tests (commutants, intertwiners), and `bench/tracer.py` times it."""
    reduced: list[list[GaussianRational]] = []
    pivots: list[int] = []
    for row in rows:
        r = list(row)
        for pr, pc in zip(reduced, pivots):
            if not r[pc].is_zero():
                f = r[pc]
                r = [a - f * b for a, b in zip(r, pr)]
        pivot = next((j for j in range(ncols) if not r[j].is_zero()), None)
        if pivot is None:
            continue
        inv = r[pivot].inverse()
        r = [a * inv for a in r]
        for idx, pr in enumerate(reduced):
            if not pr[pivot].is_zero():
                f = pr[pivot]
                reduced[idx] = [a - f * b for a, b in zip(pr, r)]
        reduced.append(r)
        pivots.append(pivot)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [GR_ZERO] * ncols
        v[free] = GR_ONE
        for pr, pc in zip(reduced, pivots):
            v[pc] = -pr[free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Pauli-string machinery.
#
# A scaled Pauli string on L qubits is c * P(x, z) with bit masks
# x, z in F_2^L, where P is the tensor product of site factors I, X, Z and
# Y = iXZ.  Two strings either commute or anticommute, decided by the
# symplectic form <x1,z2> + <z1,x2> over F_2.  The span of a set of strings
# is closed under products and adjoints, and its commutant inside M_{2^L}
# is spanned by exactly the strings symplectically orthogonal to every
# generator: expanding any commuting X in the string basis, conjugation by
# a generator flips the sign of anticommuting components, which therefore
# vanish.  The strings are an orthogonal basis of M_{2^L} (tr(P* Q) is N
# for P == Q and 0 otherwise), so every matrix has one exact expansion in
# them, and a matrix lies in a string algebra exactly when its expansion
# uses only the algebra's strings.  This turns commutant computations on
# string algebras into nullspace solves over F_2, and the closure of a mask
# set under products into its row-reduced span; ``_gf2_pivots`` is the one
# elimination routine behind both.
# ---------------------------------------------------------------------------


def pauli_string(L: int, x: int, z: int, coeff: GaussianRational = GR_ONE) -> GMat:
    """coeff * P(x, z) on L qubits; site 0 is the most significant bit.

    Column c holds the entry at row c ^ x.  Each Y site contributes i, and
    each Z or Y site whose bit of c is set contributes -1, so the entry is
    coeff * i**(|x & z| + 2 |z & c|).
    """
    n = 1 << L
    c = _unit_phase(coeff)
    base = (0 if c is None else c) + (x & z).bit_count()
    m = GMat._monomial_of(
        n,
        tuple([col ^ x for col in range(n)]),
        tuple([(base + 2 * (z & col).bit_count()) & 3 for col in range(n)]),
    )
    return m if c is not None else m.scale(coeff)


def as_pauli_string(m: GMat) -> tuple[int, int, GaussianRational] | None:
    """Recognize m == coeff * P(x, z); returns (x, z, coeff) or None."""
    n = m.n
    if n <= 0 or n & (n - 1):
        return None
    mono = m._monomial()
    if mono is None:
        # a string with a non-unit coefficient has one entry in column 0;
        # dividing by it leaves a string with coefficient 1, a monomial
        col0 = [v for (_, j), v in m.data.items() if j == 0]
        if len(col0) != 1:
            return None
        unit = m.scale(col0[0].inverse())
        if unit._monomial() is None:
            return None
        got = as_pauli_string(unit)
        return None if got is None else (got[0], got[1], got[2] * col0[0])
    # the relative phase of column 1 << s is 2 * (z bit s); the only
    # candidate is then checked entry by entry
    L = n.bit_length() - 1
    rows, phases = mono
    x = rows[0]
    z = 0
    for s in range(L):
        if (phases[1 << s] - phases[0]) & 3 == 2:
            z |= 1 << s
    coeff = _UNITS[(phases[0] - (x & z).bit_count()) & 3]
    return (x, z, coeff) if pauli_string(L, x, z, coeff) == m else None


def pauli_commute(x1: int, z1: int, x2: int, z2: int) -> bool:
    """True iff P(x1,z1) and P(x2,z2) commute (symplectic form vanishes)."""
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


def _gf2_pivots(rows: list[int]) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination over GF(2), vectors encoded as ints: one
    (pivot bit, reduced row) pair per unit of rank, the pivot bit set in its
    own row only, the rows spanning the same space as the input."""
    pivots: list[tuple[int, int]] = []
    for row in rows:
        r = row
        for bit, pr in pivots:
            if (r >> bit) & 1:
                r ^= pr
        if r == 0:
            continue
        bit = r.bit_length() - 1
        for idx, (b, pr) in enumerate(pivots):
            if (pr >> bit) & 1:
                pivots[idx] = (b, pr ^ r)
        pivots.append((bit, r))
    return pivots


def _gf2_nullspace(rows: list[int], width: int) -> list[int]:
    """Nullspace basis of a GF(2) system; vectors encoded as ints."""
    pivots = _gf2_pivots(rows)
    pivot_bits = {b for b, _ in pivots}
    basis = []
    for free in range(width):
        if free in pivot_bits:
            continue
        v = 1 << free
        for bit, pr in pivots:
            if (pr >> free) & 1:
                v |= 1 << bit
        basis.append(v)
    return basis


def _mask_span(L: int, vectors: list[int]) -> set[tuple[int, int]]:
    """(x, z) masks of every XOR combination of 2L-bit vectors x << L | z."""
    span = [0]
    for _, r in _gf2_pivots(vectors):
        span += [v ^ r for v in span]
    low = (1 << L) - 1
    return {(v >> L, v & low) for v in span}


# ---------------------------------------------------------------------------
# Signed Pauli maps.  A unital *-map that sends every string to a signed
# string is fixed by its images of the reduced rows of its domain: its
# tableau (Aaronson and Gottesman, arXiv:quant-ph/0406196), one signed mask
# t << 1 | s per row.
# ---------------------------------------------------------------------------


def _xz(v: int, L: int) -> int:
    """|x & z| for the mask v = x << L | z: the number of Y letters."""
    return ((v >> L) & v).bit_count()


def _string_product(L: int, a: int, b: int) -> tuple[int, GaussianRational]:
    """(a ^ b, i**e) with P(a) P(b) = i**e P(a ^ b) for the masks a, b =
    x << L | z.  In the form W(v) = X^x Z^z = i**-|x & z| P(v) the product
    W(a) W(b) = (-1)**|z_a & x_b| W(a ^ b) only picks up a sign, so e =
    |x_a & z_a| + |x_b & z_b| + 2 |z_a & x_b| - |x_c & z_c| mod 4, c = a ^ b."""
    c = a ^ b
    return c, _UNITS[(_xz(a, L) + _xz(b, L) + 2 * (a & b >> L).bit_count() - _xz(c, L)) & 3]


class _StringMap(dict):
    """v -> the signed mask of rho(P(v)), for the map rho that sends the
    string of the k-th of the reduced `rows` (`_gf2_pivots`) to tableau[k];
    each image is found on its first lookup.

    v is the XOR of the rows whose pivot bits it has set.  In the form
    W(v) = X^x Z^z = i**-|x & z| P(v) a product of strings only picks up the
    sign (-1)**|z_a & x_b| of W(a) W(b), so the rows and their images are
    multiplied up in that form; c is the phase of rho(W(r)) against W(t).
    A *-map sends the Hermitian P(v) to a Hermitian signed string."""

    def __init__(self, L: int, rows: list[tuple[int, int]], tableau: tuple[int, ...]):
        super().__init__()
        self.L = L
        self.steps, self.pivots = {}, 0
        for (bit, r), code in zip(rows, tableau):
            t = code >> 1
            self.steps[1 << bit] = (r, r >> L, t, t >> L, 2 * (code & 1) + _xz(t, L) - _xz(r, L))
            self.pivots |= 1 << bit

    def __missing__(self, v: int) -> int:
        e = src = img = 0
        todo = v & self.pivots
        while todo:
            b = todo & -todo
            todo ^= b
            r, rx, t, tx, c = self.steps[b]
            # rx and tx hold L bits, so src & rx is z(src) & x(r)
            e += c + 2 * ((src & rx).bit_count() + (img & tx).bit_count())
            src ^= r
            img ^= t
        if src != v:
            raise PreconditionError("string outside the domain of the map")
        e += _xz(v, self.L) - _xz(img, self.L)
        if e & 1:  # rho(P(v)) is not Hermitian: the rows' images break a commutation
            raise PreconditionError("endomorphism is not multiplicative")
        code = self[v] = (img << 1) | ((e >> 1) & 1)
        return code


def _compose(outer: _StringMap, tableau: tuple[int, ...]) -> tuple[int, ...]:
    """Tableau of outer after the tableau's map: each row's signed mask
    mapped by `outer`, its sign carried along."""
    return tuple(outer[code >> 1] ^ (code & 1) for code in tableau)


def _chase(maps: tuple[_StringMap, ...], r: int) -> int:
    """The signed image of the string of the mask r under maps applied in
    order."""
    code = r << 1
    for image in maps:
        code = image[code >> 1] ^ (code & 1)
    return code


def _inverse_tableau(L: int, tableau: tuple[int, ...]) -> tuple[int, ...]:
    """Tableau of the inverse of a map of all of M_N, N = 2**L, given by its
    tableau on M_N's rows, the unit vectors 1 << k (single-site Z and X
    strings).  The inverse sends row k to (-1)**s P(v), v the XOR of the
    rows whose images XOR to the mask 1 << k and s the sign of the map's
    image of P(v) (`_StringMap`).  One GF(2) solve: each image tagged by its
    row, t_j << 2L | 1 << j, eliminated; with 2L independent images every
    reduced row is one image bit over the rows that make it.  Dependent
    images have no inverse: PreconditionError."""
    n = 2 * L
    pivots = sorted(_gf2_pivots([(code >> 1) << n | 1 << j for j, code in enumerate(tableau)]))
    if [bit for bit, _ in pivots] != list(range(n, 2 * n)):
        raise PreconditionError("tableau images are dependent: the map has no inverse")
    image = _StringMap(L, [(k, 1 << k) for k in range(n)], tableau)
    return tuple(v << 1 | image[v] & 1 for v in (row & ((1 << n) - 1) for _, row in pivots))


def _gf2_solve(eqs: list[int]) -> int | None:
    """A vector a with a . (eq >> 1) = eq & 1 for every equation eq, its free
    coordinates zero, or None when the equations are inconsistent."""
    pivots = _gf2_pivots(eqs)
    if any(bit == 0 for bit, _ in pivots):
        return None
    return sum((eq & 1) << (bit - 1) for bit, eq in pivots)


def _extension_tableau(L: int, pairs: list[tuple[int, int]]) -> tuple[int, ...] | None:
    """M_N tableau of a unitary y with Ad y(P(rhs)) = P(lhs), signs included,
    for every pair of signed masks (lhs, rhs), or None when there is none.

    Ad y is a Clifford: a map S of the masks F_2^2L keeping the symplectic
    form <a, b> = |swap(a) & b| mod 2 (commutation), and a sign per row
    (Dehaene and De Moor, Phys. Rev. A 68, 042318).  So y exists only if
    (a) every XOR relation among the rhs masks holds among the lhs, signs
    included, (b) every one among the lhs holds among the rhs and (c) the
    map keeps the form.  Then it exists (Witt's theorem): the reduced pairs
    (d, phi(d)) give an isometry phi, and each unit vector u off the
    domain's pivots (they complete it to a basis) gets w off the image with
    <w, phi(d)> = <u, d> for each d.  If w = phi(d0), add a c in the
    image's complement but not in the image: else the image, and so the
    isometric domain, would contain their complements, and u - d0,
    orthogonal to the domain, would lie in it.  At rank 2L phi is S.
    Flipping row k's sign flips the strings with bit k; the Pauli product
    phases fix each relation's sign whatever S, so one more solve fixes
    the signs or finds a relation they break."""
    n, low, full = 2 * L, (1 << L) - 1, (1 << 2 * L) - 1
    swap = lambda v: (v & low) << L | v >> L
    def off(rows, v):  # v reduced by echelon rows: 0 exactly when they span it
        for bit, row in rows:
            v ^= row if v >> bit & 1 else 0
        return v
    basis = dict(_gf2_pivots([b >> 1 << n | a >> 1 for a, b in pairs]))
    dom, img = [row >> n for row in basis.values()], [row & full for row in basis.values()]
    span = _gf2_pivots(img)
    if (any(bit < n for bit in basis) or len(span) < len(img)
            or any((swap(d) & e ^ swap(w) & x).bit_count() & 1
                   for k, (d, w) in enumerate(zip(dom, img)) for e, x in zip(dom[:k], img[:k]))):
        return None
    for u in (1 << k for k in range(n) if k + n not in basis):
        w = _gf2_solve([swap(x) << 1 | (swap(u) & d).bit_count() & 1 for d, x in zip(dom, img)])
        if not off(span, w):
            w ^= next(c for c in _gf2_nullspace([swap(x) for x in img], n) if off(span, c))
        span.append(((r := off(span, w)).bit_length() - 1, r))
        dom, img = dom + [u], img + [w]
    rows = sorted(_gf2_pivots([d << n | w for d, w in zip(dom, img)]))
    tableau = [(row & full) << 1 for _, row in rows]
    image = _StringMap(L, [(k, 1 << k) for k in range(n)], tuple(tableau))
    flips = _gf2_solve([b >> 1 << 1 | (a ^ b ^ image[b >> 1]) & 1 for a, b in pairs])
    return None if flips is None else tuple(t | flips >> k & 1 for k, t in enumerate(tableau))
