import functools
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sectorfact.linalg import (
    GMat,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    _StringMap,
    _extension_tableau,
    _gf2_pivots,
    _inverse_tableau,
    _mask_span,
    as_pauli_string,
    format_rational,
    nullspace,
    parse_rational,
    pauli_commute,
    pauli_string,
    sparse_matmul,
)

from dense_oracle import scalar_multiple_of_identity

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, fractions, fractions)


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(scalars)
def test_conjugation_involution(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    assert a.abs2() >= 0


@given(scalars)
def test_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == GR_ONE


@given(fractions)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


# -- matrices ---------------------------------------------------------------


def test_matrix_ring_basics():
    x = pauli_string(1, 1, 0)
    z = pauli_string(1, 0, 1)
    y = pauli_string(1, 1, 1)
    assert x @ x == GMat.identity(2)
    assert (x @ z).scale(GR_I) == y
    assert x.adjoint() == x
    assert y.adjoint() == y
    assert (x + z).adjoint() == x + z
    assert x.is_unitary() and not (x + z).is_unitary()


def test_tensor_matches_string_construction():
    for x, z in itertools.product(range(4), repeat=2):
        a = pauli_string(2, x, z)
        b = pauli_string(1, x >> 1, z >> 1).tensor(pauli_string(1, x & 1, z & 1))
        assert a == b


def test_scalar_multiple_of_identity():
    assert scalar_multiple_of_identity(GMat.identity(3).scale(GR_I)) == GR_I
    assert scalar_multiple_of_identity(pauli_string(1, 1, 0)) is None
    assert scalar_multiple_of_identity(GMat.zero(2)) == GR_ZERO


# -- Pauli strings ------------------------------------------------------------


def test_string_recognition_round_trip():
    coeff = GaussianRational.of(Fraction(-5, 3), Fraction(1, 2))
    for L in (1, 2, 3):
        for x in range(1 << L):
            for z in range(1 << L):
                m = pauli_string(L, x, z, coeff)
                assert as_pauli_string(m) == (x, z, coeff)


def test_non_strings_are_rejected():
    x = pauli_string(1, 1, 0)
    z = pauli_string(1, 0, 1)
    assert as_pauli_string(x + z) is None
    assert as_pauli_string(GMat.zero(2)) is None
    assert as_pauli_string(GMat(3, {(0, 0): GR_ONE})) is None


def test_commutation_against_matrix_commutator():
    # mask arithmetic must agree with the actual commutator, exhaustively on 2 qubits
    for (x1, z1), (x2, z2) in itertools.product(
        itertools.product(range(4), repeat=2), repeat=2
    ):
        p1, p2 = pauli_string(2, x1, z1), pauli_string(2, x2, z2)
        assert pauli_commute(x1, z1, x2, z2) == p1.commutes_with(p2)


def test_string_products_stay_strings():
    for (x1, z1), (x2, z2) in itertools.product(
        itertools.product(range(4), repeat=2), repeat=2
    ):
        prod = pauli_string(2, x1, z1) @ pauli_string(2, x2, z2)
        got = as_pauli_string(prod)
        assert got is not None
        assert (got[0], got[1]) == (x1 ^ x2, z1 ^ z2)
        assert got[2].abs2() == 1


def _pauli_string_per_site(L, x, z, coeff):
    """Reference construction: multiply the site factors column by column."""
    data = {}
    for col in range(1 << L):
        val = coeff
        for s in range(L):
            shift = L - 1 - s
            xb, zb, cb = (x >> shift) & 1, (z >> shift) & 1, (col >> shift) & 1
            if xb and zb:  # Y: col 0 -> i, col 1 -> -i
                val = val * (GR_I if cb == 0 else GaussianRational.of(0, -1))
            elif zb and cb:  # Z on |1>
                val = val * GaussianRational.of(-1)
        data[(col ^ x, col)] = val
    return GMat(1 << L, data)


def test_pauli_string_against_per_site_construction():
    units = [GR_ONE, GR_I, GaussianRational.of(-1), GaussianRational.of(0, -1)]
    for L in range(4):
        for x, z in itertools.product(range(1 << L), repeat=2):
            for coeff in units:
                got = pauli_string(L, x, z, coeff)
                want = _pauli_string_per_site(L, x, z, coeff)
                assert got.data == want.data
                assert as_pauli_string(got) == (x, z, coeff)
                assert got == want and got.key() == want.key()
                assert hash(got) == hash(want)


def test_commutant_masks_against_enumeration():
    # brute-force oracle: enumerate all strings and test commutation directly
    from sectorfact.sectors import MatrixAlg, commutant

    L = 3
    gens = [(0b100, 0), (0, 0b100), (0b010, 0b001)]
    expected = sorted(
        (x, z)
        for x in range(8)
        for z in range(8)
        if all(pauli_commute(x, z, gx, gz) for gx, gz in gens)
    )
    alg = MatrixAlg(L, [(x << L) | z for x, z in gens])
    assert sorted(commutant(alg).masks()) == expected


def _frontier_closure(gens):
    """Reference XOR closure: grow {(0, 0)} by the generators until stable."""
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


@st.composite
def mask_generators(draw):
    L = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << L) - 1)
    return L, draw(st.lists(st.tuples(mask, mask), max_size=6))


@settings(max_examples=150, deadline=None)
@given(mask_generators())
def test_mask_span_matches_frontier_closure(case):
    L, gens = case
    assert _mask_span(L, [(x << L) | z for x, z in gens]) == _frontier_closure(gens)


# -- exact linear algebra ------------------------------------------------------


def test_nullspace_annihilates():
    rows = [
        [GR_ONE, GR_ONE, GR_ZERO],
        [GR_ZERO, GR_ONE, GaussianRational.of(-1)],
    ]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        s = GR_ZERO
        for a, b in zip(row, v):
            s = s + a * b
        assert s.is_zero()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4
    )
)
def test_nullspace_dimension_rank(rows_int):
    rows = [[GaussianRational.of(v) for v in row] for row in rows_int]
    basis = nullspace(rows, 4)
    for v in basis:
        for row in rows:
            s = GR_ZERO
            for a, b in zip(row, v):
                s = s + a * b
            assert s.is_zero()
    assert len(basis) == 4 - _rank(rows_int)


def _rank(rows):
    """Rank over the rationals by row echelon elimination: the oracle of the
    nullspace dimension."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- monomial fast path against the sparse-dict oracle ----------------------------

UNITS = [GR_ONE, GR_I, GaussianRational.of(-1), GaussianRational.of(0, -1)]
NON_UNITS = [
    GaussianRational.of(2),
    GaussianRational.of(Fraction(3, 5), Fraction(4, 5)),
    GaussianRational.of(Fraction(-1, 2)),
]
small_scalars = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def monomial_entries(draw, n):
    rows = draw(st.permutations(range(n)))
    phases = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return {(rows[j], j): UNITS[p] for j, p in enumerate(phases)}


@st.composite
def non_unit_entries(draw, n):
    data = draw(monomial_entries(n))
    key = sorted(data)[draw(st.integers(0, n - 1))]
    data[key] = draw(st.sampled_from(NON_UNITS))
    return data


@st.composite
def dense_entries(draw, n):
    values = draw(st.lists(small_scalars, min_size=n * n, max_size=n * n))
    return {(k // n, k % n): v for k, v in enumerate(values) if not v.is_zero()}


def matrix_pairs(left, right, max_n=16):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), left(n), right(n))
    )


def _adjoint_oracle(data):
    return {(j, i): v.conj() for (i, j), v in data.items()}


def _scalar_oracle(n, data):
    c = data.get((0, 0), GR_ZERO)
    if c.is_zero():
        return GR_ZERO if not data else None
    if len(data) == n and all(data.get((i, i)) == c for i in range(n)):
        return c
    return None


def _unitary_oracle(n, data):
    m, adj = GMat(n, data), GMat(n, _adjoint_oracle(data))
    ident = {(i, i): GR_ONE for i in range(n)}
    return sparse_matmul(m, adj).data == ident and sparse_matmul(adj, m).data == ident


def _hs_oracle(da, db):
    t = GR_ZERO
    for k, v in da.items():
        if k in db:
            t = t + v.conj() * db[k]
    return t


def _check_against_oracle(n, da, db):
    a, b = GMat(n, da), GMat(n, db)
    prod = a @ b
    want = sparse_matmul(GMat(n, da), GMat(n, db))
    assert prod.data == want.data
    assert prod == want and prod.key() == want.key() and hash(prod) == hash(want)
    assert a.adjoint().data == _adjoint_oracle(da)
    assert a.hs_inner(b) == _hs_oracle(da, db) and b.hs_inner(a) == _hs_oracle(db, da)
    assert (a == b) == (da == db) == (a.key() == b.key())
    if a == b:
        assert hash(a) == hash(b)
    for m, d in ((a, da), (b, db), (prod, want.data)):
        assert scalar_multiple_of_identity(m) == _scalar_oracle(n, d)
        assert m.is_unitary() == _unitary_oracle(n, d)
        assert m.is_identity() == (d == {(i, i): GR_ONE for i in range(n)})
    return a, b, prod


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(monomial_entries, monomial_entries))
def test_monomial_products_match_oracle(case):
    n, da, db = case
    a, b, prod = _check_against_oracle(n, da, db)
    assert a._monomial() is not None and prod._monomial() is not None
    assert a.is_unitary() and prod.is_unitary()
    assert a == GMat(n, dict(da)) and hash(a) == hash(GMat(n, dict(da)))
    assert (prod @ prod.adjoint()).is_identity()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), monomial_entries(n))))
def test_monomial_scalar_multiples_of_identity(case):
    n, data = case
    m = GMat(n, data)
    for phase in UNITS:
        ident = GMat.identity(n).scale(phase)
        assert scalar_multiple_of_identity(ident) == phase
        assert (m @ ident) == m.scale(phase)
        assert scalar_multiple_of_identity(m.adjoint() @ m.scale(phase)) == phase


@settings(max_examples=75, deadline=None)
@given(matrix_pairs(monomial_entries, dense_entries, max_n=6))
def test_monomial_by_dense_matches_oracle(case):
    n, da, db = case
    _check_against_oracle(n, da, db)
    _check_against_oracle(n, db, da)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs(non_unit_entries, monomial_entries))
def test_non_unit_monomials_take_sparse_path(case):
    n, da, db = case
    a, _, prod = _check_against_oracle(n, da, db)
    _check_against_oracle(n, db, da)
    assert a._monomial() is None and prod._monomial() is None
    assert a.data == da


def test_scaled_non_string_is_rejected():
    # one entry in column 0, but the quotient diag(1, 3/2) is not a string
    diag = GMat(2, {(0, 0): GaussianRational.of(2), (1, 1): GaussianRational.of(3)})
    assert as_pauli_string(diag) is None


# -- the Clifford extension kernel ----------------------------------------------------------------


def _symplectic(L, a, b):
    """1 when the strings of the masks a and b anticommute."""
    low = (1 << L) - 1
    return (((a & low) << L | a >> L) & b).bit_count() & 1


def _unit_rows(L):
    return [(k, 1 << k) for k in range(2 * L)]


@functools.cache
def _cliffords(L):
    """Every Clifford tableau on L sites, each with the signed image of every
    mask: the images of the unit rows that are independent and keep the
    symplectic form (6 at L = 1, 720 at L = 2), times every sign pattern."""
    n, out = 2 * L, {}
    for images in itertools.product(range(1, 1 << n), repeat=n):
        if len(_gf2_pivots(list(images))) < n or any(
            _symplectic(L, images[i], images[j]) != _symplectic(L, 1 << i, 1 << j)
            for i in range(n) for j in range(i)
        ):
            continue
        for signs in range(1 << n):
            tableau = tuple(v << 1 | signs >> k & 1 for k, v in enumerate(images))
            image = _StringMap(L, _unit_rows(L), tableau)
            out[tableau] = [image[v] for v in range(1 << n)]
    return out


def test_the_clifford_enumeration_counts():
    assert [len(_cliffords(L)) for L in (1, 2)] == [24, 720 * 16]


def _maps(image, pairs):
    return all(image[b >> 1] ^ b & 1 == a for a, b in pairs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_extension_kernel_matches_every_clifford(data):
    # the verdict is "some Clifford maps every pair", and a returned tableau
    # is one of them; pairs are random, mapped by a Clifford, or mapped and
    # then one bit off (a sign, a letter or a commutation)
    L = data.draw(st.integers(1, 2), label="L")
    cliffords = _cliffords(L)
    signed = st.integers(0, (2 << 2 * L) - 1)
    rhs = data.draw(st.lists(signed, min_size=1, max_size=5), label="rhs")
    mode = data.draw(st.sampled_from(["random", "mapped", "one-off"]), label="mode")
    if mode == "random":
        lhs = data.draw(st.lists(signed, min_size=len(rhs), max_size=len(rhs)), label="lhs")
    else:
        image = cliffords[data.draw(st.sampled_from(sorted(cliffords)), label="clifford")]
        lhs = [image[b >> 1] ^ b & 1 for b in rhs]
        if mode == "one-off":
            k = data.draw(st.integers(0, len(rhs) - 1), label="k")
            lhs[k] ^= 1 << data.draw(st.integers(0, 2 * L), label="bit")
    pairs = list(zip(lhs, rhs))
    got = _extension_tableau(L, pairs)
    assert (got is not None) == any(_maps(image, pairs) for image in cliffords.values())
    assert got is None or (got in cliffords and _maps(cliffords[got], pairs))
    if mode == "mapped":
        assert got is not None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extension_kernel_solves_the_pairs_of_a_clifford(data):
    # a random Clifford on up to 5 sites, as transvections v -> v + <v, h> h
    # (they generate the symplectic group) and random signs; the pairs it
    # maps must be solved, by an invertible tableau that maps them
    L = data.draw(st.integers(1, 5), label="L")
    n, images = 2 * L, [1 << k for k in range(2 * L)]
    for h in data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=3 * n), label="h"):
        images = [v ^ h if _symplectic(L, v, h) else v for v in images]
    signs = data.draw(st.integers(0, (1 << n) - 1), label="signs")
    image = _StringMap(L, _unit_rows(L), tuple(v << 1 | signs >> k & 1 for k, v in enumerate(images)))
    rhs = data.draw(st.lists(st.integers(0, (2 << n) - 1), min_size=1, max_size=n + 2), label="rhs")
    pairs = [(image[b >> 1] ^ b & 1, b) for b in rhs]
    got = _extension_tableau(L, pairs)
    assert got is not None and len(got) == n
    assert _maps(_StringMap(L, _unit_rows(L), got), pairs)
    _inverse_tableau(L, got)
