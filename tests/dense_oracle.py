"""Dense `GMat` forms that only the tests read: the site reflection and CZ as
matrices, the scalar test of a matrix, and the M_N tableau of Ad u for a
dense u.  The package holds group data and covariance families as tableaux;
these are the oracles its tableaux are compared with."""

from sectorfact.linalg import GMat, GR_ONE, GR_ZERO, GaussianRational, _UNITS
from sectorfact.sectors import MatrixAlg, _ad_tableau


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

