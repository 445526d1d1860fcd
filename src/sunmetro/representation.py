"""Collective (bosonic symmetric) representations of su(n).

A basis element X of su(n) acts on 𝒩 indistinguishable bosons in n modes as
the number-conserving collective operator

    X^(R) = sum_ij X_ij a_i^dagger a_j,

restricted to the fixed-particle-number Fock sector.  That sector carries the
symmetric irreducible representation; its dimension is binom(𝒩 + n - 1, n - 1),
and the quadratic invariant sum_a (X_a^(R))**2 is a multiple of the identity.

:class:`FockBasis` lists the sector's occupations (k_0, ..., k_{n-1}) in
descending lexicographic order, and a state's index is its rank in that
order, computed exactly in int64 by the combinatorial number system
(:meth:`FockBasis.rank`).  The probes place their amplitudes by that rank,
and the stack builder finds each hop's destination from it.

Each X^(R) is a diagonal plus hops a_i^dagger a_j with amplitudes
sqrt(n_j (n_i + 1)), so it has O(n**2 D) non-zeros out of D**2.  The d
collective generators are therefore stored as one sparse stack: a CSR matrix
of shape (d D, D) whose a-th block of D rows is X_a^(R).

Every stack is checked when a representation is built (see
:func:`_construction_checks`).  In the occupation basis the image rho(E_pq)
of each matrix unit is a weighted partial permutation of the states, so the
check reads the images from the stack as tables and tests, entry by entry,
adjointness, [rho(s), rho(y)] = rho([s, y]) for s = E_0j and the diagonal
units, which bound every commutator through one Jacobi step, and a scalar
quadratic invariant, in about n times the stack's entries and with no
structure constants.  A stack not in occupation form is refused.

:func:`symmetric_representation` builds and checks a new stack on every
call.  :func:`symmetric_sector`, which the probes and ``optimize`` build
through, does so once per process for each (n, 𝒩): it holds the sectors it
has built, least recently used first, with dimensions that sum to at most
``DIMENSION_CAP``, and makes their stacks read-only.  A request for a held
sector returns the held object and runs no check, since that object was
checked when it was built.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .algebra import GeneratorBasis, gellmann_basis
from .exceptions import DimensionCapError, InvalidElementError, NotIrreducibleError

#: Default guard on the representation dimension; raise above this.  The
#: sparse stack holds O(n**2 D) entries in the Gell-Mann basis (about d n N D,
#: which this does not bound, where every generator has off-diagonal entries),
#: and its checks tables of (n**2 + n) (D + 1).  A lifted unitary is one
#: dense D x D matrix, and a mixed state of rank r holds d D r complex
#: generator matrix elements.  The sectors :func:`symmetric_sector` holds have
#: dimensions summing to at most this.
DIMENSION_CAP = 20000

#: Relative tolerance for the quadratic invariant to count as scalar.
CASIMIR_RTOL = 1e-8

#: Relative tolerance for each collective generator to count as Hermitian.
HERMITIAN_RTOL = 1e-12

#: Relative tolerance for the commutator table of a collective representation.
COMMUTATOR_RTOL = 1e-10

#: Rounding allowed in each checked relation entry, relative to the largest
#: product of two image entries (see :func:`_construction_checks`): the
#: stored entries and the check's own products are exact only to about
#: machine epsilon times that size.
ROUNDING = 64 * np.finfo(float).eps

@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis of the fixed-particle sector.

    ``occupations`` is a read-only (D, n) int64 array with one state per row,
    in descending lexicographic order, so the fully stretched state
    (𝒩, 0, ..., 0) comes first and for 𝒩 = 1 the k-th state has the particle
    in mode k.  A state's row is its rank: the number of states before it,

        rank(k) = sum_{q=1}^{n-1} multichoose(S_q, n - q),  S_q = k_q + ... + k_{n-1},

    with multichoose(s, p) = binom(s + p - 1, p) the number of ways to put p
    particles in s modes.  Each term counts states that precede k, so it is
    below D, and :meth:`rank` is exact in int64 for every n and 𝒩.  Two bases
    are equal when their modes and particles are.
    """

    modes: int
    particles: int
    occupations: np.ndarray = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations) -> np.ndarray:
        """The rows of the given states of this sector: an int64 array of
        shape ``occupations.shape[:-1]``."""
        occ = np.asarray(occupations, dtype=np.int64)
        suffix = occ[..., :0:-1].cumsum(axis=-1)  # S_{n-1}, ..., S_1
        return self._multichoose[suffix, np.arange(1, self.modes)].sum(axis=-1)

    @cached_property
    def _multichoose(self) -> np.ndarray:
        # multichoose(s, p) at [s, p] for s <= 𝒩 + 1 and p < n; none exceeds D
        table = np.zeros((self.particles + 2, self.modes), dtype=np.int64)
        table[:, 0] = 1
        for p in range(1, self.modes):
            table[1:, p - 1].cumsum(out=table[1:, p])
        return table


def fock_basis(modes: int, particles: int) -> FockBasis:
    """Enumerate occupations of ``particles`` bosons in ``modes`` modes."""
    if modes < 2 or particles < 1:
        raise InvalidElementError(
            f"need modes >= 2 and particles >= 1, got ({modes}, {particles})"
        )
    # the states of the last m modes with every total t <= 𝒩, by ascending t
    # and each total in descending order; those of m + 1 modes with total t
    # are the m-mode states of totals u <= t, in that order, each behind t - u
    tail = np.arange(particles + 1, dtype=np.int64)[:, None]
    totals = tail[:, 0]
    for _ in range(modes - 2):
        count = np.bincount(totals, minlength=particles + 1).cumsum()
        rows = _ranges(np.zeros_like(count), count)
        total = np.arange(particles + 1, dtype=np.int64).repeat(count)
        tail = np.column_stack([total - totals[rows], tail[rows]])
        totals = total
    occupations = np.column_stack([particles - totals, tail])
    occupations.setflags(write=False)
    return FockBasis(modes=modes, particles=particles, occupations=occupations)


class Representation:
    """A concrete unitary representation of the generator basis.

    The constructor takes the stack in any form ``scipy.sparse.csr_array``
    accepts and checks it (see :func:`_construction_checks`), which raises
    unless it is a Hermitian irreducible su(n) representation in occupation
    form, as every stack this package builds is; :func:`casimir` returns the
    invariant the checks found.

    Attributes
    ----------
    basis : GeneratorBasis
        The fundamental basis being represented.
    stack : scipy.sparse.csr_array
        Complex CSR matrix of shape ``(d * D, D)``; rows ``a * D`` to
        ``(a + 1) * D - 1`` hold X_a^(R).  It is the only form of the
        generators a representation keeps.
    label : str
        ``"symmetric(n, 𝒩)"`` for a collective representation, else the name
        given to the constructor, or ``"a representation of su(n) on D
        states"`` if it was given none.  The defining representation is the
        one-boson sector ``"symmetric(n, 1)"``.
    fock : FockBasis or None
        Occupation basis for collective representations, None otherwise.
    """

    def __init__(self, basis: GeneratorBasis, stack, label: str = "", fock: FockBasis | None = None):
        stack = sparse.csr_array(stack, dtype=complex)
        dim = stack.shape[-1]
        if dim < 1 or stack.shape != (basis.dim * dim, dim):
            raise InvalidElementError(f"expected a ({basis.dim} D, D) stack, got {stack.shape}")
        label = label or f"a representation of su({basis.n}) on {dim} states"
        # every residual test below is False for NaN, so non-finite entries
        # would pass them; reject those before any residual is formed
        if not np.isfinite(stack.data).all():
            raise InvalidElementError(f"stack of {label} has non-finite entries")
        self.basis = basis
        self.stack = stack
        self.label = label
        self.fock = fock
        self._casimir = _construction_checks(basis, stack, label)

    @property
    def space_dim(self) -> int:
        return self.stack.shape[1]

    def images(self, columns: np.ndarray) -> np.ndarray:
        """X_a u for every generator a and column u of ``columns``, shape (d, *columns.shape)."""
        return (self.stack @ columns).reshape(-1, *columns.shape)

    def adjoint_sum(self, w: np.ndarray) -> np.ndarray:
        """sum_a X_a^dagger w_a for a (d, D) array w, as conj(F^T conj(w))."""
        total = self._transposed @ w.reshape(-1).conj()
        return np.conjugate(total, out=total)

    @cached_property
    def _transposed(self) -> sparse.csc_array:
        return self.stack.T  # a view: it shares the stack's arrays


def symmetric_representation(
    basis: GeneratorBasis, particles: int, cap: int = DIMENSION_CAP
) -> Representation:
    """Collective representation on 𝒩 bosons in n modes.

    The sparse stack is built directly and checked at once (see
    :class:`Representation`), and the invariant the checks find must equal
    the closed form 𝒩(𝒩 + n)(n - 1) / (2n) within ``CASIMIR_RTOL`` (else
    :class:`NotIrreducibleError`); :func:`casimir` then returns it.

    Parameters
    ----------
    basis : GeneratorBasis
        Fundamental su(n) basis to lift.
    particles : int
        Boson number 𝒩 >= 1.
    cap : int
        Guard on the sector dimension binom(𝒩 + n - 1, n - 1); a larger
        request raises :class:`DimensionCapError` instead of allocating.
    """
    n = basis.n
    check_cap(n, particles, cap)
    fock = fock_basis(n, particles)
    rep = Representation(basis, _collective_stack(basis, fock), f"symmetric({n}, {particles})", fock)
    expected = _symmetric_casimir(n, particles)
    if abs(rep._casimir - expected) > CASIMIR_RTOL * max(1.0, expected):
        raise NotIrreducibleError(
            f"quadratic invariant of {rep.label} is {rep._casimir!r}, not the closed form {expected!r}"
        )
    return rep


def _symmetric_casimir(n: int, particles: int) -> float:
    return particles * (particles + n) * (n - 1) / (2.0 * n)  # for 2 Tr(X_a X_b) = delta_ab


def symmetric_sector(n: int, particles: int, cap: int = DIMENSION_CAP) -> Representation:
    """:func:`symmetric_representation` on ``gellmann_basis(n)``, built and
    checked once per process.

    The sector dimension is compared with ``cap`` first, so a refused request
    costs nothing that grows with n, and a held sector above ``cap`` is
    refused as a new one would be.  A sector this function has built is held
    (see :class:`_HeldSectors`), and a later request returns the same object,
    whose stack arrays are read-only.
    """
    check_cap(n, particles, cap)
    rep = _sectors.get((n, particles))
    if rep is None:
        rep = symmetric_representation(gellmann_basis(n), particles, cap=cap)
        rep = _sectors.hold((n, particles), rep)
    return rep


def check_cap(n: int, particles: int, cap: int) -> None:
    """Raise :class:`DimensionCapError` if symmetric(n, particles) has
    dimension above ``cap``; an n below 2 is left for gellmann_basis to refuse,
    with its own message.

    The dimension binom(𝒩 + n - 1, k), k = min(𝒩, n - 1), is formed one exact
    factor at a time and stops at the first partial binom(𝒩 + n - 1, i) above
    ``cap``.  These rise with i up to k and are at least 2**i, so the check
    takes at most about log2(cap) steps whatever n and 𝒩 are.  The message
    gives the dimension where the product completes, and otherwise the
    partial product as a lower bound.
    """
    if n < 2:
        return
    top, k = particles + n - 1, min(particles, n - 1)
    dim = 1
    for i in range(1, k + 1):
        dim = dim * (top - i + 1) // i
        if dim > cap:
            size = dim if i == k else f"at least {dim}"
            raise DimensionCapError(
                f"symmetric({n}, {particles}) has dimension {size} > cap {cap}"
            )


class _HeldSectors:
    """The sectors :func:`symmetric_sector` has built, by (n, 𝒩), least
    recently used first.

    Their dimensions sum to at most ``DIMENSION_CAP``: holding a sector
    evicts the least recently used ones until it fits, and a sector above
    ``DIMENSION_CAP`` is not held.  That bounds the states held, not the
    bytes, since a stack holds O(n**2 D) entries.
    """

    def __init__(self):
        self._reps: OrderedDict[tuple[int, int], Representation] = OrderedDict()
        self.dims = 0  # the held sectors' dimensions, summed
        self._lock = threading.Lock()

    def get(self, key) -> Representation | None:
        with self._lock:
            rep = self._reps.get(key)
            if rep is not None:
                self._reps.move_to_end(key)
            return rep

    def hold(self, key, rep: Representation) -> Representation:
        """Hold ``rep`` under ``key``; returns the sector now held there, or
        ``rep`` if it is not held."""
        dim = rep.space_dim
        if dim > DIMENSION_CAP:
            return rep
        with self._lock:
            if key in self._reps:  # another thread built it too
                return self._reps[key]
            while self.dims + dim > DIMENSION_CAP:
                self.dims -= self._reps.popitem(last=False)[1].space_dim
            for arr in (rep.stack.data, rep.stack.indices, rep.stack.indptr):
                arr.setflags(write=False)  # no caller can change a checked stack
            self._reps[key] = rep
            self.dims += dim
            return rep

    def clear(self) -> None:
        with self._lock:
            self._reps.clear()
            self.dims = 0


_sectors = _HeldSectors()


def _collective_stack(basis: GeneratorBasis, fock: FockBasis) -> sparse.csr_array:
    # X_a^(R) = diag(X_a) . occupations + sum_{i != j} (X_a)_ij a_i^dagger a_j,
    # read from the basis's columns (i, j): the generators with an (i, j) entry
    n, d, dim = basis.n, basis.dim, fock.dim
    occs = fock.occupations
    # the diagonal, from the rows of a dense (d, n) block that hold any entry
    gens, vals, mode = _column_entries(basis.coefficients, np.arange(0, n * n, n + 1))
    block = np.zeros((d, n))
    block[gens, mode] = vals.real
    diag_gens = block.any(axis=1).nonzero()[0]
    diag = block[diag_gens] @ occs.T
    r0, s0 = diag.nonzero()
    # a hop j -> i lowers the suffix sum S_q by one for i < q <= j, or raises
    # it by one for j < q <= i.  As multichoose(s, p) - multichoose(s - 1, p)
    # = multichoose(s, p - 1), the rank falls by lower[j] - lower[i] (i < j)
    # or rises by upper[i] - upper[j] (i > j), with lower[q] and upper[q] the
    # sums over q' <= q of multichoose(S_q', n - q' - 1) and of
    # multichoose(S_q' + 1, n - q' - 1) for each state
    suffix = occs[:, :0:-1].cumsum(axis=1)[:, ::-1]  # S_1, ..., S_{n-1}
    p = np.arange(n - 2, -1, -1)
    lower = np.zeros((dim, n), dtype=np.int64)
    upper = np.zeros((dim, n), dtype=np.int64)
    fock._multichoose[suffix, p].cumsum(axis=1, out=lower[:, 1:])
    fock._multichoose[suffix + 1, p].cumsum(axis=1, out=upper[:, 1:])
    del suffix
    mode_i, mode_j = (~np.eye(n, dtype=bool)).nonzero()
    src, hop = occs[:, mode_j].nonzero()  # states with a particle to move j -> i
    i, j = mode_i[hop], mode_j[hop]
    amp = np.sqrt(occs[src, j] * (occs[src, i] + 1))
    at_i, at_j = src * n + i, src * n + j
    dst = np.where(
        i < j,
        src - lower.ravel()[at_j] + lower.ravel()[at_i],
        src + upper.ravel()[at_i] - upper.ravel()[at_j],
    )
    del lower, upper, at_i, at_j
    gens, vals, h1 = _column_entries(basis.coefficients, i * n + j)
    rows = np.concatenate([diag_gens[r0] * dim + s0, gens * dim + dst[h1]])
    cols = np.concatenate([s0, src[h1]])
    data = np.concatenate([diag[r0, s0], vals * amp[h1]])
    order = (rows * dim + cols).argsort()
    # the index type scipy picks for these values, so that products with the
    # stack copy no index array
    idx = sparse.get_index_dtype(maxval=max(d * dim, data.size))
    indptr = np.zeros(d * dim + 1, dtype=idx)
    np.bincount(rows, minlength=d * dim).cumsum(dtype=idx, out=indptr[1:])
    return sparse.csr_array((data[order], cols[order].astype(idx), indptr), shape=(d * dim, dim))


def _column_entries(t: sparse.csc_array, cols: np.ndarray):
    # generator (as int64, since it is scaled by D), value and place in cols of
    # each stored entry of the columns cols of a CSC map
    count = t.indptr[cols + 1] - t.indptr[cols]
    entry = _ranges(t.indptr[cols], count)
    return t.indices[entry].astype(np.int64), t.data[entry], np.arange(cols.size).repeat(count)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # concatenation of arange(s, s + c) over (starts, counts)
    return (starts - counts.cumsum() + counts).repeat(counts) + np.arange(counts.sum())


def _entries(stack: sparse.csr_array):
    # (generator, row, column, value) of every stored entry, in storage order
    dim = stack.shape[1]
    indptr = stack.indptr
    block, row = divmod(np.arange(stack.shape[0]).repeat(indptr[1:] - indptr[:-1]), dim)
    return block, row, stack.indices.astype(np.int64), stack.data


def _unit(u, n: int) -> str:
    # the matrix unit u = p n + q, named E_p,q; E_k,k stands for E_kk - I/n
    return f"E_{u // n},{u % n}"


def _failed(s, y, dev: float, n: int, label: str) -> InvalidElementError:
    return InvalidElementError(f"commutator [{_unit(s, n)}, {_unit(y, n)}] deviates by {dev:.3e} in {label}")


def _images(basis: GeneratorBasis, stack: sparse.csr_array) -> sparse.csr_array:
    """rho(u) = sum_a 2 conj(T[a, u]) X_a for the n**2 units u = p n + q (E_kk
    standing for E_kk - I/n), so that X_a = sum_u T[a, u] rho(u): a CSR matrix
    whose row r n**2 + u is row r of rho(u), with sorted columns.  The lift
    holds 2 conj(T[a, u]) at row (r, u) and column (a, r) for each stack row
    (a, r) with an entry."""
    n, dim = basis.n, stack.shape[1]
    t = basis.coefficients
    held = (np.diff(stack.indptr) > 0).reshape(-1, dim)[t.indices].T  # [r, entry of T]
    indptr = np.zeros(dim * n * n + 1, dtype=stack.indices.dtype)
    np.add.reduceat(held, t.indptr[:-1], axis=1).cumsum(out=indptr[1:])
    r, entry = np.nonzero(held)
    data = 2.0 * t.data.conj()[entry]
    entry = t.indices[entry].astype(indptr.dtype)
    entry *= dim
    entry += r
    del held, r
    images = sparse.csr_array((data, entry, indptr), shape=(dim * n * n, stack.shape[0])) @ stack
    images.sort_indices()
    return images


def _occupation_form(images: sparse.csr_array, n: int, hermitian: float, label: str):
    """Check each entry of rho(u) against its partner, the transposed entry
    of rho(u'), within ``hermitian``, and split rho(u) into P_u and E_u: an
    entry is P_u's if it is the first largest in its row and so is its
    partner in its own (for E_kk, if it is diagonal), so P_u' = P_u^T.
    Returns the tables (row u maps column c to row dst[u, c] with value
    val[u, c]; column D is a sink, row n**2 + j - 1 holds H_0 - H_j, the last
    is zero), the off-diagonal P_u's entries, m, eps, eta and the residue."""
    units, dim = n * n, images.shape[1]
    indptr, col, value = images.indptr, images.indices, images.data
    del images
    count = np.diff(indptr)
    filled = np.flatnonzero(count)  # the rows r n**2 + u with an entry
    run = np.arange(filled.size).repeat(count[filled])
    row, unit = np.divmod(filled[run], units)
    key = filled[run] * dim + col  # ascending
    partner = (col * units + unit % n * n + unit // n) * dim + row
    at = np.minimum(np.searchsorted(key, partner), key.size - 1)
    found = key[at] == partner
    del key, partner
    size = np.abs(value)
    skew = np.where(found, np.abs(value - value[at].conj()), size)  # no partner: its size
    eta = skew.max(initial=0.0)
    if eta > hermitian:
        e = skew.argmax()
        u = unit[e]
        raise InvalidElementError(
            f"{label} is not Hermitian: rho({_unit(u % n * n + u // n, n)}) and "
            f"rho({_unit(u, n)})^dagger differ by {eta:.3e} in column {row[e]}"
        )
    del skew
    weight = np.where((unit % (n + 1) == 0) & (row != col), -1.0, size)
    best = np.flatnonzero(weight == np.maximum.reduceat(weight, indptr[filled])[run])
    first = np.zeros(size.size, dtype=bool)
    first[best] = weight[best] >= 0.0
    first[best[1:][run[best[1:]] == run[best[:-1]]]] = False  # the first of ties in a row
    main = best[first[best] & found[best] & first[at[best]]]
    del weight, best, first, at, found
    big = size[main].max(initial=0.0)
    size[main] = 0.0  # the residue
    spread = 0.0
    stray = ""
    if size.any():
        at = unit * dim + col
        by_row = np.add.reduceat(size, indptr[filled]).max()
        spread = max(by_row, np.bincount(at, weights=size).max())
        e = size.argmax()
        stray = f"rho({_unit(unit[e], n)}) has {np.count_nonzero(at == at[e])} entries in column {col[e]}"
    mu = unit[main]
    mr = row[main]
    mc = col[main]
    mv = value[main]
    del indptr, col, value, count, filled, run, row, unit, size, main
    dst = np.full((units + n, dim + 1), dim, dtype=np.int32)
    val = np.zeros((units + n, dim + 1), dtype=complex)
    dst[units:-1, :dim] = np.arange(dim)
    dst[mu, mc] = mr
    val[mu, mc] = mv
    val[units:-1] = val[0] - val[n + 1 : units : n + 1]
    hop = mu % (n + 1) != 0
    return (dst, val), (mu[hop], mr[hop], mc[hop], mv[hop]), big, spread, eta, stray


def _cartan_and_invariant(tables, hops, n: int, allowed: float, label: str) -> tuple[float, float]:
    """Check delta(H_k, E_pq) = (h_k[r] - h_k[c] - delta_kp + delta_kq) P_pq[r, c]
    (h_k the diagonal of rho(H_k); diagonal images commute exactly).  Return
    c = Tr Q / D, Q = 1/2 sum_{p != q} P_pq P_qp + 1/2 sum_k P_kk**2, and a
    bound on |Q - c I|."""
    dst, val = tables
    dim = dst.shape[1] - 1
    hu, hr, hc, hv = hops
    hp, hq = np.divmod(hu, n)
    size = np.abs(hv)
    for k in range(n):
        h = val[k * (n + 1)]
        dev = size * np.abs(h[hr] - h[hc] - (hp == k) + (hq == k))
        if dev.max(initial=0.0) > allowed:
            raise _failed(k * (n + 1), hu[dev.argmax()], dev.max(), n, label)
    at = (hq * n + hp) * (dim + 1) + hr  # P_qp takes column c to r, and P_pq takes r on
    term = 0.5 * val.ravel()[at] * hv
    home = dst.ravel()[at] == hc
    diag = 0.5 * (val[: n * n : n + 1, :dim] ** 2).sum(axis=0)
    diag += np.bincount(hc[home], weights=term.real[home], minlength=dim)
    diag += 1j * np.bincount(hc[home], weights=term.imag[home], minlength=dim)
    c = float(diag.real.sum()) / dim
    off_diag = np.bincount(hc[~home], weights=np.abs(term[~home]), minlength=dim).max()
    return c, max(off_diag, np.abs(diag - c).max())


def _column_deviation(dst, val, ds, vs, y, b, coef, c):
    # the largest |entry| in each column c of [P_s, P_y] - coef P_b, whose terms
    # put one entry each in a column, from the flat tables (ds, vs: row s)
    at = y + c
    mid = dst[at]
    ra = ds[mid]  # P_s P_y
    va = vs[mid] * val[at]
    mid = ds[c]
    at = y + mid
    rb = dst[at]  # P_y P_s
    vb = val[at] * vs[c]
    at = b + c
    rc = dst[at]  # coef P_b
    vc = val[at] * coef
    del at, mid
    ab = ra == rb
    ac = ra == rc
    bc = rb == rc
    dev = np.abs(va - vb * ab - vc * ac)
    np.maximum(dev, np.abs((vb + vc * bc) * ~ab), out=dev)  # the entry in row rb, if it is not ra
    np.maximum(dev, np.abs(vc * ~(ac | bc)), out=dev)  # the entry in row rc, if it is neither
    return dev


def _brackets(n: int):
    # the off-diagonal units y = E_pq and, for each s = E_0j (row j - 1), the
    # table row and coefficient of [s, y] = delta_jp E_0q - delta_q0 E_pj, which
    # is H_0 - H_j where both hold, and the y where it is not zero
    off = np.flatnonzero(np.arange(n * n) % (n + 1))
    p = off // n
    q = off % n
    j = np.arange(1, n)[:, None]
    row = np.where(
        p == j,
        np.where(q == 0, n * n + j - 1, q),
        np.where(q == 0, p * n + j, n * n + n - 1),
    )
    coef = np.where(p == j, 1, np.where(q == 0, -1, 0)).astype(np.int8)
    named = np.nonzero(coef)[1].reshape(n - 1, -1)
    return off, row.astype(np.int32), coef, named, np.take_along_axis(row, named, 1)


def _check_generators(tables, n: int, allowed: float, label: str) -> None:
    # delta(E_0j, y) for y off-diagonal, in the columns of P_s, those P_y takes
    # onto them (P_y' = P_y^T: the column P_y takes to r is dst[y', r]) and
    # those of P_[s,y]
    dst, val = tables
    width = dst.shape[1]
    dim = width - 1
    off, brow, coef, named, named_rows = _brackets(n)
    outside = dst[1:n] == dim  # the columns outside each P_s
    gi, support = np.nonzero(~outside[:, :dim])
    support = support.astype(np.int32)
    ends = np.searchsorted(gi, np.arange(n))
    # the columns outside P_s where P_[s,y] has an entry
    bi, by, bc = np.nonzero((dst[named_rows, :dim] != dim) & outside[:, None, :dim])
    by = named[bi, by]
    bc = bc.astype(np.int32)
    bends = np.searchsorted(bi, np.arange(n))
    outside[:, dim] = False  # nor is the sink a column to add
    dstf = dst.ravel()
    valf = val.ravel()
    at = (off * width).astype(np.int32)
    back = ((off % n * n + off // n) * width)[:, None]  # the rows y'
    for s in range(1, n):
        cols = support[ends[s - 1] : ends[s]]
        extra = slice(bends[s - 1], bends[s])
        pre = dstf[back + cols]
        py, pk = np.nonzero(outside[s - 1][pre])
        ys = np.concatenate([np.arange(off.size).repeat(cols.size), py, by[extra]])
        cs = np.concatenate([cols] * off.size + [pre[py, pk], bc[extra]])
        del pre, py, pk
        b = brow[s - 1][ys] * width
        dev = _column_deviation(dstf, valf, dst[s], val[s], at[ys], b, coef[s - 1][ys], cs)
        if dev.max(initial=0.0) > allowed:
            raise _failed(s, off[ys[dev.argmax()]], dev.max(), n, label)


def _construction_checks(basis: GeneratorBasis, stack: sparse.csr_array, label: str) -> float:
    """Check that a stack in occupation form represents su(n); return its Casimir.

    Each matrix-unit image rho(u) (:func:`_images`) is split into a weighted
    partial permutation P_u and a residue E_u (:func:`_occupation_form`).
    With |A| the largest |entry| of A, ||A|| its largest row or column sum,
    scale = max(1, |stack|), tau = max_a sum_u |T[a, u]|, m = max |P_u|,
    eps = max ||E_u||, m' = m + eps, eta = max |rho(u') - rho(u)^dagger| and
    delta(x, y) = [rho x, rho y] - rho [x, y], all read over the supports:

    - |X_a - X_a^dagger| <= tau eta <= ``HERMITIAN_RTOL`` scale, as
      X_a - X_a^dagger = sum_u T[a, u'] (rho(u') - rho(u)^dagger).
    - e, the largest |entry| of [P_s, P_y] - P_[s,y] for s = E_0j or E_kk and
      every y, moves by at most (4 m + 2 eps + 2) eps on the images, and
      delta(E_j0, y) = -delta(E_0j, y')^dagger within (8 m' + 2) eta, so
      |delta(s, y)| <= e' = e + (4 m + 2 eps + 2) eps + (8 m' + 2) eta on
      G = {E_0j, E_j0, E_kk}.  Every other unit is u = [E_p0, E_0q] = [x, x']
      (none for n = 2), and the Jacobi identity delta(u, y) = delta(x, [x', y])
      - delta(x', [x, y]) + [rho x, delta(x', y)] - [rho x', delta(x, y)] -
      [delta(x, x'), rho y], with [x', y] at most two units of coefficient
      +-1 and ||rho x|| <= m', gives |delta(u, y)| <= (4 + 6 m') e'.  As
      [X_j, X_k] - i f_jkl X_l = sum_uv T[j, u] T[k, v] delta(u, v),

          |[X_j, X_k] - i f_jkl X_l| <= tau**2 (4 + 6 m') e'   (tau**2 e' for n = 2).

      The check requires e' to be at most ``COMMUTATOR_RTOL`` scale / (tau**2
      (4 + 6 m')), which makes the bound ``COMMUTATOR_RTOL`` scale, or
      ``ROUNDING`` (1 + m')**2 if that is larger: the first stays near
      ``COMMUTATOR_RTOL`` / (6 tau**2) as m' grows (scale is about m'), and
      the rounding in e' grows like m'**2.  The second governs from m' of
      about 27 in the Gell-Mann basis (su(3) from 𝒩 = 40); intact sectors
      reach under 0.02 of it there and under 0.3 in rotated bases.
    - sum_a X_a**2 = 1/2 sum_{p != q} rho(E_pq) rho(E_qp) + 1/2 sum_k
      rho(E_kk)**2 is Q, the same sum over the P_u, within n**2 (2 m + eps)
      eps / 2, and must be c I within ``CASIMIR_RTOL`` max(1, |c|), else
      :class:`NotIrreducibleError`; c = Tr Q / D is returned.

    Each identity holds for an orthonormal, Hermitian T, which
    :class:`GeneratorBasis` checks; on a collective stack m' <= 𝒩 and
    tau <= n, so the bounds are polynomial in n and 𝒩.
    """
    n = basis.n
    scale = max(1.0, np.abs(stack.data).max(initial=0.0))
    t = basis.coefficients
    tau = np.bincount(t.indices, weights=np.abs(t.data), minlength=basis.dim).max()
    tables, hops, big, spread, eta, stray = _occupation_form(
        _images(basis, stack), n, HERMITIAN_RTOL * scale / tau, label
    )
    reach = big + spread
    jacobi = tau**2 * (1.0 if n == 2 else 4.0 + 6.0 * reach)
    allowed = max(COMMUTATOR_RTOL * scale / jacobi, ROUNDING * (1.0 + reach) ** 2)
    allowed -= (4.0 * big + 2.0 * spread + 2.0) * spread + (8.0 * reach + 2.0) * eta
    if allowed < 0.0:  # the residue, or eta, leaves no room for the commutators
        if stray:
            raise InvalidElementError(f"{label} is not in occupation form: {stray}")
        raise InvalidElementError(f"{label} is not Hermitian enough: {eta:.3e}")
    c, dev = _cartan_and_invariant(tables, hops, n, allowed, label)
    del hops
    _check_generators(tables, n, allowed, label)
    if dev + n * n * (2.0 * big + spread) * spread / 2.0 > CASIMIR_RTOL * max(1.0, abs(c)):
        raise NotIrreducibleError(f"quadratic invariant of {label} deviates from scalar by {dev:.3e}")
    return c


def casimir(rep: Representation) -> float:
    """Scalar value of the quadratic invariant sum_a (X_a^(R))**2.

    It is trace / D of the invariant that the construction checks form from
    the matrix-unit images; a representation whose invariant is not scalar
    within ``CASIMIR_RTOL`` (reducible or corrupted) raises
    :class:`NotIrreducibleError` when it is built, and so does a collective
    one whose invariant is not the closed form 𝒩(𝒩 + n)(n - 1) / (2n).
    """
    return rep._casimir


def lift_unitary(rep: Representation, coeffs: np.ndarray) -> np.ndarray:
    """exp(i sum_a h_a X_a^(R)), evaluated by :func:`exp_hermitian`.

    The sum is accumulated from the entries of the sparse stack into one
    dense D x D matrix.
    """
    h = np.asarray(coeffs, dtype=float)
    if h.shape != (rep.basis.dim,):
        raise InvalidElementError(f"expected {rep.basis.dim} coefficients, got {h.shape}")
    block, row, col, val = _entries(rep.stack)
    total = np.zeros((rep.space_dim, rep.space_dim), dtype=complex)
    np.add.at(total, (row, col), h[block] * val)
    return exp_hermitian(total)


def exp_hermitian(a: np.ndarray) -> np.ndarray:
    """exp(i A) for a Hermitian matrix A, or for each of a (..., n, n) stack.

    Eigendecomposition is used instead of a series or Pade expansion so the
    result is exactly unitary up to rounding even for large norms.
    """
    a = (a + np.swapaxes(a.conj(), -1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
