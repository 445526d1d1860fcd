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

Every stack is checked when a representation is built: finite entries,
Hermiticity, the full commutator table and a scalar quadratic invariant.  The
last two come from sparse products Z F, whose rows are
[X_j, X_k] - i f_jkl X_l for every pair and sum_a X_a X_a, where the
generators couple densely; where they do not (large n, few particles) they
come from the grouped terms of the Gram product F F^dagger, which are then
fewer.  Either kernel works through its output rows in runs of about
``CHECK_BUDGET`` terms, and the Hermiticity check through runs of
generators, so their memory stays a few times the stack's at any size; a Z
that fits the budget is one product.

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
from math import comb

import numpy as np
from scipy import sparse

from .algebra import GeneratorBasis, StructureConstants, gellmann_basis, structure_constants
from .exceptions import DimensionCapError, InvalidElementError, NotIrreducibleError

#: Default guard on the representation dimension; raise above this.  The
#: sparse stack holds O(n**2 D) entries.  Its construction checks form the
#: product matrix Z, about (d - 1) nnz = O(n**4 D) entries, or the
#: sum_m L_m**2 <= O(n**4 D) Gram terms (L_m the entries in column m),
#: whichever is fewer, but hold only a run of about ``CHECK_BUDGET`` of them
#: at a time (or one pair's rows, or one state row's terms, if that is more).
#: A lifted unitary is one dense D x D matrix, and a mixed state of rank r
#: holds its generator matrix elements as d D r complex entries.  The
#: sectors :func:`symmetric_sector` holds have dimensions summing to at most
#: this.
DIMENSION_CAP = 20000

#: Relative tolerance for the quadratic invariant to count as scalar.
CASIMIR_RTOL = 1e-8

#: Relative tolerance for each collective generator to count as Hermitian.
HERMITIAN_RTOL = 1e-12

#: Relative tolerance for the commutator table of a collective representation.
COMMUTATOR_RTOL = 1e-10

#: Term budget of the construction checks.  The residual kernels build the
#: product matrix Z, or the Gram terms, over runs of output rows of about this
#: many entries each, and the Hermiticity check merges runs of generators of
#: about this many terms, so that their memory stays a few times the stack's;
#: a Z that fits is one product.  2**14 keeps every sector up to sym(4, 4) (a Z of
#: 11475 entries) in one product, and a run's arrays near 1 MB.
CHECK_BUDGET = 2**14


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
    accepts and runs the construction checks on it: finite entries,
    Hermiticity, the full commutator table and a scalar quadratic invariant.
    It raises if one fails; :func:`casimir` returns the invariant they found.

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
        given to the constructor.  The defining representation is the
        one-boson sector ``"symmetric(n, 1)"``.
    fock : FockBasis or None
        Occupation basis for collective representations, None otherwise.
    """

    def __init__(self, basis: GeneratorBasis, stack, label: str = "", fock: FockBasis | None = None):
        stack = sparse.csr_array(stack, dtype=complex)
        dim = stack.shape[-1]
        if dim < 1 or stack.shape != (basis.dim * dim, dim):
            raise InvalidElementError(f"expected a ({basis.dim} D, D) stack, got {stack.shape}")
        # every residual test below is False for NaN, so non-finite entries
        # would pass them; reject those before any residual is formed
        if not np.isfinite(stack.data).all():
            raise InvalidElementError(
                f"stack of {label or 'the representation'} has non-finite entries"
            )
        self.basis = basis
        self.stack = stack
        self.label = label
        self.fock = fock
        kernel = _choose_kernel(stack)
        self._casimir = _construction_checks(basis, stack, label, kernel)

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

    The sparse stack is built directly and checked at once: Hermiticity, the
    full commutator table and a scalar quadratic invariant, whose value
    :func:`casimir` then returns.

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
    return Representation(
        basis=basis,
        stack=_collective_stack(basis, fock),
        label=f"symmetric({n}, {particles})",
        fock=fock,
    )


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
    with its own message."""
    if n < 2:
        return
    dim = comb(particles + n - 1, n - 1)
    if dim > cap:
        raise DimensionCapError(
            f"symmetric({n}, {particles}) has dimension {dim} > cap {cap}"
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


def _merge_in_order(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # distinct keys in ascending order and the sum of the values at each, added
    # in the order given, so that no sum depends on the other keys (argsort
    # leaves equal keys in an order that does); sorts keys in place
    order = keys.argsort()
    keys = np.take(keys, order, out=keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    at = first.cumsum()
    at -= 1
    group = np.empty_like(at)
    group[order] = at
    del order, at
    keys = keys[first]
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(group, weights=values.real, minlength=keys.size)
    sums.imag = np.bincount(group, weights=values.imag, minlength=keys.size)
    return keys, sums


def _runs(cost: np.ndarray):
    # consecutive runs [lo, hi) of units that cost at most CHECK_BUDGET together,
    # or of one unit that costs more alone
    total = np.concatenate(([0], cost.cumsum()))
    lo = 0
    while lo < cost.size:
        hi = max(lo + 1, int(np.searchsorted(total, total[lo] + CHECK_BUDGET, side="right")) - 1)
        yield lo, hi
        lo = hi


def _entries(stack: sparse.csr_array):
    # (generator, row, column, value) of every stored entry, in storage order
    dim = stack.shape[1]
    indptr = stack.indptr
    block, row = divmod(np.arange(stack.shape[0]).repeat(indptr[1:] - indptr[:-1]), dim)
    return block, row, stack.indices.astype(np.int64), stack.data


def _check_hermitian(stack: sparse.csr_array, scale: float) -> None:
    # each block merged with its conjugate transpose sums to X_a - X_a^dagger;
    # both terms of a key lie in one block, so blocks are merged in runs of
    # about CHECK_BUDGET terms
    dim = stack.shape[1]
    indptr = stack.indptr
    herm = 0.0
    for lo, hi in _runs(2 * np.diff(indptr[::dim])):
        first, last = indptr[lo * dim], indptr[hi * dim]
        # stack row a D + r, row r and column c of each entry of the run; the
        # entry's key is (a D + r) D + c, its transpose's (a D + c) D + r
        row = np.arange(lo * dim, hi * dim).repeat(np.diff(indptr[lo * dim : hi * dim + 1]))
        r = row % dim
        col = stack.indices[first:last].astype(np.int64)
        val = stack.data[first:last]
        _, sums = _merge_in_order(
            np.concatenate([row * dim + col, (row - r + col) * dim + r]),
            np.concatenate([val, -val.conj()]),
        )
        herm = max(herm, np.abs(sums).max(initial=0.0))
    if herm > HERMITIAN_RTOL * scale:
        raise InvalidElementError(f"representation not Hermitian: deviation {herm:.3e}")


def _merged_residuals(stack: sparse.csr_array, constants: StructureConstants):
    """Commutator and invariant residuals from the grouped Gram terms.

    The terms of the Gram product F F^dagger, whose (j, k) block is X_j X_k
    for a Hermitian stack, and those of -i f_jkl X_l are summed by key: the
    invariant in one range of keys, the commutators in the next.  A term of
    the ((j, r), (k, c)) entry is F[(j, r), m] conj(F[(k, c), m]) for a shared
    column m.  All terms of an entry share the state row r, so they are formed
    and summed over runs of rows of about ``CHECK_BUDGET`` terms.  Each key's
    terms are added in the order they are formed, so no sum depends on the
    runs.  Returns the worst commutator deviation, its pair (j, k), and the
    row, column and value of each stored entry of the invariant.
    """
    dim = stack.shape[1]
    width = stack.shape[0]
    d = width // dim
    comm0 = dim * dim
    block, row, col, val = _entries(stack)
    tj, tk, tl, f = constants.upper
    # per stack: the entries of each column in storage order, those of each
    # row r in (r, generator, column) order, and the constants of each l
    load = np.bincount(col, minlength=dim)
    col_start = load.cumsum() - load
    by_col = col.argsort(kind="stable")
    by_row = row.argsort(kind="stable")
    row_start = np.concatenate(([0], np.bincount(row, minlength=dim).cumsum()))
    per_l = np.bincount(tl, minlength=d)
    l_start = per_l.cumsum() - per_l
    by_l = tl.argsort(kind="stable")
    lead = per_l.nonzero()[0] * dim  # first stack row of each X_l with constants
    # row r has a Gram term per entry (j, r, m) per entry of column m, and a
    # constant term per entry (l, r, c) per constant of l
    cost = np.bincount(row, weights=load[col] + per_l[block], minlength=dim)

    def terms(r0, r1):
        # keys and values of the Gram terms, then the constant terms, of the
        # rows r0 to r1 - 1, built in place
        left = by_row[row_start[r0] : row_start[r1]]
        per = load[col[left]]
        right = by_col[_ranges(col_start[col[left]], per)]
        left = left.repeat(per)
        gram = left.size
        keys = np.empty(int(cost[r0:r1].sum()), dtype=np.int64)
        values = np.empty(keys.size, dtype=complex)
        v = np.take(val, left, out=values[:gram])
        conj = val[right]
        v *= np.conjugate(conj, out=conj)
        del conj
        j, k = block[left], block[right]
        np.negative(v, out=v, where=j > k)  # [X_j, X_k] = X_j X_k - X_k X_j
        same = (j == k).nonzero()[0]
        # past comm0, (min(j, k) D + r) width + max(j, k) D + c
        key = np.minimum(j, k, out=keys[:gram])
        key *= dim
        key += row[left]
        key *= width
        hi = np.maximum(j, k, out=j)
        hi *= dim
        hi += row[right]
        key += hi
        key += comm0
        key[same] = row[left[same]] * dim + row[right[same]]  # the invariant's r D + c
        # the constant terms, -i f_jkl X_l[r, c] at the same keys
        first = stack.indptr[lead + r0]
        entry = _ranges(first, stack.indptr[lead + r1] - first)
        per = per_l[block[entry]]
        term = by_l[_ranges(l_start[block[entry]], per)]
        entry = entry.repeat(per)
        key = np.take(tj, term, out=keys[gram:])
        key *= dim
        key += row[entry]
        key *= width
        hi = tk[term]
        hi *= dim
        hi += col[entry]
        key += hi
        key += comm0
        v = values[gram:]
        v[:] = f[term]
        v *= val[entry]
        v *= -1j
        return keys, values

    comm, pair, worst = 0.0, None, None
    invariant = []
    for r0, r1 in _runs(cost):
        keys, sums = _merge_in_order(*terms(r0, r1))
        comm_at = np.searchsorted(keys, comm0)
        if comm_at < keys.size:
            resid = np.abs(sums[comm_at:])
            at = resid.argmax()
            key = keys[comm_at + at]
            # the first maximum in key order over all runs
            if pair is None or resid[at] > comm or (resid[at] == comm and key < worst):
                worst = int(key)
                comm, pair = resid[at], ((worst - comm0) // width // dim, (worst - comm0) % width // dim)
        invariant.append((keys[:comm_at].copy(), sums[:comm_at].copy()))  # not views of the run
    keys, sums = (np.concatenate(part) for part in zip(*invariant))
    return comm, pair, *divmod(keys, dim), sums


def _product_matrices(stack: sparse.csr_array, constants: StructureConstants, pj, pk):
    """The matrix Z of :func:`_product_residuals` in CSR form, a run of rows at a time.

    Each row of Z is a run of segments; a segment copies a run of source
    entries and shifts their columns.  The sources are the stack's own
    arrays, their negative and the -i f_jkl: each row (p, r) takes three
    segments, each invariant row d.  Yields (lo, pairs, z): z holds the rows
    of the pairs lo to lo + pairs - 1 and, in the last run, the invariant
    rows after them.  A run takes about ``CHECK_BUDGET`` entries of Z, and Z
    is one run when it fits.  Indices are in the stack's integer type.  The
    pairs j < k are (pj, pk), in (j, k) order.
    """
    dim = stack.shape[1]
    d = stack.shape[0] // dim
    nnz = stack.nnz
    tj, tk, tl, f = constants.upper
    npair = pj.size
    idx = stack.indices.dtype
    data = np.concatenate([stack.data, -stack.data, -1j * f])
    cols = np.concatenate([stack.indices, stack.indices, tl * dim], dtype=idx)
    # constants per pair; upper is sorted in the same (j, k) order
    per_pair = np.bincount(tj * (2 * d - tj - 1) // 2 + tk - tj - 1, minlength=npair)
    per_first = per_pair.cumsum() - per_pair + 2 * nnz
    count = (stack.indptr[1:] - stack.indptr[:-1]).reshape(d, dim)
    start = stack.indptr[:-1].reshape(d, dim)
    # a pair's rows hold its two generators' entries and D copies of its
    # constants, the invariant rows nnz entries
    size = count.sum(axis=1)
    for lo, hi in _runs(np.concatenate([size[pj] + size[pk] + per_pair * dim, [nnz]])):
        j, k = pj[lo:hi], pk[lo:hi]
        ncomm = 3 * j.size * dim
        seg = np.empty((3, ncomm + d * dim * (hi > npair)), dtype=idx)  # length, source start, shift
        length, first, shift = seg[:, :ncomm].reshape(3, j.size, dim, 3).transpose(0, 3, 1, 2)
        length[0], length[1], length[2] = count[j], count[k], per_pair[lo:hi, None]
        first[0], first[1] = start[j], start[k] + nnz
        first[2] = per_first[lo:hi, None]
        shift[0], shift[1], shift[2] = k[:, None] * dim, j[:, None] * dim, np.arange(dim)
        if hi > npair:
            invariant = seg[:, ncomm:].reshape(3, dim, d)
            invariant[0], invariant[1], invariant[2] = count.T, start.T, np.arange(0, d * dim, dim)
        length, first, shift = seg
        bounds = np.zeros(length.size + 1, dtype=idx)
        length.cumsum(dtype=idx, out=bounds[1:])
        # as _ranges; intp, since numpy converts any other index array
        source = (first - bounds[:-1]).repeat(length) + np.arange(bounds[-1])
        yield lo, j.size, sparse.csr_array(
            (
                data[source],
                cols[source] + shift.repeat(length),
                np.concatenate([bounds[:ncomm:3], bounds[ncomm::d]]),
            ),
            shape=((j.size + (hi > npair)) * dim, d * dim),
        )


def _product_residuals(stack: sparse.csr_array, constants: StructureConstants):
    """Commutator and invariant residuals from sparse products Z F.

    Row (p, r) of Z, for the p-th pair j < k, holds X_j[r, :] in column block
    k, -X_k[r, :] in block j and -i f_jkl at column (l, r), so row (p, r) of
    Z F is row r of [X_j, X_k] - i f_jkl X_l.  D more rows hold X_a[r, :] in
    block a; their product is row r of sum_a X_a X_a.  Z is multiplied a run
    of rows at a time (see :func:`_product_matrices`), each row as it would
    be in one product.  Returns what :func:`_merged_residuals` returns.
    """
    dim = stack.shape[1]
    pj, pk = np.triu_indices(stack.shape[0] // dim, 1)
    comm, pair = 0.0, None
    for lo, pairs, z in _product_matrices(stack, constants, pj, pk):
        prod = z @ stack
        split = prod.indptr[pairs * dim]
        if split:
            resid = np.abs(prod.data[:split])
            at = resid.argmax()
            if pair is None or resid[at] > comm:  # the first maximum over all runs
                p = lo + (np.searchsorted(prod.indptr, at, side="right") - 1) // dim
                comm, pair = resid[at], (int(pj[p]), int(pk[p]))
    inv_row = np.arange(dim).repeat(np.diff(prod.indptr[pairs * dim :]))
    return comm, pair, inv_row, prod.indices[split:], prod.data[split:]


def _choose_kernel(stack: sparse.csr_array):
    # the merge sorts sum_m L_m**2 Gram terms, L_m the entries in column m;
    # Z holds about (d - 1) nnz entries, and the product reads a row of the
    # stack for each.  Where generators couple densely the terms are more.
    d = stack.shape[0] // stack.shape[1]
    load = np.bincount(stack.indices, minlength=stack.shape[1])
    return _product_residuals if load @ load >= (d - 1) * stack.nnz else _merged_residuals


def _construction_checks(
    basis: GeneratorBasis, stack: sparse.csr_array, label: str, kernel
) -> float:
    """Check a representation's stack; return its Casimir.

    1. Every X_a^(R) is Hermitian within ``HERMITIAN_RTOL`` relative to the
       largest entry (or 1).
    2. Every pair j < k satisfies [X_j, X_k] = i f_jkl X_l within
       ``COMMUTATOR_RTOL`` relative to the same scale.
    3. sum_a X_a^(R)**2 is scalar within ``CASIMIR_RTOL`` (else
       :class:`NotIrreducibleError`).

    Check 1 merges the stack with its blockwise conjugate transpose, a run
    of generators of about ``CHECK_BUDGET`` terms at a time.
    ``kernel`` computes the residuals of checks 2 and 3:
    :func:`_product_residuals` (sparse products Z F) or
    :func:`_merged_residuals` (grouped Gram terms), as :func:`_choose_kernel`
    picks from the stack's column loads.  Both run over their output rows in
    runs of about ``CHECK_BUDGET`` terms; the residuals, the worst pair and
    the invariant do not depend on the runs.
    """
    scale = max(1.0, np.abs(stack.data).max(initial=0.0))
    _check_hermitian(stack, scale)
    comm, pair, row, col, val = kernel(stack, structure_constants(basis))
    if comm > COMMUTATOR_RTOL * scale:
        raise InvalidElementError(f"commutator {pair} deviates by {comm:.3e} in {label}")
    dim = stack.shape[1]
    on_diag = row == col
    diag = np.zeros(dim, dtype=complex)
    diag[row[on_diag]] = val[on_diag]
    c = float(diag.real.sum()) / dim
    dev = max(np.abs(val[~on_diag]).max(initial=0.0), np.abs(diag - c).max())
    if dev > CASIMIR_RTOL * max(1.0, abs(c)):
        raise NotIrreducibleError(
            f"quadratic invariant of {label} deviates from scalar by {dev:.3e}"
        )
    return c


def casimir(rep: Representation) -> float:
    """Scalar value of the quadratic invariant sum_a (X_a^(R))**2.

    It is trace / D of the invariant that the construction checks read from
    the Gram product of the stack; a representation whose invariant is not
    scalar within a 1e-8 relative tolerance (reducible or corrupted) raises
    :class:`NotIrreducibleError` when it is built.
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
