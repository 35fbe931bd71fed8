"""Block-rotation torus representations acting on image vectors.

The transform family is ``x -> B @ R(s) @ B.T @ x`` where ``B`` has
orthonormal columns and ``R(s)`` is block diagonal with 2x2 rotation
blocks, block ``l`` spinning at integer rate ``dot(omega_l, s)``. The
frequency table fixes the rates; the basis is learned elsewhere. ``R``
is always applied blockwise, never materialized as a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stiefel import orthonormality_error

TWO_PI = 2.0 * math.pi

ORTHONORMALITY_TOL = 1e-8
# Most candidate vectors a table build enumerates (n = 12 at max_norm = 1).
LATTICE_POINT_LIMIT = 2**20


def wrap_angles(s: np.ndarray) -> np.ndarray:
    """Reduce angle components to the canonical interval [0, 2*pi)."""
    return np.mod(np.asarray(s, dtype=float), TWO_PI)


def grid_lattice(n: int, N: int) -> np.ndarray:
    """Integer lattice of all grid multi-indices, C-order flattened, shape (N**n, n)."""
    return np.indices((N,) * n).reshape(n, -1).T


def _leading(ent: np.ndarray) -> np.ndarray:
    """First nonzero component of each row (0 for a zero row): canonical sign is its sign."""
    return ent[np.arange(ent.shape[0]), (ent != 0).argmax(axis=1)]


def _norm_lex_order(ent: np.ndarray) -> np.ndarray:
    """Stable order of the rows by (int64 squared norm, lexicographic): arange(L) if sorted."""
    return np.lexsort((*ent.T[::-1], np.einsum("ij,ij->i", ent, ent)))


def canonical_count(n: int, max_norm: int, include_zero: bool = True) -> int:
    """Number of canonical-sign integer vectors with sup norm <= max_norm."""
    total = (2 * max_norm + 1) ** n
    return (total - 1) // 2 + (1 if include_zero else 0)


@dataclass(eq=False)
class FrequencyTable:
    """Ordered integer rate vectors, one per 2x2 rotation block.

    Entries are sorted by ascending Euclidean norm (ties broken
    lexicographically), use canonical sign (first nonzero component
    positive, so a vector and its negation never both appear), and each
    distinct vector occurs at most ``multiplicity`` times.
    """

    n: int
    entries: np.ndarray  # (L, n) integer
    multiplicity: int

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[1] != self.n:
            raise ValueError(
                f"frequency entries must be (L, {self.n}), got {entries.shape}"
            )
        # The cast to int64 would truncate 0.5 to 0, fail on NaN, wrap the
        # unsigned 2^63 to -2^63 and overflow on the float 1e19. Signed
        # integers (the int32 table a load reads) need no check.
        checks = []
        if entries.dtype.kind == "f":
            checks = [(np.isfinite(entries) & (entries == np.trunc(entries)),
                       "entries must be finite integers"),
                      ((entries >= -(2.0**63)) & (entries < 2.0**63), "entries must fit int64")]
        elif entries.dtype.kind == "u":
            checks = [(entries <= np.uint64(2**63 - 1), "entries must fit int64")]
        for ok, rule in checks:
            bad = np.argwhere(~ok)
            if bad.size:
                row, col = bad[0].tolist()
                raise ValueError(f"frequency entry [{row}, {col}] is {entries[row, col]}; "
                                 f"{rule}")
        self.entries = np.ascontiguousarray(entries, dtype=np.int64)

    @property
    def L(self) -> int:
        return self.entries.shape[0]

    def cache_key(self):
        return (self.n, self.entries.tobytes())


def validate_frequency_table(freq: FrequencyTable) -> None:
    """Raise ValueError unless the table satisfies all structural rules."""
    ent = freq.entries
    if freq.n < 1:
        raise ValueError(f"torus dimension n is {freq.n}; must be >= 1")
    if ent.shape != (freq.L, freq.n):
        raise ValueError("frequency table shape mismatch")
    if freq.multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    negative = _leading(ent) < 0
    if negative.any():
        raise ValueError(f"entry {ent[negative.argmax()].tolist()} violates canonical sign")
    if (_norm_lex_order(ent) != np.arange(freq.L)).any():
        raise ValueError("entries not sorted by (norm, lexicographic)")
    # Sorted, so m + 1 copies of a vector sit in a run: row i repeats one
    # too many when it equals row i - m.
    m = freq.multiplicity
    over = (ent[m:] == ent[: max(freq.L - m, 0)]).all(axis=1)
    if over.any():
        tup = tuple(ent[m + over.argmax()].tolist())
        raise ValueError(f"entry {tup} repeated more than m={m}")


def _check_sizes(n: int, L: int, m: int) -> None:
    if n < 1 or L < 1 or m < 1:
        raise ValueError("n, L, m must all be >= 1")


def build_frequency_table(
    n: int, L: int, m: int, max_norm: int, include_zero: bool = True
) -> FrequencyTable:
    """Enumerate, sort, and truncate the block rate vectors.

    Row i of the table is vector i // m of the canonical vectors in the
    lattice [-max_norm, max_norm]^n, sorted by (Euclidean norm,
    lexicographic order). Raises if max_norm yields fewer than ceil(L / m)
    canonical vectors, naming a bound that would, or if the lattice has
    more than LATTICE_POINT_LIMIT points.
    """
    _check_sizes(n, L, m)
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    needed = -(-L // m)
    if canonical_count(n, max_norm, include_zero) < needed:
        bound = max_norm + 1
        while canonical_count(n, bound, include_zero) < needed:
            bound += 1
        raise ValueError(
            f"max_norm={max_norm} yields too few canonical vectors for "
            f"L={L}, m={m}; max_norm >= {bound} required"
        )
    if (2 * max_norm + 1) ** n > LATTICE_POINT_LIMIT:
        raise ValueError(f"n={n}, max_norm={max_norm}: lattice of {(2 * max_norm + 1) ** n} "
                         f"vectors exceeds LATTICE_POINT_LIMIT={LATTICE_POINT_LIMIT}")
    lattice = grid_lattice(n, 2 * max_norm + 1)
    lattice -= max_norm
    leading = _leading(lattice)
    cands = lattice[(leading > 0) | ((leading == 0) & include_zero)]
    rows = _norm_lex_order(cands)[np.arange(L) // m]
    return FrequencyTable(n=n, entries=cands[rows], multiplicity=m)


def frequency_table_auto(
    n: int, L: int, m: int, include_zero: bool = True
) -> FrequencyTable:
    """Build a table with the smallest power-of-two sup-norm bound that fits."""
    _check_sizes(n, L, m)
    needed = -(-L // m)
    bound = 1
    while canonical_count(n, bound, include_zero) < needed:
        bound *= 2
    return build_frequency_table(n, L, m, bound, include_zero)


def rotate_pairs(
    cos_t: np.ndarray, sin_t: np.ndarray, pairs: np.ndarray, adjoint: bool = False
) -> np.ndarray:
    """Apply per-block 2x2 rotations to interleaved coefficient pairs.

    ``cos_t``/``sin_t`` have shape (..., L) and ``pairs`` (..., 2L); with
    ``adjoint`` the transposed blocks are applied. Also used with first
    posterior moments in place of exact cosines, where the blocks are
    contractions rather than rotations.
    """
    a = pairs[..., 0::2]
    b = pairs[..., 1::2]
    out = np.empty_like(pairs)
    if adjoint:
        out[..., 0::2] = cos_t * a + sin_t * b
        out[..., 1::2] = cos_t * b - sin_t * a
    else:
        out[..., 0::2] = cos_t * a - sin_t * b
        out[..., 1::2] = sin_t * a + cos_t * b
    return out


def rotate_coeffs(freq: FrequencyTable, s, y: np.ndarray) -> np.ndarray:
    """Rotate an interleaved coefficient vector by the block angles omega_l . s."""
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.shape[0] != freq.n:
        raise ValueError(f"expected {freq.n} angles, got {s.shape[0]}")
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != 2 * freq.L:
        raise ValueError(f"coefficient vector must have length {2 * freq.L}")
    theta = freq.entries @ s
    return rotate_pairs(np.cos(theta), np.sin(theta), y)


def check_basis_shape(basis: np.ndarray, L: int) -> None:
    """Raise ValueError unless ``basis`` is (D, 2L) with D even and 2L <= D."""
    d, width = basis.shape
    if width != 2 * L:
        raise ValueError(f"basis width {width} != 2L = {2 * L}")
    if d % 2 != 0:
        raise ValueError("ambient dimension D must be even")
    if width > d:
        raise ValueError("2L must not exceed D")


def check_orthonormal(basis: np.ndarray) -> None:
    """Raise ValueError unless max |B^T B - I| <= ORTHONORMALITY_TOL."""
    err = orthonormality_error(basis)
    if not err <= ORTHONORMALITY_TOL:  # NaN entries fail too
        raise ValueError(f"basis columns not orthonormal (max error {err:.3e})")


@dataclass(eq=False)
class TorusOperator:
    """A learned group action: orthonormal basis plus frequency table."""

    basis: np.ndarray  # (D, 2L), orthonormal columns
    freq: FrequencyTable

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        check_basis_shape(self.basis, self.freq.L)
        check_orthonormal(self.basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def apply_transform(op: TorusOperator, s, x: np.ndarray) -> np.ndarray:
    """Transform an image vector: project, rotate blockwise, lift back.

    Norm never increases; it is preserved exactly when x lies in the
    column span of the basis.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != op.dim:
        raise ValueError(f"expected vectors of length {op.dim}, got {x.shape[-1]}")
    return rotate_coeffs(op.freq, s, x @ op.basis) @ op.basis.T
