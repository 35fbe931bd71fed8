"""Block-rotation torus representations acting on image vectors.

The transform family is ``x -> B @ R(s) @ B.T @ x`` where ``B`` has
orthonormal columns and ``R(s)`` is block diagonal with 2x2 rotation
blocks, block ``l`` spinning at integer rate ``dot(omega_l, s)``. The
frequency table fixes the rates; the basis is learned elsewhere. ``R``
is always applied blockwise, never materialized as a dense matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

ORTHONORMALITY_TOL = 1e-8


def wrap_angles(s: np.ndarray) -> np.ndarray:
    """Reduce angle components to the canonical interval [0, 2*pi)."""
    return np.mod(np.asarray(s, dtype=float), TWO_PI)


def _is_canonical(vec) -> bool:
    # Canonical sign: first nonzero component positive; zero vector passes.
    for x in vec:
        if x != 0:
            return x > 0
    return True


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
        self.entries = np.ascontiguousarray(self.entries, dtype=np.int64)
        if self.entries.ndim != 2 or self.entries.shape[1] != self.n:
            raise ValueError(
                f"frequency entries must be (L, {self.n}), got {self.entries.shape}"
            )

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
    for row in ent:
        if not _is_canonical(row):
            raise ValueError(f"entry {row.tolist()} violates canonical sign")
    keys = [(int(row @ row), tuple(row.tolist())) for row in ent]
    if keys != sorted(keys):
        raise ValueError("entries not sorted by (norm, lexicographic)")
    counts: dict = {}
    for _, tup in keys:
        counts[tup] = counts.get(tup, 0) + 1
        if counts[tup] > freq.multiplicity:
            raise ValueError(f"entry {tup} repeated more than m={freq.multiplicity}")


def build_frequency_table(
    n: int, L: int, m: int, max_norm: int, include_zero: bool = True
) -> FrequencyTable:
    """Enumerate, sort, and truncate the block rate vectors.

    All integer vectors with sup norm <= max_norm are listed in canonical
    sign, sorted by (Euclidean norm, lexicographic order), repeated m
    times each, and cut to exactly L entries. Raises if max_norm yields
    fewer than ceil(L / m) canonical vectors, naming a bound that would.
    """
    if n < 1 or L < 1 or m < 1:
        raise ValueError("n, L, m must all be >= 1")
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
    cands = []
    for vec in itertools.product(range(-max_norm, max_norm + 1), repeat=n):
        if not any(vec):
            if include_zero:
                cands.append(vec)
            continue
        if _is_canonical(vec):
            cands.append(vec)
    cands.sort(key=lambda v: (sum(x * x for x in v), v))
    repeated = [v for v in cands for _ in range(m)]
    return FrequencyTable(n=n, entries=np.array(repeated[:L], dtype=np.int64), multiplicity=m)


def frequency_table_auto(
    n: int, L: int, m: int, include_zero: bool = True
) -> FrequencyTable:
    """Build a table with the smallest power-of-two sup-norm bound that fits."""
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


@dataclass(eq=False)
class TorusOperator:
    """A learned group action: orthonormal basis plus frequency table."""

    basis: np.ndarray  # (D, 2L), orthonormal columns
    freq: FrequencyTable

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        d, width = self.basis.shape
        if width != 2 * self.freq.L:
            raise ValueError(f"basis width {width} != 2L = {2 * self.freq.L}")
        if d % 2 != 0:
            raise ValueError("ambient dimension D must be even")
        if width > d:
            raise ValueError("2L must not exceed D")
        # A huge finite basis overflows the Gram matrix to inf or NaN; the
        # check below rejects both by name, so numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.basis.T @ self.basis
            err = np.abs(gram - np.eye(width)).max()
        if not err <= ORTHONORMALITY_TOL:  # NaN entries fail too
            raise ValueError(f"basis columns not orthonormal (max error {err:.3e})")

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
