"""Optimizer primitives for the orthonormal-basis constraint.

The basis lives on the Stiefel manifold. Ambient gradients are projected
to the tangent space, moments follow the usual Adam recursions, steps are
retracted with the positive-diagonal QR factorization, computed by
CholeskyQR, and the first moment is carried to the new tangent space by
projection. The dictionary has the much weaker unit-column constraint
and gets plain projected gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lanes import Lanes, run, split

QR_ORTHONORMALITY_TOL = 1e-12
# Largest triangle _invert_lower hands to np.linalg.inv whole.
TRI_INV_LEAF = 32
# Adam's moment decay rates and the denominator's guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def tangent_project(point: np.ndarray, grad: np.ndarray,
                    lanes: Optional[Lanes] = None) -> np.ndarray:
    """Project an ambient gradient onto the tangent space at a Stiefel point.

    With ``lanes``, B^T G is formed in blocks of its rows and
    B (B^T G + G^T B) / 2 in blocks of rows, run on the lanes."""
    if grad.shape != point.shape:
        raise ValueError(f"gradient shape {grad.shape} != point shape {point.shape}")
    return _tangent_project_into(point, grad, np.empty(grad.shape), lanes)


def _tangent_project_into(point, grad, out, lanes):
    """``tangent_project`` written into ``out``, which overlaps neither
    ``point`` nor ``grad``; returns ``out``."""
    width = point.shape[1]
    inner = np.empty((width, width))
    run(lanes, lambda c: np.matmul(point[:, c].T, grad, out=inner[c]),
        split(width, lanes))
    inner += inner.T
    inner *= 0.5

    def rows(r):
        np.matmul(point[r], inner, out=out[r])
        np.subtract(grad[r], out[r], out=out[r])

    run(lanes, rows, split(point.shape[0], lanes))
    return out


def _identity_error(gram: np.ndarray) -> float:
    """max |G - I|, formed in place in ``gram``."""
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram, out=gram).max())


def orthonormality_error(q: np.ndarray) -> float:
    """max |Q^T Q - I|, formed in place in the Gram matrix. NaN when Q
    holds NaN; a huge finite Q overflows to inf or NaN without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _identity_error(q.T @ q)


def _split_gram(a: np.ndarray, lanes: Lanes) -> np.ndarray:
    """A^T A in a fixed 2 x 2 form over the two column halves of A: one
    block forms the two diagonal Gram blocks, the other the off-diagonal
    block and its mirror, so the bytes are the same at every thread count.
    A huge finite A overflows to inf or NaN without a warning."""
    width = a.shape[1]
    h = (width + 1) // 2
    left, right = a[:, :h], a[:, h:]
    gram = np.empty((width, width))

    def block(diagonal):
        with np.errstate(over="ignore", invalid="ignore"):
            if diagonal:
                np.matmul(left.T, left, out=gram[:h, :h])
                np.matmul(right.T, right, out=gram[h:, h:])
            else:
                np.matmul(left.T, right, out=gram[:h, h:])
                np.copyto(gram[h:, :h], gram[:h, h:].T)

    lanes.map(block, (True, False))
    return gram


def _invert_lower(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix.

    Blocked recursion: [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]], halving down to leaves of TRI_INV_LEAF rows or fewer, which
    np.linalg.inv inverts. Every product is then a GEMM, where LAPACK's
    general inverse spends its time in a pivoted LU.
    """
    n = low.shape[0]
    if n <= TRI_INV_LEAF:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    out = np.zeros_like(low)
    out[:h, :h] = _invert_lower(low[:h, :h])
    out[h:, h:] = _invert_lower(low[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (low[h:, :h] @ out[:h, :h]))
    return out


def positive_qr(y: np.ndarray, lanes: Optional[Lanes] = None):
    """Q factor and R diagonal of the QR factorization of ``y`` whose R
    diagonal is positive.

    That factorization is unique, so CholeskyQR, Q = Y chol(Y^T Y)^-T,
    gives the same Q as Householder QR at a fraction of the cost; the
    Cholesky factor is inverted by ``_invert_lower``. When the Cholesky
    factorization fails or Q misses orthonormality by more than
    QR_ORTHONORMALITY_TOL (Y too ill-conditioned), Householder QR with the
    diagonal signs fixed is used instead (Fukaya et al. 2014, CholeskyQR2).
    With ``lanes``, Y^T Y and the Q^T Q check take ``_split_gram``'s form
    and Y chol^-T is formed in blocks of rows, run on the lanes; the
    Cholesky factor and its inverse stay on the calling thread. Q is a
    new array; the Riemannian Adam step writes it into a buffer of its own.
    """
    return _positive_qr_into(y, np.empty(y.shape), lanes)


def _positive_qr_into(y, q, lanes):
    """``positive_qr`` with Q written into ``q``, which must not overlap
    ``y``: the Householder fallback reads ``y`` after CholeskyQR has
    written its rejected Q."""
    try:
        chol = np.linalg.cholesky(y.T @ y if lanes is None else _split_gram(y, lanes))
        inverse_t = _invert_lower(chol).T
        run(lanes, lambda r: np.matmul(y[r], inverse_t, out=q[r]),
            split(y.shape[0], lanes))
        if lanes is None:
            error = orthonormality_error(q)
        else:
            error = _identity_error(_split_gram(q, lanes))
        if error <= QR_ORTHONORMALITY_TOL:
            return q, np.diag(chol)
    except np.linalg.LinAlgError:
        pass
    householder, r = np.linalg.qr(y)
    diag = np.diag(r)
    np.multiply(householder, np.sign(diag), out=q)
    return q, np.abs(diag)


def retract(point: np.ndarray, step: np.ndarray,
            lanes: Optional[Lanes] = None) -> np.ndarray:
    """QR retraction of point + step, with the R diagonal forced positive.

    A NaN or infinity in ``point`` or ``step`` raises FloatingPointError,
    and an R diagonal below 1e-12 of max|point| + max|step| (at least 1)
    raises LinAlgError. With ``lanes``, point + step and those maxima are
    formed in blocks of rows, run on the lanes, as is ``positive_qr``.
    """
    if step.shape != point.shape:
        raise ValueError(f"step shape {step.shape} != point shape {point.shape}")
    y = np.empty(point.shape)
    bounds = run(lanes, lambda r: _retraction_input(point, step, y, r),
                 split(point.shape[0], lanes))
    return _retract_into(y, bounds, np.empty(point.shape), lanes)


def _retraction_input(point, step, y, rows):
    """Y = point + step on ``rows``, written into ``y``; returns the rows'
    (max point, -min point, max step, -min step)."""
    p, s = point[rows], step[rows]
    np.add(p, s, out=y[rows])
    return p.max(), -p.min(), s.max(), -s.min()


def _retract_into(y, bounds, q, lanes):
    """The retraction of Y = point + step, with Q written into ``q``.

    ``bounds`` holds the ``_retraction_input`` result of every row block
    of Y; they give the rank scale max|point| + max|step| with no pass
    over the arrays. A non-finite scale (a NaN or infinity in either)
    raises before the QR, since NaN would make the rank check never fire.
    """
    bound = np.max(bounds, axis=0)  # np.max keeps a NaN; Python's max can drop it
    scale = bound[:2].max() + bound[2:].max()
    if not np.isfinite(scale):
        raise FloatingPointError("non-finite retraction input")
    diag = _positive_qr_into(y, q, lanes)[1]
    if np.any(diag < 1e-12 * max(scale, 1.0)):
        raise np.linalg.LinAlgError("rank-deficient retraction input")
    return q


@dataclass(eq=False)
class StiefelAdamState:
    """Adam moments for the basis; buffers match the basis shape."""

    m1: np.ndarray
    m2: np.ndarray
    lr: float
    step_count: int = 0

    @classmethod
    def init(cls, shape, lr: float) -> "StiefelAdamState":
        return cls(m1=np.zeros(shape), m2=np.zeros(shape), lr=lr)


def riemannian_adam_step(
    state: StiefelAdamState, point: np.ndarray, grad: np.ndarray,
    lanes: Optional[Lanes] = None,
):
    """One ascent step on the manifold; returns (new state, new point).

    Only the tangent part of ``grad`` is used, so ``grad`` may be any
    gradient with the right tangent part: adding B S for a symmetric S
    changes nothing. The gradient is projected, bias-corrected Adam
    moments produce the step, the step is retracted, and the first moment
    is re-projected at the new point so stale normal components never
    accumulate. The moment arithmetic runs in the order of the textbook
    formulas. A non-finite gradient raises FloatingPointError, as does a
    non-finite retraction input (a NaN or infinity in the point or in the
    moments of ``state``); a rank-deficient one raises LinAlgError.

    The step allocates four arrays of the point's shape, and each stage
    writes into one of them: T holds the projected gradient, then the Adam
    denominator, then the retraction input Y = point + step, then the
    transported first moment (the new ``m1``); S holds the step, then Q
    (the new point); two more hold the new first moment before transport
    and the new second moment. The input point, gradient and state are not
    modified. With ``lanes``, the projections, the moments with Y and its
    rank scale, and the retraction run in blocks on the lanes; the blocks,
    and so the bits, do not depend on the number of lanes.
    """
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite basis gradient")
    tangent, step, m1, m2 = (np.empty(point.shape) for _ in range(4))
    _tangent_project_into(point, grad, tangent, lanes)
    count = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2

    def moments(r):
        """Every elementwise op of the step on rows ``r``, then those rows
        of Y, written over the denominator, and their bounds."""
        np.multiply(tangent[r], 1.0 - b1, out=step[r])
        np.multiply(state.m1[r], b1, out=m1[r])
        m1[r] += step[r]
        np.multiply(tangent[r], 1.0 - b2, out=step[r])
        step[r] *= tangent[r]
        np.multiply(state.m2[r], b2, out=m2[r])
        m2[r] += step[r]
        # step = lr * m1_hat / (sqrt(m2_hat) + eps), the hats bias-corrected
        np.divide(m1[r], 1.0 - b1**count, out=step[r])
        step[r] *= state.lr
        denom = np.divide(m2[r], 1.0 - b2**count, out=tangent[r])
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step[r] /= denom
        return _retraction_input(point, step, tangent, r)

    bounds = run(lanes, moments, split(point.shape[0], lanes))
    new_point = point
    if np.any(np.array(bounds)[:, 2:]):  # the step has a nonzero or NaN entry
        new_point = _retract_into(tangent, bounds, step, lanes)
    # Y is free only now: the Householder fallback reads it
    new_state = StiefelAdamState(
        m1=_tangent_project_into(new_point, m1, tangent, lanes),
        m2=m2,
        lr=state.lr,
        step_count=count,
    )
    return new_state, new_point


def phi_update(dictionary: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """Ascent step on the dictionary followed by column renormalization."""
    if grad.shape != dictionary.shape:
        raise ValueError(
            f"gradient shape {grad.shape} != dictionary shape {dictionary.shape}"
        )
    updated = dictionary + lr * grad
    norms = np.linalg.norm(updated, axis=0)
    if np.any(norms < 1e-12):
        bad = int(np.argmin(norms))
        raise ValueError(f"dictionary atom {bad} collapsed to zero norm")
    return updated / norms
