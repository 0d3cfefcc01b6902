"""Dense float64 tensor arithmetic with explicit backward passes.

Every differentiable operation comes as a forward/backward pair written out
by hand (no autograd tape): the training graph is small and fixed, and
explicit derivatives stay auditable against the central-difference oracle
``finite_diff_grad`` below. All arrays are float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

Array = np.ndarray


@dataclass
class ParamTensor:
    """A trainable tensor bundled with its gradient and Adam state.

    value, grad, adam_m and adam_v always share one shape; a freshly created
    parameter has zero grad, zero moments and step_count 0.
    """

    value: Array
    grad: Array
    adam_m: Array
    adam_v: Array
    step_count: int = 0

    @classmethod
    def of(cls, value) -> "ParamTensor":
        value = np.ascontiguousarray(value, dtype=np.float64)
        return cls(
            value=value,
            grad=np.zeros_like(value),
            adam_m=np.zeros_like(value),
            adam_v=np.zeros_like(value),
        )


def _value(x) -> Array:
    return x.value if isinstance(x, ParamTensor) else np.asarray(x, dtype=np.float64)


def init_linear(rng: np.random.Generator, fan_in: int,
                fan_out: int) -> tuple[ParamTensor, ParamTensor]:
    """Glorot-uniform weight and bias for one dense layer, in
    +/- sqrt(6 / (fan_in + fan_out)).

    The bias shares the weight's uniform range; a zero bias would pin the
    pre-activation of masked (all-zero) cells exactly on the relu kink.
    """
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    w = ParamTensor.of(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
    b = ParamTensor.of(rng.uniform(-limit, limit, size=(fan_out,)))
    return w, b


def linear_forward(x, w, b) -> Array:
    """out[n, j] = sum_i x[n, i] * w[i, j] + b[j]."""
    x = np.asarray(x, dtype=np.float64)
    wv, bv = _value(w), _value(b)
    if x.ndim != 2 or wv.ndim != 2 or x.shape[1] != wv.shape[0]:
        raise ShapeError(
            f"linear_forward: input {x.shape} does not conform to weight {wv.shape}")
    if bv.shape != (wv.shape[1],):
        raise ShapeError(
            f"linear_forward: bias {bv.shape} does not conform to weight {wv.shape}")
    return x @ wv + bv


def linear_backward(x, w, upstream_grad) -> tuple[Array, Array, Array]:
    """Gradients of a dense layer given the upstream gradient g.

    Returns (grad_x, grad_w, grad_b) with grad_x = g w^T,
    grad_w[i, j] = sum_n x[n, i] g[n, j] and grad_b[j] = sum_n g[n, j].
    """
    x = np.asarray(x, dtype=np.float64)
    wv = _value(w)
    g = np.asarray(upstream_grad, dtype=np.float64)
    if x.ndim != 2 or wv.ndim != 2 or x.shape[1] != wv.shape[0]:
        raise ShapeError(
            f"linear_backward: input {x.shape} does not conform to weight {wv.shape}")
    if g.shape != (x.shape[0], wv.shape[1]):
        raise ShapeError(
            f"linear_backward: upstream {g.shape} does not conform to "
            f"({x.shape[0]}, {wv.shape[1]})")
    return g @ wv.T, x.T @ g, g.sum(axis=0)


def relu_forward(x) -> Array:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x, upstream_grad) -> Array:
    """g * [x > 0]: upstream where x > 0, zero elsewhere (subgradient 0 at x = 0).

    A product, not a select: where x <= 0 a finite g gives a zero that may
    be -0.0, and an infinite or NaN g gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(upstream_grad, dtype=np.float64)
    if x.shape != g.shape:
        raise ShapeError(f"relu_backward: x {x.shape} vs upstream {g.shape}")
    # a multiply by the 0/1 gate has no data-dependent branch to mispredict
    return g * (x > 0.0)


def sum_in_order(values) -> float:
    """The floats of ``values`` added left to right from 0.0, as a loop adds
    them; the builtin ``sum`` compensates their rounding from Python 3.12."""
    total = 0.0
    for value in np.ravel(values).tolist():
        total += value
    return total


def softmax_cross_entropy(logits, labels) -> tuple[float, Array]:
    """Mean negative log softmax probability of the true class.

    ``logits`` is (N, C), or a (..., N, C) stack of batches that share the N
    ``labels``. Stabilized by per-row max subtraction. Returns the scalar
    loss and its gradient w.r.t. the logits, (softmax - onehot) / N per
    batch. A stack's loss is the sum of its batch means, added left to
    right from 0.0 as a loop over 2-d calls would add them.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim < 2 or labels.shape != (logits.shape[-2],):
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    labels = labels.astype(np.int64)
    n, c = logits.shape[-2:]
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ConfigError(f"softmax_cross_entropy: label outside [0, {c})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    log_probs = shifted - log_z[..., None]
    # contiguous rows, so that each batch's mean sums in the order of a 2-d call
    losses = -np.ascontiguousarray(log_probs[..., np.arange(n), labels]).mean(
        axis=-1)
    loss = sum_in_order(losses)
    # finite logits spanning more than the float range overflow in the shift
    if not math.isfinite(loss):
        raise NumericError("softmax_cross_entropy: the loss must be finite")
    grad = np.exp(log_probs)
    grad[..., np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def adam_step(p: ParamTensor, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update applied in place; clears the gradient."""
    if not np.all(np.isfinite(p.grad)):
        raise NumericError("adam_step: non-finite gradient")
    g = p.grad
    p.step_count += 1
    p.adam_m = beta1 * p.adam_m + (1.0 - beta1) * g
    p.adam_v = beta2 * p.adam_v + (1.0 - beta2) * (g * g)
    m_hat = p.adam_m / (1.0 - beta1 ** p.step_count)
    v_hat = p.adam_v / (1.0 - beta2 ** p.step_count)
    p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + eps)
    p.grad = np.zeros_like(p.value)


def finite_diff_grad(f: Callable[[Array], float], x, h: float = 1e-5) -> Array:
    """Central-difference gradient oracle: (f(x + h e_i) - f(x - h e_i)) / 2h.

    Evaluates f coordinate by coordinate; independent of any analytic
    backward pass and therefore usable to check them all.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x))
        flat[i] = orig - h
        f_minus = float(f(x))
        flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError("finite_diff_grad: non-finite function value")
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric) -> float:
    """Largest absolute difference scaled by the largest magnitude present."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"max_rel_error: {a.shape} vs {b.shape}")
    denom = max(float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)), 1e-8)
    return float(np.max(np.abs(a - b), initial=0.0)) / denom
