import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elasticdrop.errors import NumericError, ShapeError
from elasticdrop.numerics import (ParamTensor, adam_step, finite_diff_grad,
                                  init_linear, linear_backward, linear_forward,
                                  max_rel_error, relu_backward, relu_forward,
                                  softmax_cross_entropy)


class TestLinear:
    def test_identity_weight(self):
        out = linear_forward([[1.0, 2.0]], np.eye(2), np.zeros(2))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        out = linear_forward([[0.0, 0.0]], np.ones((2, 2)), [3.0, 4.0])
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_hand_matrix_multiply(self):
        out = linear_forward([[1.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        assert np.array_equal(out, [[4.0, 6.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
            linear_forward(np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            linear_forward(np.zeros((1, 2)), np.zeros((2, 2)), np.zeros(3))

    def test_accepts_param_tensors(self):
        w = ParamTensor.of(np.eye(2))
        b = ParamTensor.of(np.zeros(2))
        assert np.array_equal(linear_forward([[5.0, 6.0]], w, b), [[5.0, 6.0]])

    def test_backward_zero_upstream(self):
        gx, gw, gb = linear_backward(np.ones((3, 2)), np.ones((2, 4)),
                                     np.zeros((3, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_scalar_chain_rule(self):
        gx, gw, gb = linear_backward([[2.0]], [[3.0]], [[1.0]])
        assert gx == [[3.0]] and gw == [[2.0]] and gb == [1.0]

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, din, dout = rng.integers(1, 8, size=3)
            x = rng.normal(size=(n, din))
            w = rng.normal(size=(din, dout))
            b = rng.normal(size=dout)
            probe = rng.normal(size=(n, dout))

            def loss(x_=x, w_=w, b_=b):
                return float((linear_forward(x_, w_, b_) * probe).sum())

            gx, gw, gb = linear_backward(x, w, probe)
            assert max_rel_error(gx, finite_diff_grad(lambda t: loss(x_=t), x)) < 1e-6
            assert max_rel_error(gw, finite_diff_grad(lambda t: loss(w_=t), w)) < 1e-6
            assert max_rel_error(gb, finite_diff_grad(lambda t: loss(b_=t), b)) < 1e-6

    def test_backward_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear_backward(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((2, 5)))

    @pytest.mark.parametrize("x, w, g, fragment", [
        ((2, 3), (3, 4), (3, 4), "upstream (3, 4) does not conform to (2, 4)"),
        ((2, 3), (2, 4), (2, 4), "input (2, 3) does not conform to weight"),
        ((3,), (3, 4), (1, 4), "input (3,) does not conform to weight"),
    ])
    def test_backward_shape_messages(self, x, w, g, fragment):
        with pytest.raises(ShapeError, match=re.escape(fragment)):
            linear_backward(np.zeros(x), np.zeros(w), np.zeros(g))


@st.composite
def gate_cases(draw):
    """(x, g): finite arrays of one length, often holding +0.0 and -0.0."""
    n = draw(st.integers(0, 12))
    values = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(allow_nan=False, allow_infinity=False))
    return (draw(arrays(np.float64, n, elements=values)),
            draw(arrays(np.float64, n, elements=values)))


class TestRelu:
    def test_forward(self):
        assert np.array_equal(relu_forward([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_all_positive_is_identity(self):
        x = np.array([0.5, 1.0, 7.0])
        assert np.array_equal(relu_forward(x), x)

    def test_backward_gate(self):
        assert np.array_equal(relu_backward([-1.0, 2.0], [5.0, 5.0]), [0.0, 5.0])

    def test_backward_shape_mismatch(self):
        with pytest.raises(ShapeError,
                           match=re.escape("x (3,) vs upstream (2,)")):
            relu_backward(np.zeros(3), np.zeros(2))

    def test_backward_zero_subgradient(self):
        assert relu_backward([0.0], [9.0]) == [0.0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(gate_cases())
    def test_backward_is_the_select_on_finite_input(self, case):
        # the product g * [x > 0] may give -0.0 where the select gives 0.0;
        # the two compare equal
        x, g = case
        assert np.array_equal(relu_backward(x, g), np.where(x > 0, g, 0.0))

    def test_backward_closed_gate_gives_nan_or_signed_zero(self):
        with np.errstate(invalid="ignore"):
            grad = relu_backward([-1.0, 0.0, -0.0, 2.0, 3.0],
                                 [np.inf, -np.inf, np.nan, np.inf, -4.0])
        assert np.isnan(grad[:3]).all()
        assert np.array_equal(grad[3:], [np.inf, -4.0])
        assert np.signbit(relu_backward([-1.0], [-4.0])).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = rng.normal(size=int(rng.integers(1, 9)))
            probe = rng.normal(size=x.shape)
            grad = relu_backward(x, probe)
            fd = finite_diff_grad(lambda t: float((relu_forward(t) * probe).sum()),
                                  x)
            assert max_rel_error(grad, fd) < 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy([[0.0, 0.0]], [0])
        assert loss == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_large_logits_stable(self):
        loss, grad = softmax_cross_entropy([[1000.0, 0.0]], [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_loss_positive_for_finite_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=(4, 5))
            labels = rng.integers(0, 5, size=4)
            loss, _ = softmax_cross_entropy(logits, labels)
            assert loss > 0.0

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            logits = rng.normal(size=(5, 4))
            labels = rng.integers(0, 4, size=5)
            _, grad = softmax_cross_entropy(logits, labels)
            fd = finite_diff_grad(lambda t: softmax_cross_entropy(t, labels)[0],
                                  logits)
            assert max_rel_error(grad, fd) < 1e-6

    def test_rejects_overflowing_loss(self):
        # finite logits spanning more than the float range: the loss was inf
        # while the gradient stayed finite
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="finite"):
            softmax_cross_entropy([[1e308, -1e308], [0.0, 1.0]], [1, 0])

    @pytest.mark.parametrize("logits, labels", [
        ((2, 3), (3,)), ((2, 3), (2, 1)), ((3,), (3,)), ((1, 2, 3), (1,))])
    def test_shape_mismatch_rejected(self, logits, labels):
        with pytest.raises(ShapeError, match="softmax_cross_entropy: logits"):
            softmax_cross_entropy(np.zeros(logits), np.zeros(labels, dtype=int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            softmax_cross_entropy([[0.0, 1.0]], [2])


class TestAdam:
    def test_zero_grad_leaves_value(self):
        p = ParamTensor.of([1.0, -2.0])
        adam_step(p, lr=0.1)
        assert np.array_equal(p.value, [1.0, -2.0])
        assert p.step_count == 1

    def test_scalar_first_step(self):
        p = ParamTensor.of([1.0])
        p.grad = np.array([1.0])
        adam_step(p, lr=0.1)
        # bias-corrected first step: m_hat = v_hat = 1, update = lr / (1 + eps)
        assert p.value[0] == pytest.approx(0.900000001, abs=1e-15)
        assert np.array_equal(p.grad, [0.0])

    def test_deterministic(self):
        def run():
            p = ParamTensor.of([0.3, -0.7])
            for g in ([0.1, 0.2], [-0.3, 0.4], [0.0, 0.5]):
                p.grad = np.array(g)
                adam_step(p, lr=0.05)
            return p.value
        assert np.array_equal(run(), run())

    def test_non_finite_grad_raises(self):
        p = ParamTensor.of([1.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError):
            adam_step(p, lr=0.1)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda x: float((x ** 2).sum()), [1.0, 2.0])
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda x: 5.0, [1.0, 2.0, 3.0])
        assert np.array_equal(grad, [0.0, 0.0, 0.0])

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("inf"), [1.0])

    def test_max_rel_error_shape_mismatch(self):
        with pytest.raises(ShapeError,
                           match=re.escape("max_rel_error: (2,) vs (3,)")):
            max_rel_error(np.zeros(2), np.zeros(3))


class TestParamTensor:
    def test_fresh_state(self):
        p = ParamTensor.of(np.ones((2, 3)))
        assert p.step_count == 0
        assert not p.grad.any() and not p.adam_m.any() and not p.adam_v.any()
        assert p.value.shape == p.grad.shape == p.adam_m.shape == p.adam_v.shape

    def test_init_linear_range(self):
        rng = np.random.default_rng(0)
        w, b = init_linear(rng, 4, 6)
        limit = np.sqrt(6.0 / 10.0)
        assert w.value.shape == (4, 6) and b.value.shape == (6,)
        assert np.all(np.abs(w.value) <= limit)
        assert np.all(np.abs(b.value) <= limit)
