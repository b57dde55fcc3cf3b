"""Tests for gradients (vs numerical differentiation) and updaters."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    HingeGradient,
    LabeledPoint,
    LeastSquaresGradient,
    LogisticGradient,
    SimpleUpdater,
    SparseVector,
    SquaredL2Updater,
)


def numerical_gradient(loss_fn, weights, eps=1e-6):
    grad = np.zeros_like(weights)
    for i in range(weights.size):
        up, down = weights.copy(), weights.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2 * eps)
    return grad


def make_point(label, dense):
    dense = np.asarray(dense, dtype=np.float64)
    indices = np.flatnonzero(dense)
    return LabeledPoint(label, SparseVector(dense.size, indices,
                                            dense[indices]))


# ---------------------------------------------------------------- logistic
@pytest.mark.parametrize("label", [0.0, 1.0])
def test_logistic_gradient_matches_numerical(label):
    rng = np.random.default_rng(3)
    weights = rng.standard_normal(5) * 0.5
    x = rng.standard_normal(5)
    point = make_point(label, x)
    gradient = LogisticGradient()

    def loss_fn(w):
        g = np.zeros_like(w)
        return LogisticGradient().add_to(point, w, g)

    analytic = np.zeros(5)
    loss = gradient.add_to(point, weights, analytic)
    assert loss >= 0
    numeric = numerical_gradient(loss_fn, weights)
    np.testing.assert_allclose(analytic, numeric, atol=1e-5)


def test_logistic_loss_decreases_along_negative_gradient():
    rng = np.random.default_rng(5)
    weights = rng.standard_normal(4)
    point = make_point(1.0, rng.standard_normal(4))
    gradient = LogisticGradient()
    g = np.zeros(4)
    loss0 = gradient.add_to(point, weights, g)
    g2 = np.zeros(4)
    loss1 = gradient.add_to(point, weights - 0.01 * g, g2)
    assert loss1 < loss0


def test_logistic_extreme_margin_is_stable():
    point = make_point(1.0, [1000.0, 0.0])
    g = np.zeros(2)
    loss = LogisticGradient().add_to(point, np.array([100.0, 0.0]), g)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(g))


# ------------------------------------------------------------------- hinge
@pytest.mark.parametrize("label", [0.0, 1.0])
def test_hinge_gradient_matches_numerical_off_kink(label):
    rng = np.random.default_rng(7)
    weights = rng.standard_normal(5)
    x = rng.standard_normal(5)
    point = make_point(label, x)
    y = 2 * label - 1
    if abs(1 - y * point.features.dot(weights)) < 1e-3:
        weights = weights * 2  # move away from the hinge kink

    def loss_fn(w):
        g = np.zeros_like(w)
        return HingeGradient().add_to(point, w, g)

    analytic = np.zeros(5)
    HingeGradient().add_to(point, weights, analytic)
    numeric = numerical_gradient(loss_fn, weights)
    np.testing.assert_allclose(analytic, numeric, atol=1e-5)


def test_hinge_zero_beyond_margin():
    point = make_point(1.0, [1.0, 0.0])
    g = np.zeros(2)
    loss = HingeGradient().add_to(point, np.array([5.0, 0.0]), g)
    assert loss == 0.0
    np.testing.assert_allclose(g, 0.0)


# ----------------------------------------------------------- least squares
def test_least_squares_gradient_matches_numerical():
    rng = np.random.default_rng(9)
    weights = rng.standard_normal(4)
    point = make_point(2.5, rng.standard_normal(4))

    def loss_fn(w):
        g = np.zeros_like(w)
        return LeastSquaresGradient().add_to(point, w, g)

    analytic = np.zeros(4)
    LeastSquaresGradient().add_to(point, weights, analytic)
    numeric = numerical_gradient(loss_fn, weights)
    np.testing.assert_allclose(analytic, numeric, atol=1e-5)


def test_gradients_accumulate_in_place():
    point = make_point(1.0, [1.0, 2.0])
    g = np.array([5.0, 5.0])
    before = g.copy()
    LeastSquaresGradient().add_to(point, np.zeros(2), g)
    assert not np.allclose(g, before)  # contribution added on top


# ----------------------------------------------------------------- updaters
def test_simple_updater_step_schedule():
    w = np.array([1.0, 1.0])
    g = np.array([1.0, 0.0])
    w1, reg1 = SimpleUpdater().compute(w, g, step_size=1.0, iteration=1,
                                       reg_param=0.0)
    w4, _ = SimpleUpdater().compute(w, g, step_size=1.0, iteration=4,
                                    reg_param=0.0)
    np.testing.assert_allclose(w1, [0.0, 1.0])
    np.testing.assert_allclose(w4, [0.5, 1.0])  # 1/sqrt(4) step
    assert reg1 == 0.0


def test_l2_updater_shrinks_and_reports_reg_loss():
    w = np.array([2.0, -2.0])
    g = np.zeros(2)
    new_w, reg_loss = SquaredL2Updater().compute(w, g, step_size=1.0,
                                                 iteration=1, reg_param=0.1)
    assert np.all(np.abs(new_w) < np.abs(w))
    assert reg_loss == pytest.approx(0.05 * float(new_w @ new_w))


def test_updater_iteration_validation():
    with pytest.raises(ValueError):
        SimpleUpdater().compute(np.zeros(2), np.zeros(2), 1.0, 0, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 500), label=st.sampled_from([0.0, 1.0]))
def test_logistic_gradient_property(seed, label):
    rng = np.random.default_rng(seed)
    dim = rng.integers(2, 8)
    weights = rng.standard_normal(dim)
    point = make_point(label, rng.standard_normal(dim))

    def loss_fn(w):
        g = np.zeros_like(w)
        return LogisticGradient().add_to(point, w, g)

    analytic = np.zeros(dim)
    LogisticGradient().add_to(point, weights, analytic)
    numeric = numerical_gradient(loss_fn, weights)
    np.testing.assert_allclose(analytic, numeric, atol=1e-4)


# ------------------------------------------- array form == scalar form
GRADIENTS = (LogisticGradient, HingeGradient, LeastSquaresGradient)
#: every branch of the scalar functions and the edges of libm: zeros of
#: both signs, denormal-range products, the ``min(margin, 500)`` clamp, the
#: ``exp`` underflow at 745, and values no finite training run reaches
EDGE_DOTS = [0.0, 1e-300, 0.5, 1.0, 40.0, 499.9, 500.0, 745.0, 1e6,
             float("inf")]
EDGE_DOTS = EDGE_DOTS + [-d for d in EDGE_DOTS] + [float("nan")]


def _assert_array_form_is_the_scalar_form(gradient, dots, labels):
    scalar = [gradient.multiplier_and_loss(dot, label)  # no OverflowError
              for dot, label in zip(dots.tolist(), labels.tolist())]
    multipliers, live, losses = gradient.multipliers_and_losses(dots, labels)
    expected_live = [m is not None for m, _ in scalar]
    if all(expected_live):
        assert live is None
    else:
        assert live.dtype == bool and live.tolist() == expected_live
    # bytes, not ==: nan and the sign of zero count
    assert multipliers.tobytes() == np.array(
        [m for m, _ in scalar if m is not None], dtype=np.float64).tobytes()
    assert losses.tobytes() == np.array(
        [loss for _, loss in scalar], dtype=np.float64).tobytes()


@pytest.mark.parametrize("gradient_cls", GRADIENTS)
def test_array_form_equals_scalar_form_on_the_edges(gradient_cls):
    dots = np.array(EDGE_DOTS * 2)
    labels = np.repeat([0.0, 1.0], len(EDGE_DOTS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf: silent, like a float
        _assert_array_form_is_the_scalar_form(gradient_cls(), dots, labels)


@pytest.mark.parametrize("gradient_cls", GRADIENTS)
@settings(max_examples=200, deadline=None)
@given(dots=st.lists(st.floats(allow_nan=True, allow_infinity=True)
                     | st.floats(-50.0, 50.0), min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_array_form_equals_scalar_form(gradient_cls, dots, seed):
    labels = np.random.default_rng(seed).integers(0, 2, len(dots))
    _assert_array_form_is_the_scalar_form(
        gradient_cls(), np.array(dots), labels.astype(np.float64))


@pytest.mark.parametrize("gradient_cls", GRADIENTS)
def test_array_form_equals_scalar_form_on_a_dense_grid(gradient_cls):
    """10,000 margins within a few units of 0 on either side. numpy's SIMD
    ``exp`` differs from libm's in the last bit on ~5% of arguments, which
    reaches the loss of 1-3% of such rows — rarely enough that hypothesis
    can miss an ``np.exp`` on one branch; this grid cannot."""
    rng = np.random.default_rng(2026)
    dots = np.concatenate([rng.uniform(-1.0, 1.0, 5000),
                           rng.uniform(-5.0, 5.0, 5000)])
    labels = rng.integers(0, 2, dots.size).astype(np.float64)
    _assert_array_form_is_the_scalar_form(gradient_cls(), dots, labels)


def test_hinge_array_form_reports_dead_rows_only_when_there_are_some():
    gradient, ones = HingeGradient(), np.ones(3)
    multipliers, live, losses = gradient.multipliers_and_losses(
        np.array([0.5, -2.0, 0.0]), ones)  # slack 0.5, 3, 1: all live
    assert live is None and multipliers.tolist() == [-1.0, -1.0, -1.0]
    multipliers, live, losses = gradient.multipliers_and_losses(
        np.array([1.0, 2.0, 9.0]), ones)  # slack 0, -1, -8: all dead
    assert multipliers.size == 0 and not live.any()
    assert losses.tolist() == [0.0, 0.0, 0.0]
