"""Step functions and rearrangements against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispaces.errors import BadInterval, BadModel, BadPoint, BadWeights, NonFiniteInput
from rispaces.rearrangement import (
    Char,
    PowerLog,
    StepFunction,
    StepRearrangement,
    discretize_model,
    evaluate_at,
    power_integral,
    rearrange_from_samples,
    tail_rearranged,
)
from associate import product_integral
from truncations import capped_part, excess_part, head_restriction


def reference_rearrangement(samples):
    """Independent oracle: sort descending, accumulate weights."""
    pairs = sorted(samples, key=lambda vw: -vw[0])
    breaks, values, acc = [0.0], [], 0.0
    for v, w in pairs:
        acc += w
        breaks.append(acc)
        values.append(v)
    breaks[-1] = 1.0
    return breaks, values


def test_three_equal_weights():
    f = rearrange_from_samples([(3, 1 / 3), (1, 1 / 3), (2, 1 / 3)])
    assert np.allclose(f.breaks, [0, 1 / 3, 2 / 3, 1])
    assert np.array_equal(f.values, [3, 2, 1])


def test_constant_sample():
    f = rearrange_from_samples([(2.5, 1.0)])
    assert np.array_equal(f.values, [2.5])
    assert evaluate_at(f, 0.7) == 2.5


def test_indicator_from_samples():
    f = rearrange_from_samples([(1, 0.25), (1, 0.25), (0, 0.5)])
    assert power_integral(f, 1, 0, 1) == pytest.approx(0.5, abs=1e-15)


@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.integers(1, 50),
        ),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=200, deadline=None)
def test_matches_sorting_oracle(raw):
    total = sum(w for _, w in raw)
    samples = [(v, w / total) for v, w in raw]
    f = rearrange_from_samples(samples)
    breaks, values = reference_rearrangement(samples)
    assert np.allclose(f.breaks, breaks, atol=1e-12)
    assert np.array_equal(f.values, values)
    # equimeasurability: the integral is the weighted mean of the values
    mean = sum(v * w for v, w in samples)
    assert power_integral(f, 1, 0, 1) == pytest.approx(mean, abs=1e-12)


@given(st.lists(st.floats(0, 10, allow_nan=False), min_size=2, max_size=20), st.data())
@settings(max_examples=100, deadline=None)
def test_rearrangement_monotone_in_data(vals, data):
    bumps = data.draw(st.lists(st.floats(0, 5), min_size=len(vals), max_size=len(vals)))
    w = 1.0 / len(vals)
    f = rearrange_from_samples([(v, w) for v in vals])
    g = rearrange_from_samples([(v + b, w) for v, b in zip(vals, bumps)])
    mids = 0.5 * (f.breaks[:-1] + f.breaks[1:])
    for t in mids:
        assert evaluate_at(f, float(t)) <= evaluate_at(g, float(t)) + 1e-12


def test_weights_must_sum_to_one():
    with pytest.raises(BadWeights):
        rearrange_from_samples([(1.0, 0.5), (2.0, 0.4)])


def test_non_finite_rejected():
    with pytest.raises(NonFiniteInput):
        rearrange_from_samples([(math.nan, 1.0)])


def test_discretize_char_is_exact():
    f = discretize_model(Char(0.25), 20.0, 50)
    assert 0.25 in f.breaks
    for p in (1, 2, 7):
        assert power_integral(f, p, 0, 1) == pytest.approx(0.25, abs=1e-15)


def test_discretize_constant():
    f = discretize_model(PowerLog(0, 0), 35.0, 100)
    assert np.all(f.values == 1.0)


def test_discretize_powerlog_integral(power_quarter):
    # ∫ t^{-1/4} dt = 4/3 on (0,1)
    val = power_integral(power_quarter, 1, 0, 1)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-3)


@pytest.mark.parametrize("u_max", [375.0, 500.0, 709.0])
def test_discretize_takes_geometric_midpoints_past_the_normal_floats(u_max):
    """1 - Log of the geometric midpoint of (e^{1-u_{j+1}}, e^{1-u_j}] is the
    u midpoint, also where the product of the two breaks leaves the normal
    floats (u past ~373): the profile (1 - Log t)^1 stays finite and linear in u."""
    f = discretize_model(PowerLog(0.0, -1.0), u_max, 600)
    u = np.linspace(1.0, u_max, 600)[::-1]
    du = u[0] - u[1]
    want = np.concatenate([[u[0] + 0.5 * du], 0.5 * (u[:-1] + u[1:])])
    np.testing.assert_allclose(f.values, want, rtol=1e-13)


@pytest.mark.parametrize("model", [PowerLog(0.3, 1.0), PowerLog(0.0, -1.0), PowerLog(0.9, 2.0)])
def test_discretize_midpoints_keep_their_bits_on_normal_grids(model):
    """At u_max = 35 every break product is a normal float, so the panel values
    are the model at sqrt(x_{i-1} x_i), bit for bit."""
    f = discretize_model(model, 35.0, 600)
    x = f.breaks
    mids = np.concatenate([[x[1] * math.exp(-0.5 * 34.0 / 599)], np.sqrt(x[1:-1] * x[2:])])
    want = np.maximum.accumulate(model(mids)[::-1])[::-1]
    assert np.array_equal(f.values, want)


def test_discretize_rejects_bad_grid():
    with pytest.raises(BadModel):
        discretize_model(PowerLog(0, 0), 0.5, 100)
    with pytest.raises(BadModel):
        discretize_model(PowerLog(0, 0), 35.0, 1)


def test_power_integral_examples(chi_quarter, one):
    assert power_integral(chi_quarter, 2, 0, 1) == pytest.approx(0.25, abs=1e-15)
    assert power_integral(one, 7, 0.2, 0.5) == pytest.approx(0.3, abs=1e-15)
    steps = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
    assert power_integral(steps, 2, 0, 1) == pytest.approx(2.5, abs=1e-15)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_power_integral_additive(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    f = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([2.0, 0.5, 1.0]))
    whole = power_integral(f, 2, lo, hi)
    split = power_integral(f, 2, lo, mid) + power_integral(f, 2, mid, hi)
    assert whole == pytest.approx(split, abs=1e-14)


def test_evaluate_at_panel_convention():
    f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([1.0, 0.0]))
    assert evaluate_at(f, 0.2) == 1.0
    assert evaluate_at(f, 0.25) == 1.0  # panels are half-open on the right
    assert evaluate_at(f, 0.3) == 0.0
    with pytest.raises(BadPoint):
        evaluate_at(f, 0.0)
    with pytest.raises(BadPoint):
        evaluate_at(f, 1.5)


def test_bad_interval():
    f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(BadInterval):
        power_integral(f, 1, 0.5, 0.2)


def test_rearrangement_requires_monotone_values():
    with pytest.raises(BadModel):
        StepRearrangement(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))


def test_cut_parts_recombine(power_quarter):
    c = 1.5
    g = excess_part(power_quarter, c)
    h = capped_part(power_quarter, c)
    assert np.allclose(g.values + h.values, power_quarter.values)
    assert np.all(np.diff(g.values) <= 0) and np.all(np.diff(h.values) <= 0)


def test_head_and_tail_partition(power_quarter):
    x = 0.37
    head = head_restriction(power_quarter, x)
    tail = tail_rearranged(power_quarter, x)
    total = power_integral(power_quarter, 2, 0, 1)
    assert power_integral(head, 2, 0, 1) + power_integral(tail, 2, 0, 1) == pytest.approx(
        total, rel=1e-12
    )
    assert power_integral(tail, 2, 0, 1) == pytest.approx(
        power_integral(power_quarter, 2, x, 1), rel=1e-12
    )


def test_head_and_tail_at_one(power_quarter):
    """The cut x = 1 keeps all of f in the head and leaves a zero tail."""
    assert head_restriction(power_quarter, 1.0) is power_quarter
    tail = tail_rearranged(power_quarter, 1.0)
    assert tail.breaks.tolist() == [0.0, 1.0] and tail.values.tolist() == [0.0]
    with pytest.raises(BadPoint):
        head_restriction(power_quarter, 1.5)


def test_product_integral_matches_riemann(rng):
    f = StepFunction(np.array([0.0, 0.3, 1.0]), np.array([2.0, 1.0]))
    g = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0]))
    # merged-grid oracle
    expected = 2 * 1 * 0.3 + 1 * 1 * 0.2 + 1 * 3 * 0.5
    assert product_integral(f, g) == pytest.approx(expected, abs=1e-15)


def test_memo_keeps_arrays_read_only_and_stores_no_failure():
    f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
    kept = f.memo("pair", lambda: (np.zeros(2), np.ones(2))) + (f.memo("one", lambda: np.zeros(3)), f.widths)
    for a in kept + f.prefix_power(2.0):
        with pytest.raises(ValueError):
            a[0] = -1.0
    calls = []

    def failing():
        calls.append(None)
        raise ZeroDivisionError

    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            f.memo("failing", failing)
    assert len(calls) == 2
