"""Property-based checks of the algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caplab import bounds as bd
from caplab import learner as lr
from caplab import lipschitz as lz

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@given(arrays(np.float64, (3, 4), elements=finite),
       arrays(np.float64, (3, 4), elements=finite),
       st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_projection_feasible_and_idempotent(W, W0, B):
    P = lr.project_frobenius_ball(W[None], W0, B)
    assert np.linalg.norm(P[0] - W0) <= B * (1 + 1e-12) + 1e-12
    P2 = lr.project_frobenius_ball(P, W0, B)
    assert np.allclose(P, P2, atol=1e-9, rtol=1e-9)


@given(st.lists(finite, min_size=1, max_size=20),
       st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_budget_closed_form(values, alpha):
    # budget equals (2/alpha) min_C max |p_i - C|: the mid-range optimum
    got = lz.budget(values, alpha)
    mid = (max(values) + min(values)) / 2.0
    direct = (2.0 / alpha) * max(abs(v - mid) for v in values)
    assert np.isclose(got, direct, rtol=1e-12, atol=1e-12)
    assert got >= 0.0


@given(arrays(np.float64, (6, 3), elements=st.floats(-5, 5, width=32)),
       st.floats(0.1, 4.0))
@settings(max_examples=100, deadline=None)
def test_mcshane_never_needs_more_than_feasible_slope(anchors, margin):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(6)
    try:
        slope = lz.min_feasible_slope(anchors, values, "euclidean-vector")
    except Exception:
        return  # duplicate anchors with conflicting values
    f = lz.AnchoredLipschitz(anchors, values, slope * (1 + margin))
    assert np.abs(f.eval(f.anchors) - values).max() <= 1e-9


@given(st.floats(1.0, 8.0), st.floats(1.0, 8.0), st.floats(0.25, 1.0))
@settings(max_examples=200, deadline=None)
def test_sample_bounds_monotone_in_eps(B, L, eps):
    bigger = bd.sgd_sample_bound(B, L, eps).value
    smaller = bd.sgd_sample_bound(B, L, min(1.0, eps * 2)).value
    assert smaller <= bigger * (1 + 1e-12)
