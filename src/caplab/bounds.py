"""Closed-form sample-complexity evaluators with explicit universal-constant
knobs.  Values above the float range are reported as +inf with the natural
log carried alongside; none of the evaluators takes a width or input
dimension."""

import math
from dataclasses import dataclass

from .errors import InvalidInputError

_MAX_EXP = math.log(1e308)


@dataclass
class BoundReport:
    formula_id: str
    value: float
    log_value: float
    notes: str = ""


def _from_log(lv):
    return math.exp(lv) if lv <= _MAX_EXP else math.inf


def shatter_lower_bound(B, L, eps, c=1.0):
    """exp(c L^2 B^2 / eps^2) points shattered at margin eps."""
    if B < 1 or L < 1:
        raise InvalidInputError("need B >= 1 and L >= 1")
    if not 0 < eps <= 1:
        raise InvalidInputError("need 0 < eps <= 1")
    guard = L * L * B * B / (128.0 * eps * eps)
    if guard < 20:
        raise InvalidInputError(
            f"precondition L^2 B^2/(128 eps^2) >= 20 violated (got {guard:g})"
        )
    lv = c * L * L * B * B / (eps * eps)
    return BoundReport("shatter-lower", _from_log(lv), lv)


def exp_class_sample_bound(B, L, eps, c=1.0):
    """(LB/eps)^(c L^2 B^2 / eps^2) samples."""
    if B < 1 or L < 1:
        raise InvalidInputError("need B >= 1 and L >= 1")
    if not 0 < eps <= 1:
        raise InvalidInputError("need 0 < eps <= 1")
    ratio = L * B / eps
    if ratio < 1:
        raise InvalidInputError("need LB/eps >= 1")
    expo = c * L * L * B * B / (eps * eps)
    lv = expo * math.log(ratio)
    value = ratio ** expo if lv <= _MAX_EXP else math.inf
    return BoundReport("exp-class", value, lv)


def deep_general_bound(B, S_list, eps, c=1.0):
    """Slope budget = product of the per-layer norms, then the exp-class bound."""
    S_list = list(S_list)
    if not S_list:
        raise InvalidInputError("S_list must be nonempty")
    if any(s <= 0 for s in S_list):
        raise InvalidInputError("all S_j must be positive")
    L = math.prod(S_list)
    inner = exp_class_sample_bound(B, L, eps, c)
    return BoundReport("deep-general", inner.value, inner.log_value)


def sgd_sample_bound(B, L, eps):
    """B^2 L^2 / eps^2 samples for the projected-SGD learner."""
    if not (B > 0 and L > 0 and eps > 0):
        raise InvalidInputError("inputs must be positive")
    v = B * B * L * L / (eps * eps)
    return BoundReport("sgd-sample", v, math.log(v))


def smooth_one_layer_bound(b, b_x, B, B0, L, mu, eps, c=1.0):
    """(c/eps^2) (1 + b b_x (L B0 + (mu+L) B (1 + B0 b_x)))^2.

    This is the displayed envelope; hidden polylogarithmic factors are
    intentionally omitted (noted in the report)."""
    if any(v < 0 for v in (b, b_x, B, B0, L, mu)) or not (eps > 0 and c > 0):
        raise InvalidInputError("inputs must be nonnegative, eps and c positive")
    if B * b_x < 2:
        raise InvalidInputError("precondition B b_x >= 2 violated")
    base = 1.0 + b * b_x * (L * B0 + (mu + L) * B * (1.0 + B0 * b_x))
    v = (c / (eps * eps)) * base * base
    return BoundReport("smooth-one-layer", v, math.log(v),
                       notes="polylog factors omitted")


def deep_elementwise_bound(k, b, b_x, L, S_list, B_list, eps, m, c=1.0):
    """c (k L^(k-1) b R_(k-2) log^(3(k-1)/2)(m) prod B_i)^2 / eps^2 with
    R_(k-2) = b_x L^(k-2) prod S_i and R_0 = b_x."""
    if k < 2:
        raise InvalidInputError("need k >= 2")
    S_list, B_list = list(S_list), list(B_list)
    if len(S_list) != k - 2:
        raise InvalidInputError(f"S_list must have k-2 = {k - 2} entries")
    if len(B_list) != k - 1:
        raise InvalidInputError(f"B_list must have k-1 = {k - 1} entries")
    if L < 1 or any(s < 1 for s in S_list):
        raise InvalidInputError("need L >= 1 and all S_i >= 1")
    if not (b > 0 and b_x > 0 and eps > 0 and m > 1 and c > 0):
        raise InvalidInputError("need b, b_x, eps, c > 0 and m > 1")
    R = b_x * L ** (k - 2) * math.prod(S_list)
    core = (k * L ** (k - 1) * b * R * math.log(m) ** (3.0 * (k - 1) / 2.0)
            * math.prod(B_list))
    v = c * core * core / (eps * eps)
    return BoundReport("deep-elementwise", v,
                       math.log(v) if v > 0 else -math.inf)


_EVALUATORS = {
    "shatter-lower": shatter_lower_bound,
    "exp-class": exp_class_sample_bound,
    "deep-general": deep_general_bound,
    "sgd-sample": sgd_sample_bound,
    "smooth-one-layer": smooth_one_layer_bound,
    "deep-elementwise": deep_elementwise_bound,
}


def evaluate(formula_id, params):
    """Dispatch by formula id with keyword parameters."""
    if not isinstance(formula_id, str) or formula_id not in _EVALUATORS:
        raise InvalidInputError(f"unknown formula id {formula_id!r}")
    try:
        return _EVALUATORS[formula_id](**params)
    except TypeError as e:
        raise InvalidInputError(str(e)) from None
