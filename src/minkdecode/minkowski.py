"""The order-n Minkowski-loss posterior transform.

For a per-class binary target t with P(t=1 | x) = mu, the expected order-n
Minkowski loss of a prediction y in [0, 1] is

    E[L](y) = (1 - mu) * y**n + mu * (1 - y)**n.

Its derivative in y, with the constant factor n dropped, is the degree n-1
polynomial

    g(y) = (1 - mu) * y**(n-1) + mu * (y - 1)**(n-1).

For even n this polynomial is strictly increasing on the reals, so it has
exactly one real root, and that root lies in [0, 1]: it is the order-n
optimal prediction T_n(mu). Order 2 reproduces mu itself (the usual
posterior). For odd n the root set is complex for mu in (0, 1), so no
probability-valued optimum exists, and `LossOrder` refuses odd orders.

The factored gradient, (1-mu) y^(n-1) = mu (1-y)^(n-1), gives
y = r / (1 + r) with r = (mu / (1 - mu))**(1 / (n-1)), that is

    logit(T_n(mu)) = logit(mu) / (n - 1):

order n is temperature scaling, by n - 1, of each class's binary logit.
As a map it is strictly increasing, fixes 0, 1/2 and 1, and moves every
other posterior toward 1/2.
`transform_values` is that closed form over an array, the one kernel the
decode pipeline runs. The test suite cross-checks it against Newton
iteration and grid minimization of the expected loss, and inspects the
odd-order root sets, in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["LossOrder", "transform_values"]

ODD_ORDER_EXPLANATION = (
    "its expected-loss gradient has complex roots, which can't be used as a "
    "probability; only even orders define a transform"
)


@dataclass(frozen=True)
class LossOrder:
    """Validated transform order: an integer >= 2 that is even.

    Every even-order entry point validates its order through this class;
    the odd-order oracle in the test suite applies the same integer check,
    `_check_order_int`, with the parity rule reversed.
    """

    value: int

    def __post_init__(self):
        value = _check_order_int(self.value)
        if value % 2:
            raise ValidationError(f"order {value} is odd: {ODD_ORDER_EXPLANATION}")
        object.__setattr__(self, "value", value)


def _check_order_int(value) -> int:
    if isinstance(value, LossOrder):
        return value.value
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"order must be an integer, got {value!r}")
    value = int(value)
    if value < 2:
        raise ValidationError(f"order must be >= 2, got {value}")
    return value


def transform_values(values, order) -> np.ndarray:
    """Closed-form transform of every entry of an array of probabilities.

    From the stationarity condition (1-mu) y^(n-1) = mu (1-y)^(n-1):
    y = r / (1 + r) with r = (mu / (1 - mu))**(1 / (n-1)). Entries 0 and 1
    map exactly to themselves, and order 2 returns a copy of the input.
    Entries are not range-checked; `PosteriorMatrix` does that.
    """
    n = LossOrder(order).value
    vals = np.asarray(values, dtype=np.float64)
    if n == 2:
        return vals.copy()
    m = n - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(vals, 1.0 - vals, out=np.zeros_like(vals), where=vals < 1.0)
        r = ratio ** (1.0 / m)
        out = r / (1.0 + r)
    out = np.where(vals == 1.0, 1.0, out)
    out = np.where(vals == 0.0, 0.0, out)
    return out
