"""Reference implementations that the tests compare the package against.

None of this runs in the decode pipeline. Each oracle reaches the answer by
a route of its own and is checked against the code the pipeline runs:

* `closed_form_transform` is the scalar view of `minkowski.transform_values`,
  the pipeline's kernel; `newton_transform` (safeguarded Newton on the
  gradient polynomial) and `brute_force_transform` (grid minimization of
  the expected loss, which knows nothing about gradients) check it.
  `analyze_odd_order` exposes the complex root sets that make odd orders
  unusable as transforms.
* `exhaustive_decode` scores every state path outright and checks
  `decoder.viterbi_decode` on tiny instances; `score_path` scores one
  explicit path. Both read emissions through the decoder's own
  `_emissions`, and `exhaustive_decode` builds its result with `_result`.
  It applies the DP's tie rule (the lower state index at every decision),
  and the two agree on path and score when path sums are exact. Otherwise
  rounding can make two whole-path sums equal for the oracle when the DP's
  prefix sums differed, and the two may then return different paths of
  equal score; LOG_FLOOR entries make this much likelier.
* `frozen_transform_values` and `frozen_floored_log` are earlier versions
  of `minkowski.transform_values` and `posteriors.floored_log`, and
  `frozen_scalar_forward` the loop that `decoder._scalar_forward` ran
  before its kernel was generated per state count, kept verbatim; the
  rewritten kernels must give the same bits.
* `SplitMix64` is the scalar generator whose draws
  `dataio.splitmix64_doubles` computes in bulk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from minkdecode.decoder import DecodingResult, HmmModel, _emissions, _result
from minkdecode.errors import ValidationError
from minkdecode.minkowski import LossOrder, _check_order_int, transform_values
from minkdecode.posteriors import LOG_FLOOR, LogScoreMatrix


class SolverError(RuntimeError):
    """Root solver failed to converge; carries the last iterate and residual."""

    def __init__(self, message: str, last_iterate: float, residual: float):
        self.last_iterate = last_iterate
        self.residual = residual
        super().__init__(
            f"{message} (last iterate {last_iterate!r}, residual {residual!r})"
        )


# ---------------------------------------------------------------------------
# the order-n transform
# ---------------------------------------------------------------------------

# The oracles' settings: constants, because no caller needs another value.
NEWTON_TOLERANCE = 1e-12  # absolute bound on the Newton residual and step
NEWTON_MAX_ITERATIONS = 100
GRID_STEPS = 1_000_000  # cells of the brute-force grid on [0, 1]
REAL_ROOT_TOLERANCE = 1e-9  # largest |imaginary part| of a root taken as real


@dataclass(frozen=True)
class Posterior:
    """A class posterior: a probability in [0, 1]. Rejects NaN and out-of-range values."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _unit_interval(self.value, "posterior"))


@dataclass(frozen=True)
class GradientPolynomial:
    """Expected-loss derivative in y, coefficients highest degree first.

    The leading coefficient is 1 (the constant factor n of the derivative is
    dropped). Degree equals order - 1. For an even order and mu in (0, 1)
    the polynomial is strictly increasing on the reals, so it has exactly one
    real root, and that root lies in (0, 1).
    """

    coefficients: tuple[float, ...]
    order: int
    mu: float

    def __post_init__(self):
        if len(self.coefficients) != self.order:
            raise ValidationError(
                f"degree must equal order - 1: got {len(self.coefficients) - 1} "
                f"for order {self.order}"
            )
        if self.coefficients[0] != 1.0:
            raise ValidationError("leading coefficient must be 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, y: float) -> float:
        """Evaluate at y by Horner's rule."""
        acc = 0.0
        for c in self.coefficients:
            acc = acc * y + c
        return acc

    def roots(self) -> tuple[complex, ...]:
        """All complex roots, via the companion matrix."""
        rts = np.roots(np.asarray(self.coefficients, dtype=np.float64))
        return tuple(sorted((complex(r) for r in rts), key=lambda z: (z.real, z.imag)))


@dataclass(frozen=True)
class RootAnalysis:
    """Root set of an odd-order gradient polynomial.

    `has_valid_probability_root` is true iff some root is real (imaginary
    part within REAL_ROOT_TOLERANCE) and lies in [0, 1].
    """

    roots: tuple[complex, ...]
    has_valid_probability_root: bool



def _posterior_value(mu) -> float:
    if isinstance(mu, Posterior):
        return mu.value
    return Posterior(mu).value


def _unit_interval(x, name: str) -> float:
    """x as a float in [0, 1]; NaN fails the comparison and is refused too."""
    if not 0.0 <= float(x) <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {x!r}")
    return float(x)


def expected_loss(y: float, mu, order) -> float:
    """Expected order-n loss (1-mu)*y**n + mu*(1-y)**n of predicting y.

    Zero iff (mu=0, y=0) or (mu=1, y=1). Accepts odd orders as well as even
    ones; for y in [0, 1] the signed and absolute-value forms of the loss
    coincide.
    """
    y = _unit_interval(y, "prediction")
    mu = _posterior_value(mu)
    n = _check_order_int(order)
    return (1.0 - mu) * y**n + mu * (1.0 - y) ** n


def _poly_coefficients(mu: float, n: int) -> tuple[float, ...]:
    # Expansion of (1-mu)*y^m + mu*(y-1)^m with m = n - 1:
    # leading 1, then (-1)^k * C(m, k) * mu for k = 1..m.
    m = n - 1
    coeffs = [1.0]
    for k in range(1, m + 1):
        c = math.comb(m, k)
        coeffs.append((-float(c) if k % 2 else float(c)) * mu)
    return tuple(coeffs)


def gradient_coefficients(mu, order) -> GradientPolynomial:
    """Gradient polynomial of the expected loss for an even order.

    Order 4 yields [1, -3 mu, 3 mu, -mu]; order 6 yields
    [1, -5 mu, 10 mu, -10 mu, 5 mu, -mu]. Odd orders are rejected
    (use `analyze_odd_order`).
    """
    mu = _posterior_value(mu)
    n = LossOrder(order).value
    return GradientPolynomial(_poly_coefficients(mu, n), n, mu)


def _grad_value(y: float, mu: float, m: int) -> float:
    # Factored form; algebraically identical to the coefficient expansion
    # but free of cancellation between large binomial terms.
    return (1.0 - mu) * y**m + mu * (y - 1.0) ** m


def _grad_slope(y: float, mu: float, m: int) -> float:
    # m - 1 is even, so this is a positive combination of even powers.
    return m * ((1.0 - mu) * y ** (m - 1) + mu * (y - 1.0) ** (m - 1))



def closed_form_transform(mu, order) -> float:
    """Unique real root in [0, 1] of the even-order gradient polynomial.

    The scalar view of `transform_values`, the kernel the pipeline runs:
    returns exactly 0 for mu=0, 1 for mu=1, and mu itself at order 2.
    """
    return float(transform_values(_posterior_value(mu), order))


def newton_transform(mu, order) -> float:
    """Root of the even-order gradient polynomial by safeguarded Newton.

    Starts at mu**(1/(n-1)) (mirrored for mu > 1/2) and keeps every iterate
    inside the bracket [0, 1], taking a bisection step whenever the Newton
    step would leave the current bracket. The gradient is strictly
    increasing with g(0) <= 0 <= g(1), so the hybrid cannot lose the root.
    The start point sits near the root for every mu; starting at mu itself
    would strand the iteration in the flat region near the boundary for
    extreme mu, where |g| <= tolerance long before y is anywhere near the
    root. Converges when residual and step are both within
    NEWTON_TOLERANCE, returning the final polished step; raises SolverError
    if that does not happen within NEWTON_MAX_ITERATIONS (it does not for mu
    in [0, 1]).
    """
    mu = _posterior_value(mu)
    n = LossOrder(order).value
    if mu == 0.0:
        return 0.0
    if mu == 1.0:
        return 1.0
    m = n - 1
    lo, hi = 0.0, 1.0
    y = mu ** (1.0 / m) if mu <= 0.5 else 1.0 - (1.0 - mu) ** (1.0 / m)
    residual = math.inf
    for _ in range(NEWTON_MAX_ITERATIONS):
        g = _grad_value(y, mu, m)
        residual = abs(g)
        if g == 0.0:
            return y
        slope = _grad_slope(y, mu, m)
        step = g / slope if slope > 0.0 else math.inf
        if residual <= NEWTON_TOLERANCE and abs(step) <= NEWTON_TOLERANCE:
            polished = y - step
            return polished if lo < polished < hi else y
        if g > 0.0:
            hi = y
        else:
            lo = y
        y_next = y - step
        if not lo < y_next < hi:
            y_next = 0.5 * (lo + hi)
        y = y_next
    raise SolverError(
        f"Newton failed to reach tolerance {NEWTON_TOLERANCE} within "
        f"{NEWTON_MAX_ITERATIONS} iterations for mu={mu}, order={n}",
        last_iterate=y,
        residual=residual,
    )


@lru_cache(maxsize=1)
def _grid() -> np.ndarray:
    """The brute-force grid on [0, 1], built once and shared by every order."""
    return np.linspace(0.0, 1.0, GRID_STEPS + 1)


@lru_cache(maxsize=8)
def _loss_tables(order: int):
    """ys**order and (1 - ys)**order on the shared grid ys."""
    ys = _grid()
    return ys**order, (1.0 - ys) ** order


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(mu: float, n: int, a: float, b: float) -> float:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = expected_loss(c, mu, n)
    fd = expected_loss(d, mu, n)
    for _ in range(100):
        if b - a <= 1e-13:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = expected_loss(c, mu, n)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = expected_loss(d, mu, n)
    return 0.5 * (a + b)


def brute_force_transform(mu, order) -> float:
    """Argmin of the expected loss over a uniform grid on [0, 1].

    Independent oracle for the root-based transforms: knows nothing about
    gradients. The grid argmin is refined by one golden-section pass on the
    winning cell; unimodality of the even-order expected loss puts the
    result within 10/GRID_STEPS of the true minimizer (far closer in
    practice).
    """
    mu = _posterior_value(mu)
    n = LossOrder(order).value
    ys = _grid()
    pow_y, pow_comp = _loss_tables(n)
    losses = (1.0 - mu) * pow_y + mu * pow_comp
    i = int(np.argmin(losses))
    lo, hi = ys[max(i - 1, 0)], ys[min(i + 1, GRID_STEPS)]
    return _golden_refine(mu, n, float(lo), float(hi))


def analyze_odd_order(mu, order) -> RootAnalysis:
    """Root set of the odd-order gradient polynomial.

    Order 3 (a quadratic in y) is solved analytically; higher odd orders go
    through the companion matrix. For mu in (0, 1) the polynomial
    (1-mu) y^(n-1) + mu (y-1)^(n-1) is a positive combination of even powers
    and therefore has no real root at all, which is why odd orders cannot
    produce a probability. At mu = 0 or 1 the root degenerates to an
    (n-1)-fold 0 or 1, which *is* a valid probability.
    """
    mu = _posterior_value(mu)
    n = _check_order_int(order)
    if n % 2 == 0:
        raise ValidationError(
            f"order {n} is even and has a real optimum; analyze_odd_order is for "
            "odd orders only"
        )
    m = n - 1
    if mu == 0.0:
        roots: tuple[complex, ...] = (complex(0.0),) * m
    elif mu == 1.0:
        roots = (complex(1.0),) * m
    elif n == 3:
        # y^2 - 2 mu y + mu = 0; discriminant 4 mu^2 - 4 mu < 0 on (0, 1).
        s = cmath.sqrt(complex(mu * mu - mu))
        roots = tuple(sorted((mu - s, mu + s), key=lambda z: (z.real, z.imag)))
    else:
        poly = GradientPolynomial(_poly_coefficients(mu, n), n, mu)
        roots = poly.roots()
    valid = any(
        abs(r.imag) <= REAL_ROOT_TOLERANCE and 0.0 <= r.real <= 1.0 for r in roots
    )
    return RootAnalysis(roots=roots, has_valid_probability_root=valid)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

EXHAUSTIVE_PATH_LIMIT = 10_000_000
_CHUNK = 1 << 16


def exhaustive_decode(scores: LogScoreMatrix, hmm: HmmModel) -> DecodingResult:
    """Best state path by scoring every path; oracle for `viterbi_decode`.

    Applies the same tie-breaking rule as the DP (the winning path is the
    one minimizing the state sequence read from the last frame backwards,
    among all score-maximal paths). Refuses instances with more than
    EXHAUSTIVE_PATH_LIMIT paths.
    """
    emis = _emissions(scores, hmm)
    num_frames, num_states = emis.shape
    total = num_states**num_frames
    if total > EXHAUSTIVE_PATH_LIMIT:
        raise ValidationError(
            f"{num_states}^{num_frames} = {total} paths exceeds the exhaustive "
            f"limit of {EXHAUSTIVE_PATH_LIMIT}"
        )
    shape = (num_states,) * num_frames
    best_score = -np.inf
    best_path: np.ndarray | None = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        # Digits of idx enumerate paths in reverse order: earlier index ==
        # smaller state sequence read from the last frame backwards, which
        # is exactly the DP's tie preference.
        rev = np.unravel_index(idx, shape)
        states = rev[::-1]
        tot = hmm.log_initial[states[0]] + emis[0, states[0]]
        for t in range(1, num_frames):
            tot = tot + hmm.log_transitions[states[t - 1], states[t]]
            tot = tot + emis[t, states[t]]
        j = int(np.argmax(tot))  # first max: smallest reversed sequence
        if tot[j] > best_score:
            best_score = float(tot[j])
            best_path = np.array([s[j] for s in states], dtype=np.int64)
    assert best_path is not None
    return _result(best_path.tolist(), best_score, hmm)


def score_path(path: Sequence[int], scores: LogScoreMatrix, hmm: HmmModel) -> float:
    """Log score of an explicit state path: initial + transitions + emissions.

    Accumulates in the same order as the DP, so the score of a decoded path
    reproduces DecodingResult.log_score exactly.
    """
    emis = _emissions(scores, hmm)
    num_frames, num_states = emis.shape
    if len(path) != num_frames:
        raise ValidationError(
            f"path length {len(path)} != number of frames {num_frames}"
        )
    states = [int(s) for s in path]
    for s in states:
        if not 0 <= s < num_states:
            raise ValidationError(f"state index {s} out of range [0, {num_states})")
    total = hmm.log_initial[states[0]] + emis[0, states[0]]
    for t in range(1, num_frames):
        total = total + hmm.log_transitions[states[t - 1], states[t]]
        total = total + emis[t, states[t]]
    return float(total)


# ---------------------------------------------------------------------------
# frozen kernels
# ---------------------------------------------------------------------------

def frozen_transform_values(values, order) -> np.ndarray:
    """`transform_values` before its steps wrote into arrays, with a masked divide and np.where."""
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


def frozen_floored_log(values) -> np.ndarray:
    """`floored_log` before it filled LOG_FLOOR through a mask: one np.where pass."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(v == 0.0, LOG_FLOOR, np.log(v))


def frozen_scalar_forward(emis: np.ndarray, hmm: HmmModel) -> tuple[list, list]:
    """`decoder._scalar_forward` as a nested loop over states, before its kernel was generated."""
    rows = emis.tolist()
    initial, into = hmm._scalar_tables
    rest = range(1, len(into))
    delta = [a + b for a, b in zip(initial, rows[0])]
    backptr = []
    for row in rows[1:]:
        nxt = []
        prev = []
        for col, e in zip(into, row):
            best = delta[0] + col[0]
            arg = 0
            for i in rest:
                c = delta[i] + col[i]
                if c > best:
                    best = c
                    arg = i
            nxt.append(best + e)
            prev.append(arg)
        delta = nxt
        backptr.append(prev)
    return delta, backptr


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

class SplitMix64:
    """SplitMix64: 64-bit generator with identical output on every platform.

    Reference output from seed 0 starts 0xe220a8397b1dcdaf,
    0x6e789e6aa1b965f4, 0x06c45d188009454f.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = int(seed) & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return min(int(self.next_double() * n), n - 1)

    def categorical(self, probs) -> int:
        u = self.next_double()
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                return i
        return len(probs) - 1

