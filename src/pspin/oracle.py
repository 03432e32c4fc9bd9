"""Independent numeric verification: quadrature and Monte Carlo oracles.

Nothing here touches the exact engine's reduction rules; identities are
evaluated from the defining integrals and the random-matrix measure directly,
so agreement with the engine is a genuine two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isfinite, sqrt

from .exact import DomainError, ExactScalar, UsageError
from .numbers import zeta_even_rational_part, zeta_negative_odd


class NumericError(ArithmeticError):
    """Requested tolerance could not be certified."""


@cache
def _airy():
    # imported on first use, and looked up once: quad_moment's integrand calls
    # ai_deriv twice per point, and a repeated from-import costs it ~15%
    from scipy.special import airy

    return airy


def ai_deriv(y, order: int):
    """Ai^{(order)}(y) from scipy Ai, Ai' and the rewrite Ai'' = y Ai.

    Works elementwise on numpy arrays as well as on floats;
    Ai^{(m+2)} = d^m/dy^m (y Ai) = y Ai^{(m)} + m Ai^{(m-1)} builds the
    table up to the needed order.
    """
    ai, aip, _, _ = _airy()(y)
    if order == 0:
        return ai
    if order == 1:
        return aip
    vals = [ai, aip]
    for k in range(2, order + 1):
        m = k - 2
        prev = vals[m - 1] if m >= 1 else 0.0
        vals.append(y * vals[m] + m * prev)
    return vals[order]


def quad_moment(n: int, b: int, c: int, a: float, tol: float = 1e-9) -> float:
    """Adaptive quadrature of int_0^inf y^n Ai^{(b)}(y) Ai^{(c)}(-a y) dy.

    Derivative orders count differentiation of Ai with respect to its own
    argument, evaluated at -a y.  Convergence relies on the decay of the
    first factor at +infinity (p=3 oscillatory kernel only); the second
    factor is polynomially bounded for y >= 0.
    """
    if n > 8 or b > 3 or c > 3:
        raise UsageError("quadrature oracle restricted to n <= 8, b,c <= 3")
    if a <= 0:
        raise DomainError("a > 0 required")
    from scipy.integrate import quad

    def integrand(y):
        return y**n * ai_deriv(y, b) * ai_deriv(-a * y, c)

    # Ai(y) ~ exp(-2/3 y^{3/2}): the tail beyond Y is negligible at double
    # precision once 2/3 Y^{3/2} >> log(1/tol); Y = 40 is ample
    upper = 40.0
    val, err = quad(integrand, 0.0, upper, epsabs=tol / 8, epsrel=tol / 8, limit=400)
    if err > tol:
        raise NumericError(f"quadrature error estimate {err} exceeds tol {tol}")
    return float(val)


# ---------------------------------------------------------------------------
# Monte Carlo sampling of the Gaussian ensemble with external source
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McConfig:
    """Reproducible Monte Carlo configuration.

    The counter-based Philox generator is advanced by a fixed stride per
    sample index, so estimates are bit-identical for a given seed and
    independent of batching.
    """

    N: int
    eigenvalues: tuple
    s_values: tuple
    sample_count: int = 10_000
    rng_seed: int = 20121220

    def __post_init__(self):
        if len(self.eigenvalues) != self.N:
            raise UsageError("need exactly N source eigenvalues")
        if not 1 <= len(self.s_values) <= 2:
            raise UsageError("one or two insertions supported")
        if self.sample_count < 2:
            raise UsageError("need at least 2 samples for a standard error")
        if not all(isfinite(x) for x in (*self.eigenvalues, *self.s_values)):
            raise UsageError("eigenvalues and s values must be finite")
        if not 0 <= self.rng_seed < 2**128:
            raise UsageError("seed must lie in [0, 2^128), the Philox key range")


_DRAWS_PER_SAMPLE = 4096  # Philox counter stride per sample index
# samples per batched eigendecomposition, capped at 4 MiB per complex
# (chunk, N, N) stack, which lowers the count only past N = 8
_CHUNK_SAMPLES = 4096
_CHUNK_BYTES = 1 << 22


def mc_trace_moments(cfg: McConfig) -> tuple[float, float]:
    """Monte Carlo estimate of (1/N) <prod_i tr e^{s_i M}> with its std error.

    Each sample is M = A + G with G drawn from exp(-N/2 tr G^2).  That
    measure has <G_ii^2> = <|G_ij|^2> = 1/N; symmetrizing a standard complex
    Gaussian gives both variances equal to 1/2, so a factor sqrt(2/N)
    finishes the job.

    Sample i draws from its own Philox substream, the counter advanced by
    i * 4096 from the seed's start state, so every sample, and with the
    accumulation in sample order every bit of the result, is fixed by the
    seed alone.  Samples are stacked in chunks for one batched
    eigendecomposition each; the chunk size does not change the result.
    """
    if all(s == 0 for s in cfg.s_values):
        return float(cfg.N ** (len(cfg.s_values) - 1)), 0.0
    import numpy as np

    n = cfg.N
    count = cfg.sample_count
    chunk = max(1, min(_CHUNK_SAMPLES, _CHUNK_BYTES // (16 * n * n)))
    source = np.diag(np.asarray(cfg.eigenvalues, dtype=float))
    bit = np.random.Philox(key=cfg.rng_seed)
    start = bit.state
    rng = np.random.Generator(bit)
    total = 0.0
    total_sq = 0.0
    for first in range(0, count, chunk):
        size = min(chunk, count - first)
        re = np.empty((size, n, n))
        im = np.empty((size, n, n))
        for k in range(size):
            bit.state = start
            bit.advance((first + k) * _DRAWS_PER_SAMPLE)
            rng.standard_normal(out=re[k])
            rng.standard_normal(out=im[k])
        x = (re + 1j * im) / sqrt(2.0)
        g = (x + x.conj().transpose(0, 2, 1)) / 2.0 * sqrt(2.0 / n)
        eig = np.linalg.eigvalsh(g + source)
        vals = np.ones(size)
        for s in cfg.s_values:
            vals *= np.sum(np.exp(s * eig), axis=1)
        vals /= n
        for val in vals.tolist():
            total += val
            total_sq += val * val
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    stderr = sqrt(var / count)
    return mean, stderr


# ---------------------------------------------------------------------------
# zeta oracle
# ---------------------------------------------------------------------------


def zeta_oracle(n: int):
    """Exact zeta values where classical formulas apply, numeric otherwise.

    Negative odd integers: exact rationals via Bernoulli numbers.
    Positive even integers: exact rational times pi^n (ExactScalar).
    Anything else real: high-precision float.  Pole at 1.
    """
    if n == 1:
        raise DomainError("zeta pole at 1")
    if n < 0 and n % 2 == 1:
        return zeta_negative_odd(-n)
    if n < 0 and n % 2 == 0:
        return Fraction(0)
    if n > 0 and n % 2 == 0:
        return ExactScalar(zeta_even_rational_part(n // 2), pi_pow=n)
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.zeta(n))


# ---------------------------------------------------------------------------
# report format
# ---------------------------------------------------------------------------


def oracle_report(identity: str, parameters: dict, lhs: float, rhs: float, tol: float) -> dict:
    return {
        "identity": identity,
        "parameters": parameters,
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": abs(lhs - rhs),
        "tolerance": tol,
        "pass": abs(lhs - rhs) <= tol,
    }
