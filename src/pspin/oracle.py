"""Independent numeric verification: quadrature and Monte Carlo oracles.

Nothing here touches the exact engine's reduction rules; identities are
evaluated from the defining integrals and the random-matrix measure directly,
so agreement with the engine is a genuine two-route check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np
from scipy.integrate import quad
from scipy.special import airy

from .exact import DomainError, ExactScalar, UsageError
from .numbers import zeta_even_rational_part, zeta_negative_odd


class NumericError(ArithmeticError):
    """Requested tolerance could not be certified."""


def ai_deriv(y: np.ndarray | float, order: int):
    """Ai^{(order)}(y) from scipy Ai, Ai' and the rewrite Ai'' = y Ai.

    Works elementwise on arrays; Ai^{(m+2)} = d^m/dy^m (y Ai)
    = y Ai^{(m)} + m Ai^{(m-1)} builds the table up to the needed order.
    """
    ai, aip, _, _ = airy(y)
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


_DRAWS_PER_SAMPLE = 4096  # Philox counter stride per sample index


def _sample_matrix(cfg: McConfig, index: int) -> np.ndarray:
    """Hermitian sample M = A + G with G drawn from exp(-N/2 tr G^2).

    That measure has <G_ii^2> = <|G_ij|^2> = 1/N; symmetrizing a standard
    complex Gaussian gives both variances equal to 1/2, so a factor
    sqrt(2/N) finishes the job.
    """
    bit = np.random.Philox(key=cfg.rng_seed)
    bit.advance(index * _DRAWS_PER_SAMPLE)
    rng = np.random.Generator(bit)
    n = cfg.N
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / sqrt(2.0)
    g = (x + x.conj().T) / 2.0 * sqrt(2.0 / n)
    return g + np.diag(np.asarray(cfg.eigenvalues, dtype=float))


def mc_trace_moments(cfg: McConfig) -> tuple[float, float]:
    """Monte Carlo estimate of (1/N) <prod_i tr e^{s_i M}> with its std error.

    Deterministic for a fixed seed; sampling over disjoint per-sample Philox
    substreams, accumulated in a fixed order.
    """
    if all(s == 0 for s in cfg.s_values):
        return float(cfg.N ** (len(cfg.s_values) - 1)), 0.0
    total = 0.0
    total_sq = 0.0
    count = cfg.sample_count
    for i in range(count):
        m = _sample_matrix(cfg, i)
        eig = np.linalg.eigvalsh(m)
        val = 1.0
        for s in cfg.s_values:
            val *= float(np.sum(np.exp(s * eig)))
        val /= cfg.N
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


def reports_to_json(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"
