"""Independent numeric verification: quadrature and Monte Carlo oracles.

Nothing here touches the exact engine's reduction rules; identities are
evaluated from the defining integrals and the random-matrix measure directly,
so agreement with the engine is a genuine two-route check.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import ceil, gamma, isfinite, pi, sqrt

from .exact import DomainError, UsageError


class NumericError(ArithmeticError):
    """Requested tolerance could not be certified."""


# Arrays past _MAX_ENTRIES entries, or Airy walks past _MAX_STEPS steps,
# raise NumericError instead of running.
_MAX_ENTRIES = 1 << 20
_MAX_STEPS = 1 << 16


def check_size(count: float, cap: int = _MAX_ENTRIES, unit: str = "array entries") -> None:
    """Raise NumericError before a numeric rule would need more than cap units."""
    if not count <= cap:  # also catches NaN and inf
        raise NumericError(f"numeric rule needs {count:.3g} {unit} (cap {cap})")


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@cache
def _legendre(nodes: int):
    import numpy as np

    return np.polynomial.legendre.leggauss(nodes)


def _panel_rule(edges, nodes: int):
    """Points and weights of the nodes-point Gauss-Legendre rule on each panel."""
    import numpy as np

    edges = np.asarray(edges, dtype=float)
    check_size((len(edges) - 1) * nodes)
    t, w = _legendre(nodes)
    half = (edges[1:] - edges[:-1])[:, None] / 2
    return ((edges[:-1, None] + half) + half * t).ravel(), (half * w).ravel()


def gauss_legendre(values, edges, nodes: int, tol: float) -> float:
    """Certified integral over the panels [edges[i], edges[i+1]].

    values(x, m) gives the integrand at the points x of the m-point rule
    (m lets a caller cache tables per rule).  The integral is computed with
    nodes and 2 nodes per panel and the 2 nodes value returned; a difference
    above tol, or a NaN, raises NumericError.
    """
    q = []
    for m in (nodes, 2 * nodes):
        x, w = _panel_rule(edges, m)
        q.append(float(w @ values(x, m)))
    err = abs(q[1] - q[0])
    if not err <= tol:
        raise NumericError(f"quadrature error estimate {err:.3g} exceeds tol {tol:.3g}")
    return q[1]


# ---------------------------------------------------------------------------
# the Airy function Ai on the real line
# ---------------------------------------------------------------------------

_TAYLOR_TERMS = 24  # steps of at most min(0.5, 1/sqrt|x|): terms fall like 1/k!
_ASYMPTOTIC_FROM = 12.0  # DLMF 9.7.5-6 carry full precision for x >= 12 (e^{-2 zeta} ~ 1e-24)
_ASYMPTOTIC_TERMS = 25
_LANDING_RTOL = 1e-13


# Ai(0) = 1/(3^{2/3} Gamma(2/3)) and Ai'(0) = -1/(3^{1/3} Gamma(1/3))
_AI_ZERO = (1 / (3 ** (2 / 3) * gamma(2 / 3)), -1 / (3 ** (1 / 3) * gamma(1 / 3)))


def _taylor(x0, t, y, dy):
    """(y, y') at x0 + t for the solution of y'' = x y with y, y' given at x0.

    y(x0 + t) = sum_k c_k t^k with c_0 = y, c_1 = y' and
    (k+2)(k+1) c_{k+2} = x0 c_k + c_{k-1}.  Works elementwise on arrays.
    """
    prev, c, nxt = 0.0, y, dy  # c_{k-1}, c_k, c_{k+1} at k = 0
    val, slope = y + dy * t, dy
    power = t  # t^{k+1}
    for k in range(2, _TAYLOR_TERMS):
        prev, c, nxt = c, nxt, (x0 * c + prev) / (k * (k - 1))
        slope = slope + k * nxt * power
        power = power * t
        val = val + nxt * power
    return val, slope


def _step(x: float) -> float:
    """Step length from x: |x| grows by at most 0.5 along the step, so the
    length stays within min(0.5, 1/sqrt|x|) at every point of it."""
    return min(0.5, 1 / sqrt(abs(x) + 0.5))


def _walk(grid, y: float, dy: float):
    """(Ai, Ai') along grid, stepped from the values y, dy at grid[0]."""
    import numpy as np

    x0, t = grid[:-1], np.diff(grid)
    ya, dya = _taylor(x0, t, 1.0, 0.0)  # transfer matrix columns of each step
    yb, dyb = _taylor(x0, t, 0.0, 1.0)
    vals, slopes = [y], [dy]
    for p, q, r, s in zip(ya.tolist(), yb.tolist(), dya.tolist(), dyb.tolist()):
        y, dy = p * y + q * dy, r * y + s * dy
        vals.append(y)
        slopes.append(dy)
    return np.array(vals), np.array(slopes)


def _asymptotic(x):
    """(Ai, Ai') for x >= 12 from the series of DLMF 9.7.5-6."""
    import numpy as np

    zeta = 2 / 3 * x**1.5
    u, su, sv = 1.0, 1.0, 1.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k)
        sign = (-1) ** k / zeta**k
        su = su + sign * u
        sv = sv - sign * (6 * k + 1) / (6 * k - 1) * u
    scale = np.exp(-zeta) / (2 * sqrt(pi))
    quarter = x**0.25
    return scale / quarter * su, -scale * quarter * sv


@cache
def _positive_walk():
    """Grid on [0, 12] with (Ai, Ai'), stepped down from the asymptotic values.

    Stepping toward 0 follows the growing direction of Ai, so errors stay
    relative; the walk must land on the closed-form Ai(0), Ai'(0).
    """
    import numpy as np

    points = [_ASYMPTOTIC_FROM]
    while points[-1] > 0:
        points.append(max(0.0, points[-1] - _step(points[-1])))
    grid = np.array(points)
    y, dy = _asymptotic(grid[0])
    vals, slopes = _walk(grid, float(y), float(dy))
    for got, want in zip((vals[-1], slopes[-1]), _AI_ZERO):
        if not abs(got - want) <= _LANDING_RTOL * abs(want):
            raise NumericError(f"Airy walk landed on {got!r}, not {want!r}")
    return grid[::-1], vals[::-1], slopes[::-1]


@lru_cache(maxsize=8)
def _negative_walk(depth: int):
    """Grid on [-depth, 0], ascending, with (Ai, Ai') stepped from Ai(0), Ai'(0).

    Both solutions oscillate on this side, so neither direction is preferred.
    """
    import numpy as np

    points = [0.0]
    while points[-1] > -depth:
        points.append(points[-1] - _step(points[-1]))
    grid = np.array(points)
    return tuple(v[::-1] for v in (grid, *_walk(grid, *_AI_ZERO)))


def _negative(x):
    depth = -x.min()
    # a walk takes about 1/min(0.5, 1/sqrt(|x| + 0.5)) steps per unit length
    check_size(2 * depth + 2 / 3 * (depth + 0.5) ** 1.5, _MAX_STEPS, "Airy walk steps")
    return _from_grid(x, *_negative_walk(max(1, ceil(depth))))


def _from_grid(x, grid, vals, slopes):
    """Taylor step from the nearest point of an ascending grid."""
    import numpy as np

    i = np.clip(np.searchsorted(grid, x), 1, len(grid) - 1)
    i -= (x - grid[i - 1]) < (grid[i] - x)
    return _taylor(grid[i], x - grid[i], vals[i], slopes[i])


def _airy(x):
    """(Ai(x), Ai'(x)) elementwise for an array x of finite reals.

    x <= 0 steps forward from the closed forms at 0; 0 < x < 12 steps from
    the walk down from 12; x >= 12 uses the asymptotic series.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise NumericError("Airy function of NaN")
    ai, aip = np.empty_like(x), np.empty_like(x)
    for part, values in (
        (x <= 0, _negative),
        ((x > 0) & (x < _ASYMPTOTIC_FROM), lambda v: _from_grid(v, *_positive_walk())),
        (x >= _ASYMPTOTIC_FROM, _asymptotic),
    ):
        if part.any():
            ai[part], aip[part] = values(x[part])
    return ai, aip


def _rewrite(y, ai, aip, order: int):
    """Ai^{(order)}(y) from Ai, Ai' and Ai^{(m+2)} = y Ai^{(m)} + m Ai^{(m-1)}."""
    vals = [ai, aip]
    for k in range(2, order + 1):
        m = k - 2
        prev = vals[m - 1] if m >= 1 else 0.0
        vals.append(y * vals[m] + m * prev)
    return vals[order]


def ai_deriv(y, order: int):
    """Ai^{(order)}(y) elementwise, from Ai, Ai' and the rewrite Ai'' = y Ai.

    A float y gives a numpy float; an array gives an array.
    """
    import numpy as np

    ai, aip = _airy(np.atleast_1d(y))
    out = _rewrite(np.asarray(y, dtype=float), ai, aip, order)
    return out if np.ndim(y) else out[0]


# ---------------------------------------------------------------------------
# moments int_0^inf y^n Ai^{(b)}(y) Ai^{(c)}(-a y) dy
# ---------------------------------------------------------------------------

# Ai^{(b)}(y) falls like y^{b/2-1/4} e^{-2/3 y^{3/2}} and Ai^{(c)}(-x) grows at
# most like x^{c/2-1/4}: past Y = 24 (e^{-78}) the integrand stays below 1e-17
# for n <= 8, b, c <= 3 and any a the walk cap admits, so [0, Y] suffices.
_MOMENT_UPPER = 24.0
_MOMENT_NODES = 12
_PANEL_PHASE = 4.0  # radians of Ai(-a y) per panel


def _moment_edges(a: float):
    """Uniform panels on [0, Y]; Ai(-a y) turns at rate a^{3/2} sqrt(y) <= a^{3/2} sqrt(Y)."""
    import numpy as np

    panels = _MOMENT_UPPER * max(2.0, a**1.5 * sqrt(_MOMENT_UPPER) / _PANEL_PHASE)
    check_size(3 * _MOMENT_NODES * panels)
    return np.linspace(0.0, _MOMENT_UPPER, ceil(panels) + 1)


@lru_cache(maxsize=8)
def _moment_table(a: float, nodes: int):
    """(Ai, Ai') at the points y of the nodes-point rule and at -a y.

    Bounded: callers take all their moments at one a before the next.
    """
    y, _ = _panel_rule(_moment_edges(a), nodes)
    return _airy(y), _airy(-a * y)


def quad_moment(n: int, b: int, c: int, a: float, tol: float = 1e-9) -> float:
    """int_0^inf y^n Ai^{(b)}(y) Ai^{(c)}(-a y) dy by certified Gauss-Legendre.

    Derivative orders count differentiation of Ai with respect to its own
    argument, evaluated at -a y.  Convergence relies on the decay of the
    first factor at +infinity (p=3 oscillatory kernel only); the second
    factor is polynomially bounded for y >= 0.  Points, weights and Airy
    values are cached per (a, rule), so all moments at one a share them.
    """
    if n > 8 or b > 3 or c > 3:
        raise UsageError("quadrature oracle restricted to n <= 8, b,c <= 3")
    if a <= 0:
        raise DomainError("a > 0 required")

    def values(y, nodes):
        pos, neg = _moment_table(a, nodes)
        return y**n * _rewrite(y, *pos, b) * _rewrite(-a * y, *neg, c)

    return gauss_legendre(values, _moment_edges(a), _MOMENT_NODES, tol)


# ---------------------------------------------------------------------------
# Monte Carlo sampling of the Gaussian ensemble with external source
# ---------------------------------------------------------------------------


class McConfig:
    """Reproducible Monte Carlo configuration; immutable by convention.

    Sample i's counter of the counter-based Philox generator is set to
    i * 4096 under the seed's key, so estimates are bit-identical for a given
    seed and independent of batching.
    """

    __slots__ = ("N", "eigenvalues", "s_values", "sample_count", "rng_seed")

    def __init__(
        self, N: int, eigenvalues: tuple, s_values: tuple, sample_count=10_000, rng_seed=20121220
    ):
        if N < 1 or len(eigenvalues) != N:
            raise UsageError("need N >= 1 and exactly N source eigenvalues")
        if not 1 <= len(s_values) <= 2:
            raise UsageError("one or two insertions supported")
        if sample_count < 2:
            raise UsageError("need at least 2 samples for a standard error")
        if not all(isfinite(x) for x in (*eigenvalues, *s_values)):
            raise UsageError("eigenvalues and s values must be finite")
        if not 0 <= rng_seed < 2**128:
            raise UsageError("seed must lie in [0, 2^128), the Philox key range")
        # every sample draws two N x N normal matrices; cap both like any numeric rule
        check_size(sample_count, unit="Monte Carlo samples")
        check_size(2 * N * N)
        self.N, self.eigenvalues, self.s_values = N, eigenvalues, s_values
        self.sample_count, self.rng_seed = sample_count, rng_seed


_DRAWS_PER_SAMPLE = 4096  # Philox counter stride per sample index
_WORD = (1 << 64) - 1
# samples per batched eigendecomposition, capped at 4 MiB per complex
# (chunk, N, N) stack, which lowers the count only past N = 8
_CHUNK_SAMPLES = 4096
_CHUNK_BYTES = 1 << 22


def _substream_states(seed: int, samples):
    """Yield the Philox state of each sample i in samples: counter i * 4096 under the seed's key.

    A fresh Philox(key=seed) has counter 0 and an empty buffer, and advance(d)
    leaves it at counter d with the buffer still empty, so sample i's state is
    the one Philox(key=seed).advance(i * 4096) reaches.  One dict is updated in
    place and yielded each time; it holds lists, not arrays, because the state
    setter indexes every word, which is cheaper on a list.
    """
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [seed & _WORD, seed >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in samples:
        c = i * _DRAWS_PER_SAMPLE
        counter[:] = [c & _WORD, c >> 64 & _WORD, c >> 128 & _WORD, c >> 192 & _WORD]
        yield state


def mc_trace_moments(cfg: McConfig) -> tuple[float, float]:
    """Monte Carlo estimate of (1/N) <prod_i tr e^{s_i M}> with its std error.

    Each sample is M = A + G with G drawn from exp(-N/2 tr G^2).  That
    measure has <G_ii^2> = <|G_ij|^2> = 1/N; symmetrizing a standard complex
    Gaussian gives both variances equal to 1/2, so a factor sqrt(2/N)
    finishes the job.

    Sample i draws from its own Philox substream, its counter set to i * 4096
    under the seed's key, so every sample, and with the accumulation in
    sample order every bit of the result, is fixed by the seed alone.  Samples
    are stacked in chunks for one batched eigendecomposition each; the chunk
    size does not change the result.  An estimate or error that leaves the
    float range raises NumericError.
    """
    if all(s == 0 for s in cfg.s_values):
        return float(cfg.N ** (len(cfg.s_values) - 1)), 0.0
    import numpy as np

    n = cfg.N
    count = cfg.sample_count
    chunk = max(1, min(_CHUNK_SAMPLES, _CHUNK_BYTES // (16 * n * n)))
    source = np.diag(np.asarray(cfg.eigenvalues, dtype=float))
    bit = np.random.Philox(key=cfg.rng_seed)
    rng = np.random.Generator(bit)
    states = _substream_states(cfg.rng_seed, range(count))
    total = 0.0
    total_sq = 0.0
    for first in range(0, count, chunk):
        size = min(chunk, count - first)
        normals = np.empty((size, 2, n, n))  # re and im parts of each sample
        for out, state in zip(normals, states):  # normals first: zip takes no state past the chunk
            bit.state = state
            rng.standard_normal(out=out)
        x = (normals[:, 0] + 1j * normals[:, 1]) / sqrt(2.0)
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
    if not (isfinite(mean) and isfinite(stderr)):
        raise NumericError(f"Monte Carlo estimate {mean!r} +- {stderr!r} is not finite")
    return mean, stderr


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
