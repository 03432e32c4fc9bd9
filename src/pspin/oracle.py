"""Independent numeric verification: quadrature and Monte Carlo oracles.

Nothing here touches the exact engine's reduction rules; identities are
evaluated from the defining integrals and the random-matrix measure directly,
so agreement with the engine is a genuine two-route check.

The quadrature layer (Gauss-Legendre rules, Ai and the Airy moments) works in
plain floats and ``math``, and sums with ``math.fsum``, which rounds
correctly and needs no BLAS; only the Monte Carlo sampler imports numpy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from decimal import Context, Decimal, localcontext
from functools import cache, lru_cache
from itertools import repeat
from math import ceil, cos, exp, fsum, isfinite, isnan, pi, sqrt
from operator import mul

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

_NEWTON_DIGITS = Context(prec=36)


def _newton_step(n: int, x):
    """(P_n(x) / P_n'(x), P_n'(x)) by the three-term recurrence, in x's own arithmetic."""
    p0, p1 = 1, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    slope = n * (x * p1 - p0) / (x * x - 1)
    return p1 / slope, slope


@cache
def _legendre(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending nodes and weights of the nodes-point Gauss-Legendre rule on
    [-1, 1], for an even number of nodes.

    Each root x > 0 of P_nodes is found by Newton's method in floats from
    cos(pi (i + 3/4) / (nodes + 1/2)), then refined by two Newton steps in
    36-digit decimal, where its weight 2 / ((1 - x^2) P'(x)^2) is taken too;
    the negative roots are the mirror images.  So each node and weight is the
    float nearest its exact value, up to ties within 1e-30 of a rounding
    boundary.
    """
    half = []  # (x, w) for the roots x > 0, descending
    for i in range(nodes // 2):
        x = cos(pi * (i + 0.75) / (nodes + 0.5))
        step = 1.0
        while abs(step) > 1e-10:
            step = _newton_step(nodes, x)[0]
            x -= step
        with localcontext(_NEWTON_DIGITS):
            d = Decimal(x)
            for _ in range(2):
                step, slope = _newton_step(nodes, d)
                d -= step
            half.append((float(d), float(2 / ((1 - d * d) * slope * slope))))
    rule = [(-x, w) for x, w in half] + half[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


@lru_cache(maxsize=16)
def _panel_rule(edges: tuple, nodes: int) -> tuple[array, array]:
    """Points and weights of the nodes-point Gauss-Legendre rule on each panel,
    as arrays of doubles."""
    check_size((len(edges) - 1) * nodes)
    t, w = _legendre(nodes)
    points, weights = array("d"), array("d")
    for lo, hi in zip(edges, edges[1:]):
        half = (hi - lo) / 2
        mid = lo + half
        points.extend([mid + half * u for u in t])
        weights.extend([half * v for v in w])
    return points, weights


def gauss_legendre(values, edges: tuple, nodes: int, tol: float, relative: bool = False) -> float:
    """Certified integral over the panels [edges[i], edges[i+1]].

    values(x, m) gives the integrand at the points x of the m-point
    rule (m lets a caller cache tables per rule).  The integral is computed
    with nodes and 2 nodes per panel and the 2 nodes value returned; a
    difference above tol (above tol * max(1, |integral|) when relative), or a
    NaN, raises NumericError.
    """
    q = []
    for m in (nodes, 2 * nodes):
        x, w = _panel_rule(edges, m)
        q.append(fsum(map(mul, w, values(x, m))))
    err = abs(q[1] - q[0])
    bound = tol * max(1.0, abs(q[1])) if relative else tol
    if not err <= bound:
        raise NumericError(f"quadrature error estimate {err:.3g} exceeds tol {bound:.3g}")
    return q[1]


# ---------------------------------------------------------------------------
# the Airy function Ai on the real line
# ---------------------------------------------------------------------------

_TAYLOR_EPS = 2.0**-60  # Taylor terms below this share of the scale are dropped
_ASYMPTOTIC_FROM = 12.0  # DLMF 9.7.5-6 carry full precision for x >= 12 (e^{-2 zeta} ~ 1e-24)
_ASYMPTOTIC_TERMS = 25
_LANDING_RTOL = 1e-13


# Ai(0) = 1/(3^{2/3} Gamma(2/3)) and Ai'(0) = -1/(3^{1/3} Gamma(1/3)), correctly rounded
_AI_ZERO = (0.3550280538878172, -0.2588194037928068)


def _taylor(x0: float, y: float, dy: float, r: float) -> list:
    """Taylor coefficients at x0, highest degree first, of the solution of
    y'' = x y with y, y' given at x0, for offsets up to r.

    c_0 = y, c_1 = y' and k (k-1) c_k = x0 c_{k-2} + c_{k-3}, so with
    e_k = |c_k| r^k, e_{k+1} <= q_k max(e_{k-1}, e_{k-2}) for
    q_k = (|x0| r^2 + r^3) / (k (k+1)).  The series stops once three terms in
    a row have e_k <= 2^-60 (|y| + |y'| r) and q_k <= 1/2, so the dropped tail
    is below 2^-58 of that scale.
    """
    eps = _TAYLOR_EPS * (abs(y) + abs(dy) * r)
    growth = abs(x0) * r * r + r**3
    coeffs = [y, dy]
    e2, e1, e0 = 0.0, abs(y), abs(dy) * r  # e_{k-2}, e_{k-1}, e_k at k = 1
    k = 1
    while e0 > eps or e1 > eps or e2 > eps or growth > k * (k + 1) / 2:
        k += 1
        before = coeffs[k - 3] if k > 2 else 0.0
        coeffs.append((x0 * coeffs[k - 2] + before) / (k * (k - 1)))
        e2, e1, e0 = e1, e0, abs(coeffs[k]) * r**k
    return coeffs[::-1]


def _horner(coeffs: list, t: float) -> tuple[float, float]:
    """(p(t), p'(t)) for the polynomial p with coeffs, highest degree first."""
    val = slope = 0.0
    for c in coeffs:
        slope = slope * t + val
        val = val * t + c
    return val, slope


def _step(x: float) -> float:
    """Step length from x: |x| grows by at most 0.5 along the step, so the
    length stays within min(0.5, 1/sqrt|x|) at every point of it."""
    return min(0.5, 1 / sqrt(abs(x) + 0.5))


def _walk(grid: list, y: float, dy: float) -> tuple[list, list]:
    """(Ai, Ai') along grid, stepped from the values y, dy at grid[0]."""
    vals, slopes = [y], [dy]
    for x0, x1 in zip(grid, grid[1:]):
        y, dy = _horner(_taylor(x0, y, dy, abs(x1 - x0)), x1 - x0)
        vals.append(y)
        slopes.append(dy)
    return vals, slopes


def _asymptotic(x: float) -> tuple[float, float]:
    """(Ai, Ai') for x >= 12 from the series of DLMF 9.7.5-6."""
    zeta = 2 / 3 * x**1.5
    u, su, sv = 1.0, 1.0, 1.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k)
        sign = (-1) ** k / zeta**k
        su = su + sign * u
        sv = sv - sign * (6 * k + 1) / (6 * k - 1) * u
    scale = exp(-zeta) / (2 * sqrt(pi))
    quarter = x**0.25
    return scale / quarter * su, -scale * quarter * sv


@cache
def _positive_walk():
    """Grid on [0, 12] with (Ai, Ai'), stepped down from the asymptotic values.

    Stepping toward 0 follows the growing direction of Ai, so errors stay
    relative; the walk must land on the closed-form Ai(0), Ai'(0).
    """
    grid = [_ASYMPTOTIC_FROM]
    while grid[-1] > 0:
        grid.append(max(0.0, grid[-1] - _step(grid[-1])))
    vals, slopes = _walk(grid, *_asymptotic(grid[0]))
    for got, want in zip((vals[-1], slopes[-1]), _AI_ZERO):
        if not abs(got - want) <= _LANDING_RTOL * abs(want):
            raise NumericError(f"Airy walk landed on {got!r}, not {want!r}")
    return grid[::-1], vals[::-1], slopes[::-1]


def _negative_walk(depth: int):
    """Grid on [-depth, 0], ascending, with (Ai, Ai') stepped from Ai(0), Ai'(0).

    Both solutions oscillate on this side, so neither direction is preferred.
    """
    grid = [0.0]
    while grid[-1] > -depth:
        grid.append(grid[-1] - _step(grid[-1]))
    return tuple(v[::-1] for v in (grid, *_walk(grid, *_AI_ZERO)))


def _from_grid(x: float, grid, vals, slopes) -> tuple[float, float]:
    """Taylor step from the nearest point of an ascending grid."""
    i = min(max(bisect_left(grid, x), 1), len(grid) - 1)
    i -= (x - grid[i - 1]) < (grid[i] - x)
    t = x - grid[i]
    return _horner(_taylor(grid[i], vals[i], slopes[i], abs(t)), t)


def _airy(xs) -> tuple[list, list]:
    """(Ai(x), Ai'(x)) as two lists, for the finite reals x in xs.

    x <= 0 steps forward from the closed forms at 0; 0 < x < 12 steps from
    the walk down from 12; x >= 12 uses the asymptotic series.
    """
    xs = list(xs)
    if any(map(isnan, xs)):
        raise NumericError("Airy function of NaN")
    depth = -min(xs, default=0.0)
    negative = None
    if depth >= 0:
        # a walk takes about 1/min(0.5, 1/sqrt(|x| + 0.5)) steps per unit length
        check_size(2 * depth + 2 / 3 * (depth + 0.5) ** 1.5, _MAX_STEPS, "Airy walk steps")
        negative = _negative_walk(max(1, ceil(depth)))
    pairs = [
        _from_grid(x, *negative) if x <= 0
        else _from_grid(x, *_positive_walk()) if x < _ASYMPTOTIC_FROM
        else _asymptotic(x)
        for x in xs
    ]
    return [v for v, _ in pairs], [s for _, s in pairs]


def _rewrite(xs, ai, aip, order: int) -> list:
    """Ai^{(k)} at the points xs for k = 0..order, from Ai, Ai' there and
    Ai^{(m+2)} = x Ai^{(m)} + m Ai^{(m-1)}; orders past 1 are arrays of doubles."""
    vals = [ai, aip]
    for m in range(order - 1):
        prev = vals[m - 1] if m else repeat(0.0)
        vals.append(array("d", [x * v + m * u for x, v, u in zip(xs, vals[m], prev)]))
    return vals


def ai_deriv(y, order: int):
    """Ai^{(order)}(y), from Ai, Ai' and the rewrite Ai'' = y Ai.

    A float y gives a float; a sequence of floats gives a list.
    """
    if isinstance(y, (int, float)):
        return ai_deriv([y], order)[0]
    xs = [float(v) for v in y]
    return list(_rewrite(xs, *_airy(xs), order)[order])


# ---------------------------------------------------------------------------
# moments int_0^inf y^n Ai^{(b)}(y) Ai^{(c)}(-a y) dy
# ---------------------------------------------------------------------------

# Ai^{(b)}(y) falls like y^{b/2-1/4} e^{-2/3 y^{3/2}} and Ai^{(c)}(-x) grows at
# most like x^{c/2-1/4}: past Y = 24 (e^{-78}) the integrand stays below 1e-17
# for n <= 8, b, c <= 3 and any a the walk cap admits, so [0, Y] suffices.
_MOMENT_UPPER = 24.0
_MOMENT_NODES = 12
_PANEL_PHASE = 4.0  # radians of Ai(-a y) per panel


def _moment_panels(a: float) -> int:
    """Uniform panels on [0, Y]; Ai(-a y) turns at rate a^{3/2} sqrt(y) <= a^{3/2} sqrt(Y)."""
    panels = _MOMENT_UPPER * max(2.0, a**1.5 * sqrt(_MOMENT_UPPER) / _PANEL_PHASE)
    check_size(3 * _MOMENT_NODES * panels)
    return ceil(panels)


@cache
def _moment_edges(panels: int) -> tuple:
    """panels + 1 edges i * (Y / panels) from 0, Y itself last.  Recorded quadrature
    values depend on these floats; i * Y / panels differs at some panel counts."""
    step = _MOMENT_UPPER / panels
    return tuple(i * step for i in range(panels)) + (_MOMENT_UPPER,)


def _airy_table(panels: int, scale: float) -> dict:
    """{m: [Ai^{(k)}(scale y) for k = 0..3]} as arrays of doubles at the
    points y of the m-point rules, m = 12 and 24, on the moment panels.

    Ai is expanded once per panel, about scale times its midpoint, and the
    expansion serves the points of both rules in that panel.
    """
    edges = _moment_edges(panels)
    centers = [scale * (lo + (hi - lo) / 2) for lo, hi in zip(edges, edges[1:])]
    rules = {m: array("d", [scale * y for y in _panel_rule(edges, m)[0]])
             for m in (_MOMENT_NODES, 2 * _MOMENT_NODES)}
    ai, aip = {m: array("d") for m in rules}, {m: array("d") for m in rules}
    for j, (x0, y, dy) in enumerate(zip(centers, *_airy(centers))):
        coeffs = _taylor(x0, y, dy, abs(scale) * (edges[j + 1] - edges[j]) / 2)
        for m, xs in rules.items():
            for x in xs[j * m:(j + 1) * m]:
                v, s = _horner(coeffs, x - x0)
                ai[m].append(v)
                aip[m].append(s)
    return {m: _rewrite(xs, ai[m], aip[m], 3) for m, xs in rules.items()}


@lru_cache(maxsize=4)
def _positive_table(panels: int) -> dict:
    """Ai^{(b)}(y) at the rule points: every a with the same panel count shares it."""
    return _airy_table(panels, 1.0)


@lru_cache(maxsize=32)
def _powers(panels: int, nodes: int, n: int) -> array:
    """y^n at the points y of the nodes-point rule on the moment panels."""
    return array("d", [y**n for y in _panel_rule(_moment_edges(panels), nodes)[0]])


@lru_cache(maxsize=8)
def _negative_table(a: float) -> dict:
    """Ai^{(c)}(-a y) at the rule points.  Bounded: callers take all their
    moments at one a before the next."""
    return _airy_table(_moment_panels(a), -a)


def quad_moment(n: int, b: int, c: int, a: float, tol: float = 1e-9) -> float:
    """int_0^inf y^n Ai^{(b)}(y) Ai^{(c)}(-a y) dy by certified Gauss-Legendre.

    Derivative orders count differentiation of Ai with respect to its own
    argument, evaluated at -a y.  Convergence relies on the decay of the
    first factor at +infinity (p=3 oscillatory kernel only); the second
    factor is polynomially bounded for y >= 0.  Points, weights, powers of y
    and Airy values are cached per panel count and per a, so all moments at
    one a share them.
    """
    if n > 8 or b > 3 or c > 3:
        raise UsageError("quadrature oracle restricted to n <= 8, b,c <= 3")
    if a <= 0:
        raise DomainError("a > 0 required")
    panels = _moment_panels(a)
    pos, neg = _positive_table(panels), _negative_table(a)

    def values(y, nodes):
        return map(mul, _powers(panels, nodes, n), map(mul, pos[nodes][b], neg[nodes][c]))

    return gauss_legendre(values, _moment_edges(panels), _MOMENT_NODES, tol)


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
