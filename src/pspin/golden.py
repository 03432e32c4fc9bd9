"""Reference intersection-number tables used by golden comparisons.

Values are the published two-point tables for small p and low genus; the
engine must reproduce each entry exactly.  Two-point keys are
(genus, marks), one-point keys (genus, label).
"""

from __future__ import annotations

from fractions import Fraction as F

# two-point tables per p: {(genus, ((m1,j1),(m2,j2))): value}
REFERENCE_TWO_POINT: dict[int, dict] = {
    3: {
        (2, ((0, 1), (4, 1))): F(1, 864),
        (2, ((1, 1), (3, 1))): F(11, 4320),
        (2, ((2, 1), (2, 1))): F(17, 4320),
        (3, ((0, 0), (7, 1))): F(1, 31104),
        (3, ((0, 1), (7, 0))): F(1, 15552),
        (3, ((1, 0), (6, 1))): F(5, 31104),
        (3, ((1, 1), (6, 0))): F(19, 77760),
        (3, ((2, 0), (5, 1))): F(103, 217728),
        (3, ((2, 1), (5, 0))): F(47, 77760),
        (3, ((3, 0), (4, 1))): F(443, 544320),
        (3, ((3, 1), (4, 0))): F(67, 77760),
    },
    4: {
        (1, ((0, 0), (2, 0))): F(1, 8),
        (1, ((1, 0), (1, 0))): F(1, 8),
        (1, ((0, 2), (1, 2))): F(1, 96),
        (2, ((0, 1), (4, 1))): F(1, 320),
    },
    5: {
        (1, ((1, 3), (0, 2))): F(1, 60),
        (1, ((1, 2), (0, 3))): F(1, 60),
        (1, ((1, 0), (1, 0))): F(1, 6),
        (1, ((0, 0), (2, 0))): F(1, 6),
        (2, ((0, 1), (4, 1))): F(7, 1200),
    },
    6: {
        (1, ((0, 3), (1, 3))): F(1, 36),
        (1, ((0, 2), (1, 4))): F(1, 48),
        (1, ((0, 4), (1, 2))): F(1, 48),
    },
    7: {
        (1, ((0, 2), (1, 5))): F(1, 42),
        (1, ((1, 2), (0, 5))): F(1, 42),
        (1, ((0, 4), (1, 3))): F(1, 28),
        (1, ((0, 3), (1, 4))): F(1, 28),
        (1, ((1, 0), (1, 0))): F(1, 4),
        (1, ((0, 0), (2, 0))): F(1, 4),
    },
}

# one-point continuations: {p: {(genus, (n, j)): value}}
REFERENCE_NEGATIVE_P: dict[int, dict] = {
    -3: {
        (1, (1, 0)): F(-1, 6),
        (2, (3, 2)): F(1, 144),
        (3, (6, 1)): F(-35, 34992),
    },
    -1: {
        (1, (1, 0)): F(-1, 12),
        (2, (1, 0)): F(1, 120),
        (3, (1, 0)): F(-1, 252),
        (4, (1, 0)): F(1, 240),
    },
}


def compare(p, points: int, entries, g_max: int | None = None) -> list[str] | None:
    """Drift report against the bundled (p, points) entries at genus <= g_max; None if none.

    Entries are matched by (genus, marks); a one-point reference label (n, j)
    is the single mark ((n, j),).
    """
    if points == 2:
        ref = REFERENCE_TWO_POINT.get(p)
    else:
        ref = REFERENCE_NEGATIVE_P.get(p)
        if ref is not None:
            ref = {(g, (label,)): value for (g, label), value in ref.items()}
    ref = {key: value for key, value in (ref or {}).items() if g_max is None or key[0] <= g_max}
    if not ref:
        return None
    got = {(e.genus, e.marks): F(e.value) for e in entries}
    problems = []
    for (g, marks), want in sorted(ref.items()):
        have = got.get((g, marks))
        if have is None:
            problems.append(f"missing reference entry g={g} marks={marks}")
        elif have != want:
            problems.append(
                f"drift at g={g} marks={marks}: expected {want}, computed {have}"
            )
    return problems
