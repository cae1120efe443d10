"""Seeded inputs for the benchmark workloads.

Pure standard library, so the runner and the tests can build inputs
without importing tornzeta.  The same seed always gives the same inputs.

The seed decides which series and parameters are checked and in what
order, never how much work a pass is: cutoffs and box sizes come from
fixed grids that the seed only shuffles, and every family appears equally
often.  The spread of a timing across seeds is then the machine's, not the
draw's.  exact-sound is small enough that only its order is seeded.
"""

from __future__ import annotations

import random

# working precision of paper-full, sweep-small and exact-sound
DIGITS = 50

# closed-form families, by spec token, each with a parameter draw
_FAMILY_DRAWS = {
    "A3": lambda rng: f"A3:s={rng.randint(0, 20)}",
    "An": lambda rng: f"An:n={rng.randint(2, 6)},s={rng.randint(0, 6)}",
    "aXL": lambda rng: f"aXL:k={rng.randint(0, 20)}",
    "S111": lambda rng: "S111",
    "ln": lambda rng: "ln",
    "on": lambda rng: "on",
    "baseT": lambda rng: f"baseT:{rng.randint(1, 3)}",
    "halfint": lambda rng: f"halfint:{rng.choice('abc')}",
    "evenodd": lambda rng: "evenodd",
    "oddsq": lambda rng: "oddsq",
    "binter": lambda rng: "binter",
}
FAMILY_TOKENS = tuple(_FAMILY_DRAWS)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# sweep-small: many small verify calls
SWEEP_PER_FAMILY = 300
SWEEP_TOL = 1e-6
SWEEP_RAW_SHARE = 10  # one call in ten sums a raw box
SWEEP_BOX = (20, 80)
SWEEP_CUTOFF_DECADES = (2, 3)


def sweep_items(seed: int) -> list[tuple[str, str, int, float]]:
    """(spec text, method, cutoff, tol) for every verify call of one pass.

    Diagonal cutoffs are spread evenly in log scale over 10^2..10^3 and
    raw boxes evenly over 20..80; the seed assigns them to entries.
    """
    rng = random.Random(seed)
    families = _shuffled(rng, [tok for tok in FAMILY_TOKENS for _ in range(SWEEP_PER_FAMILY)])
    texts = [_FAMILY_DRAWS[tok](rng) for tok in families]
    n = len(texts)
    n_raw = n // SWEEP_RAW_SHARE
    # raw boxes of the 3- to 5-fold An sums are cubic or worse in the box
    raw_at = set(rng.sample([i for i, t in enumerate(texts) if index_dims(t) <= 2], n_raw))
    lo, hi = SWEEP_BOX
    boxes = _shuffled(rng, [lo + (hi - lo) * i // (n_raw - 1) for i in range(n_raw)])
    d_lo, d_hi = SWEEP_CUTOFF_DECADES
    n_diag = n - n_raw
    cutoffs = _shuffled(
        rng,
        [round(10 ** (d_lo + (d_hi - d_lo) * i / (n_diag - 1))) for i in range(n_diag)],
    )
    items = []
    for i, text in enumerate(texts):
        if i in raw_at:
            items.append((text, "raw", boxes.pop(), SWEEP_TOL))
        else:
            items.append((text, "diagonal", cutoffs.pop(), SWEEP_TOL))
    return items


# hiprec-quad: quadrature and constants at high precision
HIPREC_DIGITS = (100, 200, 300)
HIPREC_QUAD_LEVELS = 16
HIPREC_SPECS = ("A3:s=0", "An:n=4,s=0", "An:n=5,s=3", "An:n=3,s=5", "An:n=2,s=0")


def hiprec_items(seed: int) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """(quadrature checks, closed-form evaluations), each as (spec text, digits).

    The quadrature specs are fixed; the seed orders them and draws the
    parameters of one closed form per family, evaluated at every precision.
    """
    rng = random.Random(seed)
    quad = _shuffled(rng, [(text, d) for text in HIPREC_SPECS for d in HIPREC_DIGITS])
    closed = _shuffled(
        rng, [(_FAMILY_DRAWS[tok](rng), d) for tok in FAMILY_TOKENS for d in HIPREC_DIGITS]
    )
    return quad, closed


# exact-sound: Fraction partial sums of every family, one spec per cutoff.
# The specs are fixed: with only 39 checks, a drawn parameter would move
# certified_digits_sum by several percent from seed to seed.
EXACT_CUTOFFS = (60, 90, 120)
# the An:n=4 simplex and box are cubic in the cutoff
EXACT_CUTOFFS_CUBIC = (20, 28, 36)
_EXACT_SLOTS = (
    ("A3:s={}", (0, 7, 20)),
    ("An:n=2,s={}", (0, 3, 6)),
    ("An:n=3,s={}", (0, 3, 6)),
    ("An:n=4,s={}", (0, 3, 6)),
    ("aXL:k={}", (0, 7, 20)),
    ("S111", ("",) * 3),
    ("ln", ("",) * 3),
    ("on", ("",) * 3),
    ("baseT:{}", (1, 2, 3)),
    ("halfint:{}", ("a", "b", "c")),
    ("evenodd", ("",) * 3),
    ("oddsq", ("",) * 3),
    ("binter", ("",) * 3),
)


def exact_items(seed: int) -> list[tuple[str, int]]:
    """(spec text, cutoff) for every exact check of one pass, in seeded order."""
    items = []
    for template, params in _EXACT_SLOTS:
        for param, cutoff, cubic in zip(params, EXACT_CUTOFFS, EXACT_CUTOFFS_CUBIC):
            text = template.format(param)
            items.append((text, cubic if index_dims(text) == 3 else cutoff))
    return _shuffled(random.Random(seed), items)


def index_dims(text: str) -> int:
    """Number of summation indices in the defining form of a spec."""
    token = text.split(":")[0]
    if token == "An":
        return int(text.split("n=")[1].split(",")[0]) - 1
    if token in ("A3", "S111", "baseT", "halfint", "binter", "tornheim"):
        return 2
    return 1
