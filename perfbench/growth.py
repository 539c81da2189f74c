"""Size series per layer, with a fitted log-log growth exponent.

Each series times one library call at doubling input sizes (median of a
few repetitions per size, tracing off) and fits log(time) against
log(size).  An exponent near 1 is linear, near 2 quadratic.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

import kleinverify as kv

from stats import loglog_slope

REPEATS = 3

# Doubling size ladders; "tiny" keeps the harness tests fast.
SIZES = {
    "full": {
        "words.pow": (100, 200, 400, 800),
        "laurent.mul": (125, 250, 500, 1000),
        "laurent.quotient": (125, 250, 500, 1000),
        "klein.spoly_mul": (10, 20, 40, 80),
        "division.divide": (250, 500, 1000, 2000),
        "presentations.fox_eval": (60, 120, 240, 480),
        "certificates.expand": (50, 100, 200, 400),
    },
    "tiny": {
        "words.pow": (4, 8, 16),
        "laurent.mul": (4, 8, 16),
        "laurent.quotient": (4, 8, 16),
        "klein.spoly_mul": (2, 4, 8),
        "division.divide": (4, 8, 16),
        "presentations.fox_eval": (4, 8, 16),
        "certificates.expand": (4, 8, 16),
    },
}


def _dense(rng: random.Random, degree: int) -> kv.RPoly:
    coeffs = {e: rng.randint(-9, 9) for e in range(degree + 1)}
    coeffs[0] = coeffs[degree] = rng.choice((1, -1)) * rng.randint(1, 9)
    return kv.RPoly(coeffs)


def _sparse(rng: random.Random, terms: int) -> kv.RPoly:
    return kv.RPoly({rng.randint(-terms, terms): rng.randint(1, 9) for _ in range(terms)})


def _word(rng: random.Random, length: int) -> kv.Word:
    letters: List[Tuple[str, int]] = []
    while len(letters) < length:
        letter = (rng.choice("xy"), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return kv.Word(letters)


def _case(name: str, rng: random.Random, n: int) -> Callable[[], object]:
    """A zero-argument call of the layer at size n; inputs are built here,
    outside the timed call."""
    if name == "words.pow":
        # Alternating generators: cyclically reduced, so base ** n has 4n letters.
        base = kv.Word([(g, rng.choice((1, -1))) for g in "xyxy"])
        return lambda: base ** n
    if name == "laurent.mul":
        a, b = _dense(rng, n), _dense(rng, n)
        return lambda: a * b
    if name == "laurent.quotient":
        a = _dense(rng, n)
        b = a * _dense(rng, n)
        return lambda: kv.quotient(a, b)
    if name == "klein.spoly_mul":
        f = kv.SPoly({m: _sparse(rng, 8) for m in range(n)})
        g = kv.SPoly({m: _sparse(rng, 8) for m in range(n)})
        return lambda: f * g
    if name == "division.divide":
        f = kv.SPoly({m: _sparse(rng, 2) for m in range(n + 1)})
        s = kv.RPoly({rng.randint(-3, 3): rng.choice((1, -1))})
        return lambda: kv.divide(f, s)
    if name == "presentations.fox_eval":
        p = kv.Presentation(("x", "y"), (_word(rng, n),))
        return lambda: kv.boundary_matrices(p, kv.eval_combo)
    if name == "certificates.expand":
        src = kv.builtin.presentation_p()
        factors = tuple(
            kv.CertFactor(_word(rng, rng.randint(1, 3)), 0, rng.choice((1, -1)))
            for _ in range(n)
        )
        cert = kv.ConjugacyCertificate(kv.IDENTITY, factors)
        return lambda: kv.expand_certificate(src, cert)
    raise ValueError(f"unknown series {name!r}")


def run_series(rng: random.Random, scale: str) -> Dict[str, Dict]:
    """{layer: {"exponent": e, "points": [[size, seconds], ...]}}."""
    out = {}
    for name, sizes in SIZES[scale].items():
        points = []
        for n in sizes:
            call = _case(name, rng, n)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            points.append((n, statistics.median(times)))
        out[name] = {"exponent": loglog_slope(points), "points": points}
    return out
