"""Shared fixtures: the golden-ratio worked example and small builders."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, settings

from badapprox.engine import full_step
from badapprox.geometry import Ball, Hyperplane
from badapprox.resonance import (
    ResonanceEntry,
    ResonanceSequence,
    best_approximations,
    golden_theta,
    lacunary_normalize,
)
from badapprox.schedule import derive_params

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def golden():
    """Scalar target F30/F31 with its continued-fraction expansion."""
    return golden_theta()


@pytest.fixture(scope="session")
def golden_records(golden):
    return best_approximations(golden, 1000)


@pytest.fixture(scope="session")
def golden_seq(golden_records):
    """Thinned family sequence with ratio 3: sizes 1, 3, 13, 55, 233, 987."""
    return lacunary_normalize(golden_records, 3)


@pytest.fixture(scope="session")
def golden_params():
    """alpha=1/4, beta=1/2, M=3, n=1 — every derived constant is pinned."""
    return derive_params(Fraction(1, 4), Fraction(1, 2), 3, 1)


def make_sequence(vectors, lacunarity=3, qualities=None):
    """Build a ResonanceSequence directly from integer vectors (test helper)."""
    entries = []
    for i, v in enumerate(vectors):
        v = tuple(int(x) for x in v)
        nsq = sum(x * x for x in v)
        q = None if qualities is None else qualities[i]
        entries.append(ResonanceEntry(v, nsq, q))
    return ResonanceSequence(tuple(entries), Fraction(lacunarity))


def long_rational(rng, lo, hi) -> Fraction:
    """A rational in [lo, hi) over 2^k * o, k up to 1500 and o a small odd
    number, as the game's late centers and radii are (test helper)."""
    den = (1 << rng.randrange(1501)) * (2 * rng.randrange(40) + 1)
    return lo + (hi - lo) * Fraction(rng.randrange(den), den)


def make_records(pairs):
    """Approximation records from (vector, quality) pairs (test helper)."""
    out = []
    for v, q in pairs:
        v = tuple(int(x) for x in v)
        out.append(ResonanceEntry(v, sum(x * x for x in v), Fraction(q)))
    return out


def escape_drive(direction):
    """White policy (test helper): step (1 - alpha) * rho along a fixed unit
    direction (v, L) on every move, the push that escape drives make."""

    def policy(state):
        return full_step(direction, state.params.alpha), None

    return policy


def cap_selection_inputs():
    """200 seeded select_cap inputs (test helper): (ball, planes, params, seed)
    in n = 1 and 2 alternately, a ball of radius 1/64 and 1..20 planes
    through integer offsets near its center."""
    params = {n: derive_params(Fraction(1, 4), Fraction(1, 2), 3, n) for n in (1, 2)}
    rng = Random(404)
    for trial in range(200):
        n = trial % 2 + 1
        center = tuple(Fraction(rng.randrange(-50, 51), 100) for _ in range(n))
        ball = Ball(center, Fraction(1, 64))
        planes = []
        for _ in range(rng.randrange(1, 21)):
            u = tuple(rng.randrange(-9, 10) for _ in range(n))
            if all(c == 0 for c in u):
                u = (1,) + (0,) * (n - 1)
            a = round(sum(Fraction(c) * x for c, x in zip(u, center)))
            planes.append(Hyperplane(u, a))
        yield ball, planes, params[n], trial
