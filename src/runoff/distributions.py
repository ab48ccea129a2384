"""Random streams, the Tweedie sampler and closed-form moments for the
allocation hierarchy.

Streams are value types: the draw sequence is fully determined by the
(seed, stream_id) pair, so draws stay pure and safe to make from any
thread. Other draws come straight from a stream's numpy generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 round: a full-avalanche permutation of 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream identified by (seed, stream_id).

    Child streams are derived by folding integer indices through
    splitmix64, so structured keys such as (replication, accident year)
    map to well-separated stream ids no matter how the work is
    scheduled. Folding is sequential: ``derive(a, b)`` equals
    ``derive(a).derive(b)``.
    """

    seed: int
    stream_id: int = 0

    def derive(self, *indices: int) -> RngStream:
        sid = self.stream_id & _MASK64
        for ix in indices:
            sid = _splitmix64(sid ^ _splitmix64(ix & _MASK64))
        return RngStream(self.seed, sid)

    def generator(self) -> np.random.Generator:
        # The generator default_rng builds from a SeedSequence, built
        # directly: default_rng's dispatch costs about a quarter of
        # the call.
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed & _MASK64, self.stream_id & _MASK64))
        ))


class BetaPrimeMoments(NamedTuple):
    mean: float | None
    variance: float | None


def beta_prime_moments(c: float, F: float) -> BetaPrimeMoments:
    """Moments of (1-W)/W for W ~ Beta(c*F, c*(1-F)).

    The mean c(1-F)/(cF-1) exists only for cF > 1 and the variance
    c(1-F)(c-1)/((cF-1)^2 (cF-2)) only for cF > 2; entries outside
    their existence region are returned as None rather than raised,
    because the distribution itself is proper.
    """
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if not 0.0 < F < 1.0:
        raise ValueError(f"F must lie in (0, 1), got {F}")
    a = c * F
    mean = c * (1.0 - F) / (a - 1.0) if a > 1.0 else None
    variance = (
        c * (1.0 - F) * (c - 1.0) / ((a - 1.0) ** 2 * (a - 2.0)) if a > 2.0 else None
    )
    return BetaPrimeMoments(mean, variance)


def sample_tweedie(
    nu: np.ndarray,
    phi: float,
    p: float,
    rng: RngStream | np.random.Generator,
) -> np.ndarray:
    """Compound Poisson-Gamma draws with mean nu and variance phi * nu^p.

    Each entry draws N ~ Poisson(nu^(2-p) / (phi (2-p))) claims and sums
    N Gamma(shape (2-p)/(p-1), scale phi (p-1) nu^(p-1)) severities;
    N = 0 (and nu = 0) yield an exact zero.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"tweedie power must lie in (1, 2), got {p}")
    if phi <= 0.0:
        raise ValueError(f"dispersion must be positive, got {phi}")
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0.0):
        raise ValueError("tweedie mean must be non-negative")
    g = rng.generator() if isinstance(rng, RngStream) else rng
    lam = nu ** (2.0 - p) / (phi * (2.0 - p))
    alpha = (2.0 - p) / (p - 1.0)
    scale = phi * (p - 1.0) * nu ** (p - 1.0)
    claims = g.poisson(lam=lam)
    # Gamma with shape 0 is an exact point mass at 0, so zero-claim cells
    # need no special casing.
    return g.gamma(shape=claims * alpha, scale=scale)
