"""Random streams, the Tweedie sampler and closed-form moments for the
allocation hierarchy.

Streams are value types: the draw sequence is fully determined by the
(seed, stream_id) pair, so draws stay pure and safe to make from any
thread. Other draws come straight from a stream's numpy generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The largest rate numpy's Poisson sampler takes, int64 max - 10 sqrt(int64 max).
_POISSON_LAM_MAX = float(2**63 - 1 - 10 * np.sqrt(2**63 - 1))


def _words64(x) -> np.ndarray:
    """x mod 2^64 as a 1-d uint64 array: an int of any sign as one word,
    an integer array word by word."""
    if np.ndim(x) == 0:
        return np.array([int(x) & _MASK64], dtype=np.uint64)
    return np.asarray(x).astype(np.uint64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 round, a full-avalanche permutation of 64-bit words,
    over a 1-d uint64 array; the products wrap modulo 2^64 (a 0-d operand
    would warn on that overflow instead)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _derive_ids(stream_ids, *indices) -> np.ndarray:
    """The (n,) uint64 ids of n child streams: each index in turn is
    folded into the stream id through splitmix64, id -> splitmix64(id ^
    splitmix64(index)), so structured keys such as (replication, accident
    year) map to well-separated ids however the work is scheduled.
    stream_ids and each index are an int shared by every stream (any
    sign, taken mod 2^64) or an (n,) integer array. Folding is
    sequential: folding (a, b) folds a, then b."""
    sid = _words64(stream_ids)
    for ix in indices:
        sid = _splitmix64(sid ^ _splitmix64(_words64(ix)))
    return sid


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pairs of n successive steps of numpy's
    SeedSequence hash, whose constant advances as h -> h * mult mod 2^32
    whatever the data."""
    xors, mults = [], []
    h = init
    for _ in range(n):
        xors.append(h)
        h = (h * mult) & _MASK32
        mults.append(h)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


def _off_diagonal(steps: np.ndarray) -> np.ndarray:
    """The 12 constants of the pool mixing, 3 per source word in turn, as a
    (4, 4, 1) block: row src holds them at the three other words; the
    diagonal is unused, since a word is not mixed into itself."""
    out = np.zeros((4, 4, 1), dtype=np.uint32)
    out[~np.eye(4, dtype=bool)] = steps[:, None]
    return out


# numpy's SeedSequence (pool size 4) constants: the pool hash runs 4 steps
# on the entropy words, then 3 on each pool word in turn as it is mixed
# into the other three; generate_state runs its own hash over the pool.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_MIX_XOR, _MIX_MUL = _off_diagonal(_POOL_XOR[4:]), _off_diagonal(_POOL_MUL[4:])
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each word at the step constants given."""
    v = (v ^ xor) * mult
    return v ^ (v >> np.uint32(16))


class _PoolState:
    """A seed sequence whose state is already generated: PCG64 takes its
    seed and increment from generate_state(4, uint64), which returns row."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self._row


@functools.cache
def _register_pool_state() -> None:
    """Make _PoolState a numpy ISeedSequence, which PCG64 requires. This
    runs on first use: importing numpy.random adds about 15 ms and 2.7 MiB
    to every command, and a fit never draws."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PoolState)


def _stream_generators(seeds, stream_ids) -> list[np.random.Generator]:
    """The generators of n streams, stream k seeded by (seeds[k],
    stream_ids[k]): the generator
    np.random.Generator(np.random.PCG64(np.random.SeedSequence((s, i))))
    gives, bit for bit, with SeedSequence's hashing run once over all n.
    seeds and stream_ids are each an int shared by every stream (any sign,
    taken mod 2^64) or an (n,) integer array. The tests hold that numpy
    construction as the reference.

    SeedSequence((s, i)) takes as entropy the 32-bit words of s and then
    those of i, low word first, where a value below 2^32 (0 included) is
    one word; its pool hash treats entropy short of 4 words as padded with
    zeros. So the entropy is the (4, n) array s_lo, s_hi, i_lo, i_hi where
    s_hi != 0, and s_lo, i_lo, i_hi, 0 elsewhere. The pool hash and
    generate_state(4, uint64), whose 8 uint32 words cycle the pool twice,
    then run on the columns at once in uint32 arithmetic, and each
    stream's four state words, built as lo | hi << 32, seed its PCG64
    through _PoolState.
    """
    seeds, ids = np.broadcast_arrays(_words64(seeds), _words64(stream_ids))
    hi = np.uint64(32)
    # s_lo, s_hi, i_lo, i_hi (the uint32 cast keeps the low word); where
    # s_hi is 0 the entropy is the same words in the order 0, 2, 3, 1.
    words = np.array([seeds, seeds >> hi, ids, ids >> hi]).astype(np.uint32)
    pool = np.where(words[1] == 0, words[[0, 2, 3, 1]], words)
    pool = _hashmix(pool, _POOL_XOR[:4, None], _POOL_MUL[:4, None])
    for src in range(4):
        h = _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src])
        mixed = _MIX_LEFT * pool - _MIX_RIGHT * h
        mixed ^= mixed >> np.uint32(16)
        mixed[src] = pool[src]
        pool = mixed
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR[:, None], _STATE_MUL[:, None])
    state = state.astype(np.uint64)
    # One C-contiguous row of 4 words per stream: PCG64 reads the buffer raw.
    rows = np.ascontiguousarray((state[0::2] | state[1::2] << hi).T)
    _register_pool_state()
    return [np.random.Generator(np.random.PCG64(_PoolState(row))) for row in rows]


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream identified by (seed, stream_id): the one
    stream case of _derive_ids and _stream_generators, which define the
    streams and open many at once. ``derive(a, b)`` equals
    ``derive(a).derive(b)``.
    """

    seed: int
    stream_id: int = 0

    def derive(self, *indices: int) -> RngStream:
        return RngStream(self.seed, int(_derive_ids(self.stream_id, *indices)[0]))

    def generator(self) -> np.random.Generator:
        return _stream_generators(self.seed, self.stream_id)[0]


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


def _rate_fault(lam: np.ndarray) -> str | None:
    """Why numpy's Poisson sampler rejects rates lam (one NaN or too large), or None."""
    top = np.max(lam)  # NaN if any rate is
    if not top <= _POISSON_LAM_MAX:
        return f"Poisson rate {top:g} is not finite or exceeds numpy's limit {_POISSON_LAM_MAX:.6g}"


def sample_tweedie(
    nu: np.ndarray,
    phi: float,
    p: float,
    g: np.random.Generator,
) -> np.ndarray:
    """Compound Poisson-Gamma draws with mean nu and variance phi * nu^p.

    Each entry draws N ~ Poisson(nu^(2-p) / (phi (2-p))) claims and sums
    N Gamma(shape (2-p)/(p-1), scale phi (p-1) nu^(p-1)) severities;
    N = 0 (and nu = 0) yield an exact zero. A Poisson rate numpy's sampler
    rejects is a ValueError that names it.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"tweedie power must lie in (1, 2), got {p}")
    if phi <= 0.0:
        raise ValueError(f"dispersion must be positive, got {phi}")
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0.0):
        raise ValueError("tweedie mean must be non-negative")
    lam = nu ** (2.0 - p) / (phi * (2.0 - p))
    alpha = (2.0 - p) / (p - 1.0)
    scale = phi * (p - 1.0) * nu ** (p - 1.0)
    if (fault := _rate_fault(lam)) is not None:
        raise ValueError(fault)
    claims = g.poisson(lam=lam)
    # Gamma with shape 0 is an exact point mass at 0, so zero-claim cells
    # need no special casing.
    return g.gamma(shape=claims * alpha, scale=scale)
