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


def _splitmix64(x: int) -> int:
    """One splitmix64 round: a full-avalanche permutation of 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """_splitmix64 over a 1-d uint64 array; the products wrap modulo 2^64
    (a 0-d operand would warn on that overflow instead)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _derive_ids(stream_ids, *indices) -> np.ndarray:
    """RngStream.derive's fold over many streams: the (n,) uint64 ids of
    RngStream(s, stream_ids[k]).derive(*indices) for k < n. Each index is
    an int, shared by every stream, or an (n,) integer array."""
    sid = np.array(stream_ids, dtype=np.uint64, ndmin=1)
    for ix in indices:
        if np.ndim(ix) == 0:
            sid = _splitmix64_array(sid ^ np.uint64(_splitmix64(int(ix) & _MASK64)))
        else:
            sid = _splitmix64_array(sid ^ _splitmix64_array(np.asarray(ix).astype(np.uint64)))
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
    """[RngStream(s, i).generator() for s, i in zip(seeds, stream_ids)],
    bit for bit, with numpy's SeedSequence hashing run once over all n
    streams. seeds and stream_ids are (n,) arrays of integers in
    [0, 2^64).

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
    seeds = np.array(seeds, dtype=np.uint64, ndmin=1)
    ids = np.array(stream_ids, dtype=np.uint64, ndmin=1)
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
    """Splittable random stream identified by (seed, stream_id).

    Child streams are derived by folding integer indices through
    splitmix64, so structured keys such as (replication, accident year)
    map to well-separated stream ids no matter how the work is
    scheduled. Folding is sequential: ``derive(a, b)`` equals
    ``derive(a).derive(b)``.

    Code that opens many streams at once takes the batched form of the
    same two steps: _derive_ids folds indices over an array of stream
    ids, and _stream_generators(seeds, ids) returns the generators
    ``[RngStream(s, i).generator() for s, i in zip(seeds, ids)]`` would,
    bit for bit, with the seed hashing done once for all of them. These
    two methods stay the single-stream path and the reference the
    batched form is tested against.
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
