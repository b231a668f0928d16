"""numpy's `default_rng` random streams, reproduced bit for bit and drawn for a batch of streams at once.

Stream e is the one `np.random.default_rng(e)` draws from, for e a sequence of
non-negative ints (an int seed x is the sequence (x,)).  As numpy 2.x does it:

- SeedSequence hashes e's 32-bit words (each int low word first, 0 as one
  word) into a pool of four words and cycles the pool into four 64-bit words,
  paired little-endian: PCG64's initial state w0:w1 and sequence w2:w3.
- PCG64 steps a 128-bit LCG, state * MULT + inc, and outputs
  rotr64(hi ^ lo, state >> 122) after each step.
- A 32-bit draw takes the low half of an output and keeps the high half for
  the next 32-bit draw, across calls.  Every draw here is one: a bounded draw
  in [0, r] with r < 2**32 takes Lemire's method (`integers`, `choice`) or
  masked rejection (`shuffle`), and r = 0 draws nothing.
- `choice(m, k, replace=False)` draws Floyd's k values and then a
  Fisher-Yates pass over them, or, when m > 10,000 and k > m // 50, the last
  k places of a tail shuffle of range(m).

A batch of T streams is a few arrays: the state and the increment as 64-bit
limbs, and the buffered half.  The next K outputs of every stream are one
block, MULT**k * state + inc * sum(MULT**j for j < k) mod 2**128 for
k = 1..K, with those factors precomputed.  A rejected draw moves its stream's
later draws on by one, so streams stay exact without stepping one at a time.

numpy's NEP 19 keeps bit generator streams fixed but lets the `Generator`
methods change their algorithms between releases; with every algorithm here,
the forest's trees and folds no longer depend on numpy's random module, and
tests/test_streams.py checks that they still equal what it draws.  Not
importing `numpy.random` also keeps OpenSSL out of a run: it imports
`secrets`, which maps libcrypto through `hmac`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

M32 = 0xFFFFFFFF
BLOCK = 64  # outputs per block: the precomputed factors cover k = 1..BLOCK
CHUNK = 1 << 13  # positions that one run of lanes of a bounded draw holds

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
_TAIL_SHUFFLE_POPULATION = 10_000  # numpy's choice tail-shuffles a larger population when k > m // 50


def _factors():
    """(hi, lo) limbs of MULT**k and of sum(MULT**j for j < k) mod 2**128, k = 1..BLOCK."""
    mult, total, columns = 1, 0, []
    for _ in range(BLOCK):
        mult, total = mult * _MULT % 2**128, (total + mult) % 2**128
        columns.append((mult >> 64, mult & 2**64 - 1, total >> 64, total & 2**64 - 1))
    return (np.array(column, dtype=np.uint64) for column in zip(*columns))


_A_HI, _A_LO, _C_HI, _C_LO = _factors()


def _mul64(a: np.ndarray, b: np.ndarray):
    """(hi, lo) words of the 128-bit products a * b of uint64 arrays."""
    a0, a1, b0, b1 = a & M32, a >> 32, b & M32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & M32) + (p10 & M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """a * b mod 2**128, each as (hi, lo) uint64 limbs."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _entropy_words(entropy: Sequence[int]) -> List[int]:
    """SeedSequence's 32-bit words of a sequence of ints: each low word first, 0 as one word."""
    words = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words.append(value & M32)
        while value := value >> 32:
            words.append(value & M32)
    return words


def _seed_state(words: np.ndarray):
    """SeedSequence(words of each row).generate_state(4, np.uint64), as four uint64 columns."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & M32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros(len(words), dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & M32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Streams:
    """A batch of random streams, one per entropy sequence, each drawn as numpy's `default_rng` draws it.

    Every call draws for the given lanes (all by default) and leaves each
    lane where numpy's Generator would be after the same calls.
    """

    def __init__(self, entropies: Sequence[Sequence[int]]):
        words = [_entropy_words(e) for e in entropies]
        if not words:
            raise ValueError("need at least one stream")
        # SeedSequence hashes a missing pool word as 0, so entropies of up to four words seed as one batch
        counts = np.array([max(len(w), _POOL_SIZE) for w in words])  # np.unique would load numpy.ma
        state = np.empty((4, len(words)), dtype=np.uint64)
        for count in set(counts.tolist()):
            lanes = np.flatnonzero(counts == count)
            padded = [words[i] + [0] * (count - len(words[i])) for i in lanes.tolist()]
            state[:, lanes] = _seed_state(np.array(padded, dtype=np.uint32))
        w0, w1, w2, w3 = state
        # inc = 2 * (w2:w3) + 1; the state steps once from 0, adds w0:w1, and steps again
        self._inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
        hi, lo = _add128(*self._inc, w0, w1)
        self._hi, self._lo = _add128(*_mul128(hi, lo, _A_HI[:1], _A_LO[:1]), *self._inc)
        self._has_half = np.zeros(len(words), dtype=bool)
        self._half = np.zeros(len(words), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._hi)

    def _draws(self, lanes: np.ndarray, size: int):
        """Each lane's next size + 1 (or more) 32-bit draws, as rows, and its state after each output."""
        s_hi, s_lo = self._hi[lanes, None], self._lo[lanes, None]
        inc_hi, inc_lo = self._inc[0][lanes, None], self._inc[1][lanes, None]
        his, los = [], []
        for start in range(0, size // 2 + 1, BLOCK):
            k = min(BLOCK, size // 2 + 1 - start)
            hi, lo = _add128(
                *_mul128(s_hi, s_lo, _A_HI[:k], _A_LO[:k]), *_mul128(inc_hi, inc_lo, _C_HI[:k], _C_LO[:k])
            )
            his.append(hi)
            los.append(lo)
            s_hi, s_lo = hi[:, -1:], lo[:, -1:]
        hi, lo = (np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0] for parts in (his, los))
        x, rot = hi ^ lo, hi >> 58
        out = x >> rot | x << (64 - rot & 63)
        draws = np.empty((len(lanes), 2 * out.shape[1]), dtype=np.uint64)
        draws[:, 0::2], draws[:, 1::2] = out & M32, out >> 32
        has = self._has_half[lanes]
        if has.any():  # a buffered half comes first, and the lane's last new draw waits for the next call
            draws[has] = np.concatenate([self._half[lanes[has], None], draws[has, :-1]], axis=1)
        return draws, hi, lo

    def bounded(self, ranges, lanes: Optional[Sequence[int]] = None, masked: bool = False) -> np.ndarray:
        """Each lane's next draws in [0, r], one per r in its row of ranges, as a (lanes, positions) array.

        ranges is one row for every lane or one row per lane.  Lemire's
        method, as numpy's `integers` and `choice` bound a draw, or with masked
        the rejection of `shuffle`.  A range of 0 draws nothing.  The lanes are
        distinct; `bounded(np.full(n, n - 1))` is `integers(0, n, size=n)`.
        The result has the smallest unsigned type that holds every range, and
        the lanes draw in runs of at most CHUNK positions.
        """
        lanes = np.arange(len(self)) if lanes is None else np.asarray(lanes, dtype=np.int64)
        ranges = np.asarray(ranges)
        if ranges.size and (ranges.min() < 0 or ranges.max() > M32):
            raise ValueError("bounded draws take ranges from 0 to below 2**32")
        out = np.zeros((len(lanes), ranges.shape[-1]), dtype=np.min_scalar_type(int(ranges.max(initial=0))))
        if not out.size:
            return out
        run = max(1, CHUNK // (ranges.shape[-1] + 1))
        for start in range(0, len(lanes), run):
            part = slice(start, start + run)
            rows = ranges if ranges.ndim == 1 else ranges[part]
            out[part] = self._bounded(rows.astype(np.uint64), lanes[part], masked)
        return out

    def _bounded(self, ranges: np.ndarray, lanes: np.ndarray, masked: bool) -> np.ndarray:
        """bounded for one run of lanes; ranges is one row for all of them, or one row each."""
        drawn = ranges > 0
        # each position's draw; a position that draws nothing keeps the last
        at = np.broadcast_to(np.cumsum(drawn, axis=-1) - 1, (len(lanes), ranges.shape[-1]))
        if at[:, -1].max() < 0:
            return np.zeros(at.shape, dtype=np.uint64)
        if masked:
            mask = ranges.copy()
            for shift in (1, 2, 4, 8, 16):
                mask |= mask >> shift
        else:
            span = ranges + 1
            threshold = (2**32 - span) % span  # 2**32 mod span: Lemire rejects a low word below it
        positions = np.arange(ranges.shape[-1])
        draws, hi, lo = self._draws(lanes, int(at[:, -1].max()) + 1)
        while True:
            u = np.take_along_axis(draws, np.maximum(at, 0), axis=1)
            if masked:
                value = u & mask
                ok = value <= ranges
            else:
                product = u * span
                value, ok = product >> 32, (product & M32) >= threshold
            rejected = drawn & ~ok
            if not rejected.any():
                break
            # a lane redraws its first rejected position from its next draw, which moves every later one on
            first = np.where(rejected.any(axis=1), rejected.argmax(axis=1), len(positions))
            at = at + (positions >= first[:, None])
            if at[:, -1].max() >= draws.shape[1] - 1:  # the draw after a lane's last must exist too
                draws, hi, lo = self._draws(lanes, 2 * int(at[:, -1].max()) + 2)
        value *= drawn
        rows = np.arange(len(lanes))
        used = at[:, -1] + 1
        new = used - self._has_half[lanes]  # draws taken from new outputs
        step = (new + 1) // 2 - 1  # the last output taken; -1 for none
        moved = step >= 0
        self._hi[lanes[moved]] = hi[rows[moved], step[moved]]
        self._lo[lanes[moved]] = lo[rows[moved], step[moved]]
        self._has_half[lanes] = new % 2 == 1
        self._half[lanes] = draws[rows, used]
        return value

    def choice(self, m: int, k: int) -> np.ndarray:
        """(lanes, k) draws of `choice(m, size=k, replace=False)`; index an array with a row to choose from it."""
        return choose(m, k, self.bounded(choice_ranges(m, k)))

    def permutation(self, n: int) -> np.ndarray:
        """(lanes, n) orders that `shuffle` gives an array of n items: x[order] is x shuffled."""
        places = range(n - 1, 0, -1)
        draws = self.bounded(places, masked=True).tolist()
        return np.array([_swapped(list(range(n)), places, row) for row in draws], dtype=np.int64).reshape(len(draws), n)


def _tail_shuffles(m: int, k: int) -> bool:
    return m > _TAIL_SHUFFLE_POPULATION and k > m // 50


def choice_ranges(m: int, k: int) -> List[int]:
    """The bounded draws of `choice(m, size=k, replace=False)`, in order."""
    if not 0 <= k <= m:
        raise ValueError(f"cannot choose {k} of {m} without replacement")
    if _tail_shuffles(m, k):
        return list(range(m - 1, max(m - k, 1) - 1, -1))
    return list(range(m - k, m)) + list(range(k - 1, 0, -1))


def choose(m: int, k: int, draws: np.ndarray) -> np.ndarray:
    """What `choice(m, size=k, replace=False)` returns for each row of draws of choice_ranges(m, k), as a (rows, k) array."""
    draws = draws.astype(np.int64)
    if _tail_shuffles(m, k):  # each draw's range is its place
        return _swap(np.tile(np.arange(m), (len(draws), 1)), choice_ranges(m, k), draws)[:, m - k:]
    chosen = np.empty((len(draws), k), dtype=np.int64)
    for t, j in enumerate(range(m - k, m)):  # Floyd: a value drawn before gives way to j
        value = draws[:, t]
        chosen[:, t] = np.where((chosen[:, :t] == value[:, None]).any(axis=1), j, value)
    return _swap(chosen, range(k - 1, 0, -1), draws[:, k:])


def _swap(items: np.ndarray, places: Sequence[int], draws: np.ndarray) -> np.ndarray:
    """items after swapping, in each row, items[i] with items[j] for each place i and the row's draw j, in order."""
    rows = np.arange(len(items))
    for i, j in zip(places, draws.T):
        items[:, i], items[rows, j] = items[rows, j], items[:, i].copy()
    return items


def _swapped(items: List[int], places: Sequence[int], draws: Sequence[int]) -> List[int]:
    """_swap on one list: a shuffle of one stream costs a numpy call per place there."""
    for i, j in zip(places, draws):
        items[i], items[j] = items[j], items[i]
    return items
