"""The batch stream, computed for many nodes at once.

Node ``i``'s mini-batches are, by contract, what
``RngFactory(seed).node_stream("batch", i).choice(n_i, size=k_i,
replace=False)`` returns, one call per local step. Philox is a
counter-based generator, so that stream needs no generator object: the
``w``-th 32-bit word node ``i`` ever draws is a pure function of the
node's key and ``w``. This module replays the three layers between the
seed and the batch as array arithmetic over all requested nodes —
``SeedSequence`` key derivation, Philox4x64-10, and the small-population
branch of ``Generator.choice`` — bit for bit (the spec is written out
in ``docs/determinism-contracts.md``, "The batch stream"; numpy stays
the oracle in ``tests/test_node_bank.py``).

A stream position is one integer per node: ``consumed``, the number of
32-bit words drawn so far. The two cases the array code does not cover —
a Lemire rejection (probability about 1e-6 per step) and numpy's
tail-shuffle branch for large populations — are replayed by numpy's own
``Generator`` restored at the node's position (:func:`replay`), which is
what keeps the result exact rather than approximate.
"""

from __future__ import annotations

import numpy as np

from .rng import _label_key, restore_generator

__all__ = [
    "RNG_WORDS",
    "pack_states",
    "philox4x64",
    "philox_keys",
    "replay",
    "sample",
    "stream_words",
    "unpack_positions",
]

#: columns of one packed Philox state row: counter 4, key 2, buffer 4,
#: buffer_pos, has_uint32, uinteger
RNG_WORDS = 13

_M32 = 0xFFFFFFFF
_MASK32 = np.uint64(_M32)
_SHIFT32 = np.uint64(32)

# -- SeedSequence ------------------------------------------------------------

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _uint32_words(value: int) -> list[int]:
    """A non-negative integer as little-endian 32-bit words (zero is one
    word), the way ``SeedSequence`` coerces entropy."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


class _Hasher:
    """``SeedSequence``'s running multiplicative hash: the constant
    advances once per word hashed, whatever the word's shape."""

    def __init__(self, init: int, mult: int) -> None:
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _M32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def philox_keys(seed: int, label: str, n: int) -> np.ndarray:
    """The ``(n, 2)`` uint64 Philox keys of ``RngFactory(seed)
    .node_stream(label, i)`` for ``i < n``.

    That generator is seeded by ``SeedSequence(seed, spawn_key=(
    _label_key(label), i)).generate_state(2, uint64)``. Its entropy
    words are the seed's (zero-padded to the pool size), the label
    key's, then ``i``; only the last differs per node, so everything
    before it runs on one-element arrays and broadcasts.
    """
    if not 0 < n <= 1 << 32:
        raise ValueError("node ids must fit one 32-bit entropy word")
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [
        np.array([word], dtype=np.uint32)
        for word in run + _uint32_words(_label_key(label))
    ]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _Hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _Hasher(_INIT_B, _MULT_B)
    low0, high0, low1, high1 = (
        out(pool[j]).astype(np.uint64) for j in range(_POOL_SIZE)
    )
    return np.stack([low0 | high0 << _SHIFT32, low1 | high1 << _SHIFT32], axis=1)


# -- Philox4x64-10 -----------------------------------------------------------

_ROUNDS = 10
# lanes 0 and 2 of the counter are multiplied each round, by these; the
# two products are computed as one (2, ...) array
_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_MULT_LO, _MULT_HI = _MULT & _MASK32, _MULT >> _SHIFT32
_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)


def philox4x64(keys: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks: ``keys`` is ``(..., 2)`` uint64, ``counter``
    the low counter word (the other three are zero — no stream here
    gets past 2**64 blocks), broadcast against ``keys[..., 0]``. Returns
    ``counter.shape + (4,)`` uint64."""
    c0 = np.asarray(counter, dtype=np.uint64)
    tail = (1,) * c0.ndim
    mult, mult_lo, mult_hi, weyl = (
        a.reshape(2, *tail) for a in (_MULT, _MULT_LO, _MULT_HI, _WEYL)
    )
    key = np.stack(
        [np.broadcast_to(keys[..., 0], c0.shape), np.broadcast_to(keys[..., 1], c0.shape)]
    )
    even = np.stack([c0, np.zeros_like(c0)])  # lanes 0, 2
    odd = np.zeros_like(even)  # lanes 1, 3
    for r in range(_ROUNDS):
        if r:
            key = key + weyl
        # high and low 64 bits of the 128-bit products, the high word
        # from 32-bit halves (uint64 arithmetic wraps, which is the low)
        x_lo, x_hi = even & _MASK32, even >> _SHIFT32
        u = mult_hi * x_lo + ((mult_lo * x_lo) >> _SHIFT32)
        v = mult_lo * x_hi + (u & _MASK32)
        high = mult_hi * x_hi + (u >> _SHIFT32) + (v >> _SHIFT32)
        low = mult * even
        # lane 0 takes the product of lane 2 and the reverse
        even, odd = high[::-1] ^ odd ^ key, low[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)


def stream_words(keys: np.ndarray, start: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 32-bit words at positions ``start[r] + at[r, ...]`` of each
    row's stream, as uint64 shaped like ``at``.

    Word ``w`` is a half of 64-bit output ``w // 2`` — the low half when
    ``w`` is even, numpy hands out the low half first — and output ``q``
    is lane ``q % 4`` of block ``q // 4``, generated at counter
    ``q // 4 + 1`` because numpy increments the counter *before* each
    block.
    """
    lead = (start.size,) + (1,) * (at.ndim - 1)
    first = start // 8
    at = at + (start - first * 8).reshape(lead)
    blocks = int(at.max(initial=0)) // 8 + 1
    counter = (first + 1)[:, None] + np.arange(blocks)
    out = philox4x64(keys[:, None, :], counter).reshape(start.size, -1)
    words = np.stack([out & _MASK32, out >> _SHIFT32], axis=-1)
    return words.reshape(start.size, -1)[np.arange(start.size).reshape(lead), at]


# -- packed generator states -------------------------------------------------


def pack_states(keys: np.ndarray, consumed: np.ndarray) -> np.ndarray:
    """The ``(n, 13)`` block of numpy ``Philox`` states sitting
    ``consumed[i]`` words into stream ``i``: what ``bit_generator.state``
    reads after that many 32-bit draws. The counter is the number of
    blocks generated, the buffer the last of them, ``buffer_pos`` how
    many of its four outputs were pulled, ``has_uint32`` whether the
    high half of the last pulled output is still pending and
    ``uinteger`` that high half. An untouched stream has counter 0, a
    zero buffer and ``buffer_pos`` 4."""
    consumed = np.asarray(consumed, dtype=np.int64)
    pulled = (consumed + 1) // 2
    blocks = (pulled + 3) // 4
    buffer_pos = pulled - 4 * blocks + 4
    started = (blocks > 0)[:, None]
    buffer = np.where(started, philox4x64(keys, blocks), np.uint64(0))
    last = np.take_along_axis(buffer, buffer_pos[:, None] - 1, axis=1)
    packed = np.zeros((consumed.size, RNG_WORDS), dtype=np.uint64)
    packed[:, 0] = blocks
    packed[:, 4:6] = keys
    packed[:, 6:10] = buffer
    packed[:, 10] = buffer_pos
    packed[:, 11] = consumed & 1
    packed[:, 12] = last[:, 0] >> _SHIFT32
    return packed


def _position(blocks, buffer_pos, has_uint32):  # ints or int64 arrays
    """Words consumed by a ``Philox`` that generated ``blocks`` blocks,
    pulled ``buffer_pos`` outputs of the last and holds ``has_uint32``
    pending half-outputs."""
    return 8 * (blocks - 1) + 2 * buffer_pos - has_uint32


def unpack_positions(packed: np.ndarray) -> np.ndarray:
    """Words consumed by each row of a packed state block (the inverse
    of :func:`pack_states` on the three position columns)."""
    return _position(*(packed[:, col].astype(np.int64) for col in (0, 10, 11)))


def _generator(packed_row: np.ndarray) -> np.random.Generator:
    return restore_generator({
        "bit_generator": "Philox",
        "state": {"counter": packed_row[0:4], "key": packed_row[4:6]},
        "buffer": packed_row[6:10],
        "buffer_pos": int(packed_row[10]),
        "has_uint32": int(packed_row[11]),
        "uinteger": int(packed_row[12]),
    })


def replay(
    key: np.ndarray, start: int, size: int, k: int, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """One node's next ``steps`` batches by numpy itself: a ``Generator``
    restored ``start`` words into the stream, one ``choice`` per step.
    Returns the ``(steps, k)`` picks and the stream position after each
    step."""
    gen = _generator(pack_states(key[None], np.array([start]))[0])
    picks = np.empty((steps, k), dtype=np.int64)
    ends = np.empty(steps, dtype=np.int64)
    for s in range(steps):
        picks[s] = gen.choice(size, size=k, replace=False)
        state = gen.bit_generator.state
        ends[s] = _position(
            int(state["state"]["counter"][0]),
            state["buffer_pos"], state["has_uint32"],
        )
    return picks, ends


# -- Generator.choice(n, size=k, replace=False) ------------------------------


def _bounded(words: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded draw on ``[0, bound)``: the high half of
    ``word * bound``; the draw is rejected (numpy takes another word)
    when the low half is below ``2**32 % bound``."""
    product = words * bound
    rejected = (product & _MASK32) < np.uint64(1 << 32) % bound
    return (product >> _SHIFT32).astype(np.int64), rejected


def _floyd_shuffle(
    keys: np.ndarray, start: np.ndarray, n: np.ndarray, k: int, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sample` for rows that all draw ``k`` of their ``n[r]``:
    ``(picks, ends, rejected)``, ``rejected[r]`` set when a draw of row
    ``r`` hit a Lemire rejection (its picks are then wrong from that
    step on)."""
    # a node with n == k skips the first Floyd draw's word
    full = (n == k).astype(np.int64)
    per_step = 2 * k - 1 - full
    # draw t of step s sits at word s * per_step + t - full (draw 0 of
    # a full node reads a word it does not own; its value is forced below)
    words = stream_words(
        keys,
        start,
        (np.arange(steps) * per_step[:, None])[:, :, None]
        + np.maximum(np.arange(2 * k - 1) - full[:, None], 0)[:, None, :],
    )
    floyd_top = (n - k)[:, None] + np.arange(k)  # j, per row
    values, rejected = _bounded(
        words[:, :, :k], (floyd_top + 1).astype(np.uint64)[:, None, :]
    )
    rejected[:, :, 0] &= full[:, None] == 0
    values[:, :, 0] *= 1 - full[:, None]
    picks = np.empty_like(values)
    for t in range(k):
        taken = (picks[:, :, :t] == values[:, :, t, None]).any(axis=2)
        picks[:, :, t] = np.where(taken, floyd_top[:, None, t], values[:, :, t])
    swaps, rejected_swaps = _bounded(
        words[:, :, k:], np.arange(k, 1, -1, dtype=np.uint64)
    )
    flat = picks.reshape(-1, k)
    row = np.arange(flat.shape[0])
    for q, i in enumerate(range(k - 1, 0, -1)):
        j = swaps[:, :, q].reshape(-1)
        flat[row, j], flat[row, i] = flat[row, i], flat[row, j]
    ends = start[:, None] + (np.arange(steps) + 1) * per_step[:, None]
    return picks, ends, rejected.any(axis=(1, 2)) | rejected_swaps.any(axis=(1, 2))


def sample(
    keys: np.ndarray,
    start: np.ndarray,
    sizes: np.ndarray,
    k: np.ndarray,
    steps: int,
    columns: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` consecutive ``choice(sizes[r], size=k[r], replace=False)``
    draws for each row ``r``, row ``r``'s stream keyed ``keys[r]`` and
    standing ``start[r]`` words in.

    Returns ``(picks, ends)``: ``picks`` is ``(rows, steps, columns)``
    int64 positions in ``[0, sizes[r])`` (``columns`` defaults to
    ``k.max()``; columns past ``k[r]`` are zero), ``ends[r, s]`` the
    stream position after step ``s``.

    One step, as numpy draws it when ``sizes[r] <= 10000`` or
    ``k[r] <= sizes[r] // 50``: Floyd's algorithm — for ``j`` from
    ``n - k`` to ``n - 1`` draw ``v`` on ``[0, j]`` and pick ``v``, or
    ``j`` itself when ``v`` was already picked — then a Fisher–Yates
    shuffle of the ``k`` picks, ``i`` from ``k - 1`` down to 1 swapping
    slot ``i`` with a draw on ``[0, i]``. A draw on ``[0, 0]`` (the
    first of a node with ``n == k``) consumes no word; every other
    bounded draw consumes one, so a step is ``2k - 1`` words, one fewer
    when ``n == k``. Rows are grouped by ``k`` only: ``n`` varies per
    row inside the arithmetic.

    Rows numpy draws differently (the tail shuffle of large
    populations; 64-bit bounds past ``2**32``) and rows that hit a
    rejection go through :func:`replay`.
    """
    if columns is None:
        columns = int(k.max(initial=0))
    picks = np.zeros((start.size, steps, columns), dtype=np.int64)
    ends = np.empty((start.size, steps), dtype=np.int64)
    by_numpy = ((sizes > 10000) & (k > sizes // 50)) | (sizes > 1 << 32)
    # the distinct widths, ascending (np.unique would load numpy.ma)
    for width in np.flatnonzero(np.bincount(k[~by_numpy])).tolist():
        group = np.flatnonzero((k == width) & ~by_numpy)
        picks[group, :, :width], ends[group], by_numpy[group] = _floyd_shuffle(
            keys[group], start[group], sizes[group], width, steps
        )
    for r in np.flatnonzero(by_numpy).tolist():
        width = int(k[r])
        picks[r, :, :width], ends[r] = replay(
            keys[r], int(start[r]), int(sizes[r]), width, steps
        )
    return picks, ends
