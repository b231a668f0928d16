"""granite.streams against numpy: every draw equals `np.random.default_rng`'s, call after call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granite import forest
from granite.dataset import random_under_sample
from granite.streams import M32, Streams, choice_ranges, choose
from test_forest import make_dataset

# word-count edges of SeedSequence: 0 is one word, 2**32 - 1 one and 2**32 two; the forest's seeds are 47-bit
# and the under-sampling seeds up to 62-bit
_EDGES = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**47 - 1, 2**62 - 1)
_ENTROPY_INT = st.sampled_from(_EDGES) | st.integers(0, 2**64)
_ENTROPY = st.lists(_ENTROPY_INT, min_size=1, max_size=3)


def _pcg_state(streams, lane=0):
    """The numpy PCG64 state dict of one lane."""
    return {
        "state": int(streams._hi[lane]) << 64 | int(streams._lo[lane]),
        "inc": int(streams._inc[0][lane]) << 64 | int(streams._inc[1][lane]),
        "has_uint32": int(streams._has_half[lane]),
        "uinteger": int(streams._half[lane]) if streams._has_half[lane] else None,
    }


def _numpy_state(rng):
    state = rng.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    return {**state["state"], "has_uint32": state["has_uint32"], "uinteger": half}


@given(_ENTROPY)
def test_seeding_gives_numpys_pcg64_state(entropy):
    assert _pcg_state(Streams([entropy])) == _numpy_state(np.random.default_rng(entropy))


def test_an_int_seed_is_the_one_int_sequence():
    for seed in _EDGES:
        assert _pcg_state(Streams([(seed,)])) == _numpy_state(np.random.default_rng(seed))


def test_streams_need_some_non_negative_entropy():
    with pytest.raises(ValueError, match="at least one stream"):
        Streams([])
    with pytest.raises(ValueError, match="non-negative"):
        Streams([(-1,)])


@settings(deadline=None)
@given(st.lists(st.lists(_ENTROPY_INT, min_size=1, max_size=6), min_size=1, max_size=6), st.integers(1, 40))
def test_entropies_of_mixed_word_counts_draw_numpys_streams(entropies, n):
    # one batch for streams of one to twelve words: up to four they seed together, longer ones by word count
    streams = Streams(entropies)
    samples = streams.bounded(np.full(n, n - 1))
    for lane, entropy in enumerate(entropies):
        rng = np.random.default_rng(entropy)
        assert np.array_equal(samples[lane], rng.integers(0, n, size=n))
        assert _pcg_state(streams, lane) == _numpy_state(rng)


@given(_ENTROPY, st.integers(1, 200))
def test_full_range_draws_are_the_raw_words_low_half_first(entropy, words):
    draws = Streams([entropy]).bounded(np.full(2 * words, M32))[0]
    raw = np.random.default_rng(entropy).bit_generator.random_raw(words)
    assert np.array_equal(draws[0::2], raw & M32) and np.array_equal(draws[1::2], raw >> 32)


@settings(deadline=None)
@given(_ENTROPY_INT, st.integers(1, 1001), st.integers(1, 12))
def test_bootstrap_samples_of_a_forest_of_streams(seed, n, trees):
    streams = Streams([(seed, i) for i in range(trees)])
    samples = streams.bounded(np.full(n, n - 1))
    for i in range(trees):
        rng = np.random.default_rng([seed, i])
        assert np.array_equal(samples[i], rng.integers(0, n, size=n))
        assert _pcg_state(streams, i) == _numpy_state(rng)


# one call on a Generator and its twin on a one-lane batch; each returns the draws
_CALLS = {
    "integers": (
        st.tuples(st.integers(1, 300), st.integers(0, 9)),
        lambda rng, n, size: rng.integers(0, n, size=size),
        lambda s, n, size: s.bounded(np.full(size, n - 1))[0],
    ),
    "lemire rejects": (  # about 30 % of the draws below 3,000,000,001 are rejected
        st.tuples(st.integers(0, 40)),
        lambda rng, size: rng.integers(0, 3_000_000_001, size=size),
        lambda s, size: s.bounded(np.full(size, 3_000_000_000))[0],
    ),
    "choice": (
        st.integers(1, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
        lambda rng, m, k: rng.choice(m, size=k, replace=False),
        lambda s, m, k: s.choice(m, k)[0],
    ),
    "choice of an array": (
        st.integers(1, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
        lambda rng, m, k: rng.choice(np.arange(m) * 3 + 1, size=k, replace=False),
        lambda s, m, k: (np.arange(m) * 3 + 1)[s.choice(m, k)[0]],
    ),
    "shuffle": (
        st.tuples(st.integers(1, 120)),
        lambda rng, n: _shuffled(rng, np.arange(n) * 7),
        lambda s, n: (np.arange(n) * 7)[s.permutation(n)[0]],
    ),
}


def _shuffled(rng, x):
    rng.shuffle(x)
    return x


@st.composite
def _programs(draw):
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(_CALLS)))
        calls.append((kind, draw(_CALLS[kind][0])))
    return calls


@settings(deadline=None)
@given(_ENTROPY, _programs())
def test_a_sequence_of_calls_draws_what_numpy_draws(entropy, program):
    # integers of odd size leave a buffered half, which the next call takes first
    rng, streams = np.random.default_rng(entropy), Streams([entropy])
    for kind, args in program:
        _, numpy_call, granite_call = _CALLS[kind]
        assert np.array_equal(granite_call(streams, *args), numpy_call(rng, *args)), kind
        assert _pcg_state(streams) == _numpy_state(rng), kind


def test_lemire_rejects_and_redraws_from_the_lanes_next_draw():
    # lanes reject at different places, so each lane's later draws move on by its own count
    streams = Streams([(5, i) for i in range(20)])
    draws = streams.bounded(np.full(60, 3_000_000_000))
    rejected = 0
    for i in range(20):
        rng = np.random.default_rng([5, i])
        words = np.random.default_rng([5, i]).bit_generator.random_raw(60)
        low = np.stack([words & M32, words >> 32], axis=1).ravel()
        rejected += int(np.sum((low[:60] * 3_000_000_001 & M32) < 2**32 % 3_000_000_001))
        assert np.array_equal(draws[i], rng.integers(0, 3_000_000_001, size=60))
        assert _pcg_state(streams, i) == _numpy_state(rng)
    assert rejected > 100


_RANGE = st.sampled_from([0, 1, 6, 255, 3_000_000_000, M32]) | st.integers(0, 1000)


@settings(deadline=None)
@given(_ENTROPY_INT, st.integers(1, 8), st.integers(1, 30), st.data())
def test_per_lane_ranges_draw_what_each_lanes_integers_draw(seed, trees, width, data):
    # a row per lane, zeros anywhere (a range of 0 draws nothing, as integers(0, 1) does not)
    rows = data.draw(st.lists(st.lists(_RANGE, min_size=width, max_size=width), min_size=trees, max_size=trees))
    streams = Streams([(seed, i) for i in range(trees)])
    streams.bounded([1])  # every lane keeps a buffered half
    draws = streams.bounded(np.array(rows, dtype=np.uint64))
    for i, row in enumerate(rows):
        rng = np.random.default_rng([seed, i])
        rng.integers(0, 2)
        assert draws[i].tolist() == [int(rng.integers(0, r + 1)) for r in row]
        assert _pcg_state(streams, i) == _numpy_state(rng)
    assert draws.dtype == np.min_scalar_type(max(max(row) for row in rows))


@settings(deadline=None)
@given(_ENTROPY_INT, st.integers(1, 40), st.integers(1, 30), st.data())
def test_choices_for_some_lanes_leave_the_others_as_they_were(seed, m, trees, data):
    k = data.draw(st.integers(1, m))
    lanes = data.draw(st.lists(st.integers(0, trees - 1), unique=True))
    streams = Streams([(seed, i) for i in range(trees)])
    rngs = [np.random.default_rng([seed, i]) for i in range(trees)]
    first = streams.bounded(np.full(3, 9))  # three draws: every lane keeps a buffered half
    for i, rng in enumerate(rngs):
        assert np.array_equal(first[i], rng.integers(0, 10, size=3))
    # as the forest draws a step's features: one batch for the trees of its impure nodes
    chosen = choose(m, k, streams.bounded(choice_ranges(m, k), lanes)).tolist()
    for row, i in zip(chosen, lanes):
        assert row == rngs[i].choice(m, size=k, replace=False).tolist()
    for i, rng in enumerate(rngs):
        assert _pcg_state(streams, i) == _numpy_state(rng)


@pytest.mark.parametrize(
    "m, k", [(20_000, 401), (10_001, 201), (20_000, 400), (10_001, 199), (10_000, 5_000), (12, 12)]
)
def test_choice_takes_numpys_branch_by_population_and_size(m, k):
    # above 10,000 and k > m // 50 numpy tail-shuffles range(m); otherwise Floyd, then Fisher-Yates
    assert np.array_equal(Streams([(3,)]).choice(m, k)[0], np.random.default_rng(3).choice(m, size=k, replace=False))
    assert len(choice_ranges(m, k)) == (m - max(m - k, 1) if m > 10_000 and k > m // 50 else 2 * k - 1)


def test_choice_of_more_than_the_population_raises():
    with pytest.raises(ValueError, match="cannot choose 3 of 2"):
        choice_ranges(2, 3)


def test_choice_indices_replace_a_repeat_by_j_and_then_swap():
    # Floyd over j = 2, 3, 4 draws 1, 1, 4: the second 1 gives way to 3, then swaps at 2 and 1
    assert choose(5, 3, np.array([[1, 1, 4, 0, 0]]))[0].tolist() == [3, 4, 1]


@pytest.mark.parametrize("majority, minority", [(10_500, 300), (10_500, 200), (40, 15)])
def test_under_sampling_equals_numpys_choice_on_both_branches(majority, minority):
    # 300 > 10,500 // 50 takes the tail shuffle, 200 the Floyd draw
    y = np.array([0] * majority + [1] * minority)
    ds = make_dataset(np.zeros((len(y), 1)), y)
    kept = np.random.default_rng(2**61 + 7).choice(np.flatnonzero(y == 0), size=minority, replace=False)
    keep = np.sort(np.concatenate([np.flatnonzero(y == 1), kept]))
    assert random_under_sample(ds, seed=2**61 + 7).modules == ds.subset(keep).modules


@given(st.lists(st.integers(0, 1), min_size=2, max_size=200), st.integers(2, 10), st.integers(0, 2**47 - 1))
def test_fold_assignment_equals_numpys_shuffles(labels, folds, seed):
    y = np.array(labels, dtype=np.int8)
    rng = np.random.default_rng([seed, 0xF01D])
    want = np.zeros(len(y), dtype=np.int64)
    next_fold = 0
    for label in (1, 0):
        idx = np.flatnonzero(y == label)
        rng.shuffle(idx)
        want[idx] = (next_fold + np.arange(len(idx))) % folds
        next_fold = (next_fold + len(idx)) % folds
    assert np.array_equal(forest._stratified_folds(y, folds, Streams([(seed, 0xF01D)])), want)


def test_ranges_of_2_to_the_32_or_more_are_refused():
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        Streams([(0,)]).bounded([2**32])
