import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import transferlab as tl
from transferlab import cli, distributions
from transferlab.distributions import member_disagreement_mass


def all_ones_index(family):
    return int(np.flatnonzero((family.sigmas == 1).all(axis=1))[0])


def _u64(rows) -> np.ndarray:
    """Stream keys' entries or seeds, in the one form the stream batch reads."""
    return np.array(rows, dtype=np.uint64)


def _streams(seeds) -> list:
    """One batch of fresh streams, stream t that of seeds[t], as a cell builds them."""
    return distributions._stream_batch((), _u64(seeds)[:, None])


# ---------------------------------------------------------------------------
# sampling


def test_sample_empty():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    joint = fam.pairs[0].q
    # an empty finite-support draw is zero counts over the whole support
    s = tl.sample_labeled(joint, 0, seed=1)
    assert len(s) == 0
    assert s.points.tolist() == s.ones.tolist() == [0] * joint.size
    assert s.points.dtype == s.ones.dtype == np.int64
    u = tl.sample_unlabeled(joint, 0, seed=1)
    assert (len(u), u.points.tolist(), u.ones) == (0, [0] * joint.size, None)
    # an empty line draw has the dtypes of a non-empty one
    line = tl.example_scenario(3, gamma=2.0).p
    s = tl.sample_labeled(line, 0, seed=1)
    assert len(s) == 0
    assert (s.xs.dtype, s.ys.dtype) == (np.float64, np.int8)
    assert s.xs.shape == s.ys.shape == (0,)
    assert tl.sample_unlabeled(line, 0, seed=1).xs.dtype == np.float64


@pytest.mark.parametrize("n", [0, 1, 7, 4096])
def test_draws_replay_the_oracle_points(n):
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    ring, _ = tl.example_scenario(1)
    line = tl.example_scenario(3, gamma=2.0)
    cells, _ = tl.discretize_pair(line, 256)
    dists = (fam.pairs[0].p, fam.pairs[0].q, ring.p, cells.p, cells.q, line.p, line.q,
             tl.example_scenario(4, gamma=0.5).p)
    for dist in dists:
        for seed in range(20):
            got = tl.sample_labeled(dist, n, seed)
            unlabeled = tl.sample_unlabeled(dist, n, seed)
            if isinstance(dist, tl.DiscreteJoint):
                # counts of n draws that only the joint's cells can hold
                assert got.points.dtype == got.ones.dtype == unlabeled.points.dtype == np.int64
                assert len(got) == len(unlabeled) == n and unlabeled.ones is None
                for c in (got.points, unlabeled.points):
                    assert (c >= 0).all() and not c[dist.mass == 0].any()
                assert (0 <= got.ones).all() and (got.ones <= got.points).all()
                assert not got.ones[dist.eta == 0].any()
                assert np.array_equal(got.ones[dist.eta == 1], got.points[dist.eta == 1])
                continue
            want = oracles.sample_labeled(dist, n, seed)
            assert got.xs.dtype == want.xs.dtype == unlabeled.xs.dtype
            assert got.ys.dtype == want.ys.dtype == np.int8
            assert np.array_equal(got.xs, want.xs) and np.array_equal(got.ys, want.ys)
            assert np.array_equal(unlabeled.xs, want.xs)
            assert got.seed == unlabeled.seed == seed


# the law test: three joints with a zero-mass cell and eta 0, fractional and
# 1; every draw is pooled over seeds 0..19 of 50_000 draws each
LAW_JOINTS = (([0.5, 0.0, 0.3, 0.2], [0.0, 0.5, 0.3, 1.0]),
              ([0.1, 0.2, 0.7], [1.0, 0.25, 0.0]),
              ([0.25, 0.25, 0.0, 0.5], [0.6, 0.0, 1.0, 0.9]))
LAW_SEEDS, LAW_N = range(20), 50_000
# Each of the 6 checks (3 joints x labeled/unlabeled) rejects at most 1e-6/6
# of the time under the chi-square law of Pearson's statistic, so the test
# fails a correct sampler with probability <= 1e-6.  The expected count of
# every cell that can be hit is >= 1e6 * 0.05 = 50_000, far inside the
# chi-square approximation.
LAW_ALPHA = 1e-6 / 6


def _law_cells(mass, eta):
    """The cell probabilities of a labeled and of an unlabeled draw."""
    mass, eta = np.asarray(mass), np.asarray(eta)
    return np.column_stack((mass * (1 - eta), mass * eta)).ravel(), mass


def _pooled(sample, joint):
    """Cell counts of the pooled draws: labeled as (x, 0), (x, 1) pairs."""
    total = 0
    for seed in LAW_SEEDS:
        c = sample(joint, LAW_N, seed)
        total = total + (c.points if c.ones is None
                         else np.column_stack((c.points - c.ones, c.ones)).ravel())
    return total


def _rejects(counts, p) -> bool:
    """Pearson's chi-square test of counts against N p at level LAW_ALPHA; a
    count in a zero-probability cell rejects at once.  The critical value is
    Laurent and Massart's bound on the chi-square quantile with k degrees of
    freedom: P(X >= k + 2 sqrt(k x) + 2 x) <= exp(-x)."""
    pos = p > 0
    if counts[~pos].any():
        return True
    expected = counts.sum() * p[pos]
    stat = float(np.sum((counts[pos] - expected) ** 2 / expected))
    k, x = int(pos.sum()) - 1, math.log(1 / LAW_ALPHA)
    return stat > k + 2 * math.sqrt(k * x) + 2 * x


def test_finite_draws_follow_their_law(monkeypatch):
    for mass, eta in LAW_JOINTS:
        joint = tl.DiscreteJoint(np.arange(float(len(mass))), mass, eta)
        p_labeled, p_unlabeled = _law_cells(mass, eta)
        assert not _rejects(_pooled(tl.sample_labeled, joint), p_labeled)
        assert not _rejects(_pooled(tl.sample_unlabeled, joint), p_unlabeled)
        # a sampler that labels with 1 - eta fails
        flipped = tl.DiscreteJoint(joint.support, mass, 1 - np.asarray(eta))
        assert _rejects(_pooled(tl.sample_labeled, flipped), p_labeled)
    # a sampler that moves 0.01 of probability from its largest cell to the
    # last other cell that can be hit fails
    real = distributions._multinomial

    def shifted(n, p, seed):
        p = p / p.sum()
        i, hit = np.argmax(p), np.flatnonzero(p > 0)
        p[i] -= 0.01
        p[hit[hit != i][-1]] += 0.01
        return real(n, p, seed)

    monkeypatch.setattr(distributions, "_multinomial", shifted)
    for mass, eta in LAW_JOINTS:
        joint = tl.DiscreteJoint(np.arange(float(len(mass))), mass, eta)
        p_labeled, p_unlabeled = _law_cells(mass, eta)
        assert _rejects(_pooled(tl.sample_labeled, joint), p_labeled)
        assert _rejects(_pooled(tl.sample_unlabeled, joint), p_unlabeled)


def test_a_draw_holds_at_most_2_53_draws():
    # up to 2^53 draws every count sum is exact, so no disagreement reads < 0
    # (at 2^55 one read -3.6e-17); past it a draw is refused before numpy's
    # multinomial, which raised OverflowError from 2^63 on
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    joint = fam.pairs[0].q
    s = tl.sample_labeled(joint, 2 ** 53, seed=1)
    assert len(s) == 2 ** 53 and int(s.points.sum()) == 2 ** 53
    best = int(np.argmin(tl.hypotheses.member_risks(fam.cls, s)))
    assert (tl.hypotheses.member_disagreements(fam.cls, best, s) >= 0).all()
    for n in (2 ** 53 + 1, 2 ** 63, 2 ** 70):
        for draw in (lambda: tl.sample_labeled(joint, n, seed=1),
                     lambda: tl.sample_unlabeled(joint, n, seed=1),
                     lambda: distributions._labeled_trials(joint, n, _streams([1, 2]))):
            with pytest.raises(ValueError, match=rf"n is {n}, above the 2\^53 draws"):
                draw()
    with pytest.raises(ValueError, match=r"above the 2\^53"):
        s + tl.sample_labeled(joint, 1, seed=2)


def test_empty_draws_build_no_generator(monkeypatch):
    calls = []
    real = distributions.rng_from
    monkeypatch.setattr(distributions, "rng_from",
                        lambda *a: calls.append(a) or real(*a))
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    for dist in (fam.pairs[0].q, tl.example_scenario(3, gamma=2.0).p):
        tl.sample_labeled(dist, 0, seed=1)
        tl.sample_unlabeled(dist, 0, seed=1)
        assert calls == []
    tl.sample_labeled(fam.pairs[0].q, 3, seed=1)
    tl.sample_unlabeled(fam.pairs[0].q, 3, seed=2)
    assert calls == [(1,), (2,)]


def test_trial_draws_are_the_per_trial_draws():
    # column t of a batched draw holds exactly sample_labeled's counts on seeds[t]
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    joint, seeds = fam.pairs[2].q, np.array([7, 2 ** 62 - 1, 0, 7], dtype=np.uint64)
    for n in (0, 1, 100, 2 ** 20):
        batch = distributions._labeled_trials(joint, n, _streams(seeds))
        assert batch.points.shape == batch.ones.shape == (joint.size, len(seeds))
        assert len(batch) == n
        for t, seed in enumerate(seeds.tolist()):
            want = tl.sample_labeled(joint, n, seed)
            assert np.array_equal(batch.points[:, t], want.points)
            assert np.array_equal(batch.ones[:, t], want.ones)
    assert not joint.cell_probs.flags.writeable


def test_rng_from_keeps_short_paths_apart():
    # keys that shared a stream while paths were padded with zero words
    def first(*key):
        return distributions.rng_from(*key).random(4)
    assert not np.array_equal(first(5, 0, 1), first(5, 0, 1, 0))
    assert not np.array_equal(first(2 ** 32 + 5, 1), first(5, 1, 1))
    assert not np.array_equal(first(5), first(5, 0))

    # the CLI source draw of trial 0 at --seed 2^32 + 5 and of trial 1 at --seed 5
    def draw_seed(seed, trial, *source):
        return cli._draw(lambda dist, n, s: s, None, 1, seed, trial, cli._SOURCE, *source)
    assert draw_seed(2 ** 32 + 5, 0) != draw_seed(5, 1)
    assert draw_seed(2 ** 32 + 5, 0, 2) != draw_seed(5, 1, 2)


def _decode(words):
    """(seed, path) back from `_seed_words`: each value's word count, then
    its words, least significant first."""
    values, i = [], 0
    while i < len(words):
        k = int(words[i])
        assert k >= 1 and i + k < len(words) and (k == 1 or words[i + k] != 0)
        values.append(sum(int(w) << (32 * j) for j, w in enumerate(words[i + 1:i + 1 + k])))
        i += 1 + k
    return values[0], tuple(values[1:])


# path entries of one, two and three words, with zeros and word edges often
ENTRIES = st.one_of(st.sampled_from([0, 1, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 64,
                                     2 ** 64 + 5]),
                    st.integers(0, 2 ** 96 - 1))
KEYS = st.tuples(st.one_of(st.sampled_from([0, 5, 2 ** 32 + 5, 2 ** 64 + 5, -5]),
                           st.integers(-2 ** 65, 2 ** 65)),
                 st.lists(ENTRIES, max_size=4).map(tuple))


@st.composite
def key_pairs(draw):
    """Two keys, the second often the first with trailing zeros added or
    dropped, or its seed moved by 2^32 or 2^64."""
    seed, path = a = draw(KEYS)
    zeros = (0,) * draw(st.integers(1, 3))
    b = draw(st.one_of(KEYS, st.just((seed, path + zeros)),
                       st.just((seed, path[:-1])) if path else KEYS,
                       st.sampled_from([(seed + 2 ** 32, path), (seed + 2 ** 64, path),
                                        (seed, (seed % 2 ** 64,) + path)])))
    return a, b


@settings(max_examples=300, deadline=None)
@given(key_pairs())
def test_seed_words_are_injective(pair):
    (seed_a, path_a), (seed_b, path_b) = pair
    key_a, key_b = (seed_a % 2 ** 64, path_a), (seed_b % 2 ** 64, path_b)
    words_a = distributions._seed_words(seed_a, path_a)
    words_b = distributions._seed_words(seed_b, path_b)
    assert _decode(words_a) == key_a and _decode(words_b) == key_b
    # SeedSequence pads entropy shorter than four words with zeros

    def padded(w):
        return tuple(w.tolist()) + (0,) * (4 - w.size)
    assert (padded(words_a) == padded(words_b)) == (key_a == key_b)


# seeds below 2^32, of two words, above 2^64 and negative: rng_from reads any
# seed mod 2^64
SEEDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 66),
                  st.integers(-2 ** 64, -1))
PATH_WORDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 70))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.lists(PATH_WORDS, max_size=4), st.sampled_from([62, 63]),
       st.integers(1, 2 ** 40))
def test_derive_seed_equals_the_bounded_generator_draw(seed, path, bits, neg):
    want = int(oracles.rng_from(seed, *path).integers(2 ** bits))
    assert int(distributions.rng_from(seed, *path).integers(2 ** bits)) == want
    assert distributions.derive_seed(seed, *path, bits=bits) == want
    # the uint32 words give the stream of the ints
    assert np.array_equal(distributions.rng_from(seed, *path).random(3),
                          oracles.rng_from(seed, *path).random(3))
    for fn in (oracles.rng_from, distributions.rng_from, distributions.derive_seed):
        with pytest.raises(ValueError):
            fn(seed, *path, -neg)


# batch entries of one word and of two, which may share a column
ENTRY = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1))


@st.composite
def stream_batches(draw):
    """A batch's shared prefix and its rows of entries: a prefix of any seed
    and path, or none, so that each key's first entry is its seed (a
    derived seed of one or two words at the second level); then 1 to 8
    rows of 1 to 3 entries, as a uint64 array."""
    prefix = draw(st.one_of(st.just(()), st.tuples(SEEDS, st.lists(PATH_WORDS, max_size=2)).map(
        lambda k: (k[0], *k[1]))))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(ENTRY, min_size=width, max_size=width), min_size=1, max_size=8))
    return prefix, _u64(rows)


@settings(max_examples=150, deadline=None)
@given(stream_batches(), st.integers(1, 2 ** 40))
# a cell's keys (seed, cell, t, side), of 8 words, and of 9 for a two-word
# seed; then a negative seed and one above 2^64, each read mod 2^64
@example(((1, 7), _u64([[t, side] for side in (0, 1) for t in range(3)])), 1)
@example(((2 ** 32 + 5, 7), _u64([[t, side] for side in (0, 1) for t in range(3)])), 1)
@example(((-3, 7), _u64([[0, 0], [1, 1]])), 2 ** 33)
@example(((2 ** 64 + 9, 7), _u64([[0, 0], [1, 1]])), 2 ** 33)
# derived seeds at the second level, one- and two-word ones in one column
@example(((), _u64([[7], [2 ** 62 - 1], [0], [2 ** 32 - 1], [2 ** 32]])), 1)
@example(((5,), _u64([[1, 2 ** 40], [2 ** 40, 1], [3, 4], [2 ** 64 - 1, 0]])), 1)
@example(((5, 9), _u64([[0]] * 3)), 1)
def test_stream_batch_matches_numpy_streams(batch, neg):
    # bit for bit numpy's SeedSequence, and so its PCG64, on every key of a batch
    prefix, rows = batch
    streams = distributions._stream_batch(prefix, rows)
    derived = distributions._derived_seeds(prefix, rows)
    keys = [(*prefix, *row) for row in rows.tolist()]
    assert len(streams) == derived.size == len(keys)
    assert derived.dtype == np.uint64
    for key, bit_generator, seed in zip(keys, streams, derived.tolist()):
        assert isinstance(bit_generator, np.random.PCG64)
        assert distributions.rng_from(*key).bit_generator.state == bit_generator.state, key
        assert oracles.rng_from(*key).bit_generator.state == bit_generator.state, key
        assert distributions.derive_seed(*key) == seed, key
        assert int(oracles.rng_from(*key).integers(2 ** 62)) == seed, key
    with pytest.raises(ValueError, match="rng path entries must be >= 0"):
        distributions._stream_batch((1, -neg), rows)


@settings(max_examples=30, deadline=None)
@given(st.lists(ENTRY, min_size=1, max_size=6), st.integers(0, 200))
def test_labeled_trials_draw_each_seeds_stream(seeds, n):
    # column t is a fresh `rng_from(seeds[t])`'s multinomial over the cells
    # (x, 0), (x, 1), split into points and ones, whatever the column before drew
    joint = tl.DiscreteJoint(np.arange(3.0), [0.2, 0.3, 0.5], [0.9, 0.4, 0.1])
    batch = distributions._labeled_trials(joint, n, _streams(seeds))
    for t, seed in enumerate(seeds):
        cells = distributions.rng_from(seed).multinomial(n, joint.cell_probs)
        assert np.array_equal(batch.points[:, t], cells[0::2] + cells[1::2])
        assert np.array_equal(batch.ones[:, t], cells[1::2])


ONE_WORD = st.integers(0, 2 ** 32 - 1)
MIXED = [[0, 0], [2 ** 32, 1], [5, 2 ** 63], [2 ** 64 - 1, 2 ** 40], [7, 1]]


@settings(max_examples=60, deadline=None)
@given(st.one_of(ONE_WORD, st.integers(2 ** 32, 2 ** 64 - 1)),
       st.one_of(ONE_WORD, st.integers(2 ** 32, 2 ** 64 - 1)),
       st.one_of(st.lists(st.tuples(ONE_WORD, ONE_WORD), min_size=1, max_size=6),
                 st.lists(st.tuples(ENTRY, ENTRY), min_size=1, max_size=6)))
# heads of 4, 5 and 6 words: a one-word seed and cell key, a two-word seed,
# and a two-word cell key too; each with keys of several word counts and with
# a cell's keys, which have one
@example(5, 7, MIXED)
@example(5, 7, [[t, side] for side in (0, 1) for t in range(4)])
@example(2 ** 32 + 5, 7, MIXED)
@example(2 ** 32 + 5, 7, [[t, side] for side in (0, 1) for t in range(4)])
@example(2 ** 40, 2 ** 33, MIXED)
@example(2 ** 40, 2 ** 33, [[t, side] for side in (0, 1) for t in range(4)])
def test_derived_seeds_over_a_shared_head_equal_derive_seed(seed, cell_key, rows):
    # a prefix of at least 4 words is mixed once, by numpy's SeedSequence, and
    # each key mixes its entries on from there, group by group
    assert len(distributions._key_words(seed, (cell_key,))) in (4, 5, 6)
    derived = distributions._derived_seeds((seed, cell_key), _u64(rows))
    assert derived.tolist() == [distributions.derive_seed(seed, cell_key, *row)
                                for row in rows]


def test_stream_batch_of_no_keys():
    for prefix, width in (((1, 2), 2), ((), 1)):
        no_keys = np.empty((0, width), dtype=np.uint64)
        assert distributions._stream_batch(prefix, no_keys) == []
        derived = distributions._derived_seeds(prefix, no_keys)
        assert derived.dtype == np.uint64 and derived.size == 0


def test_stream_words_are_four_uint64_words_only():
    # PCG64 reads the words' memory, so no other request may get them
    words = distributions._Words(np.arange(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError, match="holds 4 uint64 words only"):
            words.generate_state(n_words, dtype)


# PCG64 seed words: any word, and the edge words 0, 2^64 - 1, 2^63 and the
# 32-bit halves' edges
WORD = st.one_of(st.integers(0, 2 ** 64 - 1),
                 st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=8))
# all zeros, all ones; the seeding add's low words carry (inc's low word
# 2 * 2^63 + 1 = 1 plus 2^64 - 1); the multiply-adds' low words carry and
# their 32-bit halves are all ones
@example([[0, 0, 0, 0], [2 ** 64 - 1] * 4])
@example([[0, 2 ** 64 - 1, 0, 2 ** 63], [2 ** 64 - 1, 2 ** 64 - 1, 2 ** 63, 2 ** 63 - 1]])
@example([[2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1], [1, 2 ** 64 - 2, 0, 2 ** 64 - 1]])
def test_first_raws_equal_numpy_pcg64s_first_draw(rows):
    # PCG64's seeding and first XSL-RR output as 128-bit arithmetic on arrays
    words = _u64(rows)
    raws = distributions._first_raws(words)
    assert raws.dtype == np.uint64
    want = [np.random.PCG64(distributions._Words(w)).random_raw() for w in words]
    assert raws.tolist() == want


def test_true_risks_from_class_rows_equal_true_risk():
    # each chosen member's risk from the class's label rows, bit for bit
    # true_risk's, for a matrix class and a cut class, repeats and all; the
    # noisy joint over the cut's support rounds apart if a row is read strided
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    cut_pair, cut = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 64)
    rng = np.random.default_rng(7)
    noisy = tl.DiscreteJoint(cut_pair.q.support, rng.dirichlet(np.ones(64)), rng.random(64))
    for joint, cls in ((fam.pairs[3].q, fam.cls), (fam.pairs[3].p, fam.cls),
                       (cut_pair.q, cut), (cut_pair.p, cut), (noisy, cut)):
        members = np.concatenate((np.arange(len(cls)), [len(cls) - 1, 0, 5]))
        risks = distributions._true_risks(joint, cls, members)
        assert risks.tolist() == [tl.true_risk(joint, cls[int(i)]) for i in members]


def _off_support():
    """A 9-point joint, and classes over 16 and over 9 points with a 16-point joint."""
    line = tl.example_scenario(3, gamma=2.0)
    d9, _ = tl.discretize_pair(line, 9)
    d16, cut16 = tl.discretize_pair(line, 16)
    return d9, cut16, d16, tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25).cls


# each entry point that reads a joint's mass or eta over a class: a class
# over another support read 9-point prefix sums over a 16-point class, or
# failed in numpy's matmul or broadcasting
OFF_SUPPORT = {
    "best_in_class-cut": (lambda d9, cut16, d16, fam9: tl.best_in_class(d9.q, cut16),
                          "mass of shape (9,) for a class over 16 support points"),
    "best_in_class-matrix": (lambda d9, cut16, d16, fam9: tl.best_in_class(d16.q, fam9),
                             "mass of shape (16,) for a class over 9 support points"),
    "excess_risk": (lambda d9, cut16, d16, fam9: tl.excess_risk(d9.q, cut16[3], cut16),
                    "mass of shape (9,) for a class over 16 support points"),
    "rho_min": (lambda d9, cut16, d16, fam9: tl.rho_min(d9, cut16),
                "mass of shape (9,) for a class over 16 support points"),
    "d_a": (lambda d9, cut16, d16, fam9: tl.d_a(d9, cut16),
            "mass of shape (9,) for a class over 16 support points"),
    "monte_carlo": (lambda d9, cut16, d16, fam9: tl.monte_carlo(d9, cut16, "erm_q", [(8, 8)], 2, 1),
                    "mass of shape (9,) for a class over 16 support points"),
    "member_true_risks-eta": (
        lambda d9, cut16, d16, fam9: distributions.member_true_risks(cut16, d16.q.mass, d9.q.eta),
        "eta of shape (9,) for a class over 16 support points"),
    "member_disagreement_mass": (
        lambda d9, cut16, d16, fam9: member_disagreement_mass(cut16, 0, d9.q.mass),
        "mass of shape (9,) for a class over 16 support points"),
}


@pytest.mark.parametrize("site", OFF_SUPPORT)
def test_a_joint_over_another_support_is_refused(site):
    call, message = OFF_SUPPORT[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*_off_support())


def test_sample_point_mass_deterministic_label():
    joint = tl.DiscreteJoint(np.arange(3.0), [1.0, 0.0, 0.0], [1.0, 0.5, 0.5])
    s = tl.sample_labeled(joint, 5, seed=3)
    assert s.points.tolist() == s.ones.tolist() == [5, 0, 0]


def test_sample_frequencies_match_mass():
    joint = tl.DiscreteJoint(np.arange(4.0), [0.4, 0.3, 0.2, 0.1], [1, 1, 0, 0])
    n = 100_000
    s = tl.sample_labeled(joint, n, seed=5)
    freq = s.points / n
    for f, m in zip(freq, joint.mass):
        sigma = math.sqrt(m * (1 - m) / n)
        assert abs(f - m) <= 3 * sigma


def test_sampling_deterministic_given_seed():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.25, 0.25], [0.9, 0.5, 0.1])
    a = tl.sample_labeled(joint, 100, seed=42)
    b = tl.sample_labeled(joint, 100, seed=42)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.ones, b.ones)


def test_samples_and_joints_compare_by_identity():
    # dataclasses over arrays: == is identity and hash works, where a
    # generated __eq__ raised on the arrays' ambiguous truth value
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.25, 0.25], [0.9, 0.5, 0.1])
    twin = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.25, 0.25], [0.9, 0.5, 0.1])
    line = tl.example_scenario(2).p
    values = (joint, tl.sample_labeled(joint, 8, 1), tl.sample_unlabeled(joint, 8, 1),
              tl.sample_labeled(line, 8, 1), tl.sample_unlabeled(line, 8, 1))
    twins = (twin, tl.sample_labeled(joint, 8, 1), tl.sample_unlabeled(joint, 8, 1),
             tl.sample_labeled(line, 8, 1), tl.sample_unlabeled(line, 8, 1))
    for a, b in zip(values, twins):
        assert a == a and a != b and hash(a) == hash(a)
    assert len(set(values + twins)) == 10
    assert tl.TransferPair(joint, joint) == tl.TransferPair(joint, joint)
    assert tl.TransferPair(joint, joint) != tl.TransferPair(joint, twin)


def test_threshold_scenario_sampling_labels():
    pair = tl.example_scenario(2)
    s = tl.sample_labeled(pair.p, 500, seed=9)
    assert ((s.xs <= 0.5) == (s.ys == 1)).all()
    assert s.xs.min() >= 0.0 and s.xs.max() <= 2.0


# ---------------------------------------------------------------------------
# exact risks


def test_bayes_has_zero_excess_noiseless():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.3, 0.2], [1.0, 0.0, 1.0])
    cls = tl.full_cube_class(3)
    bayes = tl.finite_hypothesis([1, 0, 1])
    assert tl.excess_risk(joint, bayes, cls) == 0.0


def test_example2_excess_identities():
    pair = tl.example_scenario(2)
    for t in (0.1, 0.3, 0.5, 0.8, 1.0):
        h = tl.threshold_hypothesis(t)
        assert tl.true_risk(pair.q, h) == pytest.approx(abs(t - 0.5), abs=1e-15)
        assert tl.true_risk(pair.p, h) == pytest.approx(abs(t - 0.5) / 2, abs=1e-15)


def test_single_scale_family_excess_identity():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    d, eps = 8, 0.25
    for i, j in ((0, 1), (3, 200), (17, 255)):
        dist = int((fam.sigmas[i] != fam.sigmas[j]).sum())
        h = fam.bayes(j)
        pair = fam.pairs[i]
        assert tl.excess_risk(pair.q, h, fam.cls) == pytest.approx(dist / d * eps, abs=1e-12)
        assert tl.excess_risk(pair.p, h, fam.cls) == pytest.approx(dist / d * eps ** 2, abs=1e-12)


def test_single_scale_masses_sum_and_share_marginals():
    fam = tl.build_single_scale_family(13, 4.0, 0.25, 0.9, 0.1)
    first = fam.pairs[0]
    for pair in fam.pairs:
        assert abs(pair.q.mass.sum() - 1.0) < 1e-12
        assert abs(pair.p.mass.sum() - 1.0) < 1e-12
        assert np.array_equal(pair.q.mass, first.q.mass)
        assert np.array_equal(pair.p.mass, first.p.mass)


def test_single_scale_bayes_labels_anchor():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.5)
    for i in (0, 100, 255):
        assert fam.bayes(i).labels[0] == 1
        assert np.array_equal(np.asarray(fam.bayes(i).labels[1:]),
                              (fam.sigmas[i] > 0).astype(int))


def test_sigma_index_selectors():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.5)
    ones = fam.sigma_index("all-ones")
    assert (fam.sigmas[ones] == 1).all()
    assert fam.sigma_index(list(fam.sigmas[5])) == 5
    assert fam.sigma_index(np.int64(255)) == 255
    for bad in (256, -1, "all-zeros"):
        with pytest.raises(ValueError):
            fam.sigma_index(bad)
    # a bool or a vector of another length would broadcast against every
    # sign vector and select the all-ones (or the first) pair
    for bad in (True, False, np.True_):
        with pytest.raises(ValueError, match="bool"):
            fam.sigma_index(bad)
    for bad, shape in (([1], "(1,)"), ([-1], "(1,)"), ([1, 1], "(2,)"),
                       ([1] * 9, "(9,)"), ([[1] * 8], "(1, 8)"), (np.ones(0), "(0,)")):
        with pytest.raises(ValueError, match=rf"shape {re.escape(shape)}, not \(8,\)"):
            fam.sigma_index(bad)


def test_single_scale_rejects_bad_params():
    with pytest.raises(ValueError):
        tl.build_single_scale_family(8, 1.0, 0.5, 0.5, 0.25)  # d = 7 < 8
    with pytest.raises(ValueError):
        tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.75)  # eps > 1/2
    with pytest.raises(ValueError):
        tl.build_single_scale_family(9, 0.5, 0.5, 0.5, 0.25)  # rho < 1


def test_two_scale_anchor_mass_formula():
    d_h, rho, bp, bq, e1, e2 = 11, 2.0, 0.5, 0.75, 0.25, 0.1
    fam = tl.build_two_scale_family(d_h, rho, bp, bq, e1, e2)
    tau = fam.params["tau"]
    q0 = fam.pairs[0].q.mass[0]
    assert q0 == pytest.approx(1 - 0.5 * (e1 ** bq + e2 / tau), abs=1e-15)


def test_two_scale_excess_identity():
    fam = tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.25, 0.125)
    d = fam.sigmas.shape[1]
    half = d // 2
    e1, e2 = fam.params["eps1"], fam.params["eps2"]
    for i, j in ((0, 5), (9, 700)):
        d1 = int((fam.sigmas[i][:half] != fam.sigmas[j][:half]).sum())
        d2 = int((fam.sigmas[i][half:] != fam.sigmas[j][half:]).sum())
        got = tl.excess_risk(fam.pairs[i].q, fam.bayes(j), fam.cls)
        assert got == pytest.approx(d1 / d * e1 + d2 / d * e2, abs=1e-12)


def test_two_scale_rejects_bad_params():
    with pytest.raises(ValueError):
        tl.build_two_scale_family(11, 1.0, 0.5, 0.5, 0.25, 0.25)  # rho < 1/beta
    with pytest.raises(ValueError):
        tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.75, 0.25)  # eps1 too big
    with pytest.raises(ValueError):
        tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.25, 0.25, tau=0.4)
    # an even d_h left a point out: 9 points, vc_dim 8 and 256 pairs, yet
    # params reported d_h 10
    for d_h in (10, 4):
        with pytest.raises(ValueError, match=rf"^d_h must be odd.*got {d_h}$"):
            tl.build_two_scale_family(d_h, 2.0, 0.5, 0.5, 0.25, 0.125)
    # too few points said "need at least 4 usable support points", naming no field
    for d_h in (3, 1):
        with pytest.raises(ValueError, match=rf"^d_h must be >= 5, got {d_h}$"):
            tl.build_two_scale_family(d_h, 2.0, 0.5, 0.5, 0.25, 0.125)


def test_epsilon_schedule_matches_direct_formula():
    d_h, rho, bp, bq = 9, 2.0, 0.5, 0.5
    n_p, n_q = 4096, 64
    want = min((d_h / n_p) ** (1 / ((2 - bp) * rho)), (d_h / n_q) ** (1 / (2 - bq)))
    assert tl.epsilon_schedule(n_p, n_q, d_h, rho, bp, bq) == pytest.approx(want)
    assert tl.epsilon_schedule(10**9, 10**9, d_h, rho, bp, bq) <= 0.5


# ---------------------------------------------------------------------------
# packing


def test_vg_packing_bounds():
    for d in (8, 16, 24, 32):
        pack = tl.vg_packing(d, seed=1)
        assert pack.shape[0] >= 2 ** (d / 8) + 1
        assert np.array_equal(pack[0], np.ones(d, dtype=np.int8))
        assert np.isin(pack, (-1, 1)).all()
        k = pack.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                assert (pack[i] != pack[j]).sum() >= d / 8
        # all distinct follows from the distance bound
        assert len({tuple(row) for row in pack}) == k


def test_vg_packing_instantiated_sizes():
    assert tl.vg_packing(8, seed=0).shape[0] >= 3
    assert tl.vg_packing(16, seed=0).shape[0] >= 5
    with pytest.raises(ValueError):
        tl.vg_packing(7)


@pytest.mark.parametrize("target", [0, -3, 257])
def test_vg_packing_refuses_a_target_outside_one_to_two_to_the_d(target):
    # 0 and -3 returned the all-ones row alone; a packing holds distinct vectors
    with pytest.raises(ValueError, match=re.escape(
            f"target must be in [1, 2^(d - D + 1)] = [1, 256] at d = 8, D = ceil(d/8) = 1, "
            f"got {target}")):
        tl.vg_packing(8, 0, target)


def test_vg_packing_refuses_a_target_past_the_singleton_bound_before_any_draw(monkeypatch):
    # at d = 9 the loop keeps distance 2, so at most 2^8 vectors fit; 257 drew
    # 2.6 million candidates before the stall RuntimeError
    def no_draw(*args):
        raise AssertionError("drew before refusing")
    monkeypatch.setattr(distributions, "rng_from", no_draw)
    with pytest.raises(ValueError, match=re.escape(
            "target must be in [1, 2^(d - D + 1)] = [1, 256] at d = 9, D = ceil(d/8) = 2, "
            "got 257")):
        tl.vg_packing(9, 0, 257)


# sha256 (first 16 hex digits) over seeds 0-4 of repr(shape) + bytes of each
# packing, recorded from the greedy loop that grew the packing by np.vstack
PACKING_DIGESTS = {
    (8, None): "7b532f11fe143b56", (8, 64): "3585fb9560a44da3", (8, 3): "7b532f11fe143b56",
    (9, None): "8390994cf93f6a45", (9, 64): "e8e5868df0633671", (9, 3): "8390994cf93f6a45",
    (12, None): "944167cae0ec1e18", (12, 64): "b5361de6987c30b9", (12, 3): "944167cae0ec1e18",
    (14, None): "aaafbb15842f60c9", (14, 64): "bc5322375e1640c3", (14, 3): "bf6306b4a3e668a2",
    (16, None): "3b1192cd5d37b5d3", (16, 64): "573c796968926242", (16, 3): "7efa09db1ed683f4",
    (24, None): "68f626d4faa8325a", (24, 64): "01e7968f01cd838a", (24, 3): "dd0b30ddfac48dbb",
    (32, None): "f729a137a3886133", (32, 64): "c6b07a5c1fc5ee23", (32, 3): "2542824a9a689c5a",
}


@pytest.mark.parametrize("d, target", sorted(PACKING_DIGESTS, key=str))
def test_vg_packing_is_unchanged(d, target):
    h = hashlib.sha256()
    for seed in range(5):
        pack = tl.vg_packing(d, seed=seed, target=target)
        assert pack.dtype == np.int8 and not pack.flags.writeable
        h.update(repr(pack.shape).encode() + pack.tobytes())
    assert h.hexdigest()[:16] == PACKING_DIGESTS[d, target]


def test_family_builds_a_pair_only_when_indexed(monkeypatch):
    # a checked and a trusted joint both set their arrays through `_set`
    joints = []
    set_arrays = tl.DiscreteJoint._set
    monkeypatch.setattr(tl.DiscreteJoint, "_set",
                        lambda self, *arrays: joints.append(set_arrays(self, *arrays)))
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    two = tl.build_two_scale_family(9, 4.0, 0.5, 0.5, 0.25, 0.125)
    assert joints == []
    # a tie-free family checks pair 0 alone: two joints, built once
    tl.verify_family(fam)
    tl.verify_family(fam)
    tl.verify_family(two)
    assert len(joints) == 4 and list(fam._built) == list(two._built) == [0]
    assert not fam.eta_p.flags.writeable and not fam.mass_q.flags.writeable
    pair = fam.pairs[5]
    assert len(joints) == 6
    assert fam.pairs[5] is pair and fam[5] is pair and fam[5 - len(fam)] is pair
    assert len(joints) == 6
    # every point of this family is a tie point, so every pair is checked
    ties = tl.build_single_scale_family(9, 2000.0, 0.0, 0.5, 0.25)
    tl.verify_family(ties, beta_p=0.5)
    assert len(joints) == 6 + 2 * len(ties) and sorted(ties._built) == list(range(len(ties)))
    assert np.array_equal(pair.p.eta, fam.eta_p[5]) and np.array_equal(pair.q.mass, fam.mass_q)
    assert fam[-1] is fam.pairs[len(fam) - 1]
    with pytest.raises(TypeError):
        fam[0:2]
    for i in (len(fam), -len(fam) - 1):
        with pytest.raises(IndexError):
            fam.pairs[i]


# ---------------------------------------------------------------------------
# scenarios and serialization


def test_density_refuses_an_unknown_form_when_built():
    # it once built, and failed only at its first cdf or ppf
    with pytest.raises(ValueError, match="unknown density form 'bogus'"):
        tl.Density1D(form="bogus")


def test_example4_interval_mass():
    pair = tl.example_scenario(4, gamma=0.5)
    for t in (0.1, 0.25, 0.5, 0.9):
        assert pair.p.density.interval_mass(-t, t) == pytest.approx(t ** 0.5, abs=1e-12)


def test_example_scenario_rejects_bad_gamma():
    with pytest.raises(ValueError):
        tl.example_scenario(3, gamma=0.5)
    with pytest.raises(ValueError):
        tl.example_scenario(4, gamma=1.5)
    with pytest.raises(ValueError):
        tl.example_scenario(7)


def test_ring_surrogate_disjoint_supports():
    pair, cls = tl.example_scenario(1)
    assert float(pair.p.mass @ pair.q.mass) == 0.0  # no shared atoms
    bayes = tl.best_in_class(pair.q, cls)
    assert tl.excess_risk(pair.p, bayes, cls) == 0.0


@pytest.mark.parametrize("k", [4, 6, 8, 10, 16, 32])
def test_ring_surrogate_matches_oracle(k):
    # k = 6 and 10 put points on the half-plane boundary, where only the sign
    # of a rounded cosine decides the label
    _, cls = tl.example_scenario(1, n_angles=k)
    assert [h.labels for h in cls.members] == oracles.ring_members(k)
    assert cls.vc_dim == 2


def test_member_disagreement_mass_matches_formula():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.9, 0.25)
    cut_pair, cut = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 12)
    for joint, cls in ((fam.pairs[5].q, fam.cls), (fam.pairs[5].p, fam.cls),
                       (cut_pair.p, cut), (cut_pair.q, cut)):
        lab = oracles.label_matrix(cls)
        for i in range(len(cls)):
            got = member_disagreement_mass(cls, i, joint.mass)
            # the folded product over member i's own labels gives the same
            # bits; summing the disagreeing masses directly agrees to rounding
            ref = np.asarray(oracles.labels_of(cls[i], cls.support_coords), dtype=np.float64)
            assert np.array_equal(
                got, lab @ (joint.mass * (1.0 - 2.0 * ref)) + np.dot(joint.mass, ref))
            want = ((lab != ref) * joint.mass).sum(axis=1)
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def test_rcs_pair_construction():
    pair, cls = tl.rcs_violating_pair(0.15)
    h_star_p = tl.best_in_class(pair.p, cls)
    assert tl.excess_risk(pair.q, h_star_p, cls) == pytest.approx(0.15, abs=1e-12)


def test_discretize_pair_masses():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 64)
    assert pair.p.size == 64 and len(cls) == 65
    assert abs(pair.p.mass.sum() - 1) < 1e-12
    # Q mass lives on [0, 1] only: first half of the cells
    assert pair.q.mass[32:].sum() == 0.0


def test_discretize_pair_labels_each_side_by_its_own_optimum():
    # P = Q = uniform on [-1, 1], h*_P = 0.2 and h*_Q = 0.5, on cells of width 0.1
    pair, cls = tl.discretize_pair(tl.TransferPair(
        *(tl.ThresholdMarginal(tl.uniform_density(-1.0, 1.0), h) for h in (0.2, 0.5))), 20)
    for joint, h_star in ((pair.p, 0.2), (pair.q, 0.5)):
        assert np.array_equal(joint.eta, joint.support <= h_star)
        assert tl.best_in_class(joint, cls).threshold == pytest.approx(h_star, abs=1e-12)


@pytest.mark.parametrize("cells", [0, -3])
def test_discretize_pair_refuses_fewer_than_one_cell(cells):
    # 0 cells failed as "mass sums to np.float64(0.0), not 1", -3 in numpy's sampler
    with pytest.raises(ValueError, match=re.escape(f"cells must be >= 1, got {cells}")):
        tl.discretize_pair(tl.example_scenario(2), cells)


@pytest.mark.parametrize("cells", [2.5, 4.0, "4", True, None])
def test_discretize_pair_refuses_a_non_integer_cell_count(cells):
    # 2.5 failed in numpy's linspace and "4" as a str >= int comparison
    with pytest.raises(TypeError, match=re.escape(f"cells must be an integer, got {cells!r}")):
        tl.discretize_pair(tl.example_scenario(2), cells)


def test_discretize_pair_takes_a_numpy_integer_cell_count():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), np.int64(4))
    assert pair.p.size == 4 and len(cls) == 5


def test_scenario_3_refuses_an_infinite_gamma():
    # gamma = inf built, and drew every right-side point at 1.0
    for gamma in (math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(f"finite, got {gamma}")):
            tl.example_scenario(3, gamma=gamma)


def test_scenario_roundtrip_exact(tmp_path):
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.9, 0.25)
    pair = fam.pairs[123]
    path = tmp_path / "scenario.json"
    tl.save_scenario(path, pair)
    back = tl.load_scenario(path)
    assert np.array_equal(back.p.mass, pair.p.mass)
    assert np.array_equal(back.p.eta, pair.p.eta)
    assert np.array_equal(back.q.eta, pair.q.eta)
    assert back.certified == pair.certified
    tl.save_scenario(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_scenario_dict_field_names():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    doc = tl.scenario_to_dict(fam.pairs[0])
    assert set(doc) == {"support", "mass_p", "eta_p", "mass_q", "eta_q", "certified"}
    assert set(doc["certified"]) == {"rho", "C_rho", "gamma", "C_gamma",
                                     "beta_P", "beta_Q", "c_P", "c_Q"}


def test_scenario_dict_rejects_unknown_fields():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    doc = tl.scenario_to_dict(fam.pairs[0])
    doc["extra"] = 1
    with pytest.raises(ValueError):
        tl.scenario_from_dict(doc)


@pytest.mark.parametrize("certified,message", [
    ({"rho": "two", "gama": 1.0}, r"unknown certified fields: \['gama'\]"),
    ({"rho": "two"}, "certified.rho must be a number or null, got 'two'"),
    ({"gamma": True}, "certified.gamma must be a number or null, got True"),
    ({"C_rho": [1.0]}, r"certified.C_rho must be a number or null, got \[1.0\]"),
    ([1, 2], r"certified must be a JSON object or null, got \[1, 2\]"),
    ("rho", "certified must be a JSON object or null, got 'rho'"),
])
def test_scenario_dict_rejects_bad_certified(certified, message):
    # these loaded as Certified(rho='two', gamma=None), or raised AttributeError
    doc = tl.scenario_to_dict(tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25).pairs[0])
    with pytest.raises(ValueError, match=message):
        tl.scenario_from_dict({**doc, "certified": certified})


def test_scenario_dict_reads_certified_numbers_and_nulls():
    # integers, floats and null load, and a missing key is null
    doc = tl.scenario_to_dict(tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25).pairs[0])
    pair = tl.scenario_from_dict({**doc, "certified": {"rho": 2, "gamma": 1.5, "c_Q": None}})
    assert pair.certified == tl.Certified(rho=2, gamma=1.5)


@pytest.mark.parametrize("key,value,message", [
    ("mass_p", ["0.2", "0.3", "0.5"], "mass_p[0] must be a number, got '0.2'"),
    ("eta_p", [True, False, True], "eta_p[0] must be a number, got True"),
    ("mass_p", {"a": 1}, "mass_p must be a list of numbers, got {'a': 1}"),
    ("eta_q", [None, 1, 0], "eta_q[0] must be a number, got None"),
    ("support", 3.0, "support must be a list of numbers, got 3.0"),
    ("mass_q", [0.5, [0.3], 0.2], "mass_q[1] must be a number, got [0.3]"),
])
def test_scenario_dict_rejects_arrays_of_non_numbers(key, value, message):
    # strings and bools loaded as numbers, a dict failed in float() and a
    # null as "eta[0] is nan", naming no key
    doc = {"support": [0.0, 1.0, 2.0], "mass_p": [0.2, 0.3, 0.5], "eta_p": [0.9, 0.8, 0.1],
           "mass_q": [0.5, 0.3, 0.2], "eta_q": [1.0, 0.7, 0.0], "certified": None}
    tl.scenario_from_dict(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        tl.scenario_from_dict({**doc, key: value})


@pytest.mark.parametrize("doc", [5, [1, 2], "pair", None])
def test_scenario_dict_rejects_a_non_object(doc):
    # a file holding 5 raised TypeError ("'int' object is not iterable")
    with pytest.raises(ValueError, match="a scenario must be a JSON object, got"):
        tl.scenario_from_dict(doc)


def test_joint_invariants_enforced():
    # a user-built joint passes the check a family's rows pass once
    with pytest.raises(ValueError, match=r"mass sums to \S*1\.2\)?, not 1"):
        tl.DiscreteJoint(np.arange(2.0), [0.6, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"eta outside \[0, 1\]"):
        tl.DiscreteJoint(np.arange(2.0), [0.5, 0.5], [1.5, 0.5])
    with pytest.raises(ValueError, match="negative mass"):
        tl.DiscreteJoint(np.arange(2.0), [-0.5, 1.5], [0.5, 0.5])
    # finite coordinates whose sum overflows are a valid support
    assert tl.DiscreteJoint(np.array([1e308, 1.5e308]), [0.5, 0.5], [0.5, 0.5]).size == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["support", "mass", "eta"])
def test_joint_rejects_non_finite_entries(name, bad):
    # every other check is a comparison, which a NaN passes
    arrays = {"support": [0.0, 1.0, 2.0], "mass": [0.5, 0.0, 0.5], "eta": [0.5, 0.5, 0.5]}
    arrays[name][1] = bad
    with pytest.raises(ValueError, match=re.escape(f"{name}[1] is {bad}, not a finite")):
        tl.DiscreteJoint(np.asarray(arrays["support"]), arrays["mass"], arrays["eta"])


@pytest.mark.parametrize("support", [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]],
                         ids=["unsorted", "repeated"])
def test_threshold_class_needs_an_increasing_support(support):
    # projection sorts and merges the coordinates while mass and eta keep
    # their order, so such a pair is refused, not evaluated on the wrong points
    joint = tl.DiscreteJoint(np.asarray(support), [0.3, 0.5, 0.2], [1.0, 1.0, 0.0])
    pair = tl.TransferPair(joint, joint)
    for evaluate in (lambda: tl.best_in_class(pair.q, tl.threshold_class()),
                     lambda: tl.pair_profile(pair, tl.threshold_class())):
        with pytest.raises(ValueError, match=r"support must be strictly increasing"):
            evaluate()
    increasing = tl.DiscreteJoint(np.arange(3.0), [0.3, 0.5, 0.2], [1.0, 1.0, 0.0])
    assert tl.true_risk(increasing, tl.best_in_class(increasing, tl.threshold_class())) == 0.0
    # a bare threshold is evaluated at the support's coordinates, as its cut is
    cuts = tl.hypotheses.project_onto_support(tl.threshold_class(), increasing.support)
    for h in cuts.members:
        assert tl.true_risk(increasing, tl.threshold_hypothesis(h.threshold)) == \
            tl.true_risk(increasing, h)


def test_certified_metadata_confirmed_by_brute_force():
    # discrete constructions certify exactly; grid-based scenarios certify as
    # an upper bound approached from below
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.75, 0.25)
    pair = fam.pairs[41]
    cert = pair.certified
    assert tl.rho_min(pair, fam.cls, cert.c_rho).value == pytest.approx(cert.rho, abs=1e-9)
    assert tl.beta_max(pair.p, fam.cls, cert.c_p).value == pytest.approx(cert.beta_p, abs=1e-9)
    assert tl.beta_max(pair.q, fam.cls, cert.c_q).value == pytest.approx(cert.beta_q, abs=1e-9)
    if cert.gamma is not None:
        assert tl.gamma_min(pair, fam.cls, cert.c_gamma).value == pytest.approx(
            cert.gamma, abs=1e-9)

    ring_pair, ring_cls = tl.example_scenario(1)
    rc = ring_pair.certified
    assert tl.gamma_min(ring_pair, ring_cls, rc.c_gamma).value == pytest.approx(rc.gamma)
    assert tl.rho_min(ring_pair, ring_cls, rc.c_rho).value == pytest.approx(rc.rho)

    for sid, g in ((2, None), (3, 3.0), (4, 0.5)):
        pair = tl.example_scenario(sid, gamma=g)
        cert = pair.certified
        got = tl.gamma_min(pair, tl.threshold_class(), cert.c_gamma).value
        assert got <= cert.gamma + 1e-9


def test_family_checks_its_arrays():
    # the builders refuse a NaN rho themselves (test_range_guards_refuse_nan);
    # the family's arrays pass the joints' one check, which names a fault in
    # the (K, s) eta matrix by its flat index
    sigmas = np.array([[1] * 8, [-1] * 8], dtype=np.int8)
    mass, margin = np.full(9, 1 / 9), np.full(8, 0.5)

    def family(mass_p=mass, margin_p=margin):
        return tl.SigmaFamily(sigmas, mass_p, margin_p, mass, margin, {}, "single-scale",
                              tl.Certified())

    with pytest.raises(ValueError, match=r"mass\[0\] is nan"):
        family(mass_p=np.where(np.arange(9) == 0, np.nan, mass))
    with pytest.raises(ValueError, match=r"eta\[3\] is nan"):
        family(margin_p=np.where(np.arange(8) == 2, np.nan, margin))
    with pytest.raises(ValueError, match=r"eta outside \[0, 1\]"):
        family(margin_p=np.full(8, 1.5))
    with pytest.raises(ValueError, match="mass sums to"):
        family(mass_p=mass / 2)
    fam = family()
    assert fam.eta_p.shape == (2, 9) and not fam.eta_p.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25),
    lambda: tl.build_two_scale_family(11, 4.0, 0.5, 0.5, 0.25, 0.125),
], ids=["single-scale", "two-scale"])
def test_family_arrays_are_its_pairs_arrays(build):
    # bit for bit: a family and the joints it builds pass the same check, and
    # the joints are built over the family's checked, read-only rows
    fam = build()
    for i in range(len(fam)):
        pair = fam[i]
        for side, mass, eta in ((pair.p, fam.mass_p, fam.eta_p), (pair.q, fam.mass_q, fam.eta_q)):
            assert side.support.tobytes() == fam.support.tobytes()
            assert side.mass.tobytes() == mass.tobytes()
            assert side.eta.tobytes() == eta[i].tobytes()
            assert side.support is fam.support and side.mass is mass
            assert side.eta.base is eta and np.shares_memory(side.eta, eta[i])
            assert not any(a.flags.writeable for a in (side.support, side.mass, side.eta))


@pytest.mark.parametrize("eta", [np.full((2, 2), 0.5), np.full((1, 2), 0.5), [0.5]],
                         ids=["matrix", "one-row-matrix", "short"])
def test_joint_refuses_an_eta_shaped_unlike_its_mass(eta):
    with pytest.raises(ValueError, match="support, mass, eta must have equal length"):
        tl.DiscreteJoint(np.arange(2.0), [0.5, 0.5], eta)


NAN = float("nan")
NAN_GUARDS = [
    (lambda: tl.example_scenario(3, gamma=NAN), "scenario 3 needs gamma >= 1"),
    (lambda: tl.build_single_scale_family(9, NAN, 0.5, 0.5, 0.25), "rho must be >= 1"),
    (lambda: tl.build_two_scale_family(9, NAN, 0.5, 0.5, 0.25, 0.125), "rho must be >= max"),
    (lambda: tl.ConfidenceParams(c=NAN), "c must be positive"),
    (lambda: tl.CostSchedule("linear", NAN), "unit cost must be positive"),
    (lambda: tl.rho_min(tl.example_scenario(2), tl.threshold_class(), NAN), "constant"),
    (lambda: tl.gamma_min(tl.example_scenario(2), tl.threshold_class(), NAN), "constant"),
    (lambda: tl.rho_prime_min(tl.example_scenario(2), tl.threshold_class(), NAN), "constant"),
    (lambda: tl.beta_max(tl.example_scenario(2).q, tl.threshold_class(), NAN), "constant"),
    (lambda: tl.d_y_localized(tl.example_scenario(2), tl.threshold_class(), NAN),
     "eps must be >= 0"),
    (lambda: tl.optimal_sampling_costs(0.1, 3, 0.5, 0.5, NAN, tl.CostSchedule("linear", 1.0),
                                       tl.CostSchedule("linear", 1.0)), "gamma must be positive"),
    (lambda: tl.unlabeled_requirement(0.1, 0.1, 3, kappa=NAN), "kappa must be positive"),
    (lambda: tl.run_adaptive_sampling(0.1, tl.CostSchedule("linear", 1.0),
                                      tl.CostSchedule("linear", 1.0), None, None, [],
                                      tl.full_cube_class(3), kappa=NAN),
     "kappa must be positive"),
    (lambda: tl.CostSchedule("linear", 1.0).cost(NAN), "n must be >= 0"),
    (lambda: tl.CostSchedule("power", 1.0, 0.5).minimal_n(NAN), "budget must be positive"),
]


@pytest.mark.parametrize("call,message", NAN_GUARDS,
                         ids=["scenario3-gamma", "single-scale-rho", "two-scale-rho",
                              "confidence-c", "cost-unit", "rho_min-c", "gamma_min-c",
                              "rho_prime_min-c", "beta_max-c", "d_y_localized-eps",
                              "optimal_sampling_costs-gamma", "unlabeled_requirement-kappa",
                              "run_adaptive_sampling-kappa", "cost-n", "minimal_n-budget"])
def test_range_guards_refuse_nan(call, message):
    # a guard written `x < lo` is false for NaN; each is written so NaN fails it
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


INF = float("inf")
FAMILY9 = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
# each call and the argument its ValueError names
NON_FINITE_GUARDS = {
    "confidence-c": (lambda: tl.ConfidenceParams(c=INF), "c must be positive and finite"),
    "rho_min": (lambda: tl.rho_min(tl.example_scenario(2), tl.threshold_class(), INF),
                "c_rho must be a positive finite constant"),
    "gamma_min": (lambda: tl.gamma_min(tl.example_scenario(2), tl.threshold_class(), INF),
                  "c_gamma must be a positive finite constant"),
    "rho_prime_min": (lambda: tl.rho_prime_min(tl.example_scenario(2), tl.threshold_class(), INF),
                      "c must be a positive finite constant"),
    "beta_max": (lambda: tl.beta_max(tl.example_scenario(2).q, tl.threshold_class(), INF),
                 "c_noise must be a positive finite constant"),
    "verify_family-constant": (lambda: tl.verify_family(FAMILY9, constant=-1.0),
                               "constant must be a positive finite constant, got -1.0"),
    "verify_family-constant-inf": (lambda: tl.verify_family(FAMILY9, constant=INF),
                                   "constant must be a positive finite constant, got inf"),
    "verify_family-rho": (lambda: tl.verify_family(FAMILY9, rho=-INF),
                          "rho must be positive and finite, got -inf"),
    "verify_family-beta_p": (lambda: tl.verify_family(FAMILY9, beta_p=-INF),
                             "beta_p must lie in [0, 1], got -inf"),
    "verify_family-beta_q": (lambda: tl.verify_family(FAMILY9, beta_q=1.5),
                             "beta_q must lie in [0, 1], got 1.5"),
    "verify_membership-rho": (lambda: tl.verify_membership(FAMILY9.pairs[0], FAMILY9.cls, 0.0,
                                                           0.5, 0.5, 1.0),
                              "rho must be positive and finite, got 0.0"),
    "verify_membership-constant": (lambda: tl.verify_membership(FAMILY9.pairs[0], FAMILY9.cls,
                                                                2.0, 0.5, 0.5, INF),
                                   "constant must be a positive finite constant"),
    "unlabeled_requirement-eps": (lambda: tl.unlabeled_requirement(1e-320, 0.1, 3),
                                  "the unlabeled requirement is inf at eps=1e-320"),
    "unlabeled_requirement-delta": (lambda: tl.unlabeled_requirement(0.1, 1e-320, 3),
                                    "the unlabeled requirement is inf at eps=0.1, delta=1e-320"),
    "unlabeled_requirement-kappa": (lambda: tl.unlabeled_requirement(0.1, 0.1, 3, kappa=INF),
                                    "kappa=inf"),
    "minimal_n-unit": (lambda: tl.CostSchedule("linear", 1e-320).minimal_n(1.0),
                       "budget 1.0 needs inf draws at unit 1e-320"),
    "minimal_n-exponent": (lambda: tl.CostSchedule("power", 1.0, 1e-320).minimal_n(2.0),
                           "budget 2.0 needs inf draws at unit 1.0 and exponent 1e-320"),
    "minimal_n-past-2^53": (lambda: tl.CostSchedule("linear", 1.0).minimal_n(2.0 ** 54),
                            "above the 2^53 a sample holds"),
}


@pytest.mark.parametrize("guard", list(NON_FINITE_GUARDS))
def test_range_guards_refuse_a_non_finite_value(guard):
    # an infinite constant turned the radius at zero disagreement into
    # inf * 0 = NaN, an unchecked membership parameter certified nothing, and
    # an infinite size raised OverflowError or looped on float rounding
    call, message = NON_FINITE_GUARDS[guard]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("kappa", [-1.0, 0.0])
def test_unlabeled_requirement_refuses_a_kappa_below_zero_or_zero(kappa):
    # at kappa = -1 the requirement was once -92, which any pool meets
    with pytest.raises(ValueError, match=f"kappa must be positive, got {kappa}"):
        tl.unlabeled_requirement(0.1, 0.1, 3, kappa=kappa)
    with pytest.raises(ValueError, match="kappa must be positive"):
        tl.run_adaptive_sampling(0.1, tl.CostSchedule("linear", 1.0),
                                 tl.CostSchedule("linear", 1.0), None, None, [],
                                 tl.full_cube_class(3), kappa=kappa)


@pytest.mark.parametrize("build,args", [
    (tl.build_single_scale_family, (9, 1.0, 0.5, 0.5, 0.25)),
    (tl.build_two_scale_family, (9, 4.0, 0.5, 0.5, 0.25, 0.125)),
], ids=["single-scale", "two-scale"])
def test_family_builders_take_explicit_sigmas(build, args):
    # explicit sign vectors give the default family's rows for those vectors
    default = build(*args)
    pick = [5, 0, 200]
    fam = build(*args, sigmas=default.sigmas[pick].tolist())
    assert np.array_equal(fam.sigmas, default.sigmas[pick])
    for name in ("eta_p", "eta_q"):
        assert np.array_equal(getattr(fam, name), getattr(default, name)[pick])
    for name in ("support", "mass_p", "mass_q"):
        assert np.array_equal(getattr(fam, name), getattr(default, name))
    assert np.array_equal(fam.cls.label_matrix, default.cls.label_matrix)
    assert [fam.bayes(i) for i in range(3)] == [default.bayes(j) for j in pick]
    d = default.sigmas.shape[1]
    for bad in (default.sigmas[0], np.zeros((1, d)), np.ones((1, d + 1)), [[2] * d]):
        with pytest.raises(ValueError, match="sigmas must be sign vectors of length d"):
            build(*args, sigmas=bad)


def test_family_builder_enumeration_cap():
    with pytest.raises(ValueError, match="d_h - 1 <= 14"):
        tl.build_single_scale_family(20, 2.0, 0.5, 0.5, 0.25)
