"""PCG64Stream: numpy's ``default_rng(seed)`` streams, draw for draw.

The trace generators, the sequence samplers and the iterative-decode
model draw from :class:`repro.sim.rng.PCG64Stream` instead of numpy, and
every seeded trace (so every pinned payload digest) depends on it
reproducing numpy's ``Generator`` exactly. The golden pins need no
numpy and are the authority should a numpy release change its streams;
the parity checks run only where numpy is installed.
"""

import pytest

from repro.sim.rng import PCG64Stream
from repro.workloads import (poisson_trace, sample_decode_lengths,
                             sample_question_lengths,
                             sample_retrieval_positions)

#: Seeds 0-40 plus multi-word entropy (2, 3 and 5 32-bit words; five
#: words overflow SeedSequence's 4-word pool).
SEEDS = list(range(41)) + [2**32 + 5, 2**64 + 3, 2**130 + 7]

#: The ziggurat's tail edge: an exponential draw at or above it came
#: from the idx-0 tail path.
ZIGGURAT_R = 7.6971174701310497


# ---------------------------------------------------------------------------
# Golden pins (no numpy).
# ---------------------------------------------------------------------------

GOLDEN = {
    0: {
        "raw": [0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8],
        "random": [0.6369616873214543, 0.2697867137638703],
        "exponential": [0.6799319039689096, 1.0195971014658647,
                        0.019806662589055352],
        "geometric_inversion": [163, 245, 5, 1],
        "geometric_search": [3, 4, 2, 2],
        "integers": [37, 29, 24, 15, 17, 7],
        "choice": [210, 19, 4, 127, 77, 67, 10, 158],
    },
    1: {
        "raw": [0x8306BDF37922E4FF, 0xF35196BBC152A866, 0x24E7A4F608EC18CD],
        "random": [0.5118216247002567, 0.9504636963259353],
        "exponential": [1.0730290263725388, 0.30845314412528435,
                        5.375436872608127],
        "geometric_inversion": [257, 74, 1288, 88],
        "geometric_search": [1, 3, 1, 2],
        "integers": [23, 24, 33, 41, 7, 11],
        "choice": [238, 117, 8, 241, 209, 36, 188, 127],
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_first_draws_are_pinned(seed):
    pins = GOLDEN[seed]
    rng = PCG64Stream(seed)
    assert [rng.next_u64() for _ in range(3)] == pins["raw"]
    rng = PCG64Stream(seed)
    assert [rng.random() for _ in range(2)] == pins["random"]
    rng = PCG64Stream(seed)
    assert [rng.standard_exponential() for _ in range(3)] \
        == pins["exponential"]
    rng = PCG64Stream(seed)
    assert [rng.geometric(1 / 240) for _ in range(4)] \
        == pins["geometric_inversion"]
    assert [rng.geometric(0.5) for _ in range(4)] == pins["geometric_search"]
    rng = PCG64Stream(seed)
    assert [rng.integers(6, 43) for _ in range(6)] == pins["integers"]
    assert PCG64Stream(seed).choice(255, 8) == pins["choice"]


def test_exponential_scales_the_standard_draw():
    assert PCG64Stream(0).exponential(2.5) \
        == 2.5 * GOLDEN[0]["exponential"][0]


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_bad_seeds_are_refused(seed):
    with pytest.raises((ValueError, TypeError)):
        PCG64Stream(seed)


def test_bad_bounds_are_refused():
    rng = PCG64Stream(0)
    with pytest.raises(ValueError):
        rng.integers(5, 5)
    with pytest.raises(ValueError):
        rng.choice(3, 4)


# ---------------------------------------------------------------------------
# Parity with numpy.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_and_raw_stream_match(np, seed):
    theirs = np.random.default_rng(seed).bit_generator.random_raw(16)
    ours = PCG64Stream(seed)
    assert [ours.next_u64() for _ in range(16)] == theirs.tolist()


class _CountingStream(PCG64Stream):
    """Counts ``random()`` calls, which only the exponential's tail and
    wedge paths make."""

    slow_draws = 0

    def random(self) -> float:
        self.slow_draws += 1
        return super().random()


def test_a_million_exponentials_match_slow_paths_included(np):
    tail = slow = 0
    for seed in range(4):
        theirs = np.random.default_rng(seed)
        ours = _CountingStream(seed)
        draws = [ours.standard_exponential() for _ in range(250_000)]
        assert draws == theirs.standard_exponential(250_000).tolist()
        # Slow paths consume extra raw draws: the streams stay in step.
        assert ours.next_u64() == int(theirs.bit_generator.random_raw())
        tail += sum(1 for draw in draws if draw >= ZIGGURAT_R)
        slow += ours.slow_draws
    assert tail > 0
    assert slow > tail  # the wedge test ran too


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_random_and_uniform_match(np, seed):
    theirs = np.random.default_rng(seed)
    ours = PCG64Stream(seed)
    assert [ours.random() for _ in range(100)] \
        == theirs.random(100).tolist()
    assert [ours.random() for _ in range(100)] \
        == [theirs.uniform() for _ in range(100)]


@pytest.mark.parametrize("p", [1.0, 0.9, 0.5, 1 / 3,  # linear search
                               0.33, 1 / 240, 1e-3, 1e-300])  # inversion
def test_geometric_matches_on_both_branches(np, p):
    for seed in range(3):
        theirs = np.random.default_rng(seed).geometric(p, size=2000)
        ours = PCG64Stream(seed)
        assert [ours.geometric(p) for _ in range(2000)] == theirs.tolist()
    if p == 1e-300:
        assert theirs.max() == 2**63 - 1  # the INT64_MAX clamp


@pytest.mark.parametrize("low, high", [
    (6, 43), (0, 1), (3, 4), (0, 2**32), (0, 2**32 + 1), (-5, 2**40),
    (0, 2**63)])
def test_integers_match(np, low, high):
    for seed in range(3):
        theirs = np.random.default_rng(seed).integers(low, high, size=500)
        ours = PCG64Stream(seed)
        assert [ours.integers(low, high) for _ in range(500)] \
            == theirs.tolist()


@pytest.mark.parametrize("population, size", [
    # Floyd's algorithm (population <= 10000, or size <= population//50)
    (255, 8), (2, 1), (1, 1), (10, 10), (10000, 10000), (20000, 400),
    # the tail shuffle
    (20000, 401), (10001, 10001), (50000, 1001)])
def test_choice_matches_on_both_paths(np, population, size):
    for seed in range(3):
        theirs = np.random.default_rng(seed)
        ours = PCG64Stream(seed)
        # Two calls in a row: the buffered half-draw carries over.
        for _ in range(2):
            assert ours.choice(population, size) == theirs.choice(
                population, size, replace=False).tolist()
        assert ours.integers(0, 7) == int(theirs.integers(0, 7))


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5])
def test_samplers_match_their_numpy_definitions(np, seed):
    rng = np.random.default_rng(seed)
    assert sample_question_lengths(300, seed=seed) \
        == rng.integers(6, 43, size=300).tolist()
    rng = np.random.default_rng(seed)
    assert sample_decode_lengths(300, mean=256, minimum=16, seed=seed) \
        == (16 + rng.geometric(1 / 240, size=300) - 1).tolist()
    rng = np.random.default_rng(seed)
    assert sample_retrieval_positions(256, 8, seed=seed) == sorted(
        rng.choice(np.arange(1, 256), size=8, replace=False).tolist())


def test_poisson_trace_matches_its_numpy_definition(np):
    rng = np.random.default_rng(5)
    arrivals = []
    now = rng.exponential(1.0 / 40.0)
    while now < 3.0:
        arrivals.append(now)
        now += rng.exponential(1.0 / 40.0)
    assert list(poisson_trace(40.0, 3.0, seed=5).arrivals) == arrivals
