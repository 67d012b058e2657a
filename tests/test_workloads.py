"""Workload generator tests: profiles, arrivals, samplers."""

import pytest

from repro.errors import ConfigError
from repro.workloads import (
    SequenceProfile,
    poisson_trace,
    sample_decode_lengths,
    sample_question_lengths,
    sample_retrieval_positions,
)

from workload_helpers import burst_arrivals


class TestSequenceProfile:
    def test_paper_defaults(self):
        profile = SequenceProfile()
        assert profile.question_len == 32
        assert profile.prefix_len == 512
        assert profile.decode_len == 256
        assert profile.retrieved_passages == 5
        assert profile.passage_len == 100

    def test_num_chunks(self):
        profile = SequenceProfile(context_len=1_000_000, chunk_len=128)
        assert profile.num_chunks == 7813

    def test_num_chunks_zero_without_context(self):
        assert SequenceProfile().num_chunks == 0

    def test_rerank_tokens(self):
        profile = SequenceProfile()
        assert profile.rerank_tokens == 16 * 100

    def test_with_lengths(self):
        profile = SequenceProfile().with_lengths(prefix_len=1024,
                                                 decode_len=128)
        assert profile.prefix_len == 1024
        assert profile.decode_len == 128
        assert profile.question_len == 32

    def test_with_lengths_rejects_unknown(self):
        with pytest.raises(ConfigError):
            SequenceProfile().with_lengths(bogus=1)

    def test_prefix_shorter_than_question_rejected(self):
        with pytest.raises(ConfigError):
            SequenceProfile(question_len=64, prefix_len=32)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            SequenceProfile(decode_len=0)


class TestArrivals:
    def test_poisson_rate(self):
        times = poisson_trace(rate_qps=100, duration=50, seed=1).arrivals
        assert len(times) == pytest.approx(5000, rel=0.1)
        assert times == tuple(sorted(times))
        assert all(0 <= t < 50 for t in times)

    def test_poisson_deterministic(self):
        a = poisson_trace(10, 5, seed=7).requests
        b = poisson_trace(10, 5, seed=7).requests
        assert a == b

    def test_poisson_validation(self):
        with pytest.raises(ConfigError):
            poisson_trace(0, 1)

    def test_burst_counts(self):
        times = burst_arrivals(burst_size=16, period=1.0, num_bursts=3)
        assert len(times) == 48
        assert times[0] == 0.0

    def test_burst_jitter_bounded(self):
        times = burst_arrivals(8, 10.0, num_bursts=2, jitter=0.5, seed=3)
        first = [t for t in times if t < 5]
        assert len(first) == 8
        assert max(first) <= 0.5

    def test_burst_validation(self):
        with pytest.raises(ConfigError):
            burst_arrivals(0, 1.0)


class TestSamplers:
    def test_question_lengths_in_range(self):
        lengths = sample_question_lengths(500, seed=2)
        assert min(lengths) >= 6
        assert max(lengths) <= 42

    def test_decode_lengths_mean(self):
        lengths = sample_decode_lengths(5000, mean=256, seed=3)
        assert sum(lengths) / len(lengths) == pytest.approx(256, rel=0.1)
        assert min(lengths) >= 16

    def test_retrieval_positions_sorted_distinct(self):
        positions = sample_retrieval_positions(256, 8, seed=4)
        assert positions == sorted(positions)
        assert len(set(positions)) == 8
        assert all(1 <= p < 256 for p in positions)

    def test_retrieval_positions_capped(self):
        positions = sample_retrieval_positions(4, 10, seed=5)
        assert len(positions) == 3

    def test_retrieval_positions_none_to_place(self):
        assert sample_retrieval_positions(1, 0) == []
        assert sample_retrieval_positions(64, 0, seed=3) == []

    @pytest.mark.parametrize("mean", [float("inf"), float("nan")])
    def test_decode_lengths_reject_non_finite_mean(self, mean):
        with pytest.raises(ConfigError, match="finite"):
            sample_decode_lengths(10, mean=mean)

    def test_sampler_validation(self):
        with pytest.raises(ConfigError):
            sample_question_lengths(0)
        with pytest.raises(ConfigError):
            sample_decode_lengths(10, mean=8, minimum=16)
        with pytest.raises(ConfigError):
            sample_retrieval_positions(1, 1)

