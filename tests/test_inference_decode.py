"""Decode-phase model tests."""

import pytest

from repro.errors import CapacityError, ConfigError
from repro.hardware import XPU_C
from repro.inference import DecodeModel
from repro.inference.parallelism import ShardingPlan
from repro.models import LLAMA3_8B, LLAMA3_70B


@pytest.fixture
def model():
    return DecodeModel(XPU_C)


def test_decode_is_memory_bound_at_batch_one(model):
    # Step time ~ weights / bandwidth: 8 GB / ~2.35 TB/s ~ 3.4 ms.
    step = model.step_latency(LLAMA3_8B, ShardingPlan(1, 1), 1, 512)
    weights_time = (LLAMA3_8B.weight_bytes
                    / XPU_C.effective_mem_bandwidth)
    assert step == pytest.approx(weights_time, rel=0.3)


def test_throughput_grows_with_batch(model):
    small = model.plan_perf(LLAMA3_8B, ShardingPlan(1, 1), 1, 512, 256)
    large = model.plan_perf(LLAMA3_8B, ShardingPlan(1, 1), 64, 512, 256)
    assert large.throughput > 10 * small.throughput


def test_tpot_is_worst_case(model):
    perf = model.plan_perf(LLAMA3_8B, ShardingPlan(1, 1), 16, 512, 256)
    assert perf.tpot >= perf.mean_step_latency


def test_kv_capacity_enforced(model):
    plan = ShardingPlan(1, 1)
    max_batch = model.plan_perf(LLAMA3_8B, plan, 1, 512, 256).max_batch
    with pytest.raises(CapacityError):
        model.plan_perf(LLAMA3_8B, plan, max_batch + 1, 512, 256)


def test_sequence_latency_is_steps_times_tokens(model):
    decode_len = 256
    perf = model.plan_perf(LLAMA3_8B, ShardingPlan(1, 1), 8, 512, decode_len)
    assert perf.sequence_latency == pytest.approx(
        decode_len * perf.mean_step_latency)


def test_best_perf_uses_tensor_parallel_only(model):
    perf = model.best_perf(LLAMA3_8B, 8, 16, 512, 256)
    assert perf.plan.tensor_parallel == 8
    assert perf.plan.pipeline_parallel == 1


def test_more_chips_reduce_tpot(model):
    one = model.best_perf(LLAMA3_70B, 1, 8, 512, 256)
    eight = model.best_perf(LLAMA3_70B, 8, 8, 512, 256)
    assert eight.tpot < one.tpot


def test_invalid_lengths_rejected(model):
    with pytest.raises(ConfigError):
        model.plan_perf(LLAMA3_8B, ShardingPlan(1, 1), 1, -1, 256)
    with pytest.raises(ConfigError):
        model.plan_perf(LLAMA3_8B, ShardingPlan(1, 1), 1, 512, 0)
