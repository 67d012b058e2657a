"""Memory-model tests (weights + KV cache feasibility)."""

import dataclasses

import pytest

from repro.errors import CapacityError, ConfigError
from repro.hardware import XPU_C, ClusterSpec
from repro.inference import MemoryModel
from repro.inference.parallelism import ShardingPlan
from repro.models import ENCODER_120M, LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.pipeline import RAGPerfModel
from repro.schema import Stage, case_i_hyperscale


def test_8b_fits_on_one_xpu_c():
    memory = MemoryModel()
    assert memory.weights_fit(LLAMA3_8B, ShardingPlan(1, 1), XPU_C)


def test_70b_fits_on_one_xpu_c():
    # 70 GB int8 weights within 96 GB * 0.9 usable.
    memory = MemoryModel()
    assert memory.weights_fit(LLAMA3_70B, ShardingPlan(1, 1), XPU_C)


def test_405b_needs_multiple_chips():
    memory = MemoryModel()
    assert not memory.weights_fit(LLAMA3_405B, ShardingPlan(1, 1), XPU_C)
    assert memory.weights_fit(LLAMA3_405B, ShardingPlan(8, 1), XPU_C)


def test_min_chips():
    memory = MemoryModel()
    assert memory.min_chips(LLAMA3_8B, XPU_C) == 1
    assert memory.min_chips(LLAMA3_70B, XPU_C) == 1
    assert memory.min_chips(LLAMA3_405B, XPU_C) == 8
    # Weights that fit nowhere end the doubling instead of looping.
    nowhere = dataclasses.replace(LLAMA3_8B,
                                  weight_bytes_per_param=float("nan"))
    with pytest.raises(CapacityError, match="does not fit"):
        memory.min_chips(nowhere, XPU_C)


def test_min_chips_holds_weights_past_1024_chips():
    # 2,000x the 405B's layers: 16,384 XPU-C chips hold the weights and
    # 8,192 do not. No power-of-two cap may stop the count short.
    giant = dataclasses.replace(LLAMA3_405B, num_layers=126 * 2000)
    memory = MemoryModel()
    assert memory.min_chips(giant, XPU_C) == 16_384
    assert memory.weights_fit(giant, ShardingPlan(16_384, 1), XPU_C)
    assert not memory.weights_fit(giant, ShardingPlan(8_192, 1), XPU_C)
    schema = dataclasses.replace(case_i_hyperscale("405B"),
                                 generative_llm=giant)
    perf_model = RAGPerfModel(schema, ClusterSpec(num_servers=32))
    assert perf_model.min_resource(Stage.PREFIX) == 16_384


def test_require_weights_fit_raises():
    memory = MemoryModel()
    with pytest.raises(CapacityError):
        memory.require_weights_fit(LLAMA3_405B, ShardingPlan(1, 1), XPU_C)


def test_max_decode_batch_shrinks_with_context():
    memory = MemoryModel()
    plan = ShardingPlan(1, 1)
    short = memory.max_decode_batch(LLAMA3_8B, plan, XPU_C, 512)
    long = memory.max_decode_batch(LLAMA3_8B, plan, XPU_C, 8192)
    assert short > long > 0


def test_max_decode_batch_zero_when_weights_overflow():
    memory = MemoryModel()
    assert memory.max_decode_batch(LLAMA3_405B, ShardingPlan(1, 1),
                                   XPU_C, 512) == 0


def test_encoder_batch_unbounded_by_kv():
    memory = MemoryModel()
    assert memory.max_decode_batch(ENCODER_120M, ShardingPlan(1, 1),
                                   XPU_C, 512) > 1e6


def test_kv_bytes_per_sequence():
    memory = MemoryModel()
    per_seq = memory.kv_bytes_per_sequence(LLAMA3_8B, 768)
    assert per_seq == pytest.approx(
        768 * LLAMA3_8B.kv_cache_bytes_per_token())


def test_invalid_fraction_rejected():
    with pytest.raises(ConfigError):
        MemoryModel(usable_fraction=0.0)
    with pytest.raises(ConfigError):
        MemoryModel(kv_bytes_per_element=0)


def test_negative_context_rejected():
    memory = MemoryModel()
    with pytest.raises(ConfigError):
        memory.kv_bytes_per_sequence(LLAMA3_8B, -1)
