"""PipelineBuilder tests."""

import pytest

from repro.errors import ConfigError
from repro.models.catalog import ENCODER_120M, LLAMA3_8B, LLAMA3_70B
from repro.schema import (
    RAGSchema,
    case_i_hyperscale,
    case_ii_long_context,
    case_iii_iterative,
    case_iv_rewriter_reranker,
    llm_only,
    pipeline,
)
from repro.schema.builder import PipelineBuilder
from repro.schema.paradigms import HYPERSCALE_DATABASE
from repro.workloads.profile import SequenceProfile


def test_builder_matches_case_i_preset():
    built = (pipeline("case-i-llama3-8b")
             .retrieve(HYPERSCALE_DATABASE, queries_per_retrieval=4)
             .generate("8B")
             .build())
    assert built == case_i_hyperscale("8B", queries_per_retrieval=4)


def test_builder_matches_case_ii_preset():
    preset = case_ii_long_context(1_000_000, "70B")
    built = (pipeline(preset.name)
             .sequences(context_len=1_000_000)
             .encode(ENCODER_120M)
             .retrieve(preset.database, brute_force=True)
             .generate(LLAMA3_70B)
             .build())
    assert built == preset


def test_builder_matches_case_iii_preset():
    built = (pipeline("case-iii-llama3-70b-x4")
             .retrieve(HYPERSCALE_DATABASE)
             .generate("70B", iterative=4)
             .build())
    assert built == case_iii_iterative("70B", retrieval_frequency=4)


def test_builder_matches_case_iv_preset():
    built = (pipeline("case-iv-llama3-70b")
             .rewrite("8B")
             .retrieve(HYPERSCALE_DATABASE)
             .rerank("120M")
             .generate("70B")
             .build())
    assert built == case_iv_rewriter_reranker("70B")


def test_builder_matches_llm_only_preset():
    built = (pipeline("llm-only-llama3-70b")
             .sequences(prefix_len=32)
             .generate("70B")
             .build())
    assert built == llm_only("70B")


def test_issue_style_program_builds():
    schema = (pipeline()
              .rewrite("1B")
              .retrieve(HYPERSCALE_DATABASE, neighbors=5)
              .rerank(ENCODER_120M)
              .generate("70B", iterative=4)
              .build())
    assert schema.query_rewriter.name == "llama3-1b"
    assert schema.sequences.retrieved_passages == 5
    assert schema.retrieval_frequency == 4
    assert schema.is_iterative
    # Default name synthesized from the declared stages.
    assert "llama3-70b" in schema.name


def test_sequence_overrides_compose():
    schema = (pipeline("seq")
              .sequences(profile=SequenceProfile(decode_len=64))
              .retrieve(HYPERSCALE_DATABASE, neighbors=3)
              .rerank("120M", candidates=8)
              .generate("8B", decode_len=128)
              .build())
    assert schema.sequences.retrieved_passages == 3
    assert schema.sequences.rerank_candidates == 8
    assert schema.sequences.decode_len == 128


def test_build_requires_generator():
    with pytest.raises(ConfigError, match="generator"):
        pipeline().retrieve(HYPERSCALE_DATABASE).build()


def test_iterative_requires_retrieval():
    with pytest.raises(ConfigError, match="retrieve"):
        pipeline().generate("8B", iterative=4).build()


def test_rerank_requires_retrieval():
    with pytest.raises(ConfigError, match="retrieve"):
        pipeline().rerank("120M").generate("8B").build()


def test_rewrite_requires_retrieval():
    # A rewriter that feeds no retrieval burns chips for nothing.
    with pytest.raises(ConfigError, match="retrieve"):
        pipeline().rewrite("8B").generate("8B").build()


#: Shapes that need a database, each as RAGSchema fields and as the
#: builder program that declares them without a .retrieve(...) stage.
_DATABASE_FREE_SHAPES = {
    "rewriter": ({"query_rewriter": LLAMA3_8B},
                 lambda: pipeline().rewrite("8B").generate("8B")),
    "reranker": ({"query_reranker": ENCODER_120M},
                 lambda: pipeline().rerank("120M").generate("8B")),
    "encoder": ({"document_encoder": ENCODER_120M,
                 "sequences": SequenceProfile(context_len=100_000)},
                lambda: (pipeline().sequences(context_len=100_000)
                         .encode("120M").generate("8B"))),
    "iterative": ({"retrieval_frequency": 4},
                  lambda: pipeline().generate("8B", iterative=4)),
}


@pytest.mark.parametrize("surface", ["schema", "builder", "envelope"])
@pytest.mark.parametrize("shape", sorted(_DATABASE_FREE_SHAPES))
def test_every_surface_refuses_a_shape_without_database(shape, surface):
    """RAGSchema owns the cross-field rules, so a direct call, the
    builder and a stored envelope refuse the same schemas."""
    from repro import config

    fields, program = _DATABASE_FREE_SHAPES[shape]
    if surface == "schema":
        def make():
            return RAGSchema(name="bad", generative_llm=LLAMA3_8B, **fields)
    elif surface == "builder":
        def make():
            return program().build()
    else:
        envelope = config.to_config(RAGSchema(
            name="bad", generative_llm=LLAMA3_8B,
            database=HYPERSCALE_DATABASE, **fields))
        envelope["spec"]["database"] = None

        def make():
            return config.from_config(envelope)
    with pytest.raises(ConfigError, match="retrieve"):
        make()


def test_duplicate_stage_rejected():
    builder = pipeline().generate("8B")
    with pytest.raises(ConfigError, match="twice"):
        builder.generate("70B")


def test_unknown_stage_kind_reports_registry():
    with pytest.raises(AttributeError, match="quantize"):
        pipeline().quantize("8B")


def test_pipeline_submodule_not_shadowed():
    """The builder entry point must not displace the repro.pipeline
    submodule on the package (module attribute access stays intact)."""
    import repro
    import repro.pipeline as pipeline_module

    assert repro.pipeline is pipeline_module
    assert hasattr(pipeline_module, "assemble")
    assert "pipeline" not in repro.__all__
    # The builder is reachable where documented.
    from repro.schema import pipeline as build

    assert build().__class__ is PipelineBuilder
