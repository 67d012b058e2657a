"""Catalog of the concrete models the paper evaluates (§4, Table 3).

* Llama-3 herd: 1B, 8B, 70B, 405B (generative LLMs; also the 8B query
  rewriter).
* A 120M sentence-transformer-style encoder (database encoder and
  reranker).

Architectural shapes follow the published Llama-3 configurations; the
names used in the paper ("RAG 8B", "120M encoder") map 1:1 onto these.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import lookup
from repro.models.transformer import TransformerConfig

LLAMA3_1B = TransformerConfig(
    name="llama3-1b",
    num_layers=16,
    d_model=2048,
    num_heads=32,
    num_kv_heads=8,
    d_ff=8192,
)

LLAMA3_8B = TransformerConfig(
    name="llama3-8b",
    num_layers=32,
    d_model=4096,
    num_heads=32,
    num_kv_heads=8,
    d_ff=14336,
)

LLAMA3_70B = TransformerConfig(
    name="llama3-70b",
    num_layers=80,
    d_model=8192,
    num_heads=64,
    num_kv_heads=8,
    d_ff=28672,
)

LLAMA3_405B = TransformerConfig(
    name="llama3-405b",
    num_layers=126,
    d_model=16384,
    num_heads=128,
    num_kv_heads=8,
    d_ff=53248,
)

#: BERT-base-like bidirectional encoder used as the database encoder.
ENCODER_120M = TransformerConfig(
    name="encoder-120m",
    num_layers=12,
    d_model=768,
    num_heads=12,
    num_kv_heads=12,
    d_ff=3072,
    vocab_size=30_522,
    gated_mlp=False,
    is_decoder=False,
)

#: The reranker shares the encoder architecture (§5.4 uses a 120M model).
RERANKER_120M = ENCODER_120M

#: The query rewriter is a generative 8B model (§5.4).
REWRITER_8B = LLAMA3_8B

MODEL_CATALOG: Dict[str, TransformerConfig] = {
    "1B": LLAMA3_1B,
    "8B": LLAMA3_8B,
    "70B": LLAMA3_70B,
    "405B": LLAMA3_405B,
    "120M": ENCODER_120M,
}


def model_by_params(label: str) -> TransformerConfig:
    """Look up a catalog model by its parameter-count label.

    Args:
        label: One of ``"120M"``, ``"1B"``, ``"8B"``, ``"70B"``, ``"405B"``
            (case-insensitive).

    Raises:
        ConfigError: for unknown labels.
    """
    key = label.strip().upper() if isinstance(label, str) else label
    return lookup(MODEL_CATALOG, key, "model label")
