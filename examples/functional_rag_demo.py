#!/usr/bin/env python3
"""End-to-end functional retrieval demo + calibration.

Exercises the *functional* side of the library the way the paper's
methodology does (§4b): build a real IVF-PQ index over a synthetic
corpus, measure its recall against brute-force ground truth across scan
fractions, time the PQ scan to calibrate the analytical model, and then
project retrieval performance to the paper's 64-billion-vector regime
with the calibrated ScaNN roofline.

Run:
    python examples/functional_rag_demo.py
"""

import numpy as np

from repro import BruteForceIndex, IVFPQIndex, ProductQuantizer
from repro.hardware import EPYC_MILAN
from repro.retrieval import (
    DistributedRetrievalModel,
    calibrate_scan_rate,
    tune_scan_fraction,
)
from repro.schema.paradigms import HYPERSCALE_DATABASE
from repro.workloads import clustered_vectors

CORPUS_SIZE = 20_000
DIM = 64
NUM_QUERIES = 100
TOP_K = 10


def build_and_measure_recall():
    print("=== functional IVF-PQ: recall vs scanned fraction ===")
    corpus, _ = clustered_vectors(CORPUS_SIZE, DIM, num_clusters=64,
                                  seed=42)
    queries = corpus[:NUM_QUERIES] + 0.01 * np.random.default_rng(
        7).standard_normal((NUM_QUERIES, DIM)).astype(np.float32)

    exact = BruteForceIndex(corpus)
    _, truth = exact.search(queries, k=TOP_K)

    quantizer = ProductQuantizer(num_subspaces=16, seed=42)
    index = IVFPQIndex(nlist=128, quantizer=quantizer, seed=42)
    index.build(corpus)

    for nprobe in (1, 2, 4, 8, 16, 32):
        _, approx = index.search(queries, k=TOP_K, nprobe=nprobe)
        hits = sum(len(set(a) & set(t)) for a, t in zip(approx, truth))
        recall = hits / (NUM_QUERIES * TOP_K)
        fraction = index.scanned_fraction(nprobe)
        print(f"  nprobe={nprobe:3d}  scanned={100 * fraction:5.1f}%  "
              f"recall@{TOP_K}={recall:.3f}")
    print("  -> the paper's p_scan knob: more scanned bytes, more recall")
    print()
    return index


def tune_p_scan():
    print("=== recall-driven p_scan tuning ===")
    corpus, _ = clustered_vectors(CORPUS_SIZE, DIM, num_clusters=64,
                                  seed=42)
    queries = corpus[:NUM_QUERIES]
    quantizer = ProductQuantizer(num_subspaces=16, seed=43)
    flat = IVFPQIndex(nlist=128, quantizer=quantizer, seed=43).build(corpus)
    # PQ's quantization caps recall@10 near 0.31 on this dense corpus,
    # so the target sits just under that ceiling.
    target = 0.3
    tuned = tune_scan_fraction(flat, corpus, queries, k=TOP_K,
                               target_recall=target)
    if tuned.selected:
        print(f"  tuned p_scan for recall>={target}: "
              f"{100 * tuned.selected.scan_fraction:.1f}% "
              f"(nprobe {tuned.selected.nprobe}, recall "
              f"{tuned.selected.recall:.3f}) -- the paper's §3.3 loop")
    print()


def calibrate_and_project():
    print("=== calibration: functional engine -> analytical model ===")
    result = calibrate_scan_rate(num_vectors=CORPUS_SIZE, dim=DIM,
                                 num_queries=8, repeats=3, seed=42)
    print(f"  measured PQ scan rate: "
          f"{result.bytes_per_second / 1e9:.2f} GB/s per thread "
          f"(paper's ScaNN on EPYC: 18 GB/s per core)")

    # Project to the 64-billion-vector database on the paper's servers,
    # once with this machine's measured rate and once with the paper's.
    for label, server in (
            ("this machine's rate", result.as_server_spec(EPYC_MILAN)),
            ("paper calibration", EPYC_MILAN)):
        model = DistributedRetrievalModel(HYPERSCALE_DATABASE, server)
        servers = model.min_servers()
        batch1 = model.search_perf(batch=1, num_servers=2 * servers)
        saturated = model.search_perf(batch=512, num_servers=2 * servers)
        print(f"  [{label}] {2 * servers} servers: batch-1 latency "
              f"{batch1.latency * 1e3:6.1f} ms, saturated "
              f"{saturated.qps:7.0f} queries/s")
    print("  -> the paper's 10 ms batch-1 retrieval over 32 hosts")


def main() -> None:
    build_and_measure_recall()
    tune_p_scan()
    calibrate_and_project()


if __name__ == "__main__":
    main()
