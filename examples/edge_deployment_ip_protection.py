#!/usr/bin/env python3
"""Scenario: protecting an embedded LLM shipped to edge devices.

This example plays out the paper's motivating story with three parties:

* **Vendor** — compresses an LLM for edge deployment (SmoothQuant INT8 for an
  OPT-style model), watermarks it with EmMark and ships it to customers'
  devices, keeping the watermark key private.
* **Pirate** — an end-user with full local access who copies the deployed
  weights, tries to launder them (parameter overwriting + LoRA fine-tuning)
  and redistributes the result as their own product.
* **Honest competitor** — independently fine-tunes and quantizes the same
  base architecture; their model must NOT trigger the vendor's ownership
  claim.

The script shows the vendor proving ownership of the pirated copy while the
competitor's model stays clear — fidelity, robustness and integrity in one
workflow.

Run with:  python examples/edge_deployment_ip_protection.py [--profile smoke|default]
"""

from __future__ import annotations

import argparse
import sys

from repro import EmMark, EmMarkConfig, quantize_model
from repro.data.alpaca import load_alpaca_sim
from repro.eval import EvaluationHarness
from repro.finetune.full import FineTuneConfig, fine_tune_full_precision
from repro.models import collect_activation_stats
from repro.models.registry import get_pretrained_model_and_data
from repro.robustness import build_attack
from repro.utils.logging import configure
from repro.utils.rng import new_rng
from repro.utils.tables import Table, format_float


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=["smoke", "default"])
    parser.add_argument("--model", default="opt-1.3b-sim")
    args = parser.parse_args()
    configure()

    # ------------------------------------------------------------------
    # Vendor: compress, watermark, deploy.
    # ------------------------------------------------------------------
    print("=== Vendor: preparing the embedded model ===")
    base_model, dataset = get_pretrained_model_and_data(args.model, profile=args.profile)
    activations = collect_activation_stats(base_model, dataset.calibration)
    deployed = quantize_model(base_model, "smoothquant", bits=8, activations=activations)

    emmark = EmMark(EmMarkConfig.scaled_for_model(deployed))
    watermarked, vendor_key, report = emmark.insert_with_key(deployed, activations)
    harness = EvaluationHarness(dataset, num_task_examples=16)
    print(f"watermarked {vendor_key.total_bits} bits in {report.total_seconds:.3f}s; "
          f"quality: PPL {harness.evaluate(watermarked).perplexity:.2f} "
          f"(non-watermarked: {harness.evaluate(deployed).perplexity:.2f})")

    # ------------------------------------------------------------------
    # Pirate: copy the deployed weights and try to launder them.
    # ------------------------------------------------------------------
    print("\n=== Pirate: laundering the stolen copy ===")
    stolen = build_attack("overwrite").apply(watermarked, 40, new_rng(13)).model
    lora = build_attack("lora-finetune", calibration_corpus=dataset.train, rank=2).apply(
        stolen, 8, new_rng(13)
    )
    pirated = lora.model
    print(f"pirate overwrote 40 weights/layer and LoRA-fine-tuned "
          f"(quantized weights untouched: {lora.info['weights_unchanged']})")

    # ------------------------------------------------------------------
    # Honest competitor: independent fine-tune + quantization.
    # ------------------------------------------------------------------
    print("\n=== Competitor: building an independent model ===")
    alpaca = load_alpaca_sim(dataset.vocabulary)
    competitor_full, _ = fine_tune_full_precision(
        base_model, alpaca.as_corpus(), FineTuneConfig(steps=60, batch_size=6)
    )
    competitor_stats = collect_activation_stats(competitor_full, dataset.calibration)
    competitor = quantize_model(competitor_full, "smoothquant", bits=8, activations=competitor_stats)
    print("competitor fine-tuned the base model on their own instruction data and re-quantized")

    # ------------------------------------------------------------------
    # Dispute resolution: the vendor runs extraction against every model.
    # ------------------------------------------------------------------
    print("\n=== Ownership verification ===")
    table = Table(
        title="Vendor key vs. candidate models",
        columns=["Candidate", "WER (%)", "False-claim probability", "Ownership asserted"],
    )
    # (label, candidate, whether the vendor's claim must hold)
    candidates = [
        ("Deployed (vendor's own)", watermarked, True),
        ("Pirated + laundered copy", pirated, True),
        ("Competitor's independent model", competitor, False),
        ("Original non-watermarked", deployed, False),
    ]
    wrong = []
    for label, candidate, expected in candidates:
        extraction = emmark.extract_with_key(candidate, vendor_key)
        owned = emmark.verify(candidate, vendor_key)
        if owned != expected:
            wrong.append(label)
        table.add_row([
            label,
            format_float(extraction.wer_percent),
            f"{extraction.false_claim_probability:.2e}",
            owned,
        ])
    print(table.render())
    if wrong:
        print(f"\nAttribution FAILED for: {', '.join(wrong)}.")
        return 1
    print("\nThe pirated copy is attributed to the vendor; independent models are not.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
