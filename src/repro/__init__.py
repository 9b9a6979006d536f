"""EmMark reproduction: robust watermarks for embedded quantized LLMs.

This package is a from-scratch, CPU-only reproduction of

    Ruisi Zhang and Farinaz Koushanfar,
    "EmMark: Robust Watermarks for IP Protection of Embedded Quantized
    Large Language Models", DAC 2024 (arXiv:2402.17938),

including every substrate the paper depends on: a simulated OPT / LLaMA-2
model zoo (:mod:`repro.models`), the post-training quantization frameworks
SmoothQuant, LLM.int8(), AWQ and GPTQ (:mod:`repro.quant`), synthetic
evaluation corpora and tasks (:mod:`repro.data`, :mod:`repro.eval`),
fine-tuning (:mod:`repro.finetune`), the watermarking algorithms
(:mod:`repro.core`) and the engine that runs them (:mod:`repro.engine`), the
attack registry and robustness gauntlet (:mod:`repro.robustness`) and the
experiment harness regenerating every table and figure
(:mod:`repro.experiments`).

Watermarks are inserted, extracted and verified through the methods of
:class:`WatermarkEngine` or through :class:`EmMark`, the one facade over it.

Quickstart
----------
>>> from repro import EmMark, EmMarkConfig, quantize_model
>>> from repro.models import get_pretrained_model_and_data, collect_activation_stats
>>> model, data = get_pretrained_model_and_data("opt-2.7b-sim", profile="smoke")
>>> activations = collect_activation_stats(model, data.calibration)
>>> quantized = quantize_model(model, "awq", activations=activations)
>>> emmark = EmMark(EmMarkConfig.scaled_for_model(quantized))
>>> watermarked, key, report = emmark.insert_with_key(quantized, activations)
>>> emmark.extract_with_key(watermarked, key).wer_percent
100.0
"""

from repro.core import EmMark, EmMarkConfig, WatermarkKey, watermark_strength
from repro.core.baselines import RandomWM, SpecMark
from repro.engine import (
    EngineConfig,
    ExtractionResult,
    FleetVerificationReport,
    SlotAllocator,
    WatermarkEngine,
    get_default_engine,
)
from repro.models import TransformerLM, collect_activation_stats, get_pretrained_model
from repro.quant import QuantizedModel, quantize_model
from repro.eval import EvaluationHarness
from repro.robustness import (
    Gauntlet,
    GauntletSubject,
    RobustnessReport,
    build_attack,
    run_gauntlet,
)

__version__ = "2.0.0"

__all__ = [
    "EmMark",
    "EmMarkConfig",
    "ExtractionResult",
    "WatermarkKey",
    "watermark_strength",
    "SlotAllocator",
    "WatermarkEngine",
    "EngineConfig",
    "FleetVerificationReport",
    "get_default_engine",
    "RandomWM",
    "SpecMark",
    "TransformerLM",
    "collect_activation_stats",
    "get_pretrained_model",
    "QuantizedModel",
    "quantize_model",
    "EvaluationHarness",
    "Gauntlet",
    "GauntletSubject",
    "RobustnessReport",
    "build_attack",
    "run_gauntlet",
    "__version__",
]
