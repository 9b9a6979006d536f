"""Inputs shared by every workload, all derived from the workload seed.

The base deployment is ``opt-2.7b-sim`` (smoke profile) quantized with
RTN-8: 18 quantized layers, 24 signature bits each (432 bits).  Owners are
EmMark insertions into that base with distinct secret seeds ``d``.  The
program only ever receives what this module generates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey
from repro.engine import WatermarkEngine
from repro.models.activations import ActivationStats, collect_activation_stats
from repro.models.registry import get_pretrained_model_and_data
from repro.quant.api import quantize_model
from repro.quant.base import QuantizedModel
from repro.robustness import build_attack

MODEL_NAME = "opt-2.7b-sim"
PROFILE = "smoke"
QUANT_METHOD = "rtn"
QUANT_BITS = 8
#: Owners whose keys the verification server holds.
NUM_OWNERS = 4
#: Overwrite strength of the attacked suspect (positions rewritten per layer).
SUSPECT_OVERWRITE_STRENGTH = 300


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per (workload seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(purpose.encode("utf-8"))])


def distinct_seeds(rng: np.random.Generator, count: int, exclude=()) -> List[int]:
    """``count`` distinct secret seeds ``d`` not in ``exclude``."""
    taken = set(int(x) for x in exclude)
    seeds: List[int] = []
    while len(seeds) < count:
        d = int(rng.integers(1, 2**31 - 1))
        if d not in taken:
            taken.add(d)
            seeds.append(d)
    return seeds


@dataclass
class Base:
    """The clean quantized deployment plus what an owner needs to mark it."""

    dataset: object
    activations: ActivationStats
    quantized: QuantizedModel


def build_base() -> Base:
    model, dataset = get_pretrained_model_and_data(MODEL_NAME, profile=PROFILE)
    activations = collect_activation_stats(model, dataset.calibration)
    quantized = quantize_model(model, QUANT_METHOD, bits=QUANT_BITS)
    return Base(dataset=dataset, activations=activations, quantized=quantized)


def owner_config(base: Base, d: int) -> EmMarkConfig:
    return EmMarkConfig.scaled_for_model(base.quantized, seed=int(d), signature_seed=int(d))


def insert_owner(
    engine: WatermarkEngine, base: Base, d: int
) -> Tuple[QuantizedModel, WatermarkKey]:
    """One owner's deployment and key (EmMark insertion with secret seed ``d``)."""
    model, key, _report = engine.insert(base.quantized, base.activations, owner_config(base, d))
    return model, key


def overwrite_copy(model: QuantizedModel, attacker_seed: int) -> QuantizedModel:
    """An overwrite-attacked copy of ``model`` (the attacker's seed picks the positions)."""
    outcome = build_attack("overwrite").apply(
        model, SUSPECT_OVERWRITE_STRENGTH, np.random.default_rng(attacker_seed)
    )
    return outcome.model
