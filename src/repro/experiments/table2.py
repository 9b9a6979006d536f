"""Table 2 — watermark insertion efficiency.

The paper reports the average wall-clock time to watermark one quantization
layer (0.4 s for INT8, 0.3 s for INT4 on OPT models) and the additional GPU
memory required (0 GB — EmMark runs entirely on the CPU).  The reproduction
measures the same two quantities on the simulated OPT family: per-layer
insertion time via the :class:`~repro.engine.reports.InsertionReport` and GPU
memory, which is structurally zero because the whole substrate is NumPy on
the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.emmark import EmMark
from repro.engine import WatermarkEngine
from repro.experiments.common import prepare_context
from repro.utils.tables import Table, format_float

__all__ = ["Table2Row", "Table2Result", "run"]

DEFAULT_MODELS: Sequence[str] = ("opt-125m-sim", "opt-2.7b-sim", "opt-13b-sim")


@dataclass
class Table2Row:
    """Efficiency measurement for one precision.

    ``total_seconds`` is the summed per-layer CPU cost (the paper's metric:
    per-layer time × layers); ``wall_clock_seconds`` is the elapsed latency
    of the whole insertion call.
    """

    bits: int
    mean_seconds_per_layer: float
    total_seconds: float
    gpu_memory_gb: float
    num_layers: int
    models: List[str] = field(default_factory=list)
    wall_clock_seconds: float = 0.0


@dataclass
class Table2Result:
    """Both precisions' efficiency rows."""

    rows: List[Table2Row] = field(default_factory=list)

    def to_table(self) -> Table:
        table = Table(
            title="Table 2: EmMark watermarking efficiency",
            columns=[
                "Quantization",
                "Time (s/layer)",
                "CPU total (s)",
                "Wall clock (s)",
                "Memory (GB)",
                "Layers",
            ],
        )
        for row in self.rows:
            table.add_row(
                [
                    f"INT{row.bits}",
                    format_float(row.mean_seconds_per_layer, 4),
                    format_float(row.total_seconds, 3),
                    format_float(row.wall_clock_seconds, 3),
                    format_float(row.gpu_memory_gb, 0),
                    row.num_layers,
                ]
            )
        return table

    def render(self) -> str:
        return self.to_table().render()


def run(
    model_names: Optional[Sequence[str]] = None,
    precisions: Sequence[int] = (8, 4),
    profile: str = "default",
) -> Table2Result:
    """Measure per-layer insertion time and GPU memory for each precision."""
    model_names = list(model_names or DEFAULT_MODELS)
    result = Table2Result()
    for bits in precisions:
        per_layer_times: List[float] = []
        total_times: List[float] = []
        wall_times: List[float] = []
        total_layers = 0
        for model_name in model_names:
            context = prepare_context(model_name, bits, profile=profile)
            # A fresh engine, NOT the shared context engine: earlier
            # experiments in the same process may have warmed the shared
            # plan cache for exactly these (weights, activations, config)
            # fingerprints, which would silently turn this timing run into
            # a cache-lookup measurement.  Table 2 reports cold insertions.
            emmark = EmMark(context.emmark_config, engine=WatermarkEngine())
            _, _, report = emmark.insert_with_key(
                context.fresh_quantized(), context.activations
            )
            per_layer_times.extend(report.per_layer_seconds)
            total_times.append(report.total_seconds)
            wall_times.append(report.wall_clock_seconds)
            total_layers += report.num_layers
        result.rows.append(
            Table2Row(
                bits=bits,
                mean_seconds_per_layer=float(np.mean(per_layer_times)) if per_layer_times else 0.0,
                total_seconds=float(np.sum(total_times)),
                # The entire pipeline is NumPy on the CPU: no GPU memory is
                # allocated at any point, matching the paper's "0 GB".
                gpu_memory_gb=0.0,
                num_layers=total_layers,
                models=list(model_names),
                wall_clock_seconds=float(np.sum(wall_times)),
            )
        )
    return result
