"""Evaluation metrics.

The paper reports two model-quality metrics and one watermark metric:

* **Perplexity (PPL)** on WikiText — :mod:`repro.eval.perplexity`.
* **Zero-shot accuracy** as the mean over LAMBADA / HellaSwag / PIQA /
  WinoGrande — :mod:`repro.eval.zero_shot`.
* **Watermark extraction rate (WER)** — computed by
  :meth:`repro.engine.WatermarkEngine.extract` and the baselines themselves.

:mod:`repro.eval.harness` bundles the two quality metrics into a single
:class:`~repro.eval.harness.QualityReport` so every experiment reports them
the same way.
"""

from repro.eval.perplexity import compute_perplexity
from repro.eval.zero_shot import evaluate_task, evaluate_zero_shot
from repro.eval.harness import EvaluationHarness, QualityReport

__all__ = [
    "compute_perplexity",
    "evaluate_task",
    "evaluate_zero_shot",
    "EvaluationHarness",
    "QualityReport",
]
