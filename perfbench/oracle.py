"""Verdict oracle: the decisions every HTTP response must reproduce exactly.

Reference decisions come from a direct ``WatermarkEngine.verify_fleet`` on
an engine of the benchmark's own, never the server's.  A response passes
only when it carries one decision per requested key and each decision
agrees on ``matched_bits``, ``total_bits``, ``wer_percent`` and ``owned``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.keys import WatermarkKey
from repro.engine import WatermarkEngine
from repro.quant.base import QuantizedModel

FIELDS = ("matched_bits", "total_bits", "wer_percent", "owned")

Decision = Dict[str, object]


def reference_decisions(
    engine: WatermarkEngine,
    suspects: Mapping[str, QuantizedModel],
    keys: Mapping[str, WatermarkKey],
) -> Dict[Tuple[str, str], Decision]:
    """The expected decision of every (suspect id, key id) pair."""
    report = engine.verify_fleet(dict(suspects), dict(keys))
    return {
        (pair.suspect_id, pair.key_id): {f: getattr(pair, f) for f in FIELDS}
        for pair in report.pairs
    }


def check_response(
    response: Mapping[str, object],
    expected: Mapping[Tuple[str, str], Decision],
    suspect: str,
    key_ids: Sequence[str],
) -> List[str]:
    """Every way ``response`` departs from the reference (empty when correct).

    ``suspect`` names the reference suspect the request was about; the
    response's own suspect id may differ (inline uploads get server ids).
    """
    problems: List[str] = []
    decisions = response.get("decisions")
    if not isinstance(decisions, list):
        return ["response carries no decisions"]
    got = {d.get("key_id"): d for d in decisions if isinstance(d, dict)}
    if sorted(got) != sorted(key_ids) or len(decisions) != len(key_ids):
        problems.append(f"decided keys {sorted(got)} != requested {sorted(key_ids)}")
    for key_id in key_ids:
        decision = got.get(key_id)
        want = expected.get((suspect, key_id))
        if decision is None or want is None:
            continue
        for field in FIELDS:
            if decision.get(field) != want[field]:
                problems.append(
                    f"{suspect}/{key_id[:12]} {field}: got {decision.get(field)!r}, "
                    f"expected {want[field]!r}"
                )
    return problems


def check_sweep_pass(
    digest: str, reference_digest: Optional[str], cells: Sequence[object]
) -> List[str]:
    """A gauntlet pass must repeat the first pass's decision digest, and every
    strength-0 cell (no attack applied) must be owned at 100% WER."""
    problems: List[str] = []
    if reference_digest is not None and digest != reference_digest:
        problems.append(f"decision digest {digest[:16]} != first pass {reference_digest[:16]}")
    for cell in cells:
        if float(cell.strength) == 0.0 and not (cell.owned and cell.wer_percent == 100.0):
            problems.append(
                f"{cell.attack}@0 not owned at 100% WER "
                f"(owned={cell.owned}, wer={cell.wer_percent})"
            )
    return problems
