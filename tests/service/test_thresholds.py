"""Decision-threshold validation on ``/v1/verify`` and the gauntlet job route.

JSON lets a client send ``NaN``, ``Infinity``, booleans and out-of-range
numbers where a threshold belongs.  Read with a bare ``float(...)`` they
turned into silent verdict changes (a ``NaN`` WER threshold makes every
comparison false, so a perfect match came back "not owned" — and was
audited that way).  Every such form is a 400 before any work is queued,
and nothing reaches the audit log.
"""

from __future__ import annotations

import pytest

from repro.service.client import ServiceError

NAN = float("nan")
INF = float("inf")

BAD_WER = [NAN, INF, -INF, True, False, -0.5, 100.5, "90", None, [90]]
BAD_PROBABILITY = [NAN, INF, True, -1e-9, 1.5, "1e-6", {"p": 0}]

ROUTES = [
    ("/v1/verify", {"suspect_id": "hit"}),
    (
        "/v1/jobs/robustness",
        {"suspect_id": "hit", "attacks": [{"name": "overwrite", "strengths": [0]}]},
    ),
]


def _rejected(client, path, body):
    entries_before = client.stats()["audit"]["entries"]
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", path, body)
    assert excinfo.value.status == 400
    assert client.stats()["audit"]["entries"] == entries_before
    return excinfo.value


@pytest.mark.parametrize("path,base", ROUTES, ids=[r[0] for r in ROUTES])
@pytest.mark.parametrize("value", BAD_WER, ids=repr)
def test_bad_wer_threshold_is_a_400(client, path, base, value):
    error = _rejected(client, path, {**base, "wer_threshold": value})
    assert "wer_threshold" in str(error)


@pytest.mark.parametrize("path,base", ROUTES, ids=[r[0] for r in ROUTES])
@pytest.mark.parametrize("value", BAD_PROBABILITY, ids=repr)
def test_bad_false_claim_bound_is_a_400(client, path, base, value):
    error = _rejected(client, path, {**base, "max_false_claim_probability": value})
    assert "max_false_claim_probability" in str(error)


@pytest.mark.parametrize("value", [v for v in BAD_WER if v is not None], ids=repr)
def test_bad_wer_threshold_fails_robustness_call_at_submission(client, value):
    # ``robustness()`` submits a job and waits; a bad threshold must be the
    # submission's 400, with no job created (``None`` means "omitted" here).
    jobs_before = client.jobs()
    entries_before = client.stats()["audit"]["entries"]
    with pytest.raises(ServiceError, match="wer_threshold") as excinfo:
        client.robustness(
            "hit",
            attacks=[{"name": "overwrite", "strengths": [0]}],
            wer_threshold=value,
        )
    assert excinfo.value.status == 400
    assert client.jobs() == jobs_before
    assert client.stats()["audit"]["entries"] == entries_before


@pytest.mark.parametrize(
    "thresholds,owned",
    [
        ({"wer_threshold": 0}, True),
        ({"wer_threshold": 100}, True),
        ({"wer_threshold": 100.0, "max_false_claim_probability": None}, True),
        ({"max_false_claim_probability": 0}, False),
        ({"max_false_claim_probability": 1}, True),
    ],
)
def test_boundary_values_are_accepted(client, thresholds, owned):
    response = client._request("POST", "/v1/verify", {"suspect_id": "hit", **thresholds})
    assert [d["owned"] for d in response["decisions"]] == [owned]
