"""``GET /metrics``: Prometheus exposition over a live server.

Every sample the endpoint emits must parse under the mini text-format
parser from the obs tests, and the catalog rows the README documents —
server counters, request-latency histogram, dispatcher, admission, audit,
plan cache — must all be present after real traffic.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceError

from tests.obs.test_metrics import parse_exposition


@pytest.fixture()
def scraped(client):
    """(samples, helps, types) after a burst of real verify traffic."""
    for _ in range(3):
        client.verify("hit")
    client.verify("miss")
    client.stats()
    return parse_exposition(client.metrics())


class TestExposition:
    def test_every_line_parses(self, scraped):
        samples, _, _ = scraped
        assert samples  # parse_exposition asserts per-line well-formedness

    def test_server_counters_present_and_counted(self, scraped):
        samples, _, types = scraped
        assert types["repro_server_requests_total"] == "counter"
        # The scrape itself plus the traffic above: strictly positive.
        assert samples[("repro_server_requests_total", "")] >= 5
        assert samples[("repro_server_verifications_total", "")] >= 4
        for name in (
            "repro_server_rejected_rate_limit_total",
            "repro_server_rejected_owner_rate_total",
            "repro_server_errors_total",
            "repro_server_timeouts_total",
        ):
            assert (name, "") in samples

    def test_request_latency_histogram(self, scraped):
        samples, _, types = scraped
        assert types["repro_server_request_seconds"] == "histogram"
        assert samples[("repro_server_request_seconds_count", "")] >= 5
        assert samples[("repro_server_request_seconds_sum", "")] > 0
        inf_buckets = [
            value
            for (name, labels), value in samples.items()
            if name == "repro_server_request_seconds_bucket" and labels == 'le="+Inf"'
        ]
        assert inf_buckets and inf_buckets[0] >= 5

    def test_dispatcher_and_admission_series(self, scraped):
        samples, _, _ = scraped
        assert samples[("repro_dispatch_batches_total", "")] >= 1
        assert ("repro_admission_rejected_total", "") in samples
        assert ("repro_owner_admission_rejected_total", "") in samples

    def test_audit_and_plan_cache_series(self, scraped):
        samples, _, types = scraped
        assert samples[("repro_audit_entries_total", "")] >= 4
        assert samples[("repro_audit_dropped_writes_total", "")] == 0
        assert samples[("repro_audit_writer_alive", "")] == 1
        assert types["repro_audit_writer_alive"] == "gauge"
        # Registration derived the key's ticket through the plan cache;
        # verify traffic reads the resident ticket and never looks plans up.
        assert samples[("repro_plan_cache_misses_total", "")] >= 1
        assert ("repro_plan_cache_hits_total", "") in samples
        assert ("repro_registry_keys", "") in samples
        assert samples[("repro_registry_tickets", "")] >= 1

    def test_stats_and_metrics_agree_on_request_count(self, client):
        client.verify("hit")
        stats = client.stats()
        samples, _, _ = parse_exposition(client.metrics())
        # /metrics was scraped after /stats: exactly one request apart.
        delta = (
            samples[("repro_server_requests_total", "")]
            - stats["server"]["requests_total"]
        )
        assert delta == 1

    def test_metrics_is_get_only(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/metrics", {})
        assert excinfo.value.status == 405
