"""Tests for the logging facade."""

import logging

from repro.utils.logging import configure, get_logger


def test_get_logger_namespacing():
    assert get_logger().name == "repro"
    assert get_logger("robustness.gauntlet").name == "repro.robustness.gauntlet"


def test_root_logger_has_null_handler_by_default():
    get_logger()
    root = logging.getLogger("repro")
    assert any(isinstance(h, logging.NullHandler) for h in root.handlers)


def test_configure_adds_single_stream_handler():
    configure()
    configure()  # idempotent
    root = logging.getLogger("repro")
    stream_handlers = [
        h for h in root.handlers
        if isinstance(h, logging.StreamHandler) and not isinstance(h, logging.NullHandler)
    ]
    assert len(stream_handlers) == 1
