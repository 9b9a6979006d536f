"""Minimal logging facade with run-scoped context.

All library modules obtain their logger through :func:`get_logger` so that a
single call configures the whole package consistently.  The default
configuration only attaches a ``NullHandler`` (library best practice); the
experiment runners, the CLI and examples call :func:`configure` to get
readable console output.

Two observability affordances on top:

* **Run-id context** — :func:`run_context` scopes a run identifier (a
  gauntlet sweep, a service request) onto every log record emitted inside
  the ``with`` block, across threads spawned inside it (it rides a
  :class:`contextvars.ContextVar`).  The console format renders it as a
  ``[run-id]`` prefix; records outside any run carry ``run_id="-"``.
* **Level resolution** — :func:`resolve_level` maps the CLI's
  ``--log-level`` / the ``REPRO_LOG_LEVEL`` environment variable (names or
  numbers) onto logging levels, so every entry point agrees on the knob.
"""

from __future__ import annotations

import contextvars
import logging
import os
from contextlib import contextmanager
from typing import Iterator, Optional, Union

__all__ = [
    "get_logger",
    "configure",
    "resolve_level",
    "run_context",
    "current_run_id",
]

_ROOT_NAME = "repro"
_LOG_FORMAT = "%(asctime)s %(name)s %(levelname)s [%(run_id)s]: %(message)s"

#: The run id attached to records emitted outside any :func:`run_context`.
_NO_RUN = "-"

_run_id: contextvars.ContextVar[str] = contextvars.ContextVar("repro_run_id", default=_NO_RUN)


def current_run_id() -> Optional[str]:
    """The active run id, or ``None`` outside any :func:`run_context`."""
    value = _run_id.get()
    return None if value == _NO_RUN else value


@contextmanager
def run_context(run_id: str) -> Iterator[str]:
    """Scope ``run_id`` onto every log record emitted inside the block."""
    token = _run_id.set(str(run_id))
    try:
        yield str(run_id)
    finally:
        _run_id.reset(token)


class _RunIdFilter(logging.Filter):
    """Stamp the contextvar's run id onto each record (filters run before
    formatting, and unlike adapters they cover loggers we don't hand out)."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.run_id = _run_id.get()
        return True


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    Parameters
    ----------
    name:
        Optional sub-name; ``get_logger("robustness.gauntlet")`` returns the
        logger ``repro.robustness.gauntlet``.
    """
    logger = logging.getLogger(_ROOT_NAME if not name else f"{_ROOT_NAME}.{name}")
    if not logging.getLogger(_ROOT_NAME).handlers:
        logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())
    return logger


def resolve_level(level: Union[int, str, None] = None) -> int:
    """Resolve an explicit level, then ``REPRO_LOG_LEVEL``, then ``INFO``.

    Accepts standard level names (any case) and numeric strings; unknown
    names fall back to ``INFO`` rather than crashing an entry point over a
    typo in an environment variable.
    """
    if level is None:
        level = os.environ.get("REPRO_LOG_LEVEL") or logging.INFO
    if isinstance(level, int):
        return level
    text = str(level).strip().upper()
    if text.isdigit():
        return int(text)
    resolved = logging.getLevelName(text)
    return resolved if isinstance(resolved, int) else logging.INFO


def configure(level: Union[int, str, None] = None) -> None:
    """Attach a console handler to the package root logger.

    Intended for scripts (examples, experiment runners, the CLI); libraries
    importing :mod:`repro` are unaffected unless they call this explicitly.
    ``level`` falls back to ``REPRO_LOG_LEVEL`` and then ``INFO`` (see
    :func:`resolve_level`).
    """
    root = logging.getLogger(_ROOT_NAME)
    root.setLevel(resolve_level(level))
    has_stream = any(isinstance(h, logging.StreamHandler) for h in root.handlers)
    if not has_stream:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        root.addHandler(handler)
    # The run-id filter rides the *handlers*: handler filters see every
    # record that propagates up from child loggers (logger filters do not).
    for handler in root.handlers:
        if not any(isinstance(f, _RunIdFilter) for f in handler.filters):
            handler.addFilter(_RunIdFilter())
