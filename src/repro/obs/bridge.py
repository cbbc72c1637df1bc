"""Structured stdlib-``logging`` bridge for the reproduction.

Every module logs through a child of the ``repro`` logger, which stays a
silent no-op (a :class:`logging.NullHandler`) until someone opts in —
library code must never spam a host application's root logger.  The CLI
and :func:`repro.obs.configure` opt in by installing one stream handler
with a compact ``key=value`` structured format.

:func:`warn_once` is the bridge between one-shot operator warnings and
the logging stream: the first occurrence of a key raises a real
:mod:`warnings` warning (so test tooling and ``-W error`` policies keep
working) *and* logs it; repeats only log at DEBUG.  The fleet's
untrained-context warning routes through it, turning a once-per-tick
nag into a once-per-process signal.
"""

from __future__ import annotations

import logging
import sys
import threading
import warnings
from typing import Any, TextIO

__all__ = [
    "ROOT_LOGGER_NAME",
    "get_logger",
    "log_event",
    "install_handler",
    "remove_handler",
    "warn_once",
    "reset_warn_once",
]

#: The root of the reproduction's logger hierarchy.
ROOT_LOGGER_NAME = "repro"

#: Marker attribute identifying handlers installed by this bridge (so
#: reconfiguring replaces ours instead of stacking duplicates or touching
#: handlers the host application installed).
_HANDLER_MARK = "_repro_obs_handler"

_root = logging.getLogger(ROOT_LOGGER_NAME)
_root.addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """The logger for one subsystem, namespaced under ``repro.``.

    ``get_logger("stats.micfast")`` and ``get_logger("repro.stats.micfast")``
    return the same logger.
    """
    if name == ROOT_LOGGER_NAME:
        return _root
    if name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def log_event(
    logger: logging.Logger, level: int, event: str, **fields: Any
) -> None:
    """Emit one structured ``event key=value ...`` log line.

    Values are rendered with ``!r`` only when they contain spaces, so the
    common case stays grep-friendly (``event=alarm context=wordcount@slave-1``).
    """
    if not logger.isEnabledFor(level):
        return
    parts = [f"event={event}"]
    for key in sorted(fields):
        value = fields[key]
        text = str(value)
        if " " in text or text == "":
            text = repr(text)
        parts.append(f"{key}={text}")
    logger.log(level, " ".join(parts))


def install_handler(
    level: int | str = logging.INFO, stream: TextIO | None = None
) -> logging.Handler:
    """Attach (or replace) the bridge's stream handler on ``repro``.

    Args:
        level: threshold for the ``repro`` hierarchy (name or number).
        stream: destination (default ``sys.stderr``).

    Returns:
        The installed handler (tests capture its stream).
    """
    if isinstance(level, str):
        parsed = logging.getLevelName(level.upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    remove_handler()
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    setattr(handler, _HANDLER_MARK, True)
    _root.addHandler(handler)
    _root.setLevel(level)
    return handler


def remove_handler() -> None:
    """Detach any handler :func:`install_handler` previously installed."""
    for handler in list(_root.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            _root.removeHandler(handler)


_seen_once: set[str] = set()  # repro: guarded-by=_seen_lock
_seen_lock = threading.Lock()


def warn_once(
    key: str,
    message: str,
    category: type[Warning] = RuntimeWarning,
    logger: logging.Logger | None = None,
    stacklevel: int = 2,
) -> bool:
    """Warn the first time ``key`` is seen this process; log every time.

    Args:
        key: deduplication key (stable per call site, not per message, so
            a fallback that fires with varying detail still dedups).
        message: the human-facing text.
        category: :mod:`warnings` category for the first occurrence.
        logger: destination logger (default: the bridge root).
        stacklevel: forwarded to :func:`warnings.warn`, counted from the
            caller of ``warn_once``.

    Returns:
        True when this call was the first occurrence.
    """
    log = logger or _root
    with _seen_lock:
        first = key not in _seen_once
        if first:
            _seen_once.add(key)
    if first:
        warnings.warn(message, category, stacklevel=stacklevel + 1)
        log.warning(message)
    else:
        log.debug("suppressed repeat warning [%s]: %s", key, message)
    return first


def reset_warn_once() -> None:
    """Forget every seen key (tests that assert the first-occurrence
    behaviour)."""
    with _seen_lock:
        _seen_once.clear()
