"""Tests for the logging bridge: log_event, handlers, warn_once."""

import io
import logging
import warnings

from repro.obs.bridge import (
    get_logger,
    install_handler,
    log_event,
    reset_warn_once,
    warn_once,
)


class TestGetLogger:
    def test_namespaced_under_repro(self):
        assert get_logger("stats.micfast").name == "repro.stats.micfast"
        assert get_logger("repro.stats.micfast").name == "repro.stats.micfast"
        assert get_logger("repro").name == "repro"


class TestLogEvent:
    @staticmethod
    def _capture(level=logging.INFO):
        stream = io.StringIO()
        install_handler(level, stream=stream)
        return stream

    def test_key_value_format(self):
        stream = self._capture()
        log_event(
            get_logger("t"), logging.INFO, "alarm", context="wc@s1", tick=7
        )
        assert stream.getvalue() == (
            "INFO repro.t: event=alarm context=wc@s1 tick=7\n"
        )

    def test_fields_sorted_and_quoted(self):
        stream = self._capture()
        log_event(get_logger("t"), logging.INFO, "e", b="has space", a="")
        assert stream.getvalue().strip().endswith(
            "event=e a='' b='has space'"
        )

    def test_below_threshold_suppressed(self):
        stream = self._capture(logging.WARNING)
        log_event(get_logger("t"), logging.INFO, "quiet")
        assert stream.getvalue() == ""

    def test_reinstall_replaces_instead_of_stacking(self):
        first = io.StringIO()
        second = io.StringIO()
        install_handler(logging.INFO, stream=first)
        install_handler(logging.INFO, stream=second)
        log_event(get_logger("t"), logging.INFO, "once")
        assert first.getvalue() == ""
        assert second.getvalue().count("event=once") == 1


class TestWarnOnce:
    def test_first_warns_then_repeats_stay_silent(self):
        reset_warn_once()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert warn_once("k1", "msg", category=RuntimeWarning)
            assert not warn_once("k1", "msg", category=RuntimeWarning)
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert "msg" in str(caught[0].message)

    def test_distinct_keys_warn_independently(self):
        reset_warn_once()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_once("ka", "a")
            warn_once("kb", "b")
        assert len(caught) == 2

