"""The shared explicit > configured > env > default precedence helper."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.config import (
    BACKEND_ENV,
    SCHEDULER_ENV,
    ServingConfig,
    resolve_backend,
    resolve_choice,
    resolve_scheduler,
)

ALLOWED = ("alpha", "beta")


def resolve(explicit=None, configured=None, default=None):
    return resolve_choice(
        explicit, configured, "REPRO_TEST_CHOICE", ALLOWED,
        explicit_name="explicit test knob",
        configured_name="TestConfig.knob",
        default=default,
    )


class TestPrecedenceOrders:
    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "beta")
        assert resolve("alpha", "beta") == "alpha"

    def test_configured_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "beta")
        assert resolve(None, "alpha") == "alpha"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "beta")
        assert resolve(default="alpha") == "beta"

    def test_default_when_all_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_CHOICE", raising=False)
        assert resolve() is None
        assert resolve(default="alpha") == "alpha"

    def test_empty_string_falls_through(self, monkeypatch):
        """'' means unset at every level, like an empty env var."""
        monkeypatch.setenv("REPRO_TEST_CHOICE", "")
        assert resolve("", "") is None
        assert resolve("", "alpha") == "alpha"


class TestValidation:
    def test_invalid_winner_raises_with_its_source_named(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "junk")
        with pytest.raises(ConfigurationError, match="REPRO_TEST_CHOICE"):
            resolve()
        with pytest.raises(ConfigurationError, match="explicit test knob"):
            resolve("junk")
        with pytest.raises(ConfigurationError, match="TestConfig.knob"):
            resolve(None, "junk")

    def test_losing_source_is_never_validated(self, monkeypatch):
        """An explicit override must shadow a broken environment."""
        monkeypatch.setenv("REPRO_TEST_CHOICE", "garbage-value")
        assert resolve("alpha") == "alpha"
        assert resolve(None, "beta") == "beta"

    def test_default_is_not_validated(self, monkeypatch):
        # the default is the caller's own fallback, not user input
        monkeypatch.delenv("REPRO_TEST_CHOICE", raising=False)
        assert resolve(default="not-in-allowed") == "not-in-allowed"


class TestBackendKnob:
    def test_default_is_gc(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "gc"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "he")
        assert resolve_backend() == "he"

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "he")
        assert resolve_backend(configured="gc") == "gc"

    def test_explicit_overrides_config(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "gc")
        assert resolve_backend("he", "gc") == "he"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "paillier")
        with pytest.raises(ConfigurationError, match="REPRO_BACKEND"):
            resolve_backend()

    def test_serving_config_validates_backend(self):
        assert ServingConfig(backend="he").validate().backend == "he"
        assert ServingConfig().validate().backend is None
        with pytest.raises(ConfigurationError, match="backend"):
            ServingConfig(backend="paillier").validate()


class TestSchedulerKnob:
    def test_uses_the_shared_helper_semantics(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "ring")
        assert resolve_scheduler() == "ring"
        assert resolve_scheduler("fifo", None) == "fifo"
        assert resolve_scheduler(None, "fifo") == "fifo"
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        assert resolve_scheduler() == "fifo"
        assert resolve_scheduler(default=None) is None
        monkeypatch.setenv(SCHEDULER_ENV, "lottery")
        with pytest.raises(ConfigurationError, match="REPRO_SCHEDULER"):
            resolve_scheduler()
