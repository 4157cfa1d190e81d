"""retry_with_backoff unit tests."""

import random

import pytest

from repro.errors import InjectedFaultError
from repro.fault import retry as retry_module
from repro.fault.retry import RetryExhaustedError, retry_with_backoff


class TestRetry:
    def test_success_first_try(self):
        calls = []
        result = retry_with_backoff(lambda attempt: calls.append(attempt) or "ok")
        assert result == "ok"
        assert calls == [0]

    def test_retries_until_success(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise InjectedFaultError("transient")
            return "recovered"

        assert retry_with_backoff(flaky, attempts=5, sleep=None) == "recovered"
        assert calls == [0, 1, 2]  # attempt index is passed through

    def test_exhaustion_raises_with_last_error(self):
        def always_fails(attempt):
            raise InjectedFaultError(f"boom {attempt}")

        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_with_backoff(always_fails, attempts=3, sleep=None)
        assert excinfo.value.attempts == 3
        assert "boom 2" in str(excinfo.value.last_error)

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        def fails_differently(attempt):
            calls.append(attempt)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_with_backoff(fails_differently, attempts=5, sleep=None)
        assert calls == [0]

    def test_backoff_is_exponential_and_capped(self):
        delays = []

        def always_fails(attempt):
            raise OSError("io")

        with pytest.raises(RetryExhaustedError):
            retry_with_backoff(
                always_fails,
                attempts=5,
                base_delay=0.1,
                max_delay=0.3,
                sleep=delays.append,
            )
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            retry_with_backoff(lambda attempt: None, attempts=0)


class TestJitterAndDeadline:
    def test_full_jitter_draws_within_cap_and_is_seeded(self):
        def delays_for(seed):
            delays = []

            def always_fails(attempt):
                raise OSError("io")

            with pytest.raises(RetryExhaustedError):
                retry_with_backoff(
                    always_fails,
                    attempts=5,
                    base_delay=0.1,
                    max_delay=0.3,
                    sleep=delays.append,
                    jitter=True,
                    seed=seed,
                )
            return delays

        first = delays_for(7)
        assert first == delays_for(7)  # reproducible under a seed
        assert first != delays_for(8)  # and actually seed-dependent
        for delay, cap in zip(first, [0.1, 0.2, 0.3, 0.3]):
            assert 0.0 <= delay <= cap  # full jitter: uniform in [0, cap]

    def test_max_elapsed_stops_before_attempts_exhaust(self):
        now = [0.0]

        def clock():
            return now[0]

        def sleep(delay):
            now[0] += delay

        def always_fails(attempt):
            now[0] += 1.0  # each attempt costs a second of wall clock
            raise OSError("io")

        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_with_backoff(
                always_fails,
                attempts=10,
                base_delay=0.5,
                max_delay=0.5,
                sleep=sleep,
                max_elapsed=2.0,
                clock=clock,
            )
        # attempt 0 (1s) + sleep 0.5 + attempt 1 (1s) = 2.5s; the next
        # retry would start past the 2.0s deadline, so only 2 ran.
        assert excinfo.value.attempts == 2
        assert excinfo.value.elapsed >= 2.0

    def test_max_elapsed_reports_elapsed_and_last_error(self):
        now = [0.0]

        def always_fails(attempt):
            now[0] += 5.0
            raise InjectedFaultError("slow failure")

        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_with_backoff(
                always_fails,
                attempts=4,
                sleep=None,
                max_elapsed=1.0,
                clock=lambda: now[0],
            )
        assert excinfo.value.attempts == 1
        assert "slow failure" in str(excinfo.value.last_error)

    def test_jitter_draws_the_seeded_sequence(self):
        delays = []

        def always_fails(attempt):
            raise OSError("io")

        with pytest.raises(RetryExhaustedError):
            retry_with_backoff(always_fails, attempts=4, base_delay=0.1,
                               max_delay=1.0, sleep=delays.append,
                               jitter=True, seed=3)
        rng = random.Random(3)
        assert delays == [rng.uniform(0.0, cap) for cap in (0.1, 0.2, 0.4)]

    def test_a_first_attempt_success_seeds_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("seeded a generator for a call that never retried")

        monkeypatch.setattr(retry_module.random, "Random", refuse)
        assert retry_with_backoff(lambda attempt: "ok", jitter=True, seed=5) == "ok"

    def test_success_within_deadline_unaffected(self):
        result = retry_with_backoff(
            lambda attempt: "ok", max_elapsed=0.001, jitter=True, seed=1
        )
        assert result == "ok"
