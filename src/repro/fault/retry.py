"""Retry with exponential backoff, for transient (often injected) faults.

A deliberately small helper: the polyglot workload uses it to model the
application-level retry loop a client would wrap around a store that can
suffer transient failures.  The sleep function is injectable so tests and
benchmarks never actually wait.

Two guardrails keep the loop honest under real contention:

* **Full jitter** (``jitter=True``) draws each delay uniformly from
  ``[0, base_delay * 2**attempt]`` instead of sleeping the deterministic
  cap — the AWS "full jitter" scheme that de-synchronizes a thundering
  herd of clients all retrying the same failed primary.  The RNG is
  seeded (``seed``) so a failing run is still reproducible.
* **``max_elapsed``** bounds the *total* wall-clock spent, attempts and
  sleeps included.  Without it, generous attempt counts can blow through
  query guardrail timeouts; with it, the loop gives up as soon as the
  next backoff sleep would cross the deadline.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional

from repro.errors import InjectedFaultError
from repro.obs import metrics as obs_metrics

__all__ = ["RetryExhaustedError", "retry_with_backoff"]


class RetryExhaustedError(InjectedFaultError):
    """Every attempt failed; carries the last underlying error."""

    code = "FAULT_RETRY_EXHAUSTED"

    def __init__(self, attempts: int, last_error: BaseException,
                 elapsed: float = 0.0):
        super().__init__(
            f"gave up after {attempts} attempt(s): {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error
        self.elapsed = elapsed


def retry_with_backoff(
    work: Callable[[int], Any],
    attempts: int = 3,
    retry_on: tuple = (InjectedFaultError, OSError),
    base_delay: float = 0.01,
    max_delay: float = 1.0,
    sleep: Optional[Callable[[float], None]] = time.sleep,
    jitter: bool = False,
    max_elapsed: Optional[float] = None,
    seed: Optional[int] = None,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Call ``work(attempt)`` (0-based attempt index) until it succeeds.

    Retries on *retry_on* exceptions with exponential backoff
    (``base_delay * 2**attempt``, capped at *max_delay*); any other
    exception propagates immediately.  With ``jitter=True`` each delay is
    instead drawn uniformly from ``[0, cap]`` (full jitter; deterministic
    under *seed*).  ``max_elapsed`` is a wall-clock deadline measured by
    *clock* from the first attempt: when a retry (including its backoff
    sleep) would start past the deadline, the loop gives up early.  After
    *attempts* failures — or a blown deadline — raises
    :class:`RetryExhaustedError` chaining the last error.  Passing the
    attempt index lets callers regenerate per-attempt state (e.g. a fresh
    idempotency key).  ``sleep=None`` disables the delay entirely.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    rng: Optional[random.Random] = None  # seeded at the first jittered retry
    started = clock()
    last_error: Optional[BaseException] = None
    made = 0
    for attempt in range(attempts):
        if attempt:
            delay = min(base_delay * (2 ** (attempt - 1)), max_delay)
            if jitter:
                if rng is None:
                    rng = random.Random(0 if seed is None else seed)
                delay = rng.uniform(0.0, delay)
            if max_elapsed is not None and (clock() - started) + delay > max_elapsed:
                break
            if sleep is not None and delay > 0.0:
                sleep(delay)
        made += 1
        try:
            result = work(attempt)
        except retry_on as error:
            last_error = error
            if obs_metrics.ENABLED and attempt + 1 < attempts:
                obs_metrics.counter("fault_retries_total").inc()
            continue
        return result
    raise RetryExhaustedError(made, last_error, elapsed=clock() - started)
