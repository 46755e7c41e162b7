import tracemalloc

import pytest

from kempner.oracle import sieve_primes


@pytest.fixture(scope="session")
def sieve_100k():
    return sieve_primes(10**5)


@pytest.fixture(scope="session")
def traced_peak():
    """Run call() under tracemalloc: its result and the Python-heap peak
    (numpy arrays included) of the call, in bytes."""

    def run(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
