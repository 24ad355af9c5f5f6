import pytest
from hypothesis import HealthCheck, settings

from fibrank import count_many, oracle

settings.register_profile(
    "fibrank",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fibrank")

SCAN_LIMIT = 10**6


@pytest.fixture(scope="session")
def census_1e6():
    """One shared pass over n <= 10^6: #A_k and the first witness for every k.

    This is the brute-force side of the acceptance criteria; everything it
    reports comes straight from gcd(n, F_n) evaluations.
    """
    return count_many(None, SCAN_LIMIT, witness_cap=1, threads=1)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The n passed to oracle.gcd_n_fib, in call order."""
    seen = []
    real = oracle.gcd_n_fib

    def counted(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(oracle, "gcd_n_fib", counted)
    return seen
