import math

import pytest
from hypothesis import HealthCheck, settings

from fibrank import OutOfRangeError, count_many, oracle
from fibrank.density import _EllOfDK

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


def _series_count(cache, k, x):
    """#A_k(x) by the exact counting identity, for k <= x coprime to a2:
    m | gcd(n, u_n) exactly when ell(m) | n, and no prime of a2 divides
    gcd(n, u_n), so Mobius inversion gives

        #A_k(x) = sum over squarefree d <= x/k with gcd(d, a2) = 1 of mu(d) * floor(x / ell(dk)).

    ell(dk) comes from the series window, so this ties the window's ell(dk)
    and its admitted d to enumeration; an ell(dk) past 64 bits exceeds x
    and counts 0.
    """
    window = _EllOfDK(cache, k, x // k, x // k, False, 1)
    total = 0
    for d in range(1, x // k + 1):
        if window.mu[d] and math.gcd(d, window.avoid) == 1:
            try:
                total += window.mu[d] * (x // window(d))
            except OutOfRangeError:
                pass
    return total


@pytest.fixture(scope="session")
def series_count():
    """_series_count(cache, k, x): the formula side of #A_k(x), for tests to
    hold against the enumeration oracles (oracle.py stays formula-free)."""
    return _series_count
