import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import tsppcong as tc
from tsppcong.verification import clear_expansion_cache

# exact expansions make single examples slow, so no property test has a deadline
settings.register_profile("tsppcong", deadline=None)
settings.load_profile("tsppcong")


@pytest.fixture(scope="session")
def instance1():
    """m=625 seed: proves the slice-variant claims behind the mod 125 results."""
    return tc.VerificationInstance(
        m=625,
        t=229,
        r=tc.slice_variant_spec(3, 5),
        r_prime=tc.EtaQuotientSpec(10, {1: 13}),
        u=125,
    )


@pytest.fixture(scope="session")
def instance2():
    """m=1375 seed: proves the slice-variant claims behind the mod 11 results."""
    return tc.VerificationInstance(
        m=1375,
        t=1054,
        r=tc.slice_variant_spec(1, 11),
        r_prime=tc.EtaQuotientSpec(110, {1: 6}),
        u=11,
    )


@pytest.fixture(scope="session")
def certificate1(instance1):
    """(certificate, elapsed seconds) for instance1, timed from a cold cache."""
    clear_expansion_cache()
    start = time.perf_counter()
    cert = tc.verify_instance(instance1)
    return cert, time.perf_counter() - start


@pytest.fixture(scope="session")
def certificate2(instance2):
    clear_expansion_cache()
    start = time.perf_counter()
    cert = tc.verify_instance(instance2)
    return cert, time.perf_counter() - start


@pytest.fixture(scope="session")
def shipped_docs():
    return tc.shipped_instances()
