import faulthandler
import os

import pytest

from bch6351.gf64 import build_tables
from bch6351.reference_oracle import build_syndrome_table

# A test that runs this long has hung (the slowest takes about 16 s): the
# suite exits with every thread's traceback instead of waiting for a job
# timeout.
HANG_SECONDS = 120
TRACEBACK_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # A duplicate of the real stderr, taken while pytest's capture is
    # suspended: under fd capture, descriptor 2 and sys.stderr point at the
    # capture file during a test, and a traceback written there is lost.
    config.stash[TRACEBACK_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[TRACEBACK_FD])


@pytest.fixture(autouse=True)
def hang_bound(pytestconfig):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True,
                                      file=pytestconfig.stash[TRACEBACK_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def tables():
    return build_tables()


@pytest.fixture(scope="session")
def syndrome_table(tables):
    return build_syndrome_table(tables)
