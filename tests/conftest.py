import pytest

from bch6351.gf64 import build_tables
from bch6351.reference_oracle import build_syndrome_table


@pytest.fixture(scope="session")
def tables():
    return build_tables()


@pytest.fixture(scope="session")
def syndrome_table(tables):
    return build_syndrome_table(tables)
