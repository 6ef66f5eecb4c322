import pytest

from sectorfact.fixtures import (
    cyclic_arc_category,
    diagonal_net,
    interval_category,
    interval_reflection_action,
    qubit_net,
    qubit_reflection_data,
    standard_sector_family,
)


@pytest.fixture(scope="session")
def intcat6():
    return interval_category(6)


@pytest.fixture(scope="session")
def intcat6_proper():
    return interval_category(6, max_len=5)


@pytest.fixture(scope="session")
def intcat4():
    return interval_category(4)


@pytest.fixture(scope="session")
def cyccat6():
    return cyclic_arc_category(6)


@pytest.fixture(scope="session")
def z2_intcat6(intcat6):
    return interval_reflection_action(intcat6, 6)


@pytest.fixture(scope="session")
def net4():
    return qubit_net(4)


@pytest.fixture(scope="session")
def net2():
    return qubit_net(2)


@pytest.fixture(scope="session")
def z2_data(net4):
    return qubit_reflection_data(net4)


@pytest.fixture(scope="session")
def family4(net4):
    return standard_sector_family(net4)


@pytest.fixture(scope="session")
def bits4():
    return diagonal_net(4)
