import pytest

from kloostercodes import field_create


@pytest.fixture(scope="session")
def f3():
    return field_create(1)


@pytest.fixture(scope="session")
def f9():
    return field_create(2)


@pytest.fixture(scope="session")
def f27():
    return field_create(3)


@pytest.fixture(scope="session")
def f243():
    return field_create(5)
