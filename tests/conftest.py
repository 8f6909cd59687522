import pytest

from frobstrat import ModelSpec, field_make


@pytest.fixture(scope="session")
def f3():
    return field_make(3)


@pytest.fixture(scope="session")
def f9():
    return field_make(3, 2)


@pytest.fixture(scope="session")
def model3(f3):
    return ModelSpec(f3, 3)


@pytest.fixture(scope="session")
def model9(f9):
    return ModelSpec(f9, 3)
