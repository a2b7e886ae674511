import pytest

from piezobeam import BeamSpec, PiezoSpec

from cases import model


@pytest.fixture(scope="session")
def beam():
    return BeamSpec()


@pytest.fixture(scope="session")
def piezo():
    return PiezoSpec()


@pytest.fixture(scope="session")
def model2():
    return model(2)


@pytest.fixture(scope="session")
def basis2(model2):
    return model2[0]


@pytest.fixture(scope="session")
def mats(model2):
    return model2[1]


@pytest.fixture(scope="session")
def mats_bare():
    return model(2, piezo=None)[1]


@pytest.fixture(scope="session")
def mats_undamped():
    return model(2, zeta_flex=(0.0, 0.0), zeta_tors=(0.0, 0.0))[1]
