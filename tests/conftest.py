import pytest

from polarcover.cover import CoverGraph
from polarcover.finite_field import construct_field
from polarcover.maslov import CoherenceTable
from polarcover.scheme_core import SchemeInstance, verify_scheme, spectral_data
from polarcover.symplectic import SymplecticSpace


def _bundle(p, e, n):
    """Everything downstream tests need for one (q, n) instance."""
    space = SymplecticSpace(construct_field(p, e), n)
    table = CoherenceTable(space)
    cover = CoverGraph(table)
    instance = SchemeInstance.from_cover(cover)
    return {"space": space, "table": table, "cover": cover,
            "instance": instance}


@pytest.fixture(scope="session")
def q5n1():
    return _bundle(5, 1, 1)


@pytest.fixture(scope="session")
def q5n2():
    return _bundle(5, 1, 2)


@pytest.fixture(scope="session")
def q9n1():
    return _bundle(3, 2, 1)


@pytest.fixture(scope="session")
def q9n2():
    return _bundle(3, 2, 2)


@pytest.fixture(scope="session")
def q13n1():
    return _bundle(13, 1, 1)


@pytest.fixture(scope="session")
def q5n2_scheme(q5n2):
    tensor = verify_scheme(q5n2["instance"])
    sd = spectral_data(tensor, 5)
    return {"tensor": tensor, "sd": sd, **q5n2}


@pytest.fixture(scope="session")
def q5n1_scheme(q5n1):
    tensor = verify_scheme(q5n1["instance"])
    sd = spectral_data(tensor, 5)
    return {"tensor": tensor, "sd": sd, **q5n1}
