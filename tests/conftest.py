import itertools

import pytest

from phasecat import GComplex, closure
from phasecat import fixtures as fx

GROUP_NAMES = ["trivial", "c2", "c4", "s3", "d4", "a4", "s4"]


@pytest.fixture(scope="session")
def groups():
    return {name: fx.load_group(name) for name in GROUP_NAMES}


@pytest.fixture(scope="session")
def c2s4():
    """C2 x S4 on six points, the benchmark's largest lattice group."""
    return closure(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5],
                       [0, 1, 2, 3, 5, 4]])


@pytest.fixture(scope="session")
def s3(groups):
    return groups["s3"]


@pytest.fixture(scope="session")
def c2(groups):
    return groups["c2"]


@pytest.fixture(scope="session")
def square_reflection(c2):
    return fx.load_complex("square_reflection", c2)


@pytest.fixture(scope="session")
def square_halfturn(c2):
    return fx.load_complex("square_halfturn", c2)


@pytest.fixture(scope="session")
def tetrahedron(groups):
    """S4 permuting the vertices of the tetrahedron boundary; a
    transposition fixes two faces setwise but swaps two of their
    vertices, so building it warns."""
    s4 = groups["s4"]
    with pytest.warns(UserWarning, match="setwise"):
        return GComplex(s4, 4, itertools.combinations(range(4), 3),
                        s4.generators)
