import pathlib

import pytest
from hypothesis import HealthCheck, settings

import splittings as sp
from splittings.orbifold import B, M, BoundaryCircle, Orbifold2

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def tree_distance(x, y):
    # the distance of two vertices of the coset tree, read from their whole
    # coset paths: the reference for the common prefixes the ball walk
    # carries from vertex to vertex
    common = 0
    for a, b in zip(x, y):
        if a != b:
            break
        common += 1
    return len(x) + len(y) - 2 * common


@pytest.fixture
def bs12():
    return sp.validate_graph(sp.bs(1, 2))


@pytest.fixture
def bs23():
    return sp.validate_graph(sp.bs(2, 3))


@pytest.fixture
def bs11():
    return sp.validate_graph(sp.bs(1, 1))


def make_m3():
    # two BS(2,3) loops joined by a (2,2)-edge; spanning tree is {f}
    return sp.validate_graph(
        sp.graph(
            ("u", "v"),
            (("e", "u", "u", 2, 3), ("ep", "v", "v", 2, 3), ("f", "u", "v", 2, 2)),
            name="m3",
        )
    )


@pytest.fixture
def m3():
    return make_m3()


@pytest.fixture
def pants():
    return sp.validate(
        Orbifold2(True, 0, (), (BoundaryCircle.plain(),) * 3)
    )


@pytest.fixture
def turnover():
    return sp.validate(Orbifold2(True, 0, (2, 3, 7)))


@pytest.fixture
def mirror_disc():
    circle = BoundaryCircle.mixed(
        (M, M, B, M, M, B), (2, None, None, 2, None, None)
    )
    return sp.validate(Orbifold2(True, 0, (), (circle,)))
