import pytest

from tests.oracles import build_classical
from vermabranch import ClassicalType, PairSpec, build_pair


@pytest.fixture(scope="session")
def algebras():
    """Memoized classical realizations shared across the suite."""
    cache = {}

    def get(family, rank, with_center=False):
        key = (family, rank, with_center)
        if key not in cache:
            cache[key] = build_classical(ClassicalType(family, rank), with_center=with_center)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def pairs():
    """Memoized catalog pairs shared across the suite."""
    cache = {}

    def get(kind, **params):
        spec = PairSpec(kind, **params)
        if spec.id not in cache:
            cache[spec.id] = build_pair(spec)
        return cache[spec.id]

    return get
