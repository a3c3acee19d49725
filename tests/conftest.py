import pytest

from netbell.networks import (
    chain_topology,
    chsh_inequality,
    six_party_topology,
    tree5_topology,
)
from netbell.qstate import max_entangled


@pytest.fixture(scope="session")
def six_party():
    return six_party_topology()


@pytest.fixture(scope="session")
def six_party_ineq(six_party):
    return chsh_inequality(six_party)


@pytest.fixture(scope="session")
def tree5():
    return tree5_topology()


@pytest.fixture(scope="session")
def chain5():
    return chain_topology(5)


@pytest.fixture()
def phi_plus_states(six_party):
    return {s: max_entangled() for s in range(1, six_party.n_sources + 1)}
