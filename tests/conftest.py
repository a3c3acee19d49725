import os

# One BLAS thread, as CI and perfbench/run.py set it: the kernels multiply
# small matrices, and a second thread only spins when the cores are shared.
# numpy reads these when it is first imported, which is below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from netbell.networks import (  # noqa: E402
    chain_topology,
    chsh_inequality,
    six_party_topology,
    tree5_topology,
)
from netbell.qstate import max_entangled  # noqa: E402


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
