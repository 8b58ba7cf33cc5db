import os

import pytest

from mgpert.params import MgParams, PerturbParams, derive_params

# child interpreters (the CLI runs) import the same tree as the tests
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# high-vol scenario used throughout: sharp mean reversion, large vol-of-vol
SCN_SIGMA = 0.2865


@pytest.fixture(scope="session")
def scn_mg():
    return MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)


@pytest.fixture(scope="session")
def scn_pert(scn_mg):
    return PerturbParams.from_mg(scn_mg, SCN_SIGMA)


@pytest.fixture(scope="session")
def scn_deriv(scn_mg, scn_pert):
    return derive_params(scn_mg, scn_pert)
