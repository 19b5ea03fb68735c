"""Shared test recipes.

Test modules import these with ``from conftest import ...``; pytest puts
this directory on ``sys.path`` when it loads the conftest.
"""

import random
from fractions import Fraction

import pytest

from virialkit import inversion
from virialkit.inversion import GCState
from virialkit.species import MayerMatrices, SpeciesSpace


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty f-keyed memo of the default bound, in place of the process's
    one for the test, so that no family is read from an earlier test."""
    memo = inversion._Memo(inversion.MEMO_BOUND)
    monkeypatch.setattr(inversion, "_MEMO", memo)
    return memo


def rational_state(seed, S, N):
    """Dense rational state: f = k/16 with k in [-16, 8], weights k/2, k in [1, 4]."""
    r = random.Random(seed)
    f = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = Fraction(r.randint(-16, 8), 16)
    space = SpeciesSpace.from_weights([Fraction(r.randint(1, 4), 2) for _ in range(S)])
    return GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N)
