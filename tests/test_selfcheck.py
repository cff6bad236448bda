"""The identities of ``ddfv check``, one test per check and seed, so that a
failure names its identity.  ``selfcheck`` is their only implementation."""

import numpy as np
import pytest

from ddfv import selfcheck


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("check", selfcheck.CHECKS, ids=lambda c: c.__name__)
def test_property_check(check, seed):
    result = check(np.random.default_rng(seed))
    assert result.passed, result.line()
