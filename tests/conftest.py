import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dpcat import CategorySpace, ExponentialSpec, NegL1Utility, PrivacyParams


def make_space(m: int) -> CategorySpace:
    return CategorySpace(tuple(str(i) for i in range(m + 1)))


@dataclasses.dataclass(frozen=True)
class _PinnedParams(PrivacyParams):
    """Privacy parameters whose exact pair is two given rationals, not the
    binary values of the floats: every exact route reads the budget
    through ``exact_pair``."""

    e_eps_exact: Fraction = Fraction(1)
    delta_exact: Fraction = Fraction(0)

    def exact_pair(self) -> tuple[Fraction, Fraction]:
        return self.e_eps_exact, self.delta_exact


def exact_params(e_eps, delta) -> PrivacyParams:
    """Privacy parameters pinned to the rationals e^eps and delta."""
    e_eps, delta = Fraction(e_eps), Fraction(delta)
    return _PinnedParams(math.log(e_eps), float(delta), e_eps, delta)


@pytest.fixture
def space3() -> CategorySpace:
    """Three numeric categories 0, 1, 2."""
    return make_space(2)


@pytest.fixture
def l1_spec(space3) -> ExponentialSpec:
    """The 3-category, 2-row mechanism with u = -||d - d'||_1."""
    return ExponentialSpec(space3, 2, NegL1Utility())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)
