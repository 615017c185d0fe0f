from functools import lru_cache

import pytest

from spets.chartables import char_table, feg_map
from spets.cyclotomic import Cyclo, CycloField, zeta
from spets.reflection import Matrix, ReflectionCoset, build_group
from spets.tabledata import construct_uch

# The built-in groups every oracle test runs on.
ORACLE_GROUPS = ("G4", "G(3,1,2)") + tuple(f"Z_{e}" for e in range(1, 13))


def r(v, lam):
    """The reflection 1 + (lam - 1) v v* / (v* v): it fixes the hyperplane
    orthogonal to v and scales v by lam."""
    v = [c if isinstance(c, Cyclo) else Cyclo.rational(c) for c in v]
    k = (lam - 1) / sum((c * c.conjugate() for c in v), Cyclo.rational(0))
    return Matrix([[(1 if i == j else 0) + k * a * b.conjugate() for j, b in enumerate(v)]
                   for i, a in enumerate(v)])


def _extra_gens():
    z3, i = zeta(3), zeta(4)
    g25 = [r((1, 0, 0), z3), r((1, 1, 1), z3), r((0, 0, 1), z3)]
    return {
        "G(4,1,2)": ([r((1, 0), i), r((1, 1), -1)], 4),
        "G6": ([r((1, 0), z3), r((1 + zeta(12), 1), -1)], 12),
        "G8": ([r((1, 0), i), r((1, 1), i)], 4),
        "G25": (g25, 3),
        "G26": (g25 + [r((1, -1, 0), -1)], 3),
        # G(4,4,4) and r((1,1,1,1), -1)
        "G29": ([r((1, -1, 0, 0), -1), r((0, 1, -1, 0), -1), r((0, 0, 1, -1), -1),
                 r((0, 0, 1, -i), -1), r((1, 1, 1, 1), -1)], 4),
    }


# Groups with no built-in, as split cosets, with their order, degrees,
# codegrees and number of classes (Shephard-Todd; Lehrer-Taylor, Unitary
# Reflection Groups).
EXTRA_GROUPS = {
    "G(4,1,2)": (32, (4, 8), (0, 4), 14),
    "G6": (48, (4, 12), (0, 8), 14),
    "G8": (96, (8, 12), (0, 4), 16),
    "G25": (648, (6, 9, 12), (0, 3, 6), 24),
    "G26": (1296, (6, 12, 18), (0, 6, 12), 48),
    "G29": (7680, (4, 8, 12, 20), (0, 8, 12, 16), 37),
}


@lru_cache(maxsize=None)
def extra_group(name):
    """One of EXTRA_GROUPS, built once per session."""
    gens, conductor = _extra_gens()[name]
    return ReflectionCoset(name, gens, CycloField.cyclotomic(conductor))


@pytest.fixture(scope="session")
def g4():
    return build_group("G4")


@pytest.fixture(scope="session")
def g312():
    return build_group("G(3,1,2)")


@pytest.fixture(scope="session")
def g4_result():
    return construct_uch("G4")


@pytest.fixture(scope="session")
def g312_result():
    return construct_uch("G(3,1,2)")


@pytest.fixture(scope="session")
def g4_fegs(g4):
    return feg_map(char_table(g4))


@pytest.fixture(scope="session")
def g312_fegs(g312):
    return feg_map(char_table(g312))
