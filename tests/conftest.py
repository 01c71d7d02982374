import numpy as np
import pytest

from gxelab import genome


def make_trio_population(n_families: int, panel, rho: float, seed: int):
    """Founder couples plus one child per family; returns (parents, children, pedigree)."""
    parents = genome.simulate_founders(panel, rho, 2 * n_families, seed)
    mothers = parents.ids[:n_families]
    fathers = parents.ids[n_families:]
    ped = genome.Pedigree(
        child_ids=[f"c{i}" for i in range(n_families)],
        mother_ids=mothers,
        father_ids=fathers,
        family_ids=[f"fam{i}" for i in range(n_families)],
        design="trios",
    )
    children = genome.transmit(parents, ped, seed + 1)
    return parents, children, ped


def make_sibling_population(n_families: int, panel, rho: float, seed: int):
    """Founder couples with two children per family (sibling-pairs design)."""
    parents = genome.simulate_founders(panel, rho, 2 * n_families, seed)
    mothers = parents.ids[:n_families]
    fathers = parents.ids[n_families:]
    child_ids, mom_ids, dad_ids, fam_ids = [], [], [], []
    for i in range(n_families):
        for s in (0, 1):
            child_ids.append(f"c{i}_{s}")
            mom_ids.append(mothers[i])
            dad_ids.append(fathers[i])
            fam_ids.append(f"fam{i}")
    ped = genome.Pedigree(child_ids, mom_ids, dad_ids, fam_ids, design="sibling-pairs")
    children = genome.transmit(parents, ped, seed + 1)
    return parents, children, ped


@pytest.fixture(scope="session")
def small_panel():
    return genome.build_panel([5, 5], np.full(10, 0.3))


@pytest.fixture(scope="session")
def small_ld():
    return 0.4
