import numpy as np
import pytest

from latstab import Lattice, SamplerSpec, sample_lattice


@pytest.fixture
def z2():
    return Lattice.identity(2)


@pytest.fixture
def z3():
    return Lattice.identity(3)


# the largest prime SamplerSpec accepts (p < 2^62)
P_TOP = 2**62 - 57


def random_unimodular(n: int, seed: int, stream: int,
                      kind: str = "goldstein_mayer",
                      p: int = 2**31 - 1) -> Lattice:
    spec = SamplerSpec(kind=kind, n=n, seed=seed,
                       p=p if kind == "goldstein_mayer" else None,
                       stream=stream)
    return sample_lattice(spec)


def random_integer_rows(rng: np.random.Generator, k: int, n: int,
                        lo: int = -5, hi: int = 6):
    """Random full-row-rank integer matrix as a list of lists."""
    while True:
        m = rng.integers(lo, hi, size=(k, n))
        a = np.array(m, dtype=float)
        if np.linalg.matrix_rank(a) == k:
            return [[int(x) for x in row] for row in m]
