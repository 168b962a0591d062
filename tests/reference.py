"""Test-side reference solves, independent of the chain engine's routes."""

import numpy as np


def stationary_distribution(chain):
    """Stationary law of an irreducible chain, by dense least squares.

    Solves ``[Q^T; 1^T] pi = [0; 1]`` on ``chain.generator``: the balance
    equations plus the normalisation, which pins the one solution.
    """
    system = np.vstack([chain.generator.toarray().T, np.ones(chain.n)])
    rhs = np.zeros(chain.n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]
