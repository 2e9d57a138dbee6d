"""Random test-instance generators: matrices, unitaries, states, projectors."""

from __future__ import annotations

import numpy as np

from .linalg import dagger, proj


def random_complex_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(random_complex_matrix(rng, dim))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def ginibre_density(g: np.ndarray) -> np.ndarray:
    """The mixed state GG†/Tr of a square Ginibre matrix G, or of each of a stack (..., d, d)."""
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank mixed state GG†/Tr from a square Ginibre matrix G."""
    return ginibre_density(random_complex_matrix(rng, dim))


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    if not 0 <= rank <= dim:
        raise ValueError(f"projector rank {rank} out of range for dim {dim}")
    u = random_unitary(rng, dim)
    return sum(proj(u[:, k]) for k in range(rank)) if rank else np.zeros((dim, dim), dtype=complex)
