"""Choi-state construction and the Bell-subspace pinching channel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    BELL_LABELS,
    BELL_STATES,
    DensityOperator,
    StateVector,
    layout,
)
from .linalg import HERMITIAN_TOL, apply_local, is_unitary, proj, tensor


def bell_basis(names: tuple[str, str] = ("S", "S'")) -> list[StateVector]:
    """The four Bell states on a two-qubit layout, in the order phi+, phi-, psi+, psi-."""
    lay = layout((names[0], 1), (names[1], 1))
    return [StateVector(lay, vec.copy()) for vec in BELL_STATES]


@dataclass(frozen=True)
class BellSubspaces:
    """Projectors onto span{phi+, psi+} and span{phi-, psi-}."""

    pi_plus: np.ndarray
    pi_minus: np.ndarray


def bell_subspaces() -> BellSubspaces:
    phi_p, phi_m, psi_p, psi_m = BELL_STATES
    return BellSubspaces(
        pi_plus=proj(phi_p) + proj(psi_p),
        pi_minus=proj(phi_m) + proj(psi_m),
    )


_SUBSPACES = bell_subspaces()


def choi_state(u: np.ndarray, names: tuple[str, str] = ("S", "S'")) -> StateVector:
    """(u (x) I)|phi+> for a single-qubit unitary u, on a (S, S') layout."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"choi_state takes a 2x2 unitary, got shape {u.shape}")
    if not is_unitary(u, HERMITIAN_TOL):
        raise ValueError("choi_state requires a unitary within tolerance")
    lay = layout((names[0], 1), (names[1], 1))
    return StateVector(lay, tensor(u, np.eye(2)) @ BELL_STATES[0])


def pinch_phi(a: np.ndarray) -> np.ndarray:
    """P+ A P+ + P- A P- on a two-qubit operator: kills cross-subspace coherence."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"pinch_phi takes a 4x4 operator, got shape {a.shape}")
    pp, pm = _SUBSPACES.pi_plus, _SUBSPACES.pi_minus
    return pp @ a @ pp + pm @ a @ pm


def apply_pinch(dm: DensityOperator, pair: tuple[str, str]) -> DensityOperator:
    """Pinch one named register pair inside a larger density operator."""
    n = dm.layout.total_qubits
    positions = dm.layout.positions(list(pair))
    pp, pm = _SUBSPACES.pi_plus, _SUBSPACES.pi_minus
    out = apply_local(dm.matrix, pp, n, positions) + apply_local(dm.matrix, pm, n, positions)
    return DensityOperator(dm.layout, out, validate=False)


def choi_density(channel, dim: int) -> np.ndarray:
    """Normalized Choi matrix (1/dim) sum_xy channel(|x><y|) (x) |x><y|.

    ``channel`` maps dim x dim matrices to dim x dim matrices.  The result is a
    density operator exactly when the channel is completely positive and trace
    preserving.
    """
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for x in range(dim):
        for y in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[x, y] = 1.0
            out += tensor(channel(unit), unit)
    return out / dim


__all__ = [
    "BELL_LABELS",
    "BellSubspaces",
    "apply_pinch",
    "bell_basis",
    "bell_subspaces",
    "choi_density",
    "choi_state",
    "pinch_phi",
]
