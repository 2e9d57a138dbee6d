"""Choi-state construction and the Bell-subspace pinching channel."""

from __future__ import annotations

import numpy as np

from .kernel import BELL_STATES
from .linalg import apply_local, is_unitary, proj, tensor

# Projectors onto span{phi+, psi+} and span{phi-, psi-}.
PI_PLUS = proj(BELL_STATES[0]) + proj(BELL_STATES[2])
PI_MINUS = proj(BELL_STATES[1]) + proj(BELL_STATES[3])


def choi_state(u: np.ndarray) -> np.ndarray:
    """(u (x) I)|phi+> for a single-qubit unitary u: the 4-vector of a pair (S, S')."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"choi_state takes a 2x2 unitary, got shape {u.shape}")
    if not is_unitary(u):
        raise ValueError("choi_state requires a unitary within tolerance")
    return tensor(u, np.eye(2)) @ BELL_STATES[0]


def apply_pinch(t: np.ndarray, n_qubits: int, pair: list[int]) -> np.ndarray:
    """Pinch the qubit pair (in that order) of a 2^n x 2^n density matrix, or
    of each of a stack (..., 2^n, 2^n), identity elsewhere."""
    out = apply_local(t, PI_PLUS, n_qubits, pair)
    out += apply_local(t, PI_MINUS, n_qubits, pair)
    return out

