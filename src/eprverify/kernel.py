"""Gates, and the pair reductions of a proof on the fixed layout.

A proof on l shared pairs is a raw 2^n vector or 2^n x 2^n matrix, n = p + 2l,
over the qubits (P, S1, S1', ..., Sl, Sl'): P is qubits 0..p-1, Si is qubit
p + 2(i-1) and Si' is qubit p + 2i - 1 (_pair_qubits).  All operations are
pure: they return new values and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .linalg import partial_trace


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

_S2 = 1 / np.sqrt(2)
HADAMARD = np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)

# Bell states in the fixed order phi+, phi-, psi+, psi-; the single source of
# truth for every sign-sensitive construction in the package.
BELL_STATES = np.array(
    [
        [_S2, 0, 0, _S2],
        [_S2, 0, 0, -_S2],
        [0, _S2, _S2, 0],
        [0, _S2, -_S2, 0],
    ],
    dtype=complex,
)
BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def rx_prob(q: float) -> np.ndarray:
    """X-axis rotation parameterized by the flip probability q in [0, 1].

    Maps |0> to sqrt(1-q)|0> - i sqrt(q)|1>, so a standard-basis measurement
    of the rotated |0> yields 1 with probability exactly q.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"flip probability q must be in [0, 1], got {q}")
    c, s = np.sqrt(1.0 - q), np.sqrt(q)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


# Two-qubit unitary mapping phi+ -> |00>, phi- -> |01>, psi+ -> -|10>, psi- -> -|11>.
# The signs on the psi rows matter: they make the decoder send
# a|phi+> + b|psi+> to (a|0> - b|1>) (x) |0>.
BELL_TO_COMPUTATIONAL = np.array([[1], [1], [-1], [-1]]) * BELL_STATES.conj()


# ---------------------------------------------------------------------------
# Pair symmetrization
# ---------------------------------------------------------------------------

def _pair_qubits(p_qubits: int, i: int) -> tuple[int, int]:
    """The qubits of pair i of a proof, pairs counted from 0: (S(i+1), S(i+1)')."""
    return p_qubits + 2 * i, p_qubits + 2 * i + 1


def select_ordered_pair(state: np.ndarray, p_qubits: int, l: int, i: int, j: int) -> np.ndarray:
    """Reduce a proof to (P, pair i, pair j), pairs counted from 0: pair i
    fills slot 1 and pair j slot 2 of a (P, S1, S1', S2, S2') matrix."""
    keep = [*range(p_qubits), *_pair_qubits(p_qubits, i), *_pair_qubits(p_qubits, j)]
    return partial_trace(state, p_qubits + 2 * l, keep)


def _swap_slots(m: np.ndarray, n_qubits: int) -> np.ndarray:
    """Exchange the last two qubit pairs of a 2^n x 2^n matrix, on both sides."""
    order = [*range(n_qubits - 4), n_qubits - 2, n_qubits - 1, n_qubits - 4, n_qubits - 3]
    axes = order + [n_qubits + q for q in order]
    return m.reshape([2] * (2 * n_qubits)).transpose(axes).reshape(m.shape)


def pair_reductions(state: np.ndarray, p_qubits: int, l: int) -> dict[tuple[int, int], np.ndarray]:
    """Every ordered pair (i, j) of a proof's l pairs mapped to its reduction,
    select_ordered_pair's matrix, in the order (i, j) then (j, i) for each i < j.

    Each unordered pair is reduced once; the reverse order is the same matrix
    with the two slots exchanged, which moves entries and so equals its own
    reduction bit for bit.
    """
    reduced = {}
    for i in range(l):
        for j in range(i + 1, l):
            dm = reduced[i, j] = select_ordered_pair(state, p_qubits, l, i, j)
            reduced[j, i] = _swap_slots(dm, p_qubits + 4)
    return reduced


def symmetrize_pairs(state: np.ndarray, p_qubits: int, l: int) -> np.ndarray:
    """Uniformly permute a proof's l pairs.

    Returns the permutation average restricted to the first two pair slots:
    the mean of the l(l-1) ordered-pair reductions (pair_reductions), a (P,
    S1, S1', S2, S2') matrix, summed in ordered-pair order.
    """
    reduced = pair_reductions(state, p_qubits, l)
    terms = [reduced[i, j] for i in range(l) for j in range(l) if i != j]
    return sum(terms) / len(terms)
