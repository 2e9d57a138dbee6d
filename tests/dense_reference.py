"""Dense Kronecker embedding of a local operator: the reference that
``linalg.apply_local`` is tested against.  It builds the full 2^n x 2^n
operator, so it is kept out of the package."""

import numpy as np

from eprverify.linalg import permute_qubits, tensor


def embed_unitary(u: np.ndarray, n_qubits: int, targets: list[int]) -> np.ndarray:
    """Extend an operator on the listed qubits (in that order) to the full space.

    Works for any square operator on the target subspace, not only unitaries.
    """
    u = np.asarray(u, dtype=complex)
    t = list(targets)
    if len(set(t)) != len(t):
        raise ValueError(f"duplicate target qubits: {t}")
    if u.shape != (2 ** len(t), 2 ** len(t)):
        raise ValueError(f"operator shape {u.shape} does not match {len(t)} target qubits")
    rest = [k for k in range(n_qubits) if k not in t]
    big = tensor(u, np.eye(2 ** len(rest))) if rest else u
    # big acts on qubit order t + rest; move axes back to global order.
    inv = np.argsort(t + rest)
    return permute_qubits(big, n_qubits, list(inv))
