"""Dense, brute-force forms that package code is tested against.  They build
full matrices or sum explicitly, so they are kept out of the package."""

import numpy as np

from eprverify.linalg import tensor


def permute_qubits(t: np.ndarray, n_qubits: int, order: list[int]) -> np.ndarray:
    """Reorder the tensor factors of a 2^n vector, or of a 2^n x 2^n matrix on both
    index groups: new axis k holds old axis order[k]."""
    t = np.asarray(t, dtype=complex)
    axes = list(order) if t.ndim == 1 else list(order) + [n_qubits + k for k in order]
    return t.reshape([2] * len(axes)).transpose(axes).reshape(t.shape)


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


def pure_fidelity(phi: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity of a pure state against sigma in closed form: sqrt(<phi|sigma|phi>)."""
    val = float(np.real(np.vdot(phi, sigma @ phi)))
    return float(np.sqrt(max(val, 0.0)))


def bell_branch(rho: np.ndarray, n_qubits: int, pair: list[int], keep: list[int], bell: np.ndarray) -> np.ndarray:
    """Unnormalized state of the ``keep`` qubits (in that order) after projecting
    the qubit pair onto the two-qubit vector ``bell``, every other qubit traced
    out, by explicit sums over the full density matrix."""
    others = [k for k in range(n_qubits) if k not in pair and k not in keep]
    dk, do = 2 ** len(keep), 2 ** len(others)
    t = permute_qubits(rho, n_qubits, [*pair, *keep, *others]).reshape(4, dk, do, 4, dk, do)
    return np.einsum("b,bxocyo,c->xy", np.conj(bell), t, bell)
