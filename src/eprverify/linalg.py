"""Dense complex linear algebra on raw numpy arrays.

Everything here operates on plain ``np.ndarray`` values and qubit positions;
the package applies every operator with ``apply_local`` and reduces every
state with ``partial_trace``.  Qubit convention throughout the package: qubit
0 is the most significant index bit, so a basis index reads left-to-right as
a bit string.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
# The one stack bound: a stacked call's states (pair trees, SWAP circuits) or inputs (lemma
# instances) stay within this many bytes, so its memory does not grow with what waits, and
# glibc, which maps a larger array fresh and faults in its every page, is not asked to.
STACK_BYTES = 2**17


def stack_limit(n_qubits: int) -> int:
    """Most n-qubit densities (16 * 4^n bytes each) in STACK_BYTES, at least one."""
    return max(1, STACK_BYTES >> 4 + 2 * n_qubits)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def proj(v: np.ndarray) -> np.ndarray:
    """Outer product |v><v|."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors, or of matrices over their last two axes,
    left factor most significant.

    Matrices may be stacks (..., m, n), whose leading axes broadcast.  Each
    factor takes one broadcast multiply, its axes interleaved with the product
    so far, so each entry is the single product np.kron computes.
    """
    if not ops:
        raise ValueError("tensor requires at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        if out.ndim == op.ndim == 1:
            out = (out[:, None] * op[None, :]).reshape(-1)
        elif min(out.ndim, op.ndim) >= 2:
            prod = out[..., :, None, :, None] * op[..., None, :, None, :]
            rows, cols = out.shape[-2] * op.shape[-2], out.shape[-1] * op.shape[-1]
            out = prod.reshape(prod.shape[:-4] + (rows, cols))
        else:
            raise ValueError(f"tensor needs vectors or matrices alike, got shapes {out.shape} and {op.shape}")
    return out


def is_hermitian(a: np.ndarray) -> bool:
    """Whether a matrix, or every matrix of a stack (..., d, d), is Hermitian."""
    a = np.asarray(a)
    return a.shape[-2] == a.shape[-1] and np.max(np.abs(a - dagger(a))) <= HERMITIAN_TOL


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        return False
    return np.max(np.abs(dagger(a) @ a - np.eye(a.shape[0]))) <= HERMITIAN_TOL


def is_projector(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return is_hermitian(a) and np.max(np.abs(a @ a - a)) <= HERMITIAN_TOL


def _require_square(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{what} requires a square matrix or a stack of them, got shape {a.shape}")
    return a


# The functions below take a square matrix or a stack of them (..., d, d) and
# work on the last two axes.  numpy's svd/eigh and matmul call the same LAPACK
# and BLAS routine on each matrix of a stack as on the matrix alone, so each
# result is bit for bit the one the matrix would get on its own.

def trace_norm(a: np.ndarray) -> np.ndarray:
    """Sum of singular values of each square matrix."""
    a = _require_square(a, "trace_norm")
    return np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)


def operator_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each square matrix."""
    a = _require_square(a, "operator_norm")
    return np.max(np.linalg.svd(a, compute_uv=False), axis=-1)


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """PSD matrix square root via spectral decomposition, of each matrix.

    The eigenpairs are summed in descending order of eigenvalue.  Eigenvalues
    in [-HERMITIAN_TOL, 0) are clamped to 0; anything more negative is an
    error.  Eigenvalues below a relative noise floor are zeroed outright: the
    square root would otherwise amplify O(eps) solver noise to O(sqrt(eps)).
    """
    a = _require_square(a, "hermitian_sqrt")
    if not is_hermitian(a):
        raise ValueError("hermitian_sqrt requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[..., ::-1].copy(), vecs[..., ::-1].copy()
    if np.min(vals) < -HERMITIAN_TOL:
        raise ValueError(f"hermitian_sqrt requires PSD input, min eigenvalue {np.min(vals):.3e}")
    top = np.max(vals, axis=-1, keepdims=True)
    # max(top, 1.0) as Python's max() takes it: a NaN top stays NaN.
    floor = 1e-12 * np.where(1.0 > top, 1.0, top)
    cleaned = np.where(vals < floor, 0.0, vals)
    root = np.sqrt(cleaned)
    return (vecs * root[..., None, :]) @ dagger(vecs)


def _require_register(t: np.ndarray, n_qubits: int, what: str) -> None:
    d = 2**n_qubits
    if t.shape[-2:] != ((d,) if t.ndim == 1 else (d, d)):
        raise ValueError(f"{what} needs a 2^n vector or (..., 2^n, 2^n) matrices for n_qubits={n_qubits}, "
                         f"got shape {t.shape}")


def apply_local(t: np.ndarray, op: np.ndarray, n_qubits: int, targets: list[int]) -> np.ndarray:
    """Apply an operator on the listed qubits (in that order), identity elsewhere.

    A 2^n vector psi gives op psi; a 2^n x 2^n matrix rho, or a stack of them
    (..., 2^n, 2^n), gives op rho op† for each.  Any square operator on the
    target subspace is accepted, not only unitaries.

    One copy in puts the ket targets first, then the bra targets; op
    contracts the ket targets, then op.conj() each ket row's bra targets on a
    view of that product; one copy out.  So a call holds two arrays of its
    input's size beyond it, and each entry is np.tensordot's, bit for bit.
    """
    op = np.asarray(op, dtype=complex)
    t = np.asarray(t, dtype=complex)
    targets = list(targets)
    if len(set(targets)) != len(targets) or any(q < 0 or q >= n_qubits for q in targets):
        raise ValueError(f"invalid target qubits {targets} for {n_qubits} qubits")
    k = 2 ** len(targets)
    if op.shape != (k, k):
        raise ValueError(f"operator shape {op.shape} does not match {len(targets)} target qubits")
    _require_register(t, n_qubits, "apply_local")
    rest = [q for q in range(n_qubits) if q not in targets]
    sides = (0,) if t.ndim == 1 else (0, n_qubits)
    lead = t.ndim - len(sides)
    qubits = t.shape[:lead] + (2,) * (len(sides) * n_qubits)
    order = [*range(lead), *(lead + s + q for qs in (targets, rest) for s in sides for q in qs)]
    x = np.matmul(op, t.reshape(qubits).transpose(order).reshape(t.shape[:lead] + (k, -1)))
    if t.ndim > 1 and x.shape[-1] == k:
        # Every qubit a target: numpy takes (k, k) @ (k, 1) as a matrix-vector
        # product, which rounds otherwise, so use one (k, k) product instead.
        x = np.matmul(op.conj(), x.swapaxes(-1, -2)).swapaxes(-1, -2)
    elif t.ndim > 1:
        x = np.matmul(op.conj(), x.reshape(t.shape[:lead] + (k, k, -1)))
    return x.reshape(qubits).transpose(sorted(range(len(order)), key=order.__getitem__)).reshape(t.shape)


def partial_trace(t: np.ndarray, n_qubits: int, keep: list[int]) -> np.ndarray:
    """Trace out all qubits not in ``keep``; kept factors appear in the listed order.

    ``t`` is a 2^n x 2^n matrix or a stack of them (..., 2^n, 2^n), or a 2^n
    vector psi standing for |psi><psi|, which is reduced without forming that
    matrix.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("partial_trace requires a nonempty keep list")
    if len(set(keep)) != len(keep) or any(k < 0 or k >= n_qubits for k in keep):
        raise ValueError(f"invalid keep positions {keep} for {n_qubits} qubits")
    drop = [k for k in range(n_qubits) if k not in keep]
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    t = np.asarray(t, dtype=complex)
    _require_register(t, n_qubits, "partial_trace")
    if t.ndim == 1:
        m = t.reshape([2] * n_qubits).transpose(keep + drop).reshape(dk, dd)
        return m @ dagger(m)
    lead = t.shape[:-2]
    axes = keep + drop + [n_qubits + k for k in keep] + [n_qubits + k for k in drop]
    axes = [*range(len(lead)), *(len(lead) + a for a in axes)]
    t = t.reshape(lead + (2,) * (2 * n_qubits)).transpose(axes).reshape(lead + (dk, dd, dk, dd))
    return np.einsum("...ikjk->...ij", t)
