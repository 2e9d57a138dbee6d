"""Monolithic density-matrix evolution of the two-pair verifier, written from
scratch against the protocol description and sharing no code with the package.

Deliberate differences from the package engine: the ancilla register sits at
the least significant end of a single fixed global order (P, S1, S1', S2, S2',
A); the random pair choice is averaged into the state up front instead of
branching; the swap-test branch is evaluated through the swap-operator trace
formula instead of a circuit; Bell projectors are assembled entry by entry.
"""

from functools import reduce

import numpy as np

E00 = np.array([[1, 0], [0, 0]], dtype=complex)
E11 = np.array([[0, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = 1 / np.sqrt(2)

BELL = {
    "phi+": np.array([S2, 0, 0, S2], dtype=complex),
    "phi-": np.array([S2, 0, 0, -S2], dtype=complex),
    "psi+": np.array([0, S2, S2, 0], dtype=complex),
    "psi-": np.array([0, S2, -S2, 0], dtype=complex),
}

# decoder rows written out from its defining action on the Bell vectors
W_DECODER = np.array(
    [
        [S2, 0, 0, S2],
        [S2, 0, 0, -S2],
        [0, -S2, -S2, 0],
        [0, -S2, S2, 0],
    ],
    dtype=complex,
)


def kron_all(*mats):
    return reduce(np.kron, mats)


def qubit_permutation(n, new_order):
    """Matrix sending |x_0...x_{n-1}> to the basis state with axis k = old axis new_order[k]."""
    dim = 2**n
    perm = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        new_bits = [bits[new_order[k]] for k in range(n)]
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        perm[new_idx, idx] = 1.0
    return perm


def one_qubit_at(op, pos, n):
    mats = [np.eye(2, dtype=complex)] * n
    mats[pos] = op
    return kron_all(*mats)


def two_qubit_projector(vec, pos_a, pos_b, n):
    """Projector |vec><vec| on qubits (pos_a, pos_b), built entry by entry."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for r in range(2):
        for s in range(2):
            for u in range(2):
                for v in range(2):
                    coeff = vec[2 * r + s] * np.conj(vec[2 * u + v])
                    if coeff == 0:
                        continue
                    mats = [np.eye(2, dtype=complex)] * n
                    ra = np.zeros((2, 2), dtype=complex)
                    ra[r, u] = 1.0
                    rb = np.zeros((2, 2), dtype=complex)
                    rb[s, v] = 1.0
                    mats[pos_a] = ra
                    mats[pos_b] = rb
                    out += coeff * kron_all(*mats)
    return out


def verifier_branch_masses(v, acc, p_qubits, a_qubits, proof_dm):
    """Branch masses of the two-pair verifier on a (P, S1, S1', S2, S2') proof state.

    Returns a dict with the same keys the package reports, summing to 1.
    """
    p, a = p_qubits, a_qubits
    n = p + 4 + a
    dp, da = 2**p, 2**a

    zero_a = np.zeros((da, da), dtype=complex)
    zero_a[0, 0] = 1.0
    rho = np.kron(np.asarray(proof_dm, dtype=complex), zero_a)

    # step 1: average the two ordered pair choices into the state
    swap_pairs_order = list(range(p)) + [p + 2, p + 3, p, p + 1] + list(range(p + 4, n))
    w_pairs = qubit_permutation(n, swap_pairs_order)
    rho = 0.5 * (rho + w_pairs @ rho @ w_pairs.conj().T)

    # step 2: pinch both pairs
    pi_plus = two_qubit_projector(BELL["phi+"], p, p + 1, n) + two_qubit_projector(
        BELL["psi+"], p, p + 1, n
    )
    pi_minus = two_qubit_projector(BELL["phi-"], p, p + 1, n) + two_qubit_projector(
        BELL["psi-"], p, p + 1, n
    )
    qi_plus = two_qubit_projector(BELL["phi+"], p + 2, p + 3, n) + two_qubit_projector(
        BELL["psi+"], p + 2, p + 3, n
    )
    qi_minus = two_qubit_projector(BELL["phi-"], p + 2, p + 3, n) + two_qubit_projector(
        BELL["psi-"], p + 2, p + 3, n
    )
    pinched = np.zeros_like(rho)
    for left in (pi_plus, pi_minus):
        for right in (qi_plus, qi_minus):
            pinched += (left @ right) @ rho @ (right @ left)
    rho = pinched

    # coin b = 1: swap-test acceptance from (1 + Tr(rho SWAP_pairs))/2
    swap_accept = (1.0 + np.trace(rho @ w_pairs).real) / 2.0

    # coin b = 0
    w_full = kron_all(np.eye(dp), W_DECODER, np.eye(4 * da))
    state = w_full @ rho @ w_full.conj().T

    # move A next to P to apply the verifier, then move it back
    gather = qubit_permutation(n, list(range(p)) + list(range(p + 4, n)) + list(range(p, p + 4)))
    v_mid = kron_all(np.asarray(v, dtype=complex), np.eye(16))
    v_full = gather.conj().T @ v_mid @ gather
    flip_mid = np.eye(2**n) - 2.0 * kron_all(np.asarray(acc, dtype=complex), E11, np.eye(8))
    flip_full = gather.conj().T @ flip_mid @ gather
    state = v_full @ state @ v_full.conj().T
    state = flip_full @ state @ flip_full.conj().T
    state = v_full.conj().T @ state @ v_full

    # Bell measurement on (S2', S1)
    all_zero = one_qubit_at(E00, p + 2, n)
    for k in range(a):
        all_zero = all_zero @ one_qubit_at(E00, p + 4 + k, n)
    x_fix = one_qubit_at(X, p + 2, n)

    fail_mass = 0.0
    reject_mass = 0.0
    survive_mass = 0.0
    for label in ("phi+", "phi-", "psi+", "psi-"):
        bell_proj = two_qubit_projector(BELL[label], p + 3, p, n)
        branch = bell_proj @ state @ bell_proj
        weight = np.trace(branch).real
        if label in ("phi-", "psi-"):
            fail_mass += weight
            continue
        if label == "psi+":
            branch = x_fix @ branch @ x_fix
        reject_mass += np.trace(all_zero @ branch).real
        survive_mass += weight

    return {
        "b0_postsel_fail": 0.5 * fail_mass,
        "b0_allzero_reject": 0.5 * reject_mass,
        "b0_measured_accept": 0.5 * (survive_mass - reject_mass),
        "b1_swap_accept": 0.5 * swap_accept,
        "b1_swap_reject": 0.5 * (1.0 - swap_accept),
    }


def ordered_pair_mean(proof, p_qubits, l):
    """Mean of the l(l-1) ordered-pair reductions of a whole proof, a 2^n
    vector or 2^n x 2^n matrix on (P, S1, S1', ..., Sl, Sl'), n = p + 2l.

    Pair (i, j) keeps (P, Si, Si', Sj, Sj') in that order: the kept qubits
    are moved to the front, and the rest are summed out, by the product
    M M† for a vector and by a trace over the dropped index for a matrix.
    """
    p = p_qubits
    n = p + 2 * l
    proof = np.asarray(proof, dtype=complex)
    total = 0.0
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            keep = list(range(p)) + [p + 2 * i, p + 2 * i + 1, p + 2 * j, p + 2 * j + 1]
            drop = [q for q in range(n) if q not in keep]
            dk, dd = 2 ** len(keep), 2 ** len(drop)
            if proof.ndim == 1:
                m = proof.reshape([2] * n).transpose(keep + drop).reshape(dk, dd)
                total = total + m @ m.conj().T
            else:
                axes = keep + drop + [n + q for q in keep] + [n + q for q in drop]
                t = proof.reshape([2] * (2 * n)).transpose(axes).reshape(dk, dd, dk, dd)
                total = total + np.trace(t, axis1=1, axis2=3)
    return total / (l * (l - 1))


def proof_branch_masses(v, acc, p_qubits, a_qubits, proof, l):
    """Branch masses of the verifier on a whole l-pair proof, vector or matrix:
    the two-pair masses of the mean of its ordered-pair reductions, since the
    verifier draws the ordered pair uniformly and is linear in the state."""
    return verifier_branch_masses(v, acc, p_qubits, a_qubits, ordered_pair_mean(proof, p_qubits, l))


def verifier_accept_probability(v, acc, p_qubits, a_qubits, proof_dm):
    masses = verifier_branch_masses(v, acc, p_qubits, a_qubits, proof_dm)
    return masses["b0_postsel_fail"] + masses["b0_measured_accept"] + masses["b1_swap_accept"]
