"""The verification protocol: toy verifiers, prover strategies, SWAP test,
the teleportation read that post-selects two Bell outcomes, the rewinding
identity, and the two-coin verifier circuit that ties them together.

A proof is a raw array on the fixed layout (P, S1, S1', ..., Sl, Sl'): P
holds the witness, each (Si, Si') is an EPR pair the prover may have acted on
through the Si half only (positions in kernel).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .channels import apply_pinch, choi_state
from .kernel import (
    BELL_LABELS,
    BELL_STATES,
    BELL_TO_COMPUTATIONAL,
    _pair_qubits,
    pair_reductions,
    rx_prob,
    symmetrize_pairs,
    HADAMARD,
)
from .linalg import (
    apply_local,
    dagger,
    is_hermitian,
    is_projector,
    partial_trace,
    proj,
    stack_limit,
    tensor,
)
from .sampling import random_unitary

NORM_TOL = 1e-10
MARGINAL_TOL = 1e-9
# The least eigenvalue a matrix proof's pair reduction may have.
PSD_TOL = 1e-9
HALF_EIG_TOL = 1e-9
# Outcome probabilities below this are reported as 0, with no post state.
PROB_FLOOR = 1e-14

# Each branch of a trial, in report order, to its CSV fields (coin, postsel, verdict).
BRANCHES = {
    "b0_postsel_fail": (0, "fail", "accept"),
    "b0_allzero_reject": (0, "success", "reject"),
    "b0_measured_accept": (0, "success", "accept"),
    "b1_swap_accept": (1, "", "accept"),
    "b1_swap_reject": (1, "", "reject"),
}
BRANCH_KEYS = tuple(BRANCHES)
REJECT_KEYS = tuple(key for key, (_, _, verdict) in BRANCHES.items() if verdict == "reject")

# The kept Bell outcomes, as indices in BELL_LABELS order; psi+ needs an X correction.
_PSI_PLUS = BELL_LABELS.index("psi+")
_KEPT = (BELL_LABELS.index("phi+"), _PSI_PLUS)


class HalfEigenpairError(ValueError):
    """The supplied vector is not a 1/2-eigenvector of delta pi delta."""


# ---------------------------------------------------------------------------
# Toy verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyVerifier:
    """Verifier unitary on (P, A) with an analytically known acceptance maximum,
    and what the protocol derives from it, each computed once.

    The acceptance qubit is the first (most significant) qubit of A; the
    verifier accepts when it measures to 1, which acc_projector, Pi_acc,
    projects onto.  max_accept and witness are the top eigenvalue and an
    eigenvector of the acceptance operator (I (x) <0|) V† Pi_acc V (I (x) |0>)
    on P, known in closed form (make_toy_verifier): the maximum acceptance
    probability and an optimal witness.
    """

    v: np.ndarray
    p_qubits: int
    a_qubits: int
    acc_projector: np.ndarray
    max_accept: float
    witness: np.ndarray


def make_toy_verifier(p: float, p_qubits: int = 1, a_qubits: int = 1) -> ToyVerifier:
    """Controlled rotation driving the acceptance qubit to 1 with probability p.

    On control P = |1...1> the acceptance qubit is rotated by theta with
    sin^2(theta) = p; every other P basis state is left alone, so the
    acceptance operator is diagonal, with top eigenvalue sin^2(theta) at the
    witness |1...1> and all other eigenvalues 0.  Both are set in that closed
    form; no eigensolver runs.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"acceptance target p must be in (0, 1], got {p}")
    if p_qubits < 1 or a_qubits < 1:
        raise ValueError("register sizes must be >= 1")
    dp, da = 2**p_qubits, 2**a_qubits
    theta = np.arcsin(np.sqrt(p))
    g = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    # The identity but for the block of P = |1...1>, which rotates the acceptance qubit.
    v = np.eye(dp * da, dtype=complex)
    v[-da:, -da:] = tensor(g, np.eye(da // 2))
    acc = tensor(np.eye(dp), proj(np.array([0.0, 1.0])), np.eye(da // 2))
    s = np.sin(theta)
    top = float(s * s)
    if abs(top - p) > 1e-9:
        raise ValueError(f"construction drifted: max acceptance {top} vs target {p}")
    witness = np.eye(dp, dtype=complex)[-1]
    return ToyVerifier(v, p_qubits, a_qubits, acc, top, witness)


# ---------------------------------------------------------------------------
# Proof states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolState:
    """Joint prover/verifier state: a 2^n vector or 2^n x 2^n matrix, n =
    p_qubits + 2l, on (P, S1, S1', ..., Sl, Sl') (positions in kernel).

    Construction checks l >= 2, p_qubits >= 1, the shape, a vector's unit
    norm and the shared-pair marginal, so every proof, built by a strategy or
    by hand, is checked once, when it is made.  A matrix must be Hermitian
    with unit trace, and no pair reduction may have an eigenvalue below
    -PSD_TOL.  That certifies the reductions, not the whole matrix; a run
    reads nothing else, their mean or one with its slots swapped.
    """

    state: np.ndarray
    p_qubits: int
    l: int

    def __post_init__(self) -> None:
        if self.l < 2:
            raise ValueError("protocol needs at least 2 shared pairs")
        if self.p_qubits < 1:
            raise ValueError(f"proof needs p_qubits >= 1, got {self.p_qubits}")
        state = np.asarray(self.state, dtype=complex)
        object.__setattr__(self, "state", state)
        d = 2 ** (self.p_qubits + 2 * self.l)
        if state.shape not in ((d,), (d, d)):
            raise ValueError(f"proof shape {state.shape} is neither ({d},) nor ({d}, {d}) for "
                             f"p_qubits={self.p_qubits}, l={self.l}")
        if state.ndim == 1:
            norm = np.linalg.norm(state)
            if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
                raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        else:
            trace = np.trace(state).real
            if not is_hermitian(state) or abs(trace - 1.0) > NORM_TOL:
                raise ValueError(f"matrix proof is not Hermitian with unit trace within tolerance (trace {trace})")
            low = min(np.linalg.eigvalsh(dm)[0]
                      for (i, j), dm in pair_reductions(state, self.p_qubits, self.l).items() if i < j)
            if low < -PSD_TOL:
                raise ValueError(f"a pair reduction of the matrix proof has eigenvalue {low:.3e} below -{PSD_TOL}")
        # Whatever the prover does to P and the Si halves, the verifier's
        # halves (S1', ..., Sl') stay maximally mixed.
        dist = verifier_marginal_distance(self)
        if dist > MARGINAL_TOL:
            raise ValueError(f"shared-pair marginal is off by trace distance {dist:.3e}")


def verifier_marginal_distance(proof: ProtocolState) -> float:
    """Trace distance of the (S1', ..., Sl') marginal from the maximally mixed state."""
    p, l = proof.p_qubits, proof.l
    marg = partial_trace(proof.state, p + 2 * l, [_pair_qubits(p, i)[1] for i in range(l)])
    d = marg.shape[0]
    diff = marg - np.eye(d) / d
    if not is_hermitian(diff):
        raise ValueError("shared-pair marginal is not Hermitian within tolerance")
    # Half the trace norm; for a Hermitian difference the singular values are |eigenvalues|.
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _clamped_q(p_x: float) -> float:
    return float(min(max(1.0 / (2.0 * p_x), 0.5), 1.0))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def shown(value) -> str:
    """A config value's repr, bounded, for error messages."""
    text = reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


# Each prover strategy kind, and for each of its parameters what the value
# must be and the test it must pass.  A strategy is a dict such as
# {"kind": "choi_product", "q": 0.6}.
STRATEGY_PARAMS = {
    "honest": {},
    "idle_epr": {},
    "choi_product": {"q": ("a number in [0, 1]", lambda q: _is_number(q) and 0.0 <= q <= 1.0)},
    "local_unitaries": {"unitary_seed": ("an integer in [-2**63, 2**63)", rngmod.is_seed)},
}
# The strategy of a config that names none; a completeness config runs the
# honest one and no other.
DEFAULT_STRATEGY = {"kind": "idle_epr"}
HONEST_STRATEGY = {"kind": "honest"}


def check_strategy(strategy: dict) -> None:
    """Raise ValueError unless strategy names a known kind with exactly its parameters."""
    if not isinstance(strategy, dict):
        raise ValueError(f"strategy must be an object, got {shown(strategy)}")
    kind = strategy.get("kind")
    if not isinstance(kind, str) or kind not in STRATEGY_PARAMS:
        raise ValueError(f"strategy kind must be one of {tuple(STRATEGY_PARAMS)}, got {shown(kind)}")
    params = STRATEGY_PARAMS[kind]
    keys = {"kind", *params}
    if set(strategy) != keys:
        raise ValueError(f"strategy {kind!r} takes the keys {sorted(keys)}, got {shown(list(strategy))}")
    for key, (meaning, valid) in params.items():
        if not valid(strategy[key]):
            raise ValueError(f"strategy {kind!r} needs {key} to be {meaning}, got {shown(strategy[key])}")


def cheating_proof(strategy: dict, toy: ToyVerifier, l: int) -> ProtocolState:
    """The proof state a prover strategy (see STRATEGY_PARAMS) produces.

    Every kind puts the toy's witness in P and the rotated EPR pair
    choi(rx_prob(q)†) in every slot: honest with q = 1/(2 p_x) clamped into
    [1/2, 1], choi_product with its own q, idle_epr and local_unitaries with
    q = 0 (untouched pairs).  local_unitaries then applies seeded random
    unitaries to P and to each prover half Si.  ProtocolState checks that the
    (S1', ..., Sl') marginal stayed maximally mixed.
    """
    check_strategy(strategy)
    kind = strategy["kind"]
    q = _clamped_q(toy.max_accept) if kind == "honest" else strategy.get("q", 0.0)
    pair = choi_state(dagger(rx_prob(q)))
    amps = toy.witness
    for _ in range(l):
        amps = tensor(amps, pair)
    p, n = toy.p_qubits, toy.p_qubits + 2 * l
    if kind == "local_unitaries":
        seed = strategy["unitary_seed"]
        amps = apply_local(amps, random_unitary(rngmod.stream(seed, 0), 2**p), n, list(range(p)))
        for i in range(l):
            amps = apply_local(amps, random_unitary(rngmod.stream(seed, i + 1), 2), n, [_pair_qubits(p, i)[0]])
    return ProtocolState(amps, p, l)


# ---------------------------------------------------------------------------
# SWAP test
# ---------------------------------------------------------------------------

def swap_test(joint: np.ndarray) -> np.ndarray:
    """Run the SWAP test circuit between the two halves of a 2k-qubit density matrix.

    Returns the acceptance probability from the full circuit: ancilla
    Hadamard, controlled swap of the two halves, Hadamard, standard-basis
    measurement, accepting on 0.  The ancilla is prepended as qubit 0; the
    controlled swap permutes basis states, so it is applied as one gather of
    each joint's entries, which moves them with no arithmetic.
    It is an array: 0-d for one joint, of the stack's shape for a stack (...,
    4^k, 4^k), each probability bit for bit the one its joint gives alone.
    """
    joint = np.asarray(joint, dtype=complex)
    dd = joint.shape[-1] if joint.ndim >= 2 else 0
    k = (dd.bit_length() - 1) // 2
    if joint.ndim < 2 or joint.shape[-2] != dd or k < 1 or dd != 4**k:
        raise ValueError(f"swap_test needs a 4^k x 4^k joint with k >= 1, or a stack of them, got shape {joint.shape}")
    swapped = np.arange(dd).reshape(2**k, -1).T.reshape(-1)
    perm = np.concatenate([np.arange(dd), dd + swapped])  # the controlled swap
    n = 2 * k + 1
    # The ancilla's |0><0| joins as qubit 0: the joint fills the top-left block.
    out = np.zeros(joint.shape[:-2] + (2 * dd, 2 * dd), dtype=complex)
    out[..., :dd, :dd] = joint
    out = apply_local(out, HADAMARD, n, [0])
    # Entry (i, j) of each member takes its entry (perm[i], perm[j]).
    out = out.reshape(out.shape[:-2] + (-1,)).take(2 * dd * perm[:, None] + perm, axis=-1)
    out = apply_local(out, HADAMARD, n, [0])
    return partial_trace(out, n, [0])[..., 0, 0].real


def swap_test_formula(joint: np.ndarray) -> np.ndarray:
    """Closed form (1 + Tr(rho S))/2 of the SWAP test on a 4^k x 4^k joint
    density rho of two k-qubit halves, S the swap of the halves, or on each
    of a stack (..., 4^k, 4^k): Tr(rho S) is the sum of its entries
    <ab|rho|ba>.  Returns an array of the stack's shape (0-d for one joint),
    each probability bit for bit the one its joint gives alone.
    """
    joint = np.asarray(joint, dtype=complex)
    d = 2 ** ((joint.shape[-1].bit_length() - 1) // 2)
    overlap = np.einsum("...abba->...", joint.reshape(joint.shape[:-2] + (d, d, d, d))).real
    return (1.0 + overlap) / 2.0


# ---------------------------------------------------------------------------
# Teleportation through a shared pair, keeping two Bell outcomes
# ---------------------------------------------------------------------------

def teleport(t: np.ndarray, n_qubits: int, bridge: int, source: int, kept: list[int]) -> list[np.ndarray]:
    """What a Bell measurement of the qubits (bridge, source) leaves on the
    kept qubits, in the order listed, of a 2^n state vector or a 2^n x 2^n
    density matrix, or of each of a stack (..., 2^n, 2^n).

    Returns one unnormalized density (or stack of them) per outcome, in
    BELL_LABELS order; the trace of each is the outcome's probability.  The
    last kept qubit is the pair's other half (S2 of the pair (S2, bridge)):
    the psi+ state carries the X correction on it, so both kept outcomes
    (phi+ and psi+) deliver the teleported source.  The Bell basis of
    (bridge, source) is rotated onto the standard basis, so one reduction to
    (bridge, source, *kept) holds every outcome as a diagonal block.
    """
    rotated = apply_local(t, BELL_STATES.conj(), n_qubits, [bridge, source])
    reduced = partial_trace(rotated, n_qubits, [bridge, source, *kept])
    d = reduced.shape[-1] // 4
    blocks = [reduced[..., k * d:(k + 1) * d, k * d:(k + 1) * d] for k in range(4)]
    # X on the last kept qubit, the last of the block: reverse its bit on both sides.
    lead = reduced.shape[:-2]
    flipped = blocks[_PSI_PLUS].reshape(lead + (d // 2, 2, d // 2, 2))[..., :, ::-1, :, ::-1]
    blocks[_PSI_PLUS] = flipped.reshape(lead + (d, d))
    return blocks


# ---------------------------------------------------------------------------
# Rewinding identity
# ---------------------------------------------------------------------------

def rewinding_residual(delta: np.ndarray, pi: np.ndarray, omega: np.ndarray) -> float:
    """Norm of delta (I - 2 pi) delta |omega> for a 1/2-eigenvector omega.

    Raises HalfEigenpairError when delta pi delta |omega> deviates from
    |omega>/2 beyond HALF_EIG_TOL; for valid inputs the residual is 0 up to float
    noise.
    """
    delta = np.asarray(delta, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    if not is_projector(delta) or not is_projector(pi):
        raise ValueError("delta and pi must be orthogonal projectors")
    sandwich = delta @ pi @ delta
    if np.linalg.norm(sandwich @ omega - 0.5 * omega) > HALF_EIG_TOL:
        raise HalfEigenpairError(
            "omega is not a 1/2-eigenvector of delta pi delta within tolerance"
        )
    full = delta @ (np.eye(delta.shape[0]) - 2.0 * pi) @ delta
    return float(np.linalg.norm(full @ omega))


def honest_rewinding_instance(toy: ToyVerifier) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta, pi, omega) on (P, A, S) realizing the 1/2-eigenvalue construction.

    delta projects A and the single control qubit S to all-zero; pi conjugates
    the acceptance projector by the verifier and the |1> projector by the
    q-rotation with q = 1/(2 p_x), so delta pi delta has top eigenvalue
    p_x * q = 1/2 at omega = witness (x) |0...0>.
    """
    r = rx_prob(_clamped_q(toy.max_accept))
    da = 2**toy.a_qubits
    zero_a = np.zeros(da, dtype=complex)
    zero_a[0] = 1.0
    qubit0 = np.array([1.0, 0.0], dtype=complex)
    delta = tensor(np.eye(2**toy.p_qubits), proj(zero_a), proj(qubit0))
    pi = tensor(
        dagger(toy.v) @ toy.acc_projector @ toy.v,
        dagger(r) @ proj(np.array([0.0, 1.0])) @ r,
    )
    omega = tensor(toy.witness, zero_a, qubit0)
    return delta, pi, omega


# ---------------------------------------------------------------------------
# The two-coin verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchBreakdown:
    """Exact-mode result: total accept probability and per-branch masses."""

    accept_probability: float
    reject_probability: float
    branches: dict[str, float]


@dataclass
class _PairTree:
    """Outcome probabilities, as lists indexed by outcome.

    bell_probs is in BELL_LABELS order.  bit_dists maps each kept Bell outcome
    with nonzero probability to the distribution of the (A, S2) bits, indexed
    by their bit pattern (A most significant); index 0 is all-zero.
    """

    bell_probs: list[float]
    bit_dists: dict[int, list[float]]
    swap_pass: float


def _pair_tree(stack: np.ndarray, toy: ToyVerifier) -> list[_PairTree]:
    """Outcome distributions of both coins' branches on each of a stack (k, d,
    d) of (P, S1, S1', S2, S2') density matrices: a list of trees, one a
    member.  Exact mode passes a stack of one.

    Each step has one owner, which takes the stack: the pinches
    (channels.apply_pinch), the SWAP closed form (swap_test_formula), the
    decode, V and V† (linalg.apply_local), the reflection (a sign), the
    reductions (linalg.partial_trace) and the teleportation read (teleport).
    Every contraction makes, member by member, the BLAS call that the member
    alone makes, so each tree is bit for bit the one its matrix gives alone.
    """
    p, a = toy.p_qubits, toy.a_qubits
    (s1, s1p), (s2, s2p) = _pair_qubits(p, 0), _pair_qubits(p, 1)
    n, count = p + 4, len(stack)
    w = apply_pinch(stack, n, [s1, s1p])
    del stack  # freed before the second pinch, where the tree's memory peaks
    w = apply_pinch(w, n, [s2, s2p])
    swap_pass = swap_test_formula(partial_trace(w, n, [s1, s1p, s2, s2p]))

    w = apply_local(w, BELL_TO_COMPUTATIONAL, n, [s1, s1p])
    w = partial_trace(w, n, [*range(p), s1, s2, s2p])
    # The ancilla's |0><0| joins as A after (P, S1, S2, S2').
    ancilla = np.zeros((2**a, 2**a), dtype=complex)
    ancilla[0, 0] = 1.0
    w = tensor(w, ancilla)
    n = p + 3 + a
    pa = [*range(p), *range(p + 3, n)]
    w = apply_local(w, toy.v, n, pa)
    # The reflection I - 2 Pi_acc (x) |1><1| controlled by S1, on each row and then each
    # column of V's output: -1 where S1 (qubit p) and A's first qubit (p + 3) are both 1.
    both = 2 ** (n - 1 - p) + 2 ** (n - 4 - p)
    sign = np.where(np.arange(2**n) & both == both, -1.0, 1.0)
    w *= sign[:, None]
    w *= sign
    w = apply_local(w, dagger(toy.v), n, pa)
    # (S2', S1) is measured; A and S2 keep the bits the verifier reads.
    blocks = teleport(w, n, p + 2, p, [*range(p + 3, n), p + 1])
    return [_read_tree([block[m] for block in blocks], swap_pass[m]) for m in range(count)]


def _read_tree(blocks: list[np.ndarray], swap_pass) -> _PairTree:
    """A tree's outcome probabilities from its teleport blocks: each outcome's
    block diagonal is the distribution of the (A, S2) bits."""
    bell_probs: list[float] = []
    bit_dists: dict[int, list[float]] = {}
    for k, block in enumerate(blocks):
        diag = block.diagonal().real
        p_bell = float(diag.sum())
        bell_probs.append(p_bell if p_bell >= PROB_FLOOR else 0.0)
        if k in _KEPT and p_bell >= PROB_FLOOR:
            bit_dists[k] = [float(p) if p >= PROB_FLOOR else 0.0 for p in diag / p_bell]
    return _PairTree(bell_probs, bit_dists, float(swap_pass))


def tree_stack(p_qubits: int, a_qubits: int) -> int:
    """Most trees a sampled run builds in one stacked call: as many tree states
    (p + a + 3 qubits) as fit in linalg.STACK_BYTES, 8 at p = a = 1, a quarter
    as many for each further qubit, and at least one; larger stacks of larger
    trees measured slower than building them one or two at a time."""
    return stack_limit(p_qubits + a_qubits + 3)


class ProtocolRun:
    """Verifier evaluation against a fixed proof, exact or sampled.

    Exact mode evaluates one tree, on the pair-symmetrized state.  Sampled
    mode, one call to sample, builds its table of trees before its first
    draw (_pair_trees): one tree per distinct two-slot state, so ordered
    pairs whose reductions are equal bit for bit, as a product proof's pairs
    mostly are, share one.  It then draws each trial's ordered pair, which
    the trial reports, reads a chunk of trials at a time off the trees that
    chunk drew, and counts their branches.  A tree is a pure function of the
    reduction and the toy, bit for bit the same alone or in a stack, so
    neither sharing nor stacking changes a report byte.

    Each step of a tree has one owner: see _pair_tree.
    """

    def __init__(self, proof: ProtocolState, toy: ToyVerifier):
        if proof.p_qubits != toy.p_qubits:
            raise ValueError("proof P register does not match the verifier")
        self.proof = proof
        self.toy = toy

    def exact(self) -> BranchBreakdown:
        """Branch masses from one tree on the pair-symmetrized state.

        The verifier draws the ordered pair uniformly, and every later step
        (pinch, decode, V, reflection, V†, post-selection and the Born rule)
        is linear in the two-slot state.  So the mean of the l(l-1) pair
        trees' masses is the masses of one tree on the mean of the
        ordered-pair reductions.  This holds for any proof: the reductions
        need not be equal, and nothing assumes they are.
        """
        proof = self.proof
        [tree] = _pair_tree(symmetrize_pairs(proof.state, proof.p_qubits, proof.l)[None], self.toy)
        masses = {k: 0.0 for k in BRANCH_KEYS}
        masses["b1_swap_accept"] = 0.5 * tree.swap_pass
        masses["b1_swap_reject"] = 0.5 * (1.0 - tree.swap_pass)
        for k, p_bell in enumerate(tree.bell_probs):
            if k not in _KEPT:
                masses["b0_postsel_fail"] += 0.5 * p_bell
            for bits, p_bits in enumerate(tree.bit_dists.get(k, ())):
                key = "b0_allzero_reject" if bits == 0 else "b0_measured_accept"
                masses[key] += 0.5 * p_bell * p_bits
        reject = sum(masses[key] for key in REJECT_KEYS)
        return BranchBreakdown(1.0 - reject, reject, masses)

    def _pair_trees(self) -> tuple[list[_PairTree], np.ndarray]:
        """One tree per distinct reduction (pair_reductions), keyed by its
        bytes, in first-seen order and built in stacks of at most
        tree_stack(p_qubits, a_qubits); and, at each ordered-pair code
        i * l + j, the slot of that pair's tree (0 at the undrawn i == j).
        Each reduction is dropped as it is keyed, and stacks are read off the keys."""
        proof, toy = self.proof, self.toy
        l, most, d = proof.l, tree_stack(toy.p_qubits, toy.a_qubits), 2 ** (proof.p_qubits + 4)
        reduced, slot_of = pair_reductions(proof.state, proof.p_qubits, l), {}
        slots = np.zeros(l * l, np.intp)
        for i, j in list(reduced):
            slots[i * l + j] = slot_of.setdefault(reduced.pop((i, j)).tobytes(), len(slot_of))
        keys = list(slot_of)
        trees = [tree for start in range(0, len(keys), most)
                 for tree in _pair_tree(np.array([np.frombuffer(key, complex).reshape(d, d)
                                                  for key in keys[start:start + most]]), toy)]
        return trees, slots

    def sample(self, seed: int, trials: int, rows: np.ndarray | None) -> np.ndarray:
        """Each branch's count, in BRANCH_KEYS order, over trials 0..trials-1,
        drawn by rng.trial_draws a chunk of rng.CHUNK_TRIALS trials at a time:
        trial t from stream(seed, t).  If rows is an array, rows[t] is set to
        len(BRANCH_KEYS) * code + branch: trial t's 0-based ordered pair (i,
        j) as the code i * l + j, and its BRANCH_KEYS index as branch."""
        l = self.proof.l
        trees, slots = self._pair_trees()
        counts = np.zeros(len(BRANCH_KEYS), np.intp)
        for start in range(0, trials, rngmod.CHUNK_TRIALS):
            n = min(rngmod.CHUNK_TRIALS, trials - start)
            i, j, coin, u1, u2 = rngmod.trial_draws(seed, start, n, l)
            code = i * l + j + (j >= i)
            slot = slots[code]
            branch = np.zeros(n, int)  # BRANCH_KEYS index
            for s in set(slot.tolist()):
                tree = trees[s]
                at = np.flatnonzero(slot == s)
                bell = rngmod.choose(u1[at], tree.bell_probs)
                for k, dist in tree.bit_dists.items():
                    hit = at[bell == k]
                    branch[hit] = np.where(rngmod.choose(u2[hit], dist) == 0, 1, 2)
                swap = at[coin[at] == 1]
                branch[swap] = np.where(u1[swap] < tree.swap_pass, 3, 4)
            counts += np.bincount(branch, minlength=len(BRANCH_KEYS))
            if rows is not None:
                rows[start:start + n] = len(BRANCH_KEYS) * code + branch
        return counts
