"""Dense, brute-force forms that package code is tested against.  They build
full matrices or sum explicitly, so they are kept out of the package.  The
per-trial sampler that ProtocolRun.sample's bulk draws replaced is here too,
with stand-in draws for it, as is the sampled run that counted trials in a
dict and wrote them as tuple rows through csv.writer, which the array
counting and row table must match byte for byte, and the csv.writer form of
the other CSV reports, which their comma joins must match.  So are the general-purpose
numpy forms (np.kron, np.tensordot and np.moveaxis, one reduction per ordered pair) that
the kernel's tensor, apply_local and symmetrize_pairs must match bit for bit.
The one-matrix forms of the metrics and margin oracles, which the package's
stack-aware forms must match bit for bit on each matrix of a stack, are here
as well, and so is the per-case SWAP benchmark that swap-bench's chunked run
must match byte for byte.  So is the pair tree a step at a time on one
matrix, each step its own call on the fixed qubit positions, which the
stacked tree must match bit for bit, alone and on stacks."""

import csv
import io
import math

import numpy as np

from eprverify.channels import PI_MINUS, PI_PLUS
from eprverify.harness import ExperimentConfig, ExperimentReport, emit_report
from eprverify.kernel import BELL_STATES, BELL_TO_COMPUTATIONAL, HADAMARD
from eprverify.linalg import HERMITIAN_TOL, apply_local, dagger, is_hermitian, partial_trace, proj, tensor
from eprverify.protocol import (
    _KEPT,
    _PSI_PLUS,
    BRANCH_KEYS,
    PROB_FLOOR,
    REJECT_KEYS,
    ProtocolRun,
    _PairTree,
    cheating_proof,
    make_toy_verifier,
)
from eprverify.rng import stream
from eprverify.sampling import random_density, random_pure


# ---------------------------------------------------------------------------
# The pair tree a step at a time
# ---------------------------------------------------------------------------

def ordered_pair(state: np.ndarray, p_qubits: int, l: int, i: int, j: int) -> np.ndarray:
    """The (P, S1, S1', S2, S2') reduction of a proof on (P, S1, S1', ..., Sl,
    Sl') holding pair i (from 0) in slot 1 and pair j in slot 2."""
    p = p_qubits
    return partial_trace(state, p + 2 * l, [*range(p), p + 2 * i, p + 2 * i + 1, p + 2 * j, p + 2 * j + 1])


def pinch_pair(m: np.ndarray, n_qubits: int, pair: list[int]) -> np.ndarray:
    """Pinch one qubit pair of a 2^n x 2^n density matrix."""
    return apply_local(m, PI_PLUS, n_qubits, pair) + apply_local(m, PI_MINUS, n_qubits, pair)


def swap_formula_of(m: np.ndarray, n_qubits: int, group1: list[int], group2: list[int]) -> float:
    """Closed form (1 + Tr(rho S))/2 for the joint state of two qubit groups
    and their swap S."""
    reduced = partial_trace(m, n_qubits, group1 + group2)
    d = 2 ** len(group1)
    overlap = np.einsum("abba->", reduced.reshape(d, d, d, d)).real
    return float((1.0 + overlap) / 2.0)


def teleport_read(m: np.ndarray, n_qubits: int, bridge: int, source: int, kept: list[int]) -> list[np.ndarray]:
    """What a Bell measurement of (bridge, source) leaves on the kept qubits,
    one block an outcome in BELL_LABELS order, psi+ with the X correction on
    the last kept qubit."""
    rotated = apply_local(m, BELL_STATES.conj(), n_qubits, [bridge, source])
    reduced = partial_trace(rotated, n_qubits, [bridge, source, *kept])
    d = reduced.shape[0] // 4
    blocks = [reduced[k * d:(k + 1) * d, k * d:(k + 1) * d] for k in range(4)]
    flipped = blocks[_PSI_PLUS].reshape(d // 2, 2, d // 2, 2)[:, ::-1, :, ::-1]
    blocks[_PSI_PLUS] = flipped.reshape(d, d)
    return blocks


def reference_pair_tree(dm: np.ndarray, toy) -> _PairTree:
    """The pair tree of one (P, S1, S1', S2, S2') density matrix, a step at a
    time, each step a call of its own that builds a new matrix."""
    p, a = toy.p_qubits, toy.a_qubits
    s1, s1p, s2, s2p = p, p + 1, p + 2, p + 3
    dm = pinch_pair(dm, p + 4, [s1, s1p])
    dm = pinch_pair(dm, p + 4, [s2, s2p])
    swap_pass = swap_formula_of(dm, p + 4, [s1, s1p], [s2, s2p])

    w = apply_local(dm, BELL_TO_COMPUTATIONAL, p + 4, [s1, s1p])
    w = partial_trace(w, p + 4, [*range(p), s1, s2, s2p])
    ancilla = np.zeros((2**a, 2**a), dtype=complex)
    ancilla[0, 0] = 1.0
    # (P, S1, S2, S2', A): S1 is qubit p, S2 p + 1, S2' p + 2 and A the last a.
    w = tensor(w, ancilla)
    n = p + 3 + a
    pa = [*range(p), *range(p + 3, n)]
    w = apply_local(w, toy.v, n, pa)
    # The reflection I - 2 Pi_acc (x) |1><1| on (P, A, S1), as a dense matrix.
    flip = np.eye(2 ** (p + a + 1)) - 2.0 * tensor(toy.acc_projector, proj(np.array([0.0, 1.0])))
    w = apply_local(w, flip, n, [*pa, p])
    w = apply_local(w, dagger(toy.v), n, pa)

    bell_probs: list[float] = []
    bit_dists: dict[int, list[float]] = {}
    for k, block in enumerate(teleport_read(w, n, p + 2, p, [*range(p + 3, n), p + 1])):
        diag = block.diagonal().real
        p_bell = float(diag.sum())
        bell_probs.append(p_bell if p_bell >= PROB_FLOOR else 0.0)
        if k in _KEPT and p_bell >= PROB_FLOOR:
            bit_dists[k] = [float(p) if p >= PROB_FLOOR else 0.0 for p in diag / p_bell]
    return _PairTree(bell_probs, bit_dists, swap_pass)


# ---------------------------------------------------------------------------
# General-purpose numpy forms
# ---------------------------------------------------------------------------

def kron_tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the factors, left to right, by np.kron."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _tensordot_on_axes(t: np.ndarray, op: np.ndarray, axes: list[int]) -> np.ndarray:
    k = len(axes)
    out = np.tensordot(op.reshape([2] * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def tensordot_apply_local(t: np.ndarray, op: np.ndarray, n_qubits: int, targets: list[int]) -> np.ndarray:
    """op psi or op rho op† on the listed qubits, by np.tensordot and np.moveaxis."""
    op = np.asarray(op, dtype=complex)
    t = np.asarray(t, dtype=complex)
    targets = list(targets)
    if t.ndim == 1:
        return _tensordot_on_axes(t.reshape([2] * n_qubits), op, targets).reshape(-1)
    out = _tensordot_on_axes(t.reshape([2] * (2 * n_qubits)), op, targets)
    out = _tensordot_on_axes(out, op.conj(), [n_qubits + q for q in targets])
    return out.reshape(2**n_qubits, 2**n_qubits)


def ordered_pair_mean(state: np.ndarray, p_qubits: int, l: int) -> np.ndarray:
    """Mean of all l(l-1) ordered-pair reductions, each reduced on its own."""
    terms = [ordered_pair(state, p_qubits, l, i, j) for i in range(l) for j in range(l) if i != j]
    return sum(terms) / len(terms)


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


def edge_uniforms(probs: list[float]) -> list[float]:
    """Uniforms in [0, 1) that put a draw's edge u * sum(probs) on, just under
    and just over each running sum of probs."""
    total = sum(probs)
    running = np.cumsum(probs) / total if total else np.zeros(1)
    return [float(v) for r in running for v in (r, np.nextafter(r, 0.0), np.nextafter(r, 1.0)) if v < 1.0]


class FixedDraws:
    """Stands in for a generator: integers() and random() return the given
    values in order."""

    def __init__(self, ints: list[int], floats: list[float]):
        self.ints, self.floats = list(ints), list(floats)

    def integers(self, n: int) -> int:
        return self.ints.pop(0)

    def random(self) -> float:
        return self.floats.pop(0)


def scalar_draw(rng: np.random.Generator, probs: list[float]) -> int:
    """Index of one outcome drawn from probs, skipping zero entries.

    If rounding carries the draw past the last positive entry, that entry wins.
    """
    edge = rng.random() * sum(probs)
    acc = 0.0
    last = 0
    for k, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = k
        if edge <= acc:
            return k
    return last


def scalar_sample(run: ProtocolRun, rng: np.random.Generator, trees: dict) -> tuple[str, tuple[int, int]]:
    """One sampled trial of run, drawn from rng a value at a time: its branch key
    and its 1-based ordered pair.  ProtocolRun.sample makes the same draws in
    bulk.  trees caches the pair trees this form builds for itself."""
    l = run.proof.l
    i = int(rng.integers(l))
    j = int(rng.integers(l - 1))
    if j >= i:
        j += 1
    coin = int(rng.integers(2))
    if (i, j) not in trees:
        trees[i, j] = reference_pair_tree(ordered_pair(run.proof.state, run.proof.p_qubits, l, i, j), run.toy)
    tree = trees[i, j]
    pair = (i + 1, j + 1)
    if coin == 1:
        return ("b1_swap_accept" if rng.random() < tree.swap_pass else "b1_swap_reject"), pair
    bell = scalar_draw(rng, tree.bell_probs)
    if bell not in _KEPT:
        return "b0_postsel_fail", pair
    bits = scalar_draw(rng, tree.bit_dists[bell])
    return ("b0_allzero_reject" if bits == 0 else "b0_measured_accept"), pair


def sample_tuples(run: ProtocolRun, seed: int, trials: int) -> list[tuple[str, tuple[int, int]]]:
    """run.sample's trials as scalar_sample gives them: (branch key, 1-based
    ordered pair) each, decoded from the rows it writes.  The counts it
    returns must be those of the rows."""
    l, rows = run.proof.l, np.empty(trials, np.intp)
    counts = run.sample(seed, trials, rows).tolist()
    outcomes = [divmod(k, len(BRANCH_KEYS)) for k in rows.tolist()]
    assert counts == [[b for _, b in outcomes].count(b) for b in range(len(BRANCH_KEYS))]
    return [(BRANCH_KEYS[b], (c // l + 1, c % l + 1)) for c, b in outcomes]


# The CSV fields (b, postsel, verdict) of a sampled trial, by branch key.
_TUPLE_ROW_FIELDS = {
    "b0_postsel_fail": (0, "fail", "accept"),
    "b0_allzero_reject": (0, "success", "reject"),
    "b0_measured_accept": (0, "success", "accept"),
    "b1_swap_accept": (1, "", "accept"),
    "b1_swap_reject": (1, "", "reject"),
}


def tuple_row_reports(config: ExperimentConfig) -> tuple[bytes, bytes]:
    """The JSON and CSV bytes of a sampled protocol run, its trials counted a
    trial at a time into a dict and kept as tuple rows for csv.writer."""
    toy = make_toy_verifier(config.p, config.p_qubits, config.a_qubits)
    run = ProtocolRun(cheating_proof(config.strategy, toy, config.l), toy)
    counts = {k: 0 for k in BRANCH_KEYS}
    rows = []
    for t, (key, (i, j)) in enumerate(sample_tuples(run, config.seed, config.trials)):
        counts[key] += 1
        coin, postsel, verdict = _TUPLE_ROW_FIELDS[key]
        rows.append((t, coin, i, j, postsel, verdict))
    n = config.trials
    accepts = n - sum(counts[k] for k in REJECT_KEYS)
    report = ExperimentReport(
        config=config.to_dict(),
        accept_probability=accepts / n,
        reject_probability=1.0 - accepts / n,
        branches={k: counts[k] / n for k in BRANCH_KEYS},
        lemma_margins=None,
        details={"trials": n},
        trial_outcomes=None,
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "b", "pair_i", "pair_j", "postsel", "verdict"])
    writer.writerows(rows)
    return emit_report(report, "json"), buf.getvalue().encode()


def csv_writer_summary(report: ExperimentReport) -> bytes:
    """The CSV of an exact, lemmas or swap-bench report, written by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report.lemma_margins is not None:
        writer.writerow(["lemma", "min_margin", "violations", "samples"])
        for name, entry in report.lemma_margins.items():
            writer.writerow([name, repr(entry["min_margin"]), entry["violations"], entry["samples"]])
    elif report.branches is not None:
        writer.writerow(["experiment", "mode", "accept_probability", "reject_probability", *BRANCH_KEYS])
        writer.writerow([report.config["experiment"], report.config["mode"], repr(report.accept_probability),
                         repr(report.reject_probability), *(repr(report.branches[k]) for k in BRANCH_KEYS)])
    else:
        writer.writerow(["check", "value"])
        for key, value in (report.details or {}).items():
            writer.writerow([key, repr(value)])
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# One-matrix metrics and margin oracles
# ---------------------------------------------------------------------------

def scalar_trace_norm(a: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    return float(np.sum(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)))


def scalar_operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a square matrix."""
    return float(np.max(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)))


def scalar_hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """PSD square root of one matrix by eigh, eigenvalues descending, the small
    ones zeroed below a relative floor."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise ValueError("spectrum requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    if np.min(vals) < -HERMITIAN_TOL:
        raise ValueError(f"hermitian_sqrt requires PSD input, min eigenvalue {np.min(vals):.3e}")
    floor = 1e-12 * max(float(np.max(vals)), 1.0)
    root = np.sqrt(np.where(vals < floor, 0.0, vals))
    return (vecs * root) @ vecs.conj().T


def scalar_ginibre_density(g: np.ndarray) -> np.ndarray:
    """GG†/Tr of one square matrix G."""
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def scalar_trace_distance(a, b) -> float:
    return 0.5 * scalar_trace_norm(a - b)


def scalar_fidelity(rho, sigma) -> float:
    return scalar_trace_norm(scalar_hermitian_sqrt(rho) @ scalar_hermitian_sqrt(sigma))


def scalar_holder_margin(a, b) -> float:
    lhs = abs(np.trace(b.conj().T @ a))
    return scalar_trace_norm(a) * scalar_operator_norm(b) - lhs


def scalar_triangle_margin(a, b, c) -> float:
    return scalar_trace_distance(a, c) + scalar_trace_distance(c, b) - scalar_trace_distance(a, b)


def scalar_monotonicity_margin(rho, sigma, channel) -> float:
    return scalar_trace_distance(rho, sigma) - scalar_trace_distance(channel(rho), channel(sigma))


def scalar_fvg_margins(rho, sigma) -> tuple[float, float]:
    d = scalar_trace_distance(rho, sigma)
    f = scalar_fidelity(rho, sigma)
    upper = np.sqrt(max(1.0 - d * d, 0.0))
    return f - (1.0 - d), float(upper - f)


def scalar_gentle_margin(rho, projector) -> float:
    hit = float(np.trace(rho @ projector).real)
    if hit >= 1.0 - 1e-12:
        raise ValueError(f"Tr(rho P) = {hit} leaves no post state to compare against")
    comp = np.eye(rho.shape[0]) - projector
    post = comp @ rho @ comp
    post = post / np.trace(post).real
    return scalar_fidelity(rho, post) ** 2 - (1.0 - hit)


def scalar_additive_perturbation_margin(a, b, eps: float) -> float:
    if np.min(np.linalg.eigvalsh((b + b.conj().T) / 2)) < -1e-10 or not np.allclose(b, b.conj().T, atol=1e-10):
        raise ValueError("perturbation B must be PSD")
    tr_b = float(np.trace(b).real)
    if tr_b > eps + 1e-12:
        raise ValueError(f"Tr(B) = {tr_b} exceeds eps = {eps}")
    return eps / 2.0 - scalar_trace_distance(a + b, a)


def scalar_mixture_perturbation_margin(rho, sigma, eps: float) -> float:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    mixed = (1.0 - eps) * rho + eps * sigma
    return eps - scalar_trace_distance(mixed, rho)


# ---------------------------------------------------------------------------
# The per-case SWAP benchmark
# ---------------------------------------------------------------------------

def per_case_swap_test(joint: np.ndarray) -> float:
    """Acceptance of the SWAP-test circuit on one 4^k x 4^k joint density, by
    np.kron, np.tensordot, matmul and a one-matrix einsum: the ancilla |0><0|
    prepended as qubit 0, a Hadamard, the controlled swap of the halves as a
    2 * 4^k square matrix, a Hadamard, and the ancilla's 0 outcome."""
    k = (joint.shape[0].bit_length() - 1) // 2
    dd = 4**k
    swapped = np.arange(dd).reshape(2**k, -1).T.reshape(-1)
    cswap = np.eye(2 * dd, dtype=complex)[np.concatenate([np.arange(dd), dd + swapped])]
    n = 2 * k + 1
    out = kron_tensor(proj(np.array([1.0, 0.0])), joint)
    out = tensordot_apply_local(out, HADAMARD, n, [0])
    out = cswap @ out @ dagger(cswap)
    out = tensordot_apply_local(out, HADAMARD, n, [0])
    return float(np.einsum("ikjk->ij", out.reshape(2, dd, 2, dd))[0, 0].real)


def per_case_swap_bench(config: ExperimentConfig) -> ExperimentReport:
    """swap-bench's report with each case drawn, run and folded on its own."""
    rng = stream(config.seed, 0)
    max_error = 0.0
    for t in range(config.trials):
        k = 1 if t % 2 == 0 else 2
        rho, sigma = random_density(rng, 2**k), random_density(rng, 2**k)
        circuit = per_case_swap_test(kron_tensor(rho, sigma))
        error = abs(circuit - float((1.0 + np.trace(rho @ sigma).real) / 2.0))
        if error > max_error or math.isnan(error):
            max_error = error
    psi = random_pure(rng, 2)
    same = per_case_swap_test(kron_tensor(np.outer(psi, psi.conj()), np.outer(psi, psi.conj())))
    orth = per_case_swap_test(kron_tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    return ExperimentReport(
        config=config.to_dict(),
        accept_probability=None,
        reject_probability=None,
        branches=None,
        lemma_margins=None,
        details={"max_error": max_error, "identical_pure": same, "orthogonal_pure": orth},
        trial_outcomes=None,
    )
