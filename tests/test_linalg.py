"""Tensor algebra, partial trace, norms, and the PSD square root."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprverify.linalg import (
    apply_local,
    dagger,
    hermitian_sqrt,
    is_hermitian,
    is_projector,
    is_unitary,
    operator_norm,
    partial_trace,
    proj,
    tensor,
    trace_norm,
)
from eprverify.kernel import HADAMARD
from eprverify.sampling import random_complex_matrix, random_density

from dense_reference import embed_unitary, kron_tensor, tensordot_apply_local

RNG = np.random.default_rng(20240811)


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise Kronecker product, written out as the block definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


def ptrace_oracle(rho: np.ndarray, keep: int) -> np.ndarray:
    """Double index sum over the discarded qubits of a 3-qubit state."""
    t = rho.reshape([2] * 6)
    out = np.zeros((2, 2), dtype=complex)
    axes = [0, 1, 2]
    axes.remove(keep)
    a, b = axes
    for i in range(2):
        for j in range(2):
            for x in range(2):
                for y in range(2):
                    row = [0, 0, 0]
                    col = [0, 0, 0]
                    row[keep], col[keep] = i, j
                    row[a], col[a] = x, x
                    row[b], col[b] = y, y
                    out[i, j] += t[tuple(row + col)]
    return out


def test_tensor_identity_and_basis():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    got = tensor(zero.reshape(2, 1), one.reshape(2, 1)).reshape(-1)
    expected = np.zeros(4)
    expected[0b01] = 1
    assert np.allclose(got, expected)


def test_tensor_hadamard_pair_matches_matvec_oracle():
    hh = tensor(HADAMARD, HADAMARD)
    zero2 = np.zeros(4, dtype=complex)
    zero2[0] = 1
    got = hh @ zero2
    expected = kron_oracle(HADAMARD, HADAMARD) @ zero2
    assert np.allclose(got, expected)
    assert np.allclose(got, np.full(4, 0.5))


def test_tensor_against_kron_oracle_random():
    for _ in range(20):
        a = random_complex_matrix(RNG, int(RNG.integers(2, 5)))
        b = random_complex_matrix(RNG, int(RNG.integers(2, 5)))
        assert np.allclose(tensor(a, b), kron_oracle(a, b))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda nd: st.lists(st.tuples(st.tuples(*[st.integers(1, 5)] * nd), st.booleans()), min_size=1, max_size=4)
    ),
    st.integers(0, 2**32 - 1),
)
@example(factors=[((1,), False), ((1,), False)], seed=2)
def test_tensor_bit_exact_with_kron(factors, seed):
    # Vectors or matrices, size-1 axes included, some factors real as np.eye is.
    # The example is a 1 x 1 product that np.multiply.outer rounds differently.
    rng = np.random.default_rng(seed)
    ops = [rng.normal(size=shape) + (0 if real else 1j * rng.normal(size=shape)) for shape, real in factors]
    assert np.array_equal(tensor(*ops), kron_tensor(*ops))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_tensor_of_stacks_is_bit_exact_with_each_member(m, n, r, c, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 2, m, n)) + 1j * rng.normal(size=(3, 2, m, n))
    b = rng.normal(size=(2, r, c)) + 1j * rng.normal(size=(2, r, c))
    single = rng.normal(size=(r, c))
    stacked, broadcast = tensor(a, b), tensor(a, single)
    assert stacked.shape == broadcast.shape == (3, 2, m * r, n * c)
    for x in range(3):
        for y in range(2):
            assert np.array_equal(stacked[x, y], kron_tensor(a[x, y], b[y]))
            assert np.array_equal(broadcast[x, y], kron_tensor(a[x, y], single))


@pytest.mark.parametrize("shapes", [((2,), (2, 2)), ((2, 2), (2,)), ((3, 2, 2), (2,)), ((), ())])
def test_tensor_refuses_a_vector_with_a_matrix(shapes):
    with pytest.raises(ValueError, match="vectors or matrices alike"):
        tensor(*(np.ones(shape) for shape in shapes))


def test_partial_trace_epr_marginal():
    epr = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    reduced = partial_trace(proj(epr), 2, [0])
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rho = random_density(RNG, 2)
    sigma = random_density(RNG, 4)
    joint = tensor(rho, sigma)
    assert np.allclose(partial_trace(joint, 3, [1, 2]), sigma, atol=1e-12)
    assert np.allclose(partial_trace(joint, 3, [0]), rho, atol=1e-12)


def test_partial_trace_matches_index_sum_oracle():
    for _ in range(10):
        rho = random_density(RNG, 8)
        for keep in range(3):
            assert np.allclose(partial_trace(rho, 3, [keep]), ptrace_oracle(rho, keep), atol=1e-12)


def test_partial_trace_preserves_trace_and_psd():
    for _ in range(50):
        rho = random_density(RNG, 8)
        reduced = partial_trace(rho, 3, [0, 2])
        assert abs(np.trace(reduced).real - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(reduced)) >= -1e-12


def test_tensor_then_partial_trace_returns_first_factor():
    for _ in range(20):
        a = random_density(RNG, 2)
        b = random_complex_matrix(RNG, 2)
        got = partial_trace(tensor(a, b), 2, [0])
        assert np.allclose(got, a * np.trace(b), atol=1e-12)


def test_partial_trace_rejects_bad_positions():
    rho = random_density(RNG, 4)
    with pytest.raises(ValueError):
        partial_trace(rho, 2, [])
    with pytest.raises(ValueError):
        partial_trace(rho, 2, [0, 2])


def test_trace_norm_diagonal_and_density():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
    for d in (2, 4, 8):
        assert trace_norm(random_density(RNG, d)) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_matches_sqrt_eig_oracle():
    for _ in range(40):
        d = int(RNG.integers(2, 9))
        a = random_complex_matrix(RNG, d)
        # independent route: singular values as square roots of eig(A†A)
        oracle = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(dagger(a) @ a), 0, None)))
        assert trace_norm(a) == pytest.approx(oracle, abs=1e-9)


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def power_iteration_norm(a: np.ndarray, iters: int = 3000) -> float:
    h = dagger(a) @ a
    rng = np.random.default_rng(7)
    v = rng.normal(size=a.shape[0]) + 1j * rng.normal(size=a.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = h @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(np.real(np.vdot(v, h @ v))))


def test_operator_norm_basics():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)


def test_operator_norm_matches_power_iteration():
    for _ in range(15):
        d = int(RNG.integers(2, 9))
        a = random_complex_matrix(RNG, d)
        assert operator_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-8)


def test_holder_inequality_property():
    # |Tr(B†A)| <= ||A||_1 ||B||_inf on 1000 random pairs, dims 2-16
    worst = np.inf
    for _ in range(1000):
        d = int(RNG.integers(2, 17))
        a = random_complex_matrix(RNG, d)
        b = random_complex_matrix(RNG, d)
        margin = trace_norm(a) * operator_norm(b) - abs(np.trace(dagger(b) @ a))
        worst = min(worst, margin)
    assert worst >= -1e-9


def test_hermitian_sqrt_squares_back_and_checks_its_input():
    for _ in range(30):
        d = int(RNG.integers(2, 33))
        rho = random_density(RNG, d)
        root = hermitian_sqrt(rho)
        assert is_hermitian(root)
        assert trace_norm(root @ root - rho) <= 1e-9
        assert np.min(np.linalg.eigvalsh(root)) >= -1e-12
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_sqrt(random_complex_matrix(RNG, 3))
    with pytest.raises(ValueError, match="PSD"):
        hermitian_sqrt(-random_density(RNG, 3))
    with pytest.raises(ValueError, match="square"):
        hermitian_sqrt(np.zeros((2, 3)))


def test_predicates():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_unitary(HADAMARD)
    assert not is_unitary(2 * np.eye(2))
    assert is_projector(proj(np.array([1.0, 0.0])))
    assert not is_projector(0.5 * np.eye(2))


def test_embed_unitary_reorders_targets():
    # embedding X on qubit 1 of 3 must commute with building it by hand
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    by_hand = tensor(np.eye(2), x, np.eye(2))
    assert np.allclose(embed_unitary(x, 3, [1]), by_hand)
    # reversed two-qubit targets transpose the operator's factors
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    flipped = embed_unitary(cnot, 2, [1, 0])
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(flipped, swap @ cnot @ swap)


@st.composite
def local_operator_cases(draw):
    """(n, targets, seed): a random target subset of n <= 6 qubits in random order,
    or the same subset reversed, or all qubits in order (a whole-register
    operator, which apply_local contracts like any other)."""
    n = draw(st.integers(1, 6))
    targets = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    shape = draw(st.sampled_from(("as drawn", "reversed", "all in order")))
    if shape == "reversed":
        targets = sorted(targets, reverse=True)
    elif shape == "all in order":
        targets = list(range(n))
    return n, targets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(local_operator_cases())
def test_apply_local_matches_dense_embedding(case):
    n, targets, seed = case
    rng = np.random.default_rng(seed)
    op = random_complex_matrix(rng, 2 ** len(targets))
    big = embed_unitary(op, n, targets)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    rho = random_complex_matrix(rng, 2**n)
    np.testing.assert_allclose(apply_local(psi, op, n, targets), big @ psi, rtol=0, atol=1e-10)
    np.testing.assert_allclose(apply_local(rho, op, n, targets), big @ rho @ dagger(big), rtol=0, atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(local_operator_cases(), st.booleans())
def test_apply_local_bit_exact_with_tensordot_form(case, transposed):
    n, targets, seed = case
    rng = np.random.default_rng(seed)
    op = random_complex_matrix(rng, 2 ** len(targets))
    if transposed:
        op = dagger(op)  # a Fortran-ordered view, as dagger(toy.v) reaches the kernel
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    rho = random_complex_matrix(rng, 2**n)
    for t in (psi, rho):
        assert np.array_equal(apply_local(t, op, n, targets), tensordot_apply_local(t, op, n, targets))
    # A stack (k, d, d), k in 1..4: each member as the reference gives it alone.
    stack = np.array([random_complex_matrix(rng, 2**n) for _ in range(int(rng.integers(1, 5)))])
    applied = apply_local(stack, op, n, targets)
    assert applied.shape == stack.shape
    for out, member in zip(applied, stack):
        assert np.array_equal(out, tensordot_apply_local(member, op, n, targets))


@settings(max_examples=200, deadline=None)
@given(local_operator_cases(), st.booleans(),
       st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 3), st.integers(1, 3))))
def test_stacked_kernel_bit_exact_with_a_loop_over_members(case, transposed, shape):
    n, targets, seed = case
    rng = np.random.default_rng(seed)
    op = random_complex_matrix(rng, 2 ** len(targets))
    if transposed:
        op = dagger(op)  # a Fortran-ordered view, as dagger(toy.v) reaches the kernel
    d = 2**n
    stack = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    members = stack.reshape(-1, d, d)
    applied = apply_local(stack, op, n, targets)
    assert applied.shape == stack.shape
    assert applied.tobytes() == np.array([apply_local(m, op, n, targets) for m in members]).tobytes()
    # The targets, in their drawn order, stand for the kept qubits.
    reduced = partial_trace(stack, n, targets)
    dk = 2 ** len(targets)
    assert reduced.shape == shape + (dk, dk)
    assert reduced.tobytes() == np.array([partial_trace(m, n, targets) for m in members]).tobytes()


# tracemalloc's peak in one apply_local call beyond two arrays of the input's
# size and the operator's conjugate: the call's index lists, views and the
# interpreter's own objects.
APPLY_LOCAL_SLACK_BYTES = 64 * 1024


def test_apply_local_holds_two_arrays_of_its_input_beyond_it():
    # A 2^9 density (4 MiB) at several target sets, all qubits included, and a
    # stack of eight 2^6 densities.  A third array of the input's size would
    # overshoot the slack many times over.
    rng = np.random.default_rng(99)
    cases = [(9, [0, 5]), (9, [3]), (9, [0, 1, 2, 7, 8]), (9, [8, 2]), (9, list(range(9))), (6, [4, 1])]
    for n, targets in cases:
        shape = (8, 2**n, 2**n) if n == 6 else (2**n, 2**n)
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        op = random_complex_matrix(rng, 2 ** len(targets))
        apply_local(t[..., :2, :2], op[:2, :2], 1, [0])  # first-use allocations before any reading
        gc.collect()
        tracemalloc.start()
        try:
            apply_local(t, op, n, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * t.nbytes + op.nbytes + APPLY_LOCAL_SLACK_BYTES, (n, targets, peak / t.nbytes)


def test_apply_local_rejects_bad_targets():
    psi = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        apply_local(psi, np.eye(4), 2, [0, 0])
    with pytest.raises(ValueError):
        apply_local(psi, np.eye(2), 2, [2])
    with pytest.raises(ValueError):
        apply_local(psi, np.eye(4), 2, [0])


@pytest.mark.parametrize("shape", [(8, 8), (3, 4), (4, 8), (8,), (3,), (2, 3, 4), ()])
@pytest.mark.parametrize("targets", [[0], [0, 1]])
def test_apply_local_rejects_arrays_not_of_n_qubits(shape, targets):
    # A (3, 4) array is neither a 2-qubit density nor a stack of 2-qubit vectors.
    op = np.eye(2 ** len(targets))
    with pytest.raises(ValueError, match=rf"n_qubits=2, got shape {re.escape(str(shape))}"):
        apply_local(np.ones(shape), op, 2, targets)


@pytest.mark.parametrize("shape", [(3,), (8,), (8, 8), (3, 4), (2, 4, 8), ()])
def test_partial_trace_rejects_arrays_not_of_n_qubits(shape):
    with pytest.raises(ValueError, match=rf"n_qubits=2, got shape {re.escape(str(shape))}"):
        partial_trace(np.ones(shape), 2, [0])
