"""Registers, states, gates, and pair symmetrization.

Register convention: a layout lists named registers left to right; the leftmost
qubit of the leftmost register is the most significant index bit.  All
operations are pure: they return new values and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    apply_local,
    partial_trace as _partial_trace_positions,
    proj,
)

NORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# Layouts and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers mapped to tensor-factor positions."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in layout: {names}")
        if any(size < 1 for _, size in self.registers):
            raise ValueError("register sizes must be >= 1")

    @property
    def total_qubits(self) -> int:
        return sum(size for _, size in self.registers)

    @property
    def dim(self) -> int:
        return 2**self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def size(self, name: str) -> int:
        for reg, size in self.registers:
            if reg == name:
                return size
        raise ValueError(f"unknown register {name!r}; layout has {self.names}")

    def positions(self, names: list[str] | tuple[str, ...]) -> list[int]:
        """Qubit positions of the named registers, concatenated in the order given."""
        offsets = {}
        at = 0
        for reg, size in self.registers:
            offsets[reg] = (at, size)
            at += size
        out: list[int] = []
        for name in names:
            if name not in offsets:
                raise ValueError(f"unknown register {name!r}; layout has {self.names}")
            start, size = offsets[name]
            out.extend(range(start, start + size))
        return out


def layout(*registers: tuple[str, int]) -> RegisterLayout:
    return RegisterLayout(tuple(registers))


@dataclass(frozen=True)
class StateVector:
    """Unit-norm pure state over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.layout.dim:
            raise ValueError(
                f"amplitude length {amps.shape[0]} does not match layout dim {self.layout.dim}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    def density(self) -> DensityOperator:
        return DensityOperator(self.layout, proj(self.amplitudes))


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix over a register layout; only its shape is checked."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dim {d}")


State = StateVector | DensityOperator


def _array(state: State) -> np.ndarray:
    """Amplitudes of a pure state, matrix of a density operator."""
    return state.amplitudes if isinstance(state, StateVector) else state.matrix


def partial_trace(state: State, keep_names: list[str]) -> DensityOperator:
    """Reduce to the named registers, arranged in the order given.

    A pure state is reduced from its amplitudes; its full density is never formed.
    """
    positions = state.layout.positions(keep_names)
    reduced = _partial_trace_positions(_array(state), state.layout.total_qubits, positions)
    lay = RegisterLayout(tuple((n, state.layout.size(n)) for n in keep_names))
    return DensityOperator(lay, reduced)


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
# Unitary application
# ---------------------------------------------------------------------------

def apply_unitary(state: State, u: np.ndarray, targets: list[str]) -> State:
    """Apply a unitary to the named registers (in that order), identity elsewhere.

    Unitarity is not checked: every operator the package applies is unitary by
    construction.
    """
    positions = state.layout.positions(targets)
    out = apply_local(_array(state), u, state.layout.total_qubits, positions)
    if isinstance(state, StateVector):
        return StateVector(state.layout, out)
    return DensityOperator(state.layout, out)


# ---------------------------------------------------------------------------
# Pair symmetrization
# ---------------------------------------------------------------------------

def _check_pairs(state: State, pairs: list[tuple[str, str]]) -> list[tuple[str, ...]]:
    pairs = [tuple(p) for p in pairs]
    if len(pairs) < 2:
        raise ValueError("symmetrize_pairs needs at least 2 pairs")
    shapes = [tuple(state.layout.size(r) for r in p) for p in pairs]
    if any(s != shapes[0] for s in shapes):
        raise ValueError(f"pairs are not structurally identical: {shapes}")
    return pairs


def select_ordered_pair(
    state: State, pairs: list[tuple[str, str]], i: int, j: int
) -> DensityOperator:
    """Move pair i into slot 1 and pair j into slot 2, tracing out all other pairs.

    Output layout: registers not belonging to any pair (in layout order), then
    the first two pairs' register names carrying the selected contents.
    """
    pair_regs = {r for p in pairs for r in p}
    untouched = [n for n in state.layout.names if n not in pair_regs]
    keep = untouched + list(pairs[i]) + list(pairs[j])
    reduced = partial_trace(state, keep)
    slot_names = untouched + list(pairs[0]) + list(pairs[1])
    lay = RegisterLayout(tuple((n, reduced.layout.size(o)) for n, o in zip(slot_names, keep)))
    return DensityOperator(lay, reduced.matrix)


def _swap_slots(m: np.ndarray, n_qubits: int, slot: int) -> np.ndarray:
    """Exchange the last two groups of ``slot`` qubits of a 2^n x 2^n matrix, on both sides."""
    rest = n_qubits - 2 * slot
    order = list(range(rest)) + list(range(rest + slot, n_qubits)) + list(range(rest, rest + slot))
    axes = order + [n_qubits + q for q in order]
    return m.reshape([2] * (2 * n_qubits)).transpose(axes).reshape(m.shape)


def _both_orders(
    state: State, pairs: list[tuple[str, str]], i: int, j: int
) -> tuple[DensityOperator, DensityOperator]:
    """select_ordered_pair's (i, j) and (j, i) reductions, for i < j, from one
    reduction: the reverse order is the same matrix with the two slots
    exchanged, which moves entries and so equals its own reduction bit for bit.
    """
    dm = select_ordered_pair(state, pairs, i, j)
    slot = sum(state.layout.size(r) for r in pairs[i])
    return dm, DensityOperator(dm.layout, _swap_slots(dm.matrix, dm.layout.total_qubits, slot))


def symmetrize_pairs(state: State, pairs: list[tuple[str, str]]) -> DensityOperator:
    """Uniformly permute structurally identical register pairs.

    Returns the permutation average restricted to the first two pair slots:
    the mean of the l(l-1) ordered-pair reductions, as a density operator.
    Each unordered pair is reduced once (_both_orders), and the terms are
    summed in ordered-pair order.
    """
    pairs = _check_pairs(state, pairs)
    count = len(pairs)
    reduced = {}
    for i in range(count):
        for j in range(i + 1, count):
            reduced[i, j], reduced[j, i] = _both_orders(state, pairs, i, j)
    terms = [reduced[i, j].matrix for i in range(count) for j in range(count) if i != j]
    return DensityOperator(reduced[0, 1].layout, sum(terms) / len(terms))
