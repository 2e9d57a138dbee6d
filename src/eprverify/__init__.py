"""Desk-scale simulator for an EPR-assisted one-sided-error proof verifier."""

__version__ = "0.1.0"

from .kernel import (
    DensityOperator,
    RegisterLayout,
    StateVector,
    apply_unitary,
    basis_state,
    layout,
    partial_trace,
    symmetrize_pairs,
    tensor_product,
    to_density,
    zero_state,
)
from .channels import bell_basis, bell_subspaces, choi_state, pinch_phi
from .protocol import (
    BranchBreakdown,
    ProtocolRun,
    ProtocolState,
    ToyVerifier,
    accept_operator,
    cheating_proof,
    honest_proof,
    make_toy_verifier,
    post_selection,
    postsel_success_prob,
    rewinding_residual,
    swap_test,
)

__all__ = [
    "BranchBreakdown",
    "DensityOperator",
    "ProtocolRun",
    "ProtocolState",
    "RegisterLayout",
    "StateVector",
    "ToyVerifier",
    "accept_operator",
    "apply_unitary",
    "basis_state",
    "bell_basis",
    "bell_subspaces",
    "cheating_proof",
    "choi_state",
    "honest_proof",
    "layout",
    "make_toy_verifier",
    "partial_trace",
    "pinch_phi",
    "post_selection",
    "postsel_success_prob",
    "rewinding_residual",
    "swap_test",
    "symmetrize_pairs",
    "tensor_product",
    "to_density",
    "zero_state",
]
