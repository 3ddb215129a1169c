"""Diffusion-threshold (MBO) iteration for the balanced-TV objective.

One sweep alternates three substeps: pseudospectral diffusion under
exp(-dt*M) restricted to the retained eigenbasis, an exact pointwise
relaxation toward supervised targets when a fidelity term is present, and a
row-wise argmax threshold back to a label vector.  The timestep is picked
automatically as the geometric mean of a freezing lower bound and a spectral
decay upper bound, and a refinement phase continues from the fixed point with
a smaller timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import DiffusionOperator, EigenBasis
from .graph import (
    Supervision,
    balanced_tv,
    labels_to_matrix,
    modularity,
)

__all__ = [
    "MboResult",
    "timestep_bounds",
    "select_timestep",
    "diffuse",
    "fidelity_step",
    "threshold",
    "mbo_run",
]

DT_CAP_FACTOR = 1e3  # dt never exceeds this multiple of the freezing bound
DECAY_EPSILON = 1.0  # target amplitude in the decay-time upper bound
REFINE_FACTOR = 0.1  # the refinement phase runs at this fraction of dt
MAX_ITERS = 300  # sweeps per phase before mbo_run reports converged=False


@dataclass(frozen=True)
class MboResult:
    """Outcome of one MBO solve or recursive partition: labels and diagnostics."""

    labels: np.ndarray
    iterations: int
    dt_used: float | None          # None from recursive_partition: splits pick their own
    energy_trace: np.ndarray       # balanced TV of each thresholded iterate
    modularity_trace: np.ndarray   # its modularity; both empty unless traced
    modularity: float
    converged: bool
    nhat: int


def timestep_bounds(op: DiffusionOperator) -> tuple[float, float]:
    """(tau_lo, cap): the freezing lower bound
    tau_lo = log(2) / op.infinity_norm_bound() = log(2) / (2 (1+gamma) k_max),
    below which no threshold step can move a label, and the largest
    admissible timestep DT_CAP_FACTOR * tau_lo."""
    tau_lo = np.log(2.0) / op.infinity_norm_bound()
    return tau_lo, DT_CAP_FACTOR * tau_lo


def select_timestep(basis: EigenBasis) -> float:
    """Automatic MBO timestep.

    Geometric mean of the freezing lower bound tau_lo (see
    :func:`timestep_bounds`) and the decay-time upper bound
    tau_hi = log(sqrt(N)/DECAY_EPSILON) / lambda_1, clamped to
    [tau_lo, cap].  A degenerate lambda_1 <= 0 (near-disconnected graph)
    falls back to the cap.
    """
    tau_lo, cap = timestep_bounds(basis.operator)
    lam1 = float(basis.eigenvalues[0])
    if lam1 <= 0.0:
        return cap
    u0_norm = np.sqrt(basis.n_nodes)  # Frobenius norm of any partition matrix
    tau_hi = np.log(u0_norm / DECAY_EPSILON) / lam1
    return float(np.clip(np.sqrt(tau_lo * tau_hi), tau_lo, cap))


def _check_dt(dt: float) -> None:
    # a NaN passes "dt <= 0", and an infinite dt diffuses every label to zero
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def diffuse(basis: EigenBasis, u: np.ndarray, dt: float) -> np.ndarray:
    """Projection of exp(-dt*M) u onto the retained eigenbasis:
    V diag(exp(-dt lambda_i)) V^T u."""
    _check_dt(dt)
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] != basis.n_nodes:
        raise ValueError(
            f"assignment has {u.shape[0]} rows for a {basis.n_nodes}-node basis"
        )
    coeffs = basis.eigenvectors.T @ u
    coeffs *= np.exp(-dt * basis.eigenvalues)[:, None]
    return basis.eigenvectors @ coeffs


def fidelity_step(u: np.ndarray, supervision: Supervision, dt: float) -> np.ndarray:
    """Exact solve of the fidelity flow u_t = -2 lambda chi (u - f) over dt.

    Supervised rows relax toward their targets by the factor
    exp(-2 lambda dt); all other entries pass through unchanged.
    """
    _check_dt(dt)
    u = np.asarray(u, dtype=np.float64)
    supervision.check_against(u.shape[0], u.shape[1])
    out = u.copy()
    decay = np.exp(-2.0 * supervision.weight * dt)
    rows, targets = supervision.nodes, supervision.targets(u.shape[1])
    out[rows] = targets + (u[rows] - targets) * decay
    return out


def threshold(u: np.ndarray) -> np.ndarray:
    """Row-wise argmax labels of an N x nhat matrix; ties go to the lowest
    column index."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] < 1:
        raise ValueError("threshold expects an N x nhat matrix")
    if np.isnan(u).any():
        raise ValueError("NaN entry in assignment matrix")
    return np.argmax(u, axis=1)


def _sweep_to_fixed_point(basis, labels, nhat, dt, supervision, history):
    """Threshold dynamics from ``labels`` until the partition repeats or
    MAX_ITERS sweeps pass; returns (labels, iterations, converged) and, when
    ``history`` is a list, appends each iterate's labels to it."""
    for iteration in range(1, MAX_ITERS + 1):
        u_half = diffuse(basis, labels_to_matrix(labels, nhat), dt)
        if supervision is not None:
            u_half = fidelity_step(u_half, supervision, dt)
        labels_next = threshold(u_half)
        if history is not None:
            history.append(labels_next)
        if np.array_equal(labels_next, labels):
            return labels_next, iteration, True
        labels = labels_next
    return labels, MAX_ITERS, False


def mbo_run(basis: EigenBasis, nhat: int, *, seed: int = 0, dt: float | None = None,
            supervision: Supervision | None = None,
            init: np.ndarray | None = None, trace: bool = False) -> MboResult:
    """Run the threshold-dynamics iteration to a fixed point with ``nhat``
    communities on the graph and gamma of ``basis.operator``.

    Starts from ``init`` (a label vector) or from uniform random labels drawn
    with ``seed``, iterates diffuse / fidelity / threshold until the
    thresholded partition repeats, then refines from that fixed point with
    ``dt * REFINE_FACTOR`` until stationary again.  ``dt`` defaults to
    :func:`select_timestep`.  Hitting MAX_ITERS in a phase is reported via
    ``converged=False``, not an error.  ``trace`` records every iterate's
    balanced TV and modularity, which costs more than the loop.  Identical
    arguments reproduce the result exactly.
    """
    graph, gamma = basis.operator.graph, basis.operator.gamma
    if nhat < 1:
        raise ValueError("nhat must be at least 1")
    if supervision is not None:
        supervision.check_against(graph.n_nodes, nhat)
    if init is None:
        labels = np.random.default_rng(seed).integers(0, nhat, size=graph.n_nodes)
        if supervision is not None:
            # known labels are known at time zero; starting them anywhere
            # else only injects seed-dependent transients
            labels[supervision.nodes] = supervision.labels
    else:
        labels = np.asarray(init)
        if labels.shape != (graph.n_nodes,) or labels.dtype.kind not in "iu":
            raise ValueError(f"init: expected {graph.n_nodes} integer labels, "
                             f"got shape {labels.shape} of {labels.dtype}")
        if np.any((labels < 0) | (labels >= nhat)):
            raise ValueError(f"init: labels must lie in [0, {nhat})")
    if dt is None:
        dt = select_timestep(basis)
    _check_dt(dt)

    history = [] if trace else None
    labels, iters, converged = _sweep_to_fixed_point(
        basis, labels, nhat, dt, supervision, history
    )
    if converged:
        labels, extra, converged = _sweep_to_fixed_point(
            basis, labels, nhat, dt * REFINE_FACTOR, supervision, history
        )
        iters += extra

    energy_trace = np.array(
        [balanced_tv(graph, labels_to_matrix(lab, nhat), gamma) for lab in history or []]
    )
    modularity_trace = np.array([modularity(graph, lab, gamma) for lab in history or []])
    return MboResult(
        labels=labels,
        iterations=iters,
        dt_used=dt,
        energy_trace=energy_trace,
        modularity_trace=modularity_trace,
        modularity=modularity(graph, labels, gamma),
        converged=converged,
        nhat=nhat,
    )
