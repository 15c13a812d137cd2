"""Hard-bin weight computation (pipeline task 2: "hard weight").

Hard Doppler bins compete with mainbeam clutter, so both staggered Doppler
windows (2J channels) are adapted jointly, with *separate weights for six
consecutive range intervals* (Section 3).  Each range segment offers only
one sixth of the range extent for training, so the recursion "dealt with the
paucity of data by using past looks at the same azimuth, exponentially
forgotten, as independent, identically distributed estimates of the clutter"
— a recursive QR update with forgetting factor 0.6 (Appendix B).

The per-(segment, bin) recursion state is the 2J x 2J R factor; an update
appends ``hard_train_samples`` fresh rows via the block QR update of
:func:`repro.stap.lsq.qr_append_rows`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.stap.doppler import stagger_phase
from repro.stap.easy_weights import select_range_samples
from repro.stap.lsq import (
    qr_append_rows,
    qr_append_rows_stacked,
    quiescent_weights_stacked,
    solve_constrained,
    solve_constrained_stacked,
)


def extract_hard_training(staggered: np.ndarray, params: STAPParams) -> np.ndarray:
    """Training blocks for every (segment, hard bin) from one staggered CPI.

    Returns (num_segments, N_hard, hard_train_samples, 2J): per segment and
    hard bin, range samples drawn evenly across that segment, using *both*
    Doppler windows ("hard weight computation employs range samples from the
    entire staggered CPI", Section 5.2).

    As with the easy training, rows are **conjugated** snapshots so that the
    least-squares residual equals the ``w^H x`` beamformer output on the
    training clutter.
    """
    out = np.empty(
        (
            params.num_segments,
            params.num_hard_doppler,
            params.hard_train_samples,
            params.num_staggered_channels,
        ),
        dtype=staggered.dtype,
    )
    hard = staggered[params.hard_bins]  # (N_hard, 2J, K)
    for seg_idx, seg in enumerate(params.segment_slices):
        seg_len = seg.stop - seg.start
        count = min(params.hard_train_samples, seg_len)
        sel = seg.start + select_range_samples(seg_len, count)
        block = hard[:, :, sel]  # (N_hard, 2J, count)
        block = np.conj(np.transpose(block, (0, 2, 1)))  # (N_hard, count, 2J)
        if count < params.hard_train_samples:
            pad = np.zeros(
                (
                    params.num_hard_doppler,
                    params.hard_train_samples - count,
                    params.num_staggered_channels,
                ),
                dtype=staggered.dtype,
            )
            block = np.concatenate([block, pad], axis=1)
        out[seg_idx] = block
    return out


def update_r_units(state: np.ndarray, training: np.ndarray, forget: float) -> None:
    """Absorb training rows into a flat axis of R factors, in place.

    ``state``: (U, 2J, 2J) R factors, one per (segment, bin) unit;
    ``training``: (U, rows, 2J) conjugated training rows.  One stacked
    block-QR update replaces U per-unit recursions — the kernel shared by
    the grid wrapper :func:`update_r_block` and the parallel hard weight
    task, whose rank owns an arbitrary flat subset of units.
    """
    start = perf_counter() if metrics_registry.enabled else None
    state[...] = qr_append_rows_stacked(state, training, forget=forget)
    if start is not None:
        from repro.stap.flops import qr_flops

        # Table 1 charges the recursion's QR with the constraint rows too
        # (see repro.stap.flops.hard_weight_flops); mirror that accounting
        # here so update + solve sum to the paper's per-unit count.
        num_units, rows, n2 = training.shape
        flops = num_units * qr_flops(n2 + rows + n2 // 2, n2)
        record_kernel("hard_weight", perf_counter() - start, flops)


def hard_constraint_blocks(
    state: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
) -> np.ndarray:
    """Phase-coupled constraint blocks for a flat axis of units.

    ``state``: (U, 2J, 2J) R factors; ``phases``: (U,) stagger phases.
    Returns (U, J, 2J) rows ``scale_u * [bw*I | fw*conj(p_u)*I]`` built by
    broadcast + diagonal index assignment — no per-unit ``hstack``.  The
    scale is the mean magnitude of each unit's R diagonal, clamped to 1
    when the recursion has absorbed nothing yet.
    """
    num_units, n2, _ = state.shape
    J = n2 // 2
    diags = np.abs(np.diagonal(state, axis1=1, axis2=2))
    scales = np.mean(diags, axis=1)
    scales[scales <= 0.0] = 1.0
    constraints = np.zeros((num_units, J, n2), dtype=complex)
    diag = np.arange(J)
    constraints[:, diag, diag] = (scales * beam_weight)[:, None]
    coupling = scales * (freq_weight * np.conj(np.asarray(phases)))
    constraints[:, diag, J + diag] = coupling[:, None]
    return constraints


def compute_hard_weights_units(
    state: np.ndarray,
    steering: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
) -> np.ndarray:
    """Hard weights for a flat axis of units: (U, 2J, 2J) -> (U, 2J, M).

    One stacked constrained solve over all units; bit identical to the
    per-unit loop (see :func:`compute_hard_weights_loop`).
    """
    start = perf_counter() if metrics_registry.enabled else None
    constraints = hard_constraint_blocks(state, phases, beam_weight, freq_weight)
    weights = solve_constrained_stacked(state, constraints, steering)
    if start is not None:
        # The back-substitution share of Table 1's per-unit count; the QR
        # share is credited to update_r_units (see comment there).
        num_units, n2 = state.shape[0], state.shape[1]
        flops = num_units * steering.shape[1] * 3.0 * n2 * n2
        record_kernel("hard_weight", perf_counter() - start, flops)
    return weights


def update_r_block(state: np.ndarray, training: np.ndarray, forget: float) -> None:
    """Absorb training rows into a block of R factors, in place.

    ``state``: (S, B, 2J, 2J) per-(segment, bin) R factors;
    ``training``: (S, B, rows, 2J) conjugated training rows.  The shared
    recursion kernel of the sequential reference and the parallel hard
    weight task; the (S, B) grid is flattened into one stacked axis so the
    whole block updates in a single batched factorization.
    """
    num_segments, num_bins, n2, _ = state.shape
    flat = state.reshape(num_segments * num_bins, n2, n2)
    update_r_units(flat, training.reshape(num_segments * num_bins, -1, n2), forget)


def update_r_block_loop(
    state: np.ndarray, training: np.ndarray, forget: float
) -> None:
    """Per-unit loop reference for :func:`update_r_block` (ground truth)."""
    num_segments, num_bins = state.shape[:2]
    for seg in range(num_segments):
        for bin_idx in range(num_bins):
            state[seg, bin_idx] = qr_append_rows(
                state[seg, bin_idx], training[seg, bin_idx], forget=forget
            )


def compute_hard_weights(
    state: np.ndarray,
    steering: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
) -> np.ndarray:
    """Hard weights from R factors: (S, B, 2J, 2J) -> (S, B, 2J, M).

    ``phases``: per-bin stagger phase (length B).  The constraint block
    couples the two Doppler windows: for bin ``n`` with stagger phase
    ``p_n``, the J rows ``[bw*I | fw*conj(p_n)*I]`` with right-hand side
    ``w_s`` pull the solution toward the coherent staggered combiner
    ``[w_s; p_n w_s] / 2`` while the data R factor supplies clutter nulls.

    The (S, B) grid is flattened and solved in one stacked call — the
    phase vector is tiled across segments, mirroring the loop's reuse of
    ``phases[bin_idx]`` in every segment.
    """
    num_segments, num_bins, n2, _ = state.shape
    flat = state.reshape(num_segments * num_bins, n2, n2)
    flat_phases = np.tile(np.asarray(phases), num_segments)
    weights = compute_hard_weights_units(
        flat, steering, flat_phases, beam_weight, freq_weight
    )
    return weights.reshape(num_segments, num_bins, n2, steering.shape[1])


def compute_hard_weights_loop(
    state: np.ndarray,
    steering: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
) -> np.ndarray:
    """Per-unit loop reference for :func:`compute_hard_weights`.

    Retained as ground truth for the batched kernel's tests and for
    measuring the batching win; one constraint build + constrained solve
    per (segment, bin), exactly the pre-batching implementation.
    """
    num_segments, num_bins, n2, _ = state.shape
    J = n2 // 2
    M = steering.shape[1]
    identity = np.eye(J, dtype=complex)
    weights = np.empty((num_segments, num_bins, n2, M), dtype=complex)
    for seg in range(num_segments):
        for bin_idx in range(num_bins):
            r_data = state[seg, bin_idx]
            scale = float(np.mean(np.abs(np.diag(r_data))))
            if scale <= 0.0:
                scale = 1.0
            constraint = scale * np.hstack(
                [
                    beam_weight * identity,
                    freq_weight * np.conj(phases[bin_idx]) * identity,
                ]
            )
            weights[seg, bin_idx] = solve_constrained(r_data, constraint, steering)
    return weights


class HardWeightComputer:
    """Stateful hard-bin weight computation: recursive QR per segment/bin."""

    def __init__(self, params: STAPParams, steering: np.ndarray):
        """``steering``: (J, M) receive-beam steering matrix."""
        steering = np.asarray(steering, dtype=complex)
        if steering.shape != (params.num_channels, params.num_beams):
            raise ConfigurationError(
                f"steering shape {steering.shape} != "
                f"({params.num_channels}, {params.num_beams})"
            )
        self.params = params
        self.steering = steering
        # azimuth -> (num_segments, N_hard, 2J, 2J) R factors.
        self._r_state: Dict[int, np.ndarray] = {}
        #: Per-bin expected phase of the late Doppler window w.r.t. the
        #: early one; the frequency-constraint factor of Appendix B.
        self._phases = stagger_phase(params, params.hard_bins)

    # -- state ---------------------------------------------------------------
    def _state_for(self, azimuth: int) -> np.ndarray:
        state = self._r_state.get(azimuth)
        if state is None:
            n2 = self.params.num_staggered_channels
            state = np.zeros(
                (self.params.num_segments, self.params.num_hard_doppler, n2, n2),
                dtype=complex,
            )
            self._r_state[azimuth] = state
        return state

    def has_history(self, azimuth: int = 0) -> bool:
        """True once at least one update has been absorbed for ``azimuth``."""
        state = self._r_state.get(azimuth)
        return state is not None and bool(np.any(state != 0))

    def update(self, training: np.ndarray, azimuth: int = 0) -> None:
        """Absorb one CPI's training (output of extract_hard_training)."""
        params = self.params
        expected = (
            params.num_segments,
            params.num_hard_doppler,
            params.hard_train_samples,
            params.num_staggered_channels,
        )
        training = np.asarray(training)
        if training.shape != expected:
            raise ConfigurationError(
                f"hard training shape {training.shape} != {expected}"
            )
        state = self._state_for(azimuth)
        update_r_block(state, training, params.forgetting_factor)

    # -- weights -------------------------------------------------------------
    def compute_weights(self, azimuth: int = 0) -> np.ndarray:
        """Weights for the next CPI: (num_segments, N_hard, 2J, M).

        Before any training exists, returns the per-bin coherent staggered
        quiescent weights ``[w_s; p_n w_s] / sqrt(2)``.
        """
        params = self.params
        M = params.num_beams
        n2 = params.num_staggered_channels
        state = self._r_state.get(azimuth)
        if state is None or not np.any(state != 0):
            weights = np.empty(
                (params.num_segments, params.num_hard_doppler, n2, M), dtype=complex
            )
            weights[:] = quiescent_weights_stacked(self.steering, self._phases)[
                None, :, :, :
            ]
            return weights
        return compute_hard_weights(
            state,
            self.steering,
            self._phases,
            params.beam_constraint_weight,
            params.freq_constraint_weight,
        )
