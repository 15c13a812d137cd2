"""Beamforming (pipeline tasks 3 and 4: "easy BF" / "hard BF").

Applies the adaptive weights to the Doppler-filtered data:
``y[n, m, k] = w[n, :, m]^H  x[n, :, k]`` — per Doppler bin, an M x C times
C x K matrix product (C = J for easy bins, 2J for hard bins, the latter per
range segment).  These are exactly the matrix-matrix multiplications whose
counts appear in the paper's Table 1.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams


def beamform_easy(
    dop_easy: np.ndarray, weights: np.ndarray, params: STAPParams
) -> np.ndarray:
    """Easy-bin beamforming.

    Parameters
    ----------
    dop_easy:
        (N_easy, J, K) — the easy bins of the staggered cube, first Doppler
        window only.
    weights:
        (N_easy, J, M) easy weights.

    Returns
    -------
    (N_easy, M, K) beamformed data.
    """
    n_easy, J, K = (
        params.num_easy_doppler,
        params.num_channels,
        params.num_ranges,
    )
    if dop_easy.shape != (n_easy, J, K):
        raise ConfigurationError(
            f"easy Doppler data shape {dop_easy.shape} != ({n_easy},{J},{K})"
        )
    if weights.shape != (n_easy, J, params.num_beams):
        raise ConfigurationError(
            f"easy weights shape {weights.shape} != "
            f"({n_easy},{J},{params.num_beams})"
        )
    start = perf_counter() if metrics_registry.enabled else None
    out = np.einsum("njm,njk->nmk", np.conj(weights), dop_easy, optimize=True)
    if start is not None:
        from repro.stap.flops import easy_beamform_flops

        record_kernel(
            "easy_beamform", perf_counter() - start, easy_beamform_flops(params)
        )
    return out


def beamform_hard(
    dop_hard: np.ndarray, weights: np.ndarray, params: STAPParams
) -> np.ndarray:
    """Hard-bin beamforming with per-segment weights.

    Parameters
    ----------
    dop_hard:
        (N_hard, 2J, K) — the hard bins of the staggered cube, both windows.
    weights:
        (num_segments, N_hard, 2J, M) hard weights.

    Returns
    -------
    (N_hard, M, K) beamformed data; range segment ``s`` of the output uses
    segment ``s``'s weights.
    """
    n_hard = params.num_hard_doppler
    n2 = params.num_staggered_channels
    K = params.num_ranges
    if dop_hard.shape != (n_hard, n2, K):
        raise ConfigurationError(
            f"hard Doppler data shape {dop_hard.shape} != ({n_hard},{n2},{K})"
        )
    expected_w = (params.num_segments, n_hard, n2, params.num_beams)
    if weights.shape != expected_w:
        raise ConfigurationError(f"hard weights shape {weights.shape} != {expected_w}")
    start = perf_counter() if metrics_registry.enabled else None
    out = np.empty((n_hard, params.num_beams, K), dtype=complex)
    for seg_idx, seg in enumerate(params.segment_slices):
        out[:, :, seg] = np.einsum(
            "njm,njk->nmk",
            np.conj(weights[seg_idx]),
            dop_hard[:, :, seg],
            optimize=True,
        )
    if start is not None:
        from repro.stap.flops import hard_beamform_flops

        record_kernel(
            "hard_beamform", perf_counter() - start, hard_beamform_flops(params)
        )
    return out


def assemble_beamformed(
    easy: np.ndarray, hard: np.ndarray, params: STAPParams
) -> np.ndarray:
    """Interleave easy- and hard-bin results into the full (N, M, K) cube.

    Bin order follows the FFT bin index, so hard bins land at both spectrum
    edges and easy bins in the centre — the layout pulse compression and
    CFAR consume.
    """
    N, M, K = params.num_doppler, params.num_beams, params.num_ranges
    if easy.shape != (params.num_easy_doppler, M, K):
        raise ConfigurationError(f"easy beamformed shape {easy.shape} unexpected")
    if hard.shape != (params.num_hard_doppler, M, K):
        raise ConfigurationError(f"hard beamformed shape {hard.shape} unexpected")
    out = np.empty((N, M, K), dtype=complex)
    out[params.easy_bins] = easy
    out[params.hard_bins] = hard
    return out
