"""Pulse compression (pipeline task 5).

"Pulse compression involves convolution of the received signal with a
replica of the transmit pulse waveform.  This is accomplished by first
performing K-point FFTs on the two inputs, point-wise multiplication of the
intermediate result and then computing the inverse FFT" (Section 5.4).

Because the mainbeam constraint preserves target phase across range, pulse
compression runs on the *beamformed* output (M beams) instead of on every
receive channel — the algorithm-level saving Section 3 highlights.  After
filtering, "the square of the magnitude of the complex data is computed to
move to the real power domain", halving the data and avoiding square roots.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.radar.waveform import lfm_chirp, matched_filter_frequency_response


def replica_response(params: STAPParams) -> np.ndarray:
    """Matched-filter frequency response for the configured waveform."""
    return matched_filter_frequency_response(
        lfm_chirp(params.waveform_length), params.num_ranges
    )


def pulse_compress(
    beamformed: np.ndarray,
    params: STAPParams,
    replica_freq: np.ndarray | None = None,
) -> np.ndarray:
    """Matched-filter along range and square to the power domain.

    Parameters
    ----------
    beamformed:
        (N, M, K) complex beamformed cube.
    replica_freq:
        Optional precomputed :func:`replica_response` (length K).

    Returns
    -------
    (N, M, K) real power cube.  The correlation peak of a target injected at
    range cell ``k0`` lands at index ``k0``.
    """
    N, M, K = params.num_doppler, params.num_beams, params.num_ranges
    if beamformed.shape != (N, M, K):
        raise ConfigurationError(
            f"beamformed shape {beamformed.shape} != ({N},{M},{K})"
        )
    return pulse_compress_block(beamformed, params, replica_freq)


def pulse_compress_block(
    beamformed: np.ndarray,
    params: STAPParams,
    replica_freq: np.ndarray | None = None,
) -> np.ndarray:
    """Matched filter an arbitrary block of Doppler bins: (b, M, K).

    The per-processor kernel of the parallel pulse-compression task, which
    owns ``N / P_5`` Doppler bins (Figure 9); :func:`pulse_compress` is the
    full-cube wrapper.
    """
    M, K = params.num_beams, params.num_ranges
    beamformed = np.asarray(beamformed)
    if beamformed.ndim != 3 or beamformed.shape[1:] != (M, K):
        raise ConfigurationError(
            f"block shape {beamformed.shape} must be (bins, {M}, {K})"
        )
    if replica_freq is None:
        replica_freq = replica_response(params)
    if replica_freq.shape != (K,):
        raise ConfigurationError(
            f"replica response length {replica_freq.shape} != ({K},)"
        )
    start = perf_counter() if metrics_registry.enabled else None
    spectrum = np.fft.fft(beamformed, axis=2)
    spectrum *= replica_freq[None, None, :]
    compressed = np.fft.ifft(spectrum, axis=2)
    power = compressed.real**2 + compressed.imag**2
    # ``power`` is float64 (np.fft computes in double); copy=False returns
    # it as-is for double-precision params instead of cloning the cube.
    power = power.astype(params.real_dtype, copy=False)
    if start is not None:
        from repro.stap.flops import pulse_compression_flops

        share = beamformed.shape[0] / params.num_doppler
        record_kernel(
            "pulse_compression",
            perf_counter() - start,
            pulse_compression_flops(params) * share,
        )
    return power
