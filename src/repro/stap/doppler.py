"""Doppler filter processing with PRI stagger (pipeline task 0).

Implements Appendix B's ``rawToFFT``: two windowed Doppler FFTs are taken
per (range cell, channel) — one over pulses ``[0, N-s)`` and one over pulses
``[s, N)``, where ``s`` is the PRI stagger (3 at paper scale).  The two
spectra are stacked along the channel axis, producing the *staggered CPI*
cube of K x 2J x N the rest of the chain consumes.  A target at Doppler bin
``n`` appears in both halves with a known inter-half phase shift
``exp(-2*pi*i*n*s/N)``, which is the temporal degree of freedom the hard-bin
adaptive weights exploit.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.datacube import CPIDataCube
from repro.radar.parameters import STAPParams
from repro.radar.windows import window_by_name


def stagger_phase(params: STAPParams, doppler_bins) -> np.ndarray:
    """Phase rotation of the late Doppler window relative to the early one.

    A tone at bin ``n`` appears in the late (stagger-delayed) window rotated
    by ``exp(+2*pi*i * n * stagger / N)``: the late window sees the same
    samples ``stagger`` pulses later.  Its conjugate is the factor in
    Appendix B's frequency-constraint rows.
    """
    bins = np.asarray(doppler_bins)
    return np.exp(2j * np.pi * bins * params.stagger / params.num_doppler)


def doppler_filter(
    cube: CPIDataCube | np.ndarray,
    params: STAPParams | None = None,
    window: np.ndarray | None = None,
) -> np.ndarray:
    """Doppler-filter one CPI into the staggered cube.

    Parameters
    ----------
    cube:
        Raw CPI cube (K x J x N), or a :class:`CPIDataCube`.
    params:
        Required when ``cube`` is a bare array.
    window:
        Optional precomputed filter-bank window (see
        :func:`doppler_filter_block`).

    Returns
    -------
    numpy.ndarray
        Staggered Doppler data of shape (N, 2J, K): Doppler bin x staggered
        channel x range cell.  Channels ``[:J]`` hold the first (early)
        window, ``[J:]`` the second (late, staggered) window.  The
        bin-major layout makes the downstream per-Doppler-bin tasks
        unit-stride in range — the reorganization the paper performs during
        inter-task redistribution (Figure 8).
    """
    if isinstance(cube, CPIDataCube):
        params = cube.params
        data = cube.data
    else:
        if params is None:
            raise ConfigurationError("params required when passing a bare array")
        data = np.asarray(cube)
    K, J, N = params.num_ranges, params.num_channels, params.num_pulses
    if data.shape != (K, J, N):
        raise ConfigurationError(f"cube shape {data.shape} != ({K},{J},{N})")
    return doppler_filter_block(data, params, window=window)


def range_correction_factors(params: STAPParams, k_start: int, count: int) -> np.ndarray:
    """R^2 sensitivity-time-control gains for range cells [k_start, +count).

    Echo power falls as R^4; correcting amplitude by (R / R_max)^2 levels
    the noise-relative sensitivity across range.  Normalized so the far
    cell has unit gain.
    """
    if not (0 <= k_start and k_start + count <= params.num_ranges):
        raise ConfigurationError(
            f"range cells [{k_start}, {k_start + count}) outside "
            f"[0, {params.num_ranges})"
        )
    cells = np.arange(k_start, k_start + count, dtype=float)
    return ((cells + 1.0) / params.num_ranges) ** 2


def doppler_filter_block(
    data: np.ndarray,
    params: STAPParams,
    k_start: int = 0,
    window: np.ndarray | None = None,
) -> np.ndarray:
    """Doppler-filter a K-slice of a CPI cube: (k, J, N) -> (N, 2J, k).

    This is the per-processor kernel of the parallel Doppler task, which
    owns ``K / P_0`` range cells (Figure 5); :func:`doppler_filter` is the
    full-cube wrapper.  ``k_start`` is the slice's absolute first range
    cell — needed when range correction is enabled, since the correction
    gain depends on absolute range.

    ``window``: optional precomputed filter-bank window (a
    :class:`~repro.stap.plan.KernelPlan` holds it); default recomputes it
    from the params — identical values either way.
    """
    J, N = params.num_channels, params.num_pulses
    data = np.asarray(data)
    if data.ndim != 3 or data.shape[1] != J or data.shape[2] != N:
        raise ConfigurationError(
            f"block shape {data.shape} must be (k, {J}, {N})"
        )
    if params.range_correction:
        gains = range_correction_factors(params, k_start, data.shape[0])
        data = data * gains[:, None, None]
    s = params.stagger
    win_len = N - s
    if window is None:
        window = window_by_name(params.window, win_len).astype(params.real_dtype)
    elif window.shape != (win_len,):
        raise ConfigurationError(
            f"window length {window.shape} != ({win_len},)"
        )

    start = perf_counter() if metrics_registry.enabled else None
    out = np.empty((N, 2 * J, data.shape[0]), dtype=np.complex128)
    # Early window: pulses [0, N-s), zero-padded to N before the FFT.
    early = data[:, :, :win_len] * window
    # Late window: pulses [s, N).
    late = data[:, :, s:] * window
    # FFT along the pulse axis (unit stride in the corner-turned cube — the
    # whole point of partitioning this task along K, Section 5.1).
    spec_early = np.fft.fft(early, n=N, axis=2)
    spec_late = np.fft.fft(late, n=N, axis=2)
    # (k, J, N) -> (N, J, k)
    out[:, :J, :] = np.transpose(spec_early, (2, 1, 0))
    out[:, J:, :] = np.transpose(spec_late, (2, 1, 0))
    if start is not None:
        from repro.stap.flops import doppler_flops

        share = data.shape[0] / params.num_ranges
        record_kernel(
            "doppler", perf_counter() - start, doppler_flops(params) * share
        )
    return out


def doppler_bin_frequencies(params: STAPParams) -> np.ndarray:
    """Normalized Doppler frequency (cycles/PRI) at each FFT bin centre."""
    N = params.num_doppler
    freqs = np.fft.fftfreq(N)
    return freqs


def nearest_bin(params: STAPParams, normalized_doppler: float) -> int:
    """FFT bin whose centre frequency is nearest ``normalized_doppler``."""
    N = params.num_doppler
    return int(np.round(normalized_doppler * N)) % N
