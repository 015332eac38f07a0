"""Uplink channel model: path loss, Shannon rate, delays, transmission success.

Links fade independently per transmission (unit-mean exponential power
gain, i.e. Rayleigh amplitude). A packet of ``model_bits`` goes through iff
the instantaneous SNR clears ``snr_threshold``; the closed-form success
probability exp(-threshold*noise*b / (power*pathloss)) is what the
scheduler optimizes against, while the simulator draws the actual gain.
Downlink broadcasts are treated as free and instantaneous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import TAG_CHANNEL, exponentials


@dataclass(frozen=True)
class ChannelParams:
    """Static radio parameters shared by all users.

    path_loss_exponent: decay alpha in min(1, d**-alpha), alpha >= 2
    noise_psd: noise power spectral density in W/Hz
    tx_power: per-user transmit power in W
    snr_threshold: decoding SNR threshold, linear (not dB)
    total_bandwidth: uplink budget B in Hz
    model_bits: uplink payload Z per update in bits
    """

    path_loss_exponent: float
    noise_psd: float
    tx_power: float
    snr_threshold: float
    total_bandwidth: float
    model_bits: float

    def __post_init__(self) -> None:
        if self.path_loss_exponent < 2.0:
            raise ValueError(f"path_loss_exponent must be >= 2, got {self.path_loss_exponent}")
        for name in ("noise_psd", "tx_power", "snr_threshold", "total_bandwidth"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.model_bits < 0.0:  # 0 is allowed: a free upload takes no time
            raise ValueError(f"model_bits must be >= 0, got {self.model_bits}")


def path_loss(distance: float, exponent: float) -> float:
    """Non-singular power path loss min(1, d**-exponent)."""
    if distance < 0.0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if distance <= 1.0:
        return 1.0
    return distance**-exponent


def achievable_rate(bandwidth: float, gain_power: float, params: ChannelParams) -> float:
    """Shannon rate b*log2(1 + P*g2/(N0*b)) in bit/s for channel power gain g2."""
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if gain_power < 0.0:
        raise ValueError(f"gain_power must be >= 0, got {gain_power}")
    snr = params.tx_power * gain_power / (params.noise_psd * bandwidth)
    return bandwidth * np.log2(1.0 + snr)


def comm_delay(bandwidth: float, gain_power: float, params: ChannelParams) -> float:
    """Seconds to push one model of params.model_bits through the link."""
    rate = achievable_rate(bandwidth, gain_power, params)
    if rate <= 0.0:
        return float("inf")
    return params.model_bits / rate


def fading_threshold(bandwidth: float, distance: float, params: ChannelParams) -> float:
    """Minimum exponential fading power that still decodes at this bandwidth.

    bandwidth = 0 costs nothing and always decodes (threshold 0).
    """
    if bandwidth < 0.0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth}")
    loss = path_loss(distance, params.path_loss_exponent)
    return params.snr_threshold * params.noise_psd * bandwidth / (params.tx_power * loss)


def stp(bandwidth: float, distance: float, params: ChannelParams) -> float:
    """Success probability of one upload: P[fading >= threshold] for Exp(1) fading."""
    return float(np.exp(-fading_threshold(bandwidth, distance, params)))


def draw_fading(master_seed: int, users, events) -> np.ndarray:
    """Unit-mean exponential power fading of each upload (users[i] at events[i]).

    Upload i's fading is the first draw of its own stream
    (master_seed, TAG_CHANNEL, user, event index), so it does not depend
    on which other uploads are drawn with it.
    """
    return exponentials(master_seed, TAG_CHANNEL, users, events)


def success_given_fading(
    fading: float, bandwidth: float, distance: float, params: ChannelParams
) -> bool:
    """Decodability of an upload under an already-drawn fading power."""
    return fading >= fading_threshold(bandwidth, distance, params)


def compute_delay(
    local_epochs: int,
    cycles_per_sample: float,
    dataset_size: float | np.ndarray,
    cpu_freq: float | np.ndarray,
) -> float | np.ndarray:
    """Seconds for one local-update pass: epochs*cycles/sample*samples/freq.

    Sizes and frequencies may be per-user arrays; the result then is too.
    """
    return local_epochs * cycles_per_sample * dataset_size / cpu_freq
