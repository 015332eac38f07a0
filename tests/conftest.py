"""Shared fixtures for the test suite."""

import os

# A run's trajectory depends on the BLAS thread count, so the suite pins one
# thread, as perfbench/run.py does. BLAS reads these once, when numpy is
# first imported, and pytest loads this file before any test module.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from ttfedsim.wireless import ChannelParams  # noqa: E402


@pytest.fixture
def radio() -> ChannelParams:
    """Baseline radio constants used throughout: 3.76 path-loss exponent,
    -174 dBm/Hz noise floor, 10 mW transmit power, 0 dB decoding threshold,
    20 MHz uplink budget, and a 636160-bit model payload."""
    return ChannelParams(
        path_loss_exponent=3.76,
        noise_psd=3.98e-21,
        tx_power=0.01,
        snr_threshold=1.0,
        total_bandwidth=20e6,
        model_bits=636160.0,
    )
