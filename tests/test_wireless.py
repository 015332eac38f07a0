"""Channel model: path loss, rate, delays, transmission success."""

import math

import numpy as np
import pytest

from ttfedsim.wireless import (
    ChannelParams,
    achievable_rate,
    comm_delay,
    compute_delay,
    draw_fading,
    fading_threshold,
    path_loss,
    stp,
    success_given_fading,
)


class TestPathLoss:
    def test_clamp_below_one_meter(self):
        assert path_loss(0.5, 3.76) == 1.0
        assert path_loss(0.0, 3.76) == 1.0

    def test_boundary(self):
        assert path_loss(1.0, 3.76) == 1.0

    def test_hundred_meters(self):
        assert path_loss(100.0, 3.76) == pytest.approx(3.0199517204020194e-08, rel=1e-12)
        assert path_loss(100.0, 3.76) == pytest.approx(3.02e-8, rel=1e-3)

    def test_non_increasing(self):
        ds = np.linspace(0.0, 900.0, 200)
        ls = [path_loss(float(d), 3.76) for d in ds]
        assert all(a >= b for a, b in zip(ls, ls[1:]))

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            path_loss(-1.0, 3.76)


class TestAchievableRate:
    def test_reference_point(self, radio):
        rate = achievable_rate(1e6, 3.02e-8, radio)
        assert rate == pytest.approx(16211439.60609383, rel=1e-12)
        assert rate == pytest.approx(1.62e7, rel=1e-2)

    def test_zero_gain(self, radio):
        assert achievable_rate(1e6, 0.0, radio) == 0.0

    def test_monotone_in_bandwidth(self, radio):
        bs = np.geomspace(1e3, 1e9, 40)
        rates = [achievable_rate(float(b), 3.02e-8, radio) for b in bs]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_capacity_ceiling(self, radio):
        # the rate saturates at P*g2/(N0*ln2); the gap shrinks with b
        g2 = 3.02e-8
        ceiling = radio.tx_power * g2 / (radio.noise_psd * math.log(2.0))
        gaps = []
        for b in np.geomspace(1e3, 1e12, 30):
            rate = achievable_rate(float(b), g2, radio)
            assert rate < ceiling
            gaps.append(ceiling - rate)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_bandwidth_must_be_positive(self, radio):
        for b in (0.0, -1.0):
            with pytest.raises(ValueError):
                achievable_rate(b, 1.0, radio)

    def test_negative_gain(self, radio):
        with pytest.raises(ValueError):
            achievable_rate(1e6, -0.1, radio)


class TestCommDelay:
    def test_reference_payload(self, radio):
        # 636160 bits over the ~1.62e7 bps reference link
        assert comm_delay(1e6, 3.02e-8, radio) == pytest.approx(0.03924142552774088, rel=1e-12)
        assert comm_delay(1e6, 3.02e-8, radio) == pytest.approx(0.0393, rel=1e-2)

    def test_zero_payload(self):
        free = ChannelParams(
            path_loss_exponent=3.76,
            noise_psd=3.98e-21,
            tx_power=0.01,
            snr_threshold=1.0,
            total_bandwidth=20e6,
            model_bits=0.0,
        )
        assert comm_delay(1e6, 3.02e-8, free) == 0.0

    def test_doubling_payload_doubles_delay(self, radio):
        double = ChannelParams(
            path_loss_exponent=radio.path_loss_exponent,
            noise_psd=radio.noise_psd,
            tx_power=radio.tx_power,
            snr_threshold=radio.snr_threshold,
            total_bandwidth=radio.total_bandwidth,
            model_bits=2.0 * radio.model_bits,
        )
        assert comm_delay(1e6, 3.02e-8, double) == 2.0 * comm_delay(1e6, 3.02e-8, radio)

    def test_inverse_in_rate(self, radio):
        # delay * rate recovers the payload exactly up to float division
        for b, g2 in ((1e5, 1e-7), (2e6, 3.02e-8), (5e6, 1e-9)):
            rate = achievable_rate(b, g2, radio)
            assert comm_delay(b, g2, radio) * rate == pytest.approx(
                radio.model_bits, rel=1e-12
            )

    def test_dead_link(self, radio):
        assert comm_delay(1e6, 0.0, radio) == math.inf


class TestSuccessProbability:
    def test_zero_bandwidth_always_succeeds(self, radio):
        assert fading_threshold(0.0, 100.0, radio) == 0.0
        assert stp(0.0, 100.0, radio) == 1.0

    def test_reference_point(self, radio):
        assert fading_threshold(1e6, 100.0, radio) == pytest.approx(
            1.3179018635007112e-05, rel=1e-12
        )
        assert stp(1e6, 100.0, radio) == pytest.approx(0.9999868210682079, rel=1e-12)
        assert stp(1e6, 100.0, radio) == pytest.approx(0.999987, abs=1e-6)

    def test_strictly_decreasing_in_bandwidth(self, radio):
        ps = [stp(b, 100.0, radio) for b in np.geomspace(1e4, 1e8, 30)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_strictly_decreasing_in_distance(self, radio):
        ps = [stp(1e6, d, radio) for d in np.linspace(2.0, 600.0, 30)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_bounds(self, radio):
        for b in (0.0, 1e4, 1e7, 1e9):
            for d in (0.0, 1.0, 50.0, 600.0):
                p = stp(b, d, radio)
                assert 0.0 < p <= 1.0

    def test_negative_bandwidth(self, radio):
        with pytest.raises(ValueError):
            fading_threshold(-1.0, 100.0, radio)

    def test_success_given_fading_threshold_comparison(self, radio):
        thr = fading_threshold(1e6, 300.0, radio)
        assert success_given_fading(thr, 1e6, 300.0, radio)
        assert not success_given_fading(thr * 0.999, 1e6, 300.0, radio)

    def test_draw_frequency_matches_probability(self, radio):
        # 1e5 draws per point (n users at one event), asserted within 3 standard errors
        points = [(1e6, 100.0), (6e6, 450.0)]
        n = 100_000
        for i, (b, d) in enumerate(points):
            p = stp(b, d, radio)
            fading = draw_fading(500 + i, np.arange(n), 1).tolist()
            hits = sum(success_given_fading(f, b, d, radio) for f in fading)
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            assert abs(hits / n - p) <= 3.0 * se + 1e-9

    def test_unbounded_threshold_never_succeeds(self, radio):
        hostile = ChannelParams(
            path_loss_exponent=radio.path_loss_exponent,
            noise_psd=radio.noise_psd,
            tx_power=radio.tx_power,
            snr_threshold=1e30,
            total_bandwidth=radio.total_bandwidth,
            model_bits=radio.model_bits,
        )
        fading = draw_fading(3, 0, np.arange(200)).tolist()
        assert not any(success_given_fading(f, 1e6, 100.0, hostile) for f in fading)

    def test_zero_bandwidth_draw_always_succeeds(self, radio):
        fading = draw_fading(4, 0, np.arange(200)).tolist()
        assert all(success_given_fading(f, 0.0, 600.0, radio) for f in fading)


class TestComputeDelay:
    def test_reference_point(self):
        assert compute_delay(1, 5e5, 125, 1e9) == pytest.approx(0.0625, rel=1e-15)

    def test_empty_shard(self):
        assert compute_delay(1, 5e5, 0, 1e9) == 0.0

    def test_doubling_epochs_doubles_delay(self):
        assert compute_delay(2, 5e5, 125, 1e9) == 2.0 * compute_delay(1, 5e5, 125, 1e9)

    def test_per_user_arrays(self):
        sizes = np.array([0.0, 125.0, 250.0])
        freqs = np.array([1e9, 1e9, 2e9])
        delays = compute_delay(3, 5e5, sizes, freqs)
        assert delays.tolist() == [compute_delay(3, 5e5, n, f) for n, f in zip(sizes, freqs)]


class TestValidation:
    def test_path_loss_exponent_floor(self):
        with pytest.raises(ValueError, match="path_loss_exponent"):
            ChannelParams(
                path_loss_exponent=1.9,
                noise_psd=1e-21,
                tx_power=0.01,
                snr_threshold=1.0,
                total_bandwidth=1e6,
                model_bits=1e5,
            )

    @pytest.mark.parametrize(
        "field", ["noise_psd", "tx_power", "snr_threshold", "total_bandwidth"]
    )
    def test_positive_fields(self, field):
        kwargs = dict(
            path_loss_exponent=3.76,
            noise_psd=1e-21,
            tx_power=0.01,
            snr_threshold=1.0,
            total_bandwidth=1e6,
            model_bits=1e5,
        )
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            ChannelParams(**kwargs)

    def test_negative_payload(self):
        with pytest.raises(ValueError, match="model_bits"):
            ChannelParams(
                path_loss_exponent=3.76,
                noise_psd=1e-21,
                tx_power=0.01,
                snr_threshold=1.0,
                total_bandwidth=1e6,
                model_bits=-1.0,
            )
