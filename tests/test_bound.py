"""Convergence-gap bound arithmetic and the sufficient-condition checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ttfedsim.bound import (
    BoundConstants,
    ConstantError,
    asymptotic_bound,
    bound_table,
    check_conditions,
    contraction_factor,
    convergence_bound,
    delta1,
    delta2,
)


def constants(**overrides):
    base = dict(
        smoothness=1.0,
        strong_convexity=1.0,
        grad_offset=0.4,
        grad_slope=0.05,
        drift_inner=0.05,
        drift_norm=0.1,
        local_ratio=1.0,
        local_gap=0.2,
        initial_gap=2.0,
        num_tiers=1,
        median_const=0.5,
        failure_fractions=(0.5,),
    )
    base.update(overrides)
    return BoundConstants(**base)


# hand-evaluated reference set: staleness term t = 1 + (1+1)^2 * 0.5 = 3,
# d1 = 0.01 + 0.75*(0.04 + 1.2) = 0.94, d2 = 1 - 0.2 - 0.45 = 0.35,
# factor = 1 - 0.25*0.35 = 0.9125, asymptote = 1.88/0.35
REF = constants()


class TestDelta1:
    def test_reference(self):
        assert delta1(REF) == pytest.approx(0.94, rel=1e-12)

    def test_pure_gradient_offset(self):
        c = constants(
            smoothness=2.0, drift_norm=0.0, local_gap=0.0, grad_offset=0.6,
            failure_fractions=(0.0,),
        )
        assert delta1(c) == pytest.approx(3.0 * 0.6 / (4.0 * 2.0), rel=1e-12)

    def test_vanishes_without_drift(self):
        c = constants(grad_offset=0.0, drift_norm=0.0, local_gap=0.0)
        assert delta1(c) == 0.0

    def test_increases_with_failures(self):
        lo = constants(failure_fractions=(0.2,))
        hi = constants(failure_fractions=(0.5,))
        assert delta1(hi) > delta1(lo)

    def test_tier_average(self):
        c = constants(num_tiers=2, median_const=1.0, failure_fractions=(0.0, 1.0))
        lo = constants(failure_fractions=(0.0,))
        hi = constants(failure_fractions=(1.0,))
        assert delta1(c) == pytest.approx((delta1(lo) + delta1(hi)) / 2.0, rel=1e-12)


class TestDelta2:
    def test_reference(self):
        assert delta2(REF) == pytest.approx(0.35, rel=1e-12)

    def test_unity_without_dissimilarity(self):
        c = constants(drift_inner=0.0, grad_slope=0.0)
        assert delta2(c) == 1.0

    def test_slope_only(self):
        c = constants(drift_inner=0.0, grad_slope=0.1, failure_fractions=(0.0,))
        assert delta2(c) == pytest.approx(0.7, rel=1e-12)

    def test_decreases_with_failures(self):
        lo = constants(failure_fractions=(0.2,))
        hi = constants(failure_fractions=(0.5,))
        assert delta2(hi) < delta2(lo)


class TestConvergenceBound:
    def test_zero_rounds_is_initial_gap(self):
        assert convergence_bound(REF, 0) == 2.0

    def test_three_rounds_reference(self):
        assert contraction_factor(REF) == pytest.approx(0.9125, rel=1e-12)
        assert convergence_bound(REF, 3) == pytest.approx(2.80982109375, rel=1e-12)

    def test_limit_is_asymptote(self):
        asym = asymptotic_bound(REF)
        assert asym == pytest.approx(1.88 / 0.35, rel=1e-12)
        assert convergence_bound(REF, 500) == pytest.approx(asym, rel=1e-9)

    def test_zero_delta2_diverges(self):
        c = constants(drift_inner=0.25, grad_slope=0.0)
        assert delta2(c) == 0.0
        assert convergence_bound(c, 0) == 2.0  # no rounds, no division
        with pytest.raises(ZeroDivisionError):
            convergence_bound(c, 1)
        with pytest.raises(ZeroDivisionError):
            asymptotic_bound(c)

    def test_negative_rounds(self):
        with pytest.raises(ValueError):
            convergence_bound(REF, -1)

    def test_monotone_toward_asymptote(self):
        # valid-region constant sets: the sequence never crosses the limit
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 100:
            num_tiers = int(rng.integers(1, 7))
            L = rng.uniform(0.5, 3.0)
            mu = rng.uniform(0.01, 1.0) * 2.0 * L / num_tiers
            beta = rng.uniform(0.0, 2.0)
            total_drift = rng.uniform(0.0, 0.99)
            split = rng.uniform(0.0, 1.0)
            c = BoundConstants(
                smoothness=L,
                strong_convexity=mu,
                grad_offset=rng.uniform(0.0, 1.0),
                grad_slope=total_drift * (1.0 - split) / (3.0 * (1.0 + (1.0 + beta) ** 2)),
                drift_inner=total_drift * split / (4.0 * L),
                drift_norm=rng.uniform(0.0, 0.5),
                local_ratio=beta,
                local_gap=rng.uniform(0.0, 0.5),
                initial_gap=rng.uniform(0.0, 10.0),
                num_tiers=num_tiers,
            )
            ok, _ = check_conditions(c)
            assert ok  # by construction
            if delta2(c) == 0.0:
                continue
            checked += 1
            seq = [convergence_bound(c, k) for k in range(21)]
            diffs = np.diff(seq)
            if c.initial_gap >= asymptotic_bound(c):
                assert (diffs <= 1e-12).all()
            else:
                assert (diffs >= -1e-12).all()


class TestCheckConditions:
    def test_clean_single_tier(self):
        c = constants(drift_inner=0.0, grad_slope=0.0)
        ok, reasons = check_conditions(c)
        assert ok and reasons == []

    def test_tier_count_violation(self):
        c = constants(num_tiers=3, median_const=1.0, failure_fractions=(0, 0, 0))
        ok, reasons = check_conditions(c)
        assert not ok
        assert any("tier-count bound" in r for r in reasons)

    def test_drift_violation(self):
        c = constants(grad_slope=0.5)
        ok, reasons = check_conditions(c)
        assert not ok
        assert any("drift bound" in r for r in reasons)

    def test_drift_boundary_inclusive(self):
        c = constants(drift_inner=0.25, grad_slope=0.0)
        ok, reasons = check_conditions(c)
        assert ok

    def test_both_violations_reported(self):
        c = constants(num_tiers=4, median_const=2.0, grad_slope=0.5,
                      failure_fractions=(0, 0, 0, 0))
        ok, reasons = check_conditions(c)
        assert not ok and len(reasons) == 2

    def test_twenty_random_sets_match_hand_inequalities(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            num_tiers = int(rng.integers(1, 9))
            c = BoundConstants(
                smoothness=rng.uniform(0.2, 4.0),
                strong_convexity=rng.uniform(0.05, 2.0),
                grad_offset=rng.uniform(0.0, 1.0),
                grad_slope=rng.uniform(0.0, 0.3),
                drift_inner=rng.uniform(0.0, 0.3),
                drift_norm=rng.uniform(0.0, 1.0),
                local_ratio=rng.uniform(0.0, 2.0),
                local_gap=rng.uniform(0.0, 1.0),
                initial_gap=rng.uniform(0.0, 5.0),
                num_tiers=num_tiers,
            )
            expected = (
                c.strong_convexity / (2.0 * c.smoothness) <= 1.0 / num_tiers
                and 4.0 * c.drift_inner * c.smoothness
                + 3.0 * c.grad_slope * (1.0 + (1.0 + c.local_ratio) ** 2)
                <= 1.0
            )
            assert check_conditions(c)[0] == expected


class TestBoundTable:
    def test_rows(self):
        rows = bound_table(REF, [0, 1, 3])
        assert rows[0] == (0, 2.0)
        assert rows[2][1] == pytest.approx(2.80982109375, rel=1e-12)
        assert [k for k, _ in rows] == [0, 1, 3]


class TestConstantsValidation:
    def test_defaults(self):
        c = BoundConstants(
            smoothness=1.0, strong_convexity=0.5, grad_offset=0, grad_slope=0,
            drift_inner=0, drift_norm=0, local_ratio=0, local_gap=0,
            initial_gap=1.0, num_tiers=4,
        )
        assert c.xi == 2.0
        assert c.failure_fractions == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("smoothness", 0.0),
            ("strong_convexity", -1.0),
            ("grad_offset", -0.1),
            ("initial_gap", -0.5),
            ("num_tiers", 0),
        ],
    )
    def test_bad_scalars(self, field, value):
        with pytest.raises(ValueError, match=field):
            constants(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "smoothness",
            "strong_convexity",
            "grad_offset",
            "grad_slope",
            "drift_inner",
            "drift_norm",
            "local_ratio",
            "local_gap",
            "initial_gap",
            "median_const",
        ],
    )
    def test_non_finite_scalars(self, field, value):
        with pytest.raises(ConstantError, match=field) as caught:
            constants(**{field: value})
        assert caught.value.field == field

    @pytest.mark.parametrize("tiers", [math.inf, 2.0, True])
    def test_num_tiers_is_an_integer(self, tiers):
        with pytest.raises(ConstantError, match="num_tiers"):
            constants(num_tiers=tiers)

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.5, 2.0])
    def test_median_const_range(self, xi):
        with pytest.raises(ValueError, match="median_const"):
            constants(median_const=xi)

    def test_failure_fraction_checks(self):
        with pytest.raises(ValueError, match="failure fractions"):
            constants(failure_fractions=(0.2, 0.3))
        with pytest.raises(ValueError, match="failure fractions"):
            constants(failure_fractions=(1.5,))
