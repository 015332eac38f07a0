"""Model-merging rules: sync mean, async mix, tiered merge, time-triggered."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfedsim.aggregation import (
    EmptyUploadError,
    fedasync_aggregate,
    fedat_aggregate,
    fedavg_aggregate,
    ttfed_tier_weight_fractions,
    ttfed_tier_weights,
)

VEC = np.array([1.0, -2.0, 0.5])


@st.composite
def upload_sets(draw, max_uploads=5):
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=max_uploads))
    sizes = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    vecs = draw(
        st.lists(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0),
                min_size=dim,
                max_size=dim,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return [(s, np.array(v)) for s, v in zip(sizes, vecs)]


class TestFedAvg:
    def test_symmetric_pair_cancels(self):
        out = fedavg_aggregate([(5.0, VEC), (5.0, -VEC)])
        assert np.array_equal(out, np.zeros(3))

    def test_single_upload_unchanged(self):
        out = fedavg_aggregate([(1.0, VEC)])
        assert out.tobytes() == VEC.tobytes()

    def test_weighted_scalar(self):
        out = fedavg_aggregate([(1.0, np.array([0.0])), (3.0, np.array([4.0]))])
        assert out[0] == 3.0

    def test_empty(self):
        with pytest.raises(EmptyUploadError):
            fedavg_aggregate([])

    def test_lazy_uploads_fold_like_a_list(self):
        uploads = [(2.0, VEC), (1.0, -2.0 * VEC), (4.0, VEC + 0.1)]
        assert fedavg_aggregate(iter(uploads)).tobytes() == fedavg_aggregate(uploads).tobytes()
        with pytest.raises(EmptyUploadError):
            fedavg_aggregate(iter([]))

    def test_negative_size(self):
        with pytest.raises(ValueError, match="negative"):
            fedavg_aggregate([(-1.0, VEC), (2.0, VEC)])

    def test_zero_total_size(self):
        with pytest.raises(ValueError, match="zero"):
            fedavg_aggregate([(0.0, VEC)])

    @given(upload_sets())
    @settings(max_examples=100, deadline=None)
    def test_convex_and_permutation_invariant(self, uploads):
        out = fedavg_aggregate(uploads)
        stack = np.stack([w for _, w in uploads])
        assert (out <= stack.max(axis=0) + 1e-9).all()
        assert (out >= stack.min(axis=0) - 1e-9).all()
        flipped = fedavg_aggregate(uploads[::-1])
        np.testing.assert_allclose(flipped, out, rtol=1e-9, atol=1e-12)


class TestFedAsync:
    def test_midpoint(self):
        out = fedasync_aggregate(np.array([0.0]), np.array([4.0]), 0.5)
        assert out[0] == 2.0

    def test_fixed_point(self):
        for psi in (0.1, 0.25, 0.5, 0.9):
            out = fedasync_aggregate(VEC, VEC, psi)
            np.testing.assert_allclose(out, VEC, rtol=1e-15)

    def test_near_one_recovers_new(self):
        w_new = np.array([7.0, -1.0])
        out = fedasync_aggregate(np.array([100.0, 100.0]), w_new, 1.0 - 1e-12)
        np.testing.assert_allclose(out, w_new, rtol=1e-9)

    @pytest.mark.parametrize("psi", [0.0, 1.0, -0.1, 1.5])
    def test_psi_out_of_range(self, psi):
        with pytest.raises(ValueError, match="psi"):
            fedasync_aggregate(VEC, VEC, psi)

    @given(
        psi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        a=st.floats(min_value=-10, max_value=10),
        b=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_stays_between_inputs(self, psi, a, b):
        out = fedasync_aggregate(np.array([a]), np.array([b]), psi)
        assert min(a, b) - 1e-9 <= out[0] <= max(a, b) + 1e-9


class TestFedAt:
    def test_single_tier(self):
        out = fedat_aggregate([VEC], [1.0])
        np.testing.assert_array_equal(out, VEC)

    def test_equal_weights(self):
        out = fedat_aggregate([np.array([1.0]), np.array([3.0])], [0.5, 0.5])
        assert out[0] == 2.0

    def test_skewed_weights(self):
        out = fedat_aggregate([np.array([0.0]), np.array([4.0])], [0.25, 0.75])
        assert out[0] == 3.0

    def test_weight_sum_violation(self):
        with pytest.raises(ValueError, match="simplex"):
            fedat_aggregate([VEC, VEC], [0.6, 0.6])

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="simplex"):
            fedat_aggregate([VEC, VEC], [1.5, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            fedat_aggregate([VEC], [0.5, 0.5])

    def test_empty(self):
        with pytest.raises(EmptyUploadError):
            fedat_aggregate([], [])


class TestTierWeights:
    def test_three_tier_example(self):
        fracs = ttfed_tier_weight_fractions(6, 3)
        assert fracs == [Fraction(2, 11), Fraction(3, 11), Fraction(6, 11)]

    def test_single_tier_is_one(self):
        for k in (1, 2, 17, 9999):
            assert ttfed_tier_weight_fractions(k, 1) == [Fraction(1)]

    def test_first_round_two_tiers(self):
        assert ttfed_tier_weight_fractions(1, 2) == [Fraction(0), Fraction(1)]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ttfed_tier_weight_fractions(0, 3)
        with pytest.raises(ValueError):
            ttfed_tier_weight_fractions(5, 0)

    def test_sum_is_exactly_one_exhaustive(self):
        # the numerators floor(k/(M+1-m)) are a permutation of the
        # denominator terms floor(k/m'), so equality must be exact
        ks = np.arange(1, 10_001, dtype=np.int64)[:, None]
        for num_tiers in range(1, 65):
            ms = np.arange(1, num_tiers + 1, dtype=np.int64)[None, :]
            numerators = ks // (num_tiers + 1 - ms)
            denominator = (ks // ms).sum(axis=1)
            assert (numerators.sum(axis=1) == denominator).all()

    @pytest.mark.parametrize("num_tiers", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 100, 999, 10_000])
    def test_rational_simplex(self, num_tiers, k):
        fracs = ttfed_tier_weight_fractions(k, num_tiers)
        assert sum(fracs) == Fraction(1)
        assert all(f >= 0 for f in fracs)

    def test_float_view(self):
        w = ttfed_tier_weights(6, 3)
        np.testing.assert_allclose(w, [2 / 11, 3 / 11, 6 / 11], rtol=1e-15)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_slow_tier_dominates(self):
        # tier M updates every round, so it always carries the largest count
        w = ttfed_tier_weights(12, 4)
        assert w.argmax() == 3


class TestTtfedGlobal:
    """TT-Fed's global merge: FedAT's simplex mix under the round's tier weights.

    The engine hands each due tier's FedAvg mean, and the current global
    model for every other tier.
    """

    def test_two_tier_merge(self):
        out = fedat_aggregate([np.array([3.0]), np.array([6.0])], ttfed_tier_weights(2, 2))
        assert out[0] == 5.0  # weights at k=2 are (1/3, 2/3)

    def test_first_round_keeps_previous(self):
        w_prev = np.array([1.5, 2.5])
        out = fedat_aggregate([np.array([9.0, 9.0]), w_prev], ttfed_tier_weights(1, 2))
        assert np.array_equal(out, w_prev)  # weight vector (0, 1) at k=1

    def test_fixed_point(self):
        w_prev = VEC.copy()
        out = fedat_aggregate([w_prev] * 3, ttfed_tier_weights(6, 3))
        np.testing.assert_allclose(out, w_prev, rtol=1e-14)

    def test_missing_due_tier_uses_previous(self):
        w_prev = np.array([30.0])
        out = fedat_aggregate([w_prev, np.array([6.0])], ttfed_tier_weights(2, 2))
        assert out[0] == pytest.approx((1 / 3) * 30.0 + (2 / 3) * 6.0, rel=1e-15)

    def test_explicit_weights_checked(self):
        # the equal_weight policy's 1/M weights pass the simplex tolerance
        for num_tiers in range(1, 65):
            weights = np.full(num_tiers, 1.0 / num_tiers)
            out = fedat_aggregate([VEC] * num_tiers, weights)
            np.testing.assert_allclose(out, VEC, rtol=1e-13)
        with pytest.raises(ValueError, match="simplex"):
            fedat_aggregate([VEC, VEC], [0.7, 0.7])

    def test_single_tier_matches_sync_mean_bitwise(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = rng.integers(1, 6)
            uploads = [
                (float(rng.uniform(1, 50)), rng.standard_normal(8)) for _ in range(n)
            ]
            weights = ttfed_tier_weights(int(rng.integers(1, 100)), 1)
            merged = fedat_aggregate([fedavg_aggregate(uploads)], weights)
            assert merged.tobytes() == fedavg_aggregate(uploads).tobytes()

    @given(upload_sets(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_single_tier_equivalence_property(self, uploads, k):
        merged = fedat_aggregate([fedavg_aggregate(uploads)], ttfed_tier_weights(k, 1))
        assert merged.tobytes() == fedavg_aggregate(uploads).tobytes()
