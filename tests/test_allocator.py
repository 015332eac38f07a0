"""Closed-form bandwidth optimum and greedy selection under a budget."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttfedsim import wireless
from ttfedsim.allocator import (
    CapacityInfeasibleError,
    InfeasibleDeadlineError,
    QualifiedUser,
    RoundPlan,
    contribution_weight,
    equal_share_plan,
    lambda_coeff,
    optimal_bandwidth,
    qualify,
    select_users,
)
from ttfedsim.numerics import bisect_root

GAIN = 3.02e-8  # path-loss figure used by the worked examples
SLACK = 0.5


def objective_value(
    plan: RoundPlan, qualified: list[QualifiedUser], params: wireless.ChannelParams
) -> float:
    """Expected successfully-merged data mass under the plan's bandwidths."""
    by_id = {q.user_id: q for q in qualified}
    total = 0.0
    for uid in plan.selected:
        q = by_id[uid]
        total += contribution_weight(
            q.alpha, q.data_size, plan.bandwidth[uid], q.distance, params
        )
    return total


def required_rate_root(lam: float, model_bits: float, slack: float) -> float:
    """Independent route to b*: solve rate(b) = Z/s by bisection.

    rate(b) = b*log2(1 + C/b) with C = Z*ln2/(lam*s) is increasing in b and
    saturates at C/ln2 = (Z/s)/lam, so for lam < 1 the bracket
    [~0, C/(1-lam)] always contains the unique crossing.
    """
    cap = model_bits * math.log(2.0) / (lam * slack)
    target = model_bits / slack

    def gap(b: float) -> float:
        return b * math.log2(1.0 + cap / b) - target

    return bisect_root(gap, 1e-12, cap / (1.0 - lam))


class TestLambdaCoeff:
    def test_reference_value(self, radio):
        lam = lambda_coeff(636160.0, SLACK, GAIN, radio)
        assert lam == pytest.approx(1.1622456896240788e-05, rel=1e-12)
        assert lam == pytest.approx(1.16e-5, rel=5e-3)

    def test_nonpositive_slack(self, radio):
        with pytest.raises(InfeasibleDeadlineError):
            lambda_coeff(636160.0, 0.0, GAIN, radio)
        with pytest.raises(InfeasibleDeadlineError):
            lambda_coeff(636160.0, -0.1, GAIN, radio)

    def test_bad_gain(self, radio):
        with pytest.raises(ValueError):
            lambda_coeff(636160.0, SLACK, 0.0, radio)

    def test_doubling_slack_halves(self, radio):
        assert 2.0 * lambda_coeff(636160.0, 1.0, GAIN, radio) == lambda_coeff(
            636160.0, 0.5, GAIN, radio
        )

    def test_proportional_to_payload(self, radio):
        assert lambda_coeff(2e5, SLACK, GAIN, radio) == 2.0 * lambda_coeff(
            1e5, SLACK, GAIN, radio
        )


class TestOptimalBandwidth:
    def test_reference_value(self, radio):
        lam = lambda_coeff(636160.0, SLACK, GAIN, radio)
        b = optimal_bandwidth(lam, 636160.0, SLACK)
        assert b == pytest.approx(62985.32058906592, rel=1e-12)
        assert b == pytest.approx(6.30e4, rel=5e-3)

    def test_matches_rate_equation_root(self, radio):
        lam = lambda_coeff(636160.0, SLACK, GAIN, radio)
        b = optimal_bandwidth(lam, 636160.0, SLACK)
        assert b == pytest.approx(required_rate_root(lam, 636160.0, SLACK), rel=1e-9)

    def test_exhausts_deadline_exactly(self, radio):
        lam = lambda_coeff(636160.0, SLACK, GAIN, radio)
        b = optimal_bandwidth(lam, 636160.0, SLACK)
        assert wireless.comm_delay(b, GAIN, radio) == pytest.approx(SLACK, rel=1e-9)

    def test_near_capacity_boundary(self):
        b = optimal_bandwidth(0.999999, 636160.0, SLACK)
        assert b == pytest.approx(440942637064.12616, rel=1e-10)
        assert b == pytest.approx(required_rate_root(0.999999, 636160.0, SLACK), rel=1e-4)

    @pytest.mark.parametrize("lam", [1.0, 1.5, 100.0])
    def test_capacity_infeasible(self, lam):
        with pytest.raises(CapacityInfeasibleError):
            optimal_bandwidth(lam, 636160.0, SLACK)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            optimal_bandwidth(0.0, 636160.0, SLACK)
        with pytest.raises(ValueError):
            optimal_bandwidth(-0.5, 636160.0, SLACK)
        with pytest.raises(InfeasibleDeadlineError):
            optimal_bandwidth(0.5, 636160.0, 0.0)

    def test_thousand_random_tuples_match_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            lam = 10.0 ** rng.uniform(-7, math.log10(0.99))
            bits = 10.0 ** rng.uniform(3, 7)
            slack = 10.0 ** rng.uniform(-3, 1)
            closed = optimal_bandwidth(lam, bits, slack)
            oracle = required_rate_root(lam, bits, slack)
            worst = max(worst, abs(closed - oracle) / oracle)
        assert worst <= 1e-6

    @given(
        lo=st.floats(min_value=1e-7, max_value=0.9),
        ratio=st.floats(min_value=1.001, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_coefficient(self, lo, ratio):
        # a worse channel figure (larger lam) always needs more bandwidth
        hi = min(lo * ratio, 0.99)
        assert optimal_bandwidth(lo, 636160.0, SLACK) < optimal_bandwidth(
            hi, 636160.0, SLACK
        )


class TestContributionWeight:
    def test_zero_alpha(self, radio):
        assert contribution_weight(0.0, 125.0, 1e5, 100.0, radio) == 0.0

    def test_linear_in_data(self, radio):
        one = contribution_weight(0.5, 125.0, 1e5, 100.0, radio)
        two = contribution_weight(0.5, 250.0, 1e5, 100.0, radio)
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_reference_value(self, radio):
        # pick the bandwidth at which the success probability is exactly 0.99
        loss = wireless.path_loss(100.0, radio.path_loss_exponent)
        b = -math.log(0.99) * radio.tx_power * loss / (radio.snr_threshold * radio.noise_psd)
        assert wireless.stp(b, 100.0, radio) == pytest.approx(0.99, rel=1e-12)
        w = contribution_weight(1.0 / 3.0, 125.0, b, 100.0, radio)
        assert w == pytest.approx(41.25, rel=1e-9)

    def test_definition(self, radio):
        w = contribution_weight(0.4, 80.0, 5e4, 200.0, radio)
        assert w == 0.4 * 80.0 * wireless.stp(5e4, 200.0, radio)


class TestQualify:
    def test_normal_user(self, radio):
        q = qualify(3, 125.0, 0.4, SLACK, GAIN, 100.0, radio)
        assert q is not None
        assert q.user_id == 3
        assert q.lam == lambda_coeff(radio.model_bits, SLACK, GAIN, radio)
        assert q.bandwidth == optimal_bandwidth(q.lam, radio.model_bits, SLACK)
        assert q.weight == contribution_weight(0.4, 125.0, q.bandwidth, 100.0, radio)

    def test_no_slack_disqualifies(self, radio):
        assert qualify(0, 125.0, 0.5, 0.0, GAIN, 100.0, radio) is None
        assert qualify(0, 125.0, 0.5, -0.2, GAIN, 100.0, radio) is None

    def test_capacity_disqualifies(self, radio):
        # gain so weak that even infinite bandwidth misses the deadline
        assert qualify(0, 125.0, 0.5, SLACK, 1e-13, 100.0, radio) is None


def mk_q(uid, weight, bandwidth):
    return QualifiedUser(
        user_id=uid,
        data_size=125.0,
        alpha=0.5,
        slack=SLACK,
        gain_power=GAIN,
        distance=100.0,
        lam=0.1,
        bandwidth=bandwidth,
        weight=weight,
    )


class TestSelectUsers:
    def test_generous_budget_takes_everyone(self):
        qs = [mk_q(i, 10.0 - i, 1e4) for i in range(5)]
        plan = select_users(qs, 1e6)
        assert plan.selected == [0, 1, 2, 3, 4]
        assert plan.total_allocated == pytest.approx(5e4)

    def test_literal_break_stops_early(self):
        # the best user leaves too little room, so the loop stops even
        # though the second would have fit on its own
        qs = [mk_q(0, 5.0, 0.8e6), mk_q(1, 3.0, 0.5e6)]
        plan = select_users(qs, 1e6)
        assert plan.selected == [0]
        assert plan.bandwidth == {0: 0.8e6}

    def test_skip_variant_keeps_scanning(self):
        qs = [mk_q(0, 5.0, 0.6e6), mk_q(1, 4.0, 0.5e6), mk_q(2, 3.0, 0.3e6)]
        strict = select_users(qs, 1e6)
        loose = select_users(qs, 1e6, greedy_skip=True)
        assert strict.selected == [0]
        assert loose.selected == [0, 2]

    def test_tie_prefers_lower_id(self):
        qs = [mk_q(7, 5.0, 0.6e6), mk_q(2, 5.0, 0.6e6)]
        plan = select_users(qs, 1e6)
        assert plan.selected == [2]

    def test_empty_set(self):
        plan = select_users([], 1e6)
        assert plan.selected == []
        assert plan.total_allocated == 0.0

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=1e3, max_value=2e7),
            ),
            min_size=0,
            max_size=30,
        ),
        budget=st.floats(min_value=1e3, max_value=4e7),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_never_exceeded(self, data, budget):
        qs = [mk_q(i, w, b) for i, (w, b) in enumerate(data)]
        plan = select_users(qs, budget)
        assert plan.total_allocated <= budget
        assert sum(plan.bandwidth.values()) == pytest.approx(
            plan.total_allocated, rel=1e-12
        )
        assert set(plan.selected) == set(plan.bandwidth)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=1e3, max_value=2e7),
            ),
            min_size=1,
            max_size=20,
        ),
        budgets=st.lists(
            st.floats(min_value=1e3, max_value=4e7), min_size=2, max_size=2, unique=True
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bigger_budget_never_hurts(self, data, budgets):
        qs = [mk_q(i, w, b) for i, (w, b) in enumerate(data)]
        radio_dummy = None
        lo, hi = sorted(budgets)
        plan_lo = select_users(qs, lo)
        plan_hi = select_users(qs, hi)
        assert set(plan_lo.selected) <= set(plan_hi.selected)


class TestEqualShare:
    def test_everyone_when_budget_ample(self, radio):
        qs = [qualify(i, 125.0, 0.5, SLACK, GAIN, 100.0, radio) for i in range(4)]
        plan = equal_share_plan(qs, radio.total_bandwidth, radio)
        assert plan.selected == [0, 1, 2, 3]
        share = radio.total_bandwidth / 4
        assert all(b == share for b in plan.bandwidth.values())
        assert plan.total_allocated == pytest.approx(radio.total_bandwidth)

    def test_tight_slack_shrinks_selection(self, radio):
        # one user's slack is so small that only a big share can make it
        tight = 1.05 * wireless.comm_delay(radio.total_bandwidth / 2, GAIN, radio)
        qs = [
            qualify(0, 125.0, 0.5, SLACK, GAIN, 100.0, radio),
            qualify(1, 125.0, 0.5, SLACK, GAIN, 100.0, radio),
            qualify(2, 125.0, 0.5, tight, GAIN, 100.0, radio),
        ]
        plan = equal_share_plan(qs, radio.total_bandwidth, radio)
        assert len(plan.selected) == 2
        for uid in plan.selected:
            q = next(x for x in qs if x.user_id == uid)
            assert (
                wireless.comm_delay(plan.bandwidth[uid], q.gain_power, radio) <= q.slack
            )

    def test_empty(self, radio):
        plan = equal_share_plan([], radio.total_bandwidth, radio)
        assert plan.selected == []

    @given(
        users=st.lists(
            st.tuples(
                st.floats(min_value=10.0, max_value=400.0),  # data size
                st.floats(min_value=0.05, max_value=1.0),  # alpha
                st.floats(min_value=0.01, max_value=1.0),  # slack
                st.floats(min_value=0.05, max_value=3.0),  # fading on the path loss
                st.floats(min_value=5.0, max_value=600.0),  # distance
            ),
            max_size=20,
        ),
        budget=st.floats(min_value=1e5, max_value=4e7),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_plan_properties(self, radio, users, budget):
        qs = []
        for uid, (size, alpha, slack, fading, distance) in enumerate(users):
            gain = wireless.path_loss(distance, radio.path_loss_exponent) * fading
            q = qualify(uid, size, alpha, slack, gain, distance, radio)
            if q is not None:
                qs.append(q)
        plan = equal_share_plan(qs, budget, radio)
        n = len(plan.selected)
        assert plan.total_allocated <= budget * (1.0 + 1e-12)
        by_id = {q.user_id: q for q in qs}
        for uid in plan.selected:
            q = by_id[uid]
            assert plan.bandwidth[uid] == budget / n
            delay = wireless.comm_delay(plan.bandwidth[uid], q.gain_power, radio)
            assert delay <= q.slack * (1.0 + 1e-9)
        for more in range(n + 1, len(qs) + 1):
            assert sum(q.bandwidth <= budget / more for q in qs) < more


class TestObjectiveValue:
    def test_empty_plan(self, radio):
        assert objective_value(RoundPlan(), [], radio) == 0.0

    def test_single_user(self, radio):
        q = qualify(0, 125.0, 0.5, SLACK, GAIN, 100.0, radio)
        plan = select_users([q], radio.total_bandwidth)
        assert objective_value(plan, [q], radio) == q.weight

    def test_greedy_vs_brute_force(self, radio):
        rng = np.random.default_rng(5)
        qs = []
        for i in range(10):
            q = qualify(
                i,
                float(rng.integers(50, 250)),
                0.5,
                float(rng.uniform(0.05, 0.6)),
                GAIN * float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(50, 500)),
                radio,
            )
            if q is not None:
                qs.append(q)
        budget = sum(q.bandwidth for q in qs) / 2
        plan = select_users(qs, budget)
        greedy = objective_value(plan, qs, radio)
        best = 0.0
        for mask in range(1 << len(qs)):
            chosen = [q for j, q in enumerate(qs) if mask >> j & 1]
            if sum(q.bandwidth for q in chosen) <= budget:
                best = max(best, sum(q.weight for q in chosen))
        assert greedy <= best + 1e-9
        print(f"greedy/optimal objective ratio: {greedy / best:.4f}")
