"""Run orchestration: scenario setup, tiers and one cohort-event loop.

Every algorithm is the same loop: at each event a cohort of users
finishes its local cycle, their fading is drawn, a merge rule updates the
global model from the uploads that survive, each trained from the model
its user was sent, and the server sends the result back to the cohort.
The algorithms differ only in their rule: when events happen (a fixed
grid for ttfed and fedavg, per-user or per-tier cadences for fedasync
and fedat), who is in the cohort, who may upload with what
bandwidth, and how uploads merge. A rule trains each upload as it folds
it in, so at most two local models are held at a time besides the
scenario's kept first uploads: the one being trained and the previous
one, which the merge still holds until the next arrives. The
synchronous rules (ttfed per due tier, fedavg, fedat per tier) merge by
FedAvg, and there the uploads that take a single SGD step enter as one:
a step on their size-weighted mean gradient (`learner.one_step_mean`,
given the users' row starts and shard sizes). Their backward passes run
as one stacked pass per shard size, each batch with the bits it gets
alone, and their first-layer product runs once over the rows of their
shards, which setup lays out in (tier, user) order. Merging them as one
step moved the ttfed, fedavg and fedat trajectories by float32 rounding
when it was introduced; stacking the passes moved no bit. fedasync
trains every upload on its own.
The run keeps the model it dispatched to a cohort only while that cohort
has another event within the budget.
Schedule timing uses nominal link delays (mean fading, equal bandwidth
shares) so cadences are deterministic; realized fading only decides
whether an upload survives.
A run lists its events once, in time order (`_schedule`): each has its
time, cohort key, the cohort's event index and whether the cohort fires
again, and their number sets the evaluation stride. Neither cohorts nor
fading depend on a model, so before its first event a run lists every
event's cohort and draws all their fading in one batch
(`wireless.draw_fading`). Each value keeps its key and its bits:
the first draw of its own (seed, TAG_CHANNEL, user, event index) stream,
as `tests/test_streams.py` checks against numpy.
Every run starts from the scenario's initial model with every user at
dispatch 0, so the scenario holds what follows from that model alone:
the model, its test score, and each user's first upload, in one slot per
user of a `learner.FirstSteps`, which keeps the upload finished or only
its first SGD step. Runs that share a scenario reuse them, and get the
bytes a fresh scenario gives.
All randomness comes from per-purpose sub-streams of the master seed, so
trajectories are reproducible bit-for-bit regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
import numpy as np

from . import allocator, wireless
from .aggregation import (
    Upload,
    fedavg_aggregate,
    fedasync_aggregate,
    fedat_aggregate,
    ttfed_tier_weights,
)
from .config import ConfigError, ScenarioConfig
from .datagen import (
    LabeledDataset,
    load_idx,
    partition,
    synthetic_digits,
    training_subset,
)
from .learner import (
    FirstSteps,
    MlpArch,
    evaluate,
    init_params,
    local_update,
    one_step_mean,
    takes_one_step,
)
from .streams import (
    TAG_CPU,
    TAG_INIT,
    TAG_PARTITION,
    TAG_PLACEMENT,
    TAG_TRAIN,
    derive_seed,
    substream,
)
from .wireless import ChannelParams

_TIME_EPS = 1e-9


@dataclass
class EvalPoint:
    time_s: float
    round: int
    accuracy: float
    loss: float
    uplink_msgs: int
    downlink_broadcasts: int
    downlink_unicasts: int
    success_users: int
    failed_users: int


@dataclass
class RunMetrics:
    algorithm: str
    num_tiers: int
    delta_t: float
    round_time: float  # T, slowest user's nominal cycle
    evals: list[EvalPoint] = field(default_factory=list)
    uplink_msgs: int = 0
    downlink_broadcasts: int = 0
    downlink_unicasts: int = 0
    success_total: int = 0
    failed_total: int = 0
    zero_weight_uploads: int = 0
    substituted_samples: int = 0
    tier_populations: list[int] = field(default_factory=list)  # users in tiers 1..M
    empty_events: int = 0  # events whose cohort had no user

    def record(self, time_s: float, round_idx: int, accuracy: float, loss: float) -> None:
        self.evals.append(
            EvalPoint(
                time_s=time_s,
                round=round_idx,
                accuracy=accuracy,
                loss=loss,
                uplink_msgs=self.uplink_msgs,
                downlink_broadcasts=self.downlink_broadcasts,
                downlink_unicasts=self.downlink_unicasts,
                success_users=self.success_total,
                failed_users=self.failed_total,
            )
        )

    @property
    def final_accuracy(self) -> float:
        return self.evals[-1].accuracy if self.evals else float("nan")

    @property
    def peak_accuracy(self) -> float:
        return max((p.accuracy for p in self.evals), default=float("nan"))

    def first_reaching(self, target: float) -> EvalPoint | None:
        for point in self.evals:
            if point.accuracy >= target:
                return point
        return None


def count_comm(metrics: RunMetrics, targets: tuple[float, ...]) -> dict[float, dict | None]:
    """Cumulative message counts at the first evaluation meeting each target.

    A broadcast counts once regardless of audience size. Unreached targets
    map to None.
    """
    summary: dict[float, dict | None] = {}
    for target in targets:
        point = metrics.first_reaching(target)
        if point is None:
            summary[target] = None
        else:
            summary[target] = {
                "time_s": point.time_s,
                "round": point.round,
                "messages": point.uplink_msgs
                + point.downlink_broadcasts
                + point.downlink_unicasts,
            }
    return summary


@dataclass
class Scenario:
    """Everything the event loop needs, fully materialized.

    Every run starts from `initial_model` with every user at dispatch 0,
    so what depends on that model alone is derived here once and shared
    by every run on the scenario: the model itself, its test score and
    each user's first upload (`first_steps`), finished or as its first SGD
    step, filled by the first run that trains the user. A scenario made
    by `dataclasses.replace` derives all of these afresh, and they are
    freed with the scenario.

    The data arrays are read-only. The training rows are held once, in
    one array, `train_images`, in (tier, user) order: user u's shard is
    its rows from `row_start[u]`, and `shard_images[u]` and
    `shard_labels[u]` are slices of that array and of its labels,
    `train_labels`, not copies. Each tier's shards therefore form one
    slice, over which the synchronous rules merge their one-step uploads
    with one first-layer product (`learner.one_step_mean`).
    """

    config: ScenarioConfig
    params: ChannelParams
    arch: MlpArch
    distances: np.ndarray  # per user, meters
    shard_images: list[np.ndarray]  # per user, MODEL_DTYPE rows; read-only views of one array
    shard_labels: list[np.ndarray]  # per user; read-only views of one array
    train_images: np.ndarray  # every shard's rows, in (tier, user) order; read-only
    train_labels: np.ndarray  # the labels of train_images' rows; read-only
    row_start: np.ndarray  # per user, the first row of its shard in train_images
    data_sizes: np.ndarray  # per user, samples
    test_images: np.ndarray  # MODEL_DTYPE, read-only
    test_labels: np.ndarray  # read-only
    tau_cp: np.ndarray  # per user, seconds
    nominal_cycle: np.ndarray  # per user t_u at equal-share bandwidth
    delta_t: float  # seconds per global round
    tier_of: np.ndarray  # per user tier, 1..M; uploads at rounds k with k % m == 0
    substituted_samples: int

    # Derived by the first run that needs them, once setup's temporaries
    # are freed, so that setup neither pays for them nor holds their pages.
    @cached_property
    def initial_model(self) -> np.ndarray:
        """The model every run starts from; read-only."""
        w = init_params(derive_seed(self.config.seed, TAG_INIT), self.arch)
        w.flags.writeable = False
        return w

    @cached_property
    def initial_score(self) -> tuple[float, float]:
        """(accuracy, loss) of the initial model on the test set."""
        return evaluate(self.initial_model, self.test_images, self.test_labels, self.arch)

    @cached_property
    def first_steps(self) -> FirstSteps:
        """Slot u holds user u's first upload from the initial model (see FirstSteps)."""
        return FirstSteps([len(labels) for labels in self.shard_labels], self.config, self.arch)

    @cached_property
    def one_step(self) -> list[bool]:
        """Per user, whether its local update is a single SGD step."""
        return [takes_one_step(len(labels), self.config) for labels in self.shard_labels]

    @property
    def num_tiers(self) -> int:
        """M; the slowest user is always in the last tier."""
        return int(self.tier_of.max())

    @cached_property
    def tier_users(self) -> dict[int, list[int]]:
        """Tier m -> its users in ascending id, for m = 1..M; a tier may be empty."""
        return {m: np.flatnonzero(self.tier_of == m).tolist() for m in range(1, self.num_tiers + 1)}

    @property
    def round_time(self) -> float:
        """T, the slowest user's nominal cycle."""
        return float(self.nominal_cycle.max())

    @property
    def budget_s(self) -> float:
        cfg = self.config
        if cfg.time_budget_s is not None:
            return cfg.time_budget_s
        return cfg.rounds * self.delta_t


def place_users(num_users: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Distances of users placed uniformly over a disk (angle irrelevant)."""
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return radius * np.sqrt(rng.random(num_users))


def _ceil_with_boundary(x: np.ndarray) -> np.ndarray:
    """ceil(x), except values within 1e-9 relative of an integer round down.

    A cycle that fits an interval exactly belongs to that interval, and
    float noise must not bump it into the next tier.
    """
    nearest = np.round(x)
    snap = (nearest >= 1) & (np.abs(x - nearest) <= 1e-9 * np.maximum(1.0, np.abs(x)))
    return np.where(snap, nearest, np.ceil(x)).astype(np.int64)


def build_tiers(
    cycle: np.ndarray, delta_t_s: float | None = None, delta_t_frac: float | None = None
) -> tuple[float, np.ndarray]:
    """The round interval and each user's tier, from the nominal cycles.

    `cycle` holds each user's nominal cycle t_u. T = max t_u; the
    interval is either given in seconds or as a fraction of T; user u
    joins tier ceil(t_u / delta_t), so the slowest user's tier is
    M = ceil(T / delta_t).
    """
    if len(cycle) == 0:
        raise ValueError("no users")
    if delta_t_s is not None:
        delta = delta_t_s
    elif delta_t_frac is not None:
        delta = delta_t_frac * float(cycle.max())
    else:
        raise ValueError("either delta_t_s or delta_t_frac is required")
    return delta, _ceil_with_boundary(cycle / delta)


def _load_datasets(cfg: ScenarioConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if cfg.data_source == "idx":
        train_full = load_idx(cfg.train_images_path, cfg.train_labels_path)
        try:
            train = training_subset(train_full, cfg.train_per_class)
        except ValueError as exc:
            raise ConfigError(f"data.train_per_class: {cfg.train_labels_path}: {exc}") from exc
        test = load_idx(cfg.test_images_path, cfg.test_labels_path)
        return train, test
    return synthetic_digits(cfg.train_per_class, cfg.test_per_class, cfg.data_seed)


def _permute_rows(rows: np.ndarray, order: np.ndarray) -> None:
    """Reorder the C-contiguous `rows` in place so that row i holds old row order[i].

    Each cycle of the permutation is followed once through one row of
    scratch, so the rows are never held twice.
    """
    n = len(rows)
    if len(order) != n or not (np.bincount(order, minlength=n) == 1).all():
        raise ValueError("order is not a permutation of the rows")
    width = rows.strides[0]
    buf = memoryview(rows).cast("B")  # raises unless rows is C-contiguous and not empty
    scratch = bytearray(width)
    src = order.tolist()  # src[i] = i once row i is in place
    for start in range(n):
        if src[start] == start:
            continue
        scratch[:] = buf[start * width : (start + 1) * width]
        i = start
        while src[i] != start:
            j = src[i]
            buf[i * width : (i + 1) * width] = buf[j * width : (j + 1) * width]
            src[i] = i
            i = j
        buf[i * width : (i + 1) * width] = scratch
        src[i] = i


def setup_scenario(cfg: ScenarioConfig) -> Scenario:
    """Materialize users, shards, channel and tier structure for a config.

    The datasets hold their images as MODEL_DTYPE, the dtype the learner
    trains and scores in. Partition splits every training row among the
    users, so once the tiers are known the rows are put in place into
    (tier, user) order, and each shard is a slice of them: the training
    images are never held twice.
    """
    cfg.validate()
    train, test = _load_datasets(cfg)
    arch = MlpArch(in_dim=train.images.shape[1], hidden=cfg.hidden_width, out_dim=10)
    params = cfg.channel_params(model_bits=float(arch.param_count * cfg.bits_per_param))
    distances = place_users(cfg.users, cfg.radius_m, substream(cfg.seed, TAG_PLACEMENT))
    shards = partition(
        train,
        cfg.users,
        zipf_eta=cfg.zipf_eta,
        dirichlet_theta=cfg.dirichlet_theta,
        seed=derive_seed(cfg.seed, TAG_PARTITION),
    )
    data_sizes = np.array([s.size for s in shards], dtype=np.float64)
    if cfg.cpu_freq_max_hz is not None:
        freqs = substream(cfg.seed, TAG_CPU).uniform(
            cfg.cpu_freq_hz, cfg.cpu_freq_max_hz, cfg.users
        )
    else:
        freqs = np.full(cfg.users, cfg.cpu_freq_hz)
    tau_cp = wireless.compute_delay(cfg.local_epochs, cfg.cycles_per_sample, data_sizes, freqs)
    # t_u: compute time plus upload time at an equal share B/U under mean fading.
    # The loop stays scalar: numpy's array `**` differs from Python's float `**`
    # in the last bit (521 of 10,000 path losses over ten 1000-user placements),
    # so a vectorized path loss would change the bits of nominal_cycle.
    share = cfg.equal_share_hz
    nominal_cycle = tau_cp + np.array(
        [
            wireless.comm_delay(
                share, wireless.path_loss(float(d), params.path_loss_exponent), params
            )
            for d in distances
        ]
    )
    delta_t, tier_of = build_tiers(
        nominal_cycle, delta_t_s=cfg.delta_t_s, delta_t_frac=cfg.delta_t_frac
    )
    users = np.argsort(tier_of, kind="stable")  # (tier, user) order
    order = np.concatenate([shards[u].indices for u in users])
    _permute_rows(train.images, order)
    images, labels = train.images, train.labels[order]
    for array in (images, labels, test.images, test.labels):
        array.flags.writeable = False
    counts = np.array([shards[u].size for u in users])
    row_start = np.empty(cfg.users, dtype=np.int64)
    row_start[users] = np.cumsum(counts) - counts
    rows = [slice(a, a + shard.size) for a, shard in zip(row_start.tolist(), shards)]
    return Scenario(
        config=cfg,
        params=params,
        arch=arch,
        distances=distances,
        shard_images=[images[r] for r in rows],
        shard_labels=[labels[r] for r in rows],
        train_images=images,
        train_labels=labels,
        row_start=row_start,
        data_sizes=data_sizes,
        test_images=test.images,
        test_labels=test.labels,
        tau_cp=tau_cp,
        nominal_cycle=nominal_cycle,
        delta_t=delta_t,
        tier_of=tier_of,
        substituted_samples=sum(s.substituted for s in shards),
    )


def _train_user(
    sc: Scenario, u: int, w_src: np.ndarray, dispatch_idx: int, work: np.ndarray | None = None
) -> np.ndarray:
    """User u's local model trained from w_src; `work` is local_update's gradient scratch.

    The shuffling stream is built only when the shard is larger than a
    batch, the only case in which local_update reads it. An update from
    the scenario's initial model at dispatch 0 is the same in every run,
    so it goes through u's slot of `Scenario.first_steps`: a kept upload
    is served with no training and no stream once the first run to train
    u has stored it, and any other replays the first SGD step.
    """
    store = sc.first_steps
    first = dispatch_idx == 0 and w_src is sc.initial_model
    if first and u in store.uploads:
        return store.uploads[u]
    labels = sc.shard_labels[u]
    shuffled = sc.config.batch_size < len(labels)
    rng = substream(sc.config.seed, TAG_TRAIN, u, dispatch_idx) if shuffled else None
    slot = (store, u) if first and not store.kept[u] else None
    w = local_update(
        w_src, sc.shard_images[u], labels, sc.config, rng, sc.arch, work=work, first_step=slot
    )
    return store.keep(u, w) if first else w


class _Training:
    """A run's local training: the model each user was sent, and the uploads from it.

    `sent[u]` is (model, dispatch index) of u's last dispatch; the loop
    sets it. `upload(u)` trains u's upload (`_train_user`). `mean(users)`
    is the FedAvg of several users' uploads, the merge of the synchronous
    rules.
    """

    def __init__(self, sc: Scenario, w: np.ndarray) -> None:
        self.sc = sc
        self.sent = dict.fromkeys(range(sc.config.users), (w, 0))
        self.work = np.empty_like(w)  # gradient scratch shared by every local update

    def upload(self, u: int) -> Upload:
        return float(self.sc.data_sizes[u]), _train_user(self.sc, u, *self.sent[u], work=self.work)

    def mean(self, users: list[int]) -> np.ndarray:
        """FedAvg of the uploads of `users`, ascending, who were all sent one model.

        The one-step users' uploads enter it first, as one upload of their
        total size: one SGD step from that model on their size-weighted
        mean gradient (`learner.one_step_mean`, given their shards' row
        starts and sizes, and their slots of `Scenario.first_steps` when
        the model is the initial one at dispatch 0). The other users'
        uploads are trained and folded one at a time after it.
        """
        sc = self.sc
        one = [u for u in users if sc.one_step[u]]
        uploads = map(self.upload, [u for u in users if not sc.one_step[u]])
        if not one:
            return fedavg_aggregate(uploads)
        w_src, index = self.sent[one[0]]
        one = np.array(one)
        sizes = sc.data_sizes[one].astype(np.int64)
        first = index == 0 and w_src is sc.initial_model
        w = one_step_mean(
            w_src,
            sc.train_images,
            sc.train_labels,
            sc.row_start[one],
            sizes,
            sc.config.learning_rate,
            sc.arch,
            work=self.work,
            first_steps=(sc.first_steps, one) if first else None,
        )
        return fedavg_aggregate(chain([(float(sizes.sum()), w)], uploads))


def _schedule(periods: dict, budget: float, grid: bool) -> list[tuple[float, object, int, bool]]:
    """Every event within the budget, in time order.

    An event is (time, cohort key, the cohort's event index from 1,
    whether the cohort fires again). A grid puts its k-th event at exactly
    k * period. Otherwise each cohort fires every `periods[key]` seconds
    on an accumulated clock. A cohort's times increase, so sorting keeps
    its events in index order and puts simultaneous events in key order.
    """
    events = []
    for key, period in periods.items():
        if grid:
            times = [k * period for k in range(1, math.floor(budget / period + _TIME_EPS) + 1)]
        else:
            times, t = [], period
            while t <= budget + _TIME_EPS:
                times.append(t)
                t += period
        events += [(t, key, k, k < len(times)) for k, t in enumerate(times, 1)]
    events.sort()
    return events


class _Rule:
    """What one algorithm adds to the event loop.

    `periods` maps each cohort key to its cadence; `members` maps it to
    its users in ascending id. A synchronous rule has a single cohort on
    a grid (see `_schedule`) and ends every event with one broadcast
    to all users; otherwise the initial model goes out in one broadcast
    and each event answers its cohort with unicasts.
    """

    synchronous = False

    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.zero_weight_uploads = 0
        self.share = sc.config.equal_share_hz

    def cohort(self, key, index: int) -> list[int]:
        """Users whose cycle ends at this event; a pure function of (key, index)."""
        return self.members[key]

    def uploaders(
        self, index: int, users: list[int], fading: dict[int, float]
    ) -> dict[int, float]:
        """Users that upload, ascending, mapped to their bandwidth."""
        return dict.fromkeys(users, self.share)

    def merge(
        self, key, index: int, w: np.ndarray, survivors: list[int], train: _Training
    ) -> np.ndarray:
        """The new global model from the current one and the surviving uploads.

        `survivors` are the users whose upload arrived, ascending.
        `train.upload(u)` trains u's local model and `train.mean(users)`
        merges a group by FedAvg. Both fold each upload as they train it,
        so a cohort's local models are never all held at once.
        """
        raise NotImplementedError


class _TtFed(_Rule):
    """Every delta_t the due tiers are planned for and merged under tier weights."""

    synchronous = True

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.periods = {None: sc.delta_t}

    def cohort(self, key, k: int) -> list[int]:
        """Users of the tiers due at round k."""
        return [u for m, users in self.sc.tier_users.items() if k % m == 0 for u in users]

    def weights(self, k: int) -> np.ndarray:
        """Round k's tier weights."""
        num_tiers = self.sc.num_tiers
        if self.sc.config.policy == "equal_weight":
            return np.full(num_tiers, 1.0 / num_tiers)
        return ttfed_tier_weights(k, num_tiers)

    def uploaders(self, k: int, users: list[int], fading: dict[int, float]) -> dict[int, float]:
        sc, params = self.sc, self.sc.params
        weights = self.weights(k)
        qualified = []
        for u in users:
            m = int(sc.tier_of[u])
            gain = wireless.path_loss(float(sc.distances[u]), params.path_loss_exponent)
            if sc.config.scheduling_fading == "realization":
                gain *= fading[u]
            q = allocator.qualify(
                user_id=u,
                data_size=float(sc.data_sizes[u]),
                alpha=float(weights[m - 1]),
                slack=m * sc.delta_t - float(sc.tau_cp[u]),
                gain_power=gain,
                distance=float(sc.distances[u]),
                params=params,
            )
            if q is not None:
                qualified.append(q)
        if sc.config.policy == "equal_bandwidth":
            plan = allocator.equal_share_plan(qualified, params.total_bandwidth, params)
        else:
            plan = allocator.select_users(qualified, params.total_bandwidth, sc.config.greedy_skip)
        return {u: plan.bandwidth[u] for u in plan.selected}

    def merge(self, key, k, w, survivors, train):
        """FedAvg inside each due tier, then FedAT's simplex mix over all tiers.

        A tier that is not due, or that had no survivor, contributes the
        current global model under its weight.
        """
        weights = self.weights(k)
        by_tier: dict[int, list[int]] = {}
        for u in survivors:
            by_tier.setdefault(int(self.sc.tier_of[u]), []).append(u)
        for m, users in by_tier.items():
            if weights[m - 1] == 0.0:
                self.zero_weight_uploads += len(users)
        tier_models = [
            train.mean(by_tier[m]) if m in by_tier else w
            for m in self.sc.tier_users
        ]
        return fedat_aggregate(tier_models, weights)


class _FedAvg(_Rule):
    """Synchronous rounds: all users, every slowest nominal cycle T."""

    synchronous = True

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.periods = {None: sc.round_time}
        self.members = {None: list(range(sc.config.users))}

    def merge(self, key, index, w, survivors, train):
        return train.mean(survivors) if survivors else w


class _FedAsync(_Rule):
    """One cohort per user: each arrival mixes straight into the global model."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.periods = {u: float(t) for u, t in enumerate(sc.nominal_cycle)}
        self.members = {u: [u] for u in self.periods}

    def merge(self, key, index, w, survivors, train):
        for u in survivors:
            w = fedasync_aggregate(w, train.upload(u)[1], self.sc.config.psi)
        return w


class _FedAt(_Rule):
    """One cohort per populated tier: synchronous inside it, asynchronous merges.

    The server holds one model per tier plus the global one. Tier weights
    swap the cumulative merge counts (the busiest tier's count goes to the
    slowest tier).
    """

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.members = {m: users for m, users in sc.tier_users.items() if users}
        self.periods = {
            m: max(float(sc.nominal_cycle[u]) for u in users) for m, users in self.members.items()
        }
        self.tier_models = dict.fromkeys(self.members, sc.initial_model)
        self.counts = dict.fromkeys(self.members, 0)

    def merge(self, m, index, w, survivors, train):
        if survivors:
            self.tier_models[m] = train.mean(survivors)
        self.counts[m] += 1
        total = sum(self.counts.values())
        swapped = reversed(list(self.counts.values()))
        return fedat_aggregate(list(self.tier_models.values()), [c / total for c in swapped])


_RULES = {"ttfed": _TtFed, "fedavg": _FedAvg, "fedasync": _FedAsync, "fedat": _FedAt}


def run(
    cfg: ScenarioConfig,
    scenario: Scenario | None = None,
    trace: list[np.ndarray] | None = None,
) -> RunMetrics:
    """Run the configured algorithm through the cohort-event loop.

    A pre-built scenario may be shared across algorithms for a fair
    comparison, but must come from a config with the same
    `scenario_key`: identical in everything but the algorithm field.
    With `trace`, the global model after every event is appended to it.
    """
    try:
        rule_type = _RULES[cfg.algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}") from None
    if scenario is None:
        sc = setup_scenario(cfg)
    else:
        sc = scenario
        ours, built = cfg.scenario_key(), sc.config.scenario_key()
        differ = [f.name for f in fields(cfg) if getattr(ours, f.name) != getattr(built, f.name)]
        if differ:
            raise ValueError(f"scenario was built from a different config: {', '.join(differ)}")

    w = sc.initial_model
    rule = rule_type(sc)
    metrics = RunMetrics(cfg.algorithm, sc.num_tiers, sc.delta_t, sc.round_time)
    metrics.substituted_samples = sc.substituted_samples
    metrics.tier_populations = [len(users) for users in sc.tier_users.values()]
    events = _schedule(rule.periods, sc.budget_s, rule.synchronous)
    stride = max(cfg.eval_every, math.ceil(len(events) / cfg.max_evals))
    scored = (w, sc.initial_score)  # the last model evaluated and its (accuracy, loss)

    def record(t: float, round_idx: int, model: np.ndarray) -> None:
        nonlocal scored
        if scored[0] is not model:  # an event that kept the model is not re-scored
            scored = (model, evaluate(model, sc.test_images, sc.test_labels, sc.arch))
        metrics.record(t, round_idx, *scored[1])

    record(0.0, 0, w)
    if not rule.synchronous:
        metrics.downlink_broadcasts += 1  # initial model distribution

    train = _Training(sc, w)
    # Every event's cohort and fading, drawn in one batch before the first
    # event: neither depends on a model, only on the schedule and the rule.
    cohorts = [rule.cohort(key, index) for _, key, index, _ in events]
    draw_events = [index for (_, _, index, _), users in zip(events, cohorts) for _ in users]
    draw_users = [u for users in cohorts for u in users]
    fadings = iter(wireless.draw_fading(cfg.seed, draw_users, draw_events).tolist())

    for n, ((t, key, index, again), users) in enumerate(zip(events, cohorts), 1):
        if not users:
            metrics.empty_events += 1
        fading = {u: next(fadings) for u in users}
        survivors = []
        for u, bandwidth in rule.uploaders(index, users, fading).items():
            metrics.uplink_msgs += 1
            distance = float(sc.distances[u])
            if wireless.success_given_fading(fading[u], bandwidth, distance, sc.params):
                survivors.append(u)
            else:
                metrics.failed_total += 1
        metrics.success_total += len(survivors)
        w = rule.merge(key, index, w, survivors, train)
        if rule.synchronous:
            metrics.downlink_broadcasts += 1
        else:
            metrics.downlink_unicasts += len(users)
        for u in users:  # a cohort with no further event never trains from its model
            if again:
                train.sent[u] = (w, index)
            else:
                del train.sent[u]
        if trace is not None:
            trace.append(w.copy())
        if n % stride == 0 or n == len(events):
            record(t, n, w)
    metrics.zero_weight_uploads = rule.zero_weight_uploads
    return metrics
