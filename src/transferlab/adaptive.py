"""Adaptive sampling under source/target label costs.

The procedure doubles a per-round budget, buys the largest batches the budget
covers from both distributions, and stops as soon as either (a) the target
sample alone certifies the requested accuracy, or (b) every hypothesis that is
near-optimal on the source sample is close to the source ERM in unlabeled
target mass.  The disagreement-radius statistic driving both stopping rules is
computed exactly over the projected class.  Each batch enters the running
source and target samples once.  Over a support it becomes counts there and
is checked there, once: `hypotheses.tally` bins a user-built point batch or
pool, then the size and label checks run.  The running counts add, and every
statistic after that reads them directly.  For the raw threshold class a
batch stays line points, which are concatenated and projected afresh for
each statistic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .distributions import derive_seed
from .hypotheses import (
    THRESHOLD,
    HypothesisClass,
    LabeledSample,
    _MAX_DRAWS,
    _count,
    _counts,
    _labeled,
    ensure_finite,
    erm,
)
from .procedures import (
    ConfidenceParams,
    _delta_hat,
    confidence_width,
    confidence_width_anytime,
)


@dataclass(frozen=True)
class CostSchedule:
    """Concave increasing unbounded batch cost: linear u*n or power u*n^a."""

    form: str  # "linear" | "power"
    unit: float
    exponent: float = 1.0

    def __post_init__(self):
        if not self.unit > 0:
            raise ValueError("unit cost must be positive")
        if self.form == "linear":
            object.__setattr__(self, "exponent", 1.0)
        elif self.form == "power":
            if not 0.0 < self.exponent <= 1.0:
                raise ValueError("power exponent must lie in (0, 1]")
        else:
            raise ValueError(f"unknown cost form {self.form!r}")

    def cost(self, n: float) -> float:
        if not n >= 0:
            raise ValueError("n must be >= 0")
        return self.unit * float(n) ** self.exponent

    def minimal_n(self, budget: float) -> int:
        """Smallest integer n >= 1 with cost(n) >= budget, exactly; a budget
        that needs more than 2^53 draws raises ValueError."""
        if not budget > 0:
            raise ValueError("budget must be positive")
        try:
            guess = (budget / self.unit) ** (1.0 / self.exponent)
        except OverflowError:
            guess = math.inf
        if not guess <= _MAX_DRAWS:
            raise ValueError(f"budget {budget} needs {guess} draws at unit {self.unit} and "
                             f"exponent {self.exponent}, above the 2^53 a sample holds")
        n = max(1, int(math.ceil(guess - 1e-9)))
        while self.cost(n) < budget:
            n += 1
        while n > 1 and self.cost(n - 1) >= budget:
            n -= 1
        return n


def delta_hat(sample: LabeledSample, probe, cls: HypothesisClass,
              conf: ConfidenceParams) -> float:
    """Largest probe-measured disagreement with the sample's ERM among
    hypotheses near-optimal on the sample.

    The near-optimality radius uses the anytime width of |sample| (valid
    across all rounds of the doubling loop); one risk pass finds the
    ERM too, and a probe that is the sample itself reuses the disagreements
    that pass measured.  An infinite width (an empty sample, or a subnormal
    delta) makes every hypothesis eligible, and an empty probe gives 0.
    """
    same = probe is sample
    cls, (sample, probe) = ensure_finite(cls, (sample, probe))
    sample = _labeled(cls, sample)
    return _statistic(cls, sample, sample if same else _counts(cls, probe), conf)[0]


def _statistic(cls: HypothesisClass, sample, probe, conf: ConfidenceParams):
    """(delta_hat, the anchor's index) at the anytime width of |sample|.  Over
    a support, sample and probe are counts already checked (`_labeled`,
    `_counts`) and are read as they are.  The raw threshold class projects
    onto their union through `delta_hat`, whose anchor is a member of that
    projection, not of the sample's own; the anchor is then None."""
    if cls.kind == THRESHOLD:
        return delta_hat(sample, probe, cls, conf), None
    width = confidence_width_anytime(len(sample), cls.vc_dim, conf.delta)
    return _delta_hat(cls, sample, probe, conf, width)


def _entered(cls: HypothesisClass, sample, check):
    """A sample as the round loop holds it: over a support, its counts,
    checked here once by `check` (`_labeled` or `_counts`); for the raw
    threshold class, its points."""
    return sample if cls.kind == THRESHOLD else check(cls, sample)


@dataclass
class Round:
    t: int
    n_tp: int
    n_tq: int
    cost_p: float
    cost_q: float
    step6_lhs: float
    step7_stat: float | None
    decision: str  # "continue" | "step6" | "step7"

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # the fields, in order; asdict would deep-copy each scalar


@dataclass
class SamplingTranscript:
    """Audit trail of one adaptive run: one record per doubling round."""

    rounds: list[Round] = field(default_factory=list)
    total_cost: float = 0.0
    returned_by: str | None = None

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_json_dict()) for r in self.rounds) + "\n"

    @property
    def n_p(self) -> int:
        return sum(r.n_tp for r in self.rounds)

    @property
    def n_q(self) -> int:
        return sum(r.n_tq for r in self.rounds)


def unlabeled_requirement(eps: float, delta: float, vc_dim: int,
                          kappa: float = 4.0) -> int:
    """Minimum unlabeled pool size for the adaptive run: kappa times the
    (d/eps) log(1/eps) + (1/eps) log(1/delta) scaling; eps and delta must lie
    in (0, 1) and kappa must be positive."""
    for name, value in (("eps", eps), ("delta", delta)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    vc_dim = _count("vc_dim", vc_dim, 1)
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    need = kappa * ((vc_dim / eps) * math.log(1.0 / eps) + (1.0 / eps) * math.log(1.0 / delta))
    if not math.isfinite(need):
        raise ValueError(f"the unlabeled requirement is {need} at eps={eps}, delta={delta}, "
                         f"vc_dim={vc_dim}, kappa={kappa}")
    return int(math.ceil(need))


def run_adaptive_sampling(eps: float, sched_p: CostSchedule, sched_q: CostSchedule,
                          sampler_p, sampler_q, unlabeled, cls: HypothesisClass,
                          conf: ConfidenceParams = ConfidenceParams(c=1.0, delta=0.1),
                          seed: int = 0, kappa: float = 4.0, max_rounds: int = 64,
                          q_only: bool = False):
    """Doubling-budget sampling until the requested target accuracy certifies.

    Each round appends one `Round`.  Step 6 stops when the target sample
    certifies eps, step 7 when the source delta_hat on the unlabeled pool is at
    most eps/4; a stop returns the ERM of the certifying sample, which is the
    anchor of the statistic that stopped it (for the raw threshold class, an
    ERM pass over that sample's own points).  Samplers are callbacks
    (n, seed) -> sample, such as `sample_labeled`; round t draws the source
    batch on `derive_seed(seed, t, 0, bits=63)` and the target batch on
    `derive_seed(seed, t, 1, bits=63)`.  Returns (hypothesis, transcript).
    q_only runs the target-only baseline: no source batches and no step 7.
    """
    max_rounds = _count("max_rounds", max_rounds, 1)
    need = unlabeled_requirement(eps, conf.delta, cls.vc_dim, kappa)
    if len(unlabeled) < need:
        raise ValueError(f"unlabeled pool of {len(unlabeled)} is below the "
                         f"required {need} for eps={eps}, delta={conf.delta}")
    pool = _entered(cls, unlabeled, _counts)
    sample_p = sample_q = None
    transcript = SamplingTranscript()
    for t in range(1, max_rounds + 1):
        budget = 2.0 ** (t - 1)
        n_tp, cost_p = 0, 0.0
        if not q_only:
            n_tp = sched_p.minimal_n(budget)
            cost_p = sched_p.cost(n_tp)
            batch = _entered(cls, sampler_p(n_tp, derive_seed(seed, t, 0, bits=63)), _labeled)
            sample_p = batch if sample_p is None else sample_p + batch
        n_tq = sched_q.minimal_n(budget)
        cost_q = sched_q.cost(n_tq)
        batch = _entered(cls, sampler_q(n_tq, derive_seed(seed, t, 1, bits=63)), _labeled)
        sample_q = batch if sample_q is None else sample_q + batch
        transcript.total_cost += cost_p + cost_q

        a_q = confidence_width(len(sample_q), cls.vc_dim, conf.delta)
        dhat_q, anchor = _statistic(cls, sample_q, sample_q, conf)
        step6_lhs = conf.c * math.sqrt(dhat_q * a_q) + conf.c * a_q
        step7_stat, decision, winner = None, "continue", None
        if step6_lhs <= eps:
            decision, winner = "step6", sample_q
        elif not q_only:
            step7_stat, anchor = _statistic(cls, sample_p, pool, conf)
            if step7_stat <= eps / 4.0:
                decision, winner = "step7", sample_p
        transcript.rounds.append(Round(t, n_tp, n_tq, cost_p, cost_q,
                                       step6_lhs, step7_stat, decision))
        if winner is not None:
            transcript.returned_by = decision
            return (erm(cls, winner) if anchor is None else cls[anchor]), transcript
    raise RuntimeError(f"no stopping rule fired within {max_rounds} rounds; "
                       f"eps={eps} is likely unreachable at this configuration")


@dataclass(frozen=True)
class CostTargets:
    n_q_star: float
    n_p_star: float
    cost_star: float


def optimal_sampling_costs(eps: float, vc_dim: int, beta_p: float, beta_q: float,
                           gamma: float, sched_p: CostSchedule,
                           sched_q: CostSchedule) -> CostTargets:
    """Sample sizes at which each route alone reaches accuracy eps, and the
    cheaper route's cost: n_q* = d/eps^(2-beta_q), n_p* = d/eps^((2-beta_p)gamma/beta_p)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    vc_dim = _count("vc_dim", vc_dim, 1)
    for name, beta in (("beta_p", beta_p), ("beta_q", beta_q)):
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {beta}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n_q_star = vc_dim / eps ** (2.0 - beta_q)
    n_p_star = vc_dim / eps ** ((2.0 - beta_p) * gamma / beta_p)
    return CostTargets(n_q_star, n_p_star,
                       min(sched_q.cost(n_q_star), sched_p.cost(n_p_star)))
