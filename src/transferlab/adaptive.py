"""Adaptive sampling under source/target label costs.

The procedure doubles a per-round budget, buys the largest batches the budget
covers from both distributions, and stops as soon as either (a) the target
sample alone certifies the requested accuracy, or (b) every hypothesis that is
near-optimal on the source sample is close to the source ERM in unlabeled
target mass.  The disagreement-radius statistic driving both stopping rules is
computed exactly over the projected class.  Each batch enters the running
source and target samples once: a finite-support batch is binned into label
counts that add to the running counts, and the unlabeled pool is binned once
before the first round (`hypotheses.tally`).  Line samples are concatenated.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .distributions import rng_from
from .hypotheses import (
    HypothesisClass,
    LabeledSample,
    ensure_finite,
    erm,
    member_disagreements,
    tally,
)
from .procedures import (
    ConfidenceParams,
    _near_optimal,
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
        if self.unit <= 0:
            raise ValueError("unit cost must be positive")
        if self.form == "linear":
            object.__setattr__(self, "exponent", 1.0)
        elif self.form == "power":
            if not 0.0 < self.exponent <= 1.0:
                raise ValueError("power exponent must lie in (0, 1]")
        else:
            raise ValueError(f"unknown cost form {self.form!r}")

    def cost(self, n: float) -> float:
        if n < 0:
            raise ValueError("n must be >= 0")
        if self.form == "linear":
            return self.unit * n
        return self.unit * float(n) ** self.exponent

    def minimal_n(self, budget: float) -> int:
        """Smallest integer n >= 1 with cost(n) >= budget, exactly."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        guess = (budget / self.unit) ** (1.0 / self.exponent)
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
    across all rounds of the doubling loop); one `member_risks` pass finds the
    ERM too, and a probe that is the sample itself reuses the disagreements
    that pass measured.  An empty sample makes every hypothesis eligible.
    """
    same = probe is sample
    cls, (sample, probe) = ensure_finite(cls, (sample, probe))
    if len(probe) == 0:
        return 0.0
    width = confidence_width_anytime(len(sample), cls.vc_dim, conf.delta)
    mask, erm_ix, dis = _near_optimal(cls, sample, conf, width)
    if not same:
        dis = member_disagreements(cls, erm_ix, probe)
    return float(np.max(dis[mask]))


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
        return asdict(self)


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
    (d/eps) log(1/eps) + (1/eps) log(1/delta) scaling."""
    return int(math.ceil(kappa * ((vc_dim / eps) * math.log(1.0 / eps)
                                  + (1.0 / eps) * math.log(1.0 / delta))))


def run_adaptive_sampling(eps: float, sched_p: CostSchedule, sched_q: CostSchedule,
                          sampler_p, sampler_q, unlabeled, cls: HypothesisClass,
                          conf: ConfidenceParams = ConfidenceParams(c=1.0, delta=0.1),
                          seed: int = 0, kappa: float = 4.0, max_rounds: int = 64,
                          q_only: bool = False):
    """Doubling-budget sampling until the requested target accuracy certifies.

    Each round appends one `Round`.  Step 6 stops when the target sample
    certifies eps, step 7 when the source delta_hat on the unlabeled pool is at
    most eps/4; a stop returns the ERM of the certifying sample.  Samplers are
    callbacks (n, seed) -> LabeledSample.  Returns (hypothesis, transcript).
    q_only runs the target-only baseline: no source batches and no step 7.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    need = unlabeled_requirement(eps, conf.delta, cls.vc_dim, kappa)
    if len(unlabeled) < need:
        raise ValueError(f"unlabeled pool of {len(unlabeled)} is below the "
                         f"required {need} for eps={eps}, delta={conf.delta}")
    pool = tally(cls, unlabeled)
    sample_p = sample_q = None
    transcript = SamplingTranscript()
    for t in range(1, max_rounds + 1):
        budget = 2.0 ** (t - 1)
        n_tp, cost_p = 0, 0.0
        if not q_only:
            n_tp = sched_p.minimal_n(budget)
            cost_p = sched_p.cost(n_tp)
            batch = tally(cls, sampler_p(n_tp, int(rng_from(seed, t, 0).integers(2 ** 63))))
            sample_p = batch if sample_p is None else sample_p + batch
        n_tq = sched_q.minimal_n(budget)
        cost_q = sched_q.cost(n_tq)
        batch = tally(cls, sampler_q(n_tq, int(rng_from(seed, t, 1).integers(2 ** 63))))
        sample_q = batch if sample_q is None else sample_q + batch
        transcript.total_cost += cost_p + cost_q

        a_q = confidence_width(len(sample_q), cls.vc_dim, conf.delta)
        dhat_q = delta_hat(sample_q, sample_q, cls, conf)
        step6_lhs = conf.c * math.sqrt(dhat_q * a_q) + conf.c * a_q
        step7_stat, decision, winner = None, "continue", None
        if step6_lhs <= eps:
            decision, winner = "step6", sample_q
        elif not q_only:
            step7_stat = delta_hat(sample_p, pool, cls, conf)
            if step7_stat <= eps / 4.0:
                decision, winner = "step7", sample_p
        transcript.rounds.append(Round(t, n_tp, n_tq, cost_p, cost_q,
                                       step6_lhs, step7_stat, decision))
        if winner is not None:
            transcript.returned_by = decision
            return erm(cls, winner), transcript
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
        raise ValueError("eps must lie in (0, 1)")
    if not (0.0 < beta_p <= 1.0 and 0.0 < beta_q <= 1.0):
        raise ValueError("beta values must lie in (0, 1]")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    n_q_star = vc_dim / eps ** (2.0 - beta_q)
    n_p_star = vc_dim / eps ** ((2.0 - beta_p) * gamma / beta_p)
    return CostTargets(n_q_star, n_p_star,
                       min(sched_q.cost(n_q_star), sched_p.cost(n_p_star)))
