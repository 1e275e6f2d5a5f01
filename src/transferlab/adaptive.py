"""Adaptive sampling under source/target label costs.

The procedure doubles a per-round budget, buys the largest batches the budget
covers from both distributions, and stops as soon as either (a) the target
sample alone certifies the requested accuracy, or (b) every hypothesis that is
near-optimal on the source sample is close to the source ERM in unlabeled
target mass.  The disagreement-radius statistic driving both stopping rules is
computed exactly over the projected class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import rng_from
from .hypotheses import (
    HypothesisClass,
    LabeledSample,
    ensure_finite,
    erm,
    member_disagreements,
    member_risks,
)
from .procedures import (
    ConfidenceParams,
    confidence_width,
    confidence_width_anytime,
    near_optimal_mask,
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


def minimal_n_for_cost(schedule: CostSchedule, budget: float) -> int:
    return schedule.minimal_n(budget)


def delta_hat(sample: LabeledSample, probe, cls: HypothesisClass,
              conf: ConfidenceParams, width: float | None = None) -> float:
    """Largest probe-measured disagreement with the sample's ERM among
    hypotheses near-optimal on the sample.

    The near-optimality radius uses the anytime width of |sample| (valid
    across all rounds of the doubling loop).  An empty sample makes every
    hypothesis eligible.
    """
    cls, (sample, probe) = ensure_finite(cls, (sample, probe))
    if width is None:
        width = confidence_width_anytime(len(sample), cls.vc_dim, conf.delta)
    mask = near_optimal_mask(cls, sample, conf, width=width)
    erm_ix = int(np.argmin(member_risks(cls, sample)))
    if len(probe) == 0:
        return 0.0
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
        return {"t": self.t, "n_tp": self.n_tp, "n_tq": self.n_tq,
                "cost_p": self.cost_p, "cost_q": self.cost_q,
                "step6_lhs": self.step6_lhs, "step7_stat": self.step7_stat,
                "decision": self.decision}


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
                          seed: int = 0, kappa: float = 4.0,
                          step6_width: str = "basic", max_rounds: int = 64,
                          skip_unlabeled_check: bool = False,
                          q_only: bool = False):
    """Doubling-budget sampling until the requested target accuracy certifies.

    sampler_p / sampler_q are opaque callbacks (n, seed) -> LabeledSample so
    that real distributions, stubs, and replay logs all plug in.  Returns
    (hypothesis, transcript).  step6_width selects the width printed in the
    target stopping rule ("basic") or the anytime variant ("anytime").
    q_only runs the target-only baseline: no source batches, no source
    stopping rule, so the transcript prices what pure target sampling costs.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not skip_unlabeled_check:
        need = unlabeled_requirement(eps, conf.delta, cls.vc_dim, kappa)
        if len(unlabeled) < need:
            raise ValueError(f"unlabeled pool of {len(unlabeled)} is below the "
                             f"required {need} for eps={eps}, delta={conf.delta}")
    width6 = confidence_width if step6_width == "basic" else confidence_width_anytime
    xs_p, ys_p = [], []
    xs_q, ys_q = [], []
    transcript = SamplingTranscript()
    for t in range(1, max_rounds + 1):
        budget = 2.0 ** (t - 1)
        if q_only:
            n_tp, cost_p = 0, 0.0
        else:
            n_tp = sched_p.minimal_n(budget)
            batch_p = sampler_p(n_tp, int(rng_from(seed, t, 0).integers(2 ** 63)))
            xs_p.append(batch_p.xs)
            ys_p.append(batch_p.ys)
            cost_p = sched_p.cost(n_tp)
        n_tq = sched_q.minimal_n(budget)
        batch_q = sampler_q(n_tq, int(rng_from(seed, t, 1).integers(2 ** 63)))
        xs_q.append(batch_q.xs)
        ys_q.append(batch_q.ys)
        sample_q = LabeledSample(np.concatenate(xs_q), np.concatenate(ys_q), seed)
        cost_q = sched_q.cost(n_tq)
        transcript.total_cost += cost_p + cost_q

        a_q = width6(len(sample_q), cls.vc_dim, conf.delta)
        dhat_q = delta_hat(sample_q, sample_q, cls, conf)
        step6_lhs = conf.c * math.sqrt(dhat_q * a_q) + conf.c * a_q
        if step6_lhs <= eps:
            transcript.rounds.append(Round(t, n_tp, n_tq, cost_p, cost_q,
                                           step6_lhs, None, "step6"))
            transcript.returned_by = "step6"
            return erm(cls, sample_q), transcript
        if not q_only:
            sample_p = LabeledSample(np.concatenate(xs_p), np.concatenate(ys_p), seed)
            step7_stat = delta_hat(sample_p, unlabeled, cls, conf)
            if step7_stat <= eps / 4.0:
                transcript.rounds.append(Round(t, n_tp, n_tq, cost_p, cost_q,
                                               step6_lhs, step7_stat, "step7"))
                transcript.returned_by = "step7"
                return erm(cls, sample_p), transcript
        else:
            step7_stat = None
        transcript.rounds.append(Round(t, n_tp, n_tq, cost_p, cost_q,
                                       step6_lhs, step7_stat, "continue"))
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
