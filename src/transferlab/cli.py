"""Command line interface: batch commands over JSON configs.

Every command reads an optional JSON config (--config) overridden by repeated
--set key=value flags (dotted keys reach into nested objects, values parse as
JSON when possible).  Each command's config, and each object nested in it, is
declared once below as a frozen dataclass: field types and defaults, the
inputs a field applies to and the ranges the library checks late or not at
all.  `_parse` reads the merged config into it once, before any work starts.
Exit codes: 0 on success; 2 when a field is malformed, out of range or does
not apply to the chosen input, with a message that starts with the field's
dotted path (`scenario.cells`, `sources[1].gamma`); 3 when a valid config's
run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import ClassVar, Literal

import numpy as np

from . import __version__
from .adaptive import CostSchedule, run_adaptive_sampling, unlabeled_requirement
from .discrepancy import (
    beta_max,
    d_a,
    d_y,
    d_y_localized,
    default_grid,
    gamma_min,
    rho_min,
    rho_prime_min,
    verify_family,
)
from .distributions import (
    best_in_class,
    build_single_scale_family,
    build_two_scale_family,
    derive_seed,
    discretize_pair,
    epsilon_schedule,
    example_scenario,
    load_scenario,
    rcs_violating_pair,
    sample_labeled,
    sample_unlabeled,
    scenario_to_dict,
    true_risk,
)
from .hypotheses import _MAX_DRAWS, project_onto_support, threshold_class
from .procedures import ConfidenceParams
from .ratelab import ESTIMATORS, compare_to_theory, sweep
from .reweighting import DensityFamily, multi_source_transfer_erm, reweighted_transfer_erm

SCENARIO_SUMMARY = {
    1: "disjoint concentric rings, halfplane labels (finite surrogate)",
    2: "P uniform on [0,2] vs Q uniform on [0,1], threshold at 1/2",
    3: "source density ~ t^(gamma-1) on one side (gamma >= 1), target uniform",
    4: "source density ~ |t|^(gamma-1) (0 < gamma < 1), target uniform",
}

QUANTITIES = ("rho", "gamma", "rho_prime", "beta_p", "beta_q", "d_a", "d_y",
              "d_y_localized")


class ConfigError(ValueError):
    pass


def _parse_set(kvs) -> dict:
    out = {}
    for kv in kvs or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        key, raw = kv.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set key {key!r} conflicts with a scalar")
        node[parts[-1]] = value
    return out


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    return _merge(cfg, _parse_set(getattr(args, "set", None)))


def _emit(payload, out_path):
    text = json.dumps(payload, indent=1, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# config declarations and the one parser over them

_UNIONS = (typing.Union, types.UnionType)  # int | Literal["auto"] is a typing.Union
_DRAWS = "a draw count in [0, 2^53]"  # a sample holds at most 2^53 draws
_RANGES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
           "finite": math.isfinite, "finite and >= 0": lambda v: 0 <= v < math.inf,
           "finite and > 0": lambda v: 0 < v < math.inf, "in (0, 1)": lambda v: 0 < v < 1,
           "in [0, 1]": lambda v: 0 <= v <= 1, _DRAWS: lambda v: 0 <= v <= _MAX_DRAWS}


def _opt(default=MISSING, *, needs=(), must=None):
    """A declared field.  It applies only where `needs = (key, *values)`
    holds: sibling `key` (dotted to reach into a nested object) is given, or
    takes one of `values`.  Without a default it is required where it
    applies.  `must` names the `_RANGES` check every number in it passes."""
    required = default is MISSING and bool(needs)
    return field(default=None if required else default,
                 metadata={"needs": needs, "must": must, "required": required})


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@contextmanager
def _owned(path: str, *names: str):
    """A library constructor's ValueError (or, reading a file, OSError) as a
    ConfigError naming the fields among `names` that its message mentions (the
    only one, if one is given), else the object at `path`."""
    try:
        yield
    except (ValueError, OSError) as exc:
        named = [n for n in names if re.search(rf"\b{n}\b", str(exc))]
        if not named and len(names) == 1:
            named = names
        raise ConfigError(f"{', '.join(_join(path, n) for n in named) or path}: {exc}") from None


def _kind(tp) -> str:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return "one of " + ", ".join(map(json.dumps, args))
    if origin in _UNIONS:
        return " or ".join(_kind(t) for t in args if t is not type(None))
    if origin in (list, tuple):
        return "a list" + (f" of {len(args)} items" if origin is tuple else "")
    return {int: "an integer", float: "a number", bool: "true or false", str: "a string"}[tp]


def _convert(tp, value, path: str):
    """`value` as type `tp`, strictly: an int is a JSON integer and not a bool,
    a float a JSON number, a bool true or false; JSON null is no value."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        return _parse(tp, value, path)
    if origin in (list, tuple):
        if isinstance(value, list) and (origin is list or len(value) == len(args)):
            items = [_convert(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(args * len(value), value))]
            return items if origin is list else tuple(items)
    elif origin in _UNIONS:
        members = [t for t in args if t is not type(None)]
        for t in members:
            try:
                return _convert(t, value, path)
            except ConfigError:
                if len(members) == 1:
                    raise
    elif origin is Literal:
        if isinstance(value, str) and value in args:
            return value
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{path}: must be {_kind(tp)}, got {json.dumps(value)}")


def _check_range(value, must: str, path: str):
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _check_range(v, must, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not _RANGES[must](value):
        raise ConfigError(f"{path}: must be {must}, got {json.dumps(value)}")


def _parse(decl, raw, path: str = ""):
    """`decl` filled from the JSON object `raw`.  Unknown, missing and
    inapplicable keys, wrong types and declared ranges raise a ConfigError
    that names the dotted path; then the constructor runs, whose ValueError
    (a library dataclass checks its own ranges) names the field too."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: must be a JSON object, got {json.dumps(raw)}")
    declared = {f.name: f for f in fields(decl)}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ConfigError(f"{_join(path, unknown[0])}: unknown field")
    if hasattr(decl, "ONE_OF") and sum(k in raw for k in decl.ONE_OF) != 1:
        raise ConfigError(f"{path or 'config'}: needs exactly one of {', '.join(decl.ONE_OF)}")
    hints = typing.get_type_hints(decl)
    values = {}
    for name in (n for n in declared if n in raw):
        values[name] = _convert(hints[name], raw[name], _join(path, name))
        if declared[name].metadata.get("must"):
            _check_range(values[name], declared[name].metadata["must"], _join(path, name))
    for name, f in declared.items():
        key, *allowed = f.metadata.get("needs") or ("",)
        applies = True
        if key:
            head, _, attr = key.partition(".")
            current = values.get(head, declared[head].default)
            current = getattr(current, attr, None) if attr else current
            applies = current in allowed if allowed else current is not None
        if name in raw and not applies:
            wanted = " or ".join(map(json.dumps, allowed))
            raise ConfigError(f"{_join(path, name)}: applies only with {key} {wanted}".rstrip())
        if applies and name not in raw and (f.metadata.get("required") or f.default is MISSING):
            raise ConfigError(f"{_join(path, name)}: required field is missing")
    with _owned(path, *declared):
        return decl(**values)


@dataclass(frozen=True)
class _Example:
    """One of the four benchmark scenarios: the `scenario` command's config."""

    id: int | None = None
    gamma: float | None = _opt(None, needs=("id", 3, 4), must="finite")
    cells: int | None = _opt(None, needs=("id", 2, 3, 4), must=">= 1")
    n_angles: int = _opt(16, needs=("id", 1))

    def build(self, path: str = ""):
        """(pair, class); a line scenario is discretized onto `cells` if given."""
        if self.id == 1:
            with _owned(path, "n_angles"):
                return example_scenario(1, n_angles=self.n_angles)
        with _owned(path, "id", "gamma"):
            pair = example_scenario(self.id, gamma=self.gamma)
        if self.cells is None:
            return pair, threshold_class()
        return discretize_pair(pair, self.cells)

    def run(self, args) -> int:
        if args.action == "list":
            for sid, desc in SCENARIO_SUMMARY.items():
                print(f"{sid}: {desc}")
            return 0
        if self.id is None:
            raise ConfigError("id: required field for scenario describe and emit")
        if args.action == "describe":
            pair = self.build()[0]
            payload = {
                "id": self.id,
                "summary": SCENARIO_SUMMARY[self.id],
                "gamma": load_config(args).get("gamma"),  # echoed as given
                "discrete": pair.discrete,
                "certified": None if pair.certified is None else pair.certified.to_json_dict(),
            }
            _emit(payload, args.out)
            return 0
        cells = 256 if self.id != 1 and self.cells is None else self.cells
        _emit(scenario_to_dict(replace(self, cells=cells).build()[0]), args.out)
        return 0


@dataclass(frozen=True)
class _Scenario(_Example):
    """A nested scenario: an example, a scenario file, or the built-in pair
    whose source-optimal classifier has target excess `rcs_gap`."""

    ONE_OF: ClassVar[tuple] = ("id", "file", "rcs_gap")
    file: str | None = None
    rcs_gap: float | None = None

    def build(self, path: str = ""):
        if self.file is not None:
            with _owned(path, "file"):
                pair = load_scenario(self.file)
                return pair, project_onto_support(threshold_class(), pair.p.support)
        if self.rcs_gap is not None:
            with _owned(path, "rcs_gap"):
                return rcs_violating_pair(self.rcs_gap)
        return super().build(path)


@dataclass(frozen=True)
class _Family:
    kind: Literal["single-scale", "two-scale"]
    d_h: int
    rho: float = _opt(must="finite")
    beta_p: float
    beta_q: float
    epsilon: float | None = _opt(needs=("kind", "single-scale"))
    eps1: float | None = _opt(needs=("kind", "two-scale"))
    eps2: float | None = _opt(needs=("kind", "two-scale"))
    tau: float | None = _opt(None, needs=("kind", "two-scale"))
    seed: int = 0

    def build(self, path: str):
        with _owned(path, *(f.name for f in fields(self))):
            if self.kind == "single-scale":
                return build_single_scale_family(self.d_h, self.rho, self.beta_p,
                                                 self.beta_q, self.epsilon, seed=self.seed)
            return build_two_scale_family(self.d_h, self.rho, self.beta_p, self.beta_q,
                                          self.eps1, self.eps2, tau=self.tau, seed=self.seed)


@dataclass(frozen=True)
class _FamilyPair(_Family):
    """A family and the pair of it that `sigma_index` selects."""

    sigma_index: int | str | list[int] = "all-ones"

    def pair(self, family, path: str):
        with _owned(path, "sigma_index"):
            return family.pairs[family.sigma_index(self.sigma_index)]


@dataclass(frozen=True)
class _Cost(CostSchedule):
    unit: float = _opt(must="finite and > 0")
    exponent: float = _opt(1.0, needs=("form", "power"))


# the roles of a CLI trial's draws; each draw has its own stream, seeded by
# derive_seed(seed, trial, role[, source]), as every rate-table trial is
_SOURCE, _TARGET, _UNLABELED, _ADAPTIVE_RUN = range(4)


def _draw(sample, dist, n: int, seed: int, trial: int, role: int, *source: int):
    """`sample(dist, n, s)` on the stream of (trial, role[, source]); an empty
    draw derives no seed."""
    return sample(dist, n, derive_seed(seed, trial, role, *source) if n else 0)


def _pair_and_class(cfg):
    """(pair, class) from the config's family or scenario."""
    if cfg.scenario is not None:
        return cfg.scenario.build("scenario")
    family = cfg.family.build("family")
    return cfg.family.pair(family, "family"), family.cls


# ---------------------------------------------------------------------------
# commands


@dataclass(frozen=True)
class _Exponent:
    scenario: _Scenario
    quantity: Literal[QUANTITIES]
    constant: float = _opt(1.0, needs=("quantity", "rho", "gamma", "rho_prime", "beta_p",
                                       "beta_q"), must="finite and > 0")
    eps: float | None = _opt(needs=("quantity", "d_y_localized"), must="finite and >= 0")
    grid_size: int | None = _opt(None, must=">= 2")

    def run(self, args) -> int:
        quantity, constant = self.quantity, self.constant
        pair, cls = self.scenario.build("scenario")
        grid = None
        if self.grid_size is not None:
            if pair.discrete:
                raise ConfigError("grid_size: applies only to a continuous scenario")
            grid = default_grid(pair, self.grid_size)
        if quantity in ("d_a", "d_y"):
            value = {"d_a": d_a, "d_y": d_y}[quantity](pair, cls, grid=grid)
            payload = {"quantity": quantity, "value": value}
        elif quantity == "d_y_localized":
            value = d_y_localized(pair, cls, self.eps, grid=grid)
            payload = {"quantity": quantity, "eps": self.eps, "value": value}
        elif quantity in ("beta_p", "beta_q"):
            side = pair.p if quantity == "beta_p" else pair.q
            rep = beta_max(side, cls, constant, grid=grid)
            payload = {"quantity": quantity, **rep.to_json_dict()}
        else:
            op = {"rho": rho_min, "gamma": gamma_min, "rho_prime": rho_prime_min}[quantity]
            rep = op(pair, cls, constant, grid=grid)
            payload = {"quantity": quantity, **rep.to_json_dict()}
        _emit(payload, args.out)
        return 0


@dataclass(frozen=True)
class _VerifyFamily:
    family: _Family
    constant: float | None = _opt(None, must="finite and > 0")
    tol: float = _opt(1e-9, must="finite and >= 0")
    rho: float | None = _opt(None, must="finite and > 0")
    beta_p: float | None = _opt(None, must="in [0, 1]")
    beta_q: float | None = _opt(None, must="in [0, 1]")

    def run(self, args) -> int:
        family = self.family.build("family")
        reports = verify_family(family, constant=self.constant, tol=self.tol, rho=self.rho,
                                beta_p=self.beta_p, beta_q=self.beta_q)
        payload = {
            "family": family.params,
            "kind": family.kind,
            "pairs": len(family),
            "all_ok": all(r.ok for r in reports),
            "per_sigma_ok": [r.ok for r in reports],
            "violations": sum(members.size for r in reports
                              for members, _, _ in r.violations.values()),
        }
        _emit(payload, args.out)
        return 0


@dataclass(frozen=True)
class _Rates:
    ONE_OF: ClassVar[tuple] = ("family", "scenario")
    estimator: Literal[tuple(ESTIMATORS)]
    grid: list[tuple[int, int]] = _opt(must=_DRAWS)
    family: _FamilyPair | None = None
    scenario: _Scenario | None = None
    trials: int = _opt(200, must=">= 1")
    tune: bool = _opt(False, needs=("family.kind", "single-scale"))
    c1: float = _opt(1.0, needs=("tune", True), must="finite and > 0")
    confidence: ConfidenceParams = ConfidenceParams()
    theory_exponent: float | None = _opt(None, must="finite")
    tolerance: float = _opt(0.2, needs=("theory_exponent",), must="finite and >= 0")
    axis: Literal["n_p", "n_q"] = _opt("n_q", needs=("theory_exponent",))
    statistic: Literal["mean", "median"] = _opt("median", needs=("theory_exponent",))
    drop_smallest: int = _opt(2, needs=("theory_exponent",), must=">= 0")

    def run(self, args) -> int:
        fit = self._fit_options() if self.theory_exponent is not None else None
        if not args.out:
            raise ConfigError("rates needs --out for the CSV table")
        pair, cls = _pair_and_class(self)

        def build(n_p, n_q):  # a tuned cell's family is built at its own epsilon
            if not self.tune:
                return pair, cls
            f = self.family
            eps = epsilon_schedule(max(n_p, 1), max(n_q, 1), f.d_h, f.rho,
                                   f.beta_p, f.beta_q, self.c1)
            fam = replace(f, epsilon=eps).build("family")
            return f.pair(fam, "family"), fam.cls

        table = sweep(build, self.estimator, self.grid, self.trials, args.seed,
                      self.confidence, jobs=args.jobs)
        table.to_csv(args.out)
        if fit is not None:
            report = compare_to_theory(table, self.theory_exponent, self.tolerance, **fit)
            _emit(report, args.out + ".report.json")
            print(json.dumps(report, allow_nan=False))
        return 0

    def _fit_options(self) -> dict:
        """Slope-fit options, refused before any trial runs where `fit_slope` would."""
        drop = self.drop_smallest
        kept = sorted({n_p if self.axis == "n_p" else n_q for n_p, n_q in self.grid})[drop:]
        usable = sum(v > 0 for v in kept)  # log n needs n > 0
        if usable < 3:
            raise ConfigError(f"grid: has {usable} distinct positive {self.axis} values after "
                              f"drop_smallest = {drop}; the slope fit needs 3")
        return {"axis": self.axis, "statistic": self.statistic, "drop_smallest": drop}


@dataclass(frozen=True)
class _Adaptive:
    ONE_OF: ClassVar[tuple] = ("family", "scenario")
    eps: float = _opt(must="in (0, 1)")
    cost_p: _Cost
    cost_q: _Cost
    family: _FamilyPair | None = None
    scenario: _Scenario | None = None
    unlabeled: int | Literal["auto"] = _opt("auto", must=_DRAWS)
    kappa: float = _opt(4.0, must="finite and > 0")
    trials: int = _opt(1, must=">= 1")
    confidence: ConfidenceParams = ConfidenceParams()
    q_only: bool = False
    max_rounds: int = _opt(64, must=">= 1")

    def run(self, args) -> int:
        trials, conf, eps, kappa = self.trials, self.confidence, self.eps, self.kappa
        pair, cls = _pair_and_class(self)
        if not pair.discrete:
            raise ConfigError("scenario: adaptive runs need a discrete pair; set scenario.cells")
        need = unlabeled_requirement(eps, conf.delta, cls.vc_dim, kappa)
        n_unlabeled = need if self.unlabeled == "auto" else self.unlabeled
        if n_unlabeled < need:
            raise ConfigError(f"unlabeled: {n_unlabeled} is below the required {need} "
                              f"for eps={eps}, delta={conf.delta}, kappa={kappa}")
        rows, summary = [], {"returned_by": [], "total_cost": [], "excess": []}
        q_best = true_risk(pair.q, best_in_class(pair.q, cls))
        for trial in range(trials):
            unlabeled = _draw(sample_unlabeled, pair.q, n_unlabeled, args.seed, trial, _UNLABELED)
            h, transcript = run_adaptive_sampling(
                eps, self.cost_p, self.cost_q,
                lambda n, s: sample_labeled(pair.p, n, s),
                lambda n, s: sample_labeled(pair.q, n, s),
                unlabeled, cls, conf, seed=derive_seed(args.seed, trial, _ADAPTIVE_RUN),
                kappa=kappa, max_rounds=self.max_rounds, q_only=self.q_only)
            for r in transcript.rounds:
                rows.append({"trial": trial, **r.to_json_dict()})
            summary["returned_by"].append(transcript.returned_by)
            summary["total_cost"].append(transcript.total_cost)
            summary["excess"].append(true_risk(pair.q, h) - q_best)
        lines = [json.dumps(row, allow_nan=False) + "\n" for row in rows]
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(lines)
        print(json.dumps({
            "trials": trials, "eps": eps,
            "success_rate": float(np.mean([e <= eps for e in summary["excess"]])),
            "median_cost": float(np.median(summary["total_cost"])),
            "step6_frac": float(np.mean([r == "step6" for r in summary["returned_by"]])),
            "step7_frac": float(np.mean([r == "step7" for r in summary["returned_by"]])),
        }, allow_nan=False))
        return 0


@dataclass(frozen=True)
class _Select:
    sources: list[_Scenario]
    n_sources: list[int] = _opt(must=_DRAWS)
    unlabeled: int = _opt(must=_DRAWS)
    n_q: int = _opt(0, must=_DRAWS)
    trials: int = _opt(1, must=">= 1")
    confidence: ConfidenceParams = ConfidenceParams()

    def run(self, args) -> int:
        if not self.sources:
            raise ConfigError("sources: must be a non-empty list of scenarios")
        built = [s.build(f"sources[{i}]") for i, s in enumerate(self.sources)]
        pairs = [p for p, _ in built]
        cls = built[0][1]
        if any(not p.discrete for p in pairs):
            raise ConfigError("sources: select needs discrete sources; set their cells")
        if any(not np.array_equal(p.p.support, pairs[0].p.support) for p in pairs):
            raise ConfigError("sources: must be discretized onto one shared support; "
                              f"their supports have {[p.p.size for p in pairs]} points")
        if len(self.n_sources) != len(pairs):
            raise ConfigError("n_sources: length must match sources")
        choices = []
        for trial in range(self.trials):
            samples = [_draw(sample_labeled, p.p, n, args.seed, trial, _SOURCE, i)
                       for i, (p, n) in enumerate(zip(pairs, self.n_sources))]
            sq = _draw(sample_labeled, pairs[0].q, self.n_q, args.seed, trial, _TARGET)
            unlabeled = _draw(sample_unlabeled, pairs[0].q, self.unlabeled,
                              args.seed, trial, _UNLABELED)
            _, i_hat = multi_source_transfer_erm(samples, sq, unlabeled, cls, self.confidence)
            choices.append(i_hat)
        freq = [choices.count(i) / self.trials for i in range(len(pairs))]
        payload = {"trials": self.trials, "choices": choices, "frequency": freq}
        _emit(payload, args.out)
        return 0


@dataclass(frozen=True)
class _Reweight:
    scenario: _Scenario
    densities: list[list[float]]
    n_p: int = _opt(must=_DRAWS)
    unlabeled: int = _opt(must=_DRAWS)
    pseudo_dim: int | None = _opt(None, must=">= 1")
    n_q: int = _opt(0, must=_DRAWS)
    trials: int = _opt(1, must=">= 1")
    confidence: ConfidenceParams = ConfidenceParams()

    def run(self, args) -> int:
        pair, cls = self.scenario.build("scenario")
        if not pair.discrete:
            raise ConfigError("scenario: reweight needs a discrete scenario; set scenario.cells")
        weights = [np.asarray(w, dtype=np.float64) for w in self.densities]
        if not weights or any(w.shape != (pair.p.size,) for w in weights):
            raise ConfigError(f"densities: must be a non-empty list of weight vectors "
                              f"with {pair.p.size} entries, one per support point")
        with _owned("", "densities", "pseudo_dim"):
            family = DensityFamily(weights, self.pseudo_dim)
        chosen = []
        for trial in range(self.trials):
            sp = _draw(sample_labeled, pair.p, self.n_p, args.seed, trial, _SOURCE)
            sq = _draw(sample_labeled, pair.q, self.n_q, args.seed, trial, _TARGET)
            unlabeled = _draw(sample_unlabeled, pair.q, self.unlabeled,
                              args.seed, trial, _UNLABELED)
            h, f_ix = reweighted_transfer_erm(sp, sq, unlabeled, family, cls, self.confidence)
            chosen.append(f_ix)
        freq = [chosen.count(i) / self.trials for i in range(len(family))]
        t = h.threshold
        payload = {"trials": self.trials, "chosen": chosen, "frequency": freq,
                   "last_hypothesis_labels": None if h.labels is None else list(h.labels),
                   "last_hypothesis_threshold": t if t is not None and math.isfinite(t) else None}
        _emit(payload, args.out)
        return 0


# ---------------------------------------------------------------------------
# parser

_COMMANDS = {  # name: (config declaration, help)
    "scenario": (_Example, "list, describe, or emit benchmark scenarios"),
    "exponent": (_Exponent, "brute-force discrepancy quantities for a pair"),
    "verify-family": (_VerifyFamily, "certify every pair of a constructed family"),
    "rates": (_Rates, "Monte Carlo excess-risk table over an (n_p, n_q) grid"),
    "adaptive": (_Adaptive, "doubling-budget adaptive sampling runs"),
    "select": (_Select, "choose among labeled sources with unlabeled target data"),
    "reweight": (_Reweight, "choose a source reweighting from a density family"),
}


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=96)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferlab",
        description="Exact simulation toolkit for source/target transfer experiments.",
        formatter_class=_formatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (decl, text) in _COMMANDS.items():
        p = sub.add_parser(name, formatter_class=_formatter, help=text)
        if name == "scenario":
            p.add_argument("action", choices=("list", "describe", "emit"))
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        if name in ("rates", "adaptive", "select", "reweight"):  # the commands that draw
            p.add_argument("--seed", type=int, default=0, metavar="INT",
                           help="master seed, any integer, read mod 2^64; all randomness "
                                "derives from it")
        p.add_argument("--out", metavar="PATH", required=name == "rates",
                       help="output file (stdout if omitted where applicable)")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the rates cells (N >= 1, default 1)")
        p.add_argument("--set", action="append", metavar="K=V",
                       help="config override, e.g. --set family.rho=2 (repeatable)")
        p.set_defaults(decl=decl)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
        return _parse(args.decl, load_config(args)).run(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, RuntimeError, KeyError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
