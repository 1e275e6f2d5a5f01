"""Command line interface: batch commands over JSON configs.

Every command reads an optional JSON config (--config) overridden by repeated
--set key=value flags (dotted keys reach into nested objects, values parse as
JSON when possible).  Unknown config fields are rejected.  Exit codes: 0 on
success, 2 on validation errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .adaptive import CostSchedule, run_adaptive_sampling, unlabeled_requirement
from .discrepancy import (
    beta_max,
    d_a,
    d_y,
    d_y_localized,
    gamma_min,
    rho_min,
    rho_prime_min,
    verify_family,
)
from .distributions import (
    best_in_class,
    build_single_scale_family,
    build_two_scale_family,
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
from .hypotheses import project_class, threshold_class
from .procedures import ConfidenceParams
from .ratelab import ESTIMATORS, compare_to_theory, monte_carlo, sweep
from .reweighting import DensityFamily, multi_source_transfer_erm, reweighted_transfer_erm

SCENARIO_SUMMARY = {
    1: "disjoint concentric rings, halfplane labels (finite surrogate)",
    2: "P uniform on [0,2] vs Q uniform on [0,1], threshold at 1/2",
    3: "source density ~ t^(gamma-1) on one side (gamma >= 1), target uniform",
    4: "source density ~ |t|^(gamma-1) (0 < gamma < 1), target uniform",
}


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


def check_fields(cfg: dict, allowed: set, required: set = frozenset(), where: str = "config"):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing {where} fields: {sorted(missing)}")


def _emit(payload, out_path):
    text = json.dumps(payload, indent=1)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _trials(cfg: dict, default: int) -> int:
    trials = int(cfg.get("trials", default))
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    return trials


def _confidence(cfg: dict) -> ConfidenceParams:
    spec = cfg.get("confidence", {})
    check_fields(spec, {"c", "delta"}, where="confidence")
    return ConfidenceParams(c=float(spec.get("c", 1.0)),
                            delta=float(spec.get("delta", 0.05)))


def pair_from_config(spec: dict, grid_size: int | None = None):
    """Build (pair, class) from a scenario spec: an example id (optionally
    discretized onto `cells`), a scenario file, or the built-in shifted pair."""
    check_fields(spec, {"id", "gamma", "cells", "n_angles", "file", "rcs_gap"},
                 where="scenario")
    if "file" in spec:
        pair = load_scenario(spec["file"])
        cls = project_class(threshold_class(), pair.p.support)
        return pair, cls
    if "rcs_gap" in spec:
        return rcs_violating_pair(float(spec["rcs_gap"]))
    if "id" not in spec:
        raise ConfigError("scenario needs one of: id, file, rcs_gap")
    sid = int(spec["id"])
    gamma = spec.get("gamma")
    gamma = None if gamma is None else float(gamma)
    if sid == 1:
        return example_scenario(1, n_angles=int(spec.get("n_angles", 16)))
    pair = example_scenario(sid, gamma=gamma)
    if "cells" in spec:
        return discretize_pair(pair, int(spec["cells"]))
    return pair, threshold_class()


def family_from_config(spec: dict):
    check_fields(spec, {"kind", "d_h", "rho", "beta_p", "beta_q", "epsilon",
                        "eps1", "eps2", "tau", "seed", "sigma_index"},
                 {"kind", "d_h", "rho", "beta_p", "beta_q"}, where="family")
    kind = spec["kind"]
    common = dict(d_h=int(spec["d_h"]), rho=float(spec["rho"]),
                  beta_p=float(spec["beta_p"]), beta_q=float(spec["beta_q"]),
                  seed=int(spec.get("seed", 0)))
    if kind == "single-scale":
        if "epsilon" not in spec:
            raise ConfigError("single-scale family needs epsilon")
        return build_single_scale_family(epsilon=float(spec["epsilon"]), **common)
    if kind == "two-scale":
        for k in ("eps1", "eps2"):
            if k not in spec:
                raise ConfigError("two-scale family needs eps1 and eps2")
        tau = spec.get("tau")
        return build_two_scale_family(eps1=float(spec["eps1"]), eps2=float(spec["eps2"]),
                                      tau=None if tau is None else float(tau), **common)
    raise ConfigError(f"unknown family kind {kind!r}")


def _sigma_index(family, spec) -> int:
    return family.sigma_index(spec.get("sigma_index", "all-ones"))


# ---------------------------------------------------------------------------
# commands


def cmd_scenario(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"id", "gamma", "cells", "n_angles"})
    if args.action == "list":
        for sid, desc in SCENARIO_SUMMARY.items():
            print(f"{sid}: {desc}")
        return 0
    if "id" not in cfg:
        raise ConfigError("scenario describe/emit needs --set id=N")
    sid = int(cfg["id"])
    gamma = cfg.get("gamma")
    if args.action == "describe":
        pair = pair_from_config(cfg)[0]
        payload = {
            "id": sid,
            "summary": SCENARIO_SUMMARY[sid],
            "gamma": gamma,
            "discrete": pair.discrete,
            "certified": None if pair.certified is None else pair.certified.to_json_dict(),
        }
        _emit(payload, args.out)
        return 0
    if args.action == "emit":
        if sid != 1:
            cfg.setdefault("cells", 256)
        pair = pair_from_config(cfg)[0]
        _emit(scenario_to_dict(pair), args.out)
        return 0
    raise ConfigError(f"unknown scenario action {args.action!r}")


QUANTITIES = ("rho", "gamma", "rho_prime", "beta_p", "beta_q", "d_a", "d_y",
              "d_y_localized")


def cmd_exponent(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"scenario", "quantity", "constant", "eps", "grid_size"},
                 {"scenario", "quantity"})
    quantity = cfg["quantity"]
    if quantity not in QUANTITIES:
        raise ConfigError(f"quantity must be one of {QUANTITIES}")
    constant = float(cfg.get("constant", 1.0))
    grid_size = cfg.get("grid_size")
    pair, cls = pair_from_config(cfg["scenario"])
    grid = None
    if not pair.discrete and grid_size is not None:
        lo = min(pair.p.lo, pair.q.lo)
        hi = max(pair.p.hi, pair.q.hi)
        grid = np.linspace(lo, hi, int(grid_size))
    if quantity in ("d_a", "d_y"):
        value = {"d_a": d_a, "d_y": d_y}[quantity](pair, cls, grid=grid)
        payload = {"quantity": quantity, "value": value}
    elif quantity == "d_y_localized":
        if "eps" not in cfg:
            raise ConfigError("d_y_localized needs eps")
        value = d_y_localized(pair, cls, float(cfg["eps"]), grid=grid)
        payload = {"quantity": quantity, "eps": float(cfg["eps"]), "value": value}
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


def cmd_verify_family(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"family", "constant", "tol", "rho", "beta_p", "beta_q"},
                 {"family"})
    family = family_from_config(cfg["family"])
    reports = verify_family(
        family,
        constant=None if "constant" not in cfg else float(cfg["constant"]),
        tol=float(cfg.get("tol", 1e-9)),
        rho=None if "rho" not in cfg else float(cfg["rho"]),
        beta_p=None if "beta_p" not in cfg else float(cfg["beta_p"]),
        beta_q=None if "beta_q" not in cfg else float(cfg["beta_q"]))
    payload = {
        "family": family.params,
        "kind": family.kind,
        "pairs": len(family),
        "all_ok": all(r.ok for r in reports),
        "per_sigma_ok": [r.ok for r in reports],
        "violations": sum(len(r.violations) for r in reports),
    }
    _emit(payload, args.out)
    return 0


def cmd_rates(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"family", "scenario", "estimator", "grid", "trials",
                       "tune", "c1", "confidence", "drop_smallest",
                       "theory_exponent", "tolerance", "axis", "statistic"},
                 {"estimator", "grid"})
    estimator = cfg["estimator"]
    if estimator not in ESTIMATORS:
        raise ConfigError(f"estimator must be one of {sorted(ESTIMATORS)}")
    grid = [(int(a), int(b)) for a, b in cfg["grid"]]
    trials = _trials(cfg, 200)
    conf = _confidence(cfg)
    seed = args.seed
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if ("family" in cfg) == ("scenario" in cfg):
        raise ConfigError("rates needs exactly one of family or scenario")
    if "family" in cfg:
        family = family_from_config(cfg["family"])
        six = _sigma_index(family, cfg["family"])
        if cfg.get("tune", False):
            p = family.params
            c1 = float(cfg.get("c1", 1.0))

            def build(n_p, n_q):
                eps = epsilon_schedule(max(n_p, 1), max(n_q, 1), p["d_h"], p["rho"],
                                       p["beta_p"], p["beta_q"], c1)
                fam = build_single_scale_family(p["d_h"], p["rho"], p["beta_p"],
                                                p["beta_q"], eps)
                return fam.pairs[_sigma_index(fam, cfg["family"])], fam.cls

            table = sweep(build, estimator, grid, trials, seed, conf, jobs=jobs)
        else:
            table = monte_carlo(family.pairs[six], family.cls, estimator, grid,
                                trials, seed, conf, jobs=jobs)
    else:
        pair, cls = pair_from_config(cfg["scenario"])
        table = monte_carlo(pair, cls, estimator, grid, trials, seed, conf, jobs=jobs)
    if not args.out:
        raise ConfigError("rates needs --out for the CSV table")
    table.to_csv(args.out)
    if "theory_exponent" in cfg:
        report = compare_to_theory(
            table, float(cfg["theory_exponent"]), float(cfg.get("tolerance", 0.2)),
            axis=cfg.get("axis", "n_q"), statistic=cfg.get("statistic", "median"),
            drop_smallest=int(cfg.get("drop_smallest", 2)))
        _emit(report, args.out + ".report.json")
        print(json.dumps(report))
    return 0


def _cost_from_config(spec, name) -> CostSchedule:
    check_fields(spec, {"form", "unit", "exponent"}, {"form", "unit"}, where=name)
    return CostSchedule(form=spec["form"], unit=float(spec["unit"]),
                        exponent=float(spec.get("exponent", 1.0)))


def cmd_adaptive(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"family", "scenario", "eps", "cost_p", "cost_q",
                       "unlabeled", "kappa", "trials", "confidence",
                       "step6_width", "q_only", "max_rounds"},
                 {"eps", "cost_p", "cost_q"})
    trials = _trials(cfg, 1)
    conf = _confidence(cfg)
    eps = float(cfg["eps"])
    sched_p = _cost_from_config(cfg["cost_p"], "cost_p")
    sched_q = _cost_from_config(cfg["cost_q"], "cost_q")
    if ("family" in cfg) == ("scenario" in cfg):
        raise ConfigError("adaptive needs exactly one of family or scenario")
    if "family" in cfg:
        family = family_from_config(cfg["family"])
        pair, cls = family.pairs[_sigma_index(family, cfg["family"])], family.cls
    else:
        pair, cls = pair_from_config(cfg["scenario"])
        if not pair.discrete:
            raise ConfigError("adaptive runs need a discrete pair; set scenario.cells")
    kappa = float(cfg.get("kappa", 4.0))
    n_unlabeled = cfg.get("unlabeled", "auto")
    if n_unlabeled == "auto":
        n_unlabeled = unlabeled_requirement(eps, conf.delta, cls.vc_dim, kappa)
    rows, summary = [], {"returned_by": [], "total_cost": [], "excess": []}
    q_best = true_risk(pair.q, best_in_class(pair.q, cls))
    for trial in range(trials):
        unlabeled = sample_unlabeled(pair.q, int(n_unlabeled), args.seed + 7919 * trial + 1)
        h, transcript = run_adaptive_sampling(
            eps, sched_p, sched_q,
            lambda n, s: sample_labeled(pair.p, n, s),
            lambda n, s: sample_labeled(pair.q, n, s),
            unlabeled, cls, conf, seed=args.seed + 7919 * trial,
            kappa=kappa, step6_width=cfg.get("step6_width", "basic"),
            max_rounds=int(cfg.get("max_rounds", 64)),
            q_only=bool(cfg.get("q_only", False)))
        for r in transcript.rounds:
            rows.append({"trial": trial, **r.to_json_dict()})
        summary["returned_by"].append(transcript.returned_by)
        summary["total_cost"].append(transcript.total_cost)
        summary["excess"].append(true_risk(pair.q, h) - q_best)
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    print(json.dumps({
        "trials": trials, "eps": eps,
        "success_rate": float(np.mean([e <= eps for e in summary["excess"]])),
        "median_cost": float(np.median(summary["total_cost"])),
        "step6_frac": float(np.mean([r == "step6" for r in summary["returned_by"]])),
        "step7_frac": float(np.mean([r == "step7" for r in summary["returned_by"]])),
    }))
    return 0


def cmd_select(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"sources", "n_sources", "n_q", "unlabeled", "trials",
                       "confidence"}, {"sources", "n_sources", "unlabeled"})
    trials = _trials(cfg, 1)
    conf = _confidence(cfg)
    if not isinstance(cfg["sources"], list) or not cfg["sources"]:
        raise ConfigError("sources must be a non-empty list of scenarios")
    built = [pair_from_config(s) for s in cfg["sources"]]
    pairs = [p for p, _ in built]
    cls = built[0][1]
    if any(not p.discrete for p in pairs):
        raise ConfigError("select needs discrete sources; set scenario.cells")
    n_sources = [int(n) for n in cfg["n_sources"]]
    if len(n_sources) != len(pairs):
        raise ConfigError("n_sources length must match sources")
    n_q = int(cfg.get("n_q", 0))
    choices = []
    for trial in range(trials):
        samples = [sample_labeled(p.p, n, args.seed + 31 * trial + 100 + i)
                   for i, (p, n) in enumerate(zip(pairs, n_sources))]
        sq = sample_labeled(pairs[0].q, n_q, args.seed + 31 * trial + 7)
        unlabeled = sample_unlabeled(pairs[0].q, int(cfg["unlabeled"]),
                                     args.seed + 31 * trial + 13)
        _, i_hat = multi_source_transfer_erm(samples, sq, unlabeled, cls, conf)
        choices.append(i_hat)
    freq = [choices.count(i) / trials for i in range(len(pairs))]
    payload = {"trials": trials, "choices": choices, "frequency": freq}
    _emit(payload, args.out)
    return 0


def cmd_reweight(args) -> int:
    cfg = load_config(args)
    check_fields(cfg, {"scenario", "densities", "pseudo_dim", "n_p", "n_q",
                       "unlabeled", "trials", "confidence"},
                 {"scenario", "densities", "n_p", "unlabeled"})
    trials = _trials(cfg, 1)
    conf = _confidence(cfg)
    pair, cls = pair_from_config(cfg["scenario"])
    if not pair.discrete:
        raise ConfigError("reweight needs a discrete scenario; set scenario.cells")
    weights = [np.asarray(w, dtype=np.float64) for w in cfg["densities"]]
    if not weights or any(w.shape != (pair.p.size,) for w in weights):
        raise ConfigError(f"densities must be a non-empty list of weight vectors "
                          f"with {pair.p.size} entries, one per support point")
    family = DensityFamily(weights, cfg.get("pseudo_dim"))
    n_p = int(cfg["n_p"])
    n_q = int(cfg.get("n_q", 0))
    chosen = []
    labels = None
    for trial in range(trials):
        sp = sample_labeled(pair.p, n_p, args.seed + 17 * trial + 3)
        sq = sample_labeled(pair.q, n_q, args.seed + 17 * trial + 5)
        unlabeled = sample_unlabeled(pair.q, int(cfg["unlabeled"]),
                                     args.seed + 17 * trial + 11)
        h, f_ix = reweighted_transfer_erm(sp, sq, unlabeled, family, cls, conf)
        chosen.append(f_ix)
        labels = None if h.labels is None else list(h.labels)
    freq = [chosen.count(i) / trials for i in range(len(family))]
    payload = {"trials": trials, "chosen": chosen, "frequency": freq,
               "last_hypothesis_labels": labels}
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=96)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferlab",
        description="Exact simulation toolkit for source/target transfer experiments.",
        formatter_class=_formatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p, needs_out=False):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, default=0, metavar="U64",
                       help="master seed; all randomness derives from it")
        p.add_argument("--out", metavar="PATH", required=needs_out,
                       help="output file (stdout if omitted where applicable)")
        p.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker processes for Monte Carlo (0 = all cores)")
        p.add_argument("--set", action="append", metavar="K=V",
                       help="config override, e.g. --set family.rho=2 (repeatable)")

    p = sub.add_parser("scenario", formatter_class=_formatter,
                       help="list, describe, or emit benchmark scenarios")
    p.add_argument("action", choices=("list", "describe", "emit"))
    common(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("exponent", formatter_class=_formatter,
                       help="brute-force discrepancy quantities for a pair")
    common(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("verify-family", formatter_class=_formatter,
                       help="certify every pair of a constructed family")
    common(p)
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("rates", formatter_class=_formatter,
                       help="Monte Carlo excess-risk table over an (n_p, n_q) grid")
    common(p, needs_out=True)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("adaptive", formatter_class=_formatter,
                       help="doubling-budget adaptive sampling runs")
    common(p)
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("select", formatter_class=_formatter,
                       help="choose among labeled sources with unlabeled target data")
    common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("reweight", formatter_class=_formatter,
                       help="choose a source reweighting from a density family")
    common(p)
    p.set_defaults(func=cmd_reweight)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, RuntimeError, KeyError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
