"""Span recorder for the traced benchmark run.

Each layer is a module of transferlab; a span group covers some of that
module's public functions.  `SpanRecorder.install` replaces every reference
the package holds to a listed function -- module globals created by
`from .x import y`, the package namespace, and module-level registries such as
`ratelab.ESTIMATORS` that captured the function by value -- with a wrapper
that records one span per call.  `restore` puts the originals back.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Counts are taken at the same boundaries from the call's
arguments and result, so they need nothing from inside the program.
"""

from __future__ import annotations

import functools
import sys
import time


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _is_threshold(cls) -> bool:
    return cls.kind == "one-sided-threshold"


# count hooks: (args, kwargs, result) -> {counter: amount}

def _members_built(args, kwargs, out):
    return {"hypotheses.members_built": len(out)}


def _members_projected(args, kwargs, out):
    # a finite class projects to itself: nothing is built
    if out is _arg(args, kwargs, 0, "cls"):
        return {}
    return {"hypotheses.members_built": len(out)}


def _eval_matrix(sample_pos):
    def hook(args, kwargs, out):
        cls = _arg(args, kwargs, 0, "cls")
        n = len(_arg(args, kwargs, sample_pos, "sample"))
        return {"hypotheses.eval_points": n,
                "hypotheses.eval_cells": len(cls) * cls.support_size if n else 0}
    return hook


def _eval_points(sample_pos):
    def hook(args, kwargs, out):
        return {"hypotheses.eval_points": len(_arg(args, kwargs, sample_pos, "sample"))}
    return hook


def _erm(args, kwargs, out):
    # a finite class delegates to member_risks, which counts for itself
    if not _is_threshold(_arg(args, kwargs, 0, "cls")):
        return {}
    return {"hypotheses.eval_points": len(_arg(args, kwargs, 1, "sample"))}


def _draws(args, kwargs, out):
    return {"distributions.draws": int(_arg(args, kwargs, 1, "n"))}


def _family_pairs(args, kwargs, out):
    return {"distributions.pairs_built": len(out)}


def _one_pair(args, kwargs, out):
    return {"distributions.pairs_built": 1}


def _profiled(args, kwargs, out):
    return {"discrepancy.members_profiled": len(out.members)}


def _certified(args, kwargs, out):
    return {"discrepancy.pairs_certified": 1}


def _projected(args, kwargs, out):
    samples = _arg(args, kwargs, 1, "samples")
    return {"procedures.points_projected": sum(len(s) for s in samples)}


def _feasible(args, kwargs, out):
    return {"procedures.feasible_members": int(out.sum()),
            "procedures.feasible_candidates": int(out.size)}


def _adaptive(args, kwargs, out):
    transcript = out[1]
    return {"adaptive.rounds": len(transcript.rounds),
            "adaptive.labels_bought": transcript.n_p + transcript.n_q}


def _dense_cells(args, kwargs, out):
    cls = _arg(args, kwargs, 3, "cls")
    n = len(_arg(args, kwargs, 0, "sample_p")) + len(_arg(args, kwargs, 2, "probe"))
    return {"reweighting.dense_cells": len(cls) * n}


def _sweep(args, kwargs, out):
    cells = len(_arg(args, kwargs, 2, "grid"))
    return {"ratelab.cells": cells,
            "ratelab.trials": cells * int(_arg(args, kwargs, 3, "trials"))}


def _projects(args, kwargs):
    return _is_threshold(_arg(args, kwargs, 0, "cls"))


# group -> (module, {function: count hook}); the order fixes the report order
GROUPS = {
    "hypotheses.build": ("hypotheses", {
        "finite_class": _members_built, "full_cube_class": None,
        "project_class": _members_projected}),
    "hypotheses.eval": ("hypotheses", {
        "erm": _erm, "member_risks": _eval_matrix(1),
        "member_disagreements": _eval_matrix(2),
        "empirical_risk": _eval_points(1), "empirical_disagreement": _eval_points(2)}),
    "distributions.sample": ("distributions", {
        "sample_labeled": _draws, "sample_unlabeled": None, "rng_from": None}),
    "distributions.build": ("distributions", {
        "build_single_scale_family": _family_pairs,
        "build_two_scale_family": _family_pairs,
        "example_scenario": _one_pair, "discretize_pair": _one_pair,
        "rcs_violating_pair": _one_pair}),
    "distributions.risk": ("distributions", {
        "true_risk": None, "member_true_risks": None, "member_disagreement_mass": None,
        "best_in_class": None, "excess_risk": None}),
    "discrepancy.profile": ("discrepancy", {"pair_profile": _profiled}),
    "discrepancy.reduce": ("discrepancy", {
        "rho_min": None, "gamma_min": None, "rho_prime_min": None, "beta_max": None,
        "d_a": None, "d_y": None, "d_y_localized": None,
        "verify_membership": _certified, "verify_family": None,
        "gamma_rho_chain_check": None, "exponent_sweep": None}),
    "procedures.project": ("procedures", {"ensure_finite": _projected}),
    "procedures.feasible": ("procedures", {"near_optimal_mask": _feasible}),
    "procedures.estimate": ("procedures", {
        "transfer_erm": None, "reverse_transfer_erm": None,
        "select_source_or_target": None}),
    "adaptive.run": ("adaptive", {"run_adaptive_sampling": _adaptive}),
    "adaptive.delta_hat": ("adaptive", {"delta_hat": None}),
    "reweighting.choose": ("reweighting", {
        "reweighted_transfer_erm": None, "multi_source_transfer_erm": None}),
    "reweighting.delta_hat_weighted": ("reweighting", {"delta_hat_weighted": _dense_cells}),
    "reweighting.weighted_risks": ("reweighting", {
        "weighted_member_risks": None, "weighted_erm": None,
        "weighted_excess": None, "weighted_risk": None}),
    "ratelab.sweep": ("ratelab", {"sweep": _sweep, "monte_carlo": None}),
    "ratelab.fit": ("ratelab", {"fit_slope": None, "compare_to_theory": None}),
    "cli.main": ("cli", {"main": None}),
}

# ensure_finite returns a finite class unchanged; only the calls that project
# the threshold class are spans of procedures.project, the others are counted
RECORD_IF = {("procedures", "ensure_finite"): _projects}

COUNTERS = (
    "hypotheses.members_built", "hypotheses.eval_points", "hypotheses.eval_cells",
    "distributions.draws", "distributions.pairs_built",
    "discrepancy.members_profiled", "discrepancy.pairs_certified",
    "procedures.points_projected", "procedures.project.identity_calls",
    "procedures.feasible_members", "procedures.feasible_candidates",
    "adaptive.rounds", "adaptive.labels_bought", "reweighting.dense_cells",
    "ratelab.cells", "ratelab.trials",
)


class SpanRecorder:
    """Records spans and counts while installed and active."""

    def __init__(self):
        self.group_names = list(GROUPS)
        self.fn_names: list[str] = []
        self.active = False
        self._sites: list[tuple[dict, str, object]] = []
        self._wrappers: set[int] = set()
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        """Drop the spans and totals recorded so far."""
        self.spans: list[tuple] = []
        self.calls = dict.fromkeys(self.group_names, 0)
        self.self_s = dict.fromkeys(self.group_names, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []

    def _wrap(self, fn, group: str, name: str, hook, record_if):
        rec = self
        gi = self.group_names.index(group)
        fi = len(self.fn_names)
        self.fn_names.append(f"{group}:{name}")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if record_if is not None and not record_if(args, kwargs):
                rec.counts["procedures.project.identity_calls"] += 1
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1][0] if stack else -1
            sid = len(rec.spans)
            rec.spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rec.spans[sid] = (sid, parent, gi, fi, t0, t1)
                rec.calls[group] += 1
                rec.self_s[group] += dur - frame[1]
            if hook is not None:
                for key, amount in hook(args, kwargs, out).items():
                    rec.counts[key] += amount
            return out

        return traced

    @staticmethod
    def _tables():
        """Every namespace inside transferlab that can hold a function: module
        globals, and module-level dicts such as ratelab.ESTIMATORS."""
        seen = set()
        for name, mod in list(sys.modules.items()):
            if name != "transferlab" and not name.startswith("transferlab."):
                continue
            namespace = vars(mod)
            yield namespace
            for key, value in list(namespace.items()):
                if isinstance(value, dict) and not key.startswith("__") \
                        and id(value) not in seen:
                    seen.add(id(value))
                    yield value

    def install(self):
        """Wrap every listed function at every reference inside transferlab."""
        wrappers = {}
        for group, (modname, fns) in GROUPS.items():
            home = sys.modules[f"transferlab.{modname}"]
            for name, hook in fns.items():
                fn = getattr(home, name, None)
                if fn is None:
                    self.missing.append(f"transferlab.{modname}.{name}")
                    continue
                wrappers[id(fn)] = self._wrap(fn, group, name, hook,
                                              RECORD_IF.get((modname, name)))
        for table in self._tables():
            for key, value in list(table.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._sites.append((table, key, value))
                    table[key] = wrapper
        self._wrappers = {id(w) for w in wrappers.values()}

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for table, key, original in reversed(self._sites):
            table[key] = original
        self._sites = []
        return not any(id(value) in self._wrappers
                       for table in self._tables() for value in table.values())

    def write(self, path):
        """Write the spans as CSV: id, parent, group, function, start, end (s)."""
        with open(path, "w") as fh:
            fh.write("id,parent,group,function,start_s,end_s\n")
            for sid, parent, gi, fi, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{self.group_names[gi]},"
                         f"{self.fn_names[fi]},{t0!r},{t1!r}\n")
