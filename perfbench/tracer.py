"""Span tracing of one `dmrom run --all`, from outside the program.

Run as a script, this imports dmrom.cli, wraps the public functions the
pipeline calls at the names their callers look them up by (cli imports the
ingest functions by name, evaluate imports gh_lift by name, dmaps.build_embedding
looks its three steps up in its own module), runs `run --all` in-process,
and writes the spans when the run ends:

    python3 tracer.py SPANS_JSON run --all --config CONFIG

Each span holds its name, start, end, parent index and the work counts taken
at that boundary. No program file is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _loo_fits(args, kwargs, result):
    psi = args[0]
    return {"loo_fits": psi.shape[0] * (psi.shape[1] - 1)}


def _fnn_fits(args, kwargs, result):
    cfg = args[3]
    cells = len(cfg.hidden_sizes) * len(cfg.decay_values) * cfg.folds * cfg.repeats
    return {"fits": cells + 1}


def _gh_rank(args, kwargs, result):
    return {"gh_rank": len(result.eigenvalues)}


def _forecast_steps(args, kwargs, result):
    return {"forecast_steps": len(result)}


def _train_span(args, kwargs):
    return "cli.train_" + args[2]   # cmd_train(cfg, paths, method)


# (module, attribute, span name or fn(args, kwargs) -> name, counter or None)
TARGETS = [
    ("dmrom.cli", "cmd_glm", "cli.glm", None),
    ("dmrom.cli", "cmd_embed", "cli.embed", None),
    ("dmrom.cli", "cmd_train", _train_span, None),
    ("dmrom.cli", "cmd_forecast", "cli.forecast", None),
    ("dmrom.cli", "cmd_evaluate", "cli.evaluate", None),
    ("dmrom.cli", "load_timeseries", "ingest.load_timeseries", None),
    ("dmrom.cli", "detrend_standardize", "ingest.detrend_standardize", None),
    ("dmrom.glm", "fit_glm", "glm.fit_glm", None),
    ("dmrom.glm", "contrast_tstat", "glm.contrast_tstat", None),
    ("dmrom.glm", "write_activity_report", "glm.write_activity_report", None),
    ("dmrom.dmaps", "gaussian_affinity", "dmaps.gaussian_affinity", None),
    ("dmrom.dmaps", "diffusion_operator", "dmaps.diffusion_operator", None),
    ("dmrom.dmaps", "spectral_decompose", "dmaps.spectral_decompose", None),
    ("dmrom.dmaps", "save_embedding", "dmaps.save_embedding", None),
    ("dmrom.dmaps", "load_embedding", "dmaps.load_embedding", None),
    ("dmrom.parsimony", "rank_and_select", "parsimony.rank_and_select", _loo_fits),
    ("dmrom.lifting", "gh_fit", "lifting.gh_fit", _gh_rank),
    ("dmrom.lifting", "gh_lift", "lifting.gh_lift", None),
    ("dmrom.evaluate", "gh_lift", "lifting.gh_lift", None),
    ("dmrom.lifting", "nystrom_restrict", "lifting.nystrom_restrict", None),
    ("dmrom.lifting", "save_gh_model", "lifting.save_gh_model", None),
    ("dmrom.lifting", "load_gh_model", "lifting.load_gh_model", None),
    ("dmrom.rom_fnn", "fnn_train", "rom_fnn.fnn_train", _fnn_fits),
    ("dmrom.rom_fnn", "fnn_forecast", "rom_fnn.fnn_forecast", _forecast_steps),
    ("dmrom.rom_koopman", "fit_koopman_model", "rom_koopman.fit_koopman_model", None),
    ("dmrom.rom_koopman", "koopman_forecast", "rom_koopman.koopman_forecast", None),
    ("dmrom.evaluate", "nrw_forecast", "evaluate.nrw_forecast", None),
    ("dmrom.evaluate", "comparison_table", "evaluate.comparison_table", None),
    ("dmrom.evaluate", "write_comparison", "evaluate.write_comparison", None),
    ("dmrom.evaluate", "write_plot_data", "evaluate.write_plot_data", None),
]

STAGES = ("cli.glm", "cli.embed", "cli.train_fnn", "cli.train_koopman", "cli.forecast",
          "cli.evaluate")

# per-layer time metric -> the span names whose inclusive times it sums
TIME_METRICS = {
    **{f"{s}_s": (s,) for s in STAGES},
    "ingest.load_timeseries_s": ("ingest.load_timeseries",),
    "ingest.detrend_standardize_s": ("ingest.detrend_standardize",),
    "glm.fit_glm_s": ("glm.fit_glm",),
    "glm.contrast_tstat_s": ("glm.contrast_tstat",),
    "glm.write_activity_report_s": ("glm.write_activity_report",),
    "dmaps.gaussian_affinity_s": ("dmaps.gaussian_affinity",),
    "dmaps.diffusion_operator_s": ("dmaps.diffusion_operator",),
    "dmaps.spectral_decompose_s": ("dmaps.spectral_decompose",),
    "dmaps.io_s": ("dmaps.save_embedding", "dmaps.load_embedding"),
    "parsimony.rank_and_select_s": ("parsimony.rank_and_select",),
    "lifting.gh_fit_s": ("lifting.gh_fit",),
    "lifting.io_s": ("lifting.save_gh_model", "lifting.load_gh_model"),
    "lifting.gh_lift_s": ("lifting.gh_lift",),
    "lifting.nystrom_restrict_s": ("lifting.nystrom_restrict",),
    "rom_fnn.fnn_train_s": ("rom_fnn.fnn_train",),
    "rom_fnn.fnn_forecast_s": ("rom_fnn.fnn_forecast",),
    "rom_koopman.fit_koopman_model_s": ("rom_koopman.fit_koopman_model",),
    "rom_koopman.koopman_forecast_s": ("rom_koopman.koopman_forecast",),
    "evaluate.nrw_forecast_s": ("evaluate.nrw_forecast",),
    "evaluate.comparison_table_s": ("evaluate.comparison_table",),
    "evaluate.write_comparison_s": ("evaluate.write_comparison",),
    "evaluate.write_plot_data_s": ("evaluate.write_plot_data",),
}
COUNT_METRICS = {
    "parsimony.loo_fits": "loo_fits",
    "lifting.gh_rank": "gh_rank",
    "rom_fnn.fits": "fits",
}
PER_LAYER = (
    [(name, "s") for name in TIME_METRICS]
    + [("cli.self_s", "s")]
    + [(name, "count") for name in COUNT_METRICS]
    + [("rom_fnn.fits_per_s", "1/s"), ("rom_fnn.forecast_steps_per_s", "1/s"),
       ("trace_overhead_s", "s")]
)


class Tracer:
    """In-memory span list; `wrap` returns a function that records one span per call."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name(args, kwargs) if callable(name) else name,
                "parent": self._stack[-1] if self._stack else -1,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap every target that exists; return the names of those that do not."""
        missing = []
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, counter))
        return missing


def layer_metrics(spans: list, traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer totals: inclusive time per layer, stage self time, counts and rates."""
    total = {}
    counts = {}
    child_time = {}
    for span in spans:
        dur = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + dur
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if span["parent"] >= 0:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + dur
    out = {name: sum(total.get(s, 0.0) for s in group) for name, group in TIME_METRICS.items()}
    out["cli.self_s"] = sum(
        span["end"] - span["start"] - child_time.get(i, 0.0)
        for i, span in enumerate(spans)
        if span["name"] in STAGES
    )
    for name, key in COUNT_METRICS.items():
        out[name] = counts.get(key, 0)
    train_s = out["rom_fnn.fnn_train_s"]
    forecast_s = out["rom_fnn.fnn_forecast_s"]
    out["rom_fnn.fits_per_s"] = out["rom_fnn.fits"] / train_s if train_s > 0 else 0.0
    out["rom_fnn.forecast_steps_per_s"] = (
        counts.get("forecast_steps", 0) / forecast_s if forecast_s > 0 else 0.0
    )
    out["trace_overhead_s"] = traced_run_s - untraced_run_s
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import dmrom.cli

    tracer = Tracer()
    missing = tracer.install()
    rc = dmrom.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
