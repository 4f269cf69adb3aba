"""Pipeline command line.

Subcommands wire the stages together over a single JSON run config:

    synth     generate a seeded synthetic input series
    glm       per-channel regression against the stimulus design
    embed     detrend/split, spectral embedding, coordinate selection
    train     fit the FNN ROMs on the training coordinates (--method fnn)
    forecast  fit the Koopman operator and the GH lift, then closed-loop
              forecasts over the test horizon, plus the baseline, scored per
              channel into the comparison table
    run --all everything above in order

Exit codes: 0 success, 2 validation errors (bad config/input), 1 runtime
failures. Artifacts land in output_dir/{embedding,models,forecasts,reports};
a meta.json echoes the config and its hash, and nothing written depends on
wall-clock time, so repeated runs with one config and one BLAS thread count
are byte-identical (the eigensolve's last bits can change with the count).
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import sys
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import artifacts, dmaps, evaluate, glm, lifting, parsimony, rom_fnn, rom_koopman
from .ingest import SynthConfig, detrend_standardize, generate_synthetic, load_timeseries
from .rom_fnn import TrainConfig

LOCK_NAME = ".lock"
DISCONNECTED_TOL = 1e-10   # lambda_1 this close to 1: the kernel graph has split


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class DmapsSection:
    sigma: object = "auto"
    alpha: float = 1.0
    t: int = 0
    k: int = 30


@dataclass(frozen=True)
class ParsimonySection:
    d: int = 5
    scale_fraction: float = parsimony.SCALE_FRACTION


@dataclass(frozen=True)
class KoopmanSection:
    svd_tol: float = rom_koopman.SVD_TOL


@dataclass(frozen=True)
class GhSection:
    sigma: object = "auto"
    eig_floor: float = lifting.EIG_FLOOR


@dataclass(frozen=True)
class NrwSection:
    mode: str = "reduced_then_lift"

    def __post_init__(self):
        if self.mode not in ("reduced_then_lift", "ambient"):
            raise ValueError(f"unknown nrw mode {self.mode!r}")


@dataclass(frozen=True)
class GlmSection:
    kernel: tuple = ()
    contrasts: tuple = ()   # pairs (name, vector)
    threshold: float = 0.001


@dataclass(frozen=True)
class RunConfig:
    """One JSON run config: each top-level object is one of the section dataclasses.

    ``fnn.seed`` and ``synth.seed`` default to the top-level seed.
    """

    input: str = None
    output_dir: str = None
    seed: int = 0
    n_train: int = 280
    standardize: str = "full"   # or "train_only"
    drop_dead: bool = False
    epochs: tuple = ()          # triples (condition, start, end), half-open
    conditions: tuple = ()
    dmaps: DmapsSection = DmapsSection()
    parsimony: ParsimonySection = ParsimonySection()
    fnn: TrainConfig = TrainConfig()
    koopman: KoopmanSection = KoopmanSection()
    gh: GhSection = GhSection()
    nrw: NrwSection = NrwSection()
    glm: GlmSection = GlmSection()
    synth: SynthConfig = None   # optional section

    def __post_init__(self):
        epochs = []
        for e in self.epochs:
            if not isinstance(e, (list, tuple)) or len(e) != 3:
                raise ValueError(f"epoch {e!r} is not a [condition, start, end] triple")
            epochs.append((str(e[0]), *(_typed(int, v, f"epoch {e!r} bound") for v in e[1:])))
        object.__setattr__(self, "epochs", tuple(epochs))
        object.__setattr__(self, "conditions", tuple(str(c) for c in self.conditions))
        if not self.input:
            raise ValueError("config must set 'input'")
        if not self.output_dir:
            raise ValueError("config must set 'output_dir'")
        if self.n_train < 2:
            raise ValueError(f"n_train must be >= 2, got {self.n_train}")
        if self.standardize not in ("full", "train_only"):
            raise ValueError(f"standardize must be 'full' or 'train_only', got {self.standardize!r}")
        if self.epochs and not self.conditions:
            raise ValueError("epochs given without a conditions list")


_KINDS = {int: "an integer", float: "a number", bool: "true or false"}
_ITEM_KINDS = {"fnn.hidden_sizes": int, "fnn.decay_values": float, "glm.kernel": float}


def _typed(kind, value, name: str):
    """The JSON value of an int, float or bool field, or a ValueError naming the field.

    An int takes an integral number (300.0 too), a float any number, a bool only
    true or false; a bool is not a number.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    fits = isinstance(value, bool) if kind is bool else number and (kind is float or value % 1 == 0)
    if not fits:
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def _typed_items(kind, value, name: str) -> tuple:
    """The items of a list field, each through the `_typed` rule for kind."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(_typed(kind, v, f"{name} item") for v in value)


def _build(cls, raw: dict, prefix: str = ""):
    """Dataclass instance from given keys; int/float/bool values and list items are `_typed`."""
    hints = typing.get_type_hints(cls)
    built = {}
    for key, value in raw.items():
        name = prefix + key
        if name in _ITEM_KINDS:
            value = _typed_items(_ITEM_KINDS[name], value, name)
        elif hints[key] in _KINDS:
            value = _typed(hints[key], value, name)
        built[key] = value
    return cls(**built)


def _unknown_keys(raw: dict, cls) -> str:
    return ", ".join(sorted(set(raw) - {f.name for f in fields(cls)}))


def _section(cls, name: str, raw, seed: int):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config section {name!r} must be an object")
    unknown = _unknown_keys(raw, cls)
    if unknown:
        raise ValueError(f"unknown key(s) in config section {name!r}: {unknown}")
    if name == "glm" and "contrasts" in raw:
        if not isinstance(raw["contrasts"], dict):
            raise ValueError("glm.contrasts must map contrast names to vectors")
        raw = {**raw, "contrasts": tuple(
            (k, _typed_items(float, v, f"glm.contrasts.{k}")) for k, v in raw["contrasts"].items()
        )}
    if "seed" in {f.name for f in fields(cls)}:
        raw = {"seed": seed, **raw}
    return _build(cls, raw, f"{name}.")


def load_config(path, seed_override: int = None) -> RunConfig:
    """Parse and validate a JSON run config, applying the optional seed override."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config root must be an object")
    unknown = _unknown_keys(data, RunConfig)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {unknown}")

    seed = seed_override if seed_override is not None else _typed(int, data.get("seed", 0), "seed")
    top = {**data, "seed": seed}
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        cls = hints[f.name]
        if is_dataclass(cls) and not (f.default is None and data.get(f.name) is None):
            top[f.name] = _section(cls, f.name, data.get(f.name), seed)
    return _build(RunConfig, top)


def config_payload(cfg: RunConfig) -> dict:
    """Plain-dict echo of the resolved config, used for meta.json and hashing."""
    payload = asdict(cfg)
    payload["glm"]["contrasts"] = {name: list(vec) for name, vec in cfg.glm.contrasts}
    return payload


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_payload(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# stage plumbing


class StageError(Exception):
    """Module error annotated with the pipeline stage it surfaced in."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[{stage}] {original}")
        self.stage = stage
        self.original = original


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class RunPaths:
    root: str

    @property
    def embedding(self):
        return os.path.join(self.root, "embedding")

    @property
    def models(self):
        return os.path.join(self.root, "models")

    @property
    def forecasts(self):
        return os.path.join(self.root, "forecasts")

    @property
    def reports(self):
        return os.path.join(self.root, "reports")

    @property
    def meta(self):
        return os.path.join(self.root, "meta.json")


def _write_meta(cfg: RunConfig, paths: RunPaths) -> None:
    os.makedirs(paths.root, exist_ok=True)
    artifacts.write_json(
        paths.meta, {"config": config_payload(cfg), "config_sha256": config_hash(cfg)}
    )


def _design_matrix(cfg: RunConfig, n: int):
    if not cfg.epochs:
        return None
    return glm.build_design_matrix(list(cfg.epochs), n, list(cfg.conditions))


def _load_standardized(cfg: RunConfig):
    """(values, channel names) of the input series, detrended and standardized."""
    values, names = load_timeseries(cfg.input)
    n_fit = cfg.n_train if cfg.standardize == "train_only" else None
    return detrend_standardize(values, names, drop_dead=cfg.drop_dead, n_fit=n_fit)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig) -> None:
    with _stage("synth"):
        if cfg.synth is None:
            raise ValueError("config has no 'synth' section")
        values, names, truth = generate_synthetic(cfg.synth)
        out_dir = os.path.dirname(os.path.abspath(cfg.input))
        os.makedirs(out_dir, exist_ok=True)
        artifacts.write_matrix(cfg.input, values, names)
        truth_path = os.path.splitext(cfg.input)[0] + "_truth.json"
        artifacts.write_text(truth_path, truth.to_json() + "\n")
    print(f"synth: wrote {values.shape[0]} x {values.shape[1]} series to {cfg.input}")
    print(f"synth: ground truth in {truth_path}")


def cmd_glm(cfg: RunConfig, paths: RunPaths) -> None:
    with _stage("glm"):
        if not cfg.epochs:
            raise ValueError("glm requires 'epochs' and 'conditions' in the config")
        if not cfg.glm.contrasts:
            raise ValueError("glm requires at least one contrast in glm.contrasts")
        values, channels = _load_standardized(cfg)
        design = _design_matrix(cfg, len(values))
        if cfg.glm.kernel:
            design = glm.convolve_design(design, np.asarray(cfg.glm.kernel))
        fit = glm.fit_glm(values, design)
        os.makedirs(paths.reports, exist_ok=True)
        for name, vec in cfg.glm.contrasts:
            result = glm.contrast_tstat(fit, design, np.asarray(vec))
            out = os.path.join(paths.reports, f"activity_{name}.csv")
            glm.write_activity_report(
                out, fit, result, channels, cfg.conditions, threshold=cfg.glm.threshold
            )
            n_pass = int(np.sum(result.p_values < cfg.glm.threshold))
            print(
                f"glm: contrast {name!r}: {n_pass}/{len(channels)} channels pass "
                f"p < {cfg.glm.threshold} -> {out}"
            )


def cmd_embed(cfg: RunConfig, paths: RunPaths) -> None:
    with _stage("ingest"):
        values, channels = _load_standardized(cfg)
        if cfg.n_train >= len(values):
            raise ValueError(f"n_train must be < {len(values)} input rows, got {cfg.n_train}")
        train, test = values[: cfg.n_train], values[cfg.n_train :]
    with _stage("dmaps"):
        embedding = dmaps.build_embedding(
            train, cfg.dmaps.sigma, cfg.dmaps.alpha, cfg.dmaps.k, cfg.dmaps.t
        )
        lam1 = float(embedding.eigenvalues[1])
        if abs(lam1 - 1.0) < DISCONNECTED_TOL:
            raise ValueError(
                f"kernel graph is disconnected: lambda_1 = {lam1!r} repeats the "
                "eigenvalue 1; set a larger dmaps.sigma"
            )
    with _stage("parsimony"):
        report = parsimony.rank_and_select(
            embedding.eigenvectors[:, 1:], cfg.parsimony.d, cfg.parsimony.scale_fraction
        )
    with _stage("embed"):
        os.makedirs(paths.embedding, exist_ok=True)
        dmaps.save_embedding(embedding, paths.embedding)
        parsimony.save_report(report, os.path.join(paths.embedding, "parsimony.json"))
        artifacts.write_matrix(os.path.join(paths.embedding, "train_ambient.csv"), train, channels)
        artifacts.write_matrix(os.path.join(paths.embedding, "test_ambient.csv"), test, channels)
    lam = ", ".join(f"{v:.6f}" for v in embedding.eigenvalues)
    print(f"embed: eigenvalues: {lam}")
    print(f"embed: residuals er: {', '.join(f'{v:.4f}' for v in report.er)}")
    print(f"embed: selected coordinates: {', '.join(str(i) for i in report.selected)}")


def _read_ambient(paths: RunPaths, block: str):
    """(values, channel names) of the standardized "train" or "test" block."""
    return artifacts.read_matrix(os.path.join(paths.embedding, f"{block}_ambient.csv"))


def _write_forecast(paths: RunPaths, name: str, values, names) -> None:
    artifacts.write_matrix(os.path.join(paths.forecasts, f"{name}.csv"), values, names)


def _load_embedding_artifacts(paths: RunPaths):
    embedding = dmaps.load_embedding(paths.embedding)
    report = parsimony.load_report(os.path.join(paths.embedding, "parsimony.json"))
    return embedding, report, dmaps.coords_for(embedding, report.selected)


def _unit_rms_scale(coords_train) -> float:
    """Factor to the unit-RMS coordinate units the FNN models work in.

    Keeps fixed-step descent conditioned regardless of the training length
    (unit-norm eigenvectors shrink coordinate amplitude like 1/sqrt(N)).
    """
    return float(np.sqrt(coords_train.shape[0]))


def cmd_train(cfg: RunConfig, paths: RunPaths, method: str) -> None:
    """Fit the FNN models, one per selected coordinate, and store them as one bundle.

    `method` is the `--method` choice, always "fnn": the Koopman operator is fit
    in `forecast`. perfbench's tracer names this stage's span after it.
    """
    with _stage("train"):
        _, report, coords_train = _load_embedding_artifacts(paths)
        stim_train = None
        if cfg.epochs:
            # the design spans the test block too, so its epochs are checked against it
            n_test = len(_read_ambient(paths, "test")[0])
            stim_train = _design_matrix(cfg, cfg.n_train + n_test)[: cfg.n_train]
        os.makedirs(paths.models, exist_ok=True)
    targets = range(1, len(report.selected) + 1)
    with _stage("rom_fnn"):
        scaled = coords_train * _unit_rms_scale(coords_train)
        models, records = zip(*rom_fnn.fnn_train(scaled, stim_train, targets, cfg.fnn))
        cells = [rom_fnn.best_grid_cell(r) for r in records]
        digest = rom_fnn.training_digest(cfg.fnn, scaled, stim_train)
        bundle = os.path.join(paths.models, "fnn.json")
        rom_fnn.save_fnn_models(models, [decay for _, decay, _ in cells], bundle, digest)
        rom_fnn.write_cv_report(dict(zip(targets, records)), os.path.join(paths.models, "fnn_cv.csv"))
    for j, (hidden, decay, score) in zip(targets, cells):
        print(f"train: coordinate {j}: hidden={hidden}, decay={decay:g}, cv mse={score:.3e}")


def cmd_forecast(cfg: RunConfig, paths: RunPaths) -> None:
    with _stage("forecast"):
        embedding, report, coords_train = _load_embedding_artifacts(paths)
        train_vals, _ = _read_ambient(paths, "train")
        test_vals, test_names = _read_ambient(paths, "test")
        h = test_vals.shape[0]
        if h == 0:
            raise ValueError("empty test set")
        d = len(report.selected)
        n_total = cfg.n_train + h
        design = _design_matrix(cfg, n_total)
        init = coords_train[-1]
        if os.path.exists(paths.forecasts):
            shutil.rmtree(paths.forecasts)
        os.makedirs(paths.forecasts)
        comparison = os.path.join(paths.reports, "comparison.csv")
        if os.path.exists(comparison):   # it scored the forecasts just removed
            os.remove(comparison)
        coord_names = [f"y_{j}" for j in range(d)]

    with _stage("lifting"):
        gh_model = lifting.gh_fit(
            coords_train, train_vals, gh_sigma=cfg.gh.sigma, eig_floor=cfg.gh.eig_floor
        )

    with _stage("rom_fnn"):
        scale = _unit_rms_scale(coords_train)
        stim_train = None if design is None else design[: cfg.n_train]
        # models trained on another embedding, stimulus or fnn config are refused
        digest = rom_fnn.training_digest(cfg.fnn, coords_train * scale, stim_train)
        models = rom_fnn.load_fnn_models(os.path.join(paths.models, "fnn.json"), digest)
        stim_seq = (
            None if design is None else design[cfg.n_train - 1 : cfg.n_train - 1 + h]
        )
        fnn_reduced = rom_fnn.fnn_forecast(models, init * scale, stim_seq, h) / scale
        fnn_ambient = lifting.gh_lift(gh_model, fnn_reduced)
        _write_forecast(paths, "fnn_gh_reduced", fnn_reduced, coord_names)
        _write_forecast(paths, "fnn_gh_ambient", fnn_ambient, test_names)

    with _stage("rom_koopman"):
        kmodel = rom_koopman.fit_koopman_model(coords_train, train_vals, cfg.koopman.svd_tol)
        k_reduced, k_ambient = rom_koopman.koopman_forecast(kmodel, init, h)
        _write_forecast(paths, "koopman_reduced", k_reduced, coord_names)
        _write_forecast(paths, "koopman_ambient", k_ambient, test_names)

    with _stage("nrw"):
        if cfg.nrw.mode == "reduced_then_lift":
            reduced_truth = lifting.nystrom_restrict(
                embedding, train_vals, test_vals, report.selected
            )
            nrw_reduced = evaluate.nrw_forecast(reduced_truth, init)
            nrw_ambient = lifting.gh_lift(gh_model, nrw_reduced)
            _write_forecast(paths, "nrw_reduced", nrw_reduced, coord_names)
        else:
            nrw_ambient = evaluate.nrw_forecast(test_vals, train_vals[-1])
        _write_forecast(paths, "nrw_ambient", nrw_ambient, test_names)

    with _stage("evaluate"):
        ambient = {"fnn_gh": fnn_ambient, "koopman": k_ambient, "nrw": nrw_ambient}
        table = evaluate.comparison_table(ambient, test_vals, test_names)
        os.makedirs(paths.reports, exist_ok=True)
        evaluate.write_comparison(table, comparison)
    print(f"forecast: horizon {h}, reduced dimension {d}")
    mags = ", ".join(f"{abs(v):.6f}" for v in kmodel.eigenvalues)
    print(f"forecast: koopman eigenvalue magnitudes: {mags}")
    print(f"forecast: koopman training reconstruction residual: {kmodel.training_residual:.3e}")
    print(f"forecast: geometric harmonics sigma {gh_model.gh_sigma!r}, rank {gh_model.d_gh}")
    print(f"forecast: wrote fnn_gh, koopman, nrw ambient forecasts under {paths.forecasts}")
    for i, method in enumerate(table.methods):
        print(
            f"evaluate: {method}: mean rmse {table.rmse[i].mean():.4f}, "
            f"best on {int(table.best[i].sum())}/{len(table.channel_names)} channels"
        )
    print(f"evaluate: comparison table in {comparison}")


def cmd_run_all(cfg: RunConfig, paths: RunPaths) -> None:
    if not os.path.exists(cfg.input):
        if cfg.synth is None:
            raise StageError("run", FileNotFoundError(f"input file not found: {cfg.input}"))
        cmd_synth(cfg)
    if cfg.epochs and cfg.glm.contrasts:
        cmd_glm(cfg, paths)
    else:
        print("run: no epochs/contrasts configured, skipping glm")
    cmd_embed(cfg, paths)
    cmd_train(cfg, paths, "fnn")
    cmd_forecast(cfg, paths)


# ---------------------------------------------------------------------------
# entry point


@contextmanager
def _run_lock(paths: RunPaths):
    """Exclusive flock on output_dir/.lock, held for the whole command.

    The file stays in place; the OS drops the lock when its holder exits, even
    when it is killed, so a dead run never leaves the directory locked.
    """
    os.makedirs(paths.root, exist_ok=True)
    with open(os.path.join(paths.root, LOCK_NAME), "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"run directory {paths.root} is locked by another run") from None
        yield


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmrom",
        description="Manifold-learning forecast pipeline for multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("synth", "generate a synthetic input series"),
        ("glm", "per-channel stimulus regression report"),
        ("embed", "spectral embedding + coordinate selection"),
        ("train", "fit forecasting models"),
        ("forecast", "closed-loop test-horizon forecasts and their error table"),
        ("run", "full pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "train":
            p.add_argument("--method", required=True, choices=["fnn"])
        if name == "run":
            p.add_argument("--all", action="store_true", help="run every stage in order")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    paths = RunPaths(root=cfg.output_dir)

    try:
        if args.command == "synth":
            cmd_synth(cfg)
            return 0
        if args.command == "run" and not args.all:
            print("error [config]: run requires --all", file=sys.stderr)
            return 2
        with _run_lock(paths):
            _write_meta(cfg, paths)
            if args.command == "glm":
                cmd_glm(cfg, paths)
            elif args.command == "embed":
                cmd_embed(cfg, paths)
            elif args.command == "train":
                cmd_train(cfg, paths, args.method)
            elif args.command == "forecast":
                cmd_forecast(cfg, paths)
            elif args.command == "run":
                cmd_run_all(cfg, paths)
        return 0
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2 if isinstance(exc.original, (ValueError, FileNotFoundError)) else 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
