"""Pipeline command line.

Subcommands wire the stages together over a single JSON run config:

    synth     generate a seeded synthetic input series
    glm       per-channel regression against the stimulus design
    embed     detrend/split, spectral embedding, coordinate selection
    forecast  fit the ROMs on the training coordinates (the FNNs, the GH lift,
              the Koopman one-step matrix and channel pre-image), then
              closed-loop forecasts over the test horizon, plus the baseline,
              scored per channel into the comparison table
    run --all everything above in order, parsing the input once and handing
              each stage what the one before it built, in memory

Exit codes: 0 success, 2 validation errors (bad config/input), 1 runtime
failures. Artifacts land in output_dir/{embedding,models,forecasts,reports};
a meta.json, written when a command (or a stage of `run --all`) succeeds,
echoes the config and its hash, and nothing written depends on wall-clock
time, so repeated runs with one config and one SIMD level of numpy's `exp`
are byte-identical (the FNN models' last bits can change with the SIMD
level; importing dmrom runs OpenBLAS on one thread, so the BLAS thread
count changes none). `forecast` run on its own reads what `embed` wrote,
and refuses an embedding that `embed` made from another input file or other
config fields; it trains the FNN ROM (`rom_fnn`) on the selected coordinates
and the stimulus design's training rows, and steps the models it trained over
the design's forecast rows.
"""

from __future__ import annotations

import argparse
import fcntl
import glob
import hashlib
import json
import math
import os
import shutil
import sys
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import artifacts, dmaps, evaluate, glm, ingest, lifting, parsimony, rom_fnn, rom_koopman
from .ingest import SynthConfig, detrend_standardize, generate_synthetic, load_timeseries
from .rom_fnn import TrainConfig

LOCK_NAME = ".lock"
DISCONNECTED_TOL = 1e-10   # lambda_1 this close to 1: the kernel graph has split
# the faults of a stage that a bad config or input causes, which exit 2; an
# input path that names a directory, or lies under a file, is one
BAD_INPUT = (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class DmapsSection:
    sigma: object = "auto"
    k: int = 30

    def __post_init__(self):
        # "auto" or a positive finite number, kept as given (an int stays an
        # int, so the config hash does not move); a bool is not a number
        sigma = self.sigma
        number = isinstance(sigma, (int, float)) and not isinstance(sigma, bool)
        if not (sigma == "auto" or number and 0 < sigma <= sys.float_info.max):
            raise ValueError(f'dmaps.sigma must be "auto" or a positive number, got {sigma!r}')
        if self.k < 1:
            raise ValueError(f"dmaps.k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class ParsimonySection:
    d: int = 5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"parsimony.d must be >= 1, got {self.d!r}")


# the longest file a contrast's name goes into, activity_<name>.csv.<pid>.tmp
# while its report is written, must fit a file name's 255 bytes (NAME_MAX)
# with a Linux pid of up to 7 digits
CONTRAST_NAME_BYTES = 255 - len("activity_.csv..tmp") - 7


@dataclass(frozen=True)
class GlmSection:
    contrasts: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        # a contrast's name is part of its report's file name, activity_<name>.csv
        for name in self.contrasts:
            if not name or "/" in name or "\0" in name:
                raise ValueError(
                    f"glm.contrasts names must be non-empty and hold no '/' or NUL, got {name!r}"
                )
            try:
                size = len(name.encode("utf-8"))
            except UnicodeEncodeError:   # a lone surrogate, such as JSON's "\ud800"
                raise ValueError(
                    f"glm.contrasts names must be Unicode text, got {name!r}"
                ) from None
            if size > CONTRAST_NAME_BYTES:
                raise ValueError(f"glm.contrasts names must take at most "
                                 f"{CONTRAST_NAME_BYTES} bytes in UTF-8, got {size}")


@dataclass(frozen=True)
class RunConfig:
    """One JSON run config: each top-level object is one of the section dataclasses.

    The field annotations are the config schema (see `_typed`).
    """

    input: str = None
    output_dir: str = None
    n_train: int = 280
    epochs: tuple[tuple[str, int, int], ...] = ()   # (condition, start, end), half-open
    conditions: tuple[str, ...] = ()
    dmaps: DmapsSection = DmapsSection()
    parsimony: ParsimonySection = ParsimonySection()
    fnn: TrainConfig = TrainConfig()
    glm: GlmSection = GlmSection()
    synth: SynthConfig = None   # optional section

    def __post_init__(self):
        for name in ("input", "output_dir"):
            if getattr(self, name) is None:
                raise ValueError(f"config must set {name!r}")
        if self.n_train < 2:
            raise ValueError(f"n_train must be >= 2, got {self.n_train}")
        if self.epochs and not self.conditions:
            raise ValueError("epochs given without a conditions list")
        if len(set(self.conditions)) < len(self.conditions):
            raise ValueError(f"conditions repeat a name: {list(self.conditions)}")
        # an epoch past the series end is found where the series length is known
        for cond, start, end in self.epochs:
            if cond not in self.conditions:
                raise ValueError(f"epoch {[cond, start, end]} names no condition in conditions")
            if not 0 <= start < end:
                raise ValueError(f"epoch {[cond, start, end]} needs 0 <= start < end")
        for name, vec in self.glm.contrasts.items():
            if len(vec) != len(self.conditions):
                raise ValueError(
                    f"glm.contrasts.{name} has {len(vec)} entries, one per condition "
                    f"needs {len(self.conditions)}"
                )
        d, k = self.parsimony.d, self.dmaps.k
        if d > k:
            raise ValueError(f"parsimony.d must be <= dmaps.k ({k}), got {d}")
        if self.fnn.folds >= self.n_train:
            raise ValueError(f"fnn.folds must be < n_train ({self.n_train}), got {self.fnn.folds}")


# how a message names one value of a scalar annotation, and a list of them
_KINDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          str: ("a non-empty string", "strings")}


def _typed(hint, value, name: str):
    """The JSON value of field `name` read by its annotation `hint`, or a ValueError naming it.

    A `dict[str, V]` takes an object, a `tuple[T, ...]` a list and a `tuple[A, B, C]` a list
    of three; each value inside follows its own hint, named `name.key`, `name item` or
    `name[i]`. `object` takes any value, for its section to check. A str takes a non-empty
    string, an int an integral number (300.0 too), a float any finite number; a bool is
    not a number. JSON's NaN, Infinity and literals past float range such as 1e400 parse
    to non-finite floats.
    """
    form, args = typing.get_origin(hint), typing.get_args(hint)
    if form is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, got {value!r}")
        return {key: _typed(args[1], v, f"{name}.{key}") for key, v in value.items()}
    if form is tuple:
        many = args[1:] == (...,)
        if not isinstance(value, list) or not many and len(value) != len(args):
            items = _KINDS[args[0]][1] if args[0] in _KINDS else "lists"
            kind = f"a list of {items}" if many else f"a list of {len(args)} values"
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        if many:
            return tuple(_typed(args[0], v, f"{name} item") for v in value)
        return tuple(_typed(h, v, f"{name}[{i}]") for i, (h, v) in enumerate(zip(args, value)))
    if hint is object:
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    fits = {str: isinstance(value, str) and value != "", int: number and value % 1 == 0,
            float: number}[hint]
    if not fits:
        raise ValueError(f"{name} must be {_KINDS[hint][0]}, got {value!r}")
    try:
        typed = hint(value)
    except OverflowError:   # an integer past the largest float
        digits = len(str(abs(value)))
        raise ValueError(
            f"{name} must be a number within float range, got an integer of {digits} digits"
        ) from None
    if hint is float and not math.isfinite(typed):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return typed


# per section, the keys that became module constants, each with its constant: a
# config may still give one at that value, which changes nothing, and any other
# value is refused; perfbench still sets all three, fnn.max_epochs 2000 and
# fnn.learning_rate 0.2 in workloads.SOLVER and synth.q 2 in selftest's synth
# config
RETIRED_KEYS = {"fnn": {"max_epochs": rom_fnn.EPOCHS, "learning_rate": rom_fnn.LEARNING_RATE},
                "synth": {"q": ingest.LATENT_DIM}}


def _build(cls, raw, name: str):
    """The dataclass cls from its JSON object, each field given read by `_typed` and each
    section given by `_build`; a field not given keeps its default."""
    if not isinstance(raw, dict):
        raise ValueError(f"config section {name!r} must be an object")
    hints = typing.get_type_hints(cls)
    for key, fixed in RETIRED_KEYS.get(name, {}).items():
        if key in raw:
            given = _typed(type(fixed), raw[key], f"{name}.{key}")
            if given != fixed:
                raise ValueError(f"{name}.{key} is no longer a setting: it is fixed at {fixed}, "
                                 f"got {given!r}")
            raw = {k: v for k, v in raw.items() if k != key}
    unknown = ", ".join(sorted(set(raw) - set(hints)))
    if unknown:
        raise ValueError(f"unknown key(s) in config section {name!r}: {unknown}")
    built = {}
    for f in fields(cls):
        hint, given = hints[f.name], raw.get(f.name)
        key = f"{name}.{f.name}" if name else f.name
        if f.name not in raw or (given is None and (f.default is None or is_dataclass(hint))):
            continue   # its default: not given, or null for an optional field or a section
        read = _build if is_dataclass(hint) else _typed
        built[f.name] = read(hint, given, key)
    return cls(**built)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run config."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config root must be an object")
    unknown = ", ".join(sorted(set(data) - {f.name for f in fields(RunConfig)}))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {unknown}")
    return _build(RunConfig, data, "")


# the config fields `embed` reads
EMBED_FIELDS = ("input", "n_train", "dmaps", "parsimony")


def embed_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical JSON of the config fields in `EMBED_FIELDS`."""
    values = (getattr(cfg, name) for name in EMBED_FIELDS)
    payload = {name: asdict(v) if is_dataclass(v) else v for name, v in zip(EMBED_FIELDS, values)}
    return artifacts.json_sha256(payload).hexdigest()


def made_from(cfg: RunConfig) -> str:
    """The embedding's digest: `embed_hash` and the sha256 of the input file's bytes."""
    data = hashlib.sha256()
    with open(cfg.input, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            data.update(chunk)
    digest = artifacts.json_sha256({"config": embed_hash(cfg), "input": data.hexdigest()})
    return digest.hexdigest()


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


def _write_meta(cfg: RunConfig, paths: RunPaths) -> None:
    """Echo the config into meta.json; each command calls it last, so only a
    command that succeeded, or a stage of `run --all` that did, speaks for it."""
    payload = asdict(cfg)
    doc = {"config": payload, "config_sha256": artifacts.json_sha256(payload).hexdigest()}
    artifacts.write_json(os.path.join(paths.root, "meta.json"), doc)


def _load_standardized(cfg: RunConfig):
    """(values, channel names) of the input series, detrended and standardized;
    a fault is an [ingest] error."""
    with _stage("ingest"):
        values, names = load_timeseries(cfg.input)
        return detrend_standardize(values, names), names


@dataclass(frozen=True)
class Embedded:
    """What `embed` built and wrote, as `run --all` hands it to `forecast`.

    The eigenvectors are row-major, as `dmaps.load_embedding` reads them
    back, so the coordinates and the restriction take the bits they take
    from a reloaded embedding.
    """

    embedding: dmaps.DiffusionEmbedding
    report: parsimony.ParsimonyReport
    train: np.ndarray        # the standardized training block
    test: np.ndarray         # the standardized test block
    channels: list


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig) -> None:
    with _stage("synth"):
        if cfg.synth is None:
            raise ValueError("config has no 'synth' section")
        values, names, truth = generate_synthetic(cfg.synth)
        out_dir = os.path.dirname(os.path.abspath(cfg.input))
        try:
            os.makedirs(out_dir, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:   # a file is in the way
            raise ValueError(f"input {cfg.input!r} cannot be written: its directory "
                             f"cannot be made: {exc.strerror}") from None
        artifacts.write_matrix(cfg.input, values, names)
        truth_path = os.path.splitext(cfg.input)[0] + "_truth.json"
        artifacts.write_json(truth_path, truth.document())
    print(f"synth: wrote {values.shape[0]} x {values.shape[1]} series to {cfg.input}")
    print(f"synth: ground truth in {truth_path}")


def _remove_activity_reports(paths: RunPaths) -> None:
    """Remove every activity report, so none outlives its contrast or the epochs."""
    for old in glob.glob(os.path.join(glob.escape(paths.reports), "activity_*.csv")):
        os.remove(old)


def cmd_glm(cfg: RunConfig, paths: RunPaths, series=None) -> None:
    """Write one activity report per contrast. `series` is the (values, channel
    names) `run --all` has standardized; without it the input is read."""
    with _stage("glm"):
        if not cfg.epochs:
            raise ValueError("glm requires 'epochs' and 'conditions' in the config")
        if not cfg.glm.contrasts:
            raise ValueError("glm requires at least one contrast in glm.contrasts")
    values, channels = _load_standardized(cfg) if series is None else series
    with _stage("glm"):
        design = glm.build_design_matrix(cfg.epochs, len(values), cfg.conditions)
        _remove_activity_reports(paths)
        fit = glm.fit_glm(values, design)
        os.makedirs(paths.reports, exist_ok=True)
        for name, vec in cfg.glm.contrasts.items():
            result = glm.contrast_tstat(fit, design, np.asarray(vec))
            out = os.path.join(paths.reports, f"activity_{name}.csv")
            glm.write_activity_report(out, fit, result, channels, cfg.conditions)
            n_pass = int(np.sum(result.p_values < glm.P_THRESHOLD))
            print(
                f"glm: contrast {name!r}: {n_pass}/{len(channels)} channels pass "
                f"p < {glm.P_THRESHOLD} -> {out}"
            )
    _write_meta(cfg, paths)


def cmd_embed(cfg: RunConfig, paths: RunPaths, series=None) -> Embedded:
    """Embed the training block, select its coordinates and write the embedding;
    returns what it wrote. `series` is as for `cmd_glm`."""
    values, channels = _load_standardized(cfg) if series is None else series
    with _stage("ingest"):
        if cfg.n_train >= len(values):
            raise ValueError(f"n_train must be < {len(values)} input rows, got {cfg.n_train}")
        # an epoch past the series end is refused before any file is written
        glm.build_design_matrix(cfg.epochs, len(values), cfg.conditions)
        train, test = values[: cfg.n_train], values[cfg.n_train :]
    with _stage("dmaps"):
        embedding = dmaps.build_embedding(train, cfg.dmaps.sigma, cfg.dmaps.k)
        lam1 = float(embedding.eigenvalues[1])
        if abs(lam1 - 1.0) < DISCONNECTED_TOL:
            raise ValueError(
                f"kernel graph is disconnected: lambda_1 = {lam1!r} repeats the "
                "eigenvalue 1; set a larger dmaps.sigma"
            )
    with _stage("parsimony"):
        report = parsimony.rank_and_select(embedding.eigenvectors[:, 1:], cfg.parsimony.d)
    with _stage("embed"):
        os.makedirs(paths.embedding, exist_ok=True)
        parsimony.save_report(report, os.path.join(paths.embedding, "parsimony.json"))
        artifacts.write_matrix(os.path.join(paths.embedding, "train_ambient.csv"), train, channels)
        artifacts.write_matrix(os.path.join(paths.embedding, "test_ambient.csv"), test, channels)
        # the bundle, with its made_from digest, goes last: a kill between the
        # writes leaves the old digest, which forecast refuses when the input
        # or the embed settings changed
        dmaps.save_embedding(embedding, paths.embedding, made_from(cfg))
    lam = ", ".join(f"{v:.6f}" for v in embedding.eigenvalues)
    print(f"embed: eigenvalues: {lam}")
    print(f"embed: residuals er: {', '.join(f'{v:.4f}' for v in report.er)}")
    print(f"embed: selected coordinates: {', '.join(str(i) for i in report.selected)}")
    _write_meta(cfg, paths)
    eigenvectors = np.ascontiguousarray(embedding.eigenvectors)
    return Embedded(replace(embedding, eigenvectors=eigenvectors), report, train, test, channels)


def _write_forecast(paths: RunPaths, name: str, values, names) -> None:
    artifacts.write_matrix(os.path.join(paths.forecasts, f"{name}.csv"), values, names)


def _read_embedded(cfg: RunConfig, paths: RunPaths) -> Embedded:
    """Everything `embed` wrote, read back; an embedding made from another
    input file or other config fields is refused."""
    embedding = dmaps.load_embedding(paths.embedding, made_from(cfg))
    report = parsimony.load_report(os.path.join(paths.embedding, "parsimony.json"))
    train, _ = artifacts.read_matrix(os.path.join(paths.embedding, "train_ambient.csv"))
    test, channels = artifacts.read_matrix(os.path.join(paths.embedding, "test_ambient.csv"))
    return Embedded(embedding, report, train, test, channels)


def cmd_train(cfg: RunConfig, paths: RunPaths, method: str, coords_train, design) -> tuple:
    """The FNN training step of `cmd_forecast`: fit one model per selected
    coordinate, write the CV table `fnn_cv.csv`, then the bundle `fnn.json`,
    and return the models, in coordinate order.

    `coords_train` (n, d) are the selected diffusion-map coordinates of the
    training block, taken as given (the eigenvectors have unit RMS, so they
    are O(1) at any n), and `design` the (N, p) stimulus design over the whole
    series, p = 0 without a stimulus; its first n rows drive the training.
    `method` is always "fnn", passed by position, because perfbench's tracer
    names this step's span after it (ROADMAP item 1).
    """
    with _stage("rom_fnn"):
        targets = range(1, coords_train.shape[1] + 1)
        trained = rom_fnn.fnn_train(coords_train, design[: len(coords_train)], targets, cfg.fnn)
        models, records = zip(*trained)
        cells = [rom_fnn.best_grid_cell(r) for r in records]
        os.makedirs(paths.models, exist_ok=True)
        rom_fnn.write_cv_report(dict(zip(targets, records)),
                                os.path.join(paths.models, "fnn_cv.csv"))
        rom_fnn.save_fnn_models(models, [decay for _, decay, _ in cells],
                                os.path.join(paths.models, "fnn.json"))
    for j, (hidden, decay, score) in enumerate(cells, start=1):
        print(f"train: coordinate {j}: hidden={hidden}, decay={decay:g}, cv mse={score:.3e}")
    return models


def cmd_forecast(cfg: RunConfig, paths: RunPaths, embedded: Embedded = None) -> None:
    """Fit the ROMs, forecast the test block with each and with the baseline,
    and score them. `embedded` is what `run --all`'s `embed` returned;
    without it the embedding is read from disk."""
    with _stage("forecast"):
        if embedded is None:
            embedded = _read_embedded(cfg, paths)
        embedding, report = embedded.embedding, embedded.report
        train_vals, test_vals, test_names = embedded.train, embedded.test, embedded.channels
        coords_train = dmaps.coords_for(embedding, report.selected)
        n, h = len(coords_train), test_vals.shape[0]
        if h == 0:
            raise ValueError("empty test set")
        d = len(report.selected)
        # the design spans the test block too, so its epochs are checked against it
        design = glm.build_design_matrix(cfg.epochs, n + h, cfg.conditions)
        init = coords_train[-1]
        # this stage's old outputs go first: a stage that fails leaves no
        # models, forecasts or table that an earlier run made
        for old in (paths.forecasts, paths.models):
            if os.path.exists(old):
                shutil.rmtree(old)
        os.makedirs(paths.forecasts)
        comparison = os.path.join(paths.reports, "comparison.csv")
        if os.path.exists(comparison):
            os.remove(comparison)
        coord_names = [f"y_{j}" for j in range(d)]

    models = cmd_train(cfg, paths, "fnn", coords_train, design)

    with _stage("lifting"):
        gh_model = lifting.gh_fit(coords_train, train_vals)

    with _stage("rom_fnn"):
        # step s reads design row n - 1 + s, the stimulus at the state it steps from
        fnn_reduced = rom_fnn.fnn_forecast(models, init, design[n - 1 : n - 1 + h], h)
        fnn_ambient = lifting.gh_lift(gh_model, fnn_reduced)
        _write_forecast(paths, "fnn_gh_reduced", fnn_reduced, coord_names)
        _write_forecast(paths, "fnn_gh_ambient", fnn_ambient, test_names)

    with _stage("rom_koopman"):
        kmodel = rom_koopman.fit_koopman_model(coords_train, train_vals)
        k_reduced, k_ambient = rom_koopman.koopman_forecast(kmodel, init, h)
        _write_forecast(paths, "koopman_reduced", k_reduced, coord_names)
        _write_forecast(paths, "koopman_ambient", k_ambient, test_names)

    with _stage("nrw"):
        reduced_truth = lifting.nystrom_restrict(embedding, train_vals, test_vals, report.selected)
        nrw_reduced = evaluate.nrw_forecast(reduced_truth, init)
        nrw_ambient = lifting.gh_lift(gh_model, nrw_reduced)
        _write_forecast(paths, "nrw_reduced", nrw_reduced, coord_names)
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
    print(
        f"forecast: geometric harmonics sigma {gh_model.gh_sigma!r}, rank {gh_model.d_gh}, "
        f"leave-one-out rms {gh_model.loo_rms:.3e}"
    )
    print(f"forecast: wrote fnn_gh, koopman, nrw ambient forecasts under {paths.forecasts}")
    for i, method in enumerate(table.methods):
        print(
            f"evaluate: {method}: mean rmse {table.rmse[i].mean():.4f}, "
            f"best on {int(table.best[i].sum())}/{len(table.channel_names)} channels"
        )
    print(f"evaluate: comparison table in {comparison}")
    _write_meta(cfg, paths)


def cmd_run_all(cfg: RunConfig, paths: RunPaths) -> None:
    if not os.path.exists(cfg.input):
        if cfg.synth is None:
            raise StageError("run", FileNotFoundError(f"input file not found: {cfg.input}"))
        cmd_synth(cfg)
    series = _load_standardized(cfg)   # parsed once, for glm and embed
    if cfg.epochs and cfg.glm.contrasts:
        cmd_glm(cfg, paths, series)
    else:
        print("run: no epochs/contrasts configured, skipping glm")
        _remove_activity_reports(paths)
    cmd_forecast(cfg, paths, cmd_embed(cfg, paths, series))


# ---------------------------------------------------------------------------
# entry point


@contextmanager
def _run_lock(paths: RunPaths):
    """Exclusive flock on output_dir/.lock, held for the whole command.

    The file stays in place; the OS drops the lock when its holder exits, even
    when it is killed, so a dead run never leaves the directory locked. Once
    the lock is held no writer is live, so the temp files of writers that were
    killed are removed first.
    """
    try:
        os.makedirs(paths.root, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:   # a file is in the way
        raise StageError("config", ValueError(
            f"output_dir {paths.root!r} cannot be made a directory: {exc.strerror}")) from None
    with open(os.path.join(paths.root, LOCK_NAME), "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"run directory {paths.root} is locked by another run") from None
        for sub in ("", "embedding", "models", "forecasts", "reports"):
            artifacts.remove_temps(os.path.join(paths.root, sub))
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
        ("forecast", "ROM fits, closed-loop test-horizon forecasts and their error table"),
        ("run", "full pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        if name == "run":
            p.add_argument("--all", action="store_true", help="run every stage in order")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
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
            if args.command == "glm":
                cmd_glm(cfg, paths)
            elif args.command == "embed":
                cmd_embed(cfg, paths)
            elif args.command == "forecast":
                cmd_forecast(cfg, paths)
            elif args.command == "run":
                cmd_run_all(cfg, paths)
        return 0
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2 if isinstance(exc.original, BAD_INPUT) else 1
    except BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
