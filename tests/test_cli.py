"""End-to-end tests for the pipeline command line."""

import csv
import fcntl
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict

import numpy as np
import pytest

from dmrom import artifacts, cli, dmaps, lifting, parsimony, rom_fnn
from dmrom.artifacts import read_matrix, write_matrix
from dmrom.cli import embed_hash, load_config, made_from, main
from dmrom.evaluate import comparison_table, write_comparison
from dmrom.glm import build_design_matrix
from dmrom.ingest import SynthConfig, generate_synthetic
from dmrom.lifting import gh_fit, gh_lift, nystrom_restrict
from dmrom.rom_koopman import fit_koopman_model, koopman_forecast

pytestmark = [
    pytest.mark.filterwarnings("ignore::UserWarning"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]


def write_config(path, **overrides) -> str:
    cfg = dict(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return str(path)


def tree_bytes(root) -> dict:
    """Relative path -> file bytes for every file under root."""
    root = pathlib.Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def clone_run(cfg_path, src_root, dst_root, **overrides):
    """Copy a finished run directory and point a fresh config at the copy."""
    shutil.copytree(src_root, dst_root)
    cfg = {**json.loads(pathlib.Path(cfg_path).read_text()), **overrides}
    cfg["output_dir"] = str(dst_root)
    new_cfg = pathlib.Path(dst_root).parent / (pathlib.Path(dst_root).name + ".json")
    return write_config(new_cfg, **cfg)


def load_run_embedding(cfg_path, emb):
    return dmaps.load_embedding(emb, made_from(load_config(cfg_path)))


# ----------------------------------------------------------- synthetic run


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One small deterministic `run --all` shared by the module."""
    base = tmp_path_factory.mktemp("cli_pipeline")
    out = base / "run"
    cfg_path = write_config(
        base / "run.json",
        input=str(base / "data" / "series.csv"),
        output_dir=str(out),
        n_train=120,
        dmaps={"sigma": "auto", "k": 10},
        parsimony={"d": 5},
        fnn={
            "hidden_sizes": [2],
            "decay_values": [1e-4],
            "folds": 3,
            "repeats": 1,
            "max_epochs": 300,
        },
        synth={
            "q": 2,
            "ambient_dim": 6,
            "n_times": 140,
            "noise": 0.0,
            "seed": 0,
            "dynamics": "limit_cycle",
        },
    )
    rc = main(["run", "--all", "--config", cfg_path])
    assert rc == 0
    return {"cfg": cfg_path, "out": out, "base": base}


def test_run_all_layout(pipeline_run):
    out = pipeline_run["out"]
    for sub in ("embedding", "models", "forecasts", "reports"):
        assert (out / sub).is_dir()
    assert (out / "reports" / "comparison.csv").is_file()
    assert not (out / "reports" / "plot_data.csv").exists()
    assert not (out / "embedding" / "gh_model").exists()
    with open(out / ".lock", "a") as fh:   # the finished run released its lock
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_meta_echoes_config_and_hash(pipeline_run):
    meta = json.loads((pipeline_run["out"] / "meta.json").read_text())
    cfg = load_config(pipeline_run["cfg"])
    assert meta["config_sha256"] == artifacts.json_sha256(asdict(cfg)).hexdigest()
    assert meta["config"]["fnn"]["seed"] == meta["config"]["synth"]["seed"] == 0
    assert meta["config"]["n_train"] == 120


def test_a_meta_write_builds_the_config_payload_once_and_hashes_it(
    pipeline_run, tmp_path, monkeypatch
):
    real, calls = cli.asdict, []

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "asdict", counted)
    cli._write_meta(load_config(pipeline_run["cfg"]), cli.RunPaths(str(tmp_path)))
    assert len(calls) == 1
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config_sha256"] == artifacts.json_sha256(meta["config"]).hexdigest()


def test_the_bundles_keep_the_fixed_diffusion_time_and_bandwidth_fraction(pipeline_run):
    # perfbench's spectrum and parsimony checks read both keys
    emb = pipeline_run["out"] / "embedding"
    assert json.loads((emb / "meta.json").read_text())["t"] == 0
    report = json.loads((emb / "parsimony.json").read_text())
    assert report["scale_fraction"] == parsimony.SCALE_FRACTION == 1.0 / 3.0


def assert_fnn_bundle(models, d):
    """models/ holds one bundle of d networks and one CV table covering them."""
    assert sorted(p.name for p in models.iterdir()) == ["fnn.json", "fnn_cv.csv"]
    doc = json.loads((models / "fnn.json").read_text())
    assert sorted(doc) == ["models"]
    assert [entry["target_index"] for entry in doc["models"]] == list(range(1, d + 1))
    with open(models / "fnn_cv.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({int(row["coord"]) for row in rows}) == list(range(1, d + 1))
    # one hidden size x one decay x one repeat x three folds per coordinate
    assert len(rows) == 3 * d


def test_one_fnn_model_per_coordinate(pipeline_run):
    assert_fnn_bundle(pipeline_run["out"] / "models", 5)


def test_forecast_shapes(pipeline_run):
    forecasts = pipeline_run["out"] / "forecasts"
    for name in ("fnn_gh", "koopman", "nrw"):
        lines = (forecasts / f"{name}_ambient.csv").read_text().splitlines()
        assert len(lines) == 1 + 20
        assert len(lines[0].split(",")) == 6
        reduced = (forecasts / f"{name}_reduced.csv").read_text().splitlines()
        assert len(reduced) == 1 + 20


def test_rerun_is_byte_identical(pipeline_run):
    before = tree_bytes(pipeline_run["out"])
    rc = main(["run", "--all", "--config", pipeline_run["cfg"]])
    assert rc == 0
    after = tree_bytes(pipeline_run["out"])
    assert before.keys() == after.keys()
    assert all(before[k] == after[k] for k in before)


def test_stage_isolation(pipeline_run):
    out = pipeline_run["out"]
    before = tree_bytes(out)
    for sub in ("models", "forecasts", "reports"):
        shutil.rmtree(out / sub)
    assert main(["forecast", "--config", pipeline_run["cfg"]]) == 0
    after = tree_bytes(out)
    assert before.keys() == after.keys()
    assert all(before[k] == after[k] for k in before)


def test_run_all_parses_the_input_once_and_reads_back_no_embedding(
    stimulus_run, tmp_path, monkeypatch
):
    # glm and embed both read the series; forecast takes the embedding that
    # embed built
    raw = json.loads(pathlib.Path(stimulus_run["cfg"]).read_text())
    cfg_path = write_config(tmp_path / "run.json", **{**raw, "output_dir": str(tmp_path / "run")})
    calls = {"load_timeseries": 0, "load_embedding": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(cli, "load_timeseries")
    counted(dmaps, "load_embedding")
    assert main(["run", "--all", "--config", cfg_path]) == 0
    assert calls == {"load_timeseries": 1, "load_embedding": 0}


def test_embed_hands_on_what_train_and_forecast_read_back(pipeline_run, tmp_path):
    # the same values in the same memory layout: BLAS sums a column-major array
    # in another order than a row-major one, which moves the models' bits
    raw = json.loads(pathlib.Path(pipeline_run["cfg"]).read_text())
    cfg_path = write_config(tmp_path / "run.json", **{**raw, "output_dir": str(tmp_path / "run")})
    cfg = load_config(cfg_path)
    paths = cli.RunPaths(cfg.output_dir)
    handed = cli.cmd_embed(cfg, paths)
    read = cli._read_embedded(cfg, paths)
    assert handed.report.selected == read.report.selected
    assert handed.channels == read.channels and handed.embedding.sigma == read.embedding.sigma
    for got, want in [
        (handed.train, read.train),
        (handed.test, read.test),
        (handed.embedding.eigenvalues, read.embedding.eigenvalues),
        (handed.embedding.eigenvectors, read.embedding.eigenvectors),
        (handed.embedding.degrees, read.embedding.degrees),
        (dmaps.coords_for(handed.embedding, handed.report.selected),
         dmaps.coords_for(read.embedding, read.report.selected)),
    ]:
        assert np.array_equal(got, want)
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
            want.flags.c_contiguous, want.flags.f_contiguous)


@pytest.mark.parametrize("run", ["pipeline_run", "stimulus_run"])
def test_run_all_writes_the_tree_of_its_stages_run_one_by_one(request, tmp_path, run):
    # run --all hands each stage what the one before it built; the stages run
    # alone read it back from disk, and must write the same bytes
    raw = json.loads(pathlib.Path(request.getfixturevalue(run)["cfg"]).read_text())
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.json", **{**raw, "output_dir": str(out)})
    assert main(["run", "--all", "--config", cfg_path]) == 0
    all_at_once = tree_bytes(out)
    shutil.rmtree(out)
    stages = (["glm"] if raw.get("epochs") else []) + ["embed", "forecast"]
    for stage in stages:
        assert main([stage, "--config", cfg_path]) == 0, stage
    one_by_one = tree_bytes(out)
    assert one_by_one.keys() == all_at_once.keys()
    assert [name for name in one_by_one if one_by_one[name] != all_at_once[name]] == []


def test_nrw_reduced_then_lift_from_run_artifacts(pipeline_run):
    emb = pipeline_run["out"] / "embedding"
    embedding = load_run_embedding(pipeline_run["cfg"], emb)
    selected = parsimony.load_report(emb / "parsimony.json").selected
    train = read_matrix(emb / "train_ambient.csv")[0]
    test, names = read_matrix(emb / "test_ambient.csv")
    coords = dmaps.coords_for(embedding, selected)
    restricted = nystrom_restrict(embedding, train, test, selected)
    walked = np.vstack([coords[-1:], restricted[:-1]])
    forecasts = pipeline_run["out"] / "forecasts"
    assert np.array_equal(read_matrix(forecasts / "nrw_reduced.csv")[0], walked)
    lifted = gh_lift(gh_fit(coords, train), walked)
    assert np.array_equal(read_matrix(forecasts / "nrw_ambient.csv")[0], lifted)
    # the baseline's rows of the comparison table score that lifted walk
    with open(pipeline_run["out"] / "reports" / "comparison.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["method"] == "nrw"]
    assert [row["region"] for row in rows] == names
    sq = np.sum((lifted - test) ** 2, axis=0)
    rmse = [float(row["rmse"]) for row in rows]
    l2 = [float(row["l2"]) for row in rows]
    assert np.allclose(rmse, np.sqrt(sq / len(test)), rtol=1e-12, atol=0)
    assert np.allclose(l2, np.sqrt(sq), rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def smaller_d_run(pipeline_run, tmp_path_factory):
    """The d=5 run copied, then embedded and forecast again with d=3."""
    run = tmp_path_factory.mktemp("smaller_d") / "run"
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], run, parsimony={"d": 3})
    for stage in (["embed"], ["forecast"]):
        assert main([*stage, "--config", cfg_path]) == 0
    return {"cfg": cfg_path, "out": run}


def test_smaller_d_training_leaves_a_smaller_bundle(smaller_d_run):
    assert_fnn_bundle(smaller_d_run["out"] / "models", 3)


def test_only_forecast_scores_and_it_scores_its_own_forecasts(smaller_d_run, tmp_path, capsys):
    run, cfg_path = smaller_d_run["out"], smaller_d_run["cfg"]
    with pytest.raises(SystemExit) as exc:   # no stage scores the d=5 forecasts
        main(["evaluate", "--config", cfg_path])
    assert exc.value.code == 2
    assert "invalid choice: 'evaluate'" in capsys.readouterr().err
    assert main(["forecast", "--config", cfg_path]) == 0
    assert read_matrix(run / "forecasts" / "fnn_gh_reduced.csv")[0].shape[1] == 3
    test, names = read_matrix(run / "embedding" / "test_ambient.csv")
    ambient = {
        method: read_matrix(run / "forecasts" / f"{method}_ambient.csv")[0]
        for method in ("fnn_gh", "koopman", "nrw")
    }
    write_comparison(comparison_table(ambient, test, names), tmp_path / "comparison.csv")
    expected = (tmp_path / "comparison.csv").read_bytes()
    assert (run / "reports" / "comparison.csv").read_bytes() == expected


def test_zero_horizon_is_a_validation_error(pipeline_run, tmp_path, capsys):
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], tmp_path / "clone")
    test_csv = tmp_path / "clone" / "embedding" / "test_ambient.csv"
    header = test_csv.read_text().splitlines()[0]
    test_csv.write_text(header + "\n")
    rc = main(["forecast", "--config", cfg_path])
    assert rc == 2
    assert "empty test set" in capsys.readouterr().err


@pytest.mark.parametrize("bundle", ["corrupt", "w1_b1_apart", "another_embedding"])
def test_forecast_overwrites_the_models_it_finds(pipeline_run, smaller_d_run, tmp_path, bundle):
    # no stage reads a bundle back, so forecast neither trusts nor refuses one
    clone = tmp_path / "clone"
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone)
    models = clone / "models"
    if bundle == "corrupt":
        (models / "fnn.json").write_text('{"models": [')
    elif bundle == "w1_b1_apart":   # the layout before u = [w1' | b1]
        doc = json.loads((models / "fnn.json").read_text())
        for entry in doc["models"]:
            u = np.array(entry.pop("u"))
            entry["w1"], entry["b1"] = u[:, :-1].T.tolist(), u[:, -1].tolist()
        (models / "fnn.json").write_text(json.dumps(doc))
    else:   # the d=3 networks, trained on another selection
        shutil.rmtree(models)
        shutil.copytree(smaller_d_run["out"] / "models", models)
    assert main(["forecast", "--config", cfg_path]) == 0
    for sub in ("models", "forecasts", "reports"):
        assert tree_bytes(clone / sub) == tree_bytes(pipeline_run["out"] / sub), sub


def test_the_bundle_records_the_models_forecast_steps(pipeline_run, tmp_path, monkeypatch):
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], tmp_path / "clone")
    real, stepped = rom_fnn.fnn_forecast, []

    def recorded(models, *args):
        stepped.extend(models)
        return real(models, *args)

    monkeypatch.setattr(rom_fnn, "fnn_forecast", recorded)
    assert main(["forecast", "--config", cfg_path]) == 0
    entries = json.loads((tmp_path / "clone" / "models" / "fnn.json").read_text())["models"]
    assert len(stepped) == len(entries) == 5
    for model, entry in zip(stepped, entries):
        assert (entry["target_index"], entry["hidden_size"]) == (
            model.target_index, model.hidden_size)
        assert entry["b_out"] == model.b_out
        for key in ("u", "w_out"):
            assert np.array_equal(np.array(entry[key]), getattr(model, key))


def test_a_stale_embedding_is_refused(pipeline_run, tmp_path, capsys):
    clone = tmp_path / "clone"
    changed = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone, dmaps={"sigma": 40.0})
    before = tree_bytes(clone)
    assert main(["forecast", "--config", changed]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [forecast] {clone / 'embedding'}: ")
    assert "rerun embed" in err
    assert tree_bytes(clone) == before   # meta.json too: it echoes only a finished command
    same = write_config(tmp_path / "same.json", **{
        **json.loads(pathlib.Path(pipeline_run["cfg"]).read_text()), "output_dir": str(clone)
    })
    assert main(["forecast", "--config", same]) == 0


def test_a_unit_norm_embedding_is_refused(pipeline_run, tmp_path, capsys):
    clone = tmp_path / "clone"
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone)
    vectors = clone / "embedding" / "eigenvectors.csv"
    vecs, names = read_matrix(vectors)
    write_matrix(vectors, vecs / np.sqrt(len(vecs)), names)   # unit-norm columns
    before = tree_bytes(clone)
    assert main(["forecast", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [forecast] {clone / 'embedding'}: psi_0 ")
    assert "rerun embed" in err
    assert tree_bytes(clone) == before


def test_an_embedding_of_another_input_file_is_refused(pipeline_run, tmp_path, capsys):
    raw = json.loads(pathlib.Path(pipeline_run["cfg"]).read_text())
    inp = tmp_path / "series.csv"
    shutil.copy(raw["input"], inp)
    clone = tmp_path / "clone"
    resynth = {**raw["synth"], "seed": 1, "noise": 0.05}
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone, input=str(inp),
                         synth=resynth)
    assert main(["embed", "--config", cfg_path]) == 0
    assert main(["synth", "--config", cfg_path]) == 0   # same path and config, other bytes
    capsys.readouterr()
    before = tree_bytes(clone)
    assert main(["forecast", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [forecast] {clone / 'embedding'}: ")
    assert "rerun embed" in err
    assert tree_bytes(clone) == before
    for stage in (["embed"], ["forecast"]):
        assert main([*stage, "--config", cfg_path]) == 0


def test_unchanged_re_embed_keeps_the_models_valid(pipeline_run, tmp_path):
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], tmp_path / "clone")
    for stage in ("embed", "forecast"):
        assert main([stage, "--config", cfg_path]) == 0
    assert tree_bytes(tmp_path / "clone" / "forecasts") == tree_bytes(
        pipeline_run["out"] / "forecasts"
    )


def test_failed_training_leaves_no_models_forecasts_or_table(
    pipeline_run, tmp_path, monkeypatch, capsys
):
    clone = tmp_path / "clone"
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone)
    real, calls = rom_fnn._train_fits, []

    def diverging_final(fits, cfg):
        calls.append(len(fits))
        trained = real(fits, cfg)
        if len(calls) == 2:   # the final retraining, after the CV fits
            trained = [(*params, float("nan")) for *params, _ in trained]
        return trained

    monkeypatch.setattr(rom_fnn, "_train_fits", diverging_final)
    assert main(["forecast", "--config", cfg_path]) == 1
    assert calls == [15, 5]
    assert capsys.readouterr().err.startswith("error [rom_fnn] final retraining diverged")
    assert not (clone / "models" / "fnn.json").exists()
    assert list((clone / "forecasts").iterdir()) == []
    assert not (clone / "reports" / "comparison.csv").exists()


def test_train_is_no_longer_a_command(pipeline_run, capsys):
    # forecast fits the FNN models, beside the Koopman predictor and the GH lift
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", pipeline_run["cfg"]])
    assert exc.value.code == 2
    assert "invalid choice: 'train'" in capsys.readouterr().err


def test_forecast_fits_koopman_on_the_current_embedding(pipeline_run, tmp_path):
    sigma = load_run_embedding(pipeline_run["cfg"], pipeline_run["out"] / "embedding").sigma
    clone = tmp_path / "clone"
    dmaps_cfg = {"sigma": 3 * sigma, "k": 10}
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone, dmaps=dmaps_cfg)
    for stage in (["embed"], ["forecast"]):
        assert main([*stage, "--config", cfg_path]) == 0
    emb = clone / "embedding"
    selected = parsimony.load_report(emb / "parsimony.json").selected
    coords = dmaps.coords_for(load_run_embedding(cfg_path, emb), selected)
    train = read_matrix(emb / "train_ambient.csv")[0]
    test, names = read_matrix(emb / "test_ambient.csv")
    model = fit_koopman_model(coords, train)
    reduced, ambient = koopman_forecast(model, coords[-1], len(test))
    write_matrix(tmp_path / "reduced.csv", reduced, [f"y_{j}" for j in range(len(selected))])
    write_matrix(tmp_path / "ambient.csv", ambient, names)
    for name in ("reduced", "ambient"):
        fresh = (tmp_path / f"{name}.csv").read_bytes()
        assert (clone / "forecasts" / f"koopman_{name}.csv").read_bytes() == fresh
    old = (pipeline_run["out"] / "forecasts" / "koopman_ambient.csv").read_bytes()
    assert old != (tmp_path / "ambient.csv").read_bytes()


def test_forecast_prints_gh_sigma_and_rank(pipeline_run, tmp_path, capsys):
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], tmp_path / "clone")
    assert main(["forecast", "--config", cfg_path]) == 0
    emb = tmp_path / "clone" / "embedding"
    report = parsimony.load_report(emb / "parsimony.json")
    coords = dmaps.coords_for(load_run_embedding(cfg_path, emb), report.selected)
    model = gh_fit(coords, read_matrix(emb / "train_ambient.csv")[0])
    line = (
        f"forecast: geometric harmonics sigma {model.gh_sigma!r}, rank {model.d_gh}, "
        f"leave-one-out rms {model.loo_rms:.3e}"
    )
    assert line in capsys.readouterr().out.splitlines()


def test_a_run_failing_in_the_lifting_stage_echoes_the_stages_that_finished(
    pipeline_run, tmp_path, capsys, monkeypatch
):
    clone = tmp_path / "clone"
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], clone,
                         dmaps={"sigma": 40.0, "k": 10})

    def failing_gh_fit(*args, **kwargs):
        raise ValueError("the lift has no basis")

    monkeypatch.setattr(lifting, "gh_fit", failing_gh_fit)
    assert (clone / "reports" / "comparison.csv").exists()
    assert main(["run", "--all", "--config", cfg_path]) == 2
    assert "[lifting]" in capsys.readouterr().err
    # no table is left to score the forecasts the failed stage removed
    assert os.listdir(clone / "forecasts") == []
    assert not (clone / "reports" / "comparison.csv").exists()
    # meta.json speaks for the embedding that the finished stages wrote
    assert json.loads((clone / "embedding" / "meta.json").read_text())["sigma"] == 40.0
    meta = json.loads((clone / "meta.json").read_text())
    payload = asdict(load_config(cfg_path))
    assert meta["config_sha256"] == artifacts.json_sha256(payload).hexdigest()
    assert meta["config"]["dmaps"]["sigma"] == 40.0


def test_lock_file_blocks_concurrent_runs(pipeline_run, tmp_path, capsys):
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], tmp_path / "clone")
    lock = tmp_path / "clone" / ".lock"
    with open(lock, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc = main(["forecast", "--config", cfg_path])
        # a failed acquire must not release the holder's lock
        with open(lock, "a") as probe, pytest.raises(BlockingIOError):
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
    assert rc == 1
    assert "locked" in capsys.readouterr().err


def test_lock_of_a_killed_run_does_not_block(pipeline_run, tmp_path):
    cfg_path = clone_run(pipeline_run["cfg"], pipeline_run["out"], tmp_path / "clone")
    lock = tmp_path / "clone" / ".lock"
    holder_code = (
        "import fcntl, sys, time\n"
        "fh = open(sys.argv[1], 'a')\n"
        "fcntl.flock(fh, fcntl.LOCK_EX)\n"
        "print('held', flush=True)\n"
        "time.sleep(60)\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", holder_code, str(lock)], stdout=subprocess.PIPE, text=True
    ) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
        finally:
            holder.kill()   # SIGKILL: the holder gets no chance to clean up
    assert lock.exists()
    assert main(["forecast", "--config", cfg_path]) == 0


@pytest.mark.parametrize("out, fault", [("afile", "File exists"),
                                        ("afile/out", "Not a directory")],
                         ids=["is_a_file", "under_a_file"])
def test_an_output_dir_blocked_by_a_file_exits_2_naming_it(tmp_path, capsys, out, fault):
    (tmp_path / "afile").write_text("kept\n")
    out = tmp_path / out
    cfg_path = write_config(tmp_path / "run.json", input="x.csv", output_dir=str(out))
    assert main(["embed", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        f"error [config] output_dir {str(out)!r} cannot be made a directory: {fault}"
    )
    assert "Traceback" not in err and (tmp_path / "afile").read_text() == "kept\n"


def test_an_input_that_is_a_directory_exits_2_under_ingest(tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    cfg_path = write_config(tmp_path / "run.json", input=str(tmp_path / "adir"),
                            output_dir=str(tmp_path / "out"))
    assert main(["run", "--all", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [ingest] ") and "Is a directory" in err
    assert not (tmp_path / "out" / "embedding").exists()


@pytest.mark.parametrize("command", [["synth"], ["run", "--all"]], ids=["synth", "run"])
@pytest.mark.parametrize("under, fault", [("afile", "File exists"),
                                          ("afile/sub", "Not a directory")],
                         ids=["under_a_file", "two_under_a_file"])
def test_an_input_under_a_file_exits_2_under_synth_naming_it(tmp_path, capsys, command, under,
                                                             fault):
    (tmp_path / "afile").write_text("kept\n")
    inp = str(tmp_path / under / "x.csv")
    cfg_path = write_config(tmp_path / "run.json", input=inp, output_dir=str(tmp_path / "out"),
                            synth={"ambient_dim": 3, "n_times": 20})
    assert main([*command, "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        f"error [synth] input {inp!r} cannot be written: its directory cannot be made: {fault}"
    )
    assert "Traceback" not in err and (tmp_path / "afile").read_text() == "kept\n"


def test_synth_writes_the_ground_truth_as_a_json_document(tmp_path, capsys):
    synth = {"ambient_dim": 6, "n_times": 40, "seed": 1}
    cfg_path = write_config(tmp_path / "run.json", input=str(tmp_path / "x.csv"),
                            output_dir=str(tmp_path / "out"), synth=synth)
    assert main(["synth", "--config", cfg_path]) == 0
    path = tmp_path / "x_truth.json"
    assert f"synth: ground truth in {path}" in capsys.readouterr().out
    # write_json's format: sorted keys, one-space indent, trailing newline
    doc = json.loads(path.read_text())
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    *_, truth = generate_synthetic(SynthConfig(**synth))
    assert np.array_equal(doc["latent"], truth.latent)
    assert np.array_equal(doc["weights"], truth.weights)
    assert np.array_equal(doc["phases"], truth.phases)
    assert doc["dynamics"] == truth.dynamics and doc["amplitude"] == truth.amplitude


# runs `run --all`, and SIGKILLs itself after writing part of the temp file
# of the artifact named by argv[1]
KILLED_WRITER = """\
import os, signal, sys
from contextlib import contextmanager
from dmrom import artifacts
from dmrom.cli import main

victim, replacing = sys.argv[1], artifacts._replacing

@contextmanager
def dying(path):
    with replacing(path) as fh:
        if path.endswith(victim):
            fh.write("a,b\\r\\n1.0,")
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        yield fh

artifacts._replacing = dying
main(["run", "--all", "--config", sys.argv[2]])
"""


@pytest.fixture(scope="module")
def uninterrupted_run(pipeline_run, tmp_path_factory):
    """A config whose output_dir each killed-run case reuses, and its complete run."""
    base = tmp_path_factory.mktemp("cli_killed")
    raw = json.loads(pathlib.Path(pipeline_run["cfg"]).read_text())
    cfg_path = write_config(base / "run.json", **{**raw, "output_dir": str(base / "run")})
    assert main(["run", "--all", "--config", cfg_path]) == 0
    return {"cfg": cfg_path, "out": base / "run", "bytes": tree_bytes(base / "run")}


@pytest.mark.parametrize(
    "victim", ["embedding/eigenvectors.csv", "models/fnn.json", "forecasts/koopman_ambient.csv"]
)
def test_a_killed_run_leaves_no_partial_artifact(uninterrupted_run, victim):
    cfg_path, out = uninterrupted_run["cfg"], uninterrupted_run["out"]
    want = uninterrupted_run["bytes"]
    shutil.rmtree(out)
    src = str(pathlib.Path(dmaps.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WRITER, victim, cfg_path],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    with open(out / ".lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fcntl.flock(fh, fcntl.LOCK_UN)
    stray = [str(p.relative_to(out)) for p in out.rglob("*.tmp")]
    assert len(stray) == 1 and stray[0].startswith(f"{victim}.") and stray[0].endswith(".tmp")
    assert not (out / victim).exists()
    # every artifact in place parses and is the one the complete run wrote
    for name, data in tree_bytes(out).items():
        if name.endswith(".csv"):
            rows = list(csv.reader(data.decode().splitlines()))
            assert rows and all(len(row) == len(rows[0]) for row in rows)
        elif name.endswith(".json"):
            json.loads(data)
        if not name.endswith(".tmp"):
            assert data == want[name], name
    assert main(["embed", "--config", cfg_path]) == 0   # the next command, under the lock
    assert not list(out.rglob("*.tmp"))
    assert main(["run", "--all", "--config", cfg_path]) == 0
    assert tree_bytes(out) == want


def test_a_killed_embed_of_another_input_keeps_the_old_digest(uninterrupted_run, tmp_path, capsys):
    # embed writes the embedding's made_from digest last, so a kill while it
    # writes the ambient blocks of a new input leaves the old digest, and
    # forecast refuses the old blocks instead of lifting through them
    raw = json.loads(pathlib.Path(uninterrupted_run["cfg"]).read_text())
    cfg_path = clone_run(
        uninterrupted_run["cfg"], uninterrupted_run["out"], tmp_path / "run",
        input=str(tmp_path / "other.csv"), synth={**raw["synth"], "seed": 1},
    )
    src = str(pathlib.Path(dmaps.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WRITER, "embedding/train_ambient.csv", cfg_path],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    capsys.readouterr()
    assert main(["forecast", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [forecast] ") and err.endswith("; rerun embed\n"), err
    meta = "embedding/meta.json"
    assert (tmp_path / "run" / meta).read_bytes() == uninterrupted_run["bytes"][meta]


KILLED_TRAINER = """\
import os, signal, sys, time
from dmrom import rom_fnn
from dmrom.cli import main

report, parent, real = sys.argv[1], os.getpid(), rom_fnn._train_stack

def stack(*args):
    if os.getpid() == parent:
        # die mid-training, once a worker has said it is training
        deadline = time.monotonic() + 60
        while not os.path.exists(report) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    with open(report + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(report + ".tmp", report)
    time.sleep(60)
    return real(*args)

rom_fnn._train_stack = stack
rom_fnn.os.sched_getaffinity = lambda pid: {0, 1}
main(["forecast", "--config", sys.argv[2]])
"""


def process_alive(pid: int) -> bool:
    """Whether pid runs: not gone, and not a zombie left for its new parent to reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def test_a_killed_train_frees_the_lock_and_ends_its_workers(uninterrupted_run, tmp_path):
    # forecast trains the FNNs in forked workers; SIGKILL while it trains must
    # not leave one holding the run's lock, or running on
    cfg_path = clone_run(uninterrupted_run["cfg"], uninterrupted_run["out"], tmp_path / "run")
    report = tmp_path / "worker.pid"
    src = str(pathlib.Path(dmaps.__file__).resolve().parents[1])
    # output to a file, not a pipe: a worker holds its parent's stdout and
    # stderr, so reading a pipe to its end would wait for the worker too
    with open(tmp_path / "train.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", KILLED_TRAINER, str(report), cfg_path],
            env={**os.environ, "PYTHONPATH": src},
            stdout=log,
            stderr=log,
        )
        assert proc.wait(timeout=120) == -signal.SIGKILL, (tmp_path / "train.log").read_text()
    worker = int(report.read_text())
    deadline = time.monotonic() + 1.0
    with open(tmp_path / "run" / ".lock", "a") as fh:
        while True:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                assert time.monotonic() < deadline, "the run's lock is still held"
                time.sleep(0.01)
        fcntl.flock(fh, fcntl.LOCK_UN)
    while process_alive(worker):
        assert time.monotonic() < deadline, f"worker {worker} outlived the killed train"
        time.sleep(0.01)


# ---------------------------------------------------------- stimulus input


def alternating_epochs(n: int, block: int) -> list:
    return [["A" if (s // block) % 2 == 0 else "B", s, min(s + block, n)]
            for s in range(0, n, block)]


@pytest.fixture(scope="module")
def stimulus_run(pipeline_run, tmp_path_factory):
    """The pipeline config with alternating A/B stimulus blocks and one contrast."""
    base = tmp_path_factory.mktemp("cli_stimulus")
    raw = json.loads(pathlib.Path(pipeline_run["cfg"]).read_text())
    cfg_path = write_config(
        base / "run.json",
        **{**raw, "input": str(base / "data" / "series.csv"), "output_dir": str(base / "run")},
        epochs=alternating_epochs(140, 10),
        conditions=["A", "B"],
        glm={"contrasts": {"A_gt_B": [1.0, -1.0]}},
    )
    assert main(["run", "--all", "--config", cfg_path]) == 0
    return {"cfg": cfg_path, "out": base / "run"}


def test_stimulus_run_writes_the_activity_report(stimulus_run):
    assert [p.name for p in (stimulus_run["out"] / "reports").glob("activity_*.csv")] == [
        "activity_A_gt_B.csv"
    ]


def test_no_activity_report_outlives_its_contrast(stimulus_run, tmp_path):
    # glm keeps only the reports of the config's contrasts, and run --all
    # without epochs keeps none
    raw = json.loads(pathlib.Path(stimulus_run["cfg"]).read_text())
    reports = tmp_path / "run" / "reports"
    for name, vec in (("A_gt_B", [1.0, -1.0]), ("B_gt_A", [-1.0, 1.0])):
        cfg_path = write_config(tmp_path / f"{name}.json", **{
            **raw, "output_dir": str(tmp_path / "run"), "glm": {"contrasts": {name: vec}}})
        assert main(["glm", "--config", cfg_path]) == 0
        assert [p.name for p in reports.glob("activity_*.csv")] == [f"activity_{name}.csv"]
    plain = {k: v for k, v in raw.items() if k not in ("epochs", "conditions", "glm")}
    cfg_path = write_config(tmp_path / "plain.json",
                            **{**plain, "output_dir": str(tmp_path / "run")})
    assert main(["run", "--all", "--config", cfg_path]) == 0
    assert [p.name for p in reports.iterdir()] == ["comparison.csv"]


def test_stimulus_forecast_steps_from_the_last_training_row(stimulus_run):
    cfg = load_config(stimulus_run["cfg"])
    emb, models_dir = stimulus_run["out"] / "embedding", stimulus_run["out"] / "models"
    selected = parsimony.load_report(emb / "parsimony.json").selected
    coords = dmaps.coords_for(load_run_embedding(stimulus_run["cfg"], emb), selected)
    n, h = cfg.n_train, 20
    design = build_design_matrix(list(cfg.epochs), n + h, list(cfg.conditions))
    entries = json.loads((models_dir / "fnn.json").read_text())["models"]
    keys = ("u", "w_out", "b_out", "target_index")
    models = [rom_fnn.FnnModel(**{key: entry[key] for key in keys}) for entry in entries]
    expected = rom_fnn.fnn_forecast(models, coords[-1], design[n - 1 : n - 1 + h], h)
    written = read_matrix(stimulus_run["out"] / "forecasts" / "fnn_gh_reduced.csv")[0]
    assert np.array_equal(written, expected)


def test_a_dmaps_alpha_key_exits_2_before_the_glm_stage(stimulus_run, tmp_path, capsys):
    # the density normalization is always alpha = 1, so the key is unknown at any value
    raw = json.loads(pathlib.Path(stimulus_run["cfg"]).read_text())
    cfg_path = write_config(tmp_path / "alpha.json", **{
        **raw, "output_dir": str(tmp_path / "run"), "dmaps": {**raw["dmaps"], "alpha": 1.0}})
    assert main(["run", "--all", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == (
        "error [config]: unknown key(s) in config section 'dmaps': alpha\n"
    )
    assert not (tmp_path / "run").exists()


def test_forecast_retrains_the_models_on_changed_epochs(stimulus_run, tmp_path):
    # embed's digest does not bind the epochs, so a forecast after an epoch
    # change reuses the embedding and trains on the new design
    epochs = alternating_epochs(140, 7)
    clone = tmp_path / "clone"
    cfg_path = clone_run(stimulus_run["cfg"], stimulus_run["out"], clone, epochs=epochs)
    assert main(["forecast", "--config", cfg_path]) == 0
    raw = json.loads(pathlib.Path(cfg_path).read_text())
    fresh = tmp_path / "fresh"
    assert main(["run", "--all", "--config", write_config(
        tmp_path / "fresh.json", **{**raw, "output_dir": str(fresh)})]) == 0
    assert tree_bytes(clone / "models") != tree_bytes(stimulus_run["out"] / "models")
    for sub in ("models", "forecasts"):
        assert tree_bytes(clone / sub) == tree_bytes(fresh / sub), sub
    comparison = "reports/comparison.csv"
    assert (clone / comparison).read_bytes() == (fresh / comparison).read_bytes()


def test_forecast_checks_the_epochs_against_the_whole_series(stimulus_run, tmp_path, capsys):
    epochs = alternating_epochs(140, 10)
    epochs[-1][2] = 141
    clone = tmp_path / "clone"
    cfg_path = clone_run(stimulus_run["cfg"], stimulus_run["out"], clone, epochs=epochs)
    before = tree_bytes(clone)
    assert main(["forecast", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("error [forecast]")
    assert tree_bytes(clone) == before   # refused before the old outputs are cleared


def test_an_epoch_past_the_series_fails_in_the_ingest_stage(tmp_path, capsys):
    # found by embed before it writes a file, not by forecast after it
    inp = tmp_path / "series.csv"
    rows = np.column_stack([np.cos(np.arange(400) / 7.0), np.sin(np.arange(400) / 5.0)])
    write_matrix(inp, rows, ["a", "b"])
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "run.json", input=str(inp), output_dir=str(out),
                            n_train=320, epochs=[["A", 390, 450]], conditions=["A"])
    assert main(["run", "--all", "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error [ingest] epoch [390, 450) out of range for 400 time points\n"
    assert not (out / "embedding").exists() and not (out / "meta.json").exists()


def test_missing_input_without_synth(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "run.json",
        input=str(tmp_path / "absent.csv"),
        output_dir=str(tmp_path / "out"),
    )
    rc = main(["run", "--all", "--config", cfg_path])
    assert rc == 2
    assert "input file not found" in capsys.readouterr().err


def embed_small_series(tmp_path, cells, n_train: int, header: str = "a,b") -> int:
    """`embed` on a 2-channel input whose rows are the given cell pairs."""
    inp = tmp_path / "series.csv"
    inp.write_text(header + "\n" + "".join(f"{x},{y}\n" for x, y in cells))
    # fnn.folds must stay below n_train, though embed trains nothing
    cfg_path = write_config(tmp_path / "run.json", input=str(inp),
                            output_dir=str(tmp_path / "out"), n_train=n_train, fnn={"folds": 2})
    return main(["embed", "--config", cfg_path])


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_input_fails_in_the_ingest_stage(tmp_path, capsys, cell):
    cells = [(repr(float(i % 3)), repr(float(i * i % 5))) for i in range(12)]
    cells[7] = (cells[7][0], cell)
    assert embed_small_series(tmp_path, cells, n_train=8) == 2
    err = capsys.readouterr().err
    assert "[ingest]" in err and "non-finite" in err
    assert not (tmp_path / "out" / "embedding").exists()


def test_repeated_channel_names_fail_in_the_ingest_stage(tmp_path, capsys):
    cells = [(repr(float(i % 3)), repr(float(i * i % 5))) for i in range(12)]
    assert embed_small_series(tmp_path, cells, n_train=8, header="a, a ") == 2
    err = capsys.readouterr().err
    assert "[ingest]" in err and "repeated channel name(s): 'a'" in err
    assert not (tmp_path / "out" / "embedding").exists()


def test_a_dead_channel_fails_in_the_ingest_stage_naming_it(tmp_path, capsys):
    # a straight line is constant once detrended; it is never dropped
    cells = [(repr(2.0 + 3.0 * i), repr(float(i * i % 5))) for i in range(12)]
    assert embed_small_series(tmp_path, cells, n_train=8, header="line,b") == 2
    err = capsys.readouterr().err
    assert err == "error [ingest] constant channel(s) after detrending: line\n"
    assert not (tmp_path / "out" / "embedding").exists()


@pytest.mark.parametrize(
    "header, cell, message",
    [("a,a ,c", "1.0", "repeated channel name(s): 'a'"), ("a,b,c", "nan", "non-finite")],
)
def test_glm_input_faults_fail_in_the_ingest_stage(tmp_path, capsys, header, cell, message):
    rows = [[repr(float(i % 3)), repr(float(i * i % 5)), repr(float(i % 4))] for i in range(12)]
    rows[7][1] = cell
    inp = tmp_path / "s.csv"
    inp.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows))
    cfg_path = write_config(
        tmp_path / "run.json", input=str(inp), output_dir=str(tmp_path / "out"), n_train=8,
        fnn={"folds": 2}, epochs=[["A", 0, 6], ["B", 6, 12]], conditions=["A", "B"],
        glm={"contrasts": {"A_gt_B": [1.0, -1.0]}},
    )
    assert main(["run", "--all", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and message in err
    assert not (tmp_path / "out" / "reports").exists()


def test_the_longest_contrast_name_writes_its_report(tmp_path):
    # 'é' takes 2 bytes: the name takes exactly CONTRAST_NAME_BYTES, so its
    # report's temporary file name takes 248 bytes at a 7-digit pid
    name = "é" * 114 + "ab"
    assert len(name.encode()) == cli.CONTRAST_NAME_BYTES
    rows = [[repr(float(i % 3)), repr(float(i * i % 5))] for i in range(12)]
    inp = tmp_path / "s.csv"
    inp.write_text("a,b\n" + "".join(",".join(row) + "\n" for row in rows))
    cfg_path = write_config(
        tmp_path / "run.json", input=str(inp), output_dir=str(tmp_path / "out"), n_train=8,
        fnn={"folds": 2}, epochs=[["A", 0, 6], ["B", 6, 12]], conditions=["A", "B"],
        glm={"contrasts": {name: [1.0, -1.0]}},
    )
    assert main(["glm", "--config", cfg_path]) == 0
    assert [p.name for p in (tmp_path / "out" / "reports").iterdir()] == [f"activity_{name}.csv"]


def test_n_train_of_every_row_fails_in_the_ingest_stage(tmp_path, capsys):
    cells = [(repr(float(i % 3)), repr(float(i * i % 5))) for i in range(12)]
    assert embed_small_series(tmp_path, cells, n_train=12) == 2
    err = capsys.readouterr().err
    assert "[ingest]" in err and "n_train must be < 12" in err
    assert not (tmp_path / "out" / "embedding").exists()


# ------------------------------------------------------------- strip input


@pytest.fixture(scope="module")
def strip_run(tmp_path_factory):
    """Planar strip, rotated 45 degrees and shuffled, embedded via the CLI.

    The rotation splits both intrinsic axes across both channels so the
    per-channel standardization rescales the cloud isotropically, and the
    shuffle removes any temporal ramp the detrend could latch onto.
    """
    base = tmp_path_factory.mktemp("cli_strip")
    rng = np.random.default_rng(42)
    pts = np.column_stack([rng.uniform(0, 3.6, 300), rng.uniform(0, 1.0, 300)])
    theta = np.pi / 4
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    shuffled = (pts @ rot.T)[np.random.default_rng(7).permutation(300)]
    inp = base / "strip.csv"
    with open(inp, "w") as fh:
        fh.write("u,v\n")
        for row in shuffled:
            fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
    cfg_path = write_config(
        base / "embed.json",
        input=str(inp),
        output_dir=str(base / "run"),
        n_train=298,
        dmaps={"sigma": 0.1, "k": 6},
        parsimony={"d": 2},
    )
    rc = main(["embed", "--config", cfg_path])
    assert rc == 0
    return {"cfg": cfg_path, "base": base, "input": inp}


def test_strip_selection_excludes_harmonic(strip_run):
    report = json.loads((strip_run["base"] / "run" / "embedding" / "parsimony.json").read_text())
    assert report["selected"] == [1, 4]
    assert 2 not in report["selected"]
    er = report["er"]
    assert er[1] < 0.3   # first harmonic of the long axis
    assert er[3] > 0.7   # cross-strip direction


def test_embed_prints_spectrum_and_selection(strip_run, tmp_path, capsys):
    cfg = json.loads(pathlib.Path(strip_run["cfg"]).read_text())
    cfg["output_dir"] = str(tmp_path / "run2")
    cfg_path = write_config(tmp_path / "embed2.json", **cfg)
    assert main(["embed", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "eigenvalues:" in out
    assert "selected coordinates: 1, 4" in out


def test_oversized_k_fails_in_the_dmaps_stage(strip_run, tmp_path, capsys):
    cfg = json.loads(pathlib.Path(strip_run["cfg"]).read_text())
    cfg["output_dir"] = str(tmp_path / "run_bad")
    cfg["dmaps"] = {"sigma": 0.1, "k": 298}
    cfg_path = write_config(tmp_path / "embed_bad.json", **cfg)
    rc = main(["embed", "--config", cfg_path])
    assert rc == 2
    assert "[dmaps]" in capsys.readouterr().err


def two_clusters_config(tmp_path, gap):
    """An embed config on 34 points in one cluster and 6 in another ``gap`` away.

    The median squared distance is a within-cluster one, so the auto kernel
    scale is too small to reach well across.
    """
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.normal(size=(34, 2)), rng.normal(size=(6, 2)) + gap])
    pts = pts[rng.permutation(40)]
    inp = tmp_path / "clusters.csv"
    inp.write_text("u,v\n" + "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist()))
    return write_config(
        tmp_path / "clusters.json",
        input=str(inp),
        output_dir=str(tmp_path / "run"),
        n_train=38,
        dmaps={"k": 4},
        parsimony={"d": 2},
    )


def test_disconnected_kernel_graph_fails_in_the_dmaps_stage(tmp_path, capsys):
    # 50 apart, the cross-cluster weights underflow to 0 and the eigenvalue 1 repeats
    rc = main(["embed", "--config", two_clusters_config(tmp_path, 50.0)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[dmaps]" in err and "disconnected" in err and "dmaps.sigma" in err
    assert not (tmp_path / "run" / "embedding").exists()


def test_a_nearly_split_kernel_graph_exits_2_in_the_dmaps_stage(tmp_path, capsys):
    # the decaying linear_stable trajectory crowds most points near the origin,
    # so the auto kernel scale leaves the early, wide turns coupled by tiny
    # weights: dozens of eigenvalues lie within DISCONNECTED_TOL of 1. The
    # randomized solve cannot meet its tolerance, and the full solve's
    # spectrum goes to the lambda_1 check
    cfg_path = write_config(
        tmp_path / "split.json",
        input=str(tmp_path / "split.csv"),
        output_dir=str(tmp_path / "run"),
        n_train=2000,
        dmaps={"k": 10},
        synth={"dynamics": "linear_stable", "n_times": 2400},
    )
    assert main(["synth", "--config", cfg_path]) == 0
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "dmrom.cli", "embed", "--config", cfg_path],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    first = proc.stderr.splitlines()[0]
    assert first.startswith("error [dmaps] kernel graph is disconnected"), proc.stderr
    assert not (tmp_path / "run" / "embedding").exists()


# prints {library path: thread count} of every OpenBLAS mapped into the process
# once the module named by argv[1] is imported
OPENBLAS_THREADS = """\
import ctypes, importlib, json, sys
importlib.import_module(sys.argv[1])
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
counts = {}
for path in paths:
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get is not None:
                counts[path] = get()
print(json.dumps(counts))
"""


def src_env(**extra) -> dict:
    """The environment of a child process that imports dmrom from this source tree."""
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(dmaps.__file__).resolve().parents[1]),
            **extra}


def test_cli_import_leaves_scipy_stats_unloaded():
    # nor any other scipy module, ARPACK included: numpy is the one numerical
    # library, and so no second OpenBLAS is loaded
    code = ("import sys, dmrom.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# runs the command line in a process where importing scipy fails
WITHOUT_SCIPY = """\
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
from dmrom.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_run_all_needs_no_scipy(stimulus_run, tmp_path):
    # the stimulus config runs every stage, glm included; a process that cannot
    # import scipy writes the tree an in-suite run writes
    raw = json.loads(pathlib.Path(stimulus_run["cfg"]).read_text())
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.json", **{**raw, "output_dir": str(out)})
    assert main(["run", "--all", "--config", cfg_path]) == 0
    in_suite = tree_bytes(out)
    shutil.rmtree(out)
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, "run", "--all", "--config", cfg_path],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    without = tree_bytes(out)
    assert without.keys() == in_suite.keys()
    assert [name for name in without if without[name] != in_suite[name]] == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc")
@pytest.mark.parametrize("module", ["dmrom", "dmrom.cli"])
def test_every_openblas_runs_on_one_thread_after_import(module):
    # importing the package pins numpy's OpenBLAS, the only one dmrom.cli
    # loads; the environment asks for 2 threads
    proc = subprocess.run([sys.executable, "-c", OPENBLAS_THREADS, module],
                          env=src_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, check=True)
    counts = json.loads(proc.stdout)
    if not counts:
        pytest.skip("no OpenBLAS is loaded")
    assert counts == dict.fromkeys(counts, 1)


def test_run_all_writes_the_same_bytes_at_any_openblas_thread_count(pipeline_run, tmp_path):
    # from about 160 training points on, OpenBLAS splits the GH lift's matrix
    # products over its threads, which moves the lifted forecasts' last bits
    raw = json.loads(pathlib.Path(pipeline_run["cfg"]).read_text())
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.json", **{
        **raw, "input": str(tmp_path / "series.csv"), "output_dir": str(out), "n_train": 160,
        "synth": {**raw["synth"], "ambient_dim": 50, "n_times": 200}})
    trees = []
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "dmrom.cli", "run", "--all", "--config", cfg_path],
                       env=src_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, check=True)
        trees.append(tree_bytes(out))
        shutil.rmtree(out)
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


# ------------------------------------------------------------------ config


def test_run_requires_all_flag(pipeline_run, capsys):
    rc = main(["run", "--config", pipeline_run["cfg"]])
    assert rc == 2
    assert "requires --all" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "bad.json",
        input="x.csv",
        output_dir=str(tmp_path / "out"),
        typo_section={},
    )
    rc = main(["embed", "--config", cfg_path])
    assert rc == 2
    assert "typo_section" in capsys.readouterr().err


def test_unknown_section_key(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "bad.json",
        input="x.csv",
        output_dir=str(tmp_path / "out"),
        dmaps={"bandwidth": 1.0},
    )
    rc = main(["embed", "--config", cfg_path])
    assert rc == 2
    assert "bandwidth" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    rc = main(["embed", "--config", str(cfg_path)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_seed_override(pipeline_run, capsys):
    # fnn.seed and synth.seed are each set only in their own section
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--seed", "5", "--config", pipeline_run["cfg"]])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_embed_hash_follows_only_the_fields_embed_reads(pipeline_run, tmp_path):
    raw = json.loads(pathlib.Path(pipeline_run["cfg"]).read_text())
    base = embed_hash(load_config(pipeline_run["cfg"]))

    def changed(**overrides):
        return embed_hash(load_config(write_config(tmp_path / "c.json", **{**raw, **overrides})))

    for field in [{"input": "other.csv"}, {"n_train": 119}, {"dmaps": {**raw["dmaps"], "k": 9}},
                  {"parsimony": {"d": 4}}]:
        assert changed(**field) != base, field
    for field in [{"output_dir": "elsewhere"}, {"fnn": {**raw["fnn"], "folds": 4, "seed": 3}},
                  {"synth": {**raw["synth"], "seed": 3}}]:
        assert changed(**field) == base, field
