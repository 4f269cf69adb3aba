"""Tests for the run config: parsing, defaults, the echo payload and its hash."""

import json
import os
import re
import tempfile
import typing
from dataclasses import asdict, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrom.artifacts import json_sha256
from dmrom.cli import (
    DmapsSection,
    GlmSection,
    ParsimonySection,
    RunConfig,
    embed_hash,
    load_config,
    main,
)
from dmrom.ingest import SynthConfig
from dmrom.rom_fnn import TrainConfig

MISSING = object()
SECTIONS = ("dmaps", "parsimony", "fnn", "glm", "synth")

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-12, max_value=1e12)
names = st.text(min_size=1, max_size=8)
# a contrast name is part of a file name, so it holds no '/' or NUL
contrast_names = names.filter(lambda name: "/" not in name and "\0" not in name)


@st.composite
def run_configs(draw):
    conditions = draw(st.lists(names, max_size=3, unique=True))
    epochs = []
    if conditions:
        # (condition, start, length) as [start, start + length) with 0 <= start < end
        triples = st.tuples(st.sampled_from(conditions), st.integers(0), st.integers(1))
        epochs = draw(st.lists(triples.map(lambda e: (e[0], e[1], e[1] + e[2]))))
    # one contrast entry per condition
    contrast = st.lists(finite, min_size=len(conditions), max_size=len(conditions)).map(tuple)
    synth = draw(st.none() | st.builds(
        SynthConfig,
        ambient_dim=st.integers(2, 100),
        n_times=st.integers(2, 10_000),
        noise=st.floats(min_value=0, max_value=10),
        seed=st.integers(0, 2**63),
        dynamics=st.sampled_from(["limit_cycle", "linear_stable"]),
    ))
    k = draw(st.integers(1, 100))
    folds = draw(st.integers(2, 20))
    return RunConfig(
        input=draw(names),
        output_dir=draw(names),
        # fnn.folds must stay below n_train
        n_train=draw(st.integers(folds + 1, 10**6)),
        epochs=tuple(epochs),
        conditions=tuple(conditions),
        dmaps=DmapsSection(sigma=draw(st.just("auto") | positive), k=k),
        # parsimony.d may not pass dmaps.k
        parsimony=ParsimonySection(d=draw(st.integers(1, min(k, 20)))),
        fnn=TrainConfig(
            hidden_sizes=tuple(
                draw(st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True))
            ),
            decay_values=tuple(draw(st.lists(positive, min_size=1, max_size=4, unique=True))),
            folds=folds,
            repeats=draw(st.integers(1, 20)),
            seed=draw(st.integers(0, 2**63)),
        ),
        glm=GlmSection(contrasts=draw(st.dictionaries(contrast_names, contrast))),
        synth=synth,
    )


def row(label, *values):
    """A table row whose test id is its label and its message, the last value.

    The ids are explicit, so adding or deleting a row renames no other row's
    test. A label is the row's position when the ids were fixed; a new row
    takes the next free one.
    """
    return pytest.param(*values, id=f"{label}-{values[-1]}")


def config_sha256(cfg) -> str:
    """The config hash meta.json records: of the canonical JSON of the whole config."""
    return json_sha256(asdict(cfg)).hexdigest()


def dump(directory, doc) -> str:
    path = os.path.join(directory, "run.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@settings(deadline=None, max_examples=60)
@given(run_configs())
def test_payload_round_trips_through_load_config(cfg):
    with tempfile.TemporaryDirectory() as d:
        back = load_config(dump(d, asdict(cfg)))
    assert back == cfg
    assert config_sha256(back) == config_sha256(cfg)


def test_defaults_come_from_the_section_dataclasses(tmp_path):
    cfg = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out"}))
    assert cfg.dmaps == DmapsSection()
    assert cfg.fnn == TrainConfig() and cfg.fnn.seed == 0
    assert cfg.synth is None
    cfg = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out", "synth": {}}))
    assert cfg.synth == SynthConfig() and cfg.synth.seed == 0
    # each section's seed is the one way to set it, and it sets no other
    cfg = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                      "fnn": {"seed": 4}, "synth": {}}))
    assert (cfg.fnn, cfg.synth) == (TrainConfig(seed=4), SynthConfig())
    cfg = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                      "synth": {"seed": 4}}))
    assert (cfg.fnn, cfg.synth) == (TrainConfig(), SynthConfig(seed=4))


def test_each_section_checks_its_own_seed():
    # a negative seed is refused where it is set, naming the field, not later
    # inside numpy's generator
    with pytest.raises(ValueError, match=re.escape("fnn.seed must be >= 0, got -1")):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match=re.escape("synth.seed must be >= 0, got -1")):
        SynthConfig(seed=-1)


def test_values_take_their_field_types(tmp_path):
    cfg = load_config(dump(tmp_path, {
        "input": "x.csv", "output_dir": "out", "n_train": 300.0,
        "dmaps": {"k": 12.0, "sigma": 2}, "synth": {"noise": 0},
    }))
    assert cfg.n_train == 300 and type(cfg.n_train) is int
    assert type(cfg.dmaps.k) is int
    assert cfg.dmaps.sigma == 2 and type(cfg.dmaps.sigma) is int   # "auto" or a number
    assert type(cfg.synth.noise) is float


def test_unknown_top_level_keys_are_rejected(tmp_path):
    path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", "zz": 1, "nrw_mode": "ambient"})
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown config key(s): nrw_mode, zz")):
        load_config(path)


@pytest.mark.parametrize("section", SECTIONS)
def test_unknown_section_keys_are_rejected(tmp_path, section):
    path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", section: {"b": 1, "a": 2}})
    msg = f"unknown key(s) in config section '{section}': a, b"
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_config(path)


def test_a_koopman_section_is_no_longer_an_option(tmp_path, capsys):
    path = dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                           "koopman": {"svd_tol": 1e-10}})
    assert main(["embed", "--config", path]) == 2
    assert capsys.readouterr().err == f"error [config]: {path}: unknown config key(s): koopman\n"
    # nor is fnn.tol: every FNN fit takes rom_fnn.EPOCHS steps
    path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", "fnn": {"tol": 1e-9}})
    assert main(["embed", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error [config]: unknown key(s) in config section 'fnn': tol\n"
    )
    # nor is fnn.learning_rate: every step is rom_fnn.LEARNING_RATE, so a config
    # may give that value, which changes nothing, and no other
    path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", "fnn": {"learning_rate": 0.05}})
    assert main(["embed", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error [config]: fnn.learning_rate is no longer a setting: it is fixed at 0.2, got 0.05\n"
    )
    fixed = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                        "fnn": {"learning_rate": 0.2, "folds": 3}}))
    plain = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                        "fnn": {"folds": 3}}))
    assert fixed == plain and config_sha256(fixed) == config_sha256(plain)
    # nor is fnn.max_epochs: every fit takes rom_fnn.EPOCHS = 2000 steps, and the
    # retired key is read as the integer its constant is
    for epochs in (2000, 2000.0):
        fixed = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                            "fnn": {"max_epochs": epochs, "folds": 3}}))
        assert fixed == plain and config_sha256(fixed) == config_sha256(plain)
    for epochs, message in [
        (300, "fnn.max_epochs is no longer a setting: it is fixed at 2000, got 300"),
        (2000.5, "fnn.max_epochs must be an integer, got 2000.5"),
    ]:
        path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", "fnn": {"max_epochs": epochs}})
        assert main(["embed", "--config", path]) == 2
        assert capsys.readouterr().err == f"error [config]: {message}\n"
    # nor is synth.q: the latent is always planar, ingest.LATENT_DIM = 2, and the
    # retired key is read as the integer its constant is
    fixed = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                        "synth": {"q": 2, "seed": 3}}))
    plain = load_config(dump(tmp_path, {"input": "x.csv", "output_dir": "out",
                                        "synth": {"seed": 3}}))
    assert fixed == plain and config_sha256(fixed) == config_sha256(plain)
    for q, message in [(3, "synth.q is no longer a setting: it is fixed at 2, got 3"),
                       (2.5, "synth.q must be an integer, got 2.5")]:
        path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", "synth": {"q": q}})
        assert main(["embed", "--config", path]) == 2
        assert capsys.readouterr().err == f"error [config]: {message}\n"


def test_an_nrw_section_is_an_unknown_key(tmp_path, capsys):
    # the baseline always restricts the test block, walks it and lifts it
    path = dump(tmp_path, {"input": "x.csv", "output_dir": "out", "nrw": {"mode": "ambient"}})
    assert main(["embed", "--config", path]) == 2
    assert capsys.readouterr().err == f"error [config]: {path}: unknown config key(s): nrw\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        row("doc0", {"input": MISSING}, "config must set 'input'"),
        row("doc1", {"output_dir": None}, "config must set 'output_dir'"),
        row("doc2", {"dmaps": [1]}, "config section 'dmaps' must be an object"),
        row("doc3", {"glm": {"contrasts": [["a", [1]]]}},
            "glm.contrasts must be an object, got [['a', [1]]]"),
        row("doc4", {"nrw": {"mode": "ambient"}}, "unknown config key(s): nrw"),
        row("doc5", {"epochs": [["A", 0, 2]]}, "epochs given without a conditions list"),
        # detrending always fits on every row: no selector picks another rule
        row("doc6", {"standardize": "full"}, "unknown config key(s): standardize"),
        row("doc7", {"epochs": [["A", 0]], "conditions": ["A"]},
            "epochs item must be a list of 3 values, got ['A', 0]"),
        row("doc8", {"epochs": [["A", 0, 5, 9]], "conditions": ["A"]},
            "epochs item must be a list of 3 values, got ['A', 0, 5, 9]"),
        row("doc9", {"epochs": ["A05"], "conditions": ["A"]},
            "epochs item must be a list of 3 values, got 'A05'"),
        row("doc10", {"dmaps": {"t": 1}}, "unknown key(s) in config section 'dmaps': t"),
        row("doc11", {"dmaps": {"k": "2"}}, "dmaps.k must be an integer, got '2'"),
        # a dead channel is always an error: no flag drops it
        row("doc12", {"drop_dead": True}, "unknown config key(s): drop_dead"),
        row("doc14", {"n_train": True}, "n_train must be an integer, got True"),
        row("doc15", {"synth": {"noise": "1"}}, "synth.noise must be a number, got '1'"),
        # the lift's kernel scale is always dmaps.kernel's "auto" rule
        row("doc16", {"gh": {"eig_floor": 1e-8}}, "unknown config key(s): gh"),
        row("doc17", {"synth": {"seed": 2.5}}, "seed must be an integer, got 2.5"),
        row("doc18", {"synth": {"n_times": 400.5}}, "synth.n_times must be an integer, got 400.5"),
        row("doc19", {"epochs": [["A", 0.5, 4]], "conditions": ["A"]},
            "epochs item[1] must be an integer, got 0.5"),
        row("doc20", {"fnn": {"hidden_sizes": [4.7]}},
            "fnn.hidden_sizes item must be an integer, got 4.7"),
        row("doc21", {"fnn": {"decay_values": ["0.01"]}},
            "fnn.decay_values item must be a number, got '0.01'"),
        row("doc22", {"fnn": {"decay_values": [True]}},
            "fnn.decay_values item must be a number, got True"),
        row("doc23", {"glm": {"contrasts": {"c": ["1"]}}},
            "glm.contrasts.c item must be a number, got '1'"),
        row("doc24", {"dmaps": {"sigma": True}},
            'dmaps.sigma must be "auto" or a positive number, got True'),
        row("doc25", {"dmaps": {"sigma": [1]}},
            'dmaps.sigma must be "auto" or a positive number, got [1]'),
        row("doc26", {"dmaps": {"sigma": "foo"}},
            'dmaps.sigma must be "auto" or a positive number, got \'foo\''),
        row("doc27", {"dmaps": {"sigma": 0}},
            'dmaps.sigma must be "auto" or a positive number, got 0'),
        row("doc28", {"dmaps": {"sigma": -3}},
            'dmaps.sigma must be "auto" or a positive number, got -3'),
        row("doc29", {"dmaps": {"sigma": False}},
            'dmaps.sigma must be "auto" or a positive number, got False'),
        row("doc30", {"dmaps": {"sigma": float("inf")}},
            'dmaps.sigma must be "auto" or a positive number, got inf'),
        row("doc31", {"dmaps": {"sigma": 10**400}},
            'dmaps.sigma must be "auto" or a positive number, got 1000'),
        row("doc32", {"synth": {"q": 7, "dynamics": "nope"}},
            "synth.q is no longer a setting: it is fixed at 2, got 7"),
        row("doc33", {"synth": {"dynamics": "nope"}},
            "synth.dynamics must be 'linear_stable' or 'limit_cycle', got 'nope'"),
        row("doc34", {"input": 3}, "input must be a non-empty string, got 3"),
        # the activity report's p threshold is the constant glm.P_THRESHOLD
        row("doc35", {"glm": {"threshold": 0.001}},
            "unknown key(s) in config section 'glm': threshold"),
        # a seed is set only in its own section, fnn or synth
        row("doc36", {"seed": 0}, "unknown config key(s): seed"),
        row("doc37", {"gh": {"sigma": "auto"}}, "unknown config key(s): gh"),
        row("doc38", {"output_dir": 7}, "output_dir must be a non-empty string, got 7"),
        row("doc39", {"parsimony": {"d": 0}}, "parsimony.d must be >= 1, got 0"),
        row("doc40", {"parsimony": {"d": 31}}, "parsimony.d must be <= dmaps.k (30), got 31"),
        row("doc41", {"dmaps": {"k": 4}, "parsimony": {"d": 5}},
            "parsimony.d must be <= dmaps.k (4), got 5"),
        row("doc42", {"parsimony": {"scale_fraction": 1 / 3}},
            "unknown key(s) in config section 'parsimony': scale_fraction"),
        # the density normalization is always alpha = 1
        row("doc43", {"dmaps": {"alpha": 1.0}}, "unknown key(s) in config section 'dmaps': alpha"),
        row("doc45", {"n_train": 10, "fnn": {"folds": 12}},
            "fnn.folds must be < n_train (10), got 12"),
        row("doc46", {"synth": {"noise": 10**400}},
            "synth.noise must be a number within float range, got an integer of 401 digits"),
        row("doc47", {"conditions": "AB"}, "conditions must be a list of strings, got 'AB'"),
        row("doc48", {"fnn": {"decay_values": [1e-3, 10**400]}},
            "fnn.decay_values item must be a number within float range, got an integer of 401"),
        # the design is always the boxcar indicators, convolved with nothing
        row("doc49", {"glm": {"kernel": [1.0]}}, "unknown key(s) in config section 'glm': kernel"),
        row("doc50", {"glm": {"contrasts": {"c": [1, -(10**400)]}}},
            "glm.contrasts.c item must be a number within float range, got an integer of 401"),
        # each section checks its own seed, whatever the other one holds
        row("doc51", {"fnn": {"seed": -1}, "synth": {"seed": 3}}, "seed must be >= 0, got -1"),
        row("doc52", {"fnn": {"seed": -1}}, "fnn.seed must be >= 0, got -1"),
        row("doc53", {"synth": {"seed": -7}}, "synth.seed must be >= 0, got -7"),
        row("doc54", {"fnn": {"seed": 3}, "synth": {"seed": -1}}, "seed must be >= 0, got -1"),
        row("doc55", {"fnn": {"seed": 2.5}}, "fnn.seed must be an integer, got 2.5"),
        row("doc56", {"fnn": {"hidden_sizes": []}}, "hidden_sizes must not be empty"),
        row("doc57", {"fnn": {"decay_values": []}}, "decay_values must not be empty"),
        row("doc58", {"fnn": {"decay_values": [0.5, float("nan")]}},
            "fnn.decay_values item must be a finite number, got nan"),
        row("doc59", {"glm": {"contrasts": {"c": [1, float("inf")]}}},
            "glm.contrasts.c item must be a finite number, got inf"),
        # a non-string epoch condition is refused, not renamed
        row("doc60", {"conditions": ["1"], "epochs": [[1, 0, 4]]},
            "epochs item[0] must be a non-empty string, got 1"),
        row("doc61", {"epochs": 5}, "epochs must be a list of lists, got 5"),
        row("doc62", {"epochs": {"A": [0, 4]}},
            "epochs must be a list of lists, got {'A': [0, 4]}"),
        row("doc63", {"dmaps": {"k": 0}}, "dmaps.k must be >= 1, got 0"),
        # a repeated grid value would train a second init into the same cell
        row("doc64", {"fnn": {"hidden_sizes": [2, 2]}}, "fnn.hidden_sizes repeat a value: [2, 2]"),
        row("doc65", {"fnn": {"decay_values": [0.01, 0.1, 0.01]}},
            "fnn.decay_values repeat a value: [0.01, 0.1, 0.01]"),
        row("doc66", {"fnn": {"hidden_sizes": [4, 0]}},
            "fnn.hidden_sizes must be >= 1, got [4, 0]"),
        row("doc67", {"fnn": {"decay_values": [0]}},
            "fnn.decay_values must be positive, got [0.0]"),
        row("doc68", {"fnn": {"folds": 1}}, "fnn.folds must be >= 2, got 1"),
        row("doc69", {"fnn": {"repeats": 0}}, "fnn.repeats must be >= 1, got 0"),
        row("doc70", {"fnn": {"max_epochs": 0}},
            "fnn.max_epochs is no longer a setting: it is fixed at 2000, got 0"),
        row("doc71", {"synth": {"ambient_dim": 1}}, "synth.ambient_dim must be >= 2, got 1"),
        row("doc72", {"synth": {"n_times": 1}}, "synth.n_times must be >= 2, got 1"),
        row("doc73", {"synth": {"noise": -1}}, "synth.noise must be >= 0, got -1.0"),
        row("doc74", {"glm": {"contrasts": {"": []}}},
            "glm.contrasts names must be non-empty and hold no '/' or NUL, got ''"),
        row("doc75", {"glm": {"contrasts": {"a\0b": []}}},
            "glm.contrasts names must be non-empty and hold no '/' or NUL, got 'a\\x00b'"),
        row("doc76", {"glm": {"contrasts": {"a\ud800": []}}},
            "glm.contrasts names must be Unicode text, got 'a\\ud800'"),
        # the synthetic frequency scale is the constant ingest.FREQUENCY_SCALE
        row("doc77", {"synth": {"frequency_scale": 1.5}},
            "unknown key(s) in config section 'synth': frequency_scale"),
    ],
)
def test_invalid_values_keep_their_messages(tmp_path, doc, message):
    doc = {"input": "x.csv", "output_dir": "out", **doc}
    path = dump(tmp_path, {k: v for k, v in doc.items() if v is not MISSING})
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)


def schema_fields():
    """(dotted name, annotation) of every config field, section fields included."""
    for key, hint in typing.get_type_hints(RunConfig).items():
        if is_dataclass(hint):
            yield from ((f"{key}.{sub}", h) for sub, h in typing.get_type_hints(hint).items())
        else:
            yield key, hint


def wrong_kinds(hint) -> list:
    """JSON values of a kind the annotation refuses."""
    form = typing.get_origin(hint)
    if form is tuple:
        return [3, {"a": [1]}]      # a number or an object for a list
    if form is dict:
        return [3, [["a", [1]]]]    # a number or a list for an object
    return {int: ["1"], float: ["1.5"], str: [3], object: [{}]}[hint]


@pytest.mark.parametrize("field, hint", [pytest.param(*f, id=f[0]) for f in schema_fields()])
def test_every_field_refuses_a_value_of_the_wrong_kind(tmp_path, field, hint):
    # the annotations are the schema, so a field added later is covered too
    *section, key = field.split(".")
    for value in wrong_kinds(hint):
        doc = {"input": "x.csv", "output_dir": "out"}
        doc.update({section[0]: {key: value}} if section else {key: value})
        with pytest.raises(ValueError) as err:
            load_config(dump(tmp_path, doc))
        assert str(err.value).startswith(f"{field} must be"), str(err.value)


# the README quick-start config; older run directories hold its embed
# digest, so a change that moves it makes every one of them stale, and
# forecast refuses them; it moves when a field embed reads goes, as
# drop_dead, dmaps.alpha and standardize did, and config_sha256, which is
# only echoed in meta.json, when any field goes, as glm.kernel,
# synth.frequency_scale, the top-level seed, the gh section, glm.threshold,
# synth.q and fnn.max_epochs did
QUICK_START = {
    "input": "data/series.csv",
    "output_dir": "runs/demo",
    "n_train": 320,
    "dmaps": {"sigma": "auto", "k": 10},
    "parsimony": {"d": 5},
    "fnn": {"hidden_sizes": [4, 8], "decay_values": [1e-8, 1e-6],
            "folds": 5, "repeats": 2},
    "synth": {"ambient_dim": 50, "n_times": 400, "noise": 0.0,
              "seed": 0, "dynamics": "limit_cycle"},
}


def test_quick_start_config_digests_are_pinned(tmp_path):
    cfg = load_config(dump(tmp_path, QUICK_START))
    assert config_sha256(cfg) == "e849d2094843c76bbc9ea9f10514ab711822082096c872ca52dd5471d1d78752"
    assert embed_hash(cfg) == "1ca0ef2a5abec430340a3eea10d4272b0744cb72141159064f6cff1013a33321"


@pytest.mark.parametrize(
    "doc",
    [
        None,
        {"input": "x.csv", "output_dir": "out", "epochs": [["A", 0]], "conditions": ["A"]},
        {"input": "x.csv", "output_dir": "out", "dmaps": {"k": 1.5}},
        {"input": "x.csv", "output_dir": "out", "dmaps": {"sigma": [1]}},
    ],
)
def test_unreadable_or_malformed_config_exits_2(tmp_path, capsys, doc):
    path = str(tmp_path) if doc is None else dump(tmp_path, doc)   # None: a directory
    assert main(["embed", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error [config]: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "doc, message",
    [
        row("doc0-args0", {"synth": {"noise": 10**400}},
            "synth.noise must be a number within float range, got an integer of 401 digits"),
        row("doc1-args1", {"fnn": {"seed": -1}}, "fnn.seed must be >= 0, got -1"),
        row("doc2-args2", {"synth": {"seed": -1}}, "synth.seed must be >= 0, got -1"),
        # json writes these as Infinity and NaN; a literal past float range,
        # such as 1e400, parses to inf as well
        row("doc3-args3", {"synth": {"noise": float("inf")}},
            "synth.noise must be a finite number, got inf"),
        row("doc4-args4", {"fnn": {"decay_values": [float("nan")]}},
            "fnn.decay_values item must be a finite number, got nan"),
        row("doc5-args5", {"synth": {"noise": float("nan")}},
            "synth.noise must be a finite number, got nan"),
        # the FNN stage would refuse it only after embed wrote the embedding
        row("doc6-args6", {"n_train": 320, "fnn": {"folds": 320}},
            "fnn.folds must be < n_train (320), got 320"),
    ],
)
def test_out_of_range_numbers_exit_2_naming_the_field(tmp_path, capsys, doc, message):
    path = dump(tmp_path, {"input": "x.csv", "output_dir": str(tmp_path / "out"), **doc})
    assert main(["embed", "--config", path]) == 2
    assert capsys.readouterr().err == f"error [config]: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        row("doc0", {"epochs": [["A", 0, 4]], "conditions": ["A", "B"],
                     "glm": {"contrasts": {"c": [1.0, -1.0, 0.0]}}},
            "glm.contrasts.c has 3 entries, one per condition needs 2"),
        row("doc1", {"epochs": [["A", 0, 4], ["C", 4, 8]], "conditions": ["A", "B"]},
            "epoch ['C', 4, 8] names no condition in conditions"),
        row("doc2", {"epochs": [["A", 0, 4]], "conditions": ["A", "B", "A"]},
            "conditions repeat a name: ['A', 'B', 'A']"),
        row("doc3", {"epochs": [["A", 4, 4]], "conditions": ["A"]},
            "epoch ['A', 4, 4] needs 0 <= start < end"),
        row("doc4", {"epochs": [["A", -2, 4]], "conditions": ["A"]},
            "epoch ['A', -2, 4] needs 0 <= start < end"),
        # a contrast's name is part of its report's file name
        row("doc5",
            {"epochs": [["A", 0, 4]], "conditions": ["A"], "glm": {"contrasts": {"x/y": [1.0]}}},
            "glm.contrasts names must be non-empty and hold no '/' or NUL, got 'x/y'"),
        # activity_<name>.csv.<pid>.tmp must fit a file name's 255 bytes
        row("doc6",
            {"epochs": [["A", 0, 4]], "conditions": ["A"],
             "glm": {"contrasts": {"é" * 116: [1.0]}}},
            "glm.contrasts names must take at most 230 bytes in UTF-8, got 232"),
    ],
)
def test_stimulus_faults_exit_2_at_load(tmp_path, capsys, doc, message):
    # found before any stage runs: run --all writes no input, report or embedding
    doc = {"input": str(tmp_path / "x.csv"), "output_dir": str(tmp_path / "out"),
           "n_train": 30, "dmaps": {"k": 10}, "synth": {"n_times": 40}, **doc}
    assert main(["run", "--all", "--config", dump(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error [config]: {message}\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "x.csv").exists()
