"""Config assembly, the dotted-key file format, and the CLI surface."""
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fedscil import Classifier, ExperimentConfig, build_config, cli
from fedscil.checkpoint import load_state
from fedscil.cli import main
from fedscil.config import from_flat_dict, leaves, run_id, to_flat_dict
from fedscil.errors import ConfigError
from fedscil.orchestrator import prepare_schedule
from same_outputs import digests, kernel_fingerprint, output_kind

# a light sdd run of LIGHT_FILE that the format-1 CLI wrote with
# --save-checkpoints --export-synthetics: its manifest, metrics.jsonl and
# summary.csv, the sha256 of its checkpoints and synthetics.csv, and the
# kernel fingerprint those digests were made under
FORMAT1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "format1")

LIGHT_FILE = """\
# shrunk desk experiment for fast end-to-end runs
preset = desk
method = sdd
seed = 0

data.classes = 6
data.dim = 4
data.base_classes = 4
data.sessions = 1
data.way = 2
data.shot = 4
data.per_class_train = 12
data.per_class_test = 8
data.spread = 0.1

base.epochs = 8          # enough to separate the blobs
client.epochs = 3
generator.epochs = 4
generator.rounds_per_epoch = 4
generator.batch_size = 16
generator.bank_per_epoch = 24
generator.noise_dim = 6
generator.buffer_capacity = 60
"""


# -- config assembly -------------------------------------------------------------

def test_build_config_defaults_match_dataclass():
    assert build_config() == ExperimentConfig()


def test_desk_preset_values():
    cfg = build_config(preset="desk")
    assert cfg.data.spread == 0.35
    assert cfg.weights.k == 2.0
    assert cfg.weights.lambda1 == 2.0
    assert cfg.generator.epochs == 20
    assert cfg.client.lr_new_head == 0.05
    assert cfg.client.batch_size_replay == 16


def test_hparams_presets():
    cifar = build_config(preset="cifar100-hparams")
    assert (cifar.weights.lambda1, cifar.weights.lambda2,
            cifar.weights.lambda3, cifar.weights.lambda4) == (1, 1, 1, 1)
    assert cifar.weights.alpha == cifar.weights.beta == cifar.weights.k == 1
    mini = build_config(preset="miniimagenet-hparams")
    assert (mini.weights.lambda1, mini.weights.lambda2,
            mini.weights.lambda3, mini.weights.lambda4) == (10, 0.1, 1, 1)
    assert mini.weights.k == 0.5


def test_unknown_key_and_preset_are_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(overrides=["data.sprad=0.2"])
    with pytest.raises(ConfigError, match="unknown preset"):
        build_config(preset="gpu")
    with pytest.raises(ConfigError, match="cannot parse"):
        build_config(overrides=["data.spread=wide"])
    with pytest.raises(ConfigError, match="key=value"):
        build_config(overrides=["data.spread"])
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(overrides=["data=0.2"])  # dataclass node, not a leaf


def test_validation_messages():
    with pytest.raises(ConfigError, match=r"^alpha must be in \(0, inf\)$"):
        build_config(overrides=["alpha=-1"])
    with pytest.raises(ConfigError, match="method must be one of"):
        build_config(overrides=["method=magic"])
    with pytest.raises(ConfigError, match="shot exceeds"):
        build_config(overrides=["data.shot=31"])
    with pytest.raises(ConfigError, match="data.per_class_train"):
        build_config(overrides=["data.per_class_train=0", "data.shot=0",
                                "data.sessions=0"])
    with pytest.raises(ConfigError, match="schedule needs"):
        build_config(overrides=["data.sessions=5"])
    with pytest.raises(ConfigError, match="replay_label_noise"):
        build_config(overrides=["replay_label_noise=1.0"])
    with pytest.raises(ConfigError, match="cswa_mode"):
        build_config(overrides=["aggregation.cswa_mode=softmax"])
    with pytest.raises(ConfigError):
        build_config(overrides=["weights.k=-1"])  # nested validate, wrapped


def _refused_by_run(tmp_path, capsys, key: str, value: str) -> None:
    """``fedscil run --set key=value`` exits 1 before writing a manifest, with
    a message that names the dotted key (``weights.alpha`` does not count
    for ``alpha``)."""
    out = tmp_path / "out"
    rc = main(["run", "--preset", "desk", "--set", f"{key}={value}", "--out",
               str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("configuration error:")
    assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err), err
    assert not (out / "manifest.json").exists()


def _as_set_value(key: str, value: str) -> str:
    """A tuple key takes the value as one element of an otherwise valid list."""
    owner, f = SCHEMA[key]
    return f"0.5,{value}" if isinstance(getattr(owner, f.name), tuple) else value


def _past_ends(default, allowed) -> list[str]:
    """Values just outside each finite end of an allowed interval, or an
    unknown choice."""
    if isinstance(allowed, tuple):
        return ["no-such-choice"]
    lo, hi = map(float, allowed[1:-1].split(","))
    out = []
    for end, closed, way in ((lo, allowed[0] == "[", -1), (hi, allowed[-1] == "]", 1)):
        if not np.isfinite(end):
            continue
        if isinstance(default, int):
            out.append(int(end) + way * closed)
        else:
            out.append(float(np.nextafter(end, way * np.inf)) if closed else end)
    return [repr(v) for v in out]


SCHEMA = leaves(ExperimentConfig())
RANGED = {key: (getattr(owner, f.name), f.metadata["allowed"])
          for key, (owner, f) in SCHEMA.items() if "allowed" in f.metadata}
FLOAT_KEYS = [key for key, (default, _) in RANGED.items()
              if isinstance(default, (float, tuple))]
PAST_ENDS = [(key, value) for key, (default, allowed) in RANGED.items()
             for value in _past_ends(default, allowed)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_values_are_refused_by_key(tmp_path, capsys, key, value):
    _refused_by_run(tmp_path, capsys, key, _as_set_value(key, value))


@pytest.mark.parametrize("key, value", PAST_ENDS)
def test_values_past_an_allowed_end_are_refused_by_key(tmp_path, capsys, key, value):
    """Every ranged key of the schema, just outside each finite end of its
    interval, or set to a choice it does not list."""
    _refused_by_run(tmp_path, capsys, key, _as_set_value(key, value))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(LIGHT_FILE)
    cfg = build_config(path)
    assert cfg.data.spread == 0.1        # file beats the desk preset
    assert cfg.weights.k == 2.0          # preset named in the file applied
    assert cfg.generator.epochs == 4
    assert cfg.base.epochs == 8          # inline comment stripped

    bad = tmp_path / "bad.cfg"
    for text, message in [
            ("data.dim = 4\ndata.spread\n", ":2: expected 'key = value'"),
            ("seed = 3\n\nseed = 4\n", ":3: seed already set on line 1"),
            ("preset = desk\npreset = desk\n", ":2: preset already set on line 1")]:
        bad.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(bad) + message)}$"):
            build_config(bad)


def test_explicit_preset_argument_beats_file_preset(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("preset = cifar100-hparams\n")
    cfg = build_config(path, preset="desk")
    assert cfg.weights.k == 2.0


def test_precedence_preset_file_override(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("data.spread = 0.2\n")
    assert build_config(preset="desk").data.spread == 0.35
    assert build_config(path, preset="desk").data.spread == 0.2
    assert build_config(path, preset="desk",
                        overrides=["data.spread=0.1"]).data.spread == 0.1


def test_flat_dict_round_trip():
    cfg = build_config(preset="desk", overrides=["seed=7", "clients=5"])
    assert from_flat_dict(to_flat_dict(cfg)) == cfg
    assert isinstance(from_flat_dict(to_flat_dict(cfg)).base.decay_milestones,
                      tuple)
    with pytest.raises(ConfigError):
        from_flat_dict({"no.such.key": 1})


def test_run_id_is_stable_and_sensitive():
    a = run_id(build_config(preset="desk"))
    b = run_id(build_config(preset="desk"))
    c = run_id(build_config(preset="desk", overrides=["seed=1"]))
    assert a == b != c
    assert len(a) == 12
    assert set(a) <= set("0123456789abcdef")


def test_set_key_unknown_leaf():
    with pytest.raises(ConfigError, match="unknown config key: client.turbo"):
        build_config(overrides=["client.turbo=1"])
    assert build_config(overrides=["client.epochs=9"]).client.epochs == 9


# -- CLI ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    saved = os.environ.get("FEDSCIL_RUN_ROOT")
    os.environ["FEDSCIL_RUN_ROOT"] = str(root)
    yield root
    if saved is None:
        os.environ.pop("FEDSCIL_RUN_ROOT", None)
    else:
        os.environ["FEDSCIL_RUN_ROOT"] = saved


@pytest.fixture(scope="module")
def first_run(run_root, tmp_path_factory):
    cfg_file = tmp_path_factory.mktemp("cfg") / "light.cfg"
    cfg_file.write_text(LIGHT_FILE)
    rc = main(["run", "--config", str(cfg_file), "--quiet"])
    assert rc == 0
    dirs = [d for d in run_root.iterdir() if d.is_dir()]
    assert len(dirs) == 1
    return SimpleNamespace(root=run_root, config=cfg_file, dir=dirs[0])


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_run_writes_complete_run_dir(first_run):
    names = {p.name for p in first_run.dir.iterdir()}
    assert {"manifest.json", "metrics.jsonl", "timings.jsonl",
            "summary.csv"} <= names

    manifest = json.loads((first_run.dir / "manifest.json").read_text())
    assert manifest["format"] == 2
    assert manifest["tool"].startswith("fedscil ")
    assert manifest["artifacts"] == {"metrics": "metrics.jsonl",
                                     "timings": "timings.jsonl",
                                     "summary": "summary.csv"}
    cfg = from_flat_dict(manifest["config"])
    assert manifest["run_id"] == run_id(cfg)
    assert set(manifest["seeds"]["client"]) == {"1,0,0", "1,0,1", "1,0,2"}
    assert manifest["seeds"]["partition"] == {"1": manifest["seeds"]["partition"]["1"]}

    records = _read_jsonl(first_run.dir / "metrics.jsonl")
    assert [r["session"] for r in records] == [0, 1]
    assert all(r["run_id"] == manifest["run_id"] for r in records)
    assert records[0]["old"] is None
    assert records[1]["audit"]["accuracy_matrix"] is not None

    timings = _read_jsonl(first_run.dir / "timings.jsonl")
    assert [r["session"] for r in timings] == [0, 1]
    assert all(r["seconds"] > 0 for r in timings)

    with open(first_run.dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["run_id"] == manifest["run_id"]
    assert rows[0]["sessions"] == "1"
    avg = np.mean([r["overall"] for r in records])
    assert abs(float(rows[0]["average_accuracy"]) - avg) <= 1e-12

    assert first_run.dir.name.startswith("sdd-seed0-")


def test_second_run_claims_rerun_directory(first_run):
    rc = main(["run", "--config", str(first_run.config), "--quiet"])
    assert rc == 0
    rerun = first_run.root / f"{first_run.dir.name}-rerun1"
    assert (rerun / "manifest.json").is_file()
    assert (rerun / "metrics.jsonl").read_bytes() == \
        (first_run.dir / "metrics.jsonl").read_bytes()


def test_out_flag_refuses_existing_manifest(first_run, capsys):
    rc = main(["run", "--config", str(first_run.config),
               "--out", str(first_run.dir)])
    assert rc == 1
    assert "configuration error:" in capsys.readouterr().err


def test_from_manifest_rejects_config_flags(first_run, capsys):
    rc = main(["run", "--from-manifest", str(first_run.dir / "manifest.json"),
               "--seed", "1"])
    assert rc == 1
    assert "configuration error:" in capsys.readouterr().err


def test_from_manifest_reproduces_metrics_bytes(first_run, tmp_path, capsys):
    """From the manifest file or from the run directory that holds it, as
    ``report`` and ``compare`` take either."""
    for name, source in [("file", first_run.dir / "manifest.json"),
                         ("dir", first_run.dir)]:
        out = tmp_path / name
        rc = main(["run", "--from-manifest", str(source), "--out", str(out)])
        assert rc == 0, name
        assert (out / "metrics.jsonl").read_bytes() == \
            (first_run.dir / "metrics.jsonl").read_bytes()
        stdout = capsys.readouterr().out
        assert "session 0:" in stdout
        assert "Average" in stdout
        assert "run directory:" in stdout


def test_out_naming_a_file_is_a_configuration_error(first_run, tmp_path, capsys):
    """A bad argument, refused before anything is written."""
    path = tmp_path / "taken"
    path.write_text("keep\n")
    rc = main(["run", "--config", str(first_run.config), "--out", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"configuration error: --out {path} is a file, not a run directory\n"
    assert path.read_text() == "keep\n" and os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("edit, message", [
    (lambda m: "{not json", "not a JSON manifest"),
    (lambda m: json.dumps({k: v for k, v in m.items() if k != "config"}),
     "no config object"),
    (lambda m: json.dumps({**m, "config": ["seed=0"]}), "no config object"),
    (lambda m: json.dumps([m]), "no config object"),
    (lambda m: json.dumps({**m, "format": 3}), "manifest format 3, expected 1 or 2"),
    (lambda m: json.dumps({k: v for k, v in m.items() if k != "format"}),
     "manifest format None, expected 1 or 2"),
], ids=["not JSON", "no config", "config not an object", "not an object",
        "another format", "no format"])
def test_from_manifest_rejects_a_file_that_is_not_a_manifest(first_run, tmp_path,
                                                              capsys, edit, message):
    manifest = json.loads((first_run.dir / "manifest.json").read_text())
    path = tmp_path / "manifest.json"
    path.write_text(edit(manifest))
    rc = main(["run", "--from-manifest", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{path}: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("clients", "3", 'clients: expected an integer, got "3"'),
    ("clients", True, "clients: expected an integer, got true"),
    ("clients", 3.0, "clients: expected an integer, got 3.0"),
    ("seed", "x", 'seed: expected an integer, got "x"'),
    ("base.lr", "fast", 'base.lr: expected a number, got "fast"'),
    ("alpha", False, "alpha: expected a number, got false"),
    ("base.decay_milestones", [0.6, "x"],
     'base.decay_milestones: expected a list of numbers, got [0.6, "x"]'),
    ("base.decay_milestones", 0.6,
     "base.decay_milestones: expected a list of numbers, got 0.6"),
    ("method", None, "method: expected a string, got null"),
])
def test_from_manifest_rejects_a_value_of_the_wrong_type(first_run, tmp_path, capsys,
                                                          key, value, message):
    manifest = json.loads((first_run.dir / "manifest.json").read_text())
    manifest["config"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = main(["run", "--from-manifest", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{path}: {message}" in err
    assert not (tmp_path / "out").exists()


def test_from_manifest_rejects_a_config_missing_a_key(first_run, tmp_path, capsys):
    """Each missing key would otherwise take its default and rerun another
    experiment under the recorded one's name."""
    manifest = json.loads((first_run.dir / "manifest.json").read_text())
    del manifest["config"]["seed"], manifest["config"]["base.epochs"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = main(["run", "--from-manifest", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{path}: config lacks base.epochs, seed" in err
    assert not (tmp_path / "out").exists()


def test_flat_dict_numbers_take_their_field_type():
    cfg = from_flat_dict({"alpha": 2, "base.decay_milestones": [1, 0.5],
                          "clients": 4})
    assert type(cfg.alpha) is float and cfg.alpha == 2.0
    assert cfg.base.decay_milestones == (1.0, 0.5)
    assert all(type(v) is float for v in cfg.base.decay_milestones)
    assert type(cfg.clients) is int
    assert run_id(cfg) == run_id(build_config(
        overrides=["alpha=2", "base.decay_milestones=1,0.5", "clients=4"]))


def test_from_manifest_of_a_missing_file_exits_two(tmp_path, capsys):
    rc = main(["run", "--from-manifest", str(tmp_path / "none.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: FileNotFoundError")


def test_non_finite_session_exits_two_without_its_record(first_run, tmp_path,
                                                         capsys, recwarn):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(first_run.config), "--quiet",
               "--set", "client.lr_new_head=1e300",
               "--set", "client.lr_backbone_and_old=1e300", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: NonFiniteError: non-finite model state after session 1, round 0, "
        "local update of client ")
    assert [r["session"] for r in _read_jsonl(out / "metrics.jsonl")] == [0]


def test_non_finite_base_training_exits_two_without_a_record(first_run, tmp_path,
                                                             capsys, recwarn):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(first_run.config), "--quiet",
               "--set", "base.lr=1e300", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: NonFiniteError: non-finite model state after session 0, "
        "base training")
    assert _read_jsonl(out / "metrics.jsonl") == []


def test_non_finite_generator_exits_two_without_a_record(first_run, tmp_path,
                                                         capsys, recwarn):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(first_run.config), "--quiet",
               "--set", "generator.gen_lr=1e300", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: NonFiniteError: non-finite "
                                       "generator loss at epoch 0 of session 0\n")
    assert _read_jsonl(out / "metrics.jsonl") == []


def test_bad_override_exits_one(run_root, capsys):
    rc = main(["run", "--set", "data.spread=wide"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("override", [
    "base.decay_factor=-1", "base.decay_factor=nan", "base.momentum=inf",
    "base.decay_milestones=0.5,nan", "client.momentum=-5",
    "generator.student_momentum=-1", "data.spread=nan", "data.spread=-1",
    "data.per_class_test=0", "weights.kl_temperature=inf",
])
def test_rate_schedule_values_out_of_range_exit_one(tmp_path, capsys, override):
    """Values that would train backwards or fail mid-run are refused before
    the run directory gets a manifest."""
    out = tmp_path / "out"
    rc = main(["run", "--preset", "desk", "--set", override, "--out", str(out),
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert override.split("=")[0] in err
    assert not (out / "manifest.json").exists()


def test_a_one_row_base_session_exits_one_before_the_manifest(tmp_path, capsys):
    """A base split of one row is refused while the schedule is built, so the
    run directory gets neither a manifest nor an empty metrics file."""
    out = tmp_path / "out"
    rc = main(["run", "--preset", "desk", "--method", "finetune",
               "--set", "data.classes=1", "--set", "data.base_classes=1",
               "--set", "data.per_class_train=1", "--set", "data.sessions=0",
               "--set", "data.shot=1", "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == ("configuration error: the base session "
                                       "has 1 training sample, fewer than 2\n")
    assert not out.exists()


def test_a_degenerate_dirichlet_draw_exits_one_before_the_manifest(tmp_path, capsys):
    """The client shards are drawn before the run directory is claimed, so a
    Dirichlet draw that is not a distribution leaves no directory behind."""
    out = tmp_path / "out"
    rc = main(["run", "--preset", "desk", "--set", "alpha=1e308", "--out", str(out),
               "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == ("configuration error: alpha=1e+308: the "
                                       "Dirichlet draw is not a distribution\n")
    assert not out.exists()


def test_a_pool_without_a_class_names_its_session_and_round(tmp_path, capsys):
    """Eight banked samples cannot condition on ten new classes, so the
    accuracy matrix of the head rule has a class without samples."""
    argv = ["run", "--preset", "desk", "--method", "sdd", "--out",
            str(tmp_path / "out"), "--quiet"]
    for item in ("data.classes=12", "data.base_classes=2", "data.way=10",
                 "data.sessions=1", "generator.epochs=1",
                 "generator.bank_per_epoch=8", "generator.rounds_per_epoch=2"):
        argv += ["--set", item]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: PoolGapError: pool holds no samples conditioned on class 3 "
        "in session 1, round 0\n")


def test_missing_csv_exits_two(run_root, tmp_path, capsys):
    rc = main(["run", "--preset", "desk",
               "--set", f"data.csv_train={tmp_path}/none_train.csv",
               "--set", f"data.csv_test={tmp_path}/none_test.csv",
               "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("rows, message", [
    ("0.1,0.2,0\n\n0.3,0.4,1\n0.5,0.6,25\n0.7,0.8,2\n",
     "row 4: label 25 outside [0, 20)"),
    ("0.1,0.2,0\nabc,0.4,1\n", "row 2: non-numeric field"),
    ("0.1,0.2,0\n0.3,1\n", "row 2: 2 fields, expected 3"),
    ("0.1,0.2,0\nnan,0.3,1\n", "row 2: non-finite field"),
    ("0.1,0.2,0\n0.3,0.4,1\n0.5,-inf,2\n", "row 3: non-finite field"),
    pytest.param("0.1,0.2,0.3,0\n0.4,0.5,0.6,1\n", "3 features, but {test} has 2",
                 id="feature counts differ"),
])
def test_csv_dataset_faults_exit_one(run_root, tmp_path, capsys, rows, message):
    train = tmp_path / "train.csv"
    train.write_text(rows)
    test = tmp_path / "test.csv"
    test.write_text("0.1,0.2,0\n")
    out = tmp_path / "out"
    rc = main(["run", "--preset", "desk", "--set", f"data.csv_train={train}",
               "--set", f"data.csv_test={test}", "--set", "data.classes=20",
               "--quiet", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{train}: {message.format(test=test)}" in err
    assert not (out / "manifest.json").exists()


def test_class_without_test_rows_reports_null_accuracy(tmp_path):
    """A CSV test split with no row of one class: that class's accuracy is
    absent (null in metrics.jsonl), not 0.0, and every other one a number."""
    rng = np.random.default_rng(4)
    centers = rng.uniform(-1.0, 1.0, (6, 4))

    def rows(classes, per_class):
        return "".join(",".join(repr(float(v)) for v in centers[c] + 0.05 *
                                rng.standard_normal(4)) + f",{c}\n"
                       for c in classes for _ in range(per_class))

    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text(rows(range(6), 12))
    test.write_text(rows([0, 1, 2, 4, 5], 4))   # no test row of class 3
    out = tmp_path / "run"
    cfg = LIGHT_FILE.replace("method = sdd", "method = finetune")
    (tmp_path / "light.cfg").write_text(cfg)
    assert main(["run", "--config", str(tmp_path / "light.cfg"), "--set",
                 f"data.csv_train={train}", "--set", f"data.csv_test={test}",
                 "--quiet", "--out", str(out)]) == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    final = json.loads(lines[-1])["per_class"]
    assert len(final) == 6 and final.count(None) == 1
    assert all(0.0 <= v <= 1.0 for v in final if v is not None)
    assert '"per_class": [' in lines[-1] and "null" in lines[-1]


def test_test_split_without_a_seen_class_exits_one(tmp_path, capsys):
    """Every test row belongs to a class introduced after session 0, so
    session 0 has nothing to evaluate on: a configuration error, not a NaN
    accuracy."""
    rng = np.random.default_rng(4)
    centers = rng.uniform(-1.0, 1.0, (6, 4))

    def rows(classes, per_class):
        return "".join(",".join(repr(float(v)) for v in centers[c] + 0.05 *
                                rng.standard_normal(4)) + f",{c}\n"
                       for c in classes for _ in range(per_class))

    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text(rows(range(6), 12))
    test.write_text(rows(range(6), 1))
    config = tmp_path / "light.cfg"
    config.write_text(LIGHT_FILE)
    sets = [f"data.csv_train={train}", f"data.csv_test={test}"]
    order = prepare_schedule(build_config(config, overrides=sets)).class_order
    test.write_text(rows([int(order[-1])], 4))  # a session-1 class only
    rc = main(["run", "--config", str(config), "--set", sets[0], "--set",
               sets[1], "--quiet", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: session 0: the test split holds no sample of the "
        "4 classes seen so far")


@pytest.mark.parametrize("half", ["csv_train", "csv_test"])
def test_csv_path_without_its_pair_exits_one(run_root, tmp_path, capsys, half):
    path = tmp_path / "data.csv"
    path.write_text("0.1,0.2,0\n")
    rc = main(["run", "--preset", "desk", "--set", f"data.{half}={path}",
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "data.csv_train and data.csv_test must be set together" in err


def _seed_paths(seeds: dict) -> dict:
    """The manifest's seeds block as {path tuple: seed}."""
    out = {}
    for key, value in seeds.items():
        if isinstance(value, dict):
            for sub, seed in value.items():
                out[(key, *(int(i) for i in sub.split(",")))] = seed
        else:
            out[(key,)] = value
    return out


def test_manifest_seeds_are_exactly_the_paths_drawn(run_root, tmp_path,
                                                   monkeypatch):
    """Every stream a run draws from the master seed is in the manifest, and
    every manifest stream is drawn by some method.

    ``("genlab", t)`` is keyed by session: every round of a session draws it
    again and continues the generator and student of the round before.
    """
    from fedscil import orchestrator
    from fedscil.config import METHODS
    from fedscil.seeding import derive_seed, stream_seed
    drawn, generator_calls = [], []

    def spy_stream_seed(cfg, *path):
        drawn.append((cfg.seed, path))
        return stream_seed(cfg, *path)

    train = orchestrator.train_generator_session

    def spy_train(teachers, session, *args, generator=None, student=None):
        generator_calls.append((session, generator is not None,
                                student is not None))
        return train(teachers, session, *args, generator=generator,
                     student=student)

    monkeypatch.setattr(orchestrator, "stream_seed", spy_stream_seed)
    monkeypatch.setattr(orchestrator, "train_generator_session", spy_train)
    cfg_file = tmp_path / "light.cfg"
    cfg_file.write_text(LIGHT_FILE)
    union = set()
    for method, (local_rule, _) in METHODS.items():
        drawn.clear()
        generator_calls.clear()
        out = tmp_path / method
        rc = main(["run", "--config", str(cfg_file), "--method", method,
                   "--set", "rounds=2", "--set", "clients=2",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = _seed_paths(json.load(fh)["seeds"])
        assert {master for master, _ in drawn} == {0}
        for _, path in drawn:
            assert manifest.get(path) == derive_seed(0, *path), path
        union |= {path for _, path in drawn}
        genlab = [path for _, path in drawn if path[0] == "genlab"]
        if local_rule is None:
            assert genlab == [] and generator_calls == []
        else:
            assert genlab == [("genlab", 0), ("genlab", 1), ("genlab", 1)]
            assert generator_calls == [(0, False, False), (1, False, False),
                                       (1, True, True)]
    assert union == set(manifest)


def test_stream_seed_reads_the_table_and_refuses_other_paths():
    from fedscil.errors import ContractError
    from fedscil.seeding import seed_table, stream_seed
    cfg = build_config(preset="desk", overrides=["rounds=2", "seed=3"])
    for path, seed in seed_table(cfg).items():
        assert stream_seed(cfg, *path) == seed
    sessions, clients = cfg.data.sessions, cfg.clients
    for path in [("client", 1, 2, 0), ("client", 1, 0, clients),
                 ("head", 0), ("partition", sessions + 1), ("genlab",),
                 ("data", 0), ("generator",)]:
        with pytest.raises(ContractError, match="no seed stream"):
            stream_seed(cfg, *path)


@pytest.mark.parametrize("sets", [("rounds=2", "clients=2"), ("data.sessions=0",)])
def test_the_manifest_seeds_are_the_seed_table(run_root, tmp_path, sets):
    """The manifest nests ``seeding.seed_table`` by stream; without
    incremental sessions the per-session streams are empty objects."""
    from fedscil.seeding import seed_table
    cfg_file = tmp_path / "light.cfg"
    cfg_file.write_text(LIGHT_FILE)
    argv = ["run", "--config", str(cfg_file), "--method", "finetune", "--quiet",
            "--out", str(tmp_path / "run")]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    with open(tmp_path / "run" / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert _seed_paths(manifest["seeds"]) == seed_table(
        from_flat_dict(manifest["config"]))
    if sets == ("data.sessions=0",):
        assert [manifest["seeds"][name] for name in ("partition", "head", "client")
                ] == [{}, {}, {}]


def test_report_matches_metrics(first_run, capsys):
    rc = main(["report", str(first_run.dir)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["run", "0", "1", "Average"]
    records = _read_jsonl(first_run.dir / "metrics.jsonl")
    row = next(l for l in lines if l.startswith(first_run.dir.name)).split()
    expected = [f"{100 * r['overall']:.2f}" for r in records]
    avg = f"{100 * np.mean([r['overall'] for r in records]):.2f}"
    assert row[1:] == expected + [avg]


def _write_metrics(path, overalls, method="sdd", seed=0):
    records = [{"run_id": "x" * 12, "method": method, "seed": seed,
                "alpha": 1.0, "session": t, "classes_seen": 12 + 2 * t,
                "overall": acc, "old": None, "new": acc,
                "per_class": [], "audit": None}
               for t, acc in enumerate(overalls)]
    records.reverse()   # loader must sort by session
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def test_report_nine_sessions_from_metrics_file(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    _write_metrics(path, [t / 10.0 for t in range(9)], method="sdd", seed=3)
    rc = main(["report", str(path), "--csv", str(tmp_path / "table.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == (["run"] + [str(t) for t in range(9)]
                                + ["Average"])
    row = next(l for l in lines if l.startswith("sdd-seed3")).split()
    assert row[1:10] == [f"{10.0 * t:.2f}" for t in range(9)]
    assert row[10] == "40.00"
    with open(tmp_path / "table.csv", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == lines[0].split()
    assert parsed[1] == row


def test_compare_deltas_against_first(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_metrics(a, [0.5, 0.3], method="sdd")
    _write_metrics(b, [0.4, 0.2], method="baseline_kd")
    rc = main(["compare", str(a), str(b), "--csv", str(tmp_path / "cmp.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["run", "0", "1", "Average", "Improvement"]
    ref = next(l for l in lines if l.startswith("a.jsonl")).split()
    assert ref[1:] == ["50.00", "30.00", "40.00", "-"]
    other = next(l for l in lines if l.startswith("b.jsonl")).split()
    assert other[1:] == ["40.00", "20.00", "30.00", "+10.00"]
    delta = next(l for l in lines if l.strip().startswith("delta")).split()
    assert delta[1:] == ["+10.00", "+10.00", "+10.00"]
    with open(tmp_path / "cmp.csv", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert len(parsed) == 1 + 3   # header, ref, other, delta sub-row


def test_compare_validation(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_metrics(a, [0.5, 0.3])
    _write_metrics(b, [0.4])
    assert main(["compare", str(a), str(b)]) == 2
    assert main(["compare", str(a)]) == 2
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2


def _edited(line: str, **fields) -> str:
    """line's record with fields replaced, or dropped where given None."""
    record = {**json.loads(line), **fields}
    return json.dumps({k: v for k, v in record.items() if v is not None}) + "\n"


@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize("last, message", [
    (lambda line: line[:len(line) // 2], "line 2: not a JSON record"),
    (lambda line: "[1, 2]\n", "line 2: no session field"),
    (lambda line: json.dumps({"overall": 0.5}) + "\n", "line 2: no session field"),
    (lambda line: _edited(line, session="1"), "line 2: session is not an integer"),
    (lambda line: _edited(line, session=False), "line 2: session is not an integer"),
    (lambda line: _edited(line, overall=None),
     "line 2: overall is not a number in [0, 1]"),
    (lambda line: _edited(line, overall="0.8"),
     "line 2: overall is not a number in [0, 1]"),
    (lambda line: _edited(line, overall=1.5),
     "line 2: overall is not a number in [0, 1]"),
    (lambda line: line + _edited(line, session=3), "line 3: session 3, expected 2"),
    (lambda line: line + line, "line 3: session 0, expected 1"),
], ids=["cut off", "not an object", "no session", "session a string",
        "session a bool", "no overall", "overall a string", "overall above 1",
        "session gap", "session repeat"])
def test_a_truncated_metrics_file_names_its_path_and_line(tmp_path, capsys,
                                                          command, last, message):
    """An interrupted run's metrics.jsonl can end in a partial line, and a
    hand-edited one can hold anything; report and compare exit 2 naming the
    file and the 1-based line. The file lists sessions 1, 0; a third line of
    session 3 leaves a gap, and a second session 0 repeats one."""
    path = tmp_path / "metrics.jsonl"
    _write_metrics(path, [0.5, 0.3])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + last(lines[1]), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: ContractError: {path}: {message}\n"


def test_checkpoints_and_synthetics_export(first_run, tmp_path):
    out = tmp_path / "ckpt-run"
    rc = main(["run", "--config", str(first_run.config), "--quiet",
               "--out", str(out), "--save-checkpoints", "--export-synthetics"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"]["checkpoints"] == "checkpoints"
    assert manifest["artifacts"]["synthetics"] == "synthetics.csv"

    arrays, groups, extra = load_state(out / "checkpoints" / "session_1.ckpt")
    model = Classifier.from_arch(extra["arch"])
    model.load_state(arrays)
    assert model.classes_seen == 6
    assert "bn_stats" in set(groups.values())
    logits = model.forward(np.zeros((2, 4)), mode="eval")
    assert logits.data.shape == (2, 6)
    assert (out / "checkpoints" / "session_0.ckpt").is_file()

    with open(out / "synthetics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows
    for row in rows:
        assert len(row) == 7            # 4 features + condition, pseudo, session
        [float(v) for v in row[:4]]
        assert int(row[6]) in (0, 1)
    assert {int(r[6]) for r in rows} == {0, 1}


def test_output_switches_leave_the_run_id_and_metrics_alone(first_run, tmp_path):
    """The output switches are flags, not experiment keys: a run with both
    writes the run id and metrics bytes of the same run without them."""
    out = tmp_path / "switched"
    assert main(["run", "--config", str(first_run.config), "--quiet", "--out",
                 str(out), "--save-checkpoints", "--export-synthetics"]) == 0
    for name in ("metrics.jsonl", "summary.csv"):
        assert (out / name).read_bytes() == (first_run.dir / name).read_bytes(), name
    manifests = [json.loads((d / "manifest.json").read_text())
                 for d in (first_run.dir, out)]
    assert manifests[0]["run_id"] == manifests[1]["run_id"]
    assert manifests[0]["config"] == manifests[1]["config"]
    assert len(manifests[1]["config"]) == 52


def test_output_switches_are_not_config_keys(first_run, tmp_path, capsys):
    cfg_file = tmp_path / "switch.cfg"
    cfg_file.write_text(LIGHT_FILE + "export_synthetics = true\n")
    for argv, key in [(["--config", str(first_run.config),
                        "--set", "save_checkpoints=true"], "save_checkpoints"),
                      (["--config", str(cfg_file)], "export_synthetics")]:
        assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_format_1_manifest_reruns_byte_for_byte(tmp_path):
    """A format-1 rerun keeps the recorded run id, which hashed the switch
    keys, and writes the outputs its artifacts name. The portable files
    (manifest, metrics.jsonl, summary.csv) are the recorded bytes on any
    kernel. The checkpoints' and synthetics.csv's digests hold the floats of
    the kernels in kernel.json, so they are compared only where this
    machine's kernel fingerprint is the same."""
    out = tmp_path / "rerun"
    assert main(["run", "--from-manifest", os.path.join(FORMAT1, "manifest.json"),
                 "--out", str(out), "--quiet"]) == 0
    written = digests(str(out))
    with open(os.path.join(FORMAT1, "outputs.sha256"), encoding="utf-8") as fh:
        recorded = dict(reversed(line.split()) for line in fh)
    portable = sorted(rel for rel in written if output_kind(rel) == "portable")
    assert portable == ["manifest.json", "metrics.jsonl", "summary.csv"]
    assert sorted(written.keys() - portable) == sorted(recorded) == [
        "checkpoints/session_0.ckpt", "checkpoints/session_1.ckpt", "synthetics.csv"]
    assert {output_kind(rel) for rel in recorded} == {"kernel-bound"}
    for name in portable:
        with open(os.path.join(FORMAT1, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name
    with open(os.path.join(FORMAT1, "kernel.json"), encoding="utf-8") as fh:
        kernel = json.load(fh)
    if (here := kernel_fingerprint()) != kernel:
        warnings.warn(f"kernels {here} are not the recorded {kernel}: compared "
                      f"the portable files only, skipped {', '.join(recorded)}")
        return
    for name, digest in recorded.items():
        assert written[name] == digest, name


def test_a_run_process_loads_no_openssl_and_writes_the_same_bytes(tmp_path):
    """``main`` keeps ``_hashlib`` out of a fresh process, so its SHA-256
    and numpy.random's hmac are Python's built-ins and no libcrypto is
    mapped. The run's portable files equal those of the same run made in
    this process, which hashes with OpenSSL: the digests are the same."""
    pytest.importorskip("_hashlib")
    argv = ["run", "--preset", "desk", "--method", "sdd", "--seed", "0", "--quiet"]
    for item in ("data.sessions=1", "generator.epochs=1", "client.epochs=2"):
        argv += ["--set", item]
    script = ("import json, os, sys\nfrom fedscil.cli import main\n"
              f"assert main({argv + ['--out', str(tmp_path / 'child')]!r}) == 0\n"
              "maps = '/proc/self/maps'\n"
              "crypto = ([line for line in open(maps) if 'libcrypto' in line]\n"
              "          if os.path.exists(maps) else None)\n"
              "print(json.dumps([repr(sys.modules.get('_hashlib')), crypto]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    hashlib_module, crypto = json.loads(proc.stdout.splitlines()[-1])
    assert hashlib_module == "None"
    assert crypto in ([], None)
    assert main(argv + ["--out", str(tmp_path / "here")]) == 0
    for name in ("manifest.json", "metrics.jsonl", "summary.csv"):
        assert ((tmp_path / "child" / name).read_bytes()
                == (tmp_path / "here" / name).read_bytes()), name


def test_main_blocks_openssl_only_before_it_loads_and_with_a_builtin_sha256(
        monkeypatch, tmp_path):
    """An imported ``_hashlib`` stays; without a built-in SHA-256 module
    ``main`` leaves ``_hashlib`` importable; otherwise it blocks it."""
    openssl = pytest.importorskip("_hashlib")
    missing = str(tmp_path / "no-run")
    assert main(["report", missing]) == 2
    assert sys.modules["_hashlib"] is openssl
    monkeypatch.delitem(sys.modules, "_hashlib")
    monkeypatch.setattr(cli, "find_spec", lambda name: None)
    assert main(["report", missing]) == 2
    assert "_hashlib" not in sys.modules
    monkeypatch.setattr(cli, "find_spec", importlib.util.find_spec)
    assert main(["report", missing]) == 2
    assert sys.modules["_hashlib"] is None


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["config"].update(save_checkpoints=1),
     "save_checkpoints: expected true or false, got 1"),
    (lambda m: m["config"].pop("export_synthetics"),
     "export_synthetics: expected true or false, got null"),
    (lambda m: m.update(run_id=5), "run_id: expected a string, got 5"),
    (lambda m: m.pop("run_id"), "run_id: expected a string, got null"),
    (lambda m: m.pop("artifacts"), "no artifacts object"),
    (lambda m: m.update(format=2), "unknown config key: export_synthetics"),
    (lambda m: m["config"].pop("base.epochs"), "config lacks base.epochs"),
], ids=["switch not a bool", "switch missing", "run id not a string",
        "run id missing", "no artifacts", "switch key in format 2",
        "config key missing"])
def test_from_manifest_rejects_a_bad_format_1_field(tmp_path, capsys, edit, message):
    with open(os.path.join(FORMAT1, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = main(["run", "--from-manifest", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{path}: {message}" in err
    assert not (tmp_path / "out").exists()


def test_partition_inspect_stdout_and_file(run_root, tmp_path, capsys):
    out = tmp_path / "partitions.json"
    rc = main(["partition-inspect", "--preset", "desk",
               "--set", "clients=2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clients"] == 2
    assert payload["config"]["data.spread"] == 0.35
    assert len(payload["sessions"]) == 5
    assert "partition" in payload["sessions"][1]
    assert json.loads(out.read_text()) == payload
