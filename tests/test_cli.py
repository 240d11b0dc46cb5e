"""CLI subcommands: run, report, footprint, dynamics, gradcheck."""

import csv
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay import trainer
from protoreplay.cli import _Section, _build_dataset, _trainer_config, main


def run_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 8,
                    "per_class_train": 8, "per_class_test": 6,
                    "separation": 3.0, "seed": 1},
        "protocol": "incremental_class",
        "schedule": {"first_task_classes": 2, "classes_per_task": 1,
                     "quota": 8},
        "architecture": "synthetic_vector",
        "latent_dim": 4,
        "samples": 5,
        "learning_rate": 0.05,
        "epochs_per_task": 3,
        "batch_per_class": 6,
        "per_class_quota": 4,
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_footprint_prints_table_numbers(capsys):
    assert main(["footprint", "--arch", "cifar_like_32", "--mode", "ours",
                 "--latent-dim", "500", "--exemplars", "10"]) == 0
    out = capsys.readouterr().out
    assert "network parameters: 2,126,500" in out
    assert "exemplar elements: 30,720" in out
    assert "prototype elements: 10,000" in out
    assert "total: 2,167,220" in out


def test_footprint_baseline_modes(capsys):
    assert main(["footprint", "--arch", "cifar_like_32", "--mode",
                 "baseline_sgd", "--latent-dim", "500"]) == 0
    assert "network parameters: 1,631,500" in capsys.readouterr().out
    assert main(["footprint", "--arch", "cifar_like_32", "--mode",
                 "baseline_regularizer", "--latent-dim", "500"]) == 0
    out = capsys.readouterr().out
    assert "regularizer parameters: 1,631,500" in out
    assert "total: 3,263,000" in out


def test_footprint_takes_the_prototype_width_from_the_architecture(capsys):
    # mnist_like_28 is built at D = 50 unless --latent-dim says otherwise
    args = ["footprint", "--arch", "mnist_like_28", "--mode", "ours", "--exemplars", "2",
            "--exemplar-shape", "1,28,28"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "prototype elements: 200" in out
    assert main(args + ["--latent-dim", "50"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("latent_dim", ["0", "-3"])
def test_footprint_rejects_a_latent_dim_below_one(capsys, latent_dim):
    assert main(["footprint", "--arch", "mnist_like_28", "--mode", "ours",
                 "--latent-dim", latent_dim]) == 2
    assert f"error: --latent-dim must be >= 1, got {latent_dim}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--arch", "synthetic_vector", "--latent-dim", "4", "--input-dim", "0"],
     "--input-dim must be >= 1, got 0"),
    (["--arch", "synthetic_vector", "--latent-dim", "4", "--input-dim", "-2"],
     "--input-dim must be >= 1, got -2"),
    (["--arch", "cifar_like_32", "--exemplars", "-3"],
     "--exemplars must be >= 0, got -3"),
    (["--arch", "cifar_like_32", "--exemplars", "2", "--exemplar-shape", "0,32,32"],
     "--exemplar-shape must be three positive integers C,H,W, got '0,32,32'"),
    (["--arch", "cifar_like_32", "--exemplars", "2", "--exemplar-shape", "a,b"],
     "--exemplar-shape must be three positive integers C,H,W, got 'a,b'"),
], ids=["input-dim-0", "input-dim-negative", "exemplars-negative", "exemplar-shape-zero",
        "exemplar-shape-not-integers"])
def test_footprint_rejects_an_out_of_range_size(capsys, flags, message):
    assert main(["footprint", "--mode", "ours", *flags]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_run_writes_artifacts_and_is_reproducible(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["accuracy.csv", "manifest.json", "prototype_history.csv",
                 "task1_latents.csv", "encoder.npz", "memory.bin"]:
        assert (out1 / name).exists()
    assert (out1 / "accuracy.csv").read_bytes() == (out2 / "accuracy.csv").read_bytes()
    assert (out1 / "prototype_history.csv").read_bytes() == \
        (out2 / "prototype_history.csv").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert 0.0 <= manifest["final_average_accuracy"] <= 1.0
    assert manifest["footprint"]["network_params"] > 0


def test_run_manifest_records_environment(tmp_path, capsys, monkeypatch):
    cfg = run_config(tmp_path)
    outputs = {}
    for name, threads in (("unset", None), ("one", "1")):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    manifests = {name: json.loads(files.pop("manifest.json"))
                 for name, files in outputs.items()}
    # the environment block is the one addition; no other output moves
    assert outputs["unset"] == outputs["one"]
    assert set(outputs["unset"]) == {"accuracy.csv", "prototype_history.csv",
                                     "task1_latents.csv", "encoder.npz", "memory.bin"}
    env = {name: m.pop("environment") for name, m in manifests.items()}
    for m in manifests.values():
        m.pop("wall_time_seconds")
    assert manifests["unset"] == manifests["one"]
    assert set(manifests["unset"]) == {"config", "seed", "footprint",
                                       "final_average_accuracy"}
    assert env["unset"]["openblas_num_threads"] is None
    assert env["one"]["openblas_num_threads"] == "1"
    for e in env.values():
        assert set(e) == {"numpy", "blas", "blas_version", "openblas_num_threads",
                          "blas_threads", "usable_cpus"}
        assert e["numpy"] == np.__version__
        assert isinstance(e["usable_cpus"], int) and e["usable_cpus"] >= 1


def test_report_fixture_average(tmp_path, capsys):
    path = tmp_path / "acc.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["task_1", "task_2"])
        writer.writerow(["1.0"])
        writer.writerow(["0.5", "1.0"])
    assert main(["report", "--matrix", str(path)]) == 0
    out = capsys.readouterr().out
    assert "final average accuracy: 0.7500" in out
    assert "forgetting on task 1: 0.5000" in out


def test_dynamics_on_generated_history(tmp_path, capsys):
    cfg = run_config(tmp_path)
    run_out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
    sim = tmp_path / "similarity.csv"
    with open(sim, "w", newline="") as f:
        writer = csv.writer(f)
        for row in np.eye(3):
            writer.writerow([repr(float(v)) for v in row])
    dyn_out = tmp_path / "dyn"
    assert main(["dynamics", "--history", str(run_out / "prototype_history.csv"),
                 "--basis", str(run_out / "task1_latents.csv"),
                 "--similarity", str(sim), "--out", str(dyn_out)]) == 0
    out = capsys.readouterr().out
    assert "pearson r" in out
    with open(dyn_out / "trajectories.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["class_id", "task_id", "pc1", "pc2", "pc3"]
    assert len(rows) > 1
    assert (dyn_out / "motion_distances.csv").exists()


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradient checks passed" in out
    assert "FAIL" not in out
    # one row per GRAD_CASES entry, the tied-maxima pooling check and three losses
    rows = [line.split()[0] for line in out.splitlines() if "max relative error" in line]
    assert len(rows) == len(ad.GRAD_CASES) + 4 == 28 and "conv_block" in rows


def test_gradcheck_fails_on_a_wrong_backward(monkeypatch, capsys):
    def exp_with_doubled_backward(a):
        out = ad.exp(a)
        backward = out._backward
        out._backward = lambda g: backward(2.0 * g)
        return out
    monkeypatch.setitem(ad.OPS, "exp", exp_with_doubled_backward)
    assert main(["gradcheck"]) == 1
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines() if "FAIL" in line] == ["exp"]
    assert "gradient check failed for: exp" in captured.err


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_dataset_kind_exits_two(tmp_path, capsys):
    cfg = run_config(tmp_path, dataset={"kind": "tfrecord"})
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "unknown dataset kind" in capsys.readouterr().err


def test_idx_subset_that_drops_test_classes_exits_two(tmp_path, capsys):
    # six 2x2 images; the first three train labels cover classes 0-2, the
    # first three test labels only 0 and 1
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 6, 2, 2) + bytes(range(24)))
    dataset = {"kind": "idx", "train_images": str(images), "test_images": str(images)}
    for split, labels in (("train", [0, 1, 2, 0, 1, 2]), ("test", [0, 0, 1, 1, 2, 2])):
        path = tmp_path / f"{split}-labels.idx"
        path.write_bytes(struct.pack(">II", 0x801, 6) + bytes(labels))
        dataset[f"{split}_labels"] = str(path)
    assert _build_dataset(dict(dataset)).num_classes == 3
    cfg = run_config(tmp_path, dataset=dict(dataset, subset=3))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "no images of classes [2] within the first 3" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_blas_threads_is_the_count_openblas_runs():
    # OPENBLAS_NUM_THREADS is read when numpy loads, so a fresh process
    # shows it; null only where no OpenBLAS probe is found beside numpy
    code = "from protoreplay.cli import _environment; print(_environment()['blas_threads'])"
    src = str(Path(ad.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out in ("1", "None")


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_a_non_finite_loss_exits_two_naming_the_step(tmp_path, capsys, existing):
    # separation 1e308 overflows the first step's distances; --out, and any
    # parent of it, goes again only if this run made it
    cfg = json.loads(run_config(tmp_path).read_text())
    cfg["dataset"]["separation"] = 1e308
    out = tmp_path / "runs" / "o"
    if existing:
        out.mkdir(parents=True)
    # the error line is the only report: numpy warns of no overflow either
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(run_config(tmp_path, **cfg)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: non-finite loss nan at task 1, epoch 1/3, batch 1/2\n"
    assert [str(w.message) for w in warned] == []
    assert out.exists() == existing and out.parent.exists() == existing
    if existing:
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("overrides, key", [
    ({"learning_rat": 5.0}, "learning_rat"),
    ({"ablation": {"recall": "mean_only", "unweighted": True}}, "unweighted"),
    ({"dataset": {"kind": "synthetic", "num_classes": 3, "dim": 8, "per_class_train": 8,
                  "per_class_test": 6, "separation": 3.0, "sepration": 1.0}}, "sepration"),
    ({"schedule": {"first_task_classes": 2, "clases_per_task": 2}}, "clases_per_task"),
    # a key of another schedule form is not read either
    ({"protocol": "incremental_domain", "schedule": {"num_tasks": 2, "quota": 8}}, "quota"),
])
def test_unknown_config_key_exits_two(tmp_path, capsys, overrides, key):
    cfg = run_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("arch", ["cifar_like_32", "mnist_like_28"])
def test_architecture_that_does_not_fit_the_dataset_exits_two(tmp_path, capsys, arch):
    cfg = run_config(tmp_path, architecture=arch,
                     dataset={"kind": "synthetic", "num_classes": 3, "dim": 20,
                              "per_class_train": 8, "per_class_test": 6,
                              "separation": 3.0, "seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"architecture '{arch}' does not fit the dataset's (1, 1, 20) images" in err
    assert not out.exists()


def test_a_conv_error_names_the_conv_block_that_runs(tmp_path, capsys):
    # 3072 = 3 * 32 * 32 elements, but synthetic vectors have one channel
    cfg = run_config(tmp_path, architecture="cifar_like_32",
                     dataset={"kind": "synthetic", "num_classes": 3, "dim": 3072,
                              "per_class_train": 8, "per_class_test": 6,
                              "separation": 3.0, "seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "images: conv_block: incompatible shapes (1, 1, 1, 3072) and (20, 3, 5, 5)" in err
    assert not out.exists()


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    cfg["epochs_per_task"] = 2      # the keys are under test, not the accuracy
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "run complete" in capsys.readouterr().out


def readme_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


@pytest.mark.parametrize("overrides, code, stream, fragment", [
    # the README's preset schedule form
    ({"schedule": {"kind": "cifar_like"}}, 0, "out", "run complete"),
    ({"protocol": "incremental_task"}, 2, "err", "unknown protocol 'incremental_task'"),
    ({"ablation": ["recall", "mean_only"]}, 2, "err", "ablation must be a JSON object"),
    # a JSON string is not a boolean, however it reads
    ({"ablation": {"unweighted_distance": "false"}}, 2, "err",
     "ablation.unweighted_distance must be true or false, got 'false'"),
    ({"replay_weight": float("nan")}, 2, "err", "replay_weight must be finite, got nan"),
    ({"tau": float("inf")}, 2, "err", "tau must be finite, got inf"),
])
def test_run_config_forms(tmp_path, capsys, overrides, code, stream, fragment):
    cfg = run_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert fragment in getattr(capsys.readouterr(), stream)


def test_ablation_unweighted_distance_sets_sampling_weighted():
    for unweighted in (False, True):
        cfg = _Section({"ablation": {"unweighted_distance": unweighted}}, "config")
        assert _trainer_config(cfg).sampling.weighted is (not unweighted)


def test_unknown_schedule_kind_exits_two(tmp_path, capsys):
    cfg = run_config(tmp_path, schedule={"kind": "cifar"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert ("error: unknown schedule kind 'cifar': the presets are 'cifar_like' and "
            "'imagenet_like'") in capsys.readouterr().err


@pytest.mark.parametrize("kind, fragment", [
    (5, "schedule kind 5 is neither a preset name nor a list of (class_ids, quota) pairs"),
    ([1, 2], "schedule plan entry 1 is 1, not a (class_ids, quota) pair"),
    ([[[0, 1], "x"]], "schedule plan entry 1 is [[0, 1], 'x'], not a (class_ids, quota)"),
    ([[[0, 1], 4], [[2], -1]], "schedule plan entry 2 is [[2], -1], not a (class_ids, quota)"),
    ([[[True, 1], 4]], "schedule plan entry 1 is [[True, 1], 4], not a (class_ids, quota)"),
])
def test_malformed_custom_schedule_plan_exits_two(tmp_path, capsys, kind, fragment):
    cfg = run_config(tmp_path, schedule={"kind": kind})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


def test_custom_schedule_plan_with_a_null_quota_runs(tmp_path, capsys):
    cfg = run_config(tmp_path, schedule={"kind": [[[0, 1], None], [[2], 8]]})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "run complete" in capsys.readouterr().out


@pytest.mark.parametrize("quota, fragment", [
    (1, "task 1: classes [0, 1] have fewer than two training images"),
    (0, "task 1: no training images"),
])
def test_task_classes_too_small_to_train_exit_two(tmp_path, capsys, quota, fragment):
    cfg = readme_config()
    cfg["schedule"]["quota"] = quota
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_a_budget_too_small_for_a_later_task_exits_two_before_training(
        tmp_path, capsys, monkeypatch):
    # 20 elements hold one 8-element exemplar of each of task 1's two
    # classes, but not of the three seen after task 2
    trained = []
    monkeypatch.setattr(trainer, "train_task", lambda *args, **kw: trained.append(args))
    out = tmp_path / "o"
    assert main(["run", "--config", str(run_config(tmp_path, budget_elements=20)),
                 "--out", str(out)]) == 2
    assert ("error: budget of 20 elements cannot hold one 8-element exemplar for each "
            "of 3 classes") in capsys.readouterr().err
    assert not out.exists() and trained == []


@pytest.mark.parametrize("key, value, field", [
    ("epochs_per_task", 2.5, "epochs_per_task"),
    ("batch_per_class", 4.0, "batch_per_class"),
    ("per_class_quota", 2.5, "per_class_quota"),
    ("seed", 1.5, "seed"),
    ("latent_dim", 16.0, "D"),
    ("samples", "50", "Z"),
])
def test_config_value_of_the_wrong_type_exits_two(tmp_path, capsys, key, value, field):
    cfg = run_config(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {field} must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("dataset", "num_classes", "4", "dataset.num_classes must be an integer, got '4'"),
    ("dataset", "seed", 1.5, "dataset.seed must be an integer, got 1.5"),
    ("dataset", "separation", "5", "dataset.separation must be a real number, got '5'"),
    ("dataset", "separation", True, "dataset.separation must be a real number, got True"),
    ("dataset", "separation", float("nan"), "dataset.separation must be finite, got nan"),
    ("dataset", "noise", float("-inf"), "dataset.noise must be finite, got -inf"),
    ("dataset", "per_class_test", 0, "dataset.per_class_test must be >= 1, got 0"),
    ("dataset", "dim", 0, "dataset.dim must be >= 1, got 0"),
    ("dataset", "num_classes", None, "dataset.num_classes is required"),
    ("schedule", "quota", "4", "schedule.quota must be an integer, got '4'"),
    ("schedule", "classes_per_task", "1", "schedule.classes_per_task must be an integer"),
    ("schedule", "first_task_classes", 1.5, "schedule.first_task_classes must be an integer"),
    ("schedule", "num_tasks", "2", "schedule.num_tasks must be an integer, got '2'"),
])
def test_dataset_or_schedule_value_of_the_wrong_type_exits_two(tmp_path, capsys, section,
                                                               key, value, message):
    cfg = json.loads(run_config(tmp_path).read_text())
    if key == "num_tasks":
        cfg["protocol"], cfg["schedule"] = "incremental_domain", {}
    if value is None:
        del cfg[section][key]
    else:
        cfg[section][key] = value
    path = run_config(tmp_path, **cfg)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    (None, "seed", -1, "seed must be >= 0, got -1"),
    (None, "per_class_quota", 0, "per_class_quota must be >= 1, got 0"),
    (None, "budget_elements", -1, "budget_elements must be >= 1, got -1"),
    ("dataset", "seed", -1, "dataset.seed must be >= 0, got -1"),
])
def test_a_count_out_of_range_exits_two_before_the_output_directory(
        tmp_path, capsys, section, key, value, message):
    cfg = json.loads(run_config(tmp_path).read_text())
    (cfg if section is None else cfg[section])[key] = value
    path = run_config(tmp_path, **cfg)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_idx_dataset_without_a_required_key_exits_two(tmp_path, capsys):
    cfg = run_config(tmp_path, dataset={"kind": "idx", "train_images": "images.idx"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error: dataset.train_labels is required" in capsys.readouterr().err


@pytest.mark.parametrize("count, rows, cols", [
    (0xFFFFFFFF, 0xFFFF, 0xFFFF),
    (2 ** 31, 2 ** 16, 2 ** 10),
])
def test_idx_sizes_larger_than_the_file_exit_two(tmp_path, capsys, count, rows, cols):
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(24))
    labels = tmp_path / "labels.idx"
    labels.write_bytes(struct.pack(">II", 0x801, 6) + bytes(6))
    dataset = {"kind": "idx", "train_images": str(images), "train_labels": str(labels),
               "test_images": str(images), "test_labels": str(labels)}
    cfg = run_config(tmp_path, dataset=dataset)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {images}: truncated pixel data" in capsys.readouterr().err


@pytest.mark.parametrize("args, bad, fragment", [
    (["dynamics", "--history", "history.csv", "--basis", "empty.csv"], "empty.csv",
     "no numeric rows"),
    (["dynamics", "--history", "history.csv", "--similarity", "empty.csv"], "empty.csv",
     "no numeric rows"),
    (["dynamics", "--history", "history.csv", "--basis", "ragged.csv"], "ragged.csv",
     "rows of different lengths"),
    (["dynamics", "--history", "short.csv"], "short.csv", "row 3: 1 field(s)"),
    (["report", "--matrix", "empty.csv"], "empty.csv", "empty file"),
])
def test_malformed_csv_input_exits_two_naming_the_file(tmp_path, capsys, args, bad,
                                                        fragment):
    history = ["task_id,class_id,m0,m1,m2", "1,0,1.0,0.0,0.0", "1,1,0.0,1.0,0.0",
               "1,2,0.0,0.0,1.0", "2,0,0.0,0.0,0.0"]
    (tmp_path / "history.csv").write_text("\n".join(history) + "\n")
    (tmp_path / "short.csv").write_text("\n".join(history[:2] + ["1"]) + "\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "ragged.csv").write_text("1.0,2.0,3.0\n4.0,5.0\n")
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in args]
    if args[0] == "dynamics":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / bad}" in err and fragment in err


@pytest.mark.parametrize("history, basis, fragment", [
    (["task_id,class_id,m0,m1,m2"], None, "no prototype records"),
    (["task_id,class_id,m0,m1,m2", "1,0,1.0,0.0,0.0", "1,1,0.0,1.0"], None,
     "row 3: mean of 2 values, but the first record's has 3"),
    (["task_id,class_id,m0,m1", "1,0,1.0,0.0", "1,1,0.0,1.0"],
     ["1,0,0", "0,1,0", "0,0,1", "1,1,2"], "rows of 3 values, but the means in"),
    (["task_id,class_id,m0,m1,m2", "1,0,1.0,0.0,0.0", "1,1,0.0,1.0,0.0"], None,
     "need rank >= 3"),
])
def test_dynamics_malformed_history_exits_two_naming_the_file(tmp_path, capsys, history,
                                                              basis, fragment):
    path = tmp_path / "history.csv"
    path.write_text("\n".join(history) + "\n")
    argv = ["dynamics", "--history", str(path), "--out", str(tmp_path / "o")]
    named = path
    if basis is not None:
        named = tmp_path / "basis.csv"
        named.write_text("\n".join(basis) + "\n")
        argv += ["--basis", str(named)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {named}" in err and fragment in err
