"""End-to-end command-line behavior: artifacts, exit codes, help text."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidessl
from slidessl import selfcheck, training
from slidessl.cli import _parse_budget, main
from slidessl.errors import ValidationError


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    banks = root / "banks"
    rc = main(["gen", "--out", str(banks), "--slides", "8", "--classes", "2",
               "--tiles", "24", "--augs", "3", "--dim", "6",
               "--extent", "2048", "--seed", "7"])
    assert rc == 0
    return root, banks


@pytest.fixture(scope="module")
def trained(corpus):
    root, banks = corpus
    ckpt = root / "model.ckpt"
    report = root / "train.json"
    rc = main(["pretrain", "--banks", str(banks), "--checkpoint", str(ckpt),
               "--epochs", "2", "--tiles", "4", "--batch", "4", "--seed", "1",
               "--report", str(report)])
    assert rc == 0
    return root, banks, ckpt


def test_gen_writes_corpus(corpus):
    _, banks = corpus
    assert len(list(banks.glob("*.gsb"))) == 8
    assert (banks / "labels.csv").exists()
    assert (banks / "corpus.json").exists()


def test_gen_verify_flag(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "c"), "--slides", "6",
               "--tiles", "16", "--augs", "2", "--dim", "4",
               "--extent", "2048", "--seed", "0", "--verify"])
    assert rc == 0
    assert "marginal-equality statistic" in capsys.readouterr().out


def test_gen_refuses_more_classes_than_layouts(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["gen", "--out", str(out), "--slides", "10", "--classes", "5",
               "--tiles", "8", "--augs", "2", "--dim", "4", "--extent", "2048"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not list(tmp_path.rglob("*.gsb"))


def test_gen_rejects_bad_config(tmp_path):
    rc = main(["gen", "--out", str(tmp_path / "c"), "--slides", "1"])
    assert rc == 1


def test_pretrain_writes_artifacts(trained):
    root, _, ckpt = trained
    assert ckpt.exists()
    assert ckpt.with_suffix(".log.csv").exists()
    doc = json.loads((root / "train.json").read_text())
    assert doc["epochs"] == 2
    assert doc["tiles"] == 4


def strict_json(text):
    """``json.loads`` that refuses NaN and infinities, as JSON does."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("how", ["zero epochs", "resume at the last epoch"])
def test_pretrain_report_when_no_epoch_runs(trained, tmp_path, capsys, how):
    _, banks, ckpt = trained
    out, report = tmp_path / "m.ckpt", tmp_path / "r.json"
    argv = ["pretrain", "--banks", str(banks), "--checkpoint", str(out),
            "--tiles", "4", "--batch", "4", "--seed", "1", "--report", str(report)]
    if how == "zero epochs":
        argv += ["--epochs", "0"]
    else:
        out.write_bytes(ckpt.read_bytes())
        argv += ["--epochs", "2", "--resume"]
    capsys.readouterr()
    assert main(argv) == 0
    doc = strict_json(report.read_text())
    assert doc["final_loss"] is None
    assert capsys.readouterr().out.startswith("no epoch ran: ")


def test_pretrain_flag_overrides_config(corpus, tmp_path, capsys):
    _, banks = corpus
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 5\ntiles = 4\nbatch_size = 4\n"
                   "temperature = 0.2\nshared_aug = true\nslide_aug = true\n")
    rc = main(["pretrain", "--banks", str(banks),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--config", str(cfg), "--epochs", "1", "--tau", "0.7",
               "--no-shared-aug", "--no-slide-aug",
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["epochs"] == 1          # flags win
    assert doc["temperature"] == 0.7
    assert doc["shared_aug"] is False
    assert doc["slide_aug"] is False
    assert doc["tiles"] == 4           # config survives
    assert doc["batch_size"] == 4


def test_pretrain_single_bank_exits_1(tmp_path, corpus):
    _, banks = corpus
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "only.gsb").write_bytes(next(banks.glob("*.gsb")).read_bytes())
    rc = main(["pretrain", "--banks", str(lone),
               "--checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1",
               "--tiles", "4"])
    assert rc == 1


def resumable_copy(trained, tmp_path):
    """A copy of the trained checkpoint and its log, and the argv that
    resumes it with the flags it was trained with."""
    _, banks, ckpt = trained
    copy = tmp_path / "m.ckpt"
    copy.write_bytes(ckpt.read_bytes())
    copy.with_suffix(".log.csv").write_bytes(ckpt.with_suffix(".log.csv").read_bytes())
    return copy, ["pretrain", "--banks", str(banks), "--checkpoint", str(copy),
                  "--tiles", "4", "--batch", "4", "--seed", "1", "--resume"]


def test_pretrain_resume_past_epochs_exits_1_and_writes_nothing(
        trained, tmp_path, capsys):
    ckpt, argv = resumable_copy(trained, tmp_path)
    files = [ckpt, ckpt.with_suffix(".log.csv")]
    before = [f.read_bytes() for f in files]
    assert main(argv + ["--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: m.ckpt has trained 2 epochs") and "Traceback" not in err
    assert [f.read_bytes() for f in files] == before
    assert main(argv + ["--epochs", "2"]) == 0          # already complete
    assert [f.read_bytes() for f in files] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.log.csv"]


def test_pretrain_resume_bad_state_exits_1(trained, tmp_path, capsys):
    from slidessl.numcore import load_checkpoint, save_checkpoint
    ckpt, argv = resumable_copy(trained, tmp_path)
    arrays = load_checkpoint(ckpt)
    arrays["meta.state"] = np.array([-3.0, 2.5], dtype=np.float32)
    save_checkpoint(ckpt, arrays)
    assert main(argv + ["--epochs", "3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'meta.state'" in err[0]


def test_embed_writes_gse_and_csv(trained, tmp_path):
    _, banks, ckpt = trained
    out = tmp_path / "e.gse"
    csv = tmp_path / "e.csv"
    rc = main(["embed", "--banks", str(banks), "--checkpoint", str(ckpt),
               "--out", str(out), "--csv", str(csv), "--views", "3",
               "--seed", "0", "--threads", "2"])
    assert rc == 0
    from slidessl.inference import load_embeddings
    ids, matrix = load_embeddings(out)
    assert len(ids) == 8 and matrix.shape[0] == 8
    assert ids == sorted(ids)
    assert csv.read_text().splitlines()[0].startswith("id,v0")


def test_embed_reproducible(trained, tmp_path):
    _, banks, ckpt = trained
    a, b = tmp_path / "a.gse", tmp_path / "b.gse"
    for out in (a, b):
        rc = main(["embed", "--banks", str(banks), "--checkpoint", str(ckpt),
                   "--out", str(out), "--views", "2", "--seed", "3"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_embed_bytes_do_not_depend_on_thread_counts(tmp_path):
    banks, ckpt = tmp_path / "banks", tmp_path / "m.ckpt"
    assert main(["gen", "--out", str(banks), "--slides", "6", "--tiles", "24",
                 "--augs", "3", "--dim", "6", "--extent", "2048",
                 "--seed", "5"]) == 0
    assert main(["pretrain", "--banks", str(banks), "--checkpoint", str(ckpt),
                 "--epochs", "1", "--tiles", "6", "--batch", "3"]) == 0
    src = str(Path(slidessl.__file__).resolve().parents[1])
    outputs = []
    for blas, threads in itertools.product("12", "12"):
        out = tmp_path / f"blas{blas}_threads{threads}.gse"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "slidessl.cli", "embed",
                        "--banks", str(banks), "--checkpoint", str(ckpt),
                        "--out", str(out), "--threads", threads],
                       check=True, env=env, capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    from slidessl.inference import load_embeddings
    assert len(load_embeddings(out)[0]) == 6
    assert all(blob == outputs[0] for blob in outputs[1:])


def test_embed_avgmil_needs_no_checkpoint(corpus, tmp_path):
    _, banks = corpus
    out = tmp_path / "mil.gse"
    rc = main(["embed", "--banks", str(banks), "--out", str(out), "--avgmil"])
    assert rc == 0
    from slidessl.inference import load_embeddings
    ids, matrix = load_embeddings(out)
    assert matrix.shape == (8, 6)


def test_embed_without_checkpoint_exits_1(corpus, tmp_path):
    _, banks = corpus
    rc = main(["embed", "--banks", str(banks), "--out", str(tmp_path / "x.gse")])
    assert rc == 1


@pytest.mark.parametrize("avgmil", [False, True])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_embed_without_threads_exits_1(trained, tmp_path, capsys, n, avgmil):
    _, banks, ckpt = trained
    out = tmp_path / "e.gse"
    source = ["--avgmil"] if avgmil else ["--checkpoint", str(ckpt)]
    rc = main(["embed", "--banks", str(banks), *source, "--out", str(out),
               "--views", "2", "--threads", n])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: embed needs at least 1 thread, got {n}\n"
    assert not out.exists()


def test_embed_corrupt_bank_exits_2(trained, tmp_path, capsys):
    _, banks, ckpt = trained
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in banks.glob("*.gsb"):
        (broken / p.name).write_bytes(p.read_bytes())
    victim = sorted(broken.glob("*.gsb"))[0]
    victim.write_bytes(b"garbage")
    out = tmp_path / "e.gse"
    rc = main(["embed", "--banks", str(broken), "--checkpoint", str(ckpt),
               "--out", str(out), "--views", "2"])
    assert rc == 2
    assert victim.stem in capsys.readouterr().err
    from slidessl.inference import load_embeddings
    ids, _ = load_embeddings(out)
    assert len(ids) == 7  # survivors still written


def test_embed_oversized_bank_header_exits_2(trained, tmp_path, capsys):
    _, banks, ckpt = trained
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in banks.glob("*.gsb"):
        (broken / p.name).write_bytes(p.read_bytes())
    victim = sorted(broken.glob("*.gsb"))[0]
    blob = bytearray(victim.read_bytes())
    blob[16:20] = (2 ** 29).to_bytes(4, "little")   # feat_dim header field
    victim.write_bytes(bytes(blob))
    out = tmp_path / "e.gse"
    rc = main(["embed", "--banks", str(broken), "--checkpoint", str(ckpt),
               "--out", str(out), "--views", "2"])
    assert rc == 2
    assert f"failed: {victim.stem}: " in capsys.readouterr().err
    from slidessl.inference import load_embeddings
    ids, _ = load_embeddings(out)
    assert len(ids) == 7 and victim.stem not in ids


def test_embed_nan_checkpoint_fails_slides_instead_of_nan_rows(
        trained, tmp_path, capsys):
    _, banks, ckpt = trained
    from slidessl.training import load_model, save_model
    model, epoch = load_model(ckpt)
    model.store["net.head.w"][0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_model(model, bad, epoch)
    out = tmp_path / "nan.gse"
    rc = main(["embed", "--banks", str(banks), "--checkpoint", str(bad),
               "--out", str(out), "--views", "2"])
    # the checkpoint is refused when it loads, before any slide is embedded
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'net.head.w'" in err[0]
    assert not out.exists()


def test_embed_negative_running_variance_exits_1(trained, tmp_path, capsys):
    _, banks, ckpt = trained
    from slidessl.training import load_model, save_model
    model, epoch = load_model(ckpt)
    model.net.buffers["net.block0.bn2.run_var"][0] = -0.5
    bad = tmp_path / "negvar.ckpt"
    save_model(model, bad, epoch)
    out = tmp_path / "negvar.gse"
    rc = main(["embed", "--banks", str(banks), "--checkpoint", str(bad),
               "--out", str(out), "--views", "2"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'net.block0.bn2.run_var'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("avgmil", [False, True])
def test_embed_duplicate_slide_id_exits_2(trained, tmp_path, capsys, avgmil):
    _, banks, ckpt = trained
    dup = tmp_path / "dup"
    dup.mkdir()
    for p in banks.glob("*.gsb"):
        for f in (p, p.with_suffix(".json")):
            (dup / f.name).write_bytes(f.read_bytes())
    first = sorted(dup.glob("*.gsb"))[0]
    for suffix in (".gsb", ".json"):      # the copy lists last
        (dup / f"zz_copy{suffix}").write_bytes(
            first.with_suffix(suffix).read_bytes())
    out = tmp_path / "dup.gse"
    model = ["--avgmil"] if avgmil else ["--checkpoint", str(ckpt)]
    rc = main(["embed", "--banks", str(dup), "--out", str(out), *model])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    failed = [line for line in err if line.startswith("failed: ")]
    assert len(failed) == 1
    assert failed[0].startswith("failed: zz_copy: zz_copy.gsb: ")
    assert first.name in failed[0]
    from slidessl.inference import load_embeddings
    ids, _ = load_embeddings(out)
    assert len(ids) == 8 and ids.count(first.stem) == 1


def test_embed_avgmil_unreadable_bank_exits_2(corpus, tmp_path, capsys):
    _, banks = corpus
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in banks.glob("*.gsb"):
        (broken / p.name).write_bytes(p.read_bytes())
    victim = sorted(broken.glob("*.gsb"))[0]
    victim.unlink()
    victim.mkdir()  # reading it raises an OSError, not a PipelineError
    out = tmp_path / "mil.gse"
    rc = main(["embed", "--banks", str(broken), "--out", str(out), "--avgmil"])
    assert rc == 2
    assert victim.stem in capsys.readouterr().err
    from slidessl.inference import load_embeddings
    ids, _ = load_embeddings(out)
    assert len(ids) == 7


def test_probe_reports(trained, tmp_path, capsys):
    root, banks, ckpt = trained
    gse = tmp_path / "e.gse"
    main(["embed", "--banks", str(banks), "--checkpoint", str(ckpt),
          "--out", str(gse), "--views", "2"])
    report = tmp_path / "report.csv"
    rc = main(["probe", "--embeddings", str(gse),
               "--labels", str(banks / "labels.csv"),
               "--out", str(report), "--budget", "all", "--splits", "3",
               "--task", "toy"])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "task,budget,split,auc"
    assert sum(1 for l in lines if l.startswith("toy,all,")) == 5  # 3 + mean + std
    table = capsys.readouterr().out
    assert "task" in table and "toy" in table


def test_probe_budget_too_small_exits_1(trained, tmp_path):
    _, banks, ckpt = trained
    gse = tmp_path / "e.gse"
    main(["embed", "--banks", str(banks), "--checkpoint", str(ckpt),
          "--out", str(gse), "--views", "2"])
    rc = main(["probe", "--embeddings", str(gse),
               "--labels", str(banks / "labels.csv"), "--budget", "50"])
    assert rc == 1


def test_probe_bad_budget_exits_1(trained, tmp_path):
    _, banks, ckpt = trained
    gse = tmp_path / "e.gse"
    main(["embed", "--banks", str(banks), "--checkpoint", str(ckpt),
          "--out", str(gse), "--views", "2"])
    rc = main(["probe", "--embeddings", str(gse),
               "--labels", str(banks / "labels.csv"), "--budget", "half"])
    assert rc == 1


def test_probe_non_finite_embedding_exits_1(tmp_path, capsys):
    from slidessl.inference import save_embeddings
    ids = [f"s{i}" for i in range(12)]
    matrix = np.random.default_rng(0).normal(size=(12, 4))
    matrix[5, 2] = np.nan
    gse = tmp_path / "nan.gse"
    save_embeddings(gse, ids, matrix)
    labels = tmp_path / "labels.csv"
    labels.write_text("slide_id,label\n" + "".join(
        f"{sid},{i % 2}\n" for i, sid in enumerate(ids)))
    rc = main(["probe", "--embeddings", str(gse), "--labels", str(labels)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "row 5" in err


def test_probe_repeated_label_id_exits_1(tmp_path, capsys):
    from slidessl.inference import save_embeddings
    ids = [f"s{i}" for i in range(12)]
    gse = tmp_path / "m.gse"
    save_embeddings(gse, ids, np.random.default_rng(0).normal(size=(12, 4)))
    labels = tmp_path / "labels.csv"
    labels.write_text("slide_id,label\n" + "".join(
        f"{sid},{i % 2}\n" for i, sid in enumerate(ids)) + "s3,0\n")
    rc = main(["probe", "--embeddings", str(gse), "--labels", str(labels)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'s3' is repeated" in err
    assert "Traceback" not in err


# Each case: the arguments, given the bank directory ``b``, the checkpoint
# ``m`` and a directory ``t`` that holds ``dir`` (a directory where a file
# belongs), ``file`` (a file where a directory belongs), ``mil.gse``,
# ``zz_banks`` (banks plus a directory named zz.gsb) and no ``none``; then
# the exit code. The suite runs as root, so a file it may not read cannot
# be made.
PATH_CASES = {
    "gen_out_is_a_file": (lambda b, m, t: [
        "gen", "--out", f"{t}/file", "--slides", "4"], 2),
    "pretrain_banks_missing": (lambda b, m, t: [
        "pretrain", "--banks", f"{t}/none", "--checkpoint", f"{t}/p.ckpt"], 1),
    "pretrain_bank_is_a_directory": (lambda b, m, t: [
        "pretrain", "--banks", f"{t}/zz_banks", "--checkpoint", f"{t}/p.ckpt"], 2),
    "pretrain_config_missing": (lambda b, m, t: [
        "pretrain", "--banks", b, "--checkpoint", f"{t}/p.ckpt",
        "--config", f"{t}/none"], 2),
    "pretrain_config_is_a_directory": (lambda b, m, t: [
        "pretrain", "--banks", b, "--checkpoint", f"{t}/p.ckpt",
        "--config", f"{t}/dir"], 2),
    "pretrain_checkpoint_is_a_directory": (lambda b, m, t: [
        "pretrain", "--banks", b, "--checkpoint", f"{t}/dir", "--epochs", "1",
        "--tiles", "4", "--batch", "4"], 2),
    "embed_banks_missing": (lambda b, m, t: [
        "embed", "--banks", f"{t}/none", "--checkpoint", m, "--out", f"{t}/e.gse"], 1),
    "embed_banks_missing_avgmil": (lambda b, m, t: [
        "embed", "--banks", f"{t}/none", "--avgmil", "--out", f"{t}/e.gse"], 1),
    "embed_checkpoint_missing": (lambda b, m, t: [
        "embed", "--banks", b, "--checkpoint", f"{t}/none",
        "--out", f"{t}/e.gse"], 2),
    "embed_checkpoint_is_a_directory": (lambda b, m, t: [
        "embed", "--banks", b, "--checkpoint", f"{t}/dir", "--out", f"{t}/e.gse"], 2),
    "embed_out_is_a_directory": (lambda b, m, t: [
        "embed", "--banks", b, "--checkpoint", m, "--views", "2",
        "--out", f"{t}/dir"], 2),
    "probe_embeddings_missing": (lambda b, m, t: [
        "probe", "--embeddings", f"{t}/none", "--labels", f"{b}/labels.csv"], 2),
    "probe_embeddings_is_a_directory": (lambda b, m, t: [
        "probe", "--embeddings", f"{t}/dir", "--labels", f"{b}/labels.csv"], 2),
    "probe_labels_missing": (lambda b, m, t: [
        "probe", "--embeddings", f"{t}/mil.gse", "--labels", f"{t}/none"], 2),
    "probe_labels_is_a_directory": (lambda b, m, t: [
        "probe", "--embeddings", f"{t}/mil.gse", "--labels", f"{t}/dir"], 2),
    "probe_out_is_a_directory": (lambda b, m, t: [
        "probe", "--embeddings", f"{t}/mil.gse", "--labels", f"{b}/labels.csv",
        "--splits", "2", "--out", f"{t}/dir"], 2),
    # a numeric flag out of range is a validation error as well
    **{f"pretrain_{flag}_{value}": (lambda b, m, t, flag=flag, value=value: [
        "pretrain", "--banks", b, "--checkpoint", f"{t}/p.ckpt",
        f"--{flag}", value], 1)
       for flag, value in (("tiles", "0"), ("batch", "1"), ("epochs", "-1"),
                           ("tau", "0"), ("lr", "-1"), ("seed", "-1"),
                           ("tau", "nan"), ("tau", "inf"), ("lr", "nan"),
                           ("lr", "inf"))},
    **{f"probe_{flag}_{value}": (lambda b, m, t, flag=flag, value=value: [
        "probe", "--embeddings", f"{t}/mil.gse", "--labels", f"{b}/labels.csv",
        f"--{flag}", value], 1)
       for flag, value in (("seed", "-1"), ("l2", "0"), ("budget", "1.5"),
                           ("splits", "0"), ("l2", "nan"), ("l2", "inf"))},
    **{f"gen_{flag}_{value}": (lambda b, m, t, flag=flag, value=value: [
        "gen", "--out", f"{t}/g", "--slides", "4", f"--{flag}", value], 1)
       for flag, value in (("nuisance", "nan"), ("aug-noise", "nan"),
                           ("tile-noise", "inf"), ("aug-strength", "nan"))},
    **{f"embed_{flag}_{value}": (lambda b, m, t, flag=flag, value=value: [
        "embed", "--banks", b, "--checkpoint", m, "--out", f"{t}/e.gse",
        f"--{flag}", value], 1)
       for flag, value in (("views", "0"), ("views", "-2"), ("tiles", "0"))},
    "gradcheck_seed_-1": (lambda b, m, t: [
        "gradcheck", "--instances", "1", "--seed", "-1"], 1),
    "gen_seed_-1": (lambda b, m, t: [
        "gen", "--out", f"{t}/g", "--slides", "4", "--seed", "-1"], 1),
    "embed_seed_-1": (lambda b, m, t: [
        "embed", "--banks", b, "--checkpoint", m, "--out", f"{t}/e.gse",
        "--seed", "-1"], 1),
}


@pytest.mark.parametrize("case", PATH_CASES)
def test_unusable_path_exits_with_one_line(trained, tmp_path, capsys, case):
    _, banks, ckpt = trained
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    zz = tmp_path / "zz_banks"
    zz.mkdir()
    for p in banks.glob("*.gsb"):
        (zz / p.name).write_bytes(p.read_bytes())
    (zz / "zz.gsb").mkdir()
    assert main(["embed", "--banks", str(banks), "--avgmil",
                 "--out", str(tmp_path / "mil.gse")]) == 0
    capsys.readouterr()
    build, code = PATH_CASES[case]
    rc = main(build(str(banks), str(ckpt), tmp_path))
    err = capsys.readouterr().err
    assert rc == code, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: " if code == 1 else "failure: ")
    assert "Traceback" not in err
    for out in ("e.gse", "p.ckpt", "p.log.csv", "g"):
        assert not (tmp_path / out).exists(), out


def test_pretrain_directory_checkpoint_fails_before_loading_banks(
        corpus, tmp_path, capsys, monkeypatch):
    _, banks = corpus
    (tmp_path / "dir").mkdir()
    loaded = []
    monkeypatch.setattr(training, "load_bank", loaded.append)
    rc = main(["pretrain", "--banks", str(banks),
               "--checkpoint", str(tmp_path / "dir"), "--epochs", "30"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err == f"failure: [Errno 21] Is a directory: '{tmp_path / 'dir'}'\n"
    assert loaded == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--instances", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "submconv" in out and "nt_xent" in out and "PASS" in out


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gradcheck_without_instances_exits_1(capsys, n):
    rc = main(["gradcheck", "--instances", n])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: gradcheck needs at least 1 instance, got {n}\n"


def test_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    names = [name for name, _ in selfcheck.CHECKS]
    assert names == ["A1", "A2", "A3", "A4", "A9"]
    assert [line.split(":")[0] for line in out.splitlines()] == \
        [f"PASS  {name}" for name in names]


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", "x", "--slides", "4", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--slides", "4"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv,needles", [
    (["pretrain", "--help"], ("default 5", "default 0.5", "default 1000")),
    (["embed", "--help"], ("default 50",)),
    (["gen", "--help"], ("default 256", "default 50")),
    (["--help"], ("224",)),
])
def test_help_documents_defaults(argv, needles, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for needle in needles:
        assert needle in text, f"help missing '{needle}'"


def test_parse_budget_forms():
    assert _parse_budget("all") == "all"
    assert _parse_budget("0.25") == 0.25
    assert _parse_budget("5e-1") == 0.5
    assert isinstance(_parse_budget("1.0"), float)
    assert _parse_budget("50") == 50 and isinstance(_parse_budget("50"), int)
    with pytest.raises(ValidationError):
        _parse_budget("half")

