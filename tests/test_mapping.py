"""Mapped loads: damaged files are typed errors, a mapping lives exactly as
long as the arrays that view it, and pretraining budgets its descriptors."""

import errno
import gc
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slidessl
from slidessl import container, training
from slidessl.bank import EmbeddingBank, load_bank, save_bank
from slidessl.container import FD_HEADROOM, reserve_descriptors, write_atomic
from slidessl.datagen import GenConfig, generate_corpus
from slidessl.errors import CorruptBank, FormatError, PipelineError, RuntimeFailure
from slidessl.inference import load_embeddings, save_embeddings
from slidessl.sparseconv import PoolingNetworkConfig
from slidessl.training import TrainConfig, build_model, load_model, save_model

SRC = str(Path(slidessl.__file__).resolve().parents[1])
PROC_FD = Path("/proc/self/fd")


def small_bank(seed=0, K=3, n=4, F=5):
    rng = np.random.default_rng(seed)
    return EmbeddingBank("s1", rng.integers(0, 5000, size=(K, n, 2)),
                         rng.normal(size=(K, n, F)))


def small_model():
    cfg = PoolingNetworkConfig(in_channels=4, block_channels=(6, 6),
                               kernel_size=3, out_dim=6)
    return build_model(cfg, proj_dim=8, seed=0, train_tiles=5)


# kind -> (file name, writer into a directory, load that may raise)
FORMATS = {
    "gsb": ("s1.gsb", lambda d: save_bank(small_bank(), d / "s1.gsb"),
            load_bank),
    "gsb_slice0": ("s1.gsb", lambda d: save_bank(small_bank(), d / "s1.gsb"),
                   lambda p: load_bank(p, slices=1)),
    "sidecar": ("s1.json", lambda d: save_bank(small_bank(), d / "s1.gsb"),
                lambda p: load_bank(p.with_suffix(".gsb"))),
    "ckpt": ("m.ckpt", lambda d: save_model(small_model(), d / "m.ckpt", epoch=2),
             load_model),
    "gse": ("e.gse", lambda d: save_embeddings(
        d / "e.gse", ["a", "slide_b"],
        np.random.default_rng(1).normal(size=(2, 5)).astype(np.float32)),
        load_embeddings),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Per kind: a directory holding the valid files, and the fuzzed file's
    valid bytes."""
    out = {}
    for kind, (name, write, _) in FORMATS.items():
        d = tmp_path_factory.mktemp(kind)
        write(d)
        out[kind] = (d / name, (d / name).read_bytes())
    return out


def _load_or_typed_error(kind, path):
    """Every load of damaged bytes returns or raises a ``PipelineError``;
    anything else propagates and fails the test."""
    try:
        FORMATS[kind][2](path)
    except PipelineError:
        pass


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(data=st.data())
def test_fuzzed_file_loads_or_raises_typed(pristine, kind, data):
    path, blob = pristine[kind]
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
    # replaced, never rewritten in place: an earlier example's arrays may
    # still view the old file
    write_atomic(path, [bytes(damaged)])
    try:
        _load_or_typed_error(kind, path)
    finally:
        write_atomic(path, [blob])


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_empty_file_raises_typed(pristine, kind):
    path, blob = pristine[kind]
    write_atomic(path, [b""])
    try:
        with pytest.raises(PipelineError):
            FORMATS[kind][2](path)
    finally:
        write_atomic(path, [blob])


@pytest.mark.parametrize("kind,slices,error", [
    ("gsb", 1, CorruptBank), ("gsb", None, CorruptBank),
    ("ckpt", None, FormatError), ("gse", None, FormatError)])
def test_file_shrinking_before_the_mapping_raises_typed(tmp_path, monkeypatch,
                                                        kind, slices, error):
    name, write, _ = FORMATS[kind]
    write(tmp_path)
    path = tmp_path / name
    fstat = os.fstat
    calls = []

    def fstat_then_shrink(fd):
        st_before = fstat(fd)
        if not calls:
            calls.append(fd)
            os.truncate(path, 8)   # shorter than any header plus payload
        return st_before
    monkeypatch.setattr(os, "fstat", fstat_then_shrink)
    load = {"gsb": lambda p: load_bank(p, slices=slices),
            "ckpt": load_model, "gse": load_embeddings}[kind]
    with pytest.raises(error, match="shrank"):
        load(path)
    assert calls


# ---------------------------------------------------------------------------
# Mapping lifecycle

def _root(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


def _open_fds() -> int:
    return len(os.listdir(PROC_FD))


@pytest.mark.skipif(not PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_descriptor_lives_as_long_as_the_bank(tmp_path):
    path = tmp_path / "s1.gsb"
    save_bank(small_bank(), path)
    gc.collect()
    base = _open_fds()
    bank = load_bank(path)
    assert _open_fds() == base + 1
    coords = bank.coords
    del bank
    gc.collect()
    assert _open_fds() == base + 1      # a surviving view keeps the mapping
    del coords
    gc.collect()
    assert _open_fds() == base


@pytest.mark.skipif(not PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_checkpoint_and_embedding_loads_hold_no_descriptor(pristine):
    gc.collect()
    base = _open_fds()
    model, _ = load_model(pristine["ckpt"][0])
    ids, matrix = load_embeddings(pristine["gse"][0])
    assert _open_fds() == base
    assert model.store["net.head.w"].flags.writeable and matrix.flags.writeable


@pytest.mark.parametrize("slices,mapped", [(1, 1), (2, 2), (None, 3), (7, 3)])
def test_only_the_header_and_the_loaded_slices_are_mapped(tmp_path, slices,
                                                          mapped):
    K, n, F = 3, 4, 5
    path = tmp_path / "s1.gsb"
    save_bank(small_bank(K=K, n=n, F=F), path)
    bank = load_bank(path, slices=slices)
    view = _root(bank.features)
    assert isinstance(view.obj, mmap.mmap)
    assert _root(bank.coords).obj is view.obj
    assert len(view.obj) == 20 + mapped * n * (8 + 4 * F)


def test_full_load_allocates_no_copy_of_the_file(tmp_path):
    # mapped pages are not heap allocations: what remains is validation's
    # one-slice n x F bool temporary plus numpy's and Python's small objects
    K, n, F = 24, 300, 64
    slack = 64 * 1024
    path = tmp_path / "s1.gsb"
    save_bank(small_bank(K=K, n=n, F=F), path)
    load_bank(path)   # warm imports and caches outside the traced window
    tracemalloc.start()
    try:
        bank = load_bank(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.n_augs == K
    assert peak <= n * F + slack < path.stat().st_size, peak


@pytest.mark.parametrize("code,raised", [(errno.EMFILE, RuntimeFailure),
                                         (errno.ENODEV, OSError)])
def test_out_of_descriptors_is_a_runtime_failure(tmp_path, monkeypatch, code,
                                                 raised):
    path = tmp_path / "s1.gsb"
    save_bank(small_bank(), path)

    def refuse(*args, **kwargs):
        raise OSError(code, os.strerror(code))
    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(raised) as info:
        load_bank(path)
    if raised is RuntimeFailure:
        assert "ulimit -n" in str(info.value)
    else:
        assert info.value.errno == code


def test_loaded_arrays_stay_read_only(tmp_path):
    path = tmp_path / "s1.gsb"
    save_bank(small_bank(), path)
    bank = load_bank(path)
    for a in (bank.coords, bank.features, bank.features[1:]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flags.writeable = True
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1


@pytest.mark.parametrize("K,n", [(3, 4), (1, 2)])
def test_replacing_a_loaded_bank_leaves_its_arrays_intact(tmp_path, K, n):
    path = tmp_path / "s1.gsb"
    save_bank(small_bank(seed=0), path)
    bank = load_bank(path)
    before = bank.coords.tobytes(), bank.features.tobytes()
    replacement = small_bank(seed=1, K=K, n=n)
    save_bank(replacement, path)      # os.replace: the old inode stays mapped
    assert (bank.coords.tobytes(), bank.features.tobytes()) == before
    fresh = load_bank(path)
    np.testing.assert_array_equal(fresh.features, replacement.features)


# ---------------------------------------------------------------------------
# Descriptor budget

class FakeResource:
    RLIMIT_NOFILE = 7
    RLIM_INFINITY = -1

    def __init__(self, soft, hard, refuse=False):
        self.limits, self.refuse = (soft, hard), refuse

    def getrlimit(self, which):
        assert which == self.RLIMIT_NOFILE
        return self.limits

    def setrlimit(self, which, limits):
        assert which == self.RLIMIT_NOFILE
        if self.refuse:
            raise ValueError("not allowed to raise the limit")
        self.limits = limits


@pytest.mark.parametrize("soft,hard,after", [
    (40, 1000, (60 + FD_HEADROOM, 1000)),          # raised within the hard limit
    (40, -1, (60 + FD_HEADROOM, -1)),              # no hard limit
    (60 + FD_HEADROOM, 1000, (60 + FD_HEADROOM, 1000)),   # already enough
    (-1, -1, (-1, -1)),
])
def test_soft_limit_is_raised_to_what_the_maps_need(monkeypatch, soft, hard,
                                                    after):
    fake = FakeResource(soft, hard)
    monkeypatch.setattr(container, "resource", fake)
    reserve_descriptors(60)
    assert fake.limits == after


@pytest.mark.parametrize("fake", [FakeResource(40, 40),
                                  FakeResource(40, 60 + FD_HEADROOM - 1),
                                  FakeResource(40, 1000, refuse=True)],
                         ids=["hard_40", "hard_one_short", "setrlimit_refused"])
def test_limit_that_cannot_be_raised_is_a_runtime_failure(monkeypatch, fake):
    limits = fake.limits
    monkeypatch.setattr(container, "resource", fake)
    with pytest.raises(RuntimeFailure, match="ulimit -n"):
        reserve_descriptors(60)
    assert fake.limits == limits


def test_no_resource_module_skips_the_check(monkeypatch):
    monkeypatch.setattr(container, "resource", None)
    reserve_descriptors(10 ** 9)


def test_pretrain_checks_the_budget_before_loading(tmp_path, monkeypatch):
    for i in range(3):
        save_bank(small_bank(seed=i), tmp_path / f"s{i}.gsb")

    def no_load(*args, **kwargs):
        raise AssertionError("a bank was loaded")
    monkeypatch.setattr(container, "resource", FakeResource(4, 4))
    monkeypatch.setattr(training, "load_bank", no_load)
    with pytest.raises(RuntimeFailure, match="hard limit is 4"):
        training.pretrain(TrainConfig(tiles=2, batch_size=2, epochs=1), tmp_path,
                          tmp_path / "m.ckpt")
    assert not (tmp_path / "m.ckpt").exists()


# The CLI in a child process whose open-file limits are set before any
# import; 60 banks need more descriptors than the lowered limit allows.
CHILD = ("import resource, sys\n"
         "limits = [int(v) for v in sys.argv[1:3]]\n"
         "if limits[0] >= 0:\n"
         "    resource.setrlimit(resource.RLIMIT_NOFILE, tuple(limits))\n"
         "from slidessl.cli import main\n"
         "sys.exit(main(sys.argv[3:]))\n")
N_BANKS = 60
LOW = 40


def _hard_limit():
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    return None if hard == resource.RLIM_INFINITY else hard


@pytest.fixture(scope="module")
def many_banks(tmp_path_factory):
    d = tmp_path_factory.mktemp("many") / "banks"
    generate_corpus(GenConfig(n_slides=N_BANKS, n_tiles=16, n_augs=3,
                              feat_dim=4, grid_extent=2048, seed=5), d)
    return d


def _pretrain_child(banks, ckpt, soft=-1, hard=-1):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(soft), str(hard), "pretrain",
         "--banks", str(banks), "--checkpoint", str(ckpt), "--epochs", "1",
         "--tiles", "4", "--batch", "6"],
        env=env, capture_output=True, text=True, timeout=300)


def test_pretrain_under_a_low_soft_limit_writes_the_same_bytes(many_banks,
                                                               tmp_path):
    hard = _hard_limit()
    if hard is not None and hard < N_BANKS + FD_HEADROOM:
        pytest.skip(f"hard open-file limit {hard} is below what the test needs")
    free = _pretrain_child(many_banks, tmp_path / "free.ckpt")
    low = _pretrain_child(many_banks, tmp_path / "low.ckpt", soft=LOW,
                          hard=-1 if hard is None else hard)
    assert free.returncode == 0, free.stderr
    assert low.returncode == 0, low.stderr
    assert (tmp_path / "free.ckpt").read_bytes() == \
        (tmp_path / "low.ckpt").read_bytes()
    assert (tmp_path / "free.log.csv").read_bytes() == \
        (tmp_path / "low.log.csv").read_bytes()


def test_pretrain_under_a_low_hard_limit_exits_2_naming_ulimit(many_banks,
                                                                tmp_path):
    _hard_limit()
    out = _pretrain_child(many_banks, tmp_path / "m.ckpt", soft=LOW, hard=LOW)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "ulimit -n" in out.stderr
    assert f"hard limit is {LOW}" in out.stderr
    assert not (tmp_path / "m.ckpt").exists()
