"""The shared acceptance checks report broken code as failed, also under -O."""

import os
import subprocess
import sys
from pathlib import Path

from slidessl import selfcheck
from slidessl.sparsemap import SparseMap

BROKEN_LOSS_SELFTEST = """
import sys
from slidessl import selfcheck
real = selfcheck.nt_xent
def broken(*args, **kwargs):
    loss, grad = real(*args, **kwargs)
    return loss + 1.0, grad
selfcheck.nt_xent = broken
print(sys.flags.optimize, selfcheck.run_selftest())
"""


def test_a1_fails_when_an_op_is_missing(monkeypatch):
    ran = dict.fromkeys(sorted(selfcheck.GRADCHECK_OPS)[1:], 0.0)
    monkeypatch.setattr(selfcheck, "run_gradcheck", lambda n, seed: ran)
    assert selfcheck.a1_gradient_suite(3)[0] is False


def test_a1_with_no_instances_does_not_pass(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "CHECKS",
                        (("A1", lambda: selfcheck.a1_gradient_suite(0)),))
    assert selfcheck.run_selftest() is False
    assert capsys.readouterr().out.startswith("FAIL  A1: ValidationError: ")


def test_a2_fails_when_conv_is_off(monkeypatch):
    real = selfcheck.submconv_forward
    monkeypatch.setattr(selfcheck, "submconv_forward",
                        lambda *args: real(*args) + 1e-3)
    assert selfcheck.a2_dense_convolution_oracle()[0] is False


def test_a3_fails_when_loss_is_off(monkeypatch):
    real = selfcheck.nt_xent
    monkeypatch.setattr(selfcheck, "nt_xent",
                        lambda *args, **kw: (real(*args, **kw)[0] + 1.0, None))
    assert selfcheck.a3_nt_xent_closed_forms()[0] is False


def test_a4_fails_when_augmentation_moves_a_site(monkeypatch):
    real = selfcheck.augment_sparse_map

    def broken(smap, params):
        out = real(smap, params)
        sites = out.sites.copy()
        sites[-1, 0] += 1
        return SparseMap(sites, out.features)
    monkeypatch.setattr(selfcheck, "augment_sparse_map", broken)
    assert selfcheck.a4_invariance_suite()[0] is False


def test_run_selftest_names_the_exception(monkeypatch, capsys):
    def crash():
        raise ZeroDivisionError("boom")
    monkeypatch.setattr(selfcheck, "CHECKS", (("A3", crash),))
    assert selfcheck.run_selftest() is False
    assert capsys.readouterr().out == "FAIL  A3: ZeroDivisionError: boom\n"


def test_broken_loss_fails_selftest_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_LOSS_SELFTEST],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL  A3: " in proc.stdout
    assert proc.stdout.endswith("\n1 False\n")
