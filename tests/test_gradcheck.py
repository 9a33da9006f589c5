"""The finite-difference harness every gradcheck op runs through."""

import numpy as np
import pytest

from slidessl import gradcheck
from slidessl.errors import ValidationError

BUILDERS = {name: build for name, _, build in gradcheck.CHECKS}


@pytest.mark.parametrize("name", BUILDERS)
def test_worst_err_restores_every_input(name):
    loss, inputs, grads = BUILDERS[name](np.random.default_rng([4, 2]))
    before = [x.tobytes() for x in inputs]
    assert gradcheck._worst_err(loss, inputs, grads) < gradcheck.PASS_BOUND
    assert [x.tobytes() for x in inputs] == before


@pytest.mark.parametrize(
    "k", range(len(BUILDERS["submconv"](np.random.default_rng(1))[1])))
def test_worst_err_sees_a_wrong_gradient_in_any_input(k):
    loss, inputs, grads = BUILDERS["submconv"](np.random.default_rng(1))
    grads = list(grads)
    grads[k] = grads[k] + 1e-2
    assert gradcheck._worst_err(loss, inputs, grads) > gradcheck.PASS_BOUND


@pytest.mark.parametrize("n", [0, -1])
def test_fewer_than_one_instance_is_rejected(n):
    with pytest.raises(ValidationError, match="at least 1 instance"):
        gradcheck.run_gradcheck(n)
