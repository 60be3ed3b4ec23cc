"""Each baseline iteration evaluates its error and loss in one residual pass."""

import pytest

from repro.baselines import CpAls, TuckerAls, TuckerWopt
from repro.core import PTuckerConfig
from repro.metrics import errors


@pytest.mark.parametrize("solver", [TuckerAls, CpAls, TuckerWopt])
def test_one_residual_pass_per_iteration(solver, planted_small, monkeypatch):
    passes = []
    original = errors.error_and_loss_stream

    def counting(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(errors, "error_and_loss_stream", counting)
    config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0, tolerance=0.0)
    result = solver(config).fit(planted_small.tensor)
    assert len(passes) == result.trace.n_iterations == 3
