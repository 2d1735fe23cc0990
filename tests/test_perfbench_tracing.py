"""perfbench/tracing.py wraps wavebound functions by name; this keeps its plan valid.

`Tracer.installed()` looks every wrapped name up as `owner.__dict__[attr]`,
so a renamed or deleted function makes `--trace 1` fail with a KeyError.
Here the tracer is installed around one tiny `train`, as a traced
benchmark round does, and every name must be the original again afterwards.
"""

from pathlib import Path

import numpy as np

import wavebound.data
import wavebound.rng
import wavebound.theorem
import wavebound.trainer
from wavebound import ObjectiveKind, Rng, TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (wavebound.trainer, wavebound.theorem, wavebound.data, wavebound.rng.Rng)


def test_tracer_installs_around_train_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = Rng(3)
    sets = [(rng.normal(size=(n, 6, 1)), rng.normal(size=(n, 3, 1))) for n in (20, 8, 8)]
    config = TrainConfig(
        input_len=6, output_len=3, objective=ObjectiveKind.wave_indiv(0.01),
        batch_size=8, max_epochs=2, patience=5, hidden_dim=4,
    )
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    with tracer.installed():  # a stale name in the plan raises KeyError here
        inside = [dict(vars(owner)) for owner in OWNERS]
        result = wavebound.trainer.train(config, *sets)
    after = [dict(vars(owner)) for owner in OWNERS]

    wrapped = [
        (owner, attr)
        for owner, was, now in zip(OWNERS, before, inside)
        for attr in was
        if now[attr] is not was[attr]
    ]
    assert (wavebound.trainer, "train") in wrapped and (wavebound.rng.Rng, "split") in wrapped
    assert {owner for owner, _ in wrapped} == set(OWNERS)
    for owner, attr in wrapped:
        assert after[OWNERS.index(owner)][attr] is before[OWNERS.index(owner)][attr], attr

    steps = 2 * 3  # 2 epochs of 20 windows in batches of 8
    spans = [name for _, name, *_ in tracer.spans]
    assert spans.count("trainer.train") == 1
    assert spans.count("adam.step") == spans.count("ema.update") == steps
    assert spans.count("evaluation.evaluate") == 3 * 2  # 3 sets per epoch
    assert np.isfinite(result.log.records[-1].val_mse)
