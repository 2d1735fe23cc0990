"""`train()`'s step against the step it replaced, built from the public pieces.

The reference loop below forms the upstream gradient as
mask * 2*(pred - future)/(n*M*K) from `per_element_risk`, `objective_value`
and `objective_mask`, backpropagates it with `mlp_backward_batch`, and
updates with `adam_step` and `ema_update`.  `train()` forms the error once,
folds once, builds the upstream in place and writes every gradient into one
buffer; the two must agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import wavebound.trainer as trainer_module
from wavebound import (
    ObjectiveKind,
    RiskMatrix,
    Rng,
    TrainConfig,
    adam_init,
    adam_step,
    batch_indices,
    ema_init,
    ema_update,
    evaluate,
    mlp_backward_batch,
    mlp_forward_batch,
    new_forecaster,
    objective_mask,
    objective_value,
    per_element_risk,
    train,
)
from wavebound.nn import _backward_from, _forward_flat

L, M, K = 6, 3, 2


def make_sets():
    rng = Rng(11)

    def mk(n):
        past = rng.normal(size=(n, L, K))
        future = 0.5 * past[:, :M, ::-1] + 0.3 * rng.normal(size=(n, M, K))
        return past, future

    return mk(26), mk(9), mk(9)  # 26 windows in batches of 8: the last batch holds 2


SETS = make_sets()


def reference_train(config, train_set, val_set, test_set):
    """The training loop with the step as it was: a second pred - y, a fresh
    mask and upstream, and a fresh gradient from the checked backward.

    Returns (final source, final target, best params, best target, records,
    steps with an ascent element).
    """
    (train_past, train_future), (val_past, val_future), (test_past, test_future) = (
        train_set, val_set, test_set)
    rng = Rng(config.seed)
    params = new_forecaster(config.input_len, config.output_len, K, config.hidden_dim,
                            rng.split("init"))
    mirror = ema_init(params, config.ema_decay)
    state = adam_init(params)
    frozen = None
    if config.frozen_target_risk is not None:
        frozen = RiskMatrix(np.full((config.output_len, K), config.frozen_target_risk))
    best = (params.copy(), mirror.target.copy())
    best_val, since_best, records, ascents = np.inf, 0, [], 0
    for epoch in range(config.max_epochs):
        order = batch_indices(train_past.shape[0], config.batch_size,
                              rng.split("shuffle", epoch), shuffle=True)
        objective_sum, sample_sum = 0.0, 0
        for idx in order:
            n = len(idx)
            x, y = train_past[idx], train_future[idx]
            pred = mlp_forward_batch(params, x)
            risk = per_element_risk(pred, y)
            target_risk = frozen
            if config.objective.needs_target and frozen is None:
                target_risk = per_element_risk(mlp_forward_batch(mirror.target, x), y)
            value = objective_value(config.objective, risk, target_risk)
            mask = objective_mask(config.objective, risk, target_risk)
            ascents += bool((mask < 0).any())
            upstream = mask[None, :, :] * (2.0 * (pred - y) / (n * config.output_len * K))
            grads = mlp_backward_batch(params, x, upstream)
            adam_step(params, grads, state, config.learning_rate)
            ema_update(mirror, params)
            objective_sum += value * n
            sample_sum += n
        evaluated = params if config.eval_network == "source" else mirror.target
        metrics = [evaluate(evaluated, p, f) for p, f in
                   ((train_past, train_future), (val_past, val_future), (test_past, test_future))]
        records.append((epoch, objective_sum / sample_sum, metrics[0].mse, metrics[1].mse,
                        metrics[2].mse, metrics[2].per_step_mse.tobytes()))
        if metrics[1].mse < best_val:
            best_val, since_best = metrics[1].mse, 0
            best = (evaluated.copy(), mirror.target.copy())
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    return params, mirror.target, best[0], best[1], records, ascents


OBJECTIVES = {
    "plain": ObjectiveKind.plain(),
    "flooding": ObjectiveKind.flooding(0.5),
    "constant_flooding": ObjectiveKind.constant_flooding(0.5),
    "wave_avg": ObjectiveKind.wave_avg(0.001),
    "wave_indiv": ObjectiveKind.wave_indiv(0.001),
}
CASES = [(name, network, None) for name in OBJECTIVES for network in ("source", "target")]
CASES += [("wave_avg", "target", 0.5), ("wave_indiv", "source", 0.5)]


@pytest.mark.parametrize("name,eval_network,frozen", CASES)
def test_train_matches_the_reference_step_bit_for_bit(name, eval_network, frozen):
    config = TrainConfig(
        input_len=L, output_len=M, objective=OBJECTIVES[name], batch_size=8,
        learning_rate=0.02, ema_decay=0.8, max_epochs=8, patience=3, seed=4, hidden_dim=8,
        eval_network=eval_network, frozen_target_risk=frozen,
    )
    source, target, best, best_target, records, ascents = reference_train(config, *SETS)
    result = train(config, *SETS)
    # Every objective but plain leaves some element in ascent, so the signed
    # multiply is exercised as well as skipped.
    assert (ascents > 0) == (name != "plain")
    assert result.final_source.flat.tobytes() == source.flat.tobytes()
    assert result.final_mirror.target.flat.tobytes() == target.flat.tobytes()
    assert result.params.flat.tobytes() == best.flat.tobytes()
    assert result.mirror.target.flat.tobytes() == best_target.flat.tobytes()
    assert [
        (r.epoch, r.train_objective, r.train_mse, r.val_mse, r.test_mse,
         r.per_step_test_mse.tobytes())
        for r in result.log.records
    ] == records


def test_one_gradient_buffer_serves_every_step(monkeypatch):
    buffers = []
    real = trainer_module._backward_from

    def spy(params, states, upstream, grads):
        buffers.append(grads)
        return real(params, states, upstream, grads)

    monkeypatch.setattr(trainer_module, "_backward_from", spy)
    config = TrainConfig(input_len=L, output_len=M, objective=ObjectiveKind.wave_indiv(0.01),
                         batch_size=8, max_epochs=2, patience=5, seed=1, hidden_dim=4)
    result = train(config, *SETS)
    assert len(buffers) == 2 * 4  # 2 epochs of 26 windows in batches of 8
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].flat is not result.final_source.flat


def _traced_peak(fn) -> int:
    """Bytes by which fn raises the traced peak above what was in use before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_backward_into_a_given_buffer_allocates_no_gradient():
    model = new_forecaster(96, 96, 1, 64, Rng(2))  # 16 608 parameters
    rng = Rng(3)
    x = rng.normal(size=(4, 96))
    upstream = rng.normal(size=(4, 96))
    states = _forward_flat(model, x)
    grads = model.with_flat(np.empty_like(model.flat))
    _backward_from(model, states, upstream, grads)  # warm caches and BLAS
    # The guard sees numpy's buffers: a fresh gradient alone reaches the bound.
    assert _traced_peak(lambda: np.empty_like(model.flat)) >= model.flat.nbytes
    assert _traced_peak(lambda: _backward_from(model, states, upstream, grads)) < model.flat.nbytes
