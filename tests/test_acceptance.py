"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v`; the status lines print
straight to the terminal even under output capture.  Criterion 7 reruns
the artifact-producing computations of criteria 1-5 and byte-compares
their outputs, so this module keeps a cache of first-run artifacts.

Criterion 6 needs the public ETTm2 CSV (set WAVEBOUND_ETTM2 or place it
at data/ETTm2.csv); it skips cleanly when the file is absent.
"""

import hashlib
import os
import tempfile
import time

import numpy as np
import pytest

from wavebound import (
    ObjectiveKind,
    Rng,
    SplitSpec,
    TrainConfig,
    ema_init,
    ema_update,
    jensen_violations,
    load_csv,
    mlp_backward_batch,
    mlp_forward_batch,
    new_forecaster,
    objective_mask,
    objective_value,
    per_element_risk,
    reference_instance,
    run_full_oracle,
    select_feature,
    split_and_standardize,
    stack_windows,
    synth_series,
    train,
    windowize,
)

_CACHE: dict = {}


def cached(name, producer):
    if name not in _CACHE:
        _CACHE[name] = producer()
    return _CACHE[name]


def announce(capfd, line):
    with capfd.disabled():
        print(line, flush=True)
    print(line)


def verdict(ok):
    return "PASS" if ok else "FAIL"


def params_digest(params) -> str:
    h = hashlib.sha256()
    for t in params.tensors():
        h.update(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def log_csv_bytes(result) -> bytes:
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "log.csv")
        result.log.to_csv(path)
        with open(path, "rb") as fh:
            return fh.read()


# --- criterion 1: gradient fidelity ----------------------------------------

FD_STEP = 1e-7
BOUNDARY_ZONE = 1e-6


def _objective_scalar(kind, params, x, y, target_params):
    risk = per_element_risk(mlp_forward_batch(params, x), y)
    target_risk = None
    if kind.needs_target:
        target_risk = per_element_risk(mlp_forward_batch(target_params, x), y)
    return objective_value(kind, risk, target_risk)


def _analytic_grads(kind, params, x, y, target_params):
    pred = mlp_forward_batch(params, x)
    risk = per_element_risk(pred, y)
    target_risk = None
    if kind.needs_target:
        target_risk = per_element_risk(mlp_forward_batch(target_params, x), y)
    mask = objective_mask(kind, risk, target_risk)
    n, m, k = pred.shape
    upstream = mask[None, :, :] * (2.0 * (pred - y) / (n * m * k))
    return params.with_flat(mlp_backward_batch(params, x, upstream)).tensors()


def _central_fd(func, params, h=FD_STEP):
    grads = []
    tensors = [t.copy() for t in params.tensors()]
    for t in tensors:
        g = np.zeros_like(t)
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = t[idx]
            t[idx] = orig + h
            f_plus = func(params.with_tensors(tensors))
            t[idx] = orig - h
            f_minus = func(params.with_tensors(tensors))
            t[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def _boundary_distance(kind, risk, target_risk):
    if kind.kind == "plain":
        return np.inf
    if kind.kind == "flooding":
        return abs(risk.mean - kind.b)
    if kind.kind == "constant_flooding":
        return float(np.abs(risk.values - kind.b).min())
    bound = target_risk.values - kind.epsilon
    if kind.kind == "wave_avg":
        return abs(risk.mean - float(bound.mean()))
    return float(np.abs(risk.values - bound).min())


def produce_c1():
    started = time.perf_counter()
    rng = Rng(17, ("gradient-acceptance",))
    checked = 0
    skipped = 0
    worst_ratio = 0.0
    lines = ["config,objective,status,worst_ratio"]
    for case in range(50):
        r = rng.split("case", case)
        input_len = int(r.integers(2, 5))
        output_len = int(r.integers(1, 4))
        n_features = int(r.integers(1, 3))
        hidden = int(r.integers(3, 7))
        n = int(r.integers(2, 7))
        params = new_forecaster(input_len, output_len, n_features, hidden, r)
        target_params = new_forecaster(input_len, output_len, n_features, hidden, r)
        x = r.normal(size=(n, input_len, n_features))
        y = r.normal(size=(n, output_len, n_features))
        risk = per_element_risk(mlp_forward_batch(params, x), y)
        target_risk = per_element_risk(mlp_forward_batch(target_params, x), y)
        kinds = [
            ObjectiveKind.plain(),
            ObjectiveKind.flooding(risk.mean * float(r.uniform(0.2, 1.8))),
            ObjectiveKind.constant_flooding(
                max(0.0, float(np.quantile(risk.values, r.uniform(0.1, 0.9))))
            ),
            ObjectiveKind.wave_avg(float(r.uniform(0.0, 0.3))),
            ObjectiveKind.wave_indiv(float(r.uniform(0.0, 0.3))),
        ]
        for kind in kinds:
            if _boundary_distance(kind, risk, target_risk) < BOUNDARY_ZONE:
                skipped += 1
                lines.append(f"{case},{kind.kind},skipped-near-boundary,")
                continue
            analytic = _analytic_grads(kind, params, x, y, target_params)
            fd = _central_fd(
                lambda p: _objective_scalar(kind, p, x, y, target_params), params
            )
            ratio = 0.0
            for a, f in zip(analytic, fd):
                err = np.abs(a - f)
                tol = np.maximum(1e-3 * np.maximum(np.abs(a), np.abs(f)), 1e-8)
                ratio = max(ratio, float((err / tol).max()))
            worst_ratio = max(worst_ratio, ratio)
            checked += 1
            lines.append(f"{case},{kind.kind},checked,{ratio!r}")
    elapsed = time.perf_counter() - started
    summary = {
        "checked": checked,
        "skipped": skipped,
        "worst_ratio": worst_ratio,
        "elapsed": elapsed,
    }
    files = {"gradient_check.csv": ("\n".join(lines) + "\n").encode()}
    return summary, files


def test_criterion_1_gradient_fidelity(capfd):
    summary, _files = cached("c1", produce_c1)
    ok = (
        summary["worst_ratio"] <= 1.0
        and summary["checked"] >= 240
        and summary["elapsed"] < 60.0
    )
    announce(
        capfd,
        f"[criterion 1] gradient fidelity vs central differences: {verdict(ok)} "
        f"({summary['checked']} pairs checked, {summary['skipped']} near-boundary skips, "
        f"worst err/tol ratio {summary['worst_ratio']:.3e}, {summary['elapsed']:.1f}s)",
    )
    assert ok, summary


# --- criterion 2: exact identities ------------------------------------------

L2, M2, K2 = 6, 3, 1


def _c2_sets():
    rng = Rng(0)

    def mk(n):
        past = rng.normal(size=(n, L2, K2))
        future = past[:, :M2, :] * 0.5 + 0.1 * rng.normal(size=(n, M2, K2))
        return past, future

    return mk(24), mk(8), mk(8)


def _c2_config(objective, **kw):
    base = dict(
        input_len=L2,
        output_len=M2,
        objective=objective,
        batch_size=8,
        learning_rate=1e-3,
        ema_decay=0.9,
        max_epochs=4,
        patience=10,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def _same_trajectory(r1, r2) -> bool:
    tensors_equal = all(
        np.array_equal(a, b)
        for a, b in zip(r1.final_source.tensors(), r2.final_source.tensors())
    ) and all(
        np.array_equal(a, b)
        for a, b in zip(r1.final_mirror.target.tensors(), r2.final_mirror.target.tensors())
    )
    logs_equal = all(
        a.train_objective == b.train_objective and a.val_mse == b.val_mse
        for a, b in zip(r1.log.records, r2.log.records)
    )
    return tensors_equal and logs_equal


def produce_c2():
    sets = _c2_sets()
    r_plain = train(_c2_config(ObjectiveKind.plain()), *sets)
    r_flood0 = train(_c2_config(ObjectiveKind.flooding(0.0)), *sets)
    a_ok = _same_trajectory(r_plain, r_flood0)

    b_level, eps = 0.25, 0.0625  # dyadic so (b + eps) - eps == b bitwise
    r_wave = train(
        _c2_config(ObjectiveKind.wave_indiv(eps), frozen_target_risk=b_level + eps), *sets
    )
    r_const = train(_c2_config(ObjectiveKind.constant_flooding(b_level)), *sets)
    b_ok = _same_trajectory(r_wave, r_const)

    rng = Rng(41)
    frozen = new_forecaster(4, 2, 1, 5, rng)
    mirror = ema_init(frozen, 1.0)
    for _ in range(5):
        mirror = ema_update(mirror, new_forecaster(4, 2, 1, 5, rng))
    c_ok = all(np.array_equal(a, b) for a, b in zip(mirror.target.tensors(), frozen.tensors()))

    max_diff = 0.0
    for draw in range(30):
        r = rng.split("risk-mse", draw)
        n = int(r.integers(1, 8))
        m = int(r.integers(1, 5))
        k = int(r.integers(1, 4))
        pred = r.normal(size=(n, m, k))
        target = r.normal(size=(n, m, k))
        risk = per_element_risk(pred, target)
        mse = float(np.mean((pred - target) ** 2))
        max_diff = max(max_diff, abs(risk.mean - mse))
    d_ok = max_diff <= 1e-12

    lines = [
        f"flood_zero_equals_plain={a_ok} digest={params_digest(r_plain.final_source)}",
        f"frozen_bound_equals_constant_flooding={b_ok} digest={params_digest(r_wave.final_source)}",
        f"unit_decay_mirror_fixed={c_ok}",
        f"risk_mean_vs_mse_max_abs_diff={max_diff!r}",
    ]
    summary = {"a": a_ok, "b": b_ok, "c": c_ok, "d": d_ok, "max_diff": max_diff}
    files = {"identities.txt": ("\n".join(lines) + "\n").encode()}
    return summary, files


def test_criterion_2_exact_identities(capfd):
    summary, _files = cached("c2", produce_c2)
    ok = summary["a"] and summary["b"] and summary["c"] and summary["d"]
    announce(
        capfd,
        f"[criterion 2] exact identities: {verdict(ok)} "
        f"(flood-at-zero≡plain {verdict(summary['a'])}, frozen-bound≡constant-flood "
        f"{verdict(summary['b'])}, unit-decay mirror fixed {verdict(summary['c'])}, "
        f"risk-mean==mse diff {summary['max_diff']:.1e})",
    )
    assert ok, summary


# --- criterion 3: batch-mean bound audits ------------------------------------


def produce_c3():
    started = time.perf_counter()
    rng = Rng(33, ("jensen-acceptance",))
    total = 0
    lines = ["draw,n,batches,epsilon,flood_b,violations"]
    for draw in range(100):
        r = rng.split("draw", draw)
        n = int(r.integers(4, 40))
        m = int(r.integers(1, 4))
        k = int(r.integers(1, 3))
        scale = float(r.uniform(0.5, 2.0))
        source_pred = r.normal(size=(n, m, k)) * scale
        target_pred = r.normal(size=(n, m, k))
        targets = r.normal(size=(n, m, k))
        sizes = []
        left = n
        while left > 0:
            s = int(r.integers(1, left + 1))
            sizes.append(s)
            left -= s
        epsilon = float(r.uniform(0.0, 0.5))
        flood_b = float(r.uniform(0.0, 1.5))
        count = jensen_violations(source_pred, target_pred, targets, sizes, epsilon, flood_b)
        total += count
        lines.append(f"{draw},{n},{len(sizes)},{epsilon!r},{flood_b!r},{count}")
    elapsed = time.perf_counter() - started
    summary = {"violations": total, "draws": 100, "elapsed": elapsed}
    files = {"jensen_audit.csv": ("\n".join(lines) + "\n").encode()}
    return summary, files


def test_criterion_3_batch_mean_bound_audits(capfd):
    summary, _files = cached("c3", produce_c3)
    ok = summary["violations"] == 0 and summary["elapsed"] < 60.0
    announce(
        capfd,
        f"[criterion 3] batch-mean upper-bound audits: {verdict(ok)} "
        f"({summary['draws']} randomized draws, {summary['violations']} violations, "
        f"{summary['elapsed']:.1f}s)",
    )
    assert ok, summary


# --- criterion 4: estimator variance reduction at desk scale -----------------


def produce_c4():
    started = time.perf_counter()
    report = run_full_oracle(reference_instance(trials=20000), jensen_draws=10)
    elapsed = time.perf_counter() - started
    import json

    files = {
        "oracle_report.json": (
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        ).encode()
    }
    return {"report": report, "elapsed": elapsed}, files


def test_criterion_4_estimator_variance_reduction(capfd):
    summary, _files = cached("c4", produce_c4)
    report = summary["report"]
    checks = {
        "precondition_rate": report.condition_b_violation_rate <= 0.01,
        "wave_not_worse": report.mse_wave <= report.mse_plain,
        "gap_positive_3se": report.mse_diff - 3 * report.se_mse_diff > 0,
        "gap_beats_bound_3se": report.bound_slack - 3 * report.se_bound_slack >= 0,
        "jensen_clean": report.jensen_violations == 0,
        "runtime": summary["elapsed"] < 300.0,
    }
    ok = all(checks.values())
    announce(
        capfd,
        f"[criterion 4] estimator variance reduction at desk scale: {verdict(ok)} "
        f"(mse_plain {report.mse_plain:.3e}, mse_wave {report.mse_wave:.3e}, "
        f"gap {report.mse_diff:.3e}±{report.se_mse_diff:.1e}, bound {report.theorem_bound:.3e}, "
        f"precondition violations {report.condition_b_violation_rate:.2%}, "
        f"{summary['elapsed']:.1f}s)",
    )
    assert ok, checks


# --- criterion 5: synthetic overfitting study --------------------------------


def _c5_sets():
    dataset = synth_series(2000, 0.5, 7)
    segments = split_and_standardize(dataset, SplitSpec())
    return tuple(stack_windows(windowize(seg, 96, 96)) for seg in segments)


def _c5_config(seed, objective, eval_network):
    return TrainConfig(
        input_len=96,
        output_len=96,
        objective=objective,
        batch_size=32,
        learning_rate=1e-3,
        ema_decay=0.99,
        max_epochs=300,
        patience=300,
        seed=seed,
        hidden_dim=256,
        eval_network=eval_network,
    )


def produce_c5():
    started = time.perf_counter()
    sets = _c5_sets()
    rows = []
    files = {}
    for seed in (1, 2, 3):
        plain = train(_c5_config(seed, ObjectiveKind.plain(), "source"), *sets)
        wave = train(_c5_config(seed, ObjectiveKind.wave_indiv(0.01), "target"), *sets)
        p_last = plain.log.records[-1]
        w_last = wave.log.records[-1]
        rows.append(
            {
                "seed": seed,
                "plain_test": p_last.test_mse,
                "wave_test": w_last.test_mse,
                "plain_gap": p_last.test_mse - p_last.train_mse,
                "wave_gap": w_last.test_mse - w_last.train_mse,
            }
        )
        files[f"seed{seed}_plain_train_log.csv"] = log_csv_bytes(plain)
        files[f"seed{seed}_wave_train_log.csv"] = log_csv_bytes(wave)
    elapsed = time.perf_counter() - started
    lines = ["seed,plain_test,wave_test,plain_gap,wave_gap"]
    for row in rows:
        lines.append(
            f"{row['seed']},{row['plain_test']!r},{row['wave_test']!r},"
            f"{row['plain_gap']!r},{row['wave_gap']!r}"
        )
    files["summary.csv"] = ("\n".join(lines) + "\n").encode()
    return {"rows": rows, "elapsed": elapsed}, files


def test_criterion_5_synthetic_overfitting_study(capfd):
    summary, _files = cached("c5", produce_c5)
    rows = summary["rows"]
    test_wins = sum(row["wave_test"] <= row["plain_test"] for row in rows)
    gap_wins = sum(row["plain_gap"] > row["wave_gap"] for row in rows)
    ok = test_wins >= 2 and gap_wins >= 2 and summary["elapsed"] < 900.0
    detail = ", ".join(
        f"seed {row['seed']}: test {row['plain_test']:.3f}->{row['wave_test']:.3f} "
        f"gap {row['plain_gap']:+.3f}->{row['wave_gap']:+.3f}"
        for row in rows
    )
    announce(
        capfd,
        f"[criterion 5] synthetic overfitting study: {verdict(ok)} "
        f"(test wins {test_wins}/3, gap wins {gap_wins}/3, {summary['elapsed']:.0f}s; {detail})",
    )
    assert ok, summary


# --- criterion 6: optional ETTm2 reproduction ---------------------------------

ETTM2_PATH = os.environ.get(
    "WAVEBOUND_ETTM2",
    os.path.join(os.path.dirname(__file__), os.pardir, "data", "ETTm2.csv"),
)


def test_criterion_6_ettm2_univariate(capfd):
    if not os.path.exists(ETTM2_PATH):
        announce(
            capfd,
            "[criterion 6] ETTm2 univariate reproduction: SKIP "
            f"(dataset not found at {ETTM2_PATH}; set WAVEBOUND_ETTM2 to enable)",
        )
        pytest.skip("ETTm2 CSV not available")
    dataset = select_feature(load_csv(ETTM2_PATH))
    segments = split_and_standardize(dataset, SplitSpec())
    sets = tuple(stack_windows(windowize(seg, 96, 96)) for seg in segments)

    def run(seed, objective, eval_network):
        config = TrainConfig(
            input_len=96,
            output_len=96,
            objective=objective,
            batch_size=32,
            learning_rate=1e-4,
            ema_decay=0.99,
            max_epochs=10,
            patience=3,
            seed=seed,
            hidden_dim=64,
            eval_network=eval_network,
        )
        result = train(config, *sets)
        return result.log.records[result.best_epoch].test_mse

    plain = [run(seed, ObjectiveKind.plain(), "source") for seed in (1, 2, 3)]
    wave = [run(seed, ObjectiveKind.wave_indiv(0.01), "target") for seed in (1, 2, 3)]
    plain_mean = float(np.mean(plain))
    wave_mean = float(np.mean(wave))
    ok = abs(plain_mean - 0.071) <= 0.02 and wave_mean <= plain_mean
    announce(
        capfd,
        f"[criterion 6] ETTm2 univariate reproduction: {verdict(ok)} "
        f"(plain mean {plain_mean:.4f}, wave mean {wave_mean:.4f})",
    )
    assert ok, (plain, wave)


# --- criterion 7: determinism -------------------------------------------------

PRODUCERS = {
    "c1": produce_c1,
    "c2": produce_c2,
    "c3": produce_c3,
    "c4": produce_c4,
    "c5": produce_c5,
}


def test_criterion_7_deterministic_reruns(capfd):
    mismatches = []
    compared = 0
    for name, producer in PRODUCERS.items():
        _, first = cached(name, producer)
        _, second = producer()
        if sorted(first) != sorted(second):
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in first:
            compared += 1
            if first[fname] != second[fname]:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    announce(
        capfd,
        f"[criterion 7] byte-identical reruns of criteria 1-5: {verdict(ok)} "
        f"({compared} files compared"
        + (f"; mismatches: {', '.join(mismatches)})" if mismatches else ")"),
    )
    assert ok, mismatches
