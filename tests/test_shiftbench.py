"""Multi-domain data generator and the leave-one-domain-out search protocol.

The generator checks pin the covariate-shift construction: labels are
assigned in the canonical frame and only the inputs are transformed, so at
zero noise the inverse transform must land every row exactly on its class
mean. Protocol checks cover split hygiene, the selection rule, and the
event ordering the hygiene assertions rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from flatmin import optimizers, shiftbench
from flatmin.errors import BudgetError, ConfigError, NumericalError, ProtocolError
from flatmin.objectives import MLPObjective
from flatmin.shiftbench import (
    DomainSpec,
    ProtocolConfig,
    SearchSpace,
    classification_accuracy,
    generate_domains,
    pool_domains,
    run_protocol,
    sample_hparams,
    select_trial,
    stratified_split,
)


def small_spec(**overrides):
    base = dict(n_domains=3, per_domain_n=30, num_classes=3, noise=0.3)
    base.update(overrides)
    return DomainSpec(**base)


# ----------------------------------------------------------------- generator


def test_generate_domains_shapes_and_balance():
    spec = small_spec(per_domain_n=31)
    md = generate_domains(spec, seed=0)
    assert len(md.domains) == 3
    for d, ds in enumerate(md.domains):
        assert ds.n == 31
        assert ds.feature_dim == 2
        assert np.all(ds.domain_ids == d)
        counts = np.bincount(ds.labels, minlength=3)
        # 31 rows over 3 classes: one class gets the extra row
        assert sorted(counts.tolist()) == [10, 10, 11]


def test_rotation_inverts_to_class_means_at_zero_noise():
    spec = small_spec(noise=0.0, angle_step_deg=30.0)
    md = generate_domains(spec, seed=1)
    # domain 0 is unrotated, so its rows ARE the class means at zero noise
    means = {}
    for label in range(3):
        rows = md.domains[0].labels == label
        means[label] = md.domains[0].inputs[rows][0]
    for d, ds in enumerate(md.domains):
        angle = np.deg2rad(30.0 * d)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        undone = ds.inputs @ rot  # right-multiplying by R undoes x @ R.T
        for label in range(3):
            rows = ds.labels == label
            assert np.abs(undone[rows] - means[label]).max() < 1e-9


def test_identity_transform_keeps_domains_aligned():
    spec = small_spec(noise=0.0, transform="identity")
    md = generate_domains(spec, seed=2)
    for label in range(3):
        ref = md.domains[0].inputs[md.domains[0].labels == label][0]
        for ds in md.domains[1:]:
            assert np.abs(ds.inputs[ds.labels == label] - ref).max() < 1e-12


def test_translation_shifts_first_coordinate():
    spec = small_spec(noise=0.0, transform="translation", translation_step=1.5)
    md = generate_domains(spec, seed=3)
    for label in range(3):
        base = md.domains[0].inputs[md.domains[0].labels == label][0]
        for d, ds in enumerate(md.domains):
            got = ds.inputs[ds.labels == label][0]
            np.testing.assert_allclose(got[0], base[0] + 1.5 * d, atol=1e-12)
            np.testing.assert_allclose(got[1:], base[1:], atol=1e-12)


def test_generate_domains_is_deterministic():
    spec = small_spec()
    a = generate_domains(spec, seed=4)
    b = generate_domains(spec, seed=4)
    for da, db in zip(a.domains, b.domains):
        np.testing.assert_array_equal(da.inputs, db.inputs)
        np.testing.assert_array_equal(da.labels, db.labels)


def test_domain_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(n_domains=2)
    with pytest.raises(ConfigError):
        small_spec(per_domain_n=20)  # below 10 rows per class
    with pytest.raises(ConfigError):
        small_spec(feature_dim=1)
    with pytest.raises(ConfigError):
        small_spec(transform="shear")
    with pytest.raises(ConfigError):
        small_spec(noise=-0.1)


@pytest.mark.parametrize(
    "key,value,error",
    [
        ("report_rho", 0.0, ConfigError),
        ("report_alpha", 1.5, ConfigError),
        ("report_k_eigs", 0, ConfigError),
        ("report_probes", 1, BudgetError),
        ("report_restarts", 0, BudgetError),
        ("report_ascent_steps", 0, BudgetError),
    ],
)
def test_protocol_report_error_names_its_key(key, value, error):
    with pytest.raises(error, match=f"^{key} "):
        ProtocolConfig(**{key: value})


# -------------------------------------------------------------------- splits


def test_pool_domains_concatenates():
    md = generate_domains(small_spec(), seed=0)
    pool = pool_domains(md, (0, 2))
    assert pool.n == 60
    assert set(np.unique(pool.domain_ids)) == {0, 2}


def test_stratified_split_is_disjoint_and_stratified():
    md = generate_domains(small_spec(per_domain_n=40), seed=5)
    pool = pool_domains(md, (0, 1))
    tr, va = stratified_split(pool, 0.2, np.random.default_rng(0))
    assert np.intersect1d(tr, va).size == 0
    assert np.array_equal(np.sort(np.concatenate([tr, va])), np.arange(pool.n))
    # every (domain, class) group contributes to both sides
    for d in (0, 1):
        for c in range(3):
            group = np.flatnonzero((pool.domain_ids == d) & (pool.labels == c))
            n_val = np.intersect1d(group, va).size
            assert 1 <= n_val <= group.size - 1
            assert n_val == pytest.approx(0.2 * group.size, abs=1.0)


def test_stratified_split_validates_fraction():
    md = generate_domains(small_spec(), seed=0)
    pool = pool_domains(md, (0, 1))
    with pytest.raises(ConfigError):
        stratified_split(pool, 0.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        stratified_split(pool, 1.0, np.random.default_rng(0))


# ----------------------------------------------------------------- sampling


def test_sample_hparams_keys_per_method():
    space = SearchSpace()
    rng = np.random.default_rng(0)
    assert set(sample_hparams("sgd", rng, space)) == {"batch_size", "eta0", "weight_decay"}
    assert set(sample_hparams("momentum_sgd", rng, space)) == {
        "batch_size",
        "eta0",
        "weight_decay",
        "momentum",
    }
    assert set(sample_hparams("sam", rng, space)) == {
        "batch_size",
        "eta0",
        "weight_decay",
        "rho0",
    }
    assert set(sample_hparams("gam", rng, space)) == {
        "batch_size",
        "eta0",
        "weight_decay",
        "rho0",
        "beta",
    }
    assert set(sample_hparams("fad", rng, space)) == {
        "batch_size",
        "eta0",
        "weight_decay",
        "rho0",
        "alpha",
        "beta",
    }


def test_sample_hparams_ranges():
    space = SearchSpace()
    rng = np.random.default_rng(1)
    for _ in range(200):
        hp = sample_hparams("fad", rng, space)
        assert 8 <= hp["batch_size"] <= 46  # 2^3 .. 2^5.5 rounded
        assert 1e-5 <= hp["eta0"] <= 10**-3.5
        assert 1e-6 <= hp["weight_decay"] <= 1e-3
        assert hp["rho0"] in space.fad_rho
        assert hp["alpha"] in space.fad_alpha
        assert hp["beta"] in space.fad_beta


def test_sample_hparams_deterministic_per_stream():
    space = SearchSpace()
    a = sample_hparams("sam", np.random.default_rng(42), space)
    b = sample_hparams("sam", np.random.default_rng(42), space)
    assert a == b


# ---------------------------------------------------------------- selection


def test_select_trial_takes_the_best():
    assert select_trial([0.5, 0.9, 0.7]) == 1


def test_select_trial_breaks_ties_low():
    assert select_trial([0.3, 0.9, 0.9]) == 1
    assert select_trial([0.9, 0.1, 0.9]) == 0


def test_select_trial_skips_failed_trials():
    assert select_trial([None, 0.3, None]) == 1
    assert select_trial([0.2]) == 0


def test_select_trial_raises_when_everything_failed():
    with pytest.raises(ProtocolError):
        select_trial([None, None])


def test_classification_accuracy_matches_manual_argmax():
    md = generate_domains(small_spec(), seed=6)
    ds = md.domains[0]
    obj = MLPObjective((2, 4, 3), pool_domains(md, (1, 2)))
    theta = obj.init_params(np.random.default_rng(0))
    acc = classification_accuracy(obj, theta, ds)
    pred = obj.logits(theta, ds.inputs).argmax(axis=1)
    assert acc == pytest.approx(float(np.mean(pred == ds.labels)))


# ----------------------------------------------------------------- protocol


@pytest.fixture(scope="module")
def tiny_protocol_result():
    md = generate_domains(small_spec(), seed=7)
    protocol = ProtocolConfig(
        n_hparam_trials=2,
        seeds_per_trial=2,
        iterations=30,
        report_probes=4,
        report_k_eigs=1,
        report_restarts=2,
        report_ascent_steps=5,
    )
    return md, run_protocol(md, ["sgd", "fad"], protocol, seed=3)


def test_run_protocol_produces_every_cell(tiny_protocol_result):
    md, result = tiny_protocol_result
    assert len(result.cells) == 2 * 3
    cells = {(c.method, c.test_domain): c for c in result.cells}
    for method in ("sgd", "fad"):
        for d in range(3):
            cell = cells[method, d]
            assert len(cell.seed_accuracies) == 2
            assert len(cell.trial_val_accuracies) == 2
            assert len(cell.lambda_maxes) == 2
            assert cell.mean_accuracy == pytest.approx(
                float(np.mean(cell.seed_accuracies))
            )
            assert 0.0 <= cell.mean_accuracy <= 1.0


def test_run_protocol_selection_is_consistent(tiny_protocol_result):
    _, result = tiny_protocol_result
    for cell in result.cells:
        assert cell.selected_trial == select_trial(list(cell.trial_val_accuracies))


def test_run_protocol_split_hygiene(tiny_protocol_result):
    md, result = tiny_protocol_result
    for cell in result.cells:
        pool = pool_domains(md, tuple(d for d in range(3) if d != cell.test_domain))
        train_indices, val_indices = result.splits[cell.test_domain]
        assert np.intersect1d(train_indices, val_indices).size == 0
        combined = np.sort(np.concatenate([train_indices, val_indices]))
        assert np.array_equal(combined, np.arange(pool.n))
        # the held-out domain never contributes a training or validation row
        assert cell.test_domain not in pool.domain_ids


def test_run_protocol_event_ordering(tiny_protocol_result):
    _, result = tiny_protocol_result
    clocks = [e[0] for e in result.events]
    assert clocks == sorted(clocks)
    for cell in result.cells:
        mine = [e for e in result.events if e[2] == cell.method and e[3] == cell.test_domain]
        scored = [e[0] for e in mine if e[1] == "trial_scored"]
        selected = [e[0] for e in mine if e[1] == "selected"]
        tested = [e[0] for e in mine if e[1] == "test_eval"]
        assert len(selected) == 1
        # every trial is scored before selection; tests only run after it
        assert max(scored) < selected[0] < min(tested)


def test_run_protocol_trains_on_every_domain_but_the_held_out_one(monkeypatch):
    md = generate_domains(small_spec(), seed=9)
    # one batch size, so that each method's trials train as one group
    protocol = ProtocolConfig(
        n_hparam_trials=2,
        seeds_per_trial=1,
        iterations=5,
        search=SearchSpace(log2_batch=(4.0, 4.0)),
        report_probes=2,
        report_k_eigs=1,
        report_restarts=1,
        report_ascent_steps=1,
    )
    methods = ["sgd", "adam"]
    # a run's batch seed -> each batch it drew, as each row's (domain, input bytes)
    drawn: dict[int, list[set]] = {}
    sample_batch = optimizers.sample_batch

    def recorded(dataset, batch_size, rng, *rows):
        batch = sample_batch(dataset, batch_size, rng, *rows)
        rows_drawn = {(int(dataset.domain_ids[i]), dataset.inputs[i].tobytes()) for i in batch}
        drawn.setdefault(rng.bit_generator.seed_seq.entropy, []).append(rows_drawn)
        return batch

    monkeypatch.setattr(optimizers, "sample_batch", recorded)
    result = run_protocol(md, methods, protocol, seed=0)
    n_trials, n_seeds = protocol.n_hparam_trials, protocol.seeds_per_trial
    runs = 0
    for d in range(3):
        pool = pool_domains(md, tuple(i for i in range(3) if i != d))
        train, val = (
            {(int(pool.domain_ids[i]), pool.inputs[i].tobytes()) for i in indices}
            for indices in result.splits[d]
        )
        for mi in range(len(methods)):
            # the batch seeds of the cell's trials, then of its retrains
            seeds = {shiftbench._derived_seed(0, 19, d, mi, k) for k in range(n_trials)}
            seeds |= {shiftbench._derived_seed(0, 29, d, mi, s) for s in range(n_seeds)}
            assert len(seeds) == n_trials + n_seeds
            for seed in seeds:
                assert len(drawn[seed]) == protocol.iterations
                for batch in drawn[seed]:
                    assert batch <= train and not batch & val
                    assert d not in {domain for domain, _ in batch}
            runs += len(seeds)
    # no other run drew a batch
    assert len(drawn) == runs


def test_run_protocol_raises_when_every_trial_diverges():
    md = generate_domains(small_spec(), seed=8)
    # weight decay near 10^300 compounds multiplicatively (g picks up wd*theta
    # each step), so every trial overflows within a few iterations
    protocol = ProtocolConfig(
        n_hparam_trials=2,
        seeds_per_trial=1,
        iterations=10,
        search=SearchSpace(log10_weight_decay=(300.0, 301.0)),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            ProtocolError, match=r"^sgd with domain 0 held out: every hyperparameter trial failed$"
        ):
            run_protocol(md, ["sgd"], protocol, seed=0)


def test_a_failing_retrain_names_its_cell(monkeypatch):
    md = generate_domains(small_spec(), seed=8)
    protocol = ProtocolConfig(
        n_hparam_trials=2,
        seeds_per_trial=2,
        iterations=5,
        report_probes=2,
        report_k_eigs=1,
        report_restarts=1,
        report_ascent_steps=1,
    )
    # the batch seed of fad's (the second method's) retrain 1 with domain 1 held out
    failing = shiftbench._derived_seed(0, 29, 1, 1, 1)
    run_training = shiftbench.run_training

    def fails(obj, theta0, config, iterations, seed, **kwargs):
        if failing in np.atleast_1d(seed):
            raise NumericalError("gradient contains non-finite values")
        return run_training(obj, theta0, config, iterations, seed, **kwargs)

    monkeypatch.setattr(shiftbench, "run_training", fails)
    with pytest.raises(NumericalError) as err:
        run_protocol(md, ["sgd", "fad"], protocol, seed=0)
    assert type(err.value) is NumericalError
    assert str(err.value) == (
        "fad with domain 1 held out, retrain 1: gradient contains non-finite values"
    )


def alone(obj, run, iterations):
    """A protocol run's final point when it trains by itself, or its error."""
    try:
        return shiftbench.run_training(
            obj, run.theta0, run.config, iterations, seed=run.seed
        ).theta_final
    except NumericalError as err:
        return err


def test_one_diverging_run_in_a_group_ends_as_it_does_alone():
    md = generate_domains(small_spec(), seed=8)
    obj = MLPObjective((2, 16, 3), pool_domains(md, (0, 1)))
    # one batch size, so one group; the middle run's weight decay overflows
    hps = [{"batch_size": 16, "eta0": 1e-3, "weight_decay": wd} for wd in (1e-4, 1e300, 1e-5)]
    runs = [shiftbench._run(obj, "sgd", hp, 0, (13, 19), (0, 0, k)) for k, hp in enumerate(hps)]
    with np.errstate(over="ignore", invalid="ignore"):
        finals = shiftbench._train(obj, runs, 10)
        want = [alone(obj, run, 10) for run in runs]
    assert isinstance(want[1], NumericalError)
    assert type(finals[1]) is type(want[1]) and str(finals[1]) == str(want[1])
    for k in (0, 2):
        assert finals[k].tobytes() == want[k].tobytes()


def run_protocol_one_at_a_time(monkeypatch, md, methods, protocol, seed):
    """``run_protocol`` with every run trained alone: each group fails, so
    ``_train`` trains its runs one at a time."""
    run_training = shiftbench.run_training

    def one_at_a_time(obj, theta0, *args, **kwargs):
        if np.ndim(theta0) == 2:
            raise NumericalError("trained alone")
        return run_training(obj, theta0, *args, **kwargs)

    monkeypatch.setattr(shiftbench, "run_training", one_at_a_time)
    return run_protocol(md, methods, protocol, seed=seed)


# one batch size, and weight decays from 1e-6 to 1e60, of which those above
# about 1e35 overflow within 10 steps: at seed 14, trial 1 of held-out domain
# 0 overflows and trials 0 and 2 do not; the other cells fail in other ways
DIVERGING_SGD = ProtocolConfig(
    n_hparam_trials=3,
    seeds_per_trial=2,
    iterations=10,
    search=SearchSpace(log2_batch=(4.0, 4.0), log10_weight_decay=(-6.0, 60.0)),
    report_probes=2,
    report_k_eigs=1,
    report_restarts=1,
    report_ascent_steps=1,
)


def test_a_cell_with_a_diverging_trial_equals_its_runs_trained_alone(monkeypatch):
    md = generate_domains(small_spec(), seed=8)
    protocol = DIVERGING_SGD
    with np.errstate(over="ignore", invalid="ignore"):
        grouped = run_protocol(md, ["sgd"], protocol, seed=14)
        reference = run_protocol_one_at_a_time(monkeypatch, md, ["sgd"], protocol, 14)
    first = grouped.cells[0].trial_val_accuracies
    assert first[1] is None and first[0] is not None and first[2] is not None
    assert grouped.cells == reference.cells
    assert grouped.events == reference.events


def test_a_cell_whose_group_mixes_zero_and_unit_beta_equals_its_runs_trained_alone(monkeypatch):
    md = generate_domains(DomainSpec(n_domains=3, per_domain_n=30), 8)
    # one batch size, so each cell's trials train as one group; a run with beta
    # 0 never fires, so a group that mixes beta 0 and 1 corrects only some runs
    protocol = ProtocolConfig(
        n_hparam_trials=4,
        seeds_per_trial=1,
        iterations=10,
        search=SearchSpace(log2_batch=(4.0, 4.0), fad_beta=(0.0, 1.0)),
        report_probes=2,
        report_k_eigs=1,
        report_restarts=1,
        report_ascent_steps=1,
    )
    run_training = shiftbench.run_training
    betas = []

    def recorded(obj, theta0, config, *args, **kwargs):
        if np.ndim(theta0) == 2:
            betas.append({c.beta for c in config})
        return run_training(obj, theta0, config, *args, **kwargs)

    monkeypatch.setattr(shiftbench, "run_training", recorded)
    grouped = run_protocol(md, ["gam", "fad"], protocol, seed=3)
    assert {0.0, 1.0} in betas
    reference = run_protocol_one_at_a_time(monkeypatch, md, ["gam", "fad"], protocol, 3)
    assert grouped.cells == reference.cells
    assert grouped.events == reference.events


def test_a_group_spanning_held_out_domains_equals_its_runs_trained_alone(monkeypatch):
    md = generate_domains(small_spec(), seed=8)
    run_training = shiftbench.run_training
    # each grouped call: the held-out domains of its runs, and whether it trained
    groups = []

    def recorded(obj, theta0, *args, rows=None, **kwargs):
        if np.ndim(theta0) != 2:
            return run_training(obj, theta0, *args, rows=rows, **kwargs)
        # a run's held-out domain is the one its rows never come from
        held_out = [set(range(3)) - set(obj.dataset.domain_ids[r].tolist()) for r in rows]
        assert all(len(domains) == 1 for domains in held_out)
        domains = set().union(*held_out)
        try:
            record = run_training(obj, theta0, *args, rows=rows, **kwargs)
        except NumericalError:
            groups.append((domains, False))
            raise
        groups.append((domains, True))
        return record

    monkeypatch.setattr(shiftbench, "run_training", recorded)
    with np.errstate(over="ignore", invalid="ignore"):
        grouped = run_protocol(md, ["sgd"], DIVERGING_SGD, seed=14)
        reference = run_protocol_one_at_a_time(monkeypatch, md, ["sgd"], DIVERGING_SGD, 14)
    # the trials of every held-out domain fail as one group, and the retrains
    # of every held-out domain train as one
    assert groups == [({0, 1, 2}, False), ({0, 1, 2}, True)]
    assert grouped.cells == reference.cells
    assert grouped.events == reference.events


def test_a_method_trains_its_trials_and_its_retrains_as_one_group_each(monkeypatch):
    md = generate_domains(small_spec(noise=0.4), seed=0)
    # the protocol's shape of perfbench's bench-cli: 4 trials and 1 retrain per
    # cell, all at batch 32, 3 held-out domains and 3 methods
    protocol = ProtocolConfig(
        n_hparam_trials=4,
        seeds_per_trial=1,
        iterations=3,
        search=SearchSpace(log2_batch=(5.0, 5.0)),
        report_probes=2,
        report_k_eigs=1,
        report_restarts=1,
        report_ascent_steps=1,
    )
    run_training = shiftbench.run_training
    runs_per_call = []

    def recorded(obj, theta0, *args, **kwargs):
        runs_per_call.append(1 if np.ndim(theta0) == 1 else len(theta0))
        return run_training(obj, theta0, *args, **kwargs)

    monkeypatch.setattr(shiftbench, "run_training", recorded)
    run_protocol(md, ["adam", "sam", "fad"], protocol, seed=0)
    # per method, one group of its 12 trials, then one of its 3 retrains
    assert runs_per_call == [12, 3] * 3
