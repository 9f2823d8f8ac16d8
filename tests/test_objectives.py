"""Objective zoo checks: losses, analytic gradients, HVPs, datasets, batching.

Gradient correctness is always checked against central finite differences
computed here, independently of the hvp_fd helper the library ships; the
exact ``hvp`` against the quadratic's own Hessian and central differences of
the gradient.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flatmin.errors import (
    BatchSizeError,
    ConfigError,
    DegenerateDirectionError,
    DimensionError,
    NumericalError,
)
from flatmin.flatness import power_iteration_lambda_max
from flatmin.objectives import (
    Dataset,
    DoubleWellObjective,
    MLPObjective,
    Objective,
    QuadraticObjective,
    RosenbrockObjective,
    eval_grad,
    eval_loss,
    hvp,
    hvp_fd,
    load_dataset,
    norm,
    random_spd_matrix,
    row_norms,
    sample_batch,
    save_dataset,
)
from flatmin.optimizers import OptimizerConfig, OptimizerState, step
from flatmin.shiftbench import DomainSpec, generate_domains, pool_domains


def central_diff_grad(obj, theta, batch=None, h=1e-5):
    """Independent finite-difference gradient oracle."""
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (eval_loss(obj, theta + e, batch) - eval_loss(obj, theta - e, batch)) / (2 * h)
    return g


def tiny_dataset(n=12, feature_dim=2, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.standard_normal((n, feature_dim)),
        rng.integers(num_classes, size=n),
        np.zeros(n, dtype=np.int64),
    )


# ---------------------------------------------------------------- quadratic


def test_quadratic_known_loss_and_grad():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    # 0.5 * (2*1 + 8*1) = 5, gradient H @ theta = (2, 8); both exact
    assert eval_loss(obj, theta) == 5.0
    assert np.array_equal(eval_grad(obj, theta), np.array([2.0, 8.0]))


def test_quadratic_matrix_form_matches_diag_form():
    # a diagonal is kept as its matrix, so both forms give the same bytes
    rng = np.random.default_rng(4)
    curvature = rng.uniform(0.5, 10.0, size=5)
    diag = QuadraticObjective(curvature)
    full = QuadraticObjective(np.diag(curvature))
    theta, v = rng.standard_normal(5), rng.standard_normal((3, 5))
    assert diag.hessian().tobytes() == full.hessian().tobytes()
    losses = np.array([eval_loss(diag, theta), eval_loss(full, theta)])
    assert losses[0].tobytes() == losses[1].tobytes()
    assert eval_grad(diag, theta).tobytes() == eval_grad(full, theta).tobytes()
    assert hvp(diag, theta, v).tobytes() == hvp(full, theta, v).tobytes()


def test_quadratic_rejects_asymmetric_matrix():
    with pytest.raises(ConfigError):
        QuadraticObjective(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_quadratic_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        QuadraticObjective(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        QuadraticObjective(np.array([]))


def test_hvp_matches_hessian_product_on_diagonal():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    got = hvp_fd(obj, np.array([1.0, 1.0]), np.array([0.0, 3.0]))
    np.testing.assert_allclose(got, np.array([0.0, 24.0]), rtol=1e-7, atol=1e-9)


def test_hvp_matches_hessian_product_on_random_spd():
    rng = np.random.default_rng(5)
    mat = random_spd_matrix(6, rng)
    obj = QuadraticObjective(mat)
    theta = rng.standard_normal(6)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(hvp_fd(obj, theta, v), mat @ v, rtol=1e-7)


def test_hvp_rejects_zero_direction():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with pytest.raises(DegenerateDirectionError):
        hvp_fd(obj, np.zeros(2), np.zeros(2))


# ----------------------------------------------------- analytic vs numeric


def test_rosenbrock_gradient_matches_finite_differences():
    obj = RosenbrockObjective(5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.uniform(-1.5, 1.5, size=5)
        err = np.abs(eval_grad(obj, theta) - central_diff_grad(obj, theta)).max()
        assert err < 1e-4


def test_rosenbrock_minimum_at_ones():
    obj = RosenbrockObjective(4)
    assert eval_loss(obj, np.ones(4)) == 0.0
    assert np.abs(eval_grad(obj, np.ones(4))).max() == 0.0
    with pytest.raises(ConfigError):
        RosenbrockObjective(1)


def test_double_well_gradient_away_from_the_kink():
    obj = DoubleWellObjective()
    crossings = obj.crossing_points()
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 20:
        x = rng.uniform(-3.0, 3.0)
        # the loss is non-differentiable where the basins cross; stay clear
        if crossings.size and np.abs(crossings - x).min() < 0.05:
            continue
        theta = np.array([x])
        err = np.abs(eval_grad(obj, theta) - central_diff_grad(obj, theta)).max()
        assert err < 1e-4
        checked += 1


def test_double_well_is_continuous_at_crossings():
    obj = DoubleWellObjective(centers=(-1.0, 1.0), curvatures=(8.0, 0.5), offsets=(0.0, 0.3))
    for x in obj.crossing_points():
        left = eval_loss(obj, np.array([x - 1e-9]))
        right = eval_loss(obj, np.array([x + 1e-9]))
        assert left == pytest.approx(right, abs=1e-7)


def test_double_well_validation():
    with pytest.raises(ConfigError):
        DoubleWellObjective(curvatures=(1.0, 0.0))


@pytest.mark.parametrize("curvatures", [(np.nan, 0.5), (0.5, np.nan)], ids=["first", "second"])
def test_double_well_rejects_nan_curvature(curvatures):
    with pytest.raises(ConfigError):
        DoubleWellObjective(curvatures=curvatures)


@pytest.mark.parametrize(
    "centers,curvatures,offsets,expected",
    [
        # equal basins meet halfway between their centres
        ((-1.0, 3.0), (2.0, 2.0), (0.5, 0.5), [1.0]),
        # one basin lies 1 above the other everywhere
        ((0.5, 0.5), (3.0, 3.0), (0.0, 1.0), []),
        # 0.5 x^2 = 1 + x^2 has no real solution
        ((0.0, 0.0), (1.0, 2.0), (0.0, 1.0), []),
    ],
    ids=["equal_basins", "parallel_offset", "nested"],
)
def test_double_well_crossing_points_are_the_analytic_ones(centers, curvatures, offsets, expected):
    obj = DoubleWellObjective(centers=centers, curvatures=curvatures, offsets=offsets)
    assert obj.crossing_points().tolist() == expected


def test_mlp_gradient_matches_finite_differences():
    ds = tiny_dataset()
    obj = MLPObjective((2, 4, 3), ds)
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.standard_normal(obj.dim) * 0.5
        err = np.abs(eval_grad(obj, theta) - central_diff_grad(obj, theta)).max()
        assert err < 1e-4


def test_mlp_minibatch_gradient_matches_finite_differences():
    ds = tiny_dataset()
    obj = MLPObjective((2, 4, 3), ds)
    batch = np.array([0, 3, 7, 9])
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(obj.dim) * 0.5
    err = np.abs(eval_grad(obj, theta, batch) - central_diff_grad(obj, theta, batch)).max()
    assert err < 1e-4


def test_mlp_parameter_count_and_init():
    ds = tiny_dataset()
    obj = MLPObjective((2, 4, 3), ds)
    # (2+1)*4 weights+biases for the hidden layer, (4+1)*3 for the output
    assert obj.dim == 27
    theta = obj.init_params(np.random.default_rng(0))
    assert theta.shape == (obj.dim,)
    assert np.all(np.isfinite(theta))
    # biases start at zero: one per hidden unit plus one per class
    assert int(np.sum(theta == 0.0)) == 4 + 3


def test_mlp_rejects_feature_mismatch():
    ds = tiny_dataset(feature_dim=2)
    with pytest.raises((ConfigError, DimensionError)):
        MLPObjective((3, 4, 3), ds)


# ---------------------------------------------------------- eval contracts


def test_eval_rejects_wrong_dimension():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with pytest.raises(DimensionError):
        eval_loss(obj, np.zeros(3))
    with pytest.raises(DimensionError):
        eval_grad(obj, np.zeros(1))


def test_eval_raises_on_nonfinite_results():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        eval_loss(obj, np.array([1e200, 1e200]))


class WrongShapes(Objective):
    """An objective whose gradient and products have one entry too many."""

    dim = 2

    def _grad(self, theta, batch):
        return np.zeros(3)

    def _hvp(self, theta, v):
        return np.zeros((v.shape[0], 3))


def labelled(labels):
    return Dataset(np.zeros((len(labels), 2)), np.array(labels), np.zeros(len(labels)))


def two_row_mlp():
    # a 2-3 softmax layer of dim 9 on two rows
    return MLPObjective((2, 3), labelled([0, 1]))


BAD_INPUTS = {
    "theta_not_1d": (DimensionError, lambda: eval_loss(RosenbrockObjective(2), np.ones((1, 2)))),
    # an MLP takes a [K, dim] stack with a [K, rows] batch, one row of indices per point
    "stack_of_the_wrong_width": (
        DimensionError,
        lambda: eval_grad(two_row_mlp(), np.zeros((2, 8)), [[0], [1]]),
    ),
    "stack_on_full_data": (DimensionError, lambda: eval_loss(two_row_mlp(), np.zeros((2, 9)))),
    "stack_with_a_flat_batch": (
        DimensionError,
        lambda: eval_loss(two_row_mlp(), np.zeros((2, 9)), [0, 1]),
    ),
    "stack_of_three_with_two_index_rows": (
        DimensionError,
        lambda: eval_grad(two_row_mlp(), np.zeros((3, 9)), [[0], [1]]),
    ),
    "stack_of_one_with_two_index_rows": (
        DimensionError,
        lambda: eval_grad(two_row_mlp(), np.zeros((1, 9)), [[0], [1]]),
    ),
    "indices_of_three_axes": (
        DimensionError,
        lambda: eval_grad(two_row_mlp(), np.zeros((1, 9)), [[[0]]]),
    ),
    "labels_not_1d": (
        DimensionError,
        lambda: Dataset(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros(2)),
    ),
    "dataset_keys_missing": (ConfigError, lambda: Dataset.from_dict({"inputs": [[0.0, 1.0]]})),
    "dataset_file_missing": (ConfigError, lambda: load_dataset("no/such/dataset.json")),
    "gradient_shape": (DimensionError, lambda: eval_grad(WrongShapes(), np.zeros(2))),
    "product_shape": (DimensionError, lambda: hvp(WrongShapes(), np.zeros(2), np.ones(2))),
    "three_basins": (ConfigError, lambda: DoubleWellObjective(centers=(-1.0, 0.0, 1.0))),
    "one_layer": (ConfigError, lambda: MLPObjective((2,), labelled([0, 1]))),
    "empty_layer": (ConfigError, lambda: MLPObjective((2, 0, 3), labelled([0, 1]))),
    "label_too_large": (ConfigError, lambda: MLPObjective((2, 3), labelled([0, 3]))),
    "negative_label": (ConfigError, lambda: MLPObjective((2, 3), labelled([-1, 1]))),
    "curvature_scalar": (DimensionError, lambda: QuadraticObjective(np.float64(2.0))),
    "curvature_3d": (DimensionError, lambda: QuadraticObjective(np.ones((2, 2, 2)))),
    # inf - inf is NaN, and NaN passes a symmetry check that compares with >
    "curvature_inf_diagonal": (ConfigError, lambda: QuadraticObjective(np.array([np.inf, 1.0]))),
    "curvature_nan_diagonal": (ConfigError, lambda: QuadraticObjective(np.array([np.nan, 1.0]))),
    "curvature_nan_off_diagonal": (
        ConfigError,
        lambda: QuadraticObjective(np.array([[1.0, np.nan], [np.nan, 1.0]])),
    ),
}


@pytest.mark.parametrize("error,call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_its_own_error_type(error, call):
    with pytest.raises(ConfigError) as caught:
        call()
    assert type(caught.value) is error


def test_eval_loss_is_pure():
    obj = RosenbrockObjective(3)
    theta = np.array([0.2, -0.4, 1.1])
    before = theta.copy()
    first = eval_loss(obj, theta)
    second = eval_loss(obj, theta)
    assert first == second
    assert np.array_equal(theta, before)
    g = eval_grad(obj, theta)
    g[:] = 0.0  # mutating a returned gradient must not leak into later calls
    assert np.any(eval_grad(obj, theta) != 0.0)


# ------------------------------------------- a gradient after a loss call


def every_kind():
    """(name, objective, point) for each objective kind; MLPs of two depths,
    and one over inputs given in column-major order."""
    rng = np.random.default_rng(17)
    data = tiny_dataset(n=40, seed=3)
    column_major = Dataset(np.asfortranarray(data.inputs), data.labels, data.domain_ids)
    cases = [
        ("quadratic_diag", QuadraticObjective(np.array([2.0, 8.0, 0.5]))),
        ("quadratic_matrix", QuadraticObjective(random_spd_matrix(4, rng))),
        ("rosenbrock", RosenbrockObjective(4)),
        ("double_well", DoubleWellObjective()),
        ("mlp", MLPObjective((2, 5, 3), data)),
        ("mlp_deep", MLPObjective((2, 6, 4, 3), data)),
        ("mlp_column_major", MLPObjective((2, 5, 3), column_major)),
    ]
    return [(name, obj, rng.standard_normal(obj.dim)) for name, obj in cases]


KINDS = every_kind()
MLPS = [k for k in KINDS if k[0].startswith("mlp")]
BATCH = np.array([7, 0, 31, 12, 12, 5, 39])


@pytest.mark.parametrize("batch", [None, BATCH], ids=["full", "batch"])
@pytest.mark.parametrize("name,obj,theta", KINDS, ids=[k[0] for k in KINDS])
def test_loss_and_grad_equals_separate_calls_bit_for_bit(name, obj, theta, batch):
    # a gradient right after the loss call at its point and rows, which an MLP
    # takes from that call's forward pass, equals one with no call before it
    cold = type(obj)(obj.layer_sizes, obj.dataset) if name.startswith("mlp") else obj
    grad = eval_grad(cold, theta, batch)
    loss = eval_loss(obj, theta, batch)
    assert np.array_equal(eval_grad(obj, theta, batch), grad)
    assert eval_loss(cold, theta, batch) == loss


@pytest.mark.parametrize("name,obj,theta", MLPS, ids=[k[0] for k in MLPS])
def test_full_data_path_equals_an_all_rows_batch(name, obj, theta):
    # the full-data path reads the dataset in place; an explicit batch of
    # every row takes the indexed copy, and both must agree bit for bit
    every_row = np.arange(obj.dataset.n)
    assert eval_loss(obj, theta) == eval_loss(obj, theta, every_row)
    assert np.array_equal(eval_grad(obj, theta), eval_grad(obj, theta, every_row))


def test_loss_and_grad_checks_like_the_separate_calls():
    # the gradient that takes a loss call's forward pass is checked as a cold one
    obj = MLPObjective((2, 5, 3), tiny_dataset())
    for call in (eval_loss, eval_grad):
        with pytest.raises(DimensionError):
            call(obj, np.zeros(obj.dim + 1))
    for call in (eval_loss, eval_grad, eval_grad):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            call(obj, np.full(obj.dim, np.nan))


# ------------------------------------------- exact Hessian-vector products


def scale_of(x):
    return max(1.0, float(np.abs(x).max()))


@pytest.mark.parametrize(
    "curvature",
    [np.array([2.0, 8.0, -0.5]), random_spd_matrix(5, np.random.default_rng(4))],
    ids=["diag", "matrix"],
)
def test_exact_hvp_is_the_quadratic_hessian_product(curvature):
    obj = QuadraticObjective(curvature)
    rng = np.random.default_rng(6)
    theta = rng.standard_normal(obj.dim)
    for v in rng.standard_normal((4, obj.dim)):
        want = obj.hessian() @ v
        assert np.abs(hvp(obj, theta, v) - want).max() <= 1e-12 * scale_of(want)


def central_diff_hvp(obj, theta, v, h=1e-5):
    """Independent Hessian-vector product: central differences of the gradient."""
    return (eval_grad(obj, theta + h * v) - eval_grad(obj, theta - h * v)) / (2 * h)


def test_exact_hvp_matches_central_differences_on_rosenbrock():
    obj = RosenbrockObjective(5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(-1.5, 1.5, size=5)
        v = rng.standard_normal(5)
        want = central_diff_hvp(obj, theta, v)
        assert np.abs(hvp(obj, theta, v) - want).max() <= 1e-6 * scale_of(want)


def test_exact_hvp_matches_central_differences_on_the_double_well():
    obj = DoubleWellObjective()
    crossings = obj.crossing_points()
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 20:
        x = rng.uniform(-3.0, 3.0)
        if crossings.size and np.abs(crossings - x).min() < 0.05:
            continue
        theta, v = np.array([x]), rng.standard_normal(1)
        want = central_diff_hvp(obj, theta, v)
        assert np.abs(hvp(obj, theta, v) - want).max() <= 1e-9 * scale_of(want)
        checked += 1
    # at a crossing the first basin wins, as it does for the gradient
    for x in crossings:
        assert hvp(obj, np.array([x]), np.array([2.0]))[0] == 2.0 * obj.curvatures[0]


@pytest.mark.parametrize("name,obj,theta", KINDS, ids=[k[0] for k in KINDS])
def test_exact_hvp_is_linear_in_the_direction(name, obj, theta):
    # unlike hvp_fd, whose step along v / |v| makes it depend on v's direction
    # beyond the Hessian
    rng = np.random.default_rng(10)
    u, w = rng.standard_normal((2, obj.dim))
    combined = hvp(obj, theta, 3.0 * u - 0.25 * w)
    parts = 3.0 * hvp(obj, theta, u) - 0.25 * hvp(obj, theta, w)
    assert np.abs(combined - parts).max() <= 1e-12 * scale_of(parts)


@pytest.mark.parametrize("name,obj,theta", KINDS, ids=[k[0] for k in KINDS])
def test_exact_hvp_of_a_block_is_each_rows_product(name, obj, theta):
    # 7 rows: an MLP's R-op takes them in blocks, the last one short
    block = np.random.default_rng(11).standard_normal((7, obj.dim))
    got = hvp(obj, theta, block)
    assert got.shape == block.shape
    rows = np.stack([hvp(obj, theta, v) for v in block])
    assert np.abs(got - rows).max() <= 1e-12 * scale_of(rows)
    assert np.array_equal(hvp(obj, theta, block[:1]), hvp(obj, theta, block[0])[None, :])


def test_exact_hvp_makes_no_loss_or_gradient_call(monkeypatch):
    obj = MLPObjective((2, 5, 3), tiny_dataset())

    def no_call(*args, **kwargs):
        raise AssertionError("hvp called the loss or the gradient")

    monkeypatch.setattr(MLPObjective, "_loss", no_call)
    monkeypatch.setattr(MLPObjective, "_grad", no_call)
    hvp(obj, np.random.default_rng(0).standard_normal(obj.dim), np.ones(obj.dim))


def test_exact_hvp_checks_like_eval_grad():
    obj = MLPObjective((2, 5, 3), tiny_dataset())
    theta = np.zeros(obj.dim)
    for v in (np.zeros(obj.dim + 1), np.zeros((3, obj.dim - 1)), np.zeros((2, 3, obj.dim))):
        with pytest.raises(DimensionError):
            hvp(obj, theta, v)
    with pytest.raises(DimensionError):
        hvp(obj, np.zeros(obj.dim + 1), np.zeros(obj.dim))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        hvp(obj, np.full(obj.dim, np.nan), np.ones(obj.dim))
    quad = QuadraticObjective(np.array([2.0, 8.0]))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        hvp(quad, np.zeros(2), np.array([[1.0, 1.0], [1e308, 1e308]]))


# ------------------------------------------------ plain MLP reference


def unpack_layers(sizes, theta):
    layers, off = [], 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        w = theta[off : off + fi * fo].reshape(fi, fo)
        off += fi * fo
        layers.append((w, theta[off : off + fo]))
        off += fo
    return layers


def unpack_blocks(sizes, theta):
    """Each layer's [fan_in + 1, fan_out] block: its weights, then its bias row."""
    blocks, off = [], 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        blocks.append(theta[off : off + (fi + 1) * fo].reshape(fi + 1, fo))
        off += (fi + 1) * fo
    return blocks


def with_ones(x):
    """[units, rows] ``x`` with a row of ones below, in C order."""
    return np.ascontiguousarray(np.vstack([x, np.ones((1, x.shape[1]))]))


def reference_forward(sizes, theta, inputs):
    """Layer blocks, the input of each layer, and the logits, written plainly
    in the oracle's feature-major layout: every array is [units, rows], and
    each layer's input has a row of ones below, which its bias row multiplies."""
    blocks = unpack_blocks(sizes, theta)
    acts = [with_ones(inputs.T)]
    for wb in blocks[:-1]:
        acts.append(with_ones(np.tanh(wb.T @ acts[-1])))
    return blocks, acts, blocks[-1].T @ acts[-1]


def reference_loss_and_grad(obj, theta, batch):
    """Mean cross-entropy and its gradient with each row's maximum taken by
    ``max(axis=0)``, the label logits picked by a (label, column) index, the
    class sums over axis 0 and each layer's weight-and-bias gradient as one
    product."""
    data = obj.dataset
    rows = np.arange(data.n) if batch is None else batch
    inputs = data.inputs if batch is None else data.inputs[rows]
    blocks, acts, logits = reference_forward(obj.layer_sizes, theta, inputs)
    shifted = logits - logits.max(axis=0)
    pick = (data.labels[rows], np.arange(rows.size))
    expz = np.exp(shifted)
    expsum = expz.sum(axis=0)
    loss = float(np.mean(np.log(expsum) - shifted[pick]))
    delta = expz / expsum
    delta[pick] -= 1.0
    delta /= rows.size
    grads = []
    for li in range(len(blocks) - 1, -1, -1):
        grads[:0] = [(acts[li] @ delta.T).ravel()]
        if li > 0:
            delta = (blocks[li][:-1] @ delta) * (1.0 - acts[li][:-1] * acts[li][:-1])
    return loss, np.concatenate(grads)


def row_major_forward(sizes, theta, inputs):
    """The same network with every array [rows, units]: an independent check
    of the layout, equal up to rounding."""
    layers = unpack_layers(sizes, theta)
    acts = [inputs]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w + b))
    w, b = layers[-1]
    return layers, acts, acts[-1] @ w + b


def row_major_loss_and_grad(obj, theta, batch):
    """Mean cross-entropy and its gradient with each row's maximum taken by
    ``max(axis=1)`` and the label logits picked by a (row, label) index."""
    data = obj.dataset
    rows = np.arange(data.n) if batch is None else batch
    inputs = data.inputs if batch is None else data.inputs[rows]
    layers, acts, logits = row_major_forward(obj.layer_sizes, theta, inputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    pick = (np.arange(rows.size), data.labels[rows])
    expz = np.exp(shifted)
    expsum = expz.sum(axis=1)
    loss = float(np.mean(np.log(expsum) - shifted[pick]))
    delta = expz / expsum[:, None]
    delta[pick] -= 1.0
    delta /= rows.size
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        grads[:0] = [(acts[li].T @ delta).ravel(), delta.sum(axis=0)]
        if li > 0:
            delta = (delta @ w.T) * (1.0 - acts[li] * acts[li])
    return loss, np.concatenate(grads)


def assert_close(got, want, rel=1e-12):
    assert np.abs(np.asarray(got) - want).max() <= rel * np.abs(want).max()


@st.composite
def mlp_cases(draw):
    """An MLP of 1 to 3 layers over C- or F-order inputs, a point, and a
    batch that may repeat rows and hold more rows than the data."""
    classes = draw(st.sampled_from([1, 2, 3, 8, 10]))
    hidden = draw(st.lists(st.integers(min_value=1, max_value=6), max_size=2))
    features = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    inputs = rng.standard_normal((n, features))
    if draw(st.booleans()):
        inputs = np.asfortranarray(inputs)
    data = Dataset(inputs, rng.integers(classes, size=n), np.zeros(n, dtype=np.int64))
    obj = MLPObjective((features, *hidden, classes), data)
    theta = draw(st.floats(min_value=0.1, max_value=3.0)) * rng.standard_normal(obj.dim)
    batch = rng.integers(n, size=draw(st.integers(min_value=1, max_value=2 * n + 3)))
    return obj, inputs, theta, batch


@settings(max_examples=200, deadline=None)
@given(case=mlp_cases())
def test_mlp_oracle_matches_the_plain_reference_bit_for_bit(case):
    obj, inputs, theta, batch = case
    for rows in (None, batch):
        loss, grad = reference_loss_and_grad(obj, theta, rows)
        # a cold gradient, then one that takes the loss call's forward pass
        assert np.array_equal(eval_grad(obj, theta, rows), grad)
        assert eval_loss(obj, theta, rows) == loss
        assert np.array_equal(eval_grad(obj, theta, rows), grad)
    logits = reference_forward(obj.layer_sizes, theta, inputs)[2]
    assert np.array_equal(obj.logits(theta, inputs), logits.T)


@settings(max_examples=200, deadline=None)
@given(case=mlp_cases())
def test_mlp_oracle_matches_the_row_major_reference(case):
    obj, inputs, theta, batch = case
    for rows in (None, batch):
        loss, grad = row_major_loss_and_grad(obj, theta, rows)
        assert_close(eval_loss(obj, theta, rows), loss)
        assert_close(eval_grad(obj, theta, rows), grad)
    assert_close(obj.logits(theta, inputs), row_major_forward(obj.layer_sizes, theta, inputs)[2])


# ------------------------------------ the last-batch and last-pass memos


def test_batch_memo_is_invisible():
    # one objective sees full data and batches in turn, bad batches among
    # them; each result must equal that of an objective that saw nothing before
    data = tiny_dataset(n=40, seed=5)
    obj = MLPObjective((2, 5, 3), data)
    theta = np.random.default_rng(2).standard_normal(obj.dim)
    a = np.array([7, 0, 31, 12, 12, 5, 39])
    b = np.array([5, 5, 20])
    one = np.array([4])

    def same_as_cold(grad, batch, point=theta):
        # by bytes, so that the sign of a zero counts too
        cold = eval_grad(MLPObjective((2, 5, 3), data), point, batch)
        return grad.tobytes() == cold.tobytes()

    def check(batch):
        loss = eval_loss(MLPObjective((2, 5, 3), data), theta, batch)
        assert eval_loss(obj, theta, batch) == loss
        assert same_as_cold(eval_grad(obj, theta, batch), batch)

    for batch in (None, a, b, a, a.copy(), None, a, one):
        check(batch)
    # a loss call's forward pass serves only a gradient at its rows and the
    # bytes of its point
    for first, then in ((a, b), (a, None), (None, a), (a, a.copy())):
        eval_loss(obj, theta, first)
        assert same_as_cold(eval_grad(obj, theta, then), then)
    point = theta.copy()
    eval_loss(obj, point, a)
    point[3] += 1.0
    assert same_as_cold(eval_grad(obj, point, a), a, point)
    positive, negative = theta.copy(), theta.copy()
    positive[15:] = 0.0
    negative[15:] = -0.0
    eval_loss(obj, positive, a)
    assert same_as_cold(eval_grad(obj, negative, a), a, negative)
    # output biases 1e308 apart: a label logit of -inf after the shift makes
    # the loss infinite, while the gradient is finite
    far = theta.copy()
    far[15:] = 0.0
    far[30:32] = [1e308, -1e308]
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            eval_loss(obj, far)
        assert same_as_cold(eval_grad(obj, far), None, far)
    # a rejected batch is rejected again, as itself and as an equal new array
    for rows, error in (
        ([], BatchSizeError),
        ([40], DimensionError),
        ([-1], DimensionError),
        ([np.iinfo(np.int64).min], DimensionError),
        ([3, np.iinfo(np.int64).min], DimensionError),
    ):
        bad = np.array(rows, dtype=np.int64)
        for batch in (bad, bad, bad.copy()):
            with pytest.raises(error):
                eval_grad(obj, theta, batch)
        check(one)
    # an index array written in place between two calls, also while it is the
    # last batch seen and after a loss call on it, gives the results of its new rows
    check(a)
    eval_loss(obj, theta, a)
    a[:] = [1, 1, 1, 2, 39, 0, 3]
    assert same_as_cold(eval_grad(obj, theta, a), [1, 1, 1, 2, 39, 0, 3])
    check(a)


@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["0-D", "2-D"])
def test_batch_indices_that_are_not_1d_are_rejected(shape):
    # also when their bytes are those of the last batch seen
    obj = MLPObjective((2, 5, 3), tiny_dataset(n=40, seed=5))
    theta = np.random.default_rng(2).standard_normal(obj.dim)
    bad = np.full(shape, 4, dtype=np.int64)
    eval_grad(obj, theta, bad.reshape(-1))
    for call in (eval_loss, eval_grad):
        with pytest.raises(DimensionError):
            call(obj, theta, bad)


@pytest.mark.parametrize("given", [list, lambda rows: rows.astype(np.int32)], ids=["list", "int32"])
def test_a_list_or_int32_batch_gives_the_bytes_of_its_int64_array(given):
    data = tiny_dataset(n=40, seed=5)
    obj = MLPObjective((2, 5, 3), data)
    theta = np.random.default_rng(2).standard_normal(obj.dim)
    rows = np.array([7, 0, 31, 12, 12, 5, 39])
    want = eval_loss(obj, theta, rows), eval_grad(obj, theta, rows).tobytes()
    # a cold objective gathers the rows itself; ``obj`` last saw the int64 array
    for seen in (MLPObjective((2, 5, 3), data), obj):
        got = eval_loss(seen, theta, given(rows)), eval_grad(seen, theta, given(rows)).tobytes()
        assert got == want


def test_pass_memo_is_invisible():
    # one objective alternates a point and points a small step away, as a
    # forward-difference product does, on full data and on a batch; each result
    # must equal, by bytes, that of an objective that saw nothing before
    data = tiny_dataset(n=40, seed=5)
    obj = MLPObjective((2, 5, 3), data)
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(obj.dim)
    a = np.array([7, 0, 31, 12, 12, 5, 39])

    def cold():
        return MLPObjective((2, 5, 3), data)

    def check(point, batch):
        assert eval_loss(obj, point, batch) == eval_loss(cold(), point, batch)
        assert eval_grad(obj, point, batch).tobytes() == eval_grad(cold(), point, batch).tobytes()
        if batch is None:
            v = np.ones((3, obj.dim))
            assert hvp(obj, point, v).tobytes() == hvp(cold(), point, v).tobytes()

    for batch in (None, a):
        for u in rng.standard_normal((3, obj.dim)):
            for point in (theta + 1e-4 * u, theta, theta + 1e-4 * u, theta):
                check(point, batch)
    # writing into the point after a call that made a pass, or into a
    # gradient returned from it, changes no later result
    for batch in (None, a):
        obj = cold()
        point = theta.copy()
        eval_loss(obj, point, batch)
        point[:] = 1.0
        grad = eval_grad(obj, theta, batch)
        grad[:] = 0.0
        check(theta, batch)
    # a batch pass never serves a full-data call at the same point, nor the
    # reverse, whichever call made it
    for first in (eval_loss, eval_grad):
        for then in (None, a):
            other = a if then is None else None
            obj = cold()
            first(obj, theta, other)
            check(theta, then)


def test_exact_product_does_not_depend_on_earlier_calls():
    # on the README task (2-16-3, 450 rows), a block of products after a
    # gradient at the point, a loss elsewhere and a batch gradient has the
    # bytes of a fresh objective's, and so has a later 3-row sub-block
    md = generate_domains(DomainSpec(), 11)
    data = pool_domains(md, tuple(range(md.n_domains)))

    def fresh():
        return MLPObjective((2, 16, 3), data)

    obj = fresh()
    rng = np.random.default_rng(8)
    theta = obj.init_params(rng)
    v = rng.standard_normal((10, obj.dim))
    eval_grad(obj, theta)
    eval_loss(obj, theta + 0.1 * v[0])
    eval_grad(obj, theta, np.arange(0, 450, 7))
    assert hvp(obj, theta, v).tobytes() == hvp(fresh(), theta, v).tobytes()
    assert hvp(obj, theta, v[4:7]).tobytes() == hvp(fresh(), theta, v[4:7]).tobytes()


def test_a_lanczos_solve_runs_one_forward_pass_at_its_point(monkeypatch):
    # each forward-difference product takes a gradient at a new point and one
    # at the solve's point; from the second product on, a kept pass serves the
    # latter, so 5 products run 6 passes, not 10
    obj = MLPObjective((2, 5, 3), tiny_dataset(n=40, seed=5))
    theta = obj.init_params(np.random.default_rng(0))
    forward = obj._forward
    passes = []
    monkeypatch.setattr(obj, "_forward", lambda *args: passes.append(args) or forward(*args))
    power_iteration_lambda_max(obj, theta, max_iter=5)
    assert len(passes) == 6


@pytest.mark.parametrize(
    "method, points",
    [
        ("sgd", 1),
        ("momentum_sgd", 1),
        ("adam", 1),
        ("adamw", 1),
        ("sam", 2),
        ("gam", 4),
        ("fad", 4),
    ],
)
def test_a_step_runs_one_forward_and_one_backward_pass_per_gradient_point(
    monkeypatch, method, points
):
    # the step's loss and its first gradient share one forward pass, and each
    # further gradient is taken at a point of its own
    obj = MLPObjective((2, 5, 3), tiny_dataset(n=40, seed=5))
    theta = obj.init_params(np.random.default_rng(0))
    forward, backward = obj._forward, obj._backward
    passes, backwards = [], []
    monkeypatch.setattr(obj, "_forward", lambda *args: passes.append(args) or forward(*args))
    monkeypatch.setattr(obj, "_backward", lambda *args: backwards.append(args) or backward(*args))
    config = OptimizerConfig(method, eta0=0.1, rho0=0.1, batch_size=8)
    _, columns = step(obj, theta, OptimizerState.fresh(0), config)
    assert columns["fad_applied"] == (points > 1)
    assert len(passes) == len(backwards) == points


# ------------------------------------------------------- stacks of points


def test_a_stack_of_points_gives_each_points_own_bits():
    data = tiny_dataset(n=40, seed=5)
    rng = np.random.default_rng(6)
    obj = MLPObjective((2, 5, 3), data)
    thetas = np.stack([obj.init_params(rng) for _ in range(3)])
    batch = np.stack([sample_batch(data, 8, rng) for _ in range(3)])
    losses, grads = eval_loss(obj, thetas, batch), eval_grad(obj, thetas, batch)
    assert losses.shape == (3,) and grads.shape == thetas.shape
    for theta, rows, loss, grad in zip(thetas, batch, losses, grads):
        alone = MLPObjective((2, 5, 3), data)
        assert eval_loss(alone, theta, rows) == loss
        assert eval_grad(alone, theta, rows).tobytes() == grad.tobytes()


def test_a_stacked_batch_and_a_flat_one_of_the_same_bytes_share_nothing():
    data = tiny_dataset(n=40, seed=5)
    rng = np.random.default_rng(7)
    obj = MLPObjective((2, 5, 3), data)
    theta = obj.init_params(rng)
    rows = sample_batch(data, 32, rng)
    # a [1, 32] batch at a [1, dim] stack has the bytes of the 32-row batch at
    # theta, and a [2, 16] batch those of the 32 rows in one
    want = eval_loss(obj, theta, rows), eval_grad(obj, theta, rows).tobytes()
    stacked = eval_loss(obj, theta[None], rows[None]), eval_grad(obj, theta[None], rows[None])
    assert stacked[0].shape == (1,) and stacked[1].shape == (1, obj.dim)
    assert (stacked[0][0], stacked[1][0].tobytes()) == want
    assert obj._rows(rows[None]) is not obj._rows(rows)
    assert obj._rows(rows.reshape(2, 16))[1].shape[:-2] == (2,)
    assert obj._rows(rows)[1].shape[:-2] == ()
    # the kept pass at theta and the 32 rows is not the one at the stack
    assert eval_grad(obj, theta, rows).tobytes() == want[1]
    assert eval_loss(obj, theta, rows) == want[0]


@pytest.mark.parametrize("k", range(1, 13))
def test_row_norms_are_each_rows_norm_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for scale in 10.0 ** np.arange(-8, 4):
        x = rng.standard_normal((k, 99)) * scale
        got = row_norms(x)
        assert got.shape == (k, 1)
        assert got.ravel().tolist() == [norm(row) for row in x], (
            "np.vecdot no longer sums a row as ndarray.dot does on this numpy and BLAS, "
            "so lockstep runs would lose their bit identity with runs alone"
        )


# ------------------------------------------------------------------- norm


@st.composite
def norm_vectors(draw):
    """0 to 300 entries scaled by 1e-160 to 1e160, so that squares underflow
    or overflow to inf, with zeros, -0.0 and subnormals among the entries; as
    a contiguous, strided or reversed view."""
    n = draw(st.integers(min_value=0, max_value=300))
    step = draw(st.sampled_from([1, 2, -1, -3]))
    entries = st.floats(min_value=-10.0, max_value=10.0) | st.sampled_from(
        [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]
    )
    base = draw(arrays(np.float64, n * abs(step), elements=entries))
    scale = 10.0 ** draw(st.integers(min_value=-160, max_value=160))
    if draw(st.booleans()):
        base *= scale
    return base[::step]


@settings(max_examples=400, deadline=None)
@given(x=norm_vectors())
def test_norm_is_np_linalg_norm_bit_for_bit(x):
    with np.errstate(over="ignore"):
        got, expected = norm(x), np.linalg.norm(x)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == expected.tobytes()


# -------------------------------------------------------------- batch draw


def test_sample_batch_bounds():
    ds = tiny_dataset(n=10)
    rng = np.random.default_rng(0)
    for bad in (0, -1, 11):
        with pytest.raises(BatchSizeError):
            sample_batch(ds, bad, rng)


def test_sample_batch_draws_without_replacement():
    ds = tiny_dataset(n=10)
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = sample_batch(ds, 6, rng)
        assert b.shape == (6,) and b.dtype == np.int64
        assert len(set(b.tolist())) == 6
        assert b.min() >= 0 and b.max() < 10


def test_sample_batch_is_uniform():
    # index 0 should appear ~ b/n of the time: 10000 draws, mean 320, sd 17.6
    ds = tiny_dataset(n=1000)
    rng = np.random.default_rng(7)
    hits = sum(0 in sample_batch(ds, 32, rng) for _ in range(10000))
    assert 232 < hits < 408  # five sigma window


# ----------------------------------------------------------------- dataset


def test_dataset_roundtrip(tmp_path):
    ds = tiny_dataset(n=8)
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domain_ids, ds.domain_ids)


def test_dataset_validation():
    with pytest.raises(DimensionError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), np.zeros(3, dtype=np.int64))
    with pytest.raises(DimensionError):
        Dataset(np.zeros(3), np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
    with pytest.raises(NumericalError):
        Dataset(
            np.array([[np.inf, 0.0]]),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )


def test_dataset_subset():
    ds = tiny_dataset(n=8)
    sub = ds.subset(np.array([1, 3, 5]))
    assert sub.n == 3
    np.testing.assert_array_equal(sub.inputs, ds.inputs[[1, 3, 5]])


def test_random_spd_matrix_contract():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mat = random_spd_matrix(6, rng, eig_low=0.5, eig_high=10.0, min_top_gap=1.15)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(mat))[::-1]
        assert eigs[-1] > 0.45
        assert eigs[0] >= 1.15 * eigs[1] * (1 - 1e-12)
    with pytest.raises(ConfigError):
        random_spd_matrix(0, rng)
    with pytest.raises(ConfigError):
        random_spd_matrix(3, rng, eig_low=0.0)
