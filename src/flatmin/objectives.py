"""Loss surfaces and their exact oracles.

Every objective exposes a scalar loss and an analytic gradient over a flat
float64 parameter vector, optionally restricted to a minibatch of a dataset,
and exact Hessian-vector products of its full-data loss. Analytic test
functions (quadratic, rosenbrock, double_well) ignore batches; the mlp
objective evaluates an empirical mean over the selected rows.

A batch is a 1-D array of row indices, and ``None`` means the full data. An
``MLPObjective``'s loss and gradient also take a ``[K, dim]`` stack of K
points with a ``[K, rows]`` batch, one row of indices per point, and give each
point's result bit for bit as its own call would. Every result depends only on
the shapes and bytes of the point and of the rows' indices, never on which
array holds them or on the calls made before: an ``MLPObjective`` reuses what it
computed for earlier calls, but one objective is not for concurrent use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BatchSizeError,
    ConfigError,
    DegenerateDirectionError,
    DimensionError,
    NumericalError,
)

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]
IntVector = NDArray[np.int64]

# finite-difference step of ``hvp_fd``, applied along a normalized direction
FD_STEP = 1e-4

# directions an MLP's R-op carries through the network at once. 64 probes at a
# trained README-task point (2-16-3, 450 rows, 2-core host) took a median 3.20,
# 2.64, 2.75 and 4.79 ms in blocks of 2, 4, 8 and 16: smaller blocks make more
# numpy calls, larger ones move larger [block, width, rows] arrays, and peak RSS
# grew by 0.1, 0.6, 1.5 and 3.1 MB
HVP_BLOCK = 4

# an MLP's pass indexes its arrays from the end, so that one code path serves a
# point, whose arrays are [units, rows], and a stack of K points, whose arrays
# are [K, units, rows]; each index is built once, as building one per use
# costs more than the indexing. _BODY is every row of a layer input but its row
# of ones, or every row of a layer's block but its bias row; _ONES is that row
_BODY = np.s_[..., :-1, :]
_ONES = np.s_[..., -1, :]
_ROW = np.s_[..., 0, :]  # the one row of an array that a reduction kept


def norm(x: Vector) -> float:
    """Euclidean norm of a 1-D float64 vector, bit for bit what ``np.linalg.norm``
    returns, without its argument handling."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def row_norms(x: Matrix) -> Matrix:
    """The Euclidean norm of each row of a ``[K, d]`` array, as a ``[K, 1]``
    column; each is bit for bit what ``norm`` gives for that row."""
    return np.sqrt(np.vecdot(x, x, keepdims=True))


def all_finite(x: NDArray) -> bool:
    """Whether every entry of ``x`` is finite: ``np.isfinite(x).all()`` without
    the overhead of a ufunc reduction."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _as_param_vector(theta: object, dim: int, stacks: bool = False) -> Vector | Matrix:
    """``theta`` as one ``[dim]`` point, or, where ``stacks``, also as a
    ``[K, dim]`` stack of points."""
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1 and not (stacks and arr.ndim == 2):
        raise DimensionError(f"parameter vector must be 1-D, got shape {arr.shape}")
    if arr.shape[-1] != dim:
        raise DimensionError(f"parameter vector has size {arr.shape[-1]}, objective needs {dim}")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Supervised rows with integer class labels and a domain tag per row."""

    inputs: Matrix
    labels: IntVector
    domain_ids: IntVector

    def __post_init__(self) -> None:
        # row-major, one row per sample, in C order; an MLPObjective runs on
        # its own feature-major copy, so this order does not reach its kernels
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        domains = np.asarray(self.domain_ids, dtype=np.int64)
        if inputs.ndim != 2:
            raise DimensionError(f"inputs must be 2-D, got shape {inputs.shape}")
        if labels.ndim != 1 or domains.ndim != 1:
            raise DimensionError("labels and domain_ids must be 1-D")
        if not (inputs.shape[0] == labels.size == domains.size):
            raise DimensionError(
                f"row counts disagree: inputs {inputs.shape[0]}, labels {labels.size}, "
                f"domain_ids {domains.size}"
            )
        if not np.all(np.isfinite(inputs)):
            raise NumericalError("dataset inputs contain non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domain_ids", domains)

    @property
    def n(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.inputs.shape[1])

    def subset(self, indices: IntVector) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.domain_ids[idx])

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs.tolist(),
            "labels": self.labels.tolist(),
            "domain_ids": self.domain_ids.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Dataset":
        """The dataset a document holds. It is input from outside, so a non-finite
        number or a label or domain id that is not an integer is a config error."""
        missing = {"inputs", "labels", "domain_ids"} - set(doc)
        if missing:
            raise ConfigError(f"dataset document is missing keys: {sorted(missing)}")
        inputs, labels, domains = (
            np.asarray(doc[key], dtype=np.float64) for key in ("inputs", "labels", "domain_ids")
        )
        if not all(np.isfinite(a).all() for a in (inputs, labels, domains)):
            raise ConfigError("dataset document holds a non-finite number")
        for key, ids in (("labels", labels), ("domain_ids", domains)):
            # beyond 2**53 a float64 no longer holds every integer
            if not ((ids == np.trunc(ids)).all() and (np.abs(ids) <= 2**53).all()):
                raise ConfigError(f"dataset {key} must be integers")
        return cls(inputs, labels.astype(np.int64), domains.astype(np.int64))


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict, for ``json.load``'s ``object_pairs_hook``: a
    key that repeats is a config error, where ``json`` would keep its last value."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"JSON object repeats the key {key!r}")
        doc[key] = value
    return doc


def _finite_float(text: str) -> float:
    """A JSON number, or one of the constants ``NaN``, ``Infinity`` and
    ``-Infinity``, as a float; a non-finite one is a config error."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text}")
    return value


def load_json(path: str | Path, what: str) -> object:
    """The JSON document in the file at ``path``. A file that cannot be opened,
    is not valid JSON, repeats a key or holds a non-finite number (``NaN``,
    ``Infinity``, ``1e999``) is a config error naming ``what`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(
                fh,
                object_pairs_hook=unique_keys,
                parse_float=_finite_float,
                parse_constant=_finite_float,
            )
    except (OSError, json.JSONDecodeError, ConfigError) as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err


def load_dataset(path: str | Path) -> Dataset:
    return Dataset.from_dict(load_json(path, "dataset file"))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset.to_dict(), fh)
        fh.write("\n")


def sample_batch(dataset: Dataset, batch_size: int, rng: np.random.Generator) -> IntVector:
    """The 1-D int64 indices of ``batch_size`` distinct rows drawn uniformly
    (without replacement)."""
    n = len(dataset.labels)  # the row count, without a property call per draw
    if batch_size < 1 or batch_size > n:
        raise BatchSizeError(f"batch size {batch_size} outside [1, {n}]")
    return rng.choice(n, size=batch_size, replace=False)


class Objective:
    """Scalar loss with an analytic gradient and exact Hessian-vector products
    over a flat parameter vector."""

    kind: str = "abstract"
    dim: int = 0
    dataset: Dataset | None = None
    # whether the loss and gradient take a [K, dim] stack of points
    stacks: bool = False

    def _loss(self, theta: Vector, batch: IntVector | None) -> float:
        """The loss over the rows ``batch`` indexes, or over the full data for None;
        surfaces without a dataset ignore ``batch``."""
        raise NotImplementedError

    def _grad(self, theta: Vector, batch: IntVector | None) -> Vector:
        raise NotImplementedError

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        """The full-data Hessian at ``theta`` times every row of ``v``."""
        raise NotImplementedError


def _checked_loss(value: float | Vector) -> float | Vector:
    if isinstance(value, np.ndarray):
        if not all_finite(value):
            raise NumericalError(f"loss is non-finite ({value[~np.isfinite(value)][0]})")
        return value
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"loss is non-finite ({value})")
    return value


def _checked_grad(grad: Vector | Matrix, shape: tuple) -> Vector | Matrix:
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != shape:
        raise DimensionError(f"gradient shape {grad.shape} != {shape}")
    if not all_finite(grad):
        raise NumericalError("gradient contains non-finite values")
    return grad


def eval_loss(
    obj: Objective, theta: Vector | Matrix, batch: IntVector | None = None
) -> float | Vector:
    """Loss at ``theta`` over the rows ``batch`` indexes (or the full dataset /
    analytic surface). A ``[K, dim]`` stack of points with its ``[K, rows]``
    batch gives the ``[K]`` losses, one per point."""
    theta = _as_param_vector(theta, obj.dim, obj.stacks)
    return _checked_loss(obj._loss(theta, batch))


def eval_grad(
    obj: Objective, theta: Vector | Matrix, batch: IntVector | None = None
) -> Vector | Matrix:
    """Analytic gradient at ``theta`` over the same rows ``eval_loss`` would
    use, one row per point for a stack of points."""
    theta = _as_param_vector(theta, obj.dim, obj.stacks)
    return _checked_grad(obj._grad(theta, batch), theta.shape)


def hvp_fd(obj: Objective, theta: Vector, v: Vector) -> Vector:
    """Full-data Hessian-vector product H(theta) @ v by forward-differencing the gradient.

    The fixed step ``FD_STEP`` is taken along v normalized to unit length, then
    the difference quotient is rescaled by ||v||, so accuracy does not depend on
    the magnitude of v; the result is biased by O(``FD_STEP``) and is not
    linear in v. An MLP that kept the pass at ``theta`` returns the gradient
    there without computing it again.

    Only the Lanczos solve and ``r1``'s ascent still use it; the exact ``hvp``
    is to replace it there too, together with the benchmark's pins on it.
    """
    theta = _as_param_vector(theta, obj.dim)
    v = _as_param_vector(v, obj.dim)
    v_norm = norm(v)
    if v_norm == 0.0:
        raise DegenerateDirectionError("hvp direction has zero norm")
    unit = v / v_norm
    g1 = eval_grad(obj, theta + FD_STEP * unit)
    g0 = eval_grad(obj, theta)
    return (g1 - g0) * (v_norm / FD_STEP)


def hvp(obj: Objective, theta: Vector, v: Vector | Matrix) -> Vector | Matrix:
    """Exact full-data Hessian-vector product H(theta) @ v.

    ``v`` is one ``[dim]`` direction or a ``[P, dim]`` block of them, one per
    row, and the result has its shape. The product is linear in ``v`` and makes
    no loss or gradient call.
    """
    theta = _as_param_vector(theta, obj.dim)
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != obj.dim:
        raise DimensionError(
            f"hvp directions have shape {arr.shape}, need ({obj.dim},) or (P, {obj.dim})"
        )
    block = arr.reshape(-1, obj.dim)
    out = np.asarray(obj._hvp(theta, block), dtype=np.float64)
    if out.shape != block.shape:
        raise DimensionError(f"hvp shape {out.shape} != {block.shape}")
    if not all_finite(out):
        raise NumericalError("Hessian-vector product contains non-finite values")
    return out.reshape(arr.shape)


class QuadraticObjective(Objective):
    """0.5 * theta^T H theta for a symmetric H, given as a square matrix or as
    the vector of a diagonal one."""

    kind = "quadratic"

    def __init__(self, curvature: Matrix | Vector):
        arr = np.asarray(curvature, dtype=np.float64)
        if arr.ndim == 1:
            arr = np.diag(arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"curvature must be a vector or a square matrix, got {arr.shape}")
        if arr.size == 0:
            raise ConfigError("quadratic curvature is empty")
        # inf - inf is NaN, which the symmetry check below would let through
        if not all_finite(arr):
            raise ConfigError("quadratic curvature holds a non-finite number")
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.T).max()) > 1e-12 * scale:
            raise ConfigError("curvature matrix must be symmetric")
        self.matrix = arr
        self.dim = int(arr.shape[0])

    def hessian(self) -> Matrix:
        return self.matrix

    def _loss(self, theta: Vector, batch: IntVector | None) -> float:
        return 0.5 * float(theta @ (self.matrix @ theta))

    def _grad(self, theta: Vector, batch: IntVector | None) -> Vector:
        return self.matrix @ theta

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        # the matrix is symmetric, so each row's v @ H is its H @ v
        return v @ self.matrix


class RosenbrockObjective(Objective):
    """Extended Rosenbrock valley in d >= 2 dimensions (minimum at all-ones)."""

    kind = "rosenbrock"

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError(f"rosenbrock needs dim >= 2, got {dim}")
        self.dim = int(dim)

    def _loss(self, theta: Vector, batch: IntVector | None) -> float:
        x, y = theta[:-1], theta[1:]
        return float(np.sum(100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2))

    def _grad(self, theta: Vector, batch: IntVector | None) -> Vector:
        g = np.zeros_like(theta)
        x, y = theta[:-1], theta[1:]
        g[:-1] += -400.0 * x * (y - x * x) - 2.0 * (1.0 - x)
        g[1:] += 200.0 * (y - x * x)
        return g

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        # the Hessian is tridiagonal: each term 100(y - x^2)^2 + (1 - x)^2 adds
        # 1200x^2 - 400y + 2 at (x, x), 200 at (y, y) and -400x at (x, y) and (y, x)
        x, y = theta[:-1], theta[1:]
        diag = np.zeros_like(theta)
        diag[:-1] += 1200.0 * x * x - 400.0 * y + 2.0
        diag[1:] += 200.0
        off = -400.0 * x
        out = v * diag
        out[:, :-1] += off * v[:, 1:]
        out[:, 1:] += off * v[:, :-1]
        return out


class DoubleWellObjective(Objective):
    """1-D pointwise minimum of two parabolic basins with separate curvatures.

    The loss is min over basins of offset_i + 0.5 * curvature_i * (x - center_i)^2.
    The gradient follows the active basin; at a crossing the first basin wins.
    """

    kind = "double_well"

    def __init__(
        self,
        centers: tuple[float, float] = (-1.0, 1.0),
        curvatures: tuple[float, float] = (8.0, 0.5),
        offsets: tuple[float, float] = (0.0, 0.0),
    ):
        if len(centers) != 2 or len(curvatures) != 2 or len(offsets) != 2:
            raise ConfigError("double_well takes exactly two basins")
        if not all(c > 0.0 for c in curvatures):
            raise ConfigError("basin curvatures must be positive")
        self.centers = (float(centers[0]), float(centers[1]))
        self.curvatures = (float(curvatures[0]), float(curvatures[1]))
        self.offsets = (float(offsets[0]), float(offsets[1]))
        self.dim = 1

    def _basin_values(self, x: float) -> tuple[float, float]:
        c, k, b = self.centers, self.curvatures, self.offsets
        return (
            b[0] + 0.5 * k[0] * (x - c[0]) ** 2,
            b[1] + 0.5 * k[1] * (x - c[1]) ** 2,
        )

    def crossing_points(self) -> Vector:
        """Solutions of basin0(x) == basin1(x); useful for avoiding the kink."""
        c, k, b = self.centers, self.curvatures, self.offsets
        # 0.5*(k0 - k1)x^2 - (k0 c0 - k1 c1)x + (b0 - b1 + 0.5 k0 c0^2 - 0.5 k1 c1^2) = 0
        a2 = 0.5 * (k[0] - k[1])
        a1 = -(k[0] * c[0] - k[1] * c[1])
        a0 = b[0] - b[1] + 0.5 * k[0] * c[0] ** 2 - 0.5 * k[1] * c[1] ** 2
        if a2 == 0.0:
            if a1 == 0.0:
                return np.array([], dtype=np.float64)
            return np.array([-a0 / a1], dtype=np.float64)
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return np.array([], dtype=np.float64)
        root = np.sqrt(disc)
        return np.sort(np.array([(-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)]))

    def _loss(self, theta: Vector, batch: IntVector | None) -> float:
        v0, v1 = self._basin_values(float(theta[0]))
        return v0 if v0 <= v1 else v1

    def _basin(self, theta: Vector) -> int:
        """The basin active at ``theta``: the first at a crossing."""
        v0, v1 = self._basin_values(float(theta[0]))
        return 0 if v0 <= v1 else 1

    def _grad(self, theta: Vector, batch: IntVector | None) -> Vector:
        x, i = float(theta[0]), self._basin(theta)
        return np.array([self.curvatures[i] * (x - self.centers[i])], dtype=np.float64)

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        return self.curvatures[self._basin(theta)] * v


@dataclass(eq=False, slots=True)
class _Pass:
    """What one forward pass of an ``MLPObjective`` computed, under the bytes of
    its point and its rows record, and the gradient there once one is asked
    for. Every array has the point's leading ``[K]`` axis if it has one."""

    key: bytes
    rows: tuple
    layers: list[Matrix]
    acts: list[Matrix]
    shifted: Matrix
    expz: Matrix
    expsum: Matrix  # [..., 1, rows], so that it divides expz as it is
    grad: Vector | None = None


class MLPObjective(Objective):
    """Fully-connected tanh network with mean softmax cross-entropy loss.

    ``layer_sizes`` lists (input_dim, hidden..., num_classes); parameters are a
    flat vector packing each layer's weight matrix then bias. The gradient is
    exact reverse-mode differentiation of the batch-mean loss.

    Each layer is one ``[fan_in + 1, fan_out]`` block of that vector, its
    weights with the bias as the last row, and each layer's input ends in a
    row of ones, so that one product applies both and one product gives both
    gradients. The passes hold their activations feature-major, as
    ``[units, rows]`` C-order arrays, so that every elementwise op and
    reduction runs along the long rows axis; ``logits`` still returns
    ``[rows, classes]``.

    The loss and gradient take a ``[K, dim]`` stack of points with a ``[K,
    rows]`` batch as well: every array then gains a leading ``[K]`` axis, and
    the same code, indexing from the end, runs all K points at once. numpy's
    stacked products run each point's product as its own, so each point's
    result is bit for bit its own call's.

    Results depend only on the point's shape and bytes and the rows' indices.
    Within that rule the objective keeps the rows it gathered for the last
    batch, under the bytes of its int64 indices (with their shape for a
    ``[K, rows]`` batch), and its last two forward passes, the least recently
    used one giving way to a new one; a loss, gradient or exact product at a
    kept pass's point and rows takes that pass, and a gradient there returns a
    copy of the one first computed from it.
    """

    kind = "mlp"
    stacks = True

    def __init__(self, layer_sizes: tuple[int, ...], dataset: Dataset):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ConfigError("mlp needs at least input and output layer sizes")
        if min(sizes) < 1:
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        if dataset.feature_dim != sizes[0]:
            raise DimensionError(
                f"dataset feature dim {dataset.feature_dim} != input layer {sizes[0]}"
            )
        if dataset.labels.min() < 0 or dataset.labels.max() >= sizes[-1]:
            raise ConfigError("dataset labels outside [0, num_classes)")
        self.layer_sizes = sizes
        self.dataset = dataset
        shapes = [(fi + 1, fo) for fi, fo in zip(sizes[:-1], sizes[1:])]
        ends = np.cumsum([0] + [a * b for a, b in shapes]).tolist()
        self._blocks = list(zip(ends[:-1], ends[1:], shapes))  # each layer's (start, end, shape)
        # by theta's number of axes, 1 for a point and 2 for a stack of points:
        # each layer's index of its block and the shape of the block's view
        self._views = [
            None,
            [(slice(start, end), shape) for start, end, shape in self._blocks],
            [(np.s_[:, start:end], (-1, *shape)) for start, end, shape in self._blocks],
        ]
        self.dim = ends[-1]
        # a call's rows record: the bytes of its batch's int64 indices, with
        # their shape for a [K, rows] batch (None for full data), the rows'
        # inputs as a C-order [features + 1, rows] array whose last row is ones,
        # the flat index ``label * rows + position`` of each row's label logit
        # in the [classes, rows] logits, the one-hot [classes, rows] labels,
        # each with a leading [K] axis for a [K, rows] batch, and the shape of
        # the point or stack of points the record serves; this one is full
        # data, and a batch gathers its inputs, ones included, and its one-hot
        # labels from it
        pick = dataset.labels * dataset.n + np.arange(dataset.n)
        target = np.zeros((sizes[-1], dataset.n))
        target.reshape(-1)[pick] = 1.0
        pick.flags.writeable = target.flags.writeable = False
        self._all = (None, self._with_ones(dataset.inputs.T), pick, target, (self.dim,))
        # the last batch's record, kept while indices of the same key come
        # back; it starts as the full data's, whose key no batch's equals
        self._batch = self._all
        # the last two passes, the least recently used first
        self._passes: list[_Pass] = []
        # the exact product's block arrays, made by its first call (see ``_hvp``)
        self._work: list[Matrix] | None = None

    def init_params(self, rng: np.random.Generator) -> Vector:
        """Symmetric uniform weight init with limit sqrt(6/(fan_in+fan_out)); zero biases."""
        chunks = []
        for fi, fo in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = np.sqrt(6.0 / (fi + fo))
            chunks.append(rng.uniform(-limit, limit, size=fi * fo))
            chunks.append(np.zeros(fo))
        return np.concatenate(chunks)

    def _unpack(self, theta: Vector | Matrix) -> list[Matrix]:
        """Each layer's ``[fan_in + 1, fan_out]`` block of ``theta``, a view."""
        return [theta[view].reshape(shape) for view, shape in self._views[theta.ndim]]

    @staticmethod
    def _with_ones(inputs: Matrix) -> Matrix:
        """A C-order copy of ``[features, rows]`` inputs with a row of ones below."""
        out = np.ones((inputs.shape[0] + 1, inputs.shape[1]))
        out[:-1] = inputs
        return out

    @staticmethod
    def _layer_outputs(layers: list[Matrix], inputs: Matrix) -> tuple[list[Matrix], Matrix]:
        """The input of each layer, each with its row of ones, then the logits,
        all ``[units, rows]``."""
        acts = [inputs]
        for wb in layers[:-1]:
            a = np.empty(inputs.shape[:-2] + (wb.shape[-1] + 1, inputs.shape[-1]))
            z = np.matmul(wb.mT, acts[-1], out=a[_BODY])
            np.tanh(z, out=z)
            a[_ONES] = 1.0
            acts.append(a)
        return acts, layers[-1].mT @ acts[-1]

    def logits(self, theta: Vector, inputs: Matrix) -> Matrix:
        """The ``[rows, classes]`` logits of ``[rows, features]`` inputs."""
        theta = _as_param_vector(theta, self.dim)
        inputs = self._with_ones(np.asarray(inputs, dtype=np.float64).T)
        return self._layer_outputs(self._unpack(theta), inputs)[1].T

    def _rows(self, batch: IntVector | None) -> tuple:
        """The rows record of ``batch``'s indices, or of the full data for None."""
        if batch is None:
            return self._all
        idx = np.asarray(batch, dtype=np.int64)
        key = idx.tobytes()
        if idx.ndim != 1:
            if idx.ndim != 2:
                raise DimensionError(
                    f"batch indices must be 1-D, or [K, rows] for K points, got shape {idx.shape}"
                )
            # a [2, 32] batch has the bytes of a 64-row one, so its key holds the shape
            key = (idx.shape, key)
        if key != self._batch[0]:
            if idx.size == 0:
                raise BatchSizeError("batch is empty")
            data = self.dataset
            # a negative index reads as one above any row count
            if np.maximum.reduce(idx.view(np.uint64), None) >= len(data.labels):
                raise DimensionError("batch indices outside dataset")
            # a batch may repeat rows, so its pick index counts batch positions
            size = idx.shape[-1]
            pick = data.labels[idx] * size + np.arange(size)
            _, inputs, _, target, points = self._all
            inputs, target = inputs.take(idx, axis=1), target.take(idx, axis=1)
            if idx.ndim == 2:
                points = (len(idx), self.dim)
                # point k's [classes, rows] logits start k * classes * rows into the
                # stack's, and its rows are a C-order [features + 1, rows] block
                pick += np.arange(0, pick.size * target.shape[0], size * target.shape[0])[:, None]
                inputs = np.ascontiguousarray(inputs.swapaxes(0, 1))
                target = np.ascontiguousarray(target.swapaxes(0, 1))
            self._batch = (key, inputs, pick, target, points)
        return self._batch

    def _forward(self, theta: Vector, rows: tuple) -> tuple[list[Matrix], list[Matrix], Matrix]:
        """Layers, activations, and the logits shifted by each row's maximum."""
        layers = self._unpack(theta)
        acts, logits = self._layer_outputs(layers, rows[1])
        logits -= np.maximum.reduce(logits, -2, keepdims=True)
        return layers, acts, logits

    def _pass(self, theta: Vector | Matrix, rows: tuple) -> _Pass:
        """The kept pass at ``theta``'s bytes and ``rows``, else a new one."""
        if theta.shape != rows[4]:
            raise DimensionError(
                f"points of shape {theta.shape} need a batch of one row of indices "
                f"per point, got indices for points of shape {rows[4]}"
            )
        # a [1, dim] stack has a point's bytes, but never a point's rows record
        key = theta.tobytes()
        for kept in self._passes:
            if kept.rows is rows and kept.key == key:
                self._passes.remove(kept)
                break
        else:
            # the layers view a copy, not theta, which a caller may write in place
            layers, acts, shifted = self._forward(theta.copy(), rows)
            expz = np.exp(shifted)
            kept = _Pass(
                key, rows, layers, acts, shifted, expz, np.add.reduce(expz, -2, keepdims=True)
            )
            del self._passes[:-1]  # the most recently used one stays beside it
        self._passes.append(kept)
        return kept

    @staticmethod
    def _mean_nll(shifted: Matrix, expsum: Vector, pick: IntVector) -> float | Vector:
        # np.mean's own arithmetic: the pairwise sum, then one division
        return np.add.reduce(np.log(expsum[_ROW]) - shifted.take(pick), -1) / pick.shape[-1]

    @staticmethod
    def _deltas(kept: _Pass) -> tuple[Matrix, list[Matrix]]:
        """The softmax probabilities of ``kept`` and each layer's backward
        ``delta``: the mean loss's gradient with respect to that layer's output,
        ``[fan_out, rows]``, first layer first."""
        layers, acts, target = kept.layers, kept.acts, kept.rows[3]
        prob = kept.expz / kept.expsum
        # x - 0.0 is x, so this is prob with 1.0 taken from each label entry
        delta = prob - target
        delta /= target.shape[-1]
        deltas = [delta]
        for li in range(len(layers) - 1, 0, -1):
            a = acts[li][_BODY]
            dtanh = a * a
            np.subtract(1.0, dtanh, out=dtanh)
            delta = layers[li][_BODY] @ delta
            delta *= dtanh
            deltas.append(delta)
        return prob, deltas[::-1]

    def _backward(self, kept: _Pass) -> Vector | Matrix:
        # each layer's weight-and-bias gradient is one product written in place
        grad = np.empty(kept.rows[4])
        views = self._views[grad.ndim]
        for (view, block), a, delta in zip(views, kept.acts, self._deltas(kept)[1]):
            np.matmul(a, delta.mT, out=grad[view].reshape(block))
        return grad

    def _loss(self, theta: Vector | Matrix, batch: IntVector | None) -> float | Vector:
        kept = self._pass(theta, self._rows(batch))
        return self._mean_nll(kept.shifted, kept.expsum, kept.rows[2])

    def _grad(self, theta: Vector | Matrix, batch: IntVector | None) -> Vector | Matrix:
        kept = self._pass(theta, self._rows(batch))
        if kept.grad is None:
            kept.grad = self._backward(kept)
        return kept.grad.copy()

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        """Pearlmutter's R-op: the directional derivative of the gradient's
        forward and backward pass along each row of ``v``.

        What the R-op reads of the point is computed once: the full-data pass,
        the softmax probabilities and each layer's backward ``delta`` from
        ``_deltas``, as the gradient reads them, and its own curvature terms
        ``1 - a^2`` and ``-2a * (w @ delta)`` per hidden layer. The directions
        then go through in blocks of ``HVP_BLOCK`` as ``[block, width, rows]``
        arrays. The softmax step is ``q - p * sum_c q`` with ``q = p * r_z / n``:
        each row's Jacobian ``(diag(p) - p p^T) / n`` applied without forming it.
        """
        kept = self._pass(theta, self._all)
        layers, acts = kept.layers, kept.acts
        prob, deltas = self._deltas(kept)
        n, depth = prob.shape[1], len(layers)
        prob_over_n = prob / n
        slopes: list = [None] * depth
        curls: list = [None] * depth
        for li in range(1, depth):
            a = acts[li][:-1]
            slopes[li] = 1.0 - a * a
            curls[li] = -2.0 * a * (layers[li][:-1] @ deltas[li])
        if self._work is None:
            # per hidden layer, [HVP_BLOCK, width, rows] for its input's R-op, its backward
            # R-op and a product; kept, as freed pages go back and would fault in again
            self._work = [np.empty((3, HVP_BLOCK, a.shape[0] - 1, n)) for a in acts[1:]]
        out = np.empty_like(v)
        for first in range(0, v.shape[0], HVP_BLOCK):
            block, result = v[first : first + HVP_BLOCK], out[first : first + HVP_BLOCK]
            size = block.shape[0]
            # forward: r_acts[li] is the R-op of layer li's input, zero for the
            # data; each layer's input carries its row of ones, so one product
            # applies a direction's weight rows and the bias row after them
            r_acts: list = [None]
            d_wbs = []
            for li, (wb, (start, end, shape)) in enumerate(zip(layers, self._blocks)):
                d_wb = block[:, start:end].reshape(size, *shape)
                d_wbs.append(d_wb)
                r_z = self._work[li][0, :size] if li + 1 < depth else np.empty((size, shape[1], n))
                d_wt = d_wb.transpose(0, 2, 1).reshape(-1, shape[0])
                np.matmul(d_wt, acts[li], out=r_z.reshape(-1, n))
                if r_acts[li] is not None:
                    r_z += wb[:-1].T @ r_acts[li]
                if li + 1 < depth:
                    r_z *= slopes[li + 1]
                    r_acts.append(r_z)
            q = r_z * prob_over_n
            r_delta = q - prob * np.add.reduce(q, axis=1, keepdims=True)
            # backward, last layer first, as in ``_deltas``
            for li in range(depth - 1, -1, -1):
                wb = layers[li]
                fan_in, fan_out = wb.shape[0] - 1, wb.shape[1]
                (start, end, _), d_wb = self._blocks[li], d_wbs[li]
                r_wb = acts[li] @ r_delta.reshape(-1, n).T
                r_wb = r_wb.reshape(fan_in + 1, size, fan_out).transpose(1, 0, 2)
                if r_acts[li] is not None:
                    r_w = r_acts[li].reshape(-1, n) @ deltas[li].T
                    r_wb[:, :fan_in] += r_w.reshape(size, fan_in, fan_out)
                result[:, start:end] = r_wb.reshape(size, -1)
                if li > 0:
                    _, r_back, d_back = self._work[li - 1][:, :size]
                    d_w = d_wb[:, :fan_in].reshape(-1, fan_out)
                    np.matmul(wb[:-1], r_delta, out=r_back)
                    np.matmul(d_w, deltas[li], out=d_back.reshape(-1, n))
                    r_back += d_back
                    r_back *= slopes[li]
                    r_acts[li] *= curls[li]
                    r_back += r_acts[li]
                    r_delta = r_back
        return out


def random_spd_matrix(
    dim: int,
    rng: np.random.Generator,
    eig_low: float = 0.5,
    eig_high: float = 10.0,
    min_top_gap: float = 1.0,
) -> Matrix:
    """Random SPD matrix with eigenvalues uniform in [eig_low, eig_high].

    ``min_top_gap`` >= 1 enforces lambda_1 >= min_top_gap * lambda_2 so that
    iterative flatness estimators have a usable spectral gap.
    """
    if dim < 1:
        raise ConfigError(f"dimension must be positive, got {dim}")
    if not (0.0 < eig_low <= eig_high):
        raise ConfigError("need 0 < eig_low <= eig_high")
    eigs = np.sort(rng.uniform(eig_low, eig_high, size=dim))[::-1]
    if dim > 1 and eigs[0] < min_top_gap * eigs[1]:
        eigs[0] = min_top_gap * eigs[1]
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = (q * eigs) @ q.T
    return (mat + mat.T) / 2.0

