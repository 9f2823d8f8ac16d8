"""Loss surfaces and their exact oracles.

Every objective exposes a scalar loss and an analytic gradient over a flat
float64 parameter vector, optionally restricted to a minibatch of a dataset,
and exact Hessian-vector products of its full-data loss. Analytic test
functions (quadratic, rosenbrock, double_well) ignore batches; the mlp
objective evaluates an empirical mean over the selected rows.

All evaluations are pure: repeated calls with the same arguments return
bitwise-identical results. An ``MLPObjective`` keeps the rows it gathered for
the last batch it saw, so that the several calls one optimizer step makes on
a batch gather them once, and it keeps what a loss call's forward pass
computed, so that a gradient at the same point and rows right after it runs
only the backward pass. Results do not depend on that state, but one
objective is not for concurrent use.
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

# directions an MLP's R-op carries through the network at once: a few keep the
# per-block numpy overhead down, more only move more memory per pass
HVP_BLOCK = 4


def norm(x: Vector) -> float:
    """Euclidean norm of a 1-D float64 vector, bit for bit what ``np.linalg.norm``
    returns, without its argument handling."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _as_param_vector(theta: object, dim: int) -> Vector:
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"parameter vector must be 1-D, got shape {arr.shape}")
    if arr.size != dim:
        raise DimensionError(f"parameter vector has size {arr.size}, objective needs {dim}")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Supervised rows with integer class labels and a domain tag per row."""

    inputs: Matrix
    labels: IntVector
    domain_ids: IntVector

    def __post_init__(self) -> None:
        # C order, like the row copies a batch takes, so full-data and batch
        # products run the same kernels
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


def load_dataset(path: str | Path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return Dataset.from_dict(json.load(fh))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset.to_dict(), fh)
        fh.write("\n")


@dataclass(frozen=True)
class Batch:
    """Row indices into a Dataset, held as a read-only copy of the given ones.

    An objective may keep what it derived from a batch's indices for as long
    as it sees the same ``indices`` array, which is why they cannot change.
    """

    indices: IntVector

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise DimensionError("batch indices must be 1-D")
        idx.flags.writeable = False
        # held as a view, whose flag cannot be set back while its base is read-only
        object.__setattr__(self, "indices", idx[:])

    @property
    def size(self) -> int:
        return int(self.indices.size)


def sample_batch(dataset: Dataset, batch_size: int, rng: np.random.Generator) -> Batch:
    """Draw ``batch_size`` distinct rows uniformly (without replacement)."""
    n = dataset.n
    if batch_size < 1 or batch_size > n:
        raise BatchSizeError(f"batch size {batch_size} outside [1, {n}]")
    return Batch(rng.choice(n, size=batch_size, replace=False))


class Objective:
    """Scalar loss with an analytic gradient and exact Hessian-vector products
    over a flat parameter vector."""

    kind: str = "abstract"
    dim: int = 0
    dataset: Dataset | None = None

    def _rows(self, batch: Batch | None) -> tuple | None:
        """The record of the rows a batch selects, which ``_loss`` and ``_grad``
        read; None for surfaces without a dataset."""
        return None

    def _loss(self, theta: Vector, rows: tuple | None) -> float:
        raise NotImplementedError

    def _grad(self, theta: Vector, rows: tuple | None) -> Vector:
        raise NotImplementedError

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        """The full-data Hessian at ``theta`` times every row of ``v``."""
        raise NotImplementedError


def _checked_loss(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"loss is non-finite ({value})")
    return value


def _checked_grad(obj: Objective, grad: Vector) -> Vector:
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (obj.dim,):
        raise DimensionError(f"gradient shape {grad.shape} != ({obj.dim},)")
    if not np.isfinite(grad).all():
        raise NumericalError("gradient contains non-finite values")
    return grad


def eval_loss(obj: Objective, theta: Vector, batch: Batch | None = None) -> float:
    """Loss at ``theta`` over ``batch`` (or the full dataset / analytic surface)."""
    theta = _as_param_vector(theta, obj.dim)
    return _checked_loss(obj._loss(theta, obj._rows(batch)))


def eval_grad(obj: Objective, theta: Vector, batch: Batch | None = None) -> Vector:
    """Analytic gradient at ``theta`` over the same rows ``eval_loss`` would use."""
    theta = _as_param_vector(theta, obj.dim)
    return _checked_grad(obj, obj._grad(theta, obj._rows(batch)))


def hvp_fd(
    obj: Objective,
    theta: Vector,
    v: Vector,
    g0: Vector | None = None,
) -> Vector:
    """Full-data Hessian-vector product H(theta) @ v by forward-differencing the gradient.

    The fixed step ``FD_STEP`` is taken along v normalized to unit length, then
    the difference quotient is rescaled by ||v||, so accuracy does not depend on
    the magnitude of v; the result is biased by O(``FD_STEP``) and is not
    linear in v. ``g0`` is the full-data gradient at ``theta`` when the caller
    already has it; otherwise it is computed here.

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
    if g0 is None:
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
    if not np.isfinite(out).all():
        raise NumericalError("Hessian-vector product contains non-finite values")
    return out.reshape(arr.shape)


class QuadraticObjective(Objective):
    """0.5 * theta^T H theta for a symmetric H (dense matrix or diagonal)."""

    kind = "quadratic"

    def __init__(self, curvature: Matrix | Vector):
        arr = np.asarray(curvature, dtype=np.float64)
        if arr.ndim == 1:
            if arr.size == 0:
                raise ConfigError("quadratic curvature is empty")
            self.diag: Vector | None = arr
            self.matrix: Matrix | None = None
            self.dim = int(arr.size)
        elif arr.ndim == 2:
            if arr.shape[0] != arr.shape[1]:
                raise DimensionError(f"curvature matrix must be square, got {arr.shape}")
            scale = max(1.0, float(np.abs(arr).max()))
            if float(np.abs(arr - arr.T).max()) > 1e-12 * scale:
                raise ConfigError("curvature matrix must be symmetric")
            self.diag = None
            self.matrix = arr
            self.dim = int(arr.shape[0])
        else:
            raise DimensionError("curvature must be a vector or a square matrix")

    def hessian(self) -> Matrix:
        if self.diag is not None:
            return np.diag(self.diag)
        assert self.matrix is not None
        return self.matrix

    def _loss(self, theta: Vector, rows: tuple | None) -> float:
        if self.diag is not None:
            return 0.5 * float(self.diag @ (theta * theta))
        return 0.5 * float(theta @ (self.matrix @ theta))

    def _grad(self, theta: Vector, rows: tuple | None) -> Vector:
        if self.diag is not None:
            return self.diag * theta
        return self.matrix @ theta

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        # the matrix is symmetric, so each row's v @ H is its H @ v
        return v * self.diag if self.diag is not None else v @ self.matrix


class RosenbrockObjective(Objective):
    """Extended Rosenbrock valley in d >= 2 dimensions (minimum at all-ones)."""

    kind = "rosenbrock"

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError(f"rosenbrock needs dim >= 2, got {dim}")
        self.dim = int(dim)

    def _loss(self, theta: Vector, rows: tuple | None) -> float:
        x, y = theta[:-1], theta[1:]
        return float(np.sum(100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2))

    def _grad(self, theta: Vector, rows: tuple | None) -> Vector:
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

    def _loss(self, theta: Vector, rows: tuple | None) -> float:
        v0, v1 = self._basin_values(float(theta[0]))
        return v0 if v0 <= v1 else v1

    def _basin(self, theta: Vector) -> int:
        """The basin active at ``theta``: the first at a crossing."""
        v0, v1 = self._basin_values(float(theta[0]))
        return 0 if v0 <= v1 else 1

    def _grad(self, theta: Vector, rows: tuple | None) -> Vector:
        x, i = float(theta[0]), self._basin(theta)
        return np.array([self.curvatures[i] * (x - self.centers[i])], dtype=np.float64)

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        return self.curvatures[self._basin(theta)] * v


class MLPObjective(Objective):
    """Fully-connected tanh network with mean softmax cross-entropy loss.

    ``layer_sizes`` lists (input_dim, hidden..., num_classes); parameters are a
    flat vector packing each layer's weight matrix then bias. The gradient is
    exact reverse-mode differentiation of the batch-mean loss.
    """

    kind = "mlp"

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
        self.dim = sum((fi + 1) * fo for fi, fo in zip(sizes[:-1], sizes[1:]))
        # a call's rows record: its rows, their inputs, and the flat index of each
        # row's label logit in the [rows, classes] logits; this one is full data
        rows = np.arange(dataset.n, dtype=np.int64)
        pick = rows * sizes[-1] + dataset.labels
        rows.flags.writeable = pick.flags.writeable = False
        self._all = (rows, dataset.inputs, pick)
        # the last batch's record, kept while the same read-only
        # ``Batch.indices`` array comes back; it starts as the full data's,
        # whose rows no batch holds
        self._batch = self._all
        # the last loss call's point as bytes, its rows record, and what its
        # forward pass computed, until the next gradient call takes it
        self._loss_pass: tuple | None = None

    def init_params(self, rng: np.random.Generator) -> Vector:
        """Symmetric uniform weight init with limit sqrt(6/(fan_in+fan_out)); zero biases."""
        chunks = []
        for fi, fo in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = np.sqrt(6.0 / (fi + fo))
            chunks.append(rng.uniform(-limit, limit, size=fi * fo))
            chunks.append(np.zeros(fo))
        return np.concatenate(chunks)

    def _unpack(self, theta: Vector) -> list[tuple[Matrix, Vector]]:
        layers = []
        off = 0
        for fi, fo in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w = theta[off : off + fi * fo].reshape(fi, fo)
            off += fi * fo
            b = theta[off : off + fo]
            off += fo
            layers.append((w, b))
        return layers

    @staticmethod
    def _layer_outputs(
        layers: list[tuple[Matrix, Vector]], inputs: Matrix
    ) -> tuple[list[Matrix], Matrix]:
        """The input of each layer, then the logits."""
        acts = [inputs]
        for w, b in layers[:-1]:
            z = acts[-1] @ w
            z += b
            acts.append(np.tanh(z, out=z))
        w, b = layers[-1]
        logits = acts[-1] @ w
        logits += b
        return acts, logits

    def logits(self, theta: Vector, inputs: Matrix) -> Matrix:
        theta = _as_param_vector(theta, self.dim)
        inputs = np.asarray(inputs, dtype=np.float64)
        return self._layer_outputs(self._unpack(theta), inputs)[1]

    def _rows(self, batch: Batch | None) -> tuple[IntVector, Matrix, IntVector]:
        if batch is None:
            return self._all
        idx = batch.indices
        if idx is not self._batch[0]:
            if idx.size == 0:
                raise BatchSizeError("batch is empty")
            data = self.dataset
            if idx.min() < 0 or idx.max() >= data.n:
                raise DimensionError("batch indices outside dataset")
            # a batch may repeat rows, so its pick index counts batch positions
            pick = np.arange(idx.size) * self.layer_sizes[-1] + data.labels[idx]
            self._batch = (idx, data.inputs[idx], pick)
        return self._batch

    def _forward(
        self, theta: Vector, rows: tuple
    ) -> tuple[list[tuple[Matrix, Vector]], list[Matrix], Matrix]:
        """Layers, activations, and the logits shifted by their row maximum."""
        layers = self._unpack(theta)
        acts, logits = self._layer_outputs(layers, rows[1])
        # the row maximum as a chain over the few columns: the same values as
        # ``logits.max(axis=1)``, without the cost of a reduction along a short axis
        top = logits[:, 0]
        for j in range(1, logits.shape[1]):
            top = np.maximum(top, logits[:, j])
        return layers, acts, logits - top[:, None]

    @staticmethod
    def _mean_nll(shifted: Matrix, expsum: Vector, pick: IntVector) -> float:
        # np.mean's own arithmetic: the pairwise sum, then one division
        return float((np.log(expsum) - shifted.take(pick)).sum() / pick.size)

    def _backward(
        self,
        layers: list[tuple[Matrix, Vector]],
        acts: list[Matrix],
        pick: IntVector,
        expz: Matrix,
        expsum: Vector,
    ) -> Vector:
        delta = expz / expsum[:, None]
        # delta is a fresh C-order array, so the reshape is a view of it
        delta.reshape(-1)[pick] -= 1.0
        delta /= expz.shape[0]
        # each layer's weight then bias gradient is written in place, last layer first
        grad = np.empty(self.dim)
        end = grad.size
        for li in range(len(layers) - 1, -1, -1):
            w, b = layers[li]
            delta.sum(axis=0, out=grad[end - b.size : end])
            end -= b.size + w.size
            np.matmul(acts[li].T, delta, out=grad[end : end + w.size].reshape(w.shape))
            if li > 0:
                dtanh = acts[li] * acts[li]
                np.subtract(1.0, dtanh, out=dtanh)
                delta = delta @ w.T
                delta *= dtanh
        return grad

    def _loss(self, theta: Vector, rows: tuple) -> float:
        _, acts, shifted = self._forward(theta, rows)
        expz = np.exp(shifted)
        expsum = expz.sum(axis=1)
        # the bytes, not the array, since a caller may write theta in place
        self._loss_pass = (theta.tobytes(), rows, acts, expz, expsum)
        return self._mean_nll(shifted, expsum, rows[2])

    def _grad(self, theta: Vector, rows: tuple) -> Vector:
        kept, self._loss_pass = self._loss_pass, None
        if kept is not None and kept[1] is rows and kept[0] == theta.tobytes():
            # the same inputs, so the forward pass would compute the same bits
            return self._backward(self._unpack(theta), kept[2], rows[2], *kept[3:])
        layers, acts, shifted = self._forward(theta, rows)
        expz = np.exp(shifted)
        return self._backward(layers, acts, rows[2], expz, expz.sum(axis=1))

    def _hvp(self, theta: Vector, v: Matrix) -> Matrix:
        """Pearlmutter's R-op: the directional derivative of the gradient's
        forward and backward pass along each row of ``v``.

        What the R-op reads of the point is computed once: the activations, the
        softmax's Jacobian, and per layer its backward ``delta``, ``1 - a^2`` and
        ``-2a * (delta @ w.T)``. The directions then go through in blocks of
        ``HVP_BLOCK`` as ``[n, block, width]`` arrays: their products with the
        layers and the point's arrays are 2-D matrix products, and the softmax
        step is one product with each row's Jacobian.
        """
        rows = self._all
        layers, acts, shifted = self._forward(theta, rows)
        n, depth = shifted.shape[0], len(layers)
        expz = np.exp(shifted)
        prob = expz / expz.sum(axis=1)[:, None]
        delta = prob.copy()
        delta.reshape(-1)[rows[2]] -= 1.0
        delta /= n
        # each row's softmax Jacobian diag(p) - p p^T, over the row count of the mean
        jac = -prob[:, :, None] * prob[:, None, :]
        jac.reshape(n, -1)[:, :: prob.shape[1] + 1] += prob
        jac /= n
        # each layer's input with a column of ones, so that one product applies
        # a direction's weight rows and the bias row after them
        inputs = [np.hstack([a, np.ones((n, 1))]) for a in acts]
        deltas: list = [None] * (depth - 1) + [delta]
        slopes: list = [None] * depth
        curls: list = [None] * depth
        for li in range(depth - 1, 0, -1):
            back = deltas[li] @ layers[li][0].T
            slopes[li] = 1.0 - acts[li] * acts[li]
            curls[li] = -2.0 * acts[li] * back
            deltas[li - 1] = back * slopes[li]
        out = np.empty_like(v)
        for first in range(0, v.shape[0], HVP_BLOCK):
            block, result = v[first : first + HVP_BLOCK], out[first : first + HVP_BLOCK]
            size = block.shape[0]
            # forward: r_acts[li] is the R-op of layer li's input, zero for the data
            r_acts: list = [None]
            spans, end = [], 0
            for li, (w, _) in enumerate(layers):
                fan_in, fan_out = w.shape
                start, end = end, end + (fan_in + 1) * fan_out
                d_wb = block[:, start:end].reshape(size, fan_in + 1, fan_out)
                spans.append((start, end, d_wb))
                r_z = inputs[li] @ d_wb.transpose(1, 0, 2).reshape(fan_in + 1, -1)
                r_z = r_z.reshape(n, size, fan_out)
                if r_acts[li] is not None:
                    r_z += (r_acts[li].reshape(-1, fan_in) @ w).reshape(r_z.shape)
                if li + 1 < depth:
                    r_z *= slopes[li + 1][:, None, :]
                    r_acts.append(r_z)
            r_delta = np.matmul(r_z, jac)
            # backward, last layer first, as in ``_backward``
            for li in range(depth - 1, -1, -1):
                w = layers[li][0]
                fan_in, fan_out = w.shape
                start, end, d_wb = spans[li]
                r_wb = inputs[li].T @ r_delta.reshape(n, -1)
                r_wb = r_wb.reshape(fan_in + 1, size, fan_out).transpose(1, 0, 2)
                if r_acts[li] is not None:
                    r_w = r_acts[li].reshape(n, -1).T @ deltas[li]
                    r_wb[:, :fan_in] += r_w.reshape(size, fan_in, fan_out)
                result[:, start:end] = r_wb.reshape(size, -1)
                if li > 0:
                    d_w = d_wb[:, :fan_in].transpose(2, 0, 1).reshape(fan_out, -1)
                    r_back = (r_delta.reshape(-1, fan_out) @ w.T).reshape(n, size, fan_in)
                    r_back += (deltas[li] @ d_w).reshape(r_back.shape)
                    r_back *= slopes[li][:, None, :]
                    r_acts[li] *= curls[li][:, None, :]
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

