"""The benchmark's three workloads, built from a workload seed.

Each workload is set up in its constructor (data, objective, inputs, the
reference values its checks use, and a warm-up), so constructing one is what
``setup_s`` times. ``run(i)`` is one op on input ``i``; it calls flatmin through
module attributes, so the tracer's wrappers see the call. ``verify(i, output)``
runs after the timed loop and returns (error or None, digest of the output).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from flatmin import cli, flatness, optimizers
from flatmin.flatness import FlatnessBudget
from flatmin.objectives import MLPObjective, eval_grad, eval_loss
from flatmin.optimizers import METHODS, OptimizerConfig
from flatmin.shiftbench import DomainSpec, generate_domains, pool_domains

LAYER_SIZES = (2, 16, 3)

# Fixed hyperparameters with which every method trains on the README task: the
# full-data loss falls from about 1.3 at init to about 0.02 within 100 steps.
TRAIN_CONFIGS = {
    "sgd": OptimizerConfig("sgd", eta0=0.5, batch_size=32),
    "momentum_sgd": OptimizerConfig("momentum_sgd", eta0=0.1, momentum=0.9, batch_size=32),
    "adam": OptimizerConfig("adam", eta0=0.01, batch_size=32),
    "adamw": OptimizerConfig("adamw", eta0=0.01, weight_decay=1e-3, batch_size=32),
    "sam": OptimizerConfig("sam", eta0=0.5, rho0=0.1, batch_size=32),
    "gam": OptimizerConfig("gam", eta0=0.5, rho0=0.2, beta=0.1, batch_size=32),
    "fad": OptimizerConfig("fad", eta0=0.5, rho0=0.2, alpha=0.5, beta=0.1, batch_size=32),
}


def derive(seed: int, *tags: int) -> int:
    """An independent 31-bit seed for one stream of the workload seed."""
    return int(np.random.default_rng([seed, *tags]).integers(2**31))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_objective(seed: int, tag: int) -> MLPObjective:
    """The README task: 3 rotated domains x 150 rows, a 2-16-3 tanh MLP on all 450."""
    md = generate_domains(DomainSpec(), derive(seed, tag))
    return MLPObjective(LAYER_SIZES, pool_domains(md, tuple(range(md.n_domains))))


class TrainSteps:
    """One op is one ``run_training`` call of fixed length.

    Every method runs from each of ``n_inits`` initial points. Checked: the
    final point is finite and its full-data loss is below the loss at theta0.
    """

    name = "train-steps"
    calibration = (0, 400)  # (full-data, batch-32) kernel grads: training steps on batches of 32

    def __init__(self, seed: int, work_dir: Path, iterations: int = 100, n_inits: int = 2):
        self.obj = readme_objective(seed, 1)
        self.iterations = iterations
        self.inputs = []
        for k in range(n_inits):
            theta0 = self.obj.init_params(np.random.default_rng(derive(seed, 2, k)))
            for method in METHODS:
                self.inputs.append((TRAIN_CONFIGS[method], theta0, derive(seed, 3, k)))
        self.refs = [eval_loss(self.obj, theta0) for _, theta0, _ in self.inputs]
        self.verify(0, self.run(0))

    def run(self, i: int) -> np.ndarray:
        config, theta0, train_seed = self.inputs[i]
        record = optimizers.run_training(self.obj, theta0, config, self.iterations, seed=train_seed)
        return record.theta_final

    def verify(self, i: int, theta: np.ndarray) -> tuple[str | None, str]:
        digest = sha256(theta.tobytes())
        if not np.all(np.isfinite(theta)):
            return "final theta is not finite", digest
        loss = eval_loss(self.obj, theta)
        if not loss < self.refs[i]:
            return f"final loss {loss} is not below the initial loss {self.refs[i]}", digest
        return None, digest


def dense_hessian(obj: MLPObjective, theta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Full-data Hessian from central differences of ``eval_grad``, symmetrized."""
    cols = []
    for j in range(obj.dim):
        e = np.zeros(obj.dim)
        e[j] = h
        cols.append((eval_grad(obj, theta + e) - eval_grad(obj, theta - e)) / (2.0 * h))
    hess = np.stack(cols, axis=1)
    return 0.5 * (hess + hess.T)


class FlatnessReports:
    """One op is one ``build_flatness_report`` at the default budget.

    Each of ``n_sets`` sets of points holds the minima that adam, sam and fad
    reach in set-up, plus an untrained init point, which ``flatmin flatness``
    evaluates when no theta is given. Checked against a dense Hessian built
    here: lambda_max within 1e-3 relative, the trace within 4 standard errors.
    """

    name = "flatness-reports"
    calibration = (96, 0)  # (full-data, batch-32) kernel grads: the full-data oracle
    rho = 0.1
    alpha = 0.5

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        train_iterations: int = 500,
        budget: FlatnessBudget | None = None,
        n_probes: int = 64,
        n_sets: int = 2,
    ):
        self.obj = readme_objective(seed, 4)
        self.budget = budget or FlatnessBudget()
        self.n_probes = n_probes
        self.inputs = []
        for s in range(n_sets):
            for k, method in enumerate(("adam", "sam", "fad")):
                theta0 = self.obj.init_params(np.random.default_rng(derive(seed, 5, s, k)))
                record = optimizers.run_training(
                    self.obj, theta0, TRAIN_CONFIGS[method], train_iterations, seed=derive(seed, 6, s, k)
                )
                self.inputs.append((record.theta_final, derive(seed, 7, s, k)))
            init_seed = derive(seed, 8, s)
            self.inputs.append((self.obj.init_params(np.random.default_rng([init_seed, 2])), init_seed))
        self.refs = []
        for theta, _ in self.inputs:
            eigs = np.linalg.eigvalsh(dense_hessian(self.obj, theta))
            self.refs.append((float(eigs[-1]), float(eigs.sum())))

    def run(self, i: int) -> dict:
        theta, report_seed = self.inputs[i]
        report = flatness.build_flatness_report(
            self.obj,
            theta,
            rho=self.rho,
            alpha=self.alpha,
            budget=self.budget,
            n_probes=self.n_probes,
            seed=report_seed,
        )
        return report.to_dict()

    def verify(self, i: int, report: dict) -> tuple[str | None, str]:
        digest = sha256(json.dumps(report, sort_keys=True).encode())
        numbers = [v for k, v in report.items() if isinstance(v, float)] + report["top_eigs"]
        if not np.all(np.isfinite(numbers)):
            return "report has a non-finite field", digest
        if min(report["r0"], report["r1"], report["trace_stderr"]) < 0.0:
            return "r0, r1 or trace_stderr is negative", digest
        eigs = report["top_eigs"]
        if any(a < b for a, b in zip(eigs, eigs[1:])):
            return f"top_eigs {eigs} increase", digest
        lam_ref, trace_ref = self.refs[i]
        if abs(report["lambda_max"] - lam_ref) > 1e-3 * abs(lam_ref):
            return f"lambda_max {report['lambda_max']} vs dense {lam_ref}", digest
        if abs(report["trace"] - trace_ref) > 4.0 * report["trace_stderr"]:
            return f"trace {report['trace']} +- {report['trace_stderr']} vs dense {trace_ref}", digest
        return None, digest


# A reduced README bench (adam/sam/fad, 3 domains) that keeps the README mix of
# about 80% training and 20% reports. One eigenvalue per report, because the
# second one converges slowly at some points and makes the op time swing. Batch
# size is pinned to the README task's 32: random batch sizes would make training
# cost depend on the workload seed.
BENCH_SPEC = {"n_domains": 3, "per_domain_n": 30, "num_classes": 3, "noise": 0.4}
BENCH_PROTOCOL = {
    "n_hparam_trials": 4,
    "seeds_per_trial": 1,
    "iterations": 60,
    "report_restarts": 2,
    "report_ascent_steps": 10,
    "report_probes": 8,
    "report_k_eigs": 1,
    "search": {"log2_batch": [5.0, 5.0]},
}
BENCH_OUTPUTS = ("bench.json", "bench_table.csv", "bench_hparams.json")


def _embeds(resolved: object, given: object) -> bool:
    """True when every value of the input config appears in the resolved one,
    which also holds the defaults the input left out."""
    if isinstance(given, dict):
        return isinstance(resolved, dict) and all(
            k in resolved and _embeds(resolved[k], v) for k, v in given.items()
        )
    return resolved == given


class BenchCli:
    """One op is one ``flatmin bench`` invocation through ``cli.main``.

    Checked: exit code 0, all three files parse with the input config embedded,
    every cell's mean_accuracy is in [0, 1] and its lambda_maxes are finite.
    """

    name = "bench-cli"
    calibration = (30, 275)  # (full-data, batch-32) kernel grads: training and reports mixed
    bytes_written = 0  # by the op verified last

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        spec: dict = BENCH_SPEC,
        protocol: dict = BENCH_PROTOCOL,
        n_configs: int = 4,
    ):
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for k in range(n_configs):
            doc = {
                "seed": derive(seed, 9, k),
                "data": {"spec": dict(spec), "seed": derive(seed, 10, k)},
                "methods": ["adam", "sam", "fad"],
                "protocol": dict(protocol),
            }
            path = work_dir / f"config-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.inputs.append((path, doc))
        self.refs = [doc for _, doc in self.inputs]
        self._ops = 0
        self.verify(0, self.run(0))

    def run(self, i: int) -> tuple[int, Path]:
        out_dir = self.work_dir / f"out-{self._ops}"
        self._ops += 1
        code = cli.main(["bench", "--config", str(self.inputs[i][0]), "--out-dir", str(out_dir)])
        return code, out_dir

    def verify(self, i: int, output: tuple[int, Path]) -> tuple[str | None, str]:
        code, out_dir = output
        files = {}
        for name in BENCH_OUTPUTS:
            path = out_dir / name
            files[name] = path.read_bytes() if path.exists() else b""
        shutil.rmtree(out_dir, ignore_errors=True)
        self.bytes_written = sum(len(data) for data in files.values())
        digest = sha256(b"".join(files[name] for name in BENCH_OUTPUTS))
        if code != 0:
            return f"exit code {code}", digest
        try:
            return self._check(self.refs[i], files), digest
        except (ValueError, KeyError, TypeError) as err:
            return f"output does not parse: {type(err).__name__}: {err}", digest

    @staticmethod
    def _check(doc: dict, files: dict[str, bytes]) -> str | None:
        bench = json.loads(files["bench.json"])
        hparams = json.loads(files["bench_hparams.json"])
        first, _, _ = files["bench_table.csv"].decode().partition("\n")
        if not first.startswith("# config: "):
            return "bench_table.csv has no config line"
        table_config = json.loads(first[len("# config: "):])
        for config in (bench["config"], hparams["config"], table_config):
            if not _embeds(config, doc):
                return "an output file does not embed the input config"
        for cell in bench["cells"]:
            if not 0.0 <= cell["mean_accuracy"] <= 1.0:
                return f"mean_accuracy {cell['mean_accuracy']} outside [0, 1]"
            if not np.all(np.isfinite(cell["lambda_maxes"])):
                return "non-finite lambda_maxes"
        if len(bench["cells"]) != len(doc["methods"]) * doc["data"]["spec"]["n_domains"]:
            return f"{len(bench['cells'])} cells"
        return None


WORKLOADS = {w.name: w for w in (TrainSteps, FlatnessReports, BenchCli)}
