import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import mfkrig
import mfkrig.cli
import mfkrig.sequential as sequential
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
)
from mfkrig.kernels import BasisSpec, KernelSpec
from mfkrig.testbed import get_problem, nested_lhs

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
CONSOLE_SCRIPT = ROOT / "ci" / "console_script.sh"
DIGEST = ROOT / "ci" / "digest.py"


def test_every_exported_name_resolves():
    missing = [name for name in mfkrig.__all__ if not hasattr(mfkrig, name)]
    assert missing == []
    assert len(set(mfkrig.__all__)) == len(mfkrig.__all__)


def test_the_package_ships_one_posterior():
    # the stacked-covariance formulation is the tests' oracle, joint_oracle
    assert importlib.util.find_spec("mfkrig.joint") is None
    for name in ("JointModel", "OracleTooLargeError"):
        assert name not in mfkrig.__all__
        assert not hasattr(mfkrig.exceptions, name)
    assert mfkrig.cli._NUMERICAL_ERRORS == (
        mfkrig.FitFailedError, mfkrig.IllConditionedError,
        mfkrig.InternalConsistencyError)


_LOADED = ("import sys; print(sorted(m for m in ('scipy.spatial', "
           "'scipy.optimize') if m in sys.modules))")


@pytest.mark.parametrize("code, loaded", [
    ("import mfkrig", []),
    ("import mfkrig.kernels as k; k.correlation_matrix("
     "k.KernelSpec('matern-5/2', [0.3, 1]), [[0.1, 0], [0.5, 1]])", []),
    # a frozen loop on the d >= 3 defaults searches no likelihood
    ("import numpy as np; from mfkrig import *; "
     "x = np.random.default_rng(0).uniform(size=(8, 3)); "
     "m = MultiFidelityModel.from_parameters("
     "MultiFidelityData([x], [x.sum(1)]), "
     "[LevelConfig(BasisSpec('constant', 3), KernelSpec('matern-5/2'))], "
     "[LevelParameters([0.5] * 3, 1.0, [0.0])]); "
     "f, t = run_loop(m, Domain([[0, 1]] * 3), CostModel([1.0]), 3, "
     "[lambda p: p.sum(1)]); assert len(t) == 3", []),
    ("from mfkrig import nested_lhs; nested_lhs([12, 6, 3], [[0, 1]] * 2)",
     []),
    # the predict command on a saved model, written in the working directory
    ("import json; import numpy as np; from mfkrig import *; "
     "from mfkrig.cli import main; x = np.linspace(0, 1, 6)[:, None]; "
     "save_model(MultiFidelityModel.from_parameters("
     "MultiFidelityData([x], [x[:, 0] ** 2]), [LevelConfig(BasisSpec("
     "'constant', 1), KernelSpec('squared-exponential'))], "
     "[LevelParameters([0.3], 1.0, [0.0])]), 'model'); "
     "json.dump({'model_dir': 'model', 'grid': 11, 'bounds': [[0, 1]], "
     "'out': 'out'}, open('predict.json', 'w')); "
     "assert main(['predict', '--config', 'predict.json', '--quiet']) == 0",
     []),
    # scipy.optimize imports scipy.spatial itself
    ("import numpy as np; from mfkrig import *; "
     "x = np.linspace(0, 1, 6)[:, None]; fit_multifidelity("
     "MultiFidelityData([x], [np.sin(6 * x[:, 0])]), [LevelConfig("
     "BasisSpec('constant', 1), KernelSpec('squared-exponential'))])",
     ["scipy.optimize", "scipy.spatial"]),
])
def test_scipy_spatial_and_optimize_load_only_when_used(tmp_path, code,
                                                       loaded):
    # both take time and memory to import: only the likelihood search
    # loads scipy.optimize, and with it scipy.spatial, when first run
    source = pathlib.Path(mfkrig.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source)}
    out = subprocess.run([sys.executable, "-c", f"{code}; {_LOADED}"],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == str(loaded)


def test_benchmark_imports_resolve(monkeypatch):
    # the benchmark imports library names directly and its traced run
    # wraps these methods by name, so neither may vanish in a refactor
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("workloads", "tracing"):
        importlib.import_module(module)
    for name in ("predict", "hypothetical_variance_after", "refit"):
        assert callable(getattr(MultiFidelityModel, name))


def test_loop_iterations_are_delimited_by_compute_imse(monkeypatch):
    # the benchmark's frozen-loop workload marks iterations by wrapping
    # the module global sequential.compute_imse: run_loop must call it
    # once before the loop and once after every iteration
    problem = get_problem("forrester")
    designs = nested_lhs([8, 4], problem.bounds, seed=2)
    data = MultiFidelityData(
        designs, [problem.evaluate(t, x) for t, x in enumerate(designs, 1)])
    basis = BasisSpec("constant", 1)
    model = MultiFidelityModel.from_parameters(
        data, [LevelConfig(basis, KernelSpec("squared-exponential")),
               LevelConfig(basis, KernelSpec("squared-exponential"),
                           scaling=basis)],
        [LevelParameters([0.3], 1.0, [0.0]),
         LevelParameters([0.5], 0.5, [0.0], rho_beta=[1.5])])
    args = (model, sequential.Domain(problem.bounds),
            sequential.CostModel([1.0, 5.0]), 20.0,
            [lambda x, t=t: problem.evaluate(t, x) for t in (1, 2)])
    kwargs = dict(search=sequential.Grid(65),
                  quadrature=sequential.Grid(64))
    _, plain = sequential.run_loop(*args, **kwargs)

    returned = []
    original = sequential.compute_imse

    def counted(*a, **kw):
        returned.append(original(*a, **kw))
        return returned[-1]

    monkeypatch.setattr(sequential, "compute_imse", counted)
    _, trace = sequential.run_loop(*args, **kwargs)
    assert len(trace) > 1
    assert len(returned) == len(trace) + 1
    assert returned == ([plain.entries[0].imse_before]
                        + [e.imse_after for e in plain.entries])


def _console_script(directory, *command):
    source = pathlib.Path(mfkrig.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source)}
    return subprocess.run(["bash", str(CONSOLE_SCRIPT), *command],
                          cwd=directory, env=env, capture_output=True,
                          text=True)


def test_console_script_commands_run_through_the_module(tmp_path):
    # every command in one process, through runpy as "python -m
    # mfkrig.cli" runs it; the workflow runs the same script through the
    # installed mfkrig, one process per command
    run = _console_script(tmp_path, "--in-process", sys.executable)
    assert run.returncode == 0, run.stderr
    for out in ("fit", "predict", "sequential", "report", "predict-bounds",
                "fit-from-data", "ripple-fit", "ripple-sequential", "refit",
                "refit-predict", "prefix-sequential", "matern-fit",
                "matern-sequential", "uniform-sequential",
                "random-sequential", "cost-weighted-sequential",
                "every-sequential", "exhausted-sequential",
                "one-node-sequential", "predict-points"):
        assert (tmp_path / out).is_dir(), out
    # a failing command fails the script, in either mode: here fit cannot
    # make its output directory
    assert _console_script(tmp_path, "false").returncode != 0
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "fit").write_text("")
    run = _console_script(blocked, "--in-process", sys.executable)
    assert run.returncode != 0
    assert "'fit --config fit.json --quiet' exited" in run.stderr


def test_digest_prints_one_line_per_workload(tmp_path):
    # the smoke inputs of the three benchmark workloads, run from an
    # unrelated directory: the script finds the checkout by its own path
    run = subprocess.run([sys.executable, str(DIGEST), "--smoke"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [line["workload"] for line in lines] == ["fit", "loop-frozen", "cli"]
    for line in lines:
        assert len(line["sha256"]) == 64 and int(line["sha256"], 16) >= 0
        assert line["failed"] == 0
        assert set(line["quality"]) == {"nll_sum", "rmse", "imse_final"}
    assert list(tmp_path.iterdir()) == []


class _StandInWorkload:
    """A workload of the digest's interface whose pass fails ``failed``
    operations."""

    def __init__(self, name, failed):
        self.name, self.failed = name, failed

    def __call__(self, seed, scale, workdir):
        return self

    def setup(self):
        pass

    def check(self, result):
        result.failed_ops = self.failed

    def fingerprint(self, result):
        return self.name

    def quality(self, result):
        return {}


@pytest.mark.parametrize("failed, status", [
    ({"a": 0, "b": 0}, 0),
    ({"a": 0, "b": 2}, 1),
    ({"a": 1, "b": 0}, 1),
])
def test_digest_exits_1_when_a_workload_fails(monkeypatch, capsys, failed,
                                              status):
    # in process, on stand-in workloads; the module's own set-up (BLAS
    # threads, sys.path, bytecode) is undone when the test ends
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    stand_in = types.ModuleType("workloads")
    stand_in.WORKLOADS = {name: _StandInWorkload(name, count)
                          for name, count in failed.items()}
    stand_in.measured_pass = lambda wl: types.SimpleNamespace(failed_ops=0)
    monkeypatch.setitem(sys.modules, "workloads", stand_in)
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.main(["--smoke"]) == status
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["workload"], line["failed"]) for line in lines] == list(
        failed.items())
