import importlib
import pathlib

import mfkrig
from mfkrig.cokriging import MultiFidelityModel

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in mfkrig.__all__ if not hasattr(mfkrig, name)]
    assert missing == []
    assert len(set(mfkrig.__all__)) == len(mfkrig.__all__)


def test_benchmark_imports_resolve(monkeypatch):
    # the benchmark imports library names directly and its traced run
    # wraps these methods by name, so neither may vanish in a refactor
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("workloads", "tracing"):
        importlib.import_module(module)
    for name in ("predict", "hypothetical_variance_after", "refit"):
        assert callable(getattr(MultiFidelityModel, name))
