import sys
import types
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module, compiled from perfbench/workloads.py.

    Importing it would write a bytecode cache beside it, so it is compiled
    from source and nothing is written under perfbench/.  Dataclasses look
    their module up in sys.modules while it executes.
    """
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation via QR of a Gaussian matrix, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)
