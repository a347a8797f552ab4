"""The perfbench workloads' output digests at seed 1, pinned.

Each workload runs its `setup`, one `op` and `inspect` in-process, as
`perfbench/run.py` does, and its digest must equal the pin. A change that
alters an output on purpose updates the pin and says why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PINS = {
    "train": "c7c8b28c5d7ffb31",
    "infer-bulk": "f182fd50d5ecb1d8",
    "gradcheck": "7e3841eb71e6af38",
    "ablate": "a00906e8d68e999f",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_digest_is_pinned(workloads, tmp_path, name):
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[name](1, tmp_path, checks)
    workload.setup()
    attempted, failed = workload.inspect(0, workload.op(0))
    assert attempted > 0 and failed == 0
    assert checks.ok, {k: v for k, v in checks.results.items() if not v[0]}
    assert workload.digest == PINS[name]
