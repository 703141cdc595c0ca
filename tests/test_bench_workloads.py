"""Every benchmark workload runs on the library and its checks pass.

The benchmark reads results through names and fields of the library
(report.trace.result, final_difference, SparsityPartition built by
position, replace_sparse(...).collection).  A library change that breaks
one of them fails here, not first in the benchmark run.  This test reads
perfbench/ and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # Registered before it runs, since its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["upper", "lower", "build-x", "sparsity"])
def test_every_job_of_the_workload_passes_its_check(workloads, workload):
    assert workload in workloads.WORKLOADS
    for job in workloads.prepare(workload, 0, "full"):
        result = job.run()
        assert job.check(result) is None, job.label
        assert isinstance(job.text(result), str), job.label
