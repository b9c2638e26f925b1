"""The benchmark's own output checks pass at its golden seed, every pool item run once.

The ``tables``, ``design-sweep`` and ``distribution-map`` workloads of
``bench/workloads.py`` check what each call produced against goldens
recorded for seed 0 and against identities that hold for any seed; a
benchmark run counts an item that fails them as an incorrect output.  This
test takes each pool item once through the workload's own ``run``,
``collect`` and ``failures``, so such a change fails here and not only at
benchmark time.  The ``oracle-validate`` pool is run by ``test_oracle_pool.py``.
"""

import pytest

from test_docs import bench_module

workloads = bench_module("workloads")


@pytest.mark.parametrize("name", ["tables", "design-sweep", "distribution-map"])
def test_every_pool_item_passes_the_workload_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.GOLDEN_SEED, tmp_path)
    done = [(idx, workload.collect(item, workload.run(item))) for idx, item in enumerate(workload.pool)]
    assert workload.failures(done) == {}
