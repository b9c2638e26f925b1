"""The benchmark's oracle pool still passes the validation harness at its recorded seeds.

``bench/goldens/oracle_pool.json`` lists 48 points, each with a sampler
seed at which ``photonmux validate`` passed for both logics.  Those seeds
protect only the random stream they were recorded with: a change of the
sampler's stream can fail a pair there by chance, and the pool must then be
re-recorded in the same change.  This test runs every (point, logic) pair as
the ``oracle-validate`` workload does, so such a change fails here and not
only at benchmark time.
"""

import json
from pathlib import Path

import pytest

from photonmux import LossParameters, MultiplexerLayout, PairSourceModel, PriorityLogic, SourceKind
from photonmux.cli import Z_LIMIT, compare_to_oracle

POOL_PATH = Path(__file__).resolve().parents[1] / "bench" / "goldens" / "oracle_pool.json"
POOL = json.loads(POOL_PATH.read_text(encoding="utf-8"))["points"]
# The workload's logic order: a pair's sampler seed is the point's seed plus this index.
LOGICS = (PriorityLogic.LOWEST_LOSS, PriorityLogic.FIRST_DETECTION)
TRIALS = 1_000_000
GOLDEN_TOL = 1e-9


@pytest.mark.parametrize("k", range(len(LOGICS)), ids=[logic.value for logic in LOGICS])
@pytest.mark.parametrize("i", range(len(POOL)), ids=[f"point{i}" for i in range(len(POOL))])
def test_pool_pair_passes_at_its_recorded_seed(i, k):
    entry, logic = POOL[i], LOGICS[k]
    m, n, lam = entry["point"]
    comparisons = compare_to_oracle(
        PairSourceModel(SourceKind(entry["source"]), lam, n),
        LossParameters(**entry["losses"]),
        MultiplexerLayout(m, n, logic=logic),
        trials=TRIALS,
        seed=entry["seed"] + k,
    )
    worst = max(comparisons, key=lambda c: c.z)
    assert worst.z <= Z_LIMIT, worst
    golden = entry["analytic"][logic.value]
    analytic = [c.analytic for c in comparisons[: len(golden)]]
    assert analytic == pytest.approx(golden, rel=0.0, abs=GOLDEN_TOL)
