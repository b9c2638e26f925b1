"""Machine checks of the claims the README makes about the known reference discrepancies.

These tests document why acceptance criteria fail; they never replace them.
"""

import math
import tracemalloc

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    simulate,
)

# The losses of acceptance criterion 4 (logic dominance).
DOMINANCE_LOSSES = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.996, v_d=0.9, v_b=1.0)


def test_logic_inversion_by_simulation():
    # At (m, n) = (128, 512) the engine has first-detection ahead of
    # lowest-loss by 6.8e-3.  The sampler, which shares no quantity with the
    # engine, must show the same inversion beyond four standard errors.  Each
    # logic runs at its own optimal pump strength, as optimize_lambda reports
    # it for this point.
    lambda_opt = {PriorityLogic.LOWEST_LOSS: 22.884554, PriorityLogic.FIRST_DETECTION: 28.426638}
    p1, se = {}, {}
    tracemalloc.start()
    try:
        for logic, lam in lambda_opt.items():
            model = PairSourceModel(SourceKind.POISSONIAN, lam, 512)
            layout = MultiplexerLayout(128, 512, logic=logic)
            dist = simulate(model, DOMINANCE_LOSSES, layout, trials=1_000_000, seed=2016)
            p1[logic], se[logic] = dist.probs[1], dist.std_err[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lead = p1[PriorityLogic.FIRST_DETECTION] - p1[PriorityLogic.LOWEST_LOSS]
    assert lead > 4 * math.hypot(*se.values()), (p1, se)
    assert peak < 100e6, f"sampler peak {peak / 1e6:.0f} MB at 128 x 512"
