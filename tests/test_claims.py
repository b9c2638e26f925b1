"""Machine checks of the claims the README makes about the known reference discrepancies.

These tests document why acceptance criteria fail; they never replace them.
"""

import math
import tracemalloc
from decimal import Decimal

from decimal_oracle import decimal_p1

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    SweepSpec,
    build_matrix,
    optimize_lambda,
    simulate,
)
from photonmux.tables import PROB_TOL, TABLE1_ROWS, TABLE2_ROWS

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


def exact_optimum(params, m, n):
    """The 40-digit P(1) at the pump strength that optimize_lambda reports for (m, n).

    The float optimum must lie within 1e-13 of it.  A pump strength off by
    the optimizer's 1e-5 tolerance moves P(1) only to second order, far below
    the margins checked here.
    """
    lam, p1 = optimize_lambda((m, n), SweepSpec((m,), (n,), params))
    layout = MultiplexerLayout(m, n)
    model = PairSourceModel(SourceKind.POISSONIAN, lam, n)
    exact = decimal_p1(model, params.v_d, build_matrix(params, layout), layout)
    assert abs(Decimal(p1) - exact) <= Decimal("1e-13"), (m, n, p1, exact)
    return exact


def test_table1_row4_spatial_optimum_is_m64_by_forty_digits():
    # The reference puts the spatial optimum at m = 128.
    params = TABLE1_ROWS[3].losses()
    margin = exact_optimum(params, 64, 1) - exact_optimum(params, 128, 1)
    assert Decimal("8.05e-5") <= margin < Decimal("8.15e-5"), margin


def test_table1_row7_spatial_probability_misses_the_gate_by_forty_digits():
    # Computed 0.904532 against the reference 0.904, gated at 5e-4.
    row = TABLE1_ROWS[6]
    exact = exact_optimum(row.losses(), row.m_spatial_ref, 1)
    beyond_gate = exact - Decimal(str(row.p_spatial_ref)) - Decimal(str(PROB_TOL))
    assert Decimal("3.15e-5") <= beyond_gate < Decimal("3.25e-5"), beyond_gate


def test_table2_row10_combined_optimum_is_4_by_32_by_forty_digits():
    # The reference puts the combined optimum at (m, n) = (2, 64).
    params = TABLE2_ROWS[9].losses()
    margin = exact_optimum(params, 4, 32) - exact_optimum(params, 2, 64)
    assert Decimal("3.05e-5") <= margin < Decimal("3.15e-5"), margin
