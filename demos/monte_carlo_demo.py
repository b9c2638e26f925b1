"""Cross-check of the analytic engine against the Monte-Carlo sampler.

The sampler walks the (arm, window) cells in priority order and draws, at
each cell, how many of the still unheralded trials herald there, then their
pair numbers given the click and their per-photon losses.  It shares nothing
with the series evaluation, so per-bin z-scores near zero are genuine
evidence that both are right.  Bin 11, when shown, holds every photon
number above 10.
"""

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
)
from photonmux.cli import compare_to_oracle

params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.9922, v_d=0.9, v_b=1.0)
TRIALS = 1_000_000

for logic in PriorityLogic:
    layout = MultiplexerLayout(2, 4, logic=logic)
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 4)
    print(f"\nM = 2, N = 4, {logic.value}, {TRIALS:.0e} trials")
    print("  bin   analytic      empirical     z")
    for c in compare_to_oracle(model, params, layout, trials=TRIALS, seed=2024):
        if c.analytic > 1e-9 or c.empirical > 0:
            print(f"  {c.bin}    {c.analytic:.8f}    {c.empirical:.8f}    {c.z:5.2f}")

print("\nsame seed, same counts (bit-reproducible blocks):")
layout = MultiplexerLayout(2, 4)
model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 4)
a = compare_to_oracle(model, params, layout, trials=200_000, seed=5)
b = compare_to_oracle(model, params, layout, trials=200_000, seed=5)
print(f"  runs identical: {all(x.empirical == y.empirical for x, y in zip(a, b))}")
