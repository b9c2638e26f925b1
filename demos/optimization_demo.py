"""Optimizing the single-photon probability over pump strength and geometry.

Reproduces the first reference configuration: standalone time and spatial
multiplexers peak near 0.8545 at 128 units, while the combined device
reaches 0.8531 with only 2 sources and 64 windows, and the optimal combined
geometry satisfies m_opt * n_opt = n_time_opt.
"""

from photonmux import LossParameters, SourceKind, SweepSpec, optimize_lambda, sweep

params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.9922, v_d=0.9, v_b=1.0)

print("pump-strength curve at M = 2, N = 64:")
spec_point = SweepSpec(m_values=(2,), n_values=(64,), params=params)
lam_opt, p1_opt = optimize_lambda((2, 64), spec_point)
print(f"  lambda_opt = {lam_opt:.5f}, p1 = {p1_opt:.6f}")

print("\nstandalone optima (grids up to 512):")
grid = tuple(2**i for i in range(10))
time_best = sweep(SweepSpec(m_values=(1,), n_values=grid, params=params)).best
spatial_best = sweep(SweepSpec(m_values=grid, n_values=(1,), params=params)).best
print(f"  time:    p1 = {time_best.p1:.6f} at n = {time_best.n}, lambda = {time_best.lambda_opt:.4f}")
print(f"  spatial: p1 = {spatial_best.p1:.6f} at m = {spatial_best.m}, lambda = {spatial_best.lambda_opt:.4f}")

print("\ncombined sweep (m in 2..16, n in 2..128 for a quick demo):")
result = sweep(
    SweepSpec(
        m_values=tuple(2**i for i in range(1, 5)),
        n_values=tuple(2**i for i in range(1, 8)),
        params=params,
        source_kind=SourceKind.POISSONIAN,
    )
)
m, n, lam, p1 = result.best
print(f"  best: p1 = {p1:.6f} at (m = {m}, n = {n}), lambda_opt = {lam:.4f}")
print(f"  product regularity: m * n = {m * n}, standalone n_time_opt = {time_best.n}")

print("\np1 along n at m = 2:")
for n_val in (2, 8, 32, 64, 128):
    lam, p1 = result.surface[(2, n_val)]
    bar = "#" * int((p1 - 0.5) * 120)
    print(f"  n = {n_val:4d}: {p1:.5f} {bar}")
