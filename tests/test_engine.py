"""Output photon-number distribution for both priority logics, and the closed-form P(1)."""

import collections
import math
from decimal import Decimal

import numpy as np
import pytest
from decimal_oracle import decimal_p1

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    SweepSpec,
    TransmissionMatrix,
    build_matrix,
    herald_convolve,
    output_distribution,
    single_photon_probability,
    sweep,
)
from photonmux import engine, optimize
from photonmux.engine import PhotonNumberDistribution, p1_evaluator
from photonmux.statistics import HeraldedInputDistribution
from photonmux.transmission import RowRuns

LL = PriorityLogic.LOWEST_LOSS
FD = PriorityLogic.FIRST_DETECTION

LOSSLESS = LossParameters(v_r=1, v_t=1, v_p=1, v_p0_s=1, v_d=1, v_b=1)


def priority_weights(p0, layout):
    """Oracle: selection weight W(k, n) of every (arm rank, window) cell, from its exponent."""
    powers = np.power(p0, np.arange(layout.m * layout.n))
    if layout.logic is FD:
        return powers.reshape(layout.n, layout.m).T
    return powers.reshape(layout.m, layout.n)


def direct_distribution(heralded, tm, layout, i_max):
    """Oracle: P(0 .. i_max) summed over every (arm, window) cell and every j."""
    weights = priority_weights(heralded.p0, layout)
    v = tm.values
    probs = np.zeros(i_max + 1)
    for i in range(i_max + 1):
        for j in range(max(i, 1), heralded.j_max + 1):
            binom = math.comb(j, i) * v**i * (1.0 - v) ** (j - i)
            probs[i] += heralded.pj[j - 1] * float(np.sum(weights * binom))
    probs[0] += heralded.p0 ** (layout.m * layout.n)
    return probs


def random_case(rng, m_choices=(1, 2, 4, 8), n_choices=(1, 2, 4, 8), lo=0.5):
    kind = SourceKind.THERMAL if rng.random() < 0.5 else SourceKind.POISSONIAN
    m = int(rng.choice(m_choices))
    n = int(rng.choice(n_choices))
    params = LossParameters(
        v_r=float(rng.uniform(lo, 1.0)),
        v_t=float(rng.uniform(lo, 1.0)),
        v_p=float(rng.uniform(lo, 1.0)),
        v_p0_s=float(rng.uniform(lo, 1.0)),
        v_d=float(rng.uniform(lo, 1.0)),
        v_b=float(rng.uniform(lo, 1.0)),
        v_r_s=float(rng.uniform(lo, 1.0)),
        v_t_s=float(rng.uniform(lo, 1.0)),
    )
    model = PairSourceModel(kind, float(rng.uniform(0.0, 5.0 * n)), n)
    return model, params, m, n


class TestOutputDistribution:
    def test_identity_channel(self):
        model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)
        h = herald_convolve(model, 1.0)
        layout = MultiplexerLayout(1, 1)
        tm = build_matrix(LOSSLESS, layout)
        dist = output_distribution(h, tm, layout, i_max=h.j_max)
        assert dist.probs[0] == pytest.approx(h.p0, abs=1e-15)
        for i in range(1, h.j_max + 1):
            assert dist.probs[i] == pytest.approx(h.pj[i - 1], rel=1e-13)

    @pytest.mark.parametrize("m,n", [(1, 8), (1, 64), (4, 1), (32, 1), (1, 1)])
    def test_logics_coincide_for_degenerate_geometry(self, m, n):
        model = PairSourceModel(SourceKind.POISSONIAN, 1.5, n)
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        h = herald_convolve(model, params.v_d)
        dists = []
        for logic in (LL, FD):
            layout = MultiplexerLayout(m, n, logic=logic)
            tm = build_matrix(params, layout)
            dists.append(output_distribution(h, tm, layout, i_max=min(6, h.j_max)).probs)
        assert np.max(np.abs(dists[0] - dists[1])) <= 1e-12

    @pytest.mark.parametrize("logic", [LL, FD])
    def test_normalization_with_full_truncation(self, logic):
        rng = np.random.default_rng(42)
        for _ in range(30):
            model, params, m, n = random_case(rng)
            layout = MultiplexerLayout(m, n, logic=logic)
            tm = build_matrix(params, layout)
            h = herald_convolve(model, params.v_d)
            dist = output_distribution(h, tm, layout, i_max=h.j_max)
            assert abs(float(np.sum(dist.probs)) + dist.tail_bound - 1.0) <= 1e-10
            assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("logic", [LL, FD])
    def test_normalization_with_injected_generic_matrix(self, logic):
        # Non-power-of-two geometry through the generic matrix pathway.
        rng = np.random.default_rng(9)
        layout = MultiplexerLayout(3, 5, logic=logic)
        tm = TransmissionMatrix(values=rng.uniform(0.2, 1.0, size=(3, 5)), arm_order=(0, 1, 2))
        model = PairSourceModel(SourceKind.POISSONIAN, 2.0, 5)
        h = herald_convolve(model, 0.8)
        dist = output_distribution(h, tm, layout, i_max=h.j_max)
        assert abs(float(np.sum(dist.probs)) + dist.tail_bound - 1.0) <= 1e-10

    def test_vacuum_probability_never_rises_with_transmission(self):
        rng = np.random.default_rng(33)
        model = PairSourceModel(SourceKind.POISSONIAN, 2.0, 4)
        h = herald_convolve(model, 0.85)
        layout = MultiplexerLayout(2, 4)
        values = rng.uniform(0.3, 0.9, size=(2, 4))
        base = output_distribution(
            h, TransmissionMatrix(values=values, arm_order=(0, 1)), layout, i_max=6
        )
        for _ in range(10):
            bumped = values.copy()
            k, n = rng.integers(0, 2), rng.integers(0, 4)
            bumped[k, n] = min(bumped[k, n] + 0.05, 1.0)
            dist = output_distribution(
                h, TransmissionMatrix(values=bumped, arm_order=(0, 1)), layout, i_max=6
            )
            assert dist.probs[0] <= base.probs[0] + 1e-15

    def test_degenerate_inputs_give_vacuum_point_mass(self):
        layout = MultiplexerLayout(2, 2)
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        tm = build_matrix(params, layout)
        for model, v_d in (
            (PairSourceModel(SourceKind.POISSONIAN, 0.0, 2), 0.9),
            (PairSourceModel(SourceKind.POISSONIAN, 1.0, 2), 0.0),
        ):
            h = herald_convolve(model, v_d)
            dist = output_distribution(h, tm, layout, i_max=4)
            assert dist.probs[0] == 1.0
            assert np.all(dist.probs[1:] == 0.0)
            assert dist.tail_bound == 0.0

    def test_dimension_mismatch_rejected(self):
        layout = MultiplexerLayout(2, 4)
        tm = build_matrix(LOSSLESS, MultiplexerLayout(2, 2))
        h = herald_convolve(PairSourceModel(SourceKind.POISSONIAN, 1.0, 4), 0.9)
        with pytest.raises(ValueError):
            output_distribution(h, tm, layout, i_max=4)

    def test_i_max_validation(self):
        layout = MultiplexerLayout(1, 1)
        tm = build_matrix(LOSSLESS, layout)
        h = herald_convolve(PairSourceModel(SourceKind.POISSONIAN, 1.0, 1), 0.9)
        with pytest.raises(ValueError):
            output_distribution(h, tm, layout, i_max=0)
        # Bins above the input truncation are 0; their mass is in the tail bound.
        dist = output_distribution(h, tm, layout, i_max=h.j_max + 3)
        assert np.all(dist.probs[h.j_max + 1 :] == 0.0)
        assert abs(float(np.sum(dist.probs)) + dist.tail_bound - 1.0) <= 1e-10

    def test_distribution_invariants_enforced(self):
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([0.5, 0.4]), tail_bound=0.2)
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([[0.5, 0.5]]), tail_bound=0.0)

    def test_nan_entries_rejected(self):
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([math.nan, 0.5]), tail_bound=0.0)
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([0.5, 0.5]), tail_bound=math.nan)


class TestSinglePhotonProbability:
    def test_matches_full_distribution_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model, params, m, n = random_case(rng)
            for logic in (LL, FD):
                layout = MultiplexerLayout(m, n, logic=logic)
                tm = build_matrix(params, layout)
                h = herald_convolve(model, params.v_d)
                fast = single_photon_probability(h, tm, layout)
                full = output_distribution(h, tm, layout, i_max=min(4, h.j_max))
                assert fast == full.probs[1]

    def test_lossless_passthrough_is_poisson(self):
        model = PairSourceModel(SourceKind.POISSONIAN, 1.7, 1)
        layout = MultiplexerLayout(1, 1)
        tm = build_matrix(LOSSLESS, layout)
        h = herald_convolve(model, 1.0)
        assert single_photon_probability(h, tm, layout) == pytest.approx(
            1.7 * np.exp(-1.7), rel=1e-13
        )

    def test_zero_intensity_gives_zero(self):
        model = PairSourceModel(SourceKind.POISSONIAN, 0.0, 4)
        layout = MultiplexerLayout(2, 4)
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        tm = build_matrix(params, layout)
        assert single_photon_probability(herald_convolve(model, 0.9), tm, layout) == 0.0

    def test_reference_time_multiplexer_value(self):
        # 128-window standalone time multiplexer at its optimal pump
        # (reference value 0.854, pump strength frozen from a converged run).
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        layout = MultiplexerLayout(1, 128)
        tm = build_matrix(params, layout)
        model = PairSourceModel(SourceKind.POISSONIAN, 6.9182, 128)
        h = herald_convolve(model, params.v_d)
        assert single_photon_probability(h, tm, layout) == pytest.approx(0.854, abs=5e-4)


def external_matrices(n):
    """Externally built matrices whose row runs the engine must merge, or keep apart."""
    rng = np.random.default_rng(23)
    a, b = rng.uniform(0.2, 1.0, size=(2, n))
    return {
        "equal rows apart": np.array([a, b, a]),
        "all rows equal": np.tile(a, (4, 1)),
        "mixed runs": np.array([a, a, b, b, b, a]),
        "distinct rows": rng.uniform(0.2, 1.0, size=(3, n)),
    }


# Heralded inputs and their window counts; at n = 5 the "distinct rows" matrix is a 3 x 5 layout.
COLLAPSE_INPUTS = {
    "poissonian": (herald_convolve(PairSourceModel(SourceKind.POISSONIAN, 2.0, 5), 0.8), 5),
    "thermal": (herald_convolve(PairSourceModel(SourceKind.THERMAL, 3.0, 5), 0.9), 5),
    "thermal, j_max > 30": (herald_convolve(PairSourceModel(SourceKind.THERMAL, 15.0, 5), 0.9), 5),
    "p0 = 0": (HeraldedInputDistribution(p0=0.0, pj=[1.0], tail_bound=0.0), 5),
    "p0 near 1": (
        herald_convolve(PairSourceModel(SourceKind.POISSONIAN, 1e-4, 512), 0.9, j_max=4),
        512,
    ),
}


class TestRowRunCollapse:
    """The run-summed engine against the direct sum over all m * n cells."""

    @pytest.mark.parametrize("logic", [LL, FD])
    @pytest.mark.parametrize("label", COLLAPSE_INPUTS)
    def test_matches_direct_cell_sum(self, logic, label):
        heralded, n = COLLAPSE_INPUTS[label]
        for name, values in external_matrices(n).items():
            m = values.shape[0]
            layout = MultiplexerLayout(m, n, logic=logic)
            tm = TransmissionMatrix(values=values, arm_order=tuple(range(m)))
            expected = direct_distribution(heralded, tm, layout, 10)
            dist = output_distribution(heralded, tm, layout, i_max=10)
            p1 = single_photon_probability(heralded, tm, layout)
            assert np.max(np.abs(dist.probs - expected)) <= 1e-14, name
            assert abs(p1 - expected[1]) <= 1e-14, name
            assert p1 == dist.probs[1], name

    @pytest.mark.parametrize("logic", [LL, FD])
    def test_built_matrix_matches_direct_cell_sum(self, logic):
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9, v_r_s=0.993)
        layout = MultiplexerLayout(16, 8, logic=logic)
        tm = build_matrix(params, layout)
        assert len(tm.row_runs.starts) == 5
        h = herald_convolve(PairSourceModel(SourceKind.THERMAL, 6.0, 8), params.v_d)
        expected = direct_distribution(h, tm, layout, 6)
        assert np.max(np.abs(output_distribution(h, tm, layout, i_max=6).probs - expected)) <= 1e-14
        assert abs(single_photon_probability(h, tm, layout) - expected[1]) <= 1e-14


def two_step_distribution(heralded, tm, layout, i_max):
    """Reference: ``output_distribution``'s probs and tail bound, with each weight step and product on its own.

    The run weights take one ``reduceat`` over the rank weights alone, the
    window weights are the rest, and the ``i`` stack of ``(runs, windows)``
    cells contracts as ``((cells @ b)[..., 0] * A).sum(axis=-1)``.
    """
    m, n = layout.m, layout.n
    runs, p0 = tm.row_runs, heralded.p0
    ranks, windows = np.arange(m, dtype=float), np.arange(n, dtype=float)
    if layout.logic is FD:
        exponents = np.concatenate((ranks, m * windows))
    else:
        exponents = np.concatenate((n * ranks, windows))
    weights = np.exp((math.log(p0) if p0 > 0.0 else -1e3) * exponents)
    run_weights, window_weights = np.add.reduceat(weights[:m], runs.starts), weights[m:]
    v = runs.rows
    x = 1.0 - v
    js = np.arange(heralded.j_max + 1)
    pj = np.concatenate(([0.0], heralded.pj))
    terms = []
    v_pow, comb = np.ones_like(v), np.ones(heralded.j_max + 1)
    for i in range(min(i_max, heralded.j_max) + 1):
        coeffs = (comb * pj)[i:].tolist()
        series = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            series = series * x + c
        terms.append(v_pow * series)
        v_pow = v_pow * v
        comb = comb * (js - i) / (i + 1)
    probs = np.zeros(i_max + 1)
    probs[: len(terms)] = ((np.stack(terms) @ window_weights[:, None])[..., 0] * run_weights).sum(axis=-1)
    p0_all = p0 ** (m * n)
    probs[0] += p0_all
    weight_sum = float(np.sum(run_weights)) * float(np.sum(window_weights))
    included = p0_all + weight_sum * float(np.sum(heralded.pj))
    tail_bound = max(included - float(np.sum(probs)), 0.0) + weight_sum * heralded.tail_bound
    return np.clip(probs, 0.0, 1.0), tail_bound


class TestOneContraction:
    """``output_distribution`` through the kernel's contraction, bit for bit the two-step formula."""

    @staticmethod
    def assert_two_step(heralded, tm, layout, i_max, label):
        dist = output_distribution(heralded, tm, layout, i_max=i_max)
        probs, tail_bound = two_step_distribution(heralded, tm, layout, i_max)
        assert dist.probs.tobytes() == probs.tobytes(), label
        assert dist.tail_bound == tail_bound, label

    def test_built_matrices_up_to_4096_arms(self):
        # Random geometries up to m = 4096 (13 row runs) and n = 512, both
        # sources and logics, each at i_max = 1, at j_max, beyond it and at
        # one random order below it.
        rng = np.random.default_rng(31)
        runs_seen, cases = collections.Counter(), 0
        while cases < 120:
            model, params, layout = draw_closed_form_case(rng, 12, 9, 1e-3, 3.0)
            if layout.m * layout.n > 1 << 17:
                continue
            cases += 1
            tm = build_matrix(params, layout)
            heralded = herald_convolve(model, params.v_d)
            j_max = heralded.j_max
            for i_max in sorted({1, int(rng.integers(1, j_max + 1)), j_max, j_max + 2}):
                self.assert_two_step(heralded, tm, layout, i_max, (model, layout, i_max))
            runs_seen[len(tm.row_runs.starts)] += 1
        assert runs_seen[13] >= 3 and max(runs_seen) == 13, runs_seen

    @pytest.mark.parametrize("logic", [LL, FD])
    @pytest.mark.parametrize("label", COLLAPSE_INPUTS)
    def test_external_matrices_with_many_runs(self, logic, label):
        # 16 to 64 distinct rows, where numpy's sum over the runs takes its
        # unrolled pairwise loop, and the merged and separate runs of
        # external_matrices; p0 = 0 and p0 near 1 among the inputs.
        heralded, n = COLLAPSE_INPUTS[label]
        rng = np.random.default_rng(37)
        matrices = dict(external_matrices(n))
        for rows in (16, 17, 40, 64):
            matrices[f"{rows} distinct rows"] = rng.uniform(0.2, 1.0, size=(rows, n))
        repeated = rng.uniform(0.2, 1.0, size=(48, n))
        matrices["48 runs of 1 to 3 rows"] = np.repeat(repeated, rng.integers(1, 4, 48), axis=0)
        for name, values in matrices.items():
            m = values.shape[0]
            tm = TransmissionMatrix(values=values, arm_order=tuple(range(m)))
            layout = MultiplexerLayout(m, n, logic=logic)
            for i_max in (1, 4, heralded.j_max, heralded.j_max + 1):
                self.assert_two_step(heralded, tm, layout, i_max, (name, i_max))


def series_p1(model, v_d, tm, layout):
    """The ``j``-series P(1) and its certified truncation error ``W_sum * tail_bound``."""
    h = herald_convolve(model, v_d)
    weight_sum = float(np.sum(np.power(h.p0, np.arange(layout.m * layout.n))))
    return single_photon_probability(h, tm, layout), weight_sum * h.tail_bound, h


LOSS_NAMES = ("v_r", "v_t", "v_p", "v_p0_s", "v_d", "v_b", "v_r_s", "v_t_s")


def draw_closed_form_case(rng, m_exp_max, n_exp_max, lam_lo, lam_hi_per_window):
    """A random geometry, source, logic and loss set; lambda log-uniform in [lam_lo, lam_hi_per_window * n]."""
    m = 2 ** int(rng.integers(0, m_exp_max + 1))
    n = 2 ** int(rng.integers(0, n_exp_max + 1))
    kind = SourceKind.THERMAL if rng.random() < 0.5 else SourceKind.POISSONIAN
    logic = FD if rng.random() < 0.5 else LL
    params = LossParameters(**{name: float(rng.uniform(0.5, 1.0)) for name in LOSS_NAMES})
    lam = float(np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi_per_window * n))))
    layout = MultiplexerLayout(m, n, logic=logic)
    return PairSourceModel(kind, lam, n), params, layout


def closed_p1(model, v_d, tm, layout):
    """``p1_evaluator``'s P(1), a batch of one, at the source model's per-window mean."""
    return one_point(model.kind, v_d, tm, layout.logic)(np.array([model.mean_per_window]))[0]


def one_point(kind, v_d, tm, logic):
    """``p1_evaluator`` of the single geometry ``tm``, as a function of an array of means.

    One outer call of the point against the means, as a scan makes.
    """
    p1 = p1_evaluator(kind, v_d, [tm.row_runs], logic)
    return lambda mu: p1(np.zeros((1, 1), int), np.asarray(mu)[None, :])[0]


def pairs_of_one_point(kind, v_d, tm, logic):
    """As ``one_point``, by one call of 1-D pairs, as a round makes."""
    p1 = p1_evaluator(kind, v_d, [tm.row_runs], logic)
    return lambda mu: p1(np.zeros(len(mu), int), mu)


def two_pass_one_photon(kind, x):
    """``T(1; x)``, out of place."""
    if kind is SourceKind.THERMAL:
        return x / (1.0 + x) ** 2
    return x * np.exp(-x)


def two_pass_p1(kind, v_d, tm, layout, mu):
    """Reference: P(1) in chunks of ``2^15`` cells, with no stacking and no work arrays.

    Each thinned source gets its own out-of-place ``T`` pass, the second is
    subtracted as ``cells -= p0 * ...``, and the run and window weights take
    one ``exp`` each.
    """
    runs = tm.row_runs
    rows = runs.rows
    ranks, windows = np.arange(layout.m, dtype=float), np.arange(layout.n, dtype=float)
    if layout.logic is FD:
        rank_exp, window_exp = ranks, layout.m * windows
    else:
        rank_exp, window_exp = layout.n * ranks, windows
    per_chunk = max(1, (1 << 15) // rows.size)
    out = []
    for start in range(0, mu.size, per_chunk):
        chunk = mu[start : start + per_chunk, None, None]
        x = chunk * v_d
        if kind is SourceKind.THERMAL:
            log_p0 = -np.log1p(x)
            p0 = 1.0 / (1.0 + x)
            mu_miss = chunk * (1.0 - v_d) * p0
        else:
            log_p0 = -x
            p0 = np.exp(log_p0)
            mu_miss = chunk * (1.0 - v_d)
        cells = two_pass_one_photon(kind, chunk * rows)
        cells -= p0 * two_pass_one_photon(kind, mu_miss * rows)
        run_weights = np.add.reduceat(np.exp(log_p0[..., 0] * rank_exp), runs.starts, axis=-1)
        window_weights = np.exp(log_p0[..., 0] * window_exp)
        out.append(((cells @ window_weights[..., None])[..., 0] * run_weights).sum(axis=-1))
    return np.concatenate(out)


class TestClosedFormP1:
    """``p1_evaluator`` against the truncated ``j``-series, which serves as its oracle."""

    def test_matches_series_within_its_truncation_bound(self):
        rng = np.random.default_rng(2016)
        for case in range(1000):
            model, params, layout = draw_closed_form_case(rng, 7, 9, 1e-3, 3.0)
            tm = build_matrix(params, layout)
            closed = closed_p1(model, params.v_d, tm, layout)
            series, bound, _ = series_p1(model, params.v_d, tm, layout)
            assert abs(closed - series) <= bound + 1e-15, (case, model, layout)

    def test_matches_series_at_the_design_sweep_optima(self):
        # The design sweep's domain: m, n <= 8, near-reference efficiencies,
        # both sources and logics, at the pump strengths the optimizer reports.
        # (Far below the optimum, at lambda ~ 1e-4, the series' own truncation
        # error reaches 1e-11, inside its certified bound; the previous test
        # covers that range.)
        rng = np.random.default_rng(8)
        grid = (1, 2, 4, 8)
        for _ in range(8):
            losses = {name: float(rng.uniform(0.93, 0.996)) for name in LOSS_NAMES}
            params = LossParameters(**dict(losses, v_d=float(rng.uniform(0.8, 0.95)), v_b=1.0))
            for kind in SourceKind:
                for logic in (LL, FD):
                    result = sweep(SweepSpec(grid, grid, params, source_kind=kind, logic=logic))
                    for (m, n), (lam, p1) in result.surface.items():
                        layout = MultiplexerLayout(m, n, logic=logic)
                        model = PairSourceModel(kind, lam, n)
                        series, _, _ = series_p1(model, params.v_d, build_matrix(params, layout), layout)
                        assert abs(p1 - series) <= 1e-13, (params, kind, logic, m, n)

    def test_exact_edge_cases(self):
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        for kind in SourceKind:
            for logic in (LL, FD):
                layout = MultiplexerLayout(4, 8, logic=logic)
                tm = build_matrix(params, layout)
                assert closed_p1(PairSourceModel(kind, 3.0, 8), 0.0, tm, layout) == 0.0
                assert closed_p1(PairSourceModel(kind, 0.0, 8), 0.9, tm, layout) == 0.0
                model = PairSourceModel(kind, 3.0, 8)
                closed = closed_p1(model, 1.0, tm, layout)
                series, bound, _ = series_p1(model, 1.0, tm, layout)
                assert 0.0 < closed < 1.0
                assert abs(closed - series) <= bound + 1e-15
        layout = MultiplexerLayout(1, 1)
        tm = build_matrix(LOSSLESS, layout)
        poisson = closed_p1(PairSourceModel(SourceKind.POISSONIAN, 1.7, 1), 1.0, tm, layout)
        thermal = closed_p1(PairSourceModel(SourceKind.THERMAL, 1.7, 1), 1.0, tm, layout)
        assert poisson == pytest.approx(1.7 * math.exp(-1.7), rel=1e-15)
        assert thermal == pytest.approx(1.7 / 2.7**2, rel=1e-15)

    def test_row_runs_state_the_geometry(self):
        # The runs of a 2-arm and a 4-arm matrix share their first two rows;
        # only their rank count tells the evaluator how far the last run
        # reaches, and each gives its own device's P(1).
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        model = PairSourceModel(SourceKind.POISSONIAN, 2.0, 2)
        values = {}
        for m, starts in ((2, [0, 1]), (4, [0, 1, 3])):
            layout = MultiplexerLayout(m, 2)
            tm = build_matrix(params, layout)
            runs = tm.row_runs
            assert (runs.ranks, runs.rows.shape[1], runs.starts.tolist()) == (m, 2, starts)
            values[m] = closed_p1(model, params.v_d, tm, layout)
            series, bound, _ = series_p1(model, params.v_d, tm, layout)
            assert abs(values[m] - series) <= bound + 1e-15
        assert values[2] != values[4]

    @pytest.mark.parametrize("logic", [LL, FD])
    def test_geometries_that_differ_only_in_their_run_starts_keep_their_own_layout(self, logic):
        # Two external 4-arm matrices of the same two rows, split at rank 1
        # and at rank 3: one kernel of both gives each the P(1) it gives alone.
        rows = np.array([[0.9, 0.8], [0.5, 0.4]])
        runs = [RowRuns(rows=rows, starts=np.array([0, split]), ranks=4) for split in (1, 3)]
        mu = np.array([1.5, 1.5])
        together = p1_evaluator(SourceKind.POISSONIAN, 0.9, runs, logic)(np.array([0, 1]), mu)
        alone = [p1_evaluator(SourceKind.POISSONIAN, 0.9, [r], logic)(np.array([0]), mu[:1])[0] for r in runs]
        assert together.tolist() == alone and alone[0] != alone[1]

    @pytest.mark.parametrize("kind", list(SourceKind))
    @pytest.mark.parametrize("logic", [LL, FD])
    @pytest.mark.parametrize("m, n", [(1, 1), (256, 512)])
    def test_batch_equals_element_wise_calls(self, kind, logic, m, n):
        # At (256, 512) a chunk holds 7 means (9 row runs x 512 windows per
        # mean), so 20 means span two chunk boundaries.  Batches of 20 and of
        # one alternate here, and one input array, rewritten in place, serves
        # as well as a fresh array for every batch of one.
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        layout = MultiplexerLayout(m, n, logic=logic)
        tm = build_matrix(params, layout)
        if (m, n) == (256, 512):
            assert tm.row_runs.rows.shape == (9, 512)
        p1 = one_point(kind, params.v_d, tm, layout.logic)
        pairs = pairs_of_one_point(kind, params.v_d, tm, layout.logic)
        mu = np.geomspace(1e-6, 10.0, 20)
        batch = p1(mu)
        assert batch.shape == (20,)
        assert np.array_equal(pairs(mu), batch)
        one = np.empty(1)
        for value, mean in zip(batch, mu):
            one[0] = mean
            assert value == p1(one)[0]
            assert value == pairs(one)[0]
            assert value == p1(np.array([mean]))[0]
            assert value == closed_p1(PairSourceModel(kind, mean * n, n), 0.9, tm, layout)
        assert np.array_equal(p1(mu), batch)

    def test_stacked_chunks_equal_the_two_pass_formula_bit_for_bit(self):
        # Random geometries up to (256, 512), both sources and logics, and
        # batches of up to 37 means, which cross chunk boundaries at the
        # larger geometries.
        rng = np.random.default_rng(12)
        crossed = 0
        for case in range(1000):
            model, params, layout = draw_closed_form_case(rng, 8, 9, 1e-4, 10.0)
            tm = build_matrix(params, layout)
            mu = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), int(rng.integers(1, 38))))
            expected = two_pass_p1(model.kind, params.v_d, tm, layout, mu)
            for form in (one_point, pairs_of_one_point):
                actual = form(model.kind, params.v_d, tm, layout.logic)(mu)
                assert np.array_equal(actual, expected), (case, model, layout, form.__name__)
            crossed += mu.size * tm.row_runs.rows.size > 1 << 15
        assert crossed >= 100, crossed

    @pytest.mark.parametrize("kind", list(SourceKind))
    @pytest.mark.parametrize("logic", [LL, FD])
    def test_pairs_of_several_points_equal_single_point_calls(self, kind, logic):
        # Sixteen geometries from (1, 1) to (256, 512).  A round sends one mean
        # per point; a point with two peaks sends two in a row; 40 pairs in
        # random order span several chunks.  Each value is, bit for bit, the
        # one its point's own evaluator gives for that mean alone.
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        layouts = [MultiplexerLayout(m, n, logic=logic) for m in (1, 2, 16, 256) for n in (1, 8, 64, 512)]
        matrices = [build_matrix(params, layout) for layout in layouts]
        p1 = p1_evaluator(kind, params.v_d, [tm.row_runs for tm in matrices], logic)
        alone = [one_point(kind, params.v_d, tm, logic) for tm in matrices]
        rng = np.random.default_rng(25)
        mixed = rng.permutation(np.concatenate((rng.integers(0, 16, 30), np.full(10, 15))))
        rounds = [np.arange(16), np.array([0, 3, 3, 7, 8, 8, 15]), mixed]
        assert sum(matrices[i].row_runs.rows.size for i in rounds[2]) > 1 << 15
        for points in rounds:
            mu = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), points.size))
            values = p1(points, mu)
            assert values.shape == points.shape
            for i, mean, value in zip(points.tolist(), mu.tolist(), values.tolist()):
                assert value == alone[i](np.array([mean]))[0], (layouts[i], mean)

    def test_several_points_equal_the_two_pass_formula_bit_for_bit(self):
        # Random sets of up to 12 geometries up to (256, 512), plus one at
        # m = 1024 and one at m = 4096 (11 and 13 row runs), both sources and
        # logics, and up to 59 pairs in random order, which often cross chunk
        # boundaries.
        rng = np.random.default_rng(13)
        crossed, pairs_by_runs = 0, collections.Counter()
        for case in range(150):
            model, params, layout = draw_closed_form_case(rng, 8, 9, 1e-4, 10.0)
            layouts = [layout]
            for _ in range(int(rng.integers(1, 12))):
                m, n = 2 ** int(rng.integers(0, 9)), 2 ** int(rng.integers(5, 10))
                layouts.append(MultiplexerLayout(m, n, logic=layout.logic))
            for m in (1024, 4096):
                layouts.append(MultiplexerLayout(m, 2 ** int(rng.integers(5, 10)), logic=layout.logic))
            matrices = [build_matrix(params, lay) for lay in layouts]
            p1 = p1_evaluator(model.kind, params.v_d, [tm.row_runs for tm in matrices], layout.logic)
            points = rng.integers(0, len(layouts), int(rng.integers(2, 60)))
            mu = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), points.size))
            actual = p1(points, mu)
            for i, mean, value in zip(points.tolist(), mu.tolist(), actual.tolist()):
                expected = two_pass_p1(model.kind, params.v_d, matrices[i], layouts[i], np.array([mean]))[0]
                assert value == expected, (case, layouts[i], mean)
            crossed += sum(matrices[i].row_runs.rows.size for i in points) > 1 << 15
            pairs_by_runs.update(len(matrices[i].row_runs.rows) for i in points.tolist())
        assert crossed >= 20, crossed
        assert pairs_by_runs[11] >= 200 and pairs_by_runs[13] >= 200, pairs_by_runs

    def test_points_and_means_must_pair_up(self):
        tm = build_matrix(LOSSLESS, MultiplexerLayout(2, 2))
        p1 = p1_evaluator(SourceKind.POISSONIAN, 1.0, [tm.row_runs], LL)
        shapes = [
            ((2,), (3,)),
            ((1,), (1, 1)),
            ((1, 1), (1,)),
            ((2, 1), (2, 3)),
            ((1, 2), (1, 3)),
            ((2, 1, 1), (1, 1, 3)),
            ((), ()),
        ]
        for points, mu in shapes:
            with pytest.raises(ValueError, match=r"1-D arrays of one length, or of shapes \(P, 1\) and \(1, K\)"):
                p1(np.zeros(points, int), np.ones(mu))
        assert p1(np.zeros((1, 1), int), np.ones((1, 1))).shape == (1, 1)
        assert p1(np.zeros((3, 1), int), np.ones((1, 0))).shape == (3, 0)
        assert p1(np.zeros((0, 1), int), np.ones((1, 4))).shape == (0, 4)
        assert p1(np.zeros(0, int), np.ones(0)).shape == (0,)

    @pytest.mark.parametrize("outer", [False, True], ids=["pairs", "outer"])
    @pytest.mark.parametrize(
        "points, message",
        [
            ([0, -1], "point indices must be integers in \\[0, 2\\), got -1"),
            ([2, 0], "point indices must be integers in \\[0, 2\\), got 2"),
            ([0.0, 1.0], "point indices must be integers in \\[0, 2\\), got 0.0"),
            ([True, False], "point indices must be integers in \\[0, 2\\), got True"),
        ],
        ids=["negative", "past-the-end", "float", "bool"],
    )
    def test_point_indices_outside_the_geometries_rejected(self, monkeypatch, outer, points, message):
        # In a kernel of two geometries, index -1 evaluated the last one.
        p1 = self.two_geometries(monkeypatch)
        points, mu = np.array(points), np.array([0.5, 1.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            p1(points[:, None], mu[None, :]) if outer else p1(points, mu)

    @pytest.mark.parametrize("outer", [False, True], ids=["pairs", "outer"])
    @pytest.mark.parametrize(
        "bad", [-0.5, -math.inf, math.inf, math.nan, -5e-324], ids=["negative", "-inf", "inf", "nan", "-subnormal"]
    )
    def test_means_that_are_negative_or_not_finite_rejected(self, monkeypatch, outer, bad):
        # At the parent, -0.5 gave P(1) = -0.742 and inf gave NaN with a RuntimeWarning.
        p1 = self.two_geometries(monkeypatch)
        points, mu = np.array([0, 1]), np.array([1.0, bad])
        with pytest.raises(ValueError, match=f"^means must be finite and >= 0, got {bad}$"):
            p1(points[:, None], mu[None, :]) if outer else p1(points, mu)

    @staticmethod
    def two_geometries(monkeypatch):
        """The kernel of (2, 2) and (4, 8), with the cell pass patched to fail, so a check must come first."""
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        runs = [build_matrix(params, MultiplexerLayout(m, n)).row_runs for m, n in ((2, 2), (4, 8))]
        p1 = p1_evaluator(SourceKind.POISSONIAN, params.v_d, runs, LL)

        def no_work(*args):
            raise AssertionError("evaluated before the inputs were checked")

        monkeypatch.setattr(engine, "_one_photon", no_work)
        return p1

    @pytest.mark.parametrize("kind", list(SourceKind))
    @pytest.mark.parametrize("logic", [LL, FD])
    def test_outer_call_equals_single_pair_calls(self, kind, logic):
        # Sixteen geometries from (1, 1) to (256, 512).  The points of each n
        # take one outer call of the scan's 34 means, as a sweep's scan does,
        # and so do all sixteen at once; at n = 64 the four points' cells
        # cross a chunk boundary between points, at (256, 512) one point's
        # cross it between means.  Each value is, bit for bit, the one its
        # pair gives alone in a 1-D call.
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        geometries = [(m, n) for m in (1, 2, 16, 256) for n in (1, 8, 64, 512)]
        runs = [build_matrix(params, MultiplexerLayout(m, n, logic=logic)).row_runs for m, n in geometries]
        p1 = p1_evaluator(kind, params.v_d, runs, logic)
        groups = [[i for i, (_, k) in enumerate(geometries) if k == n] for n in (1, 8, 64, 512)]
        crossed = 0
        for group in [*groups, list(range(16))]:
            n = geometries[group[0]][1]
            mu = optimize._scan_grid(1e-4, 10.0 * n) / n
            values = p1(np.array(group)[:, None], mu[None, :])
            assert values.shape == (len(group), mu.size)
            for i, row in zip(group, values.tolist()):
                assert row == [p1(np.array([i]), np.array([x]))[0] for x in mu.tolist()], geometries[i]
            crossed += sum(runs[i].rows.size for i in group) * mu.size > 1 << 15
        assert sum(runs[i].rows.size for i in groups[2]) * 34 > 1 << 15
        assert runs[15].rows.size * 34 > 1 << 15
        assert crossed == 3

    def test_forty_digit_reference_decides_against_the_truncated_series(self):
        # A weak pump at the largest geometry: the adaptive series stops at
        # j_max = 2, and its truncation, amplified by W_sum ~ 7.9e3, costs it
        # 6.2e-10.  The closed form has no truncation and agrees with the
        # 40-digit value to the conditioning of p0 raised to ~1e4.
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        layout = MultiplexerLayout(128, 512)
        tm = build_matrix(params, layout)
        model = PairSourceModel(SourceKind.POISSONIAN, 0.0724, 512)
        exact = decimal_p1(model, params.v_d, tm, layout)
        closed = closed_p1(model, params.v_d, tm, layout)
        series, bound, heralded = series_p1(model, params.v_d, tm, layout)
        assert heralded.j_max == 2
        assert abs(Decimal(closed) - exact) <= Decimal("1e-13")
        assert Decimal("5e-10") <= abs(Decimal(series) - exact) <= Decimal(bound)


def batched_contract(cells, weights, starts, shapes):
    """Reference: ``engine._contract`` with every entry's window product a batched ``matmul``, one row or many."""
    run_weights = np.add.reduceat(weights, starts, axis=-1)
    terms = np.zeros((len(cells), run_weights.shape[1]))
    firsts = []
    cell_at = weight_at = term_at = 0
    for r, n, w in shapes:
        window_weights = weights[:, weight_at + w - n : weight_at + w, None]
        products = cells[:, cell_at : cell_at + r * n].reshape(-1, r, n) @ window_weights
        terms[:, term_at + 1 : term_at + 1 + r] = products[..., 0]
        firsts.append(term_at)
        cell_at, weight_at, term_at = cell_at + r * n, weight_at + w, term_at + r + 1
    terms[:, 1:] *= run_weights[:, :-1]
    return np.add.reduceat(terms, firsts, axis=-1), run_weights


class TestNumpyState:
    """Outer kernel calls run under their own ufunc buffer size, which changes no value and no caller's setting."""

    PARAMS = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
    GEOMETRIES = [(1, 1), (2, 64), (16, 8), (256, 512), (4096, 32)]

    @classmethod
    def kernel(cls, kind, logic):
        runs = optimize._row_runs(cls.PARAMS, cls.GEOMETRIES)
        return p1_evaluator(kind, cls.PARAMS.v_d, runs, logic)

    @staticmethod
    def both_forms(p1):
        """Bytes of a round of pairs over every point and of a scan of every point against 34 means."""
        points = np.array([0, 1, 1, 2, 3, 4, 4, 0])
        mu = np.geomspace(1e-5, 20.0, points.size)
        scan = optimize._scan_grid(1e-4, 80.0) / 8.0
        return p1(points, mu).tobytes(), p1(np.arange(5)[:, None], scan[None, :]).tobytes()

    def test_outer_calls_run_under_their_own_buffer_and_restore_the_callers(self, monkeypatch):
        # The outer form broadcasts its means over the cells and runs under
        # _BUFSIZE; the pairs form broadcasts no column and keeps the caller's.
        seen = []
        one_photon = engine._one_photon

        def recording(kind, y, out):
            seen.append((y.ndim, np.getbufsize()))
            return one_photon(kind, y, out)

        monkeypatch.setattr(engine, "_one_photon", recording)
        p1 = self.kernel(SourceKind.POISSONIAN, LL)
        caller = np.getbufsize()
        try:
            np.setbufsize(4096)
            self.both_forms(p1)
            assert np.getbufsize() == 4096
            assert set(seen) == {(2, 4096), (3, engine._BUFSIZE)}
            with pytest.raises(ValueError, match="means must be finite"):
                p1(np.array([0]), np.array([-1.0]))
            assert np.getbufsize() == 4096

            def failing(*args):
                raise FloatingPointError("raised inside a chunk")

            monkeypatch.setattr(engine, "_one_photon", failing)
            for points, mu in ((np.array([3]), np.array([1.0])), (np.array([[3]]), np.array([[1.0]]))):
                with pytest.raises(FloatingPointError, match="inside a chunk"):
                    p1(points, mu)
                assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)

    @pytest.mark.parametrize("kind", list(SourceKind))
    @pytest.mark.parametrize("logic", [LL, FD])
    def test_values_do_not_depend_on_any_buffer_size(self, monkeypatch, kind, logic):
        # The caller's buffer (numpy's default 8192, and 256 and 65536), and
        # the kernel's own buffer set to each of those instead of _BUFSIZE:
        # every value bit for bit the same.
        p1 = self.kernel(kind, logic)
        expected = self.both_forms(p1)
        caller = np.getbufsize()
        try:
            for size in (8192, 256, 65536):
                np.setbufsize(size)
                assert self.both_forms(p1) == expected, size
        finally:
            np.setbufsize(caller)
        for size in (8192, 256, 65536):
            monkeypatch.setattr(engine, "_BUFSIZE", size)
            assert self.both_forms(p1) == expected, size

    @pytest.mark.parametrize("logic", [LL, FD])
    def test_one_row_dot_equals_the_batched_product(self, logic):
        # One row of cells and of weights, as a round's chunk passes: each
        # entry's window product by np.dot, bit for bit the batched matmul.
        # Up to 5 entries end to end, from 1 to 13 row runs (m = 4096) and
        # from 1 to 4096 windows, 13 x 4096 among them.
        rng = np.random.default_rng(34)
        cases = [[(4096, 4096)], [(1, 1), (4096, 4096), (2, 1), (1, 4096)]]
        for _ in range(60):
            sizes = 2 ** rng.integers(0, 13, (rng.integers(1, 6), 2))
            cases.append([(int(m), int(n)) for m, n in sizes])
        shapes_seen = set()
        for geometries in cases:
            starts, shapes, exponents = [], [], []
            for runs in optimize._row_runs(self.PARAMS, geometries):
                e, s, shape = engine._geometry(runs, logic)
                starts += [at + sum(map(len, exponents)) for at in s]
                shapes.append(shape)
                exponents.append(e)
            cells = rng.uniform(0.0, 0.3, sum(r * n for r, n, _ in shapes))[None]
            weights = np.exp(-rng.uniform(1e-6, 1e-2) * np.concatenate(exponents))[None]
            actual = engine._contract(cells, weights, starts, shapes)
            expected = batched_contract(cells, weights, starts, shapes)
            assert [a.tobytes() for a in actual] == [b.tobytes() for b in expected], geometries
            shapes_seen.update((r, n) for r, n, _ in shapes)
        assert (13, 4096) in shapes_seen and len(shapes_seen) >= 60, sorted(shapes_seen)
        assert {r for r, _ in shapes_seen} >= {1, 13} and {n for _, n in shapes_seen} >= {1, 4096}
