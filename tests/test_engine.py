"""Output photon-number distribution for both priority logics, and the closed-form P(1)."""

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
from photonmux.engine import PhotonNumberDistribution, p1_evaluator
from photonmux.statistics import HeraldedInputDistribution

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
    """``p1_evaluator`` of the single geometry ``tm``, as a function of an array of means."""
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
        mu = np.geomspace(1e-6, 10.0, 20)
        batch = p1(mu)
        assert batch.shape == (20,)
        one = np.empty(1)
        for value, mean in zip(batch, mu):
            one[0] = mean
            assert value == p1(one)[0]
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
            actual = one_point(model.kind, params.v_d, tm, layout.logic)(mu)
            assert np.array_equal(actual, expected), (case, model, layout)
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
        # Random sets of up to 12 geometries up to (256, 512), both sources
        # and logics, and up to 59 pairs in random order, which often cross
        # chunk boundaries.
        rng = np.random.default_rng(13)
        crossed = 0
        for case in range(150):
            model, params, layout = draw_closed_form_case(rng, 8, 9, 1e-4, 10.0)
            layouts = [layout]
            for _ in range(int(rng.integers(1, 12))):
                m, n = 2 ** int(rng.integers(0, 9)), 2 ** int(rng.integers(5, 10))
                layouts.append(MultiplexerLayout(m, n, logic=layout.logic))
            matrices = [build_matrix(params, lay) for lay in layouts]
            p1 = p1_evaluator(model.kind, params.v_d, [tm.row_runs for tm in matrices], layout.logic)
            points = rng.integers(0, len(layouts), int(rng.integers(2, 60)))
            mu = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), points.size))
            actual = p1(points, mu)
            for i, mean, value in zip(points.tolist(), mu.tolist(), actual.tolist()):
                expected = two_pass_p1(model.kind, params.v_d, matrices[i], layouts[i], np.array([mean]))[0]
                assert value == expected, (case, layouts[i], mean)
            crossed += sum(matrices[i].row_runs.rows.size for i in points) > 1 << 15
        assert crossed >= 20, crossed

    def test_points_and_means_must_pair_up(self):
        tm = build_matrix(LOSSLESS, MultiplexerLayout(2, 2))
        p1 = p1_evaluator(SourceKind.POISSONIAN, 1.0, [tm.row_runs], LL)
        for points, mu in ((np.zeros(2, int), np.ones(3)), (np.zeros((1, 1), int), np.ones((1, 1)))):
            with pytest.raises(ValueError, match="1-D arrays of one length"):
                p1(points, mu)

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
