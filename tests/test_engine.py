"""Output photon-number distribution for both priority logics."""

import math

import numpy as np
import pytest

from photonmux import (
    HeraldedInputDistribution,
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PhotonNumberDistribution,
    PriorityLogic,
    SourceKind,
    TransmissionMatrix,
    build_matrix,
    herald_convolve,
    output_distribution,
    single_photon_probability,
)

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
            PhotonNumberDistribution(probs=np.array([0.5, 0.4]), i_max=1, tail_bound=0.2)
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([0.5, 0.5]), i_max=2, tail_bound=0.0)

    def test_nan_entries_rejected(self):
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([math.nan, 0.5]), i_max=1, tail_bound=0.0)
        with pytest.raises(ValueError):
            PhotonNumberDistribution(probs=np.array([0.5, 0.5]), i_max=1, tail_bound=math.nan)


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
    "p0 = 0": (HeraldedInputDistribution(p0=0.0, pj=[1.0], j_max=1, tail_bound=0.0), 5),
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
