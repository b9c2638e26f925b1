"""Pair-generation statistics and the threshold-detector heralding step."""

import math
import sys

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from photonmux import PairSourceModel, SourceKind, TruncationError, herald_convolve, pair_pmf
from photonmux.statistics import HeraldedInputDistribution, _emission_tails

THERMAL = SourceKind.THERMAL
POISSONIAN = SourceKind.POISSONIAN


def brute_force_heralding(model, v_d, j_top=60):
    """Oracle: enumerate (pair count, detected-idler count) explicitly.

    Returns (p0, pj[1..j_top]) with the click decision taken over binomial
    detector outcomes, independent of any closed form.
    """
    p0 = 0.0
    pj = np.zeros(j_top)
    pmf = pair_pmf(model, j_top)
    for k in range(j_top + 1):
        pk = pmf[k]
        p_no_click = math.comb(k, 0) * v_d**0 * (1.0 - v_d) ** k
        p0 += pk * p_no_click
        if k >= 1:
            p_click = sum(
                math.comb(k, d) * v_d**d * (1.0 - v_d) ** (k - d) for d in range(1, k + 1)
            )
            pj[k - 1] = pk * p_click
    return p0, pj


class TestPairDistribution:
    def test_zero_intensity_emits_nothing(self):
        model = PairSourceModel(POISSONIAN, 0.0, 1)
        pmf = pair_pmf(model, 3)
        assert pmf[0] == 1.0
        assert pmf[3] == 0.0

    def test_thermal_unit_mean(self):
        # mu = 1: 1^1 / 2^2
        model = PairSourceModel(THERMAL, 1.0, 1)
        assert pair_pmf(model, 1)[1] == pytest.approx(0.25, abs=1e-15)

    def test_poisson_closed_form_value(self):
        # Frozen from direct evaluation of mu^2 e^-mu / 2 at mu = 0.5.
        model = PairSourceModel(POISSONIAN, 2.0, 4)
        assert pair_pmf(model, 2)[2] == pytest.approx(0.07581633246407918, rel=1e-14)
        assert pair_pmf(model, np.int64(2))[2] == pair_pmf(model, 2)[2]

    def test_poisson_against_sampling(self):
        # Monte-Carlo cross-check of the same closed form.
        model = PairSourceModel(POISSONIAN, 2.0, 4)
        rng = np.random.default_rng(20240811)
        trials = 1_000_000
        hits = int(np.sum(rng.poisson(0.5, trials) == 2))
        p_hat = hits / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - pair_pmf(model, 2)[2]) < 4 * se

    @pytest.mark.parametrize("k_max", [2.5, 2.0, True, "2"], ids=repr)
    def test_k_max_refuses_non_counts(self, k_max):
        # Unchecked, 2.5 fails in slicing with a TypeError and True reads as k_max = 1.
        with pytest.raises(ValueError, match=r"^k_max must be an integer >= 0"):
            pair_pmf(PairSourceModel(POISSONIAN, 1.0, 1), k_max)

    def test_negative_arguments_rejected(self):
        model = PairSourceModel(POISSONIAN, 1.0, 1)
        with pytest.raises(ValueError):
            pair_pmf(model, -1)
        with pytest.raises(ValueError):
            PairSourceModel(POISSONIAN, -0.5, 1)
        with pytest.raises(ValueError):
            PairSourceModel(POISSONIAN, 1.0, 0)

    @pytest.mark.parametrize("kind", [THERMAL, POISSONIAN])
    def test_subnormal_mean_per_window_rejected(self, kind):
        # Below the smallest normal float, 1 / mu overflows and the sampler's
        # pmf turns NaN; 0 pairs and the smallest normal mean are kept.
        tiny = sys.float_info.min
        for mean_pairs, n_windows in ((1e-310, 1), (tiny, 2), (1e-300, 2**30)):
            with pytest.raises(ValueError, match="mean_pairs per window .* subnormal"):
                PairSourceModel(kind, mean_pairs, n_windows)
        for mean_pairs, n_windows in ((0.0, 1), (tiny, 1), (1e-300, 2**20)):
            assert PairSourceModel(kind, mean_pairs, n_windows).mean_pairs == mean_pairs

    @pytest.mark.parametrize("kind", [THERMAL, POISSONIAN])
    @pytest.mark.parametrize("lam,n", [(0.3, 1), (2.0, 4), (40.0, 8), (9.0, 1)])
    def test_vector_matches_scalar(self, kind, lam, n):
        # The last entry of a pmf cut at k, as a lookup of one bin computes
        # it, matches bin k of a longer pmf, whose log k! table is larger.
        model = PairSourceModel(kind, lam, n)
        pmf = pair_pmf(model, 40)
        for k in (0, 1, 5, 19, 20, 21, 33, 40):
            assert pmf[k] == pytest.approx(pair_pmf(model, k)[k], rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("kind", [THERMAL, POISSONIAN])
    def test_log_space_switch_is_seamless(self, kind):
        # Ratio P(k+1)/P(k) must follow the recurrence around k = 20.
        model = PairSourceModel(kind, 30.0, 2)  # mu = 15 keeps mass near k = 20
        mu = model.mean_per_window
        pmf = pair_pmf(model, 22)
        for k in (19, 20, 21):
            ratio = pmf[k + 1] / pmf[k]
            expected = mu / (1 + mu) if kind is THERMAL else mu / (k + 1)
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_mean_summation_matches_for_both_kinds(self):
        # Same per-window mean by direct moment summation.
        for lam, n in ((1.5, 1), (4.0, 8)):
            means = []
            for kind in (THERMAL, POISSONIAN):
                model = PairSourceModel(kind, lam, n)
                pmf = pair_pmf(model, 400)
                means.append(float(np.sum(np.arange(401) * pmf)))
            assert means[0] == pytest.approx(lam / n, abs=1e-10)
            assert means[1] == pytest.approx(lam / n, abs=1e-10)

    def test_emission_tail_matches_direct_sum(self):
        for kind in (THERMAL, POISSONIAN):
            model = PairSourceModel(kind, 3.0, 2)
            pmf = pair_pmf(model, 300)
            js = np.array([0, 1, 5, 12])
            direct = [1.0 - float(np.sum(pmf[: j + 1])) for j in js]
            assert _emission_tails(model, js) == pytest.approx(direct, abs=1e-13)


class TestPoissonianTailAgainstScipy:
    """``scipy.special.gammainc(j + 1, mu)`` is the exact Poissonian tail P(K > j)."""

    MUS = np.geomspace(1e-6, 1e3, 200)
    JS = np.arange(1, 513)

    @staticmethod
    def assert_tails_match(got, ref):
        resolved = ref >= 1e-40
        assert np.all(np.abs(got[resolved] - ref[resolved]) <= 1e-12 * ref[resolved])
        assert np.all(got[~resolved] < 1e-40)

    def test_tails_over_the_truncation_range(self):
        for mu in self.MUS:
            model = PairSourceModel(POISSONIAN, float(mu), 1)
            self.assert_tails_match(_emission_tails(model, self.JS), gammainc(self.JS + 1.0, mu))

    def test_scalar_tail(self):
        # One order at a time, as an explicit j_max asks for it.
        js = np.array([1, 2, 5, 17, 64, 200, 511, 512])
        for mu in self.MUS[::4]:
            model = PairSourceModel(POISSONIAN, float(mu), 1)
            got = np.array([_emission_tails(model, js[i : i + 1])[0] for i in range(js.size)])
            self.assert_tails_match(got, gammainc(js + 1.0, mu))

    @pytest.mark.parametrize("mu", [400.0, 450.0, 800.0, 1e12])
    def test_truncation_error_carries_tail(self, mu):
        with pytest.raises(TruncationError) as err:
            herald_convolve(PairSourceModel(POISSONIAN, mu, 1), 0.9)
        assert err.value.tail_bound == pytest.approx(gammainc(513.0, mu), rel=1e-12)

    @pytest.mark.parametrize("mu", [300.0, 800.0])
    def test_pmf_sums_to_one_at_large_mean(self, mu):
        # Guards against rounding error that builds up with k in log k!.
        pmf = pair_pmf(PairSourceModel(POISSONIAN, mu, 1), int(mu + 40.0 * math.sqrt(mu)))
        assert abs(float(np.sum(pmf)) - 1.0) <= 1e-12

    def test_adaptive_j_max_is_minimal(self):
        for mu in np.geomspace(1e-6, 300.0, 60):
            model = PairSourceModel(POISSONIAN, float(mu), 1)
            h = herald_convolve(model, 0.9)
            below = np.nonzero(gammainc(self.JS + 1.0, mu) < 1e-12)[0]
            assert h.j_max == self.JS[below[0]]


class TestHeraldConvolve:
    def test_perfect_detector_passes_source_through(self):
        model = PairSourceModel(POISSONIAN, 1.3, 2)
        h = herald_convolve(model, 1.0)
        pmf = pair_pmf(model, h.j_max)
        assert h.p0 == pytest.approx(pmf[0], rel=1e-14)
        for j in range(1, h.j_max + 1):
            assert h.pj[j - 1] == pytest.approx(pmf[j], rel=1e-13)

    def test_blind_detector_never_heralds(self):
        model = PairSourceModel(THERMAL, 2.0, 1)
        h = herald_convolve(model, 0.0)
        assert h.p0 == 1.0
        assert np.all(h.pj == 0.0)
        assert h.tail_bound == 0.0

    def test_single_pair_heralding_value(self):
        # Frozen from the brute-force oracle: 0.9 * e^-1.
        model = PairSourceModel(POISSONIAN, 1.0, 1)
        h = herald_convolve(model, 0.9)
        assert h.pj[0] == pytest.approx(0.33109149705429813, rel=1e-13)

    @pytest.mark.parametrize("kind", [THERMAL, POISSONIAN])
    @pytest.mark.parametrize("v_d", [0.3, 0.9])
    def test_matches_brute_force_enumeration(self, kind, v_d):
        model = PairSourceModel(kind, 1.7, 2)
        p0_ref, pj_ref = brute_force_heralding(model, v_d)
        h = herald_convolve(model, v_d)
        assert h.p0 == pytest.approx(p0_ref, abs=1e-13)
        for j in range(1, h.j_max + 1):
            assert h.pj[j - 1] == pytest.approx(pj_ref[j - 1], rel=1e-11, abs=1e-16)

    def test_normalization_over_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            kind = THERMAL if rng.random() < 0.5 else POISSONIAN
            n = int(rng.choice([1, 2, 8, 64]))
            model = PairSourceModel(kind, float(rng.uniform(0.0, 5.0 * n)), n)
            h = herald_convolve(model, float(rng.uniform(0.0, 1.0)))
            total = h.p0 + float(np.sum(h.pj)) + h.tail_bound
            assert abs(total - 1.0) <= 1e-12

    def test_binomial_identity_holds(self):
        # The closed-form click probability 1 - (1-v_d)^j equals the summed
        # detector convolution sum_{k<j} C(j, j-k) v_d^(j-k) (1-v_d)^k at 1e-12.
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = PairSourceModel(POISSONIAN, float(rng.uniform(0.1, 8.0)), 2)
            v_d = float(rng.uniform(0.05, 0.999))
            h = herald_convolve(model, v_d)
            pmf = pair_pmf(model, h.j_max)
            jcol = np.arange(1, h.j_max + 1)[:, None].astype(float)
            krow = np.arange(h.j_max)[None, :].astype(float)
            valid = krow < jcol
            with np.errstate(invalid="ignore"):
                log_terms = (
                    gammaln(jcol + 1.0)
                    - gammaln(np.where(valid, jcol - krow, 1.0) + 1.0)
                    - gammaln(krow + 1.0)
                    + (jcol - krow) * math.log(v_d)
                    + krow * math.log1p(-v_d)
                )
            summed = np.where(valid, np.exp(log_terms), 0.0).sum(axis=1)
            assert np.max(np.abs(h.pj - pmf[1:] * summed)) <= 1e-12

    def test_adaptive_truncation_is_minimal(self):
        model = PairSourceModel(POISSONIAN, 4.0, 2)
        h = herald_convolve(model, 0.9)
        assert h.tail_bound < 1e-12
        assert h.tail_bound == pytest.approx(1.0 - float(np.sum(pair_pmf(model, h.j_max))), abs=1e-15)
        with pytest.raises(TruncationError) as err:
            herald_convolve(model, 0.9, j_max=h.j_max - 1)
        assert err.value.tail_bound >= 1e-12

    def test_explicit_j_max_too_small_raises(self):
        model = PairSourceModel(POISSONIAN, 4.0, 1)
        with pytest.raises(TruncationError) as err:
            herald_convolve(model, 0.9, j_max=3)
        assert err.value.tail_bound > 1e-12

    def test_cap_exceeded_raises(self):
        # Thermal tails at mu = 50 stay above 1e-12 beyond the 512 cap.
        model = PairSourceModel(THERMAL, 50.0, 1)
        with pytest.raises(TruncationError):
            herald_convolve(model, 0.9)

    def test_invalid_detector_efficiency(self):
        model = PairSourceModel(POISSONIAN, 1.0, 1)
        with pytest.raises(ValueError):
            herald_convolve(model, 1.5)

    def test_distribution_invariants_enforced(self):
        with pytest.raises(ValueError):
            HeraldedInputDistribution(p0=0.5, pj=np.array([0.1]), tail_bound=0.0)
        with pytest.raises(ValueError):
            HeraldedInputDistribution(p0=1.0, pj=np.array([]), tail_bound=0.0)

    def test_nan_entries_rejected(self):
        with pytest.raises(ValueError):
            HeraldedInputDistribution(p0=0.5, pj=np.array([math.nan]), tail_bound=0.0)
        with pytest.raises(ValueError):
            HeraldedInputDistribution(p0=0.5, pj=np.array([0.5]), tail_bound=math.nan)
