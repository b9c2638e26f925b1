"""Time-window and spatial-arm transmissions and the assembled matrix."""

import math

import numpy as np
import pytest

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    SourceKind,
    SweepSpec,
    TransmissionMatrix,
    build_matrix,
    simulate,
    spatial_arm_transmissions,
    time_window_transmission,
)
from photonmux.tables import TABLE1_ROWS, TABLE2_ROWS
from photonmux.transmission import _arm_runs


def params(**kwargs):
    base = dict(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9, v_b=1.0)
    base.update(kwargs)
    return LossParameters(**base)


def delay_path_transmission(p, n, big_n):
    """Oracle: walk the binary-division delay network stage by stage.

    The required delay is big_n - n window lengths; at each doubling stage
    the photon is reflected into the delay loop if the corresponding delay
    bit is set, transmitted otherwise.
    """
    levels = big_n.bit_length() - 1
    delay = big_n - n
    value = p.v_b * p.v_p ** (delay / big_n)
    for _ in range(levels):
        value *= p.v_r if delay & 1 else p.v_t
        delay >>= 1
    return value


class TestTimeWindowTransmission:
    def test_single_window_is_basic_transmission(self):
        assert time_window_transmission(params(v_b=0.7), 1, 1) == 0.7

    def test_matches_delay_path_enumeration(self):
        # Frozen oracle value for the window needing a 5/8 delay (two
        # reflections, one transmission): 0.996^2 * 0.97 * 0.95^(5/8).
        p = params()
        assert delay_path_transmission(p, 3, 8) == pytest.approx(0.9318964652340744, rel=1e-15)
        assert time_window_transmission(p, 3, 8) == pytest.approx(0.9318964652340744, rel=1e-13)
        for big_n in (2, 4, 16, 128):
            for n in range(1, big_n + 1):
                assert time_window_transmission(p, n, big_n) == pytest.approx(
                    delay_path_transmission(p, n, big_n), rel=1e-13
                )

    def test_last_window_needs_no_delay(self):
        p = params(v_r=1.0, v_t=1.0)
        assert time_window_transmission(p, 4, 4) == 1.0

    def test_propagation_exponents_at_extremes(self):
        p = params(v_r=1.0, v_t=1.0, v_b=1.0)
        big_n = 16
        assert time_window_transmission(p, big_n, big_n) == 1.0
        assert time_window_transmission(p, 1, big_n) == pytest.approx(
            p.v_p ** ((big_n - 1) / big_n), rel=1e-15
        )

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            time_window_transmission(params(), 0, 8)
        with pytest.raises(ValueError):
            time_window_transmission(params(), 9, 8)
        with pytest.raises(ValueError):
            time_window_transmission(params(), 1, 3)


class TestSpatialArmTransmissions:
    def test_single_arm_is_lossless(self):
        assert spatial_arm_transmissions(params(), 1).tolist() == [1.0]

    def test_two_arms_one_level(self):
        arms = spatial_arm_transmissions(params(v_p0_s=0.99), 2)
        assert arms == pytest.approx([0.98604, 0.9603], rel=1e-14)

    def test_symmetric_splitter_makes_equal_arms(self):
        arms = spatial_arm_transmissions(params(v_r_s=0.98, v_t_s=0.98, v_p0_s=0.99), 4)
        assert np.allclose(arms, 0.99**2 * 0.98**2, rtol=1e-14)
        # Bit-equal arms, so the router tree is one run of rows at every size.
        for v in (0.98, 0.99, 0.6604820588621533):
            p = params(v_r_s=v, v_t_s=v)
            for m in (2**i for i in range(1, 9)):
                arms = spatial_arm_transmissions(p, m)
                assert np.all(arms == arms[0]), (v, m)
                runs = _arm_runs(p, m)
                assert runs.rows.tolist() == [[arms[0]]] and runs.starts.tolist() == [0], (v, m)

    @pytest.mark.parametrize("m", [2, 8, 64])
    def test_multiset_sums_to_binomial_expansion(self, m):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v_r_s, v_t_s = rng.uniform(0.5, 1.0, size=2)
            p = params(v_r_s=float(v_r_s), v_t_s=float(v_t_s), v_p0_s=1.0)
            levels = m.bit_length() - 1
            assert np.sum(spatial_arm_transmissions(p, m)) == pytest.approx(
                (v_r_s + v_t_s) ** levels, abs=1e-12
            )

    def test_sorted_descending_even_when_transmission_dominates(self):
        for v_r_s, v_t_s in ((0.996, 0.97), (0.97, 0.996), (0.98, 0.98)):
            arms = spatial_arm_transmissions(params(v_r_s=v_r_s, v_t_s=v_t_s), 16)
            assert np.all(np.diff(arms) <= 0)
            assert arms[0] == pytest.approx(0.99**4 * max(v_r_s, v_t_s) ** 4, rel=1e-14)

    def test_arm_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            spatial_arm_transmissions(params(), 3)


class TestBuildMatrix:
    def test_trivial_layout(self):
        tm = build_matrix(params(v_b=1.0), MultiplexerLayout(1, 1))
        assert tm.values.tolist() == [[1.0]]

    def test_lossless_system_is_all_ones(self):
        p = LossParameters(v_r=1, v_t=1, v_p=1, v_p0_s=1, v_d=1, v_b=1)
        tm = build_matrix(p, MultiplexerLayout(4, 8))
        assert np.all(tm.values == 1.0)

    def test_entries_are_componentwise_products(self):
        p = params()
        layout = MultiplexerLayout(2, 2)
        tm = build_matrix(p, layout)
        arms = spatial_arm_transmissions(p, 2)
        for k in range(2):
            for n in range(2):
                expected = arms[k] * time_window_transmission(p, n + 1, 2)
                assert tm.values[k, n] == expected

    def test_equals_outer_product_of_the_per_element_builders(self):
        # Bit for bit, for every power-of-two geometry up to (256, 512), on the
        # 19 reference loss sets and on random ones.
        rng = np.random.default_rng(512)
        names = ["v_r", "v_t", "v_p", "v_p0_s", "v_d", "v_b", "v_r_s", "v_t_s"]
        loss_sets = [row.losses() for row in TABLE1_ROWS + TABLE2_ROWS]
        loss_sets += [
            LossParameters(**{name: float(rng.uniform(0.5, 1.0)) for name in names}) for _ in range(20)
        ]
        for p in loss_sets:
            for big_n in (2**i for i in range(10)):
                windows = [time_window_transmission(p, n, big_n) for n in range(1, big_n + 1)]
                for m in (2**i for i in range(9)):
                    expected = np.outer(spatial_arm_transmissions(p, m), windows)
                    assert np.array_equal(build_matrix(p, MultiplexerLayout(m, big_n)).values, expected)

    def test_arm_order_records_relabeling(self):
        # Reflection no longer dominant: the canonical enumeration reverses.
        tm = build_matrix(params(v_r_s=0.9, v_t_s=0.99), MultiplexerLayout(4, 1))
        assert tm.arm_order == (3, 1, 2, 0)
        tm_tie = build_matrix(params(v_r_s=0.98, v_t_s=0.98), MultiplexerLayout(4, 1))
        assert tm_tie.arm_order == (0, 1, 2, 3)

    def test_monotone_in_every_loss_parameter(self):
        rng = np.random.default_rng(5)
        layout = MultiplexerLayout(4, 8)
        names = ["v_r", "v_t", "v_p", "v_p0_s", "v_b", "v_r_s", "v_t_s"]
        for _ in range(10):
            values = {name: float(rng.uniform(0.5, 0.95)) for name in names}
            base = LossParameters(v_d=0.9, **values)
            reference = build_matrix(base, layout).values
            for name in names:
                bumped = dict(values)
                bumped[name] = min(values[name] + 0.02, 1.0)
                improved = build_matrix(LossParameters(v_d=0.9, **bumped), layout).values
                assert np.all(improved >= reference - 1e-15)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            TransmissionMatrix(values=np.array([[1.2]]), arm_order=(0,))
        with pytest.raises(ValueError):
            TransmissionMatrix(values=np.ones((2, 2)), arm_order=(0,))
        with pytest.raises(ValueError):
            TransmissionMatrix(values=np.ones(3), arm_order=(0, 1, 2))

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError):
            TransmissionMatrix(values=np.array([[math.nan, 0.5]]), arm_order=(0,))

    @pytest.mark.parametrize("m", [1, 2, 8, 256])
    def test_router_tree_has_one_run_per_reflection_count(self, m):
        levels = m.bit_length() - 1
        runs = build_matrix(params(v_r_s=0.99, v_t_s=0.98), MultiplexerLayout(m, 4)).row_runs
        lengths = [math.comb(levels, q) for q in range(levels, -1, -1)]
        assert runs.starts.tolist() == np.concatenate(([0], np.cumsum(lengths)[:-1])).tolist()

    def test_row_runs_merge_only_adjacent_equal_rows(self):
        a, b = [0.9, 0.8], [0.7, 0.6]
        tm = TransmissionMatrix(values=np.array([a, a, b, a]), arm_order=(0, 1, 2, 3))
        runs = tm.row_runs
        assert runs.rows.tolist() == [a, b, a]
        assert runs.starts.tolist() == [0, 2, 3]
        assert tm.row_runs is runs

    def test_row_runs_are_read_only_whether_or_not_rows_merge(self):
        # With no equal neighbours the runs are the matrix rows themselves.
        a, b = [0.9, 0.8], [0.7, 0.6]
        for values, n_runs in (([a, b, a], 3), ([a, a, b], 2)):
            runs = TransmissionMatrix(values=np.array(values), arm_order=(0, 1, 2)).row_runs
            assert len(runs.starts) == n_runs
            assert not runs.rows.flags.writeable
            assert not runs.starts.flags.writeable

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            MultiplexerLayout(0, 4)
        # Non-power-of-two sizes are valid layouts (generic matrices), but
        # the built-in builder rejects them.
        layout = MultiplexerLayout(3, 5)
        with pytest.raises(ValueError):
            build_matrix(params(), layout)

    def test_loss_parameter_validation(self):
        with pytest.raises(ValueError):
            LossParameters(v_r=1.1, v_t=0.9, v_p=0.9, v_p0_s=0.9, v_d=0.9)
        p = LossParameters(v_r=0.99, v_t=0.9, v_p=0.9, v_p0_s=0.9, v_d=0.9)
        assert p.v_r_s == 0.99 and p.v_t_s == 0.9


# Every size the package takes is a count, an integer >= 1, checked by one rule.
COUNT_SITES = {
    "MultiplexerLayout.m": lambda v: MultiplexerLayout(v, 4),
    "MultiplexerLayout.n": lambda v: MultiplexerLayout(4, v),
    "PairSourceModel.n_windows": lambda v: PairSourceModel(SourceKind.POISSONIAN, 1.0, v),
    "SweepSpec.m_values": lambda v: SweepSpec(m_values=(v,), n_values=(4,), params=params()),
    "SweepSpec.n_values": lambda v: SweepSpec(m_values=(4,), n_values=(v,), params=params()),
    "simulate.trials": lambda v: simulate(
        PairSourceModel(SourceKind.POISSONIAN, 1.0, 1), params(), MultiplexerLayout(1, 1), v, seed=1
    ),
}


@pytest.mark.parametrize("site", COUNT_SITES)
@pytest.mark.parametrize("value", [2.0, True, 2.5, "2", 0], ids=repr)
def test_count_refuses_non_counts(site, value):
    # A float is refused even when integral, and True would otherwise mean 1.
    with pytest.raises(ValueError):
        COUNT_SITES[site](value)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_takes_numpy_integers(site):
    COUNT_SITES[site](np.int64(4))


def test_records_store_counts_as_python_ints():
    layout = MultiplexerLayout(np.int64(4), np.int64(8))
    model = PairSourceModel(SourceKind.THERMAL, 1.0, np.int64(8))
    assert (layout.m, layout.n, model.n_windows) == (4, 8, 8)
    assert all(type(x) is int for x in (layout.m, layout.n, model.n_windows))
