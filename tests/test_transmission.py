"""Time-window and spatial-arm transmissions, the assembled matrix, and the count and number rules."""

import json
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
    herald_convolve,
    output_distribution,
    simulate,
    spatial_arm_transmissions,
    time_window_transmission,
)
from photonmux import montecarlo, optimize, transmission
from photonmux.cli import EXIT_CONFIG, run_sweep
from photonmux.optimize import OptimizationResult, optimize_lambda
from photonmux.tables import TABLE1_ROWS, TABLE2_ROWS
from photonmux.transmission import RowRuns, _arm_runs, _window_column


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

    def test_runs_built_directly_merge_and_keep_unmerged_arrays(self):
        a, b = [0.9, 0.8], [0.7, 0.6]
        rows, starts = np.array([a, b, a]), np.array([0, 1, 3])
        runs = RowRuns(rows=rows, starts=starts, ranks=4)
        assert runs.rows is rows and runs.starts is starts
        assert not (rows.flags.writeable or starts.flags.writeable)
        merged = RowRuns(rows=np.array([a, a, b]), starts=np.array([0, 1, 3]), ranks=4)
        assert merged.rows.tolist() == [a, b] and merged.starts.tolist() == [0, 3]
        assert not (merged.rows.flags.writeable or merged.starts.flags.writeable)

    # Starts over 4 ranks for three distinct rows.  Unchecked, the P(1) kernel
    # takes the first three and gives P(1) of no device at 1 Poissonian pair
    # per window (0.9996, 0.091 and 0.632, against 0.554 for the valid
    # [0, 1, 3]); [0, 1, 9] fails inside reduceat, the rest at evaluation.
    @pytest.mark.parametrize(
        "starts", [[0, 0, 3], [1, 2, 3], [0, 2, 1], [0, 1, 9], [0, 1, 2, 3], [], [0.0, 1.0, 2.0]], ids=str
    )
    def test_runs_refuse_starts_that_do_not_split_the_ranks(self, starts):
        rows = np.array([[0.9, 0.8], [0.7, 0.6], [0.5, 0.4]])
        with pytest.raises(ValueError):
            RowRuns(rows=rows, starts=np.array(starts), ranks=4)

    def test_runs_refuse_rows_that_are_not_a_matrix(self):
        with pytest.raises(ValueError):
            RowRuns(rows=np.array([0.9, 0.8]), starts=np.array([0, 1]), ranks=2)

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
    "output_distribution.i_max": lambda v: output_distribution(
        herald_convolve(PairSourceModel(SourceKind.POISSONIAN, 1.0, 1), 0.9),
        build_matrix(params(), MultiplexerLayout(1, 1)),
        MultiplexerLayout(1, 1),
        i_max=v,
    ),
    # At 1e-7 pairs per window, orders 1 and 4 both leave a tail below
    # tolerance, so True and np.int64(4) meet the count rule, not the tail.
    "herald_convolve.j_max": lambda v: herald_convolve(
        PairSourceModel(SourceKind.POISSONIAN, 1e-7, 1), 0.9, j_max=v
    ),
    "RowRuns.ranks": lambda v: RowRuns(rows=np.ones((1, 2)), starts=np.array([0]), ranks=v),
    "time_window_transmission.n": lambda v: time_window_transmission(params(), v, 8),
    "time_window_transmission.big_n": lambda v: time_window_transmission(params(), 1, v),
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


# Each record's own field checks, beyond the count and number rules: (build, message).
RECORD_REFUSALS = {
    "OptimizationResult.surface-empty": (lambda: OptimizationResult(surface={}), "surface must be non-empty"),
    "OptimizationResult.p1-above-1": (
        lambda: OptimizationResult(surface={(1, 1): (1.0, 0.5), (2, 4): (1.0, 1.5)}),
        r"p1 at \(2, 4\) out of \[0, 1\]: 1\.5",
    ),
    "OptimizationResult.p1-below-0": (
        lambda: OptimizationResult(surface={(2, 4): (1.0, -0.25)}),
        r"p1 at \(2, 4\) out of \[0, 1\]: -0\.25",
    ),
    "PairSourceModel.kind": (lambda: PairSourceModel("thermal", 1.0, 1), "kind must be a SourceKind, got 'thermal'"),
    "MultiplexerLayout.logic": (
        lambda: MultiplexerLayout(4, 8, "lowest_loss"),
        "logic must be a PriorityLogic, got 'lowest_loss'",
    ),
    "SweepSpec.params": (
        lambda: SweepSpec((4,), (8,), {"v_r": 0.9}),
        r"params must be a LossParameters, got \{'v_r': 0\.9\}",
    ),
    "SweepSpec.source_kind": (
        lambda: SweepSpec((4,), (8,), params(), source_kind="thermal"),
        "source_kind must be a SourceKind, got 'thermal'",
    ),
    "SweepSpec.logic": (
        lambda: SweepSpec((4,), (8,), params(), logic="first_detection"),
        "logic must be a PriorityLogic, got 'first_detection'",
    ),
    "SweepSpec.lambda_bounds-triple": (
        lambda: SweepSpec((4,), (8,), params(), lambda_bounds=(1, 2, 3)),
        r"lambda_bounds must be a \(lo, hi\) pair or None, got \(1, 2, 3\)",
    ),
    "SweepSpec.lambda_bounds-scalar": (
        lambda: SweepSpec((4,), (8,), params(), lambda_bounds=5),
        r"lambda_bounds must be a \(lo, hi\) pair or None, got 5",
    ),
}


@pytest.mark.parametrize("build, message", RECORD_REFUSALS.values(), ids=list(RECORD_REFUSALS))
def test_records_refuse_invalid_fields(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


SOURCE, LAYOUT = PairSourceModel(SourceKind.POISSONIAN, 1.0, 8), MultiplexerLayout(4, 8)
# The entry points that take records refuse anything else by name, in the
# records' own form.  Unchecked, a dict of losses failed deep inside with
# "AttributeError: 'dict' object has no attribute 'v_r_s'" and a None spec
# with "'NoneType' object has no attribute 'source_kind'".
ARGUMENT_REFUSALS = {
    "build_matrix.params-dict": (
        lambda: build_matrix({"v_r": 0.9}, LAYOUT),
        r"params must be a LossParameters, got \{'v_r': 0\.9\}",
    ),
    "build_matrix.params-none": (lambda: build_matrix(None, LAYOUT), "params must be a LossParameters, got None"),
    "build_matrix.layout-tuple": (
        lambda: build_matrix(params(), (4, 8)),
        r"layout must be a MultiplexerLayout, got \(4, 8\)",
    ),
    "simulate.model-none": (
        lambda: simulate(None, params(), LAYOUT, 10, 0),
        "model must be a PairSourceModel, got None",
    ),
    "simulate.params-dict": (
        lambda: simulate(SOURCE, {"v_r": 0.9}, LAYOUT, 10, 0),
        r"params must be a LossParameters, got \{'v_r': 0\.9\}",
    ),
    "simulate.layout-none": (
        lambda: simulate(SOURCE, params(), None, 10, 0),
        "layout must be a MultiplexerLayout, got None",
    ),
    "optimize_lambda.spec-none": (
        lambda: optimize_lambda((1, 1), None),
        "spec must be a SweepSpec, got None",
    ),
    "optimize_lambda.spec-params": (
        lambda: optimize_lambda((1, 1), params()),
        r"spec must be a SweepSpec, got LossParameters\(.*\)",
    ),
}


@pytest.mark.parametrize("call, message", ARGUMENT_REFUSALS.values(), ids=list(ARGUMENT_REFUSALS))
def test_entry_points_refuse_mistyped_arguments_before_building(monkeypatch, call, message):
    def built(*args, **kwargs):
        raise AssertionError("built before the arguments were checked")

    for module, name in ((transmission, "_ranked_arms"), (montecarlo, "spatial_arm_transmissions"), (optimize, "_solve")):
        monkeypatch.setattr(module, name, built)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# Every m and n of the built-in builders follows one size rule: a count that is
# a power of 2 up to 4096.  Unchecked, 2**40 windows loop 2**40 times, 2**40
# arms ask for an 8 TiB array, and True builds one arm.
SIZE_REFUSALS = {
    "build_matrix(1, 2**40)": lambda p: build_matrix(p, MultiplexerLayout(1, 2**40)),
    "build_matrix(2**40, 1)": lambda p: build_matrix(p, MultiplexerLayout(2**40, 1)),
    "build_matrix(8192, 1)": lambda p: build_matrix(p, MultiplexerLayout(8192, 1)),
    "spatial_arm_transmissions(True)": lambda p: spatial_arm_transmissions(p, True),
    "spatial_arm_transmissions(8192)": lambda p: spatial_arm_transmissions(p, 8192),
    "time_window_transmission(1, 2**40)": lambda p: time_window_transmission(p, 1, 2**40),
}


@pytest.mark.parametrize("build", SIZE_REFUSALS.values(), ids=list(SIZE_REFUSALS))
def test_builders_refuse_sizes_beyond_the_rule(monkeypatch, build):
    # Any window, and any arm expansion beyond 4096 arms, fails the test, so a
    # builder without the rule stops at once.
    def built(*args, **kwargs):
        raise AssertionError("built an element of a geometry beyond the size rule")

    def expand(values, counts, repeat=np.repeat):
        return built() if sum(counts) > 4096 else repeat(values, counts)

    monkeypatch.setattr(transmission, "_delay_transmission", built)
    monkeypatch.setattr(np, "repeat", expand)
    with pytest.raises(ValueError, match=r"(arm|window) count must be (a power of 2 up to 4096|an integer)"):
        build(params())


def test_builders_take_every_size_of_the_rule():
    for size in (2**i for i in range(13)):
        assert spatial_arm_transmissions(params(), np.int64(size)).size == size
        assert _arm_runs(params(), size).ranks == size
        assert _window_column(params(), size).size == size


LOSS_FIELDS = ("v_r", "v_t", "v_p", "v_p0_s", "v_d", "v_b", "v_r_s", "v_t_s")


def test_records_store_numbers_as_python_floats():
    losses = params(v_r=np.float64(0.5), v_b=1, v_t_s=np.float32(0.5))
    model = PairSourceModel(SourceKind.THERMAL, np.float64(2.0), 4)
    spec = SweepSpec((4,), (4,), losses, lambda_bounds=[0, np.int64(10)])
    assert (losses.v_r, losses.v_b, losses.v_r_s, losses.v_t_s) == (0.5, 1.0, 0.5, 0.5)
    assert (model.mean_pairs, spec.lambda_bounds) == (2.0, (0.0, 10.0))
    numbers = [getattr(losses, name) for name in LOSS_FIELDS] + [model.mean_pairs, *spec.lambda_bounds]
    assert all(type(x) is float for x in numbers)


# Values that no number site takes: a bool, a numeric string, NaN, inf and an
# int beyond the float range.  A seed is an integer of any size, so it takes 10**400.
NOT_NUMBERS = {"True": True, "'0.5'": "0.5", "nan": math.nan, "inf": math.inf, "10**400": 10**400}

ONE_PAIR = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)

# site: (call with the value, a value out of the site's range)
NUMBER_SITES = {
    **{f"LossParameters.{name}": (lambda v, name=name: params(**{name: v}), 1.5) for name in LOSS_FIELDS},
    "herald_convolve.v_d": (lambda v: herald_convolve(ONE_PAIR, v), -0.5),
    "PairSourceModel.mean_pairs": (lambda v: PairSourceModel(SourceKind.POISSONIAN, v, 1), -1.0),
    "SweepSpec.lambda_bounds[0]": (lambda v: SweepSpec((4,), (4,), params(), lambda_bounds=(v, 10.0)), -1.0),
    "SweepSpec.lambda_bounds[1]": (lambda v: SweepSpec((4,), (4,), params(), lambda_bounds=(0.0, v)), -1.0),
    "simulate.seed": (lambda v: simulate(ONE_PAIR, params(), MultiplexerLayout(1, 1), 1, v), -1),
}

NUMBER_CASES = [
    (site, label)
    for site in NUMBER_SITES
    for label in ("out_of_range", *NOT_NUMBERS)
    if not (site == "simulate.seed" and label == "10**400")
]


def refused_value(site, label):
    return NUMBER_SITES[site][1] if label == "out_of_range" else NOT_NUMBERS[label]


@pytest.mark.parametrize("site,label", NUMBER_CASES)
def test_number_refuses_non_numbers(site, label):
    field = site.split(".", 1)[1]
    with pytest.raises(ValueError) as err:
        NUMBER_SITES[site][0](refused_value(site, label))
    assert str(err.value).startswith(f"{field} "), str(err.value)


def test_seed_takes_any_integer_from_zero():
    for seed in (0, np.int64(3), 10**400):
        simulate(ONE_PAIR, params(), MultiplexerLayout(1, 1), 1, seed)


# site: (the config key its value is read from, the config entries that carry the value)
CONFIG_NUMBER_KEYS = {
    **{f"LossParameters.{name}": (name, lambda v, name=name: {"losses": {name: v}}) for name in LOSS_FIELDS},
    "PairSourceModel.mean_pairs": ("points", lambda v: {"validation": {"points": [[1, 1, v]]}}),
    "SweepSpec.lambda_bounds[0]": ("lambda_bounds", lambda v: {"lambda_bounds": [v, 10.0]}),
    "SweepSpec.lambda_bounds[1]": ("lambda_bounds", lambda v: {"lambda_bounds": [0.0, v]}),
    "simulate.seed": ("seed", lambda v: {"validation": {"seed": v}}),
}


@pytest.mark.parametrize("site,label", [case for case in NUMBER_CASES if case[0] in CONFIG_NUMBER_KEYS])
def test_config_refuses_non_numbers_at_their_key(tmp_path, capsys, site, label):
    key, entries = CONFIG_NUMBER_KEYS[site]
    config = {
        "version": 1,
        "losses": {"v_r": 0.996, "v_t": 0.97, "v_p": 0.95, "v_p0_s": 0.99, "v_d": 0.9},
        "source": "poissonian",
        "logics": ["lowest_loss"],
        "m_values": [1],
        "n_values": [1],
        "output_dir": str(tmp_path / "out"),
    }
    for name, value in entries(refused_value(site, label)).items():
        config[name] = {**config[name], **value} if name == "losses" else value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    assert run_sweep(path) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    line = int(err.removeprefix(f"{path}:").split(":")[0])
    assert path.read_text().splitlines()[line - 1].strip().startswith(f'"{key}"'), err
    assert not (tmp_path / "out").exists()
