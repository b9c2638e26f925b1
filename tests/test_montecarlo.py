"""Monte-Carlo sampler: determinism, priority rules, and agreement with the engine."""

import hashlib
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    build_matrix,
    herald_convolve,
    output_distribution,
    pair_pmf,
    simulate,
)
from photonmux import montecarlo
from photonmux.montecarlo import (
    CLOSING_BOUND,
    _click_probability,
    _heralded_pair_pmf,
    _simulate_block,
    _visiting_order,
)

LL = PriorityLogic.LOWEST_LOSS
FD = PriorityLogic.FIRST_DETECTION

LOSSLESS = LossParameters(v_r=1, v_t=1, v_p=1, v_p0_s=1, v_d=1, v_b=1)
ROW1 = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.9922, v_d=0.9)


def brute_force_choice(clicked, logic):
    """Oracle: scan all heralded cells in priority order."""
    cells = [(k, n) for k in range(clicked.shape[0]) for n in range(clicked.shape[1]) if clicked[k, n]]
    if not cells:
        return None
    if logic is LL:
        return min(cells)
    return min(cells, key=lambda cell: (cell[1], cell[0]))


def test_zero_intensity_is_exactly_vacuum():
    model = PairSourceModel(SourceKind.POISSONIAN, 0.0, 2)
    dist = simulate(model, ROW1, MultiplexerLayout(2, 2), trials=10_000, seed=3)
    assert dist.probs.tolist() == [1.0]


@pytest.mark.parametrize("kind", [SourceKind.POISSONIAN, SourceKind.THERMAL])
@pytest.mark.parametrize("mean_pairs, v_d", [(0.0, 0.9), (2.0, 0.0)])
def test_no_click_is_exactly_vacuum(kind, mean_pairs, v_d):
    # No pump or a blind detector: no cell ever heralds, whatever the stream.
    model = PairSourceModel(kind, mean_pairs, 2)
    params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.9922, v_d=v_d)
    assert _click_probability(model, v_d) == 0.0
    dist = simulate(model, params, MultiplexerLayout(2, 2), trials=100_000, seed=4)
    assert dist.probs.tolist() == [1.0]


DRAWS = 200_000
PRIMITIVE_CASES = [
    (kind, mu, v_d)
    for kind in (SourceKind.POISSONIAN, SourceKind.THERMAL)
    for mu in (1e-3, 0.1, 1.0, 5.0, 30.0)
    for v_d in (0.3, 0.9, 1.0)
]
PRIMITIVE_IDS = [f"{kind.value}-mu{mu:g}-vd{v_d:g}" for kind, mu, v_d in PRIMITIVE_CASES]


def source_pmf(kind, mu):
    """Single-window pair pmf up to a tail below 1e-15, and the pair numbers it covers."""
    j_max = 64
    while True:
        pmf = pair_pmf(PairSourceModel(kind, mu, 1), j_max)
        if 1.0 - pmf.sum() < 1e-15:
            return np.arange(j_max + 1), pmf
        j_max *= 2


@pytest.mark.parametrize("case", range(len(PRIMITIVE_CASES)), ids=PRIMITIVE_IDS)
def test_click_probability_matches_direct_draws(case):
    # Each trial draws its pair number from the pmf, then its click with
    # probability 1 - (1 - v_d)^K; the click rate must match h within 4 sigma.
    kind, mu, v_d = PRIMITIVE_CASES[case]
    rng = np.random.default_rng(100 + case)
    j, pmf = source_pmf(kind, mu)
    pairs = rng.choice(j, size=DRAWS, p=pmf / pmf.sum())
    rate = np.mean(rng.random(DRAWS) < 1.0 - (1.0 - v_d) ** pairs)
    h = _click_probability(PairSourceModel(kind, mu, 1), v_d)
    assert abs(rate - h) <= 4.0 * np.sqrt(h * (1.0 - h) / DRAWS), (rate, h)


def heralded_pmf(kind, mu, v_d, k_max):
    """P(K = j | click) = P(j) (1 - (1 - v_d)^j) / h for j = 0 .. k_max, from ``pair_pmf``."""
    model = PairSourceModel(kind, mu, 1)
    j = np.arange(k_max + 1)
    return pair_pmf(model, k_max) * (1.0 - (1.0 - v_d) ** j) / _click_probability(model, v_d)


@pytest.mark.parametrize("case", range(len(PRIMITIVE_CASES)), ids=PRIMITIVE_IDS)
def test_heralded_pair_pmf_matches_pair_pmf(case):
    # Entries 1 .. J to 1e-12 relative; entry 0 is 0; the closing entry
    # bounds the mass above J, summed directly, and lies below CLOSING_BOUND.
    kind, mu, v_d = PRIMITIVE_CASES[case]
    pvals = _heralded_pair_pmf(PairSourceModel(kind, mu, 1), v_d)
    top = pvals.size - 2
    # Beyond 4 J + 64 the heralded pmf is below 1e-80 in every case.
    expected = heralded_pmf(kind, mu, v_d, 4 * top + 64)
    assert pvals[0] == 0.0
    np.testing.assert_allclose(pvals[1 : top + 1], expected[1 : top + 1], rtol=1e-12, atol=0.0)
    assert np.sum(expected[top + 1 :]) <= pvals[-1] < CLOSING_BOUND


@pytest.mark.parametrize("kind", [SourceKind.POISSONIAN, SourceKind.THERMAL])
@pytest.mark.parametrize("mu", [sys.float_info.min, 1e-3, 1.0, 30.0, 1000.0, 2798.1382226597757, 5000.0])
def test_heralded_pair_pmf_entries_sum_to_one(kind, mu):
    # numpy's multinomial gives the closing category whatever rounding leaves
    # of the other entries, and refuses entries that sum to more than
    # 1 + 1e-12; the Poissonian log-pmf alone sums to 1 - 2.5e-13 at 1000
    # pairs per window and to 1 + 3.9e-12 at 5000.  At the smallest normal
    # mean, j / mu overflows from j = 4 on, where P(j) is 0.
    pvals = _heralded_pair_pmf(PairSourceModel(kind, mu, 1), 0.9)
    assert abs(1.0 - math.fsum(pvals[:-1])) <= 1e-15


def fifty_digit_heralded_pmf(mu, v_d, top):
    """``P(j) (1 - (1 - v_d)^j)`` for ``j = 1 .. top``, normalised over them, from ``P(j) = P(j - 1) mu / j``."""
    with localcontext() as ctx:
        ctx.prec = 50
        mean, miss = Decimal(mu), 1 - Decimal(v_d)
        p, entries = (-mean).exp(), []
        for j in range(1, top + 1):
            p = p * mean / j
            entries.append(p * (1 - miss**j))
        total = sum(entries)
        return [entry / total for entry in entries]


@pytest.mark.parametrize("mu", [1.0, 30.0, 1000.0, 5000.0])
def test_poissonian_heralded_pmf_entries_match_fifty_digits(mu):
    # Every entry of at least 1e-9 to 1e-14 relative.  From j log mu - mu -
    # lgamma(j + 1), which cancels terms near mu log mu, they were off by up
    # to 5.5e-14 at 30 pairs per window, 1.6e-12 at 1000 and 1.3e-11 at 5000.
    pvals = _heralded_pair_pmf(PairSourceModel(SourceKind.POISSONIAN, mu, 1), 0.9)
    expected = fifty_digit_heralded_pmf(mu, 0.9, pvals.size - 2)
    checked = [(float(entry), want) for entry, want in zip(pvals[1:-1], expected) if want >= Decimal("1e-9")]
    assert len(checked) >= 10
    for entry, want in checked:
        assert abs(Decimal(entry) - want) <= Decimal("1e-14") * want


def test_large_poissonian_mean_is_sampled():
    # A mean where the unnormalised entries sum past numpy's 1 + 1e-12 limit.
    model = PairSourceModel(SourceKind.POISSONIAN, 5000.0, 1)
    dist = simulate(model, ROW1, MultiplexerLayout(1, 1), trials=1000, seed=15)
    counts = np.rint(dist.probs * 1000)
    assert counts.sum() == 1000 and counts[0] == 0


@pytest.mark.parametrize("case", range(len(PRIMITIVE_CASES)), ids=PRIMITIVE_IDS)
def test_pairs_given_click_match_the_heralded_pmf(case):
    # One multinomial split of DRAWS heralded trials, the sampler's pair-number
    # draw: every category within 4 standard errors of the heralded pmf
    # summed from pair_pmf (the larger of the empirical and the exact binomial
    # one, as validate takes it), and no trial in the closing category.
    kind, mu, v_d = PRIMITIVE_CASES[case]
    pvals = _heralded_pair_pmf(PairSourceModel(kind, mu, 1), v_d)
    split = np.random.default_rng(200 + case).multinomial(DRAWS, pvals)
    assert split.sum() == DRAWS and split[0] == 0 and split[-1] == 0
    freq = split[:-1] / DRAWS
    expected = heralded_pmf(kind, mu, v_d, freq.size - 1)
    se = np.sqrt(np.maximum(freq * (1.0 - freq), expected * (1.0 - expected)) / DRAWS)
    assert np.all(np.abs(freq - expected) <= 4.0 * se), np.max(np.abs(freq - expected) / se)


def test_split_stream_ignores_the_zero_slot_and_j_max():
    # The multinomial draws nothing for a leading zero-probability category
    # or after its last trial, so neither the j = 0 slot nor J enters the stream.
    pvals = _heralded_pair_pmf(PairSourceModel(SourceKind.THERMAL, 1.0, 1), 0.9)
    longer = np.concatenate([pvals[:-1], np.full(5, 1e-22), [pvals[-1]]])
    draws = []
    for categories in (pvals, pvals[1:], longer):
        rng = np.random.default_rng(8)
        split = rng.multinomial(50_000, categories)
        draws.append((split[split > 0].tolist(), rng.random()))
    assert draws[0] == draws[1] == draws[2]


def test_one_survivor_call_equals_one_call_per_pair_number():
    # One binomial(j, V, size=c_j) per present pair number, in increasing
    # order, as _simulate_block draws the survivors, is bit for bit one
    # array-n call over the pair numbers each repeated c_j times; for a
    # single present j, too.
    pvals = _heralded_pair_pmf(PairSourceModel(SourceKind.POISSONIAN, 2.0, 1), 0.9)
    split = np.random.default_rng(9).multinomial(100_000, pvals)
    present = np.flatnonzero(split)
    assert present.size > 3
    one_call = np.random.default_rng(10).binomial(np.repeat(present, split[present]), 0.83)
    rng = np.random.default_rng(10)
    per_j = np.concatenate([rng.binomial(j, 0.83, size=split[j]) for j in present])
    assert np.array_equal(one_call, per_j)
    single = np.random.default_rng(10).binomial(np.repeat(2, 1000), 0.83)
    assert np.array_equal(single, np.random.default_rng(10).binomial(2, 0.83, size=1000))


def cell_factors(params, m, n):
    """The ranked arm transmissions and the window transmissions that ``simulate`` reads."""
    return montecarlo.spatial_arm_transmissions(params, m), montecarlo._window_column(params, n)


def block_over_matrix(h, pvals, matrix, logic, n_trials, rng):
    """Reference: one block walked over the entries of a built transmission matrix.

    The draws of ``_simulate_block``, in its order, with each visited cell's
    transmission read as ``matrix[k, w]``; a changed last bit of any one
    changes the survivors' stream.
    """
    hist = np.zeros(pvals.size - 1, dtype=np.int64)
    waiting = n_trials
    for k, w in _visiting_order(*matrix.shape, logic):
        if waiting == 0:
            break
        heralded = int(rng.binomial(waiting, h))
        if heralded:
            split = rng.multinomial(heralded, pvals)
            for j in split.nonzero()[0]:
                np.add.at(hist, rng.binomial(j, matrix[k, w], size=split[j]), 1)
            waiting -= heralded
    hist[0] += waiting
    return np.trim_zeros(hist, "b")


@pytest.mark.parametrize("kind", [SourceKind.POISSONIAN, SourceKind.THERMAL])
@pytest.mark.parametrize("logic", [LL, FD])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 4), (128, 512)])
def test_block_histogram_counts_every_trial(kind, logic, m, n):
    model = PairSourceModel(kind, 2.0, n)
    arms, windows = cell_factors(ROW1, m, n)
    h = _click_probability(model, ROW1.v_d)
    pvals = _heralded_pair_pmf(model, ROW1.v_d)
    hist = _simulate_block(h, pvals, arms, windows, logic, 30_000, np.random.default_rng(12))
    assert hist.sum() == 30_000 and hist[-1] > 0
    matrix = build_matrix(ROW1, MultiplexerLayout(m, n, logic=logic)).values
    assert np.array_equal(hist, block_over_matrix(h, pvals, matrix, logic, 30_000, np.random.default_rng(12)))


def test_blocks_together_count_every_trial(monkeypatch):
    # Three blocks, the last one partial.
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4096)
    model = PairSourceModel(SourceKind.THERMAL, 2.0, 4)
    dist = simulate(model, ROW1, MultiplexerLayout(2, 4), trials=10_000, seed=13)
    counts = dist.probs * 10_000
    assert np.array_equal(counts, np.rint(counts)) and np.rint(counts).sum() == 10_000


def test_block_b_draws_from_child_b_of_the_seed(monkeypatch):
    # The random stream's definition: block b samples with the b-th child that
    # SeedSequence(seed).spawn gives, however the children are spawned.
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4096)
    model = PairSourceModel(SourceKind.THERMAL, 2.0, 4)
    layout = MultiplexerLayout(2, 4)
    arms, windows = cell_factors(ROW1, 2, 4)
    h, pvals = _click_probability(model, ROW1.v_d), _heralded_pair_pmf(model, ROW1.v_d)
    expected = np.zeros(pvals.size - 1, dtype=np.int64)
    children = np.random.SeedSequence(13).spawn(3)
    for block, child in zip((4096, 4096, 1808), children):
        hist = _simulate_block(h, pvals, arms, windows, layout.logic, block, np.random.default_rng(child))
        expected[: hist.size] += hist
    dist = simulate(model, ROW1, layout, trials=10_000, seed=13)
    assert np.rint(dist.probs * 10_000).astype(np.int64).tolist() == np.trim_zeros(expected, "b").tolist()


@pytest.mark.parametrize("logic", [LL, FD])
def test_cells_read_the_entries_of_the_built_matrix(logic):
    # Each visited cell's transmission, arms[k] * windows[w], is the product
    # that np.outer forms in build_matrix, bit for bit: along the first arm,
    # along the first window and at 2000 random cells.  A block walked over
    # the factors draws, bit for bit, the block walked over the matrix's
    # entries: some 3,000 cells, several arms (lowest-loss) or windows
    # (first-detection) deep.
    rng = np.random.default_rng(21)
    names = ("v_r", "v_t", "v_p", "v_p0_s", "v_d", "v_b", "v_r_s", "v_t_s")
    params = LossParameters(**{name: float(rng.uniform(0.5, 1.0)) for name in names})
    matrix = build_matrix(params, MultiplexerLayout(256, 512, logic)).values
    arms, windows = cell_factors(params, 256, 512)
    assert (arms.size, windows.size) == matrix.shape
    visited = [(0, w) for w in range(512)] + [(k, 0) for k in range(256)]
    visited += zip(rng.integers(0, 256, 2000).tolist(), rng.integers(0, 512, 2000).tolist())
    for k, w in visited:
        assert arms[k] * windows[w] == matrix[k, w], (k, w)
    model = PairSourceModel(SourceKind.THERMAL, 2.0, 512)
    h, pvals = _click_probability(model, params.v_d), _heralded_pair_pmf(model, params.v_d)
    hist = _simulate_block(h, pvals, arms, windows, logic, 30_000, np.random.default_rng(22))
    assert hist.sum() == 30_000
    assert np.array_equal(hist, block_over_matrix(h, pvals, matrix, logic, 30_000, np.random.default_rng(22)))


@pytest.mark.parametrize("logic", [LL, FD])
def test_largest_geometry_builds_no_matrix(logic):
    # At (4096, 4096), the largest point a configuration admits, an m x n
    # matrix holds 134 MB; 1e5 trials built one and peaked at 168 MB traced.
    model = PairSourceModel(SourceKind.POISSONIAN, 4096.0, 4096)
    tracemalloc.start()
    try:
        dist = simulate(model, ROW1, MultiplexerLayout(4096, 4096, logic), trials=100_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert np.rint(dist.probs * 100_000).sum() == 100_000


@pytest.mark.parametrize("trials", [2**40 + 1, 2**62, 10**30], ids=["2**40+1", "2**62", "10**30"])
def test_trials_beyond_the_cap_rejected_before_sampling(monkeypatch, trials):
    # Uncapped, 10**30 overflows SeedSequence.spawn and 2**62 samples for ever.
    def fail(*args, **kwargs):
        raise AssertionError("built or sampled a run beyond the trials cap")

    monkeypatch.setattr(montecarlo, "spatial_arm_transmissions", fail)
    monkeypatch.setattr(montecarlo, "_window_column", fail)
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)
    with pytest.raises(ValueError, match=f"trials must be at most {2**40}, got {trials}"):
        simulate(model, ROW1, MultiplexerLayout(1, 1), trials=trials, seed=1)


def test_a_trial_in_the_closing_category_raises(monkeypatch):
    # Force every heralded trial above J = 1: the sampler must refuse, not drop them.
    monkeypatch.setattr(montecarlo, "_heralded_pair_pmf", lambda model, v_d: np.array([0.0, 0.0, 1.0]))
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 2)
    with pytest.raises(RuntimeError, match="drew more than 1 pairs"):
        simulate(model, ROW1, MultiplexerLayout(2, 2), trials=1000, seed=14)


def test_source_windows_must_match_the_layout(monkeypatch):
    # A source over 8 windows feeding a 4-window layout would be sampled at
    # the wrong per-window mean.  Nothing is built or sampled before the refusal.
    def fail(*args, **kwargs):
        raise AssertionError("built or sampled a mismatched source")

    monkeypatch.setattr(montecarlo, "spatial_arm_transmissions", fail)
    monkeypatch.setattr(montecarlo, "_window_column", fail)
    monkeypatch.setattr(montecarlo, "_simulate_block", fail)
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 8)
    with pytest.raises(ValueError, match="8 windows, but the layout has 4"):
        simulate(model, ROW1, MultiplexerLayout(2, 4), trials=1000, seed=1)


def test_lossless_passthrough_matches_poisson():
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)
    dist = simulate(model, LOSSLESS, MultiplexerLayout(1, 1), trials=1_000_000, seed=11)
    expected = np.exp(-1.0)
    std_err = np.sqrt(dist.probs[1] * (1.0 - dist.probs[1]) / 1_000_000)
    assert abs(dist.probs[1] - expected) < 4 * std_err


def test_identical_seed_reproduces_counts():
    model = PairSourceModel(SourceKind.THERMAL, 1.5, 4)
    layout = MultiplexerLayout(2, 4, logic=FD)
    a = simulate(model, ROW1, layout, trials=300_000, seed=77)
    b = simulate(model, ROW1, layout, trials=300_000, seed=77)
    assert np.array_equal(a.probs, b.probs)
    c = simulate(model, ROW1, layout, trials=300_000, seed=78)
    assert not np.array_equal(a.probs, c.probs)


# Exact counts of seeded runs of 2^16 trials, recorded once: a change that
# alters any draw of the random stream fails here.  Never re-record them to
# make a change pass; a new stream must say so and re-run every seeded check.
PINNED_TRIALS = 1 << 16
PINNED_COUNTS = [
    (SourceKind.POISSONIAN, 1, 1, 1.0, LL, 30, [26708, 21619, 11956, 4009, 1014, 197, 27, 6]),
    (SourceKind.POISSONIAN, 2, 4, 4.0, LL, 31, [2396, 36617, 18960, 5873, 1370, 267, 46, 5, 2]),
    (SourceKind.POISSONIAN, 2, 4, 4.0, FD, 32, [2497, 36692, 18763, 5917, 1332, 285, 41, 7, 2]),
    (SourceKind.POISSONIAN, 4, 8, 8.0, FD, 33, [3369, 36572, 18356, 5652, 1299, 243, 40, 5]),
    (SourceKind.POISSONIAN, 128, 512, 0.5, LL, 34, [16150, 49367, 19]),
    (SourceKind.POISSONIAN, 128, 512, 0.5, FD, 35, [17394, 48124, 18]),
    (
        SourceKind.THERMAL, 1, 1, 1.0, LL, 36,
        [34505, 14665, 8182, 4018, 2062, 1020, 512, 294, 136, 72, 39, 14, 11, 1, 3, 1, 1],
    ),
    (
        SourceKind.THERMAL, 2, 4, 4.0, LL, 37,
        [2506, 31074, 16431, 8001, 3953, 1851, 893, 435, 205, 87, 59, 16, 13, 3, 4, 4, 0, 1],
    ),
    (
        SourceKind.THERMAL, 2, 4, 4.0, FD, 38,
        [2609, 31123, 16233, 8036, 3956, 1845, 916, 424, 199, 100, 49, 21, 13, 7, 3]
        + [0, 0, 0, 0, 1, 0, 0, 1],
    ),
    (
        SourceKind.THERMAL, 4, 8, 8.0, FD, 39,
        [2947, 31368, 16257, 7756, 3828, 1705, 873, 418, 189, 109, 47, 17, 13, 3, 2, 2, 0, 1, 1],
    ),
    (SourceKind.THERMAL, 128, 512, 0.5, LL, 40, [16047, 49448, 41]),
    (SourceKind.THERMAL, 128, 512, 0.5, FD, 41, [17314, 48184, 38]),
]
# Thermal at 1000 pairs per window, where thousands of pair numbers are
# present per cell: 12,415 bins, pinned by the sha256 of their int64 bytes.
PINNED_MANY_PAIRS = (12415, "7c83555e54049d0b43f6b71876f9e9739de0028ac3d1ed0cf71eca534e7c630d")


def pinned_run(kind, m, n, mean_pairs, logic, seed):
    """Integer counts of one seeded run of PINNED_TRIALS trials."""
    model = PairSourceModel(kind, mean_pairs, n)
    dist = simulate(model, ROW1, MultiplexerLayout(m, n, logic=logic), PINNED_TRIALS, seed)
    counts = np.rint(dist.probs * PINNED_TRIALS).astype(np.int64)
    assert counts.sum() == PINNED_TRIALS
    return counts


@pytest.mark.parametrize(
    "case", PINNED_COUNTS, ids=[f"{c[0].value}-{c[1]}x{c[2]}-{c[4].value}" for c in PINNED_COUNTS]
)
def test_random_stream_is_pinned(case):
    *inputs, expected = case
    assert pinned_run(*inputs).tolist() == expected


def test_random_stream_is_pinned_with_many_pair_numbers():
    counts = pinned_run(SourceKind.THERMAL, 1, 2, 2000.0, LL, 42)
    size, digest = PINNED_MANY_PAIRS
    assert counts.size == size
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


def first_heralded(clicked, logic):
    """The cell that feeds the output: the first clicked cell of the sampler's walk."""
    return next((cell for cell in _visiting_order(*clicked.shape, logic) if clicked[cell]), None)


@pytest.mark.parametrize("logic", [LL, FD])
def test_selection_rule_matches_brute_force(logic):
    rng = np.random.default_rng(5)
    saw_heralded = saw_empty = False
    for _ in range(300):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        order = list(_visiting_order(m, n, logic))
        assert sorted(order) == [(k, w) for k in range(m) for w in range(n)]
        clicked = rng.random((m, n)) < rng.uniform(0.0, 0.3)
        expected = brute_force_choice(clicked, logic)
        assert first_heralded(clicked, logic) == expected
        saw_heralded |= expected is not None
        saw_empty |= expected is None
    assert saw_heralded and saw_empty


def test_lowest_loss_rule_selects_best_transmission():
    # Arms are ranked by descending transmission, so the chosen arm must have
    # transmission at least that of every other heralded arm.
    rng = np.random.default_rng(6)
    params = LossParameters(v_r=0.99, v_t=0.8, v_p=0.9, v_p0_s=0.95, v_d=0.7)
    layout = MultiplexerLayout(4, 2, logic=LL)
    tm = build_matrix(params, layout)
    arm_transmissions = tm.values[:, -1]
    assert len(set(arm_transmissions)) > 1
    for _ in range(200):
        clicked = rng.random((4, 2)) < 0.4
        if clicked.any():
            arm, _ = first_heralded(clicked, LL)
            heralded_arms = np.nonzero(clicked.any(axis=1))[0]
            assert all(arm_transmissions[arm] >= arm_transmissions[a] for a in heralded_arms)


@pytest.mark.parametrize("logic", [LL, FD])
@pytest.mark.parametrize("kind", [SourceKind.POISSONIAN, SourceKind.THERMAL])
def test_agreement_with_analytic_engine(logic, kind):
    model = PairSourceModel(kind, 1.0, 4)
    layout = MultiplexerLayout(2, 4, logic=logic)
    tm = build_matrix(ROW1, layout)
    empirical = simulate(model, ROW1, layout, trials=1_000_000, seed=123)
    h = herald_convolve(model, ROW1.v_d)
    analytic = output_distribution(h, tm, layout, i_max=max(empirical.i_max, 8))
    for i in range(analytic.i_max + 1):
        p_emp = empirical.probs[i] if i <= empirical.i_max else 0.0
        se = max(
            np.sqrt(p_emp * (1.0 - p_emp) / 1_000_000),
            np.sqrt(analytic.probs[i] * (1 - analytic.probs[i]) / 1_000_000),
        )
        if se == 0.0:
            assert p_emp == analytic.probs[i]
        else:
            assert abs(p_emp - analytic.probs[i]) <= 4 * se


def test_trials_validation():
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)
    with pytest.raises(ValueError):
        simulate(model, ROW1, MultiplexerLayout(1, 1), trials=0, seed=1)


@pytest.mark.parametrize("trials", [1e5, 2.5, True, "1000"])
def test_non_integral_or_boolean_trials_rejected(trials):
    model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)
    with pytest.raises(ValueError, match="trials"):
        simulate(model, ROW1, MultiplexerLayout(1, 1), trials=trials, seed=1)
