"""Monte-Carlo sampler: determinism, priority rules, and agreement with the engine."""

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
from photonmux.montecarlo import _click_probability, _pairs_given_click, _visiting_order

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


@pytest.mark.parametrize("case", range(len(PRIMITIVE_CASES)), ids=PRIMITIVE_IDS)
def test_pairs_given_click_match_the_heralded_pmf(case):
    # P(K = j | click) = P(j) (1 - (1 - v_d)^j) / h, summed directly; every
    # bin up to the largest draw within 4 standard errors (the larger of the
    # empirical and the exact binomial one, as validate takes it).
    kind, mu, v_d = PRIMITIVE_CASES[case]
    model = PairSourceModel(kind, mu, 1)
    pairs = _pairs_given_click(model, v_d, np.random.default_rng(200 + case), DRAWS)
    j, pmf = source_pmf(kind, mu)
    heralded = pmf * (1.0 - (1.0 - v_d) ** j)
    expected = heralded / heralded.sum()
    assert pairs.min() >= 1 and pairs.max() <= j[-1]
    freq = np.bincount(pairs, minlength=j.size) / DRAWS
    se = np.sqrt(np.maximum(freq * (1.0 - freq), expected * (1.0 - expected)) / DRAWS)
    assert np.all(np.abs(freq - expected) <= 4.0 * se), np.max(np.abs(freq - expected) / se)


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
