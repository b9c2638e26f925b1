"""Optima on the random-loss-set corpus, where P(1) often has two peaks in the pump strength.

Tier-1 raises ``UserWarning`` as an error, and the multiple-maxima warning
fires at every point picked here, so each test expects it.  A change that
moves these optima on purpose replaces the pins and reports how many points
moved, and by how much.
"""

import hashlib

import numpy as np
import pytest

import corpus
from photonmux import PriorityLogic, SourceKind, SweepSpec, optimize_lambda
from photonmux import optimize
from photonmux.engine import p1_evaluator
from test_optimize import BIMODAL_CASES, objective

P, T = SourceKind.POISSONIAN, SourceKind.THERMAL

# sha256 over the repr of [(set, source, (m, n), optimize_lambda(...)), ...]
# at every point with m*n <= 4096 whose scan sees more than one peak, in
# corpus order: sets, then sources, then grid points.
MULTI_PEAK_POINTS = 853
MULTI_PEAK_SHA256 = "cf67806b280ef5439a0fc6ee6d309394365431de2d517b275adc31db663aac7c"

# The 14 optima that rose once every peak of the scan was refined, not just
# the best scan point's: (set, source, (m, n), (lambda_opt, p1), the p1 that
# refining the best scan point alone gives).
RISES = [
    (32, P, (256, 32), (59.91450135885037, 0.4032881688515942), 0.40211010921484486),
    (46, P, (16, 64), (125.200454833406, 0.40180924443563837), 0.40150871829575024),
    (55, P, (4, 512), (3.9494402152605286, 0.6291702087511936), 0.6290084492052378),
    (1, P, (1, 256), (314.56031052038765, 0.42745787243224265), 0.42730243382214905),
    (38, P, (64, 256), (347.7435483372487, 0.422059608300166), 0.42202287100479297),
    (53, P, (256, 256), (249.14805036918915, 0.4355671039699599), 0.43556413832356894),
    (41, T, (2, 256), (2.5889567529977655, 0.4445571514035055), 0.44349785447352985),
    (47, T, (32, 128), (124.20204407359816, 0.37574285908258903), 0.3747367577574915),
    (1, T, (16, 256), (369.7745812706264, 0.35338884264709025), 0.3526914582197095),
    (1, T, (1, 512), (3.623982273707663, 0.4079504239551508), 0.40732811921357365),
    (48, T, (4, 256), (4.46574880277311, 0.5462012245588489), 0.5456999251679127),
    (41, T, (64, 32), (22.333657560008742, 0.3972034906838997), 0.3968330045193989),
    (2, T, (4, 256), (41.632571675558644, 0.5380330318598969), 0.5377191570937623),
    (25, T, (256, 512), (42.53678145067994, 0.5412640842049095), 0.5411436647932811),
]


@pytest.fixture(scope="module")
def multi_peak():
    """``(set, source, (m, n), optimum, spec)`` at every multi-peak point with m*n <= 4096.

    Each point is picked from its scan alone: one P(1) kernel per set and
    source, on the row runs that a sweep builds, and one outer scan call per
    window count, as a sweep makes.  The picked points of each set and
    source are then solved together, their peaks refined in lock-step as a
    sweep's are, each point expected to warn.
    """
    points = [(m, n) for m, n in corpus.grid_points() if m * n <= 4096]
    m_values, n_values = (tuple(sorted(set(axis))) for axis in zip(*points))
    groups = {n: np.array([i for i, (_, k) in enumerate(points) if k == n])[:, None] for _, n in points}
    means = {n: optimize._scan_grid(1e-4, 10.0 * n)[None, : optimize.COARSE_POINTS] / n for n in groups}
    optima = []
    with pytest.warns(UserWarning) as record:
        for k, params in enumerate(corpus.loss_sets()):
            runs = optimize._row_runs(params, points)
            for kind in corpus.SOURCES:
                p1 = p1_evaluator(kind, params.v_d, runs, PriorityLogic.LOWEST_LOSS)
                peaks = {}
                for n, group in groups.items():
                    peaks.update(zip(group[:, 0].tolist(), map(corpus.scan_peaks, p1(group, means[n]).tolist())))
                picked = [point for i, point in enumerate(points) if peaks[i] > 1]
                spec = SweepSpec(m_values=m_values, n_values=n_values, params=params, source_kind=kind)
                refined = optimize._solve([(spec, picked)])
                optima += [(k, kind, point, optimize_lambda(point, spec, _refined=refined), spec) for point in picked]
    assert len(record) == len(optima)
    assert all("local maxima" in str(warning.message) for warning in record)
    return optima


def test_corpus_holds_the_bimodal_cases():
    sets = corpus.loss_sets()
    assert [sets[k] for k in (48, 32, 41)] == [case[2] for case in BIMODAL_CASES]
    assert len(corpus.grid_points()) == 91


def test_multi_peak_optima_are_pinned(multi_peak):
    pinned = [(k, kind.value, point, optimum) for k, kind, point, optimum, _ in multi_peak]
    assert len(pinned) == MULTI_PEAK_POINTS
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == MULTI_PEAK_SHA256


@pytest.mark.parametrize("case", RISES, ids=[f"{c[0]}-{c[1].value}-{c[2][0]}x{c[2][1]}" for c in RISES])
def test_optima_above_the_best_scan_points_peak(case):
    k, kind, (m, n), expected, best_scan_peak = case
    spec = SweepSpec(m_values=(m,), n_values=(n,), params=corpus.loss_sets()[k], source_kind=kind)
    with pytest.warns(UserWarning, match=rf"local maxima at \(m, n\) = \({m}, {n}\)"):
        optimum = optimize_lambda((m, n), spec)
    assert optimum == expected
    assert optimum[1] > best_scan_peak


def test_no_dense_scan_point_beats_the_optimizer(multi_peak):
    sample = multi_peak[::43]
    assert len(sample) == 20
    for k, kind, (m, n), (lam, p1), spec in sample:
        dense = objective(spec, (m, n))(np.geomspace(1e-4, 10.0 * n, 1024))
        assert dense.max() <= p1 + 1e-9, (k, kind, m, n)
