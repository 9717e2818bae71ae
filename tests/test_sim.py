import csv
import io
import math
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mevauction import (
    deviation_payoff_grid,
    expected_revenue,
    run_many,
    simulate,
    solve_strategy,
    values,
)
from mevauction.equilibrium import PiecewiseStrategy
from mevauction.errors import DomainError, ParameterError
from mevauction.rng import stream
from mevauction.simulate import (CHUNK, _TRACE_ROWS, _chunk_sizes, _play, _rival_chunk,
                                 _simulate_chunk, _top_draws, _usable_cpus)
from mevauction.synthetic import SyntheticSpec, generate_chunks
from mevauction.values import affiliated_signal, rival_max_cdf, top_value_cdf, top_value_mean
from scipy.special import ndtr
from scipy.stats import chi2_contingency, chisquare, kstest

from conftest import curve_for, make_profile, marginal_quantile
from test_acceptance import BEST_RESPONSE_PROFILES, FLAGSHIP, SIM_MATRIX

# the acceptance simulation matrix plus the benchmark's two simulate profiles
KERNEL_PROFILES = SIM_MATRIX + [(make_profile(n=50), 0.2)]


def _priced_everywhere(strategy, values):
    # both branches on every value: the bid rule with no shortcut
    return np.where(values >= strategy.cutoff, strategy.gamma * values,
                    strategy.curve.bid(values))


def _draw_top(profile, key, shape, antithetic):
    """The top values ``_play`` draws on ``stream(*key, 0)``: the common
    factors first (the antithetic half flips only them), then the top draws
    of ``_top_draws``; and the stream, for the winners drawn after them."""
    rng = stream(*key, 0)
    rows = shape[0]
    Z = rng.standard_normal(rows // 2 if antithetic else rows)
    if antithetic:
        Z = np.concatenate([Z, -Z])
    top_u = _top_draws(rng, math.prod(shape), profile.n)
    z = affiliated_signal(Z.reshape(Z.shape + (1,) * (len(shape) - 1)), top_u.reshape(shape),
                          profile.rho)
    return np.exp(profile.mu + profile.sigma * z), rng


def _blocks(strategy, profile, seed, size):
    """The per-block arrays of one kernel chunk (its traced form, which keeps
    them all), checked for frontrun => defect."""
    _, bid, value, defect, frontrun, revenue, surplus = _simulate_chunk(
        strategy, profile, seed, 0, size, False, keep=size).blocks
    assert not np.any(frontrun & ~defect)
    return bid, value, defect, frontrun, revenue, surplus


class TestRunBlock:
    """The rules of a block, on every block of a kernel chunk."""

    def test_no_defection_collects_bid(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.0, curve=curve)
        bid, value, defect, frontrun, revenue, surplus = _blocks(strat, profile, 3, 5_000)
        assert not defect.any() and not frontrun.any()
        np.testing.assert_array_equal(revenue, bid)
        np.testing.assert_array_equal(surplus, value - bid)

    def test_safe_winner_never_frontrun(self, solved):
        profile, curve = solved(n=4, rho=0.3, gamma=0.95)
        # cutoff at the grid bottom: every winner bids the deterrence level
        strat = PiecewiseStrategy(curve=curve, cutoff=curve.v_min,
                                  gamma=0.95, epsilon=0.95)
        bid, _, defect, frontrun, revenue, _ = _blocks(strat, profile, 5, 20_000)
        assert defect.mean() > 0.9
        assert not frontrun.any()
        np.testing.assert_array_equal(revenue, bid)

    def test_risky_winner_frontrun_when_binding(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        strat = solve_strategy(profile, 0.5, curve=curve)
        assert strat.cutoff == math.inf  # risky everywhere, threat binds everywhere
        _, value, defect, frontrun, revenue, surplus = _blocks(strat, profile, 6, 50_000)
        np.testing.assert_array_equal(frontrun, defect)
        assert frontrun.mean() == pytest.approx(0.5, abs=0.01)
        np.testing.assert_array_equal(revenue[frontrun], 0.95 * value[frontrun])
        assert np.all(surplus[frontrun] == 0.0)


class TestRunMany:
    def test_realized_defection_rate_binomial(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        blocks = 1_000_000
        report = run_many(strat, profile, blocks, seed=77)
        assert abs(report.defection_rate_realized - 0.2) < 3 * math.sqrt(0.2 * 0.8 / blocks)

    def test_accounting_identity(self, flagship, tmp_path):
        # revenue + surplus = value, less the frontrun haircut; nothing leaks
        profile, curve = flagship
        strat = solve_strategy(profile, 0.4, curve=curve)
        trace = tmp_path / "trace.csv"
        run_many(strat, profile, 4000, seed=13, trace_path=trace, trace_cap=4000)
        rows = np.genfromtxt(trace, delimiter=",", names=True)
        value = rows["winner_value"]
        keep = value - (1.0 - profile.gamma) * value * rows["frontran"]
        np.testing.assert_allclose(
            rows["builder_revenue"] + rows["searcher_surplus"], keep, rtol=1e-10
        )
        assert np.all(rows["frontran"] <= rows["defected"])

    def test_revenue_increases_with_defection_when_binding(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.998)
        reports = [
            run_many(solve_strategy(profile, e, curve=curve), profile, 300_000, seed=21)
            for e in (0.0, 0.5, 0.99)
        ]
        for lo, hi in zip(reports, reports[1:]):
            sigma = math.hypot(lo.stderr_builder_revenue, hi.stderr_builder_revenue)
            assert hi.mean_builder_revenue - lo.mean_builder_revenue > 3 * sigma

    def test_seed_determinism(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        a = run_many(strat, profile, 70_000, seed=99)
        b = run_many(strat, profile, 70_000, seed=99)
        assert a == b

    def test_worker_count_invariance(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        serial = run_many(strat, profile, 150_000, seed=31, workers=1)
        threaded = run_many(strat, profile, 150_000, seed=31, workers=4)
        default = run_many(strat, profile, 150_000, seed=31)
        assert serial == threaded == default

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    def test_traced_run_sums_equal_untraced(self, flagship, tmp_path, antithetic):
        # only a traced chunk draws its winners' indices, the last draw on its
        # value stream, so tracing moves no other draw: chunk 0 traced in
        # full, chunk 1 in part and chunk 2 not at all give the untraced sums
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        blocks, cap, trace = 2 * CHUNK + 4096, CHUNK + 1000, tmp_path / "trace.csv"
        untraced = run_many(strat, profile, blocks, seed=17, antithetic=antithetic)
        traced = run_many(strat, profile, blocks, seed=17, antithetic=antithetic,
                          trace_path=trace, trace_cap=cap)
        assert traced == untraced
        winners = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=1)
        assert winners.shape == (cap,) and set(np.unique(winners)) == set(range(profile.n))

    def test_trace_text_is_csv_writer_text(self, flagship, tmp_path):
        # the trace byte for byte: two workers, a cap past the first chunk
        # and past one more slice of _TRACE_ROWS rows, and the per-block
        # arrays written by csv.writer, floats to 12 significant digits and
        # booleans as 0/1
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        blocks, cap, trace = CHUNK + 5000, CHUNK + 4100, tmp_path / "trace.csv"
        assert _TRACE_ROWS < cap - CHUNK < blocks - CHUNK
        run_many(strat, profile, blocks, seed=23, workers=2, trace_path=trace, trace_cap=cap)
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["block", "winner_index", "winning_bid", "winner_value", "defected",
                         "frontran", "builder_revenue", "searcher_surplus"])
        start = 0
        for i, size in enumerate(_chunk_sizes(blocks)):
            keep = min(size, cap - start)
            winner, bid, value, defect, frontrun, revenue, surplus = _simulate_chunk(
                strat, profile, 23, i, size, False, keep=keep).blocks
            writer.writerows(
                (start + j, w, "%.12g" % b, "%.12g" % v, int(d), int(f), "%.12g" % r,
                 "%.12g" % s)
                for j, (w, b, v, d, f, r, s) in enumerate(zip(
                    winner.tolist(), bid.tolist(), value.tolist(), defect.tolist(),
                    frontrun.tolist(), revenue.tolist(), surplus.tolist())))
            start += size
        got, want = trace.read_text().splitlines(True), text.getvalue().splitlines(True)
        # the first differing line: pytest's diff of two texts this long takes minutes
        assert len(got) == len(want) == cap + 1
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None

    @pytest.mark.parametrize("cpus,blocks,pool", [(1, 3 * CHUNK, None), (2, 3 * CHUNK, 2),
                                                  (4, 3 * CHUNK, 3), (4, CHUNK, None)],
                             ids=["one-cpu", "two-cpus", "capped-at-chunks", "one-chunk"])
    def test_default_workers_are_the_usable_cpus(self, flagship, monkeypatch, cpus, blocks,
                                                 pool):
        # one worker per usable CPU, at most one per chunk; no pool for one
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        started = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(values, "ThreadPoolExecutor", Recording)
        report = run_many(strat, profile, blocks, seed=31)
        assert started == ([] if pool is None else [pool])
        assert report == run_many(strat, profile, blocks, seed=31, workers=1)

    @pytest.mark.parametrize("fault", ["chunk", "trace"])
    def test_no_thread_outlives_a_raising_run(self, flagship, monkeypatch, tmp_path, fault):
        # the pool's threads are joined before the exception reaches the
        # caller, whether a pooled chunk or the trace writer on the calling
        # thread raised
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        simulate_chunk = simulate._simulate_chunk

        def chunk(strategy, profile, seed, i, *args, **kwargs):
            if i == 1:
                raise RuntimeError("chunk")
            return simulate_chunk(strategy, profile, seed, i, *args, **kwargs)

        def write_trace(file, start, blocks):
            raise RuntimeError("trace")

        if fault == "chunk":
            monkeypatch.setattr(simulate, "_simulate_chunk", chunk)
        else:
            monkeypatch.setattr(simulate, "_write_trace", write_trace)
        before = threading.active_count()
        try:
            run_many(strat, profile, 6 * CHUNK, seed=3, workers=2,
                     trace_path=tmp_path / "trace.csv", trace_cap=CHUNK)
        except RuntimeError as exc:
            assert str(exc) == fault
            assert threading.active_count() == before
        else:
            pytest.fail("run_many did not raise")

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert _usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_cpus() == (os.cpu_count() or 1)

    def test_antithetic_agrees(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        plain = run_many(strat, profile, 200_000, seed=8)
        anti = run_many(strat, profile, 200_000, seed=8, antithetic=True)
        z = (plain.mean_builder_revenue - anti.mean_builder_revenue) / math.hypot(
            plain.stderr_builder_revenue, anti.stderr_builder_revenue
        )
        assert abs(z) < 4.0

    def test_antithetic_stderr_is_that_of_the_pair_means(self, flagship, tmp_path):
        # blocks j and j + size/2 of a chunk share one common factor, negated,
        # so the independent draws are their pair means; two chunks, traced
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        blocks, trace = CHUNK + 4096, tmp_path / "trace.csv"
        report = run_many(strat, profile, blocks, seed=8, antithetic=True,
                          trace_path=trace, trace_cap=blocks)
        rows = np.loadtxt(trace, delimiter=",", skiprows=1)
        assert rows.shape == (blocks, 8)
        for column, mean, stderr in (
                (6, report.mean_builder_revenue, report.stderr_builder_revenue),
                (7, report.mean_searcher_surplus, report.stderr_searcher_surplus)):
            pairs = np.concatenate([0.5 * (c[:c.size // 2] + c[c.size // 2:])
                                    for c in np.split(rows[:, column], [CHUNK])])
            assert mean == pytest.approx(pairs.mean(), rel=1e-10)
            assert stderr == pytest.approx(pairs.std(ddof=1) / math.sqrt(pairs.size),
                                           rel=1e-9)

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_flat_in_blocks(self, flagship):
        # each chunk is reduced as it is drawn, so the peak is O(chunk)
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)

        def peak(blocks):
            return self._peak(lambda: run_many(strat, profile, blocks, seed=3, workers=1))

        assert peak(12 * CHUNK) <= 1.1 * peak(2 * CHUNK)

    def test_memory_bounded_per_worker(self, flagship):
        # each worker plays one chunk at a time and hands back its moments,
        # so two workers on 12 chunks hold about two chunks' working memory
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        one = self._peak(lambda: run_many(strat, profile, 2 * CHUNK, seed=3, workers=1))
        two = self._peak(lambda: run_many(strat, profile, 12 * CHUNK, seed=3, workers=2))
        assert two <= 2 * 1.1 * one

    def test_traced_memory_flat_in_blocks_with_two_workers(self, flagship, tmp_path):
        # a traced chunk holds its per-block arrays until they are written,
        # so the chunks ahead of the trace writer are bounded, not all chunks.
        # Four traced chunks fill the window of two per worker that the
        # untraced chunks get, so they show all the memory that window would
        # add to traced chunks; more chunks cost time (a traced chunk takes
        # about a second under tracemalloc) and check nothing more
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        trace = tmp_path / "trace.csv"

        def peak(blocks):
            return self._peak(lambda: run_many(strat, profile, blocks, seed=3, workers=2,
                                               trace_path=trace, trace_cap=blocks))

        assert peak(4 * CHUNK) <= 1.1 * peak(2 * CHUNK)

    def test_traced_memory_near_untraced(self, flagship, tmp_path):
        # the trace is formatted in row slices, so tracing every block of a
        # run costs little memory beyond the untraced run
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        trace = tmp_path / "trace.csv"
        untraced = self._peak(lambda: run_many(strat, profile, 2 * CHUNK, seed=3, workers=1))
        traced = self._peak(lambda: run_many(strat, profile, 2 * CHUNK, seed=3, workers=1,
                                             trace_path=trace, trace_cap=2 * CHUNK))
        assert traced <= 2.5 * untraced

    def test_chunk_memory_near_its_draw_matrix(self, solved):
        # only the winner gets a signal and a value, so one n=50 chunk peaks
        # near its (CHUNK, 50) matrix of draws, not at several such matrices;
        # only the top draws are sampled, so it stays below half that matrix
        # and no higher than an n=5 chunk
        def peak(n):
            profile, curve = solved(n=n)
            strat = solve_strategy(profile, 0.2, curve=curve)
            return self._peak(lambda: _simulate_chunk(strat, profile, 1, 0, CHUNK, False))

        peak50 = peak(50)
        assert peak50 <= 1.5 * CHUNK * 50 * 8
        assert peak50 < 0.5 * CHUNK * 50 * 8
        assert peak50 <= 1.1 * peak(5)

    def test_rejects_zero_blocks(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        with pytest.raises(ParameterError):
            run_many(strat, profile, 0, seed=1)

    def test_rejects_negative_workers(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        with pytest.raises(ParameterError):
            run_many(strat, profile, 1000, seed=1, workers=-3)

    def test_rejects_negative_trace_cap(self, flagship, tmp_path):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        trace = tmp_path / "trace.csv"
        with pytest.raises(ParameterError):
            run_many(strat, profile, 1000, seed=1, trace_path=trace, trace_cap=-5)
        assert not trace.exists()


def _control_variate_mean(strategy, profile, blocks, seed):
    """(adjusted mean, stderr) of the per-block builder revenue R of a run,
    regressed on the control C = gamma * v_(1), whose mean is known exactly.

    R = C on every deterrence and every frontrun block, so the regression is
    done on D = R - C, which is zero there: the adjusted mean is
    E[C] + mean(D) - (beta - 1)(mean(C) - E[C]) with beta - 1 = cov(D, C) / var(C).
    """
    gamma = strategy.gamma
    revenue, control = [], []
    for i, size in enumerate(_chunk_sizes(blocks)):
        _, _, value, _, _, rev, _ = _simulate_chunk(strategy, profile, seed, i, size, False,
                                                    keep=size).blocks
        revenue.append(rev)
        control.append(gamma * value)
    control = np.concatenate(control)
    d = np.concatenate(revenue) - control
    c_dev, d_dev = control - control.mean(), d - d.mean()
    slope = np.dot(d_dev, c_dev) / np.dot(c_dev, c_dev)  # beta - 1
    expected_control = gamma * top_value_mean(profile)
    adjusted = expected_control + d.mean() - slope * (control.mean() - expected_control)
    residual = d_dev - slope * c_dev
    return adjusted, math.sqrt(np.dot(residual, residual) / (blocks - 2) / blocks)


class TestControlVariate:
    """Criterion 6 at control-variate precision.  Builder revenue is exactly
    gamma * v_(1) on the deterrence branch and on frontrun blocks, and
    E[gamma * v_(1)] is closed form, so regressing on that control cuts the
    standard error to about 3e-11 (flagship) and 2e-7 (n=50) of the mean.
    At that precision the quadrature's own error shows, so the bound adds
    the revenue panels' closed-form tolerance, 1e-9 relative."""

    @pytest.mark.parametrize("profile,epsilon,blocks", [(FLAGSHIP, 0.2, 1_000_000),
                                                        (make_profile(n=50), 0.2, 250_000)],
                             ids=["flagship", "n50"])
    def test_adjusted_mean_matches_quadrature(self, profile, epsilon, blocks):
        strat = solve_strategy(profile, epsilon, curve=curve_for(profile))
        quadrature = expected_revenue(epsilon, strat, profile)
        adjusted, se = _control_variate_mean(strat, profile, blocks, seed=271828)
        assert 0 < se < 1e-6 * quadrature
        gap = abs(adjusted - quadrature)
        assert gap <= 6 * se + 1e-9 * abs(quadrature), (
            f"adjusted mean {adjusted!r} is {gap / se:.1f} SE from the quadrature "
            f"{quadrature!r} (SE {se / quadrature:.2e} relative)")


@pytest.mark.parametrize("entry", ["run_many", "run_many-trace", "deviation_payoff_grid",
                                   "generate_chunks"])
def test_negative_seed_rejected_before_any_draw(flagship, tmp_path, entry):
    profile, curve = flagship
    strat = solve_strategy(profile, 0.2, curve=curve)
    trace = tmp_path / "trace.csv"
    calls = {
        "run_many": lambda: run_many(strat, profile, 1000, seed=-1),
        "run_many-trace": lambda: run_many(strat, profile, 1000, seed=-1, trace_path=trace),
        "deviation_payoff_grid": lambda: deviation_payoff_grid(
            marginal_quantile(0.5), [1.0, 2.0], strat, profile, blocks=1000, seed=-1),
        "generate_chunks": lambda: generate_chunks(
            [SyntheticSpec(profile=profile, epsilon=0.2, strategy=strat)], 10, seed=-1),
    }
    with pytest.raises(ParameterError, match=r"^seed must be >= 0$"):
        calls[entry]()
    assert not trace.exists()


PLAY_SHAPES = pytest.mark.parametrize("shape,antithetic", [((CHUNK,), False),
                                                         ((CHUNK // 2, 2), False),
                                                         ((CHUNK,), True)],
                                      ids=["plain", "two-per-block", "antithetic"])
KS_P_MIN = 1e-3  # every KS and chi-square test below runs on fixed seeds


def _iid_samples(values, shape, antithetic):
    """Independent samples of one auction's value out of a ``_play`` chunk:
    each auction of a block (they share its common factor), and each half
    of an antithetic chunk (they share their common factors, negated)."""
    if antithetic:
        return np.split(values, 2)
    return list(values.reshape(shape[0], -1).T)


class TestTopDraws:
    """``_top_draws`` samples the max of n iid N(0, 1) draws as one order
    statistic, and its index apart from it; both against their exact laws."""

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_max_has_cdf_phi_to_the_n(self, n):
        top = _top_draws(stream(41, n), 1_000_000, n)
        assert np.all(np.isfinite(top))
        assert kstest(top, lambda x: ndtr(x) ** n).pvalue > KS_P_MIN

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_winner_uniform_and_independent_of_the_max(self, n):
        # a caller draws the winners from the stream right after the max
        rng = stream(43, n)
        top = _top_draws(rng, 1_000_000, n)
        winner = rng.integers(n, size=1_000_000)
        assert winner.min() >= 0 and winner.max() < n
        counts = np.bincount(winner, minlength=n)
        assert chisquare(counts).pvalue > KS_P_MIN
        # winners against the deciles of the max, under its exact law
        decile = np.minimum((10 * ndtr(top) ** n).astype(int), 9)
        table = np.zeros((n, 10))
        np.add.at(table, (winner, decile), 1)
        assert chi2_contingency(table).pvalue > KS_P_MIN

    def test_zero_uniform_gives_a_finite_max(self):
        # rng.random() returns 0 with probability 2^-53
        class ZeroFirst:
            def random(self, rows):
                out = np.full(rows, 0.5)
                out[0] = 0.0
                return out

        top = _top_draws(ZeroFirst(), 3, 5)
        assert np.all(np.isfinite(top)) and top[0] > top[1]


class TestPlay:
    """``_play`` prices only the winner: the top value has the law of the
    highest of n values, and the pricing and frontrun rules hold bit for bit."""

    @PLAY_SHAPES
    def test_pricing_and_frontrun_rules(self, shape, antithetic):
        for profile, epsilon in KERNEL_PROFILES:
            strat = solve_strategy(profile, epsilon, curve=curve_for(profile))
            key = (11, profile.n, 3)
            top_bid, top_val, defect, frontrun, values, _ = _play(
                strat, profile, profile.gamma, epsilon, key, shape, antithetic)
            want_val, want_values = _draw_top(profile, key, shape, antithetic)
            np.testing.assert_array_equal(top_val, want_val)
            # the value stream comes back where the top draws left it
            np.testing.assert_array_equal(values.random(8), want_values.random(8))
            np.testing.assert_array_equal(top_bid, _priced_everywhere(strat, top_val))
            np.testing.assert_array_equal(defect, stream(*key, 1).random(shape) < epsilon)
            np.testing.assert_array_equal(frontrun,
                                          defect & (profile.gamma * top_val > top_bid))

    @PLAY_SHAPES
    @pytest.mark.parametrize("profile", [BEST_RESPONSE_PROFILES[0], FLAGSHIP,
                                         make_profile(n=50)], ids=["rho0", "flagship", "n50"])
    def test_top_value_has_the_law_of_the_highest_value(self, profile, shape, antithetic):
        strat = solve_strategy(profile, 0.2, curve=curve_for(profile))
        _, top_val, _, _, _, _ = _play(strat, profile, profile.gamma, 0.2, (12, profile.n),
                                       shape, antithetic)
        for sample in _iid_samples(top_val, shape, antithetic):
            assert kstest(sample, lambda v: top_value_cdf(v, profile)).pvalue > KS_P_MIN


    @pytest.mark.parametrize("shape", [(CHUNK,), (CHUNK // 2, 2)],
                             ids=["plain", "two-per-block"])
    def test_equal_values_go_to_a_uniform_winner(self, shape):
        # the searchers are exchangeable, so the winner's index is uniform
        # over them
        profile = make_profile(n=3)
        strat = solve_strategy(profile, 0.5, curve=curve_for(profile))
        _, _, _, _, values, _ = _play(strat, profile, profile.gamma, 0.5, (4, 1), shape)
        winner = values.integers(profile.n, size=shape)
        assert chisquare(np.bincount(winner.ravel(), minlength=3)).pvalue > KS_P_MIN


class TestRivalChunk:
    """The highest rival bid given the deviant's value: its law is
    H(beta^-1(b) | v), and the defection coins are the chunk's."""

    @pytest.mark.parametrize("profile", [BEST_RESPONSE_PROFILES[2], FLAGSHIP,
                                         make_profile(n=50)], ids=["rho0.3", "flagship", "n50"])
    @pytest.mark.parametrize("q", [0.2, 0.9])
    def test_rival_top_has_the_law_of_the_highest_rival(self, profile, q):
        strat = solve_strategy(profile, 0.2, curve=curve_for(profile))
        v = marginal_quantile(q)
        rival_top, defect = _rival_chunk(v, strat, profile, 5, 2, CHUNK)
        assert kstest(rival_top, lambda b: _rival_bid_cdf(v, b, strat, profile)).pvalue \
            > KS_P_MIN
        np.testing.assert_array_equal(defect, stream(5, 2, 1).random(CHUNK) < strat.epsilon)


class TestDeviationPayoffs:
    def test_sure_safe_overbid_pays_value_minus_bid(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        v = marginal_quantile(0.5)
        bid = profile.gamma * curve.v_max * 10  # above any possible rival bid
        scan = deviation_payoff_grid(v, [bid], strat, profile, blocks=2000, seed=3,
                                     reference_index=0)
        assert scan.means[0] == pytest.approx(v - bid, rel=1e-12)
        # identical in every block, float noise only
        assert scan.stderrs[0] <= 1e-9 * abs(v - bid)

    def test_zero_bid_never_wins(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        scan = deviation_payoff_grid(marginal_quantile(0.5), [0.0], strat, profile,
                                     blocks=5000, seed=3, reference_index=0)
        assert scan.means[0] == 0.0

    def test_equilibrium_bid_is_grid_optimal(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        v = marginal_quantile(0.9)
        b_eq = float(strat.bid(v))
        bids = b_eq * np.linspace(0.8, 1.2, 41)
        scan = deviation_payoff_grid(v, bids, strat, profile, blocks=100_000, seed=17,
                                     reference_index=20)
        best = int(np.argmax(scan.means))
        assert scan.means[best] - scan.means[20] <= 2.0 * scan.stderrs[best]

    def test_exposure_scaling_with_commitment(self, solved):
        # payoffs of exposed bids scale by (1 - eps), so the grid argmax is
        # shared; the payoff is flat to about 1e-4 near its top, so the argmax
        # is read off the exact payoff, and each scan's best bid must not
        # beat it by more than 2 paired standard errors
        profile, curve = solved(n=4, rho=0.3, gamma=0.95)
        v = marginal_quantile(0.8)
        strat_lo = solve_strategy(profile, 0.2, curve=curve)
        strat_hi = solve_strategy(profile, 0.5, curve=curve)
        b_eq = float(curve.bid(v))
        bids = b_eq * np.linspace(0.9, 1.1, 21)
        assert np.all(profile.gamma * v > bids)  # every bid is exposed
        exact_lo, exact_hi = ((v - bids) * _exact_win_probability(v, bids, strat, profile)
                              for strat in (strat_lo, strat_hi))
        np.testing.assert_allclose(exact_lo / exact_hi, (1 - 0.2) / (1 - 0.5), rtol=1e-12)
        best = int(np.argmax(exact_lo))
        assert int(np.argmax(exact_hi)) == best
        lo = deviation_payoff_grid(v, bids, strat_lo, profile, blocks=400_000, seed=29,
                                   reference_index=best)
        hi = deviation_payoff_grid(v, bids, strat_hi, profile, blocks=400_000, seed=29,
                                   reference_index=best)
        ratio = lo.means / hi.means
        np.testing.assert_allclose(ratio, (1 - 0.2) / (1 - 0.5), rtol=0.02)
        for scan in (lo, hi):
            k = int(np.argmax(scan.means))
            assert scan.diff_means[k] <= 2.0 * scan.diff_stderrs[k]

    @pytest.mark.parametrize("ref", [-1, 3])
    def test_rejects_reference_outside_grid(self, flagship, ref):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        with pytest.raises(ParameterError):
            deviation_payoff_grid(marginal_quantile(0.5), [1.0, 2.0, 3.0], strat, profile,
                                  blocks=1000, seed=3, reference_index=ref)

    def test_rejects_zero_blocks(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        with pytest.raises(ParameterError):
            deviation_payoff_grid(marginal_quantile(0.5), [1.0, 2.0, 3.0], strat, profile,
                                  blocks=0, seed=3)

    @pytest.mark.parametrize("v,bids,error,message", [
        (3.0, [1.0, math.nan], ParameterError, "bids must be"),
        (3.0, [1.0, math.inf], ParameterError, "bids must be"),
        (math.inf, [1.0, 2.0], DomainError, "v must be positive and finite"),
        (math.nan, [1.0, 2.0], DomainError, "v must be positive and finite"),
    ], ids=["nan-bid", "inf-bid", "inf-v", "nan-v"])
    def test_rejects_non_finite_inputs_before_any_draw(self, flagship, monkeypatch, v, bids,
                                                        error, message):
        # a NaN bid would sort above every rival top and count as always paid
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)

        def no_draw(*args):
            raise AssertionError("drew rivals for an invalid input")

        monkeypatch.setattr(simulate, "_rival_chunk", no_draw)
        with pytest.raises(error, match=message):
            deviation_payoff_grid(v, bids, strat, profile, blocks=1000, seed=3)

    def test_memory_is_not_a_payoff_matrix(self, flagship):
        # the scan counts each bid's paid blocks, so a 41-bid scan stays
        # below half of one (41 x CHUNK) matrix of payoffs
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        v = marginal_quantile(0.9)
        bids = float(strat.bid(v)) * np.linspace(0.8, 1.2, 41)
        peak = TestRunMany._peak(lambda: deviation_payoff_grid(v, bids, strat, profile,
                                                               blocks=4 * CHUNK, seed=5))
        assert peak < 0.5 * 41 * CHUNK * 8


def _merged(moments, sample):
    """``moments`` (count, mean and scatter of each row) with the columns of
    ``sample`` merged in by the pairwise (Welford) rule."""
    n = sample.shape[1]
    mean = sample.mean(axis=1)
    m2 = np.sum((sample - mean[:, None]) ** 2, axis=1)
    if moments is None:
        return n, mean, m2
    count, old_mean, old_m2 = moments
    delta = mean - old_mean
    total = count + n
    return total, old_mean + delta * (n / total), old_m2 + m2 + delta**2 * (count * n / total)


def _matrix_scan(v, bids, strategy, profile, blocks, seed, ref):
    """The scan built on one (bids x blocks) payoff matrix per chunk:
    (means, stderrs, diff_means, diff_stderrs)."""
    bids = np.asarray(bids, dtype=float)
    exposed = strategy.gamma * v > bids
    pay_moments = diff_moments = None
    for i, size in enumerate(_chunk_sizes(blocks)):
        rival_top, defect = _rival_chunk(v, strategy, profile, seed, i, size)
        wins = bids[:, None] >= rival_top[None, :]
        zeroed = exposed[:, None] & defect[None, :]
        pay = np.where(wins & ~zeroed, v - bids[:, None], 0.0)
        pay_moments = _merged(pay_moments, pay)
        diff_moments = _merged(diff_moments, pay - pay[ref])
    out = []
    for count, mean, m2 in (pay_moments, diff_moments):
        out += [mean, np.sqrt(m2 / (count - 1) / count) if count > 1 else np.zeros_like(m2)]
    return out


def _assert_matches_matrix_scan(v, bids, strategy, profile, blocks, seed, ref):
    scan = deviation_payoff_grid(v, bids, strategy, profile, blocks, seed, reference_index=ref)
    want = _matrix_scan(v, bids, strategy, profile, blocks, seed, ref)
    for name, got, expected in zip(("means", "stderrs", "diff_means", "diff_stderrs"),
                                   (scan.means, scan.stderrs, scan.diff_means,
                                    scan.diff_stderrs), want):
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)), err_msg=name)


class TestDeviationScanMatchesPayoffMatrix:
    """The scan counts each bid's paid blocks; every moment must agree with
    the (bids x blocks) payoff matrix it replaces, to rounding."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_criterion_2_profiles(self, epsilon):
        for profile in BEST_RESPONSE_PROFILES:
            strat = solve_strategy(profile, epsilon, curve=curve_for(profile))
            for qi, q in enumerate((0.2, 0.6, 0.95, 0.999)):
                v = marginal_quantile(q)
                bids = float(strat.bid(v)) * np.linspace(0.8, 1.2, 41)
                for ref in (0, bids.size - 1):
                    _assert_matches_matrix_scan(v, bids, strat, profile, 10_000, 40 + qi, ref)

    @pytest.mark.parametrize("case", ["descending", "shuffled", "all-exposed", "none-exposed",
                                      "uneven-chunks", "one-block", "ties"])
    def test_grids_and_block_counts(self, flagship, case):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        v = marginal_quantile(0.6)
        safe = strat.gamma * v  # the lowest bid that is not exposed
        blocks, seed = 10_000, 7
        bids = float(strat.bid(v)) * np.linspace(0.8, 1.2, 41)
        if case == "descending":
            bids = bids[::-1]
        elif case == "shuffled":
            bids = np.random.default_rng(1).permutation(bids)
        elif case == "all-exposed":
            bids = safe * np.linspace(0.5, 0.999, 41)
            assert np.all(strat.gamma * v > bids)
        elif case == "none-exposed":
            bids = safe * np.linspace(1.0, 1.3, 41)
            assert not np.any(strat.gamma * v > bids)
        elif case == "uneven-chunks":
            blocks = CHUNK + 4321
        elif case == "one-block":
            blocks = 1
        else:
            # bids equal to drawn rival tops, in honoured and in defected
            # blocks: the deviant wins every tie
            rival_top, defect = _rival_chunk(v, strat, profile, seed, 0, blocks)
            bids = np.concatenate([rival_top[~defect][:20], rival_top[defect][:20], [safe]])
        _assert_matches_matrix_scan(v, bids, strat, profile, blocks, seed, 20)


def _curve_inverse(curve, bids):
    """The value at which the risky curve bids each of ``bids``: bisection
    between grid nodes; outside the grid the curve is linear through 0."""
    j = np.clip(np.searchsorted(curve.bids, bids), 1, curve.grid.size - 1)
    lo, hi = curve.grid[j - 1], curve.grid[j]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = curve.bid(mid) < bids
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    x = np.where(bids < curve.bids[0], bids * curve.grid[0] / curve.bids[0], x)
    return np.where(bids > curve.bids[-1], bids * curve.grid[-1] / curve.bids[-1], x)


def _rival_bid_cdf(v, bids, strategy, profile):
    """P(highest rival bid <= b | v) = H(beta^-1(b) | v), where beta^-1
    inverts the piecewise strategy: the curve below the cutoff, the cutoff
    for bids in its jump (b(v*), gamma v*), and b / gamma above it."""
    x = np.full(bids.shape, strategy.cutoff)
    risky = bids < (strategy.curve.bid(strategy.cutoff) if math.isfinite(strategy.cutoff)
                    else math.inf)
    x[risky] = _curve_inverse(strategy.curve, bids[risky])
    safe = bids >= strategy.gamma * strategy.cutoff
    x[safe] = bids[safe] / strategy.gamma
    return rival_max_cdf(x, v, profile)


def _exact_win_probability(v, bids, strategy, profile):
    """P(paid) = H(beta^-1(b) | v) (1 - eps 1{gamma v > b})."""
    honoured = np.where(strategy.gamma * v > bids, 1.0 - strategy.epsilon, 1.0)
    return _rival_bid_cdf(v, bids, strategy, profile) * honoured


class TestDeviationScanOracle:
    """The scan's payoff level against the exact expected payoff, to 5 exact
    Bernoulli standard errors (criterion 2 only compares bids)."""

    @pytest.mark.parametrize("profile", [make_profile(n=4, rho=0.3, gamma=0.95),
                                         make_profile(n=4, rho=0.6, gamma=0.015),
                                         make_profile(), make_profile(n=50)],
                             ids=["binding", "non-binding", "flagship", "n50"])
    def test_means_match_exact_payoffs(self, profile):
        blocks = 100_000
        for epsilon in (0.0, 0.3):
            strat = solve_strategy(profile, epsilon, curve=curve_for(profile))
            for qi, q in enumerate((0.2, 0.6, 0.95, 0.999)):
                v = marginal_quantile(q)
                bids = float(strat.bid(v)) * np.linspace(0.8, 1.2, 41)
                scan = deviation_payoff_grid(v, bids, strat, profile, blocks, seed=60 + qi)
                p = _exact_win_probability(v, bids, strat, profile)
                exact_se = np.abs(v - bids) * np.sqrt(p * (1 - p) / blocks)
                gap = np.abs(scan.means - (v - bids) * p)
                assert np.all(gap <= 5 * exact_se), (
                    f"eps={epsilon} q={q}: worst {np.max(gap / exact_se):.2f} exact SE")
