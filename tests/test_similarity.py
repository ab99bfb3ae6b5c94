import math
import sys
from dataclasses import astuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import psi

from helpers import mc_dirichlet_kl, per_bin_diagram
from ldcc import similarity
from ldcc.errors import DataError, DomainError, FormatError, NumericError
from ldcc.special import log_beta_rows
from ldcc.similarity import (
    DiagramBin,
    correlation_diagram,
    dirichlet_kl,
    distance_matrix,
    read_accuracy_csv,
    read_distance_csv,
    select_tasks,
    write_diagram_csv,
    write_distance_csv,
    write_selection,
)


class TestDirichletKl:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0, size=rng.integers(1, 6))
            assert abs(dirichlet_kl(a, a)) <= 1e-12

    def test_hand_value(self):
        # KL[Dir(2,1) || Dir(1,1)] = ln 2 + psi(2) - psi(3) = ln 2 - 1/2
        assert dirichlet_kl([2.0, 1.0], [1.0, 1.0]) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-12
        )

    def test_asymmetric(self):
        # KL[Dir(2,1)||Dir(1,1)] = ln 2 - 1/2; the reverse is 1 - ln 2
        a, b = [2.0, 1.0], [1.0, 1.0]
        assert dirichlet_kl(b, a) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
        assert dirichlet_kl(a, b) != pytest.approx(dirichlet_kl(b, a), abs=1e-6)

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            k = int(rng.integers(1, 5))
            a = rng.uniform(0.05, 20.0, size=k)
            b = rng.uniform(0.05, 20.0, size=k)
            assert dirichlet_kl(a, b) >= -1e-12

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(2)
        for a, b in [
            (np.array([2.0, 3.0]), np.array([1.0, 1.5])),
            (np.array([0.8, 4.0, 2.2]), np.array([2.5, 1.0, 1.0])),
        ]:
            estimate, se = mc_dirichlet_kl(a, b, 200_000, rng)
            assert dirichlet_kl(a, b) == pytest.approx(estimate, abs=4 * se)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_kl([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_empty_vectors(self):
        with pytest.raises(DomainError):
            dirichlet_kl([], [])


class TestDistanceMatrix:
    def test_entries_compose_dirichlet_kl(self):
        rng = np.random.default_rng(3)
        test = rng.uniform(0.5, 5.0, size=(3, 2))
        train = rng.uniform(0.5, 5.0, size=(4, 2))
        report = distance_matrix(test, train)
        assert report.matrix.shape == (3, 4)
        for i in range(3):
            for d in range(4):
                assert report.matrix[i, d] == pytest.approx(
                    dirichlet_kl(test[i], train[d]), abs=1e-12
                )
        assert np.allclose(report.mean_kl, report.matrix.mean(axis=1))

    def test_identical_rows_give_zero(self):
        lam = np.array([[2.0, 3.0]])
        report = distance_matrix(lam, lam)
        assert report.matrix[0, 0] == 0.0
        assert np.all(report.matrix >= 0.0)

    def test_theme_count_mismatch(self):
        with pytest.raises(DataError):
            distance_matrix(np.ones((1, 2)), np.ones((1, 3)))

    @pytest.mark.parametrize("empty", ["test", "train"])
    def test_empty_lambda_set(self, empty):
        lam, none = np.ones((2, 3)), np.ones((0, 3))
        test, train = (none, lam) if empty == "test" else (lam, none)
        with pytest.raises(ValueError, match=f"the {empty} lambdas have no rows"):
            distance_matrix(test, train)
        if empty == "test":
            with pytest.raises(ValueError, match="the test lambdas have no rows"):
                select_tasks(train, test, 1)
        assert select_tasks(train, test, 0) == []

    def test_invalid_parameters_raise_numeric(self):
        with pytest.raises(NumericError):
            distance_matrix(np.array([[1e308, 1e308]]), np.array([[1e-300, 1.0]]))

    def test_cross_term_overflow_raises_numeric(self):
        # psi(1e-300) ~ -1e300 against a 1e300 training entry overflows the
        # cross term although every row sum is finite.
        test = np.array([[1e-300, 1.0], [2.0, 3.0]])
        train = np.array([[1.0, 1.0], [1e300, 1.0]])
        with pytest.raises(NumericError):
            distance_matrix(test, train)
        with pytest.raises(NumericError):
            select_tasks(train, test, 1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_entries_match_scalar_kl(self, data):
        themes = data.draw(st.integers(1, 8))
        entries = st.floats(min_value=1e-3, max_value=1e3)
        test = data.draw(arrays(np.float64, (data.draw(st.integers(1, 4)), themes), elements=entries))
        train = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), themes), elements=entries))
        matrix = distance_matrix(test, train).matrix
        for i, a in enumerate(test):
            # Tolerance relative to the magnitudes of the terms both
            # formulas add: the log-betas and the two cross products a.E and
            # b.E, which reach ~1e6 here while their difference may be small.
            e = np.abs(psi(a) - psi(a.sum()))
            for d, b in enumerate(train):
                magnitude = np.abs(log_beta_rows([a, b])).sum() + a @ e + b @ e
                assert abs(matrix[i, d] - dirichlet_kl(a, b)) <= 1e-12 * (1.0 + magnitude)


class TestCorrelationDiagram:
    def test_two_bin_hand_instance(self):
        bins = correlation_diagram([1.0, 3.0], [0.9, 0.8], num_bins=2)
        assert len(bins) == 2
        first, second = bins
        assert first.index == 1
        assert (first.low, first.high) == (0.0, 1.5)
        assert first.mean_distance == 1.0
        assert first.mean_accuracy == 0.9
        assert first.count == 1
        assert second.index == 2
        assert (second.low, second.high) == (1.5, 3.0)
        assert second.mean_distance == 3.0
        assert second.mean_accuracy == 0.8
        assert second.count == 1

    def test_single_bin_holds_everything(self):
        bins = correlation_diagram([0.5, 1.0, 2.0], [0.1, 0.2, 0.3], num_bins=1)
        assert len(bins) == 1
        assert bins[0].count == 3
        assert bins[0].mean_accuracy == pytest.approx(0.2)
        assert (bins[0].low, bins[0].high) == (0.0, 2.0)

    def test_zero_lands_in_first_bin(self):
        bins = correlation_diagram([0.0, 1.0], [0.7, 0.3], num_bins=2)
        assert bins[0].index == 1
        assert bins[0].count == 1
        assert bins[0].mean_distance == 0.0
        assert bins[0].mean_accuracy == 0.7

    def test_empty_bins_omitted(self):
        bins = correlation_diagram([1.0, 10.0], [0.5, 0.6], num_bins=10)
        assert [b.index for b in bins] == [1, 10]
        assert all(b.count == 1 for b in bins)

    def test_all_zero_degenerate_bin(self):
        bins = correlation_diagram([0.0, 0.0, 0.0], [0.2, 0.4, 0.6], num_bins=5)
        assert len(bins) == 1
        assert (bins[0].low, bins[0].high) == (0.0, 0.0)
        assert bins[0].count == 3
        assert bins[0].mean_accuracy == pytest.approx(0.4)

    def test_boundary_values_go_to_lower_bin(self):
        # half-open bins: a distance exactly at a boundary joins the bin it closes
        bins = correlation_diagram([1.0, 2.0], [1.0, 0.0], num_bins=2)
        assert [b.index for b in bins] == [1, 2]
        assert bins[0].count == 1 and bins[1].count == 1

    def test_counts_sum_to_inputs(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.0, 7.0, size=100)
        a = rng.uniform(0.0, 1.0, size=100)
        bins = correlation_diagram(d, a, num_bins=8)
        assert sum(b.count for b in bins) == 100

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_bin_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        distances = data.draw(arrays(np.float64, n, elements=st.sampled_from(
            [0.0, 0.25, 1.0, 1.5, 2.0, 3.0, 7.0])) | arrays(
                np.float64, n, elements=st.floats(0.0, 100.0)))
        accuracies = data.draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
        num_bins = data.draw(st.integers(1, 40))
        got = correlation_diagram(distances, accuracies, num_bins)
        assert [astuple(b) for b in got] == [
            astuple(b) for b in per_bin_diagram(distances, accuracies, num_bins)
        ]
        assert all(type(b.index) is int for b in got)

    def test_cost_follows_tasks_not_bins(self):
        rng = np.random.default_rng(9)
        distances = rng.uniform(0.0, 5.0, size=50)
        bins = correlation_diagram(distances, rng.uniform(0.0, 1.0, size=50), 10**12)
        assert 1 <= len(bins) <= 50
        assert sum(b.count for b in bins) == 50
        assert bins[-1].index == 10**12

    def test_validation(self):
        with pytest.raises(ValueError):
            correlation_diagram([], [], num_bins=2)
        with pytest.raises(ValueError):
            correlation_diagram([1.0], [0.5], num_bins=0)
        with pytest.raises(ValueError):
            correlation_diagram([-1.0], [0.5], num_bins=2)
        with pytest.raises(ValueError):
            correlation_diagram([1.0, 2.0], [0.5], num_bins=2)


class TestSelectTasks:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        train = rng.uniform(0.5, 6.0, size=(12, 3))
        test = rng.uniform(0.5, 6.0, size=(4, 3))
        got = select_tasks(train, test, 5)
        scores = np.array(
            [
                np.mean([dirichlet_kl(t, train[d]) for t in test])
                for d in range(12)
            ]
        )
        want = list(np.argsort(scores, kind="stable")[:5])
        assert got == [int(i) for i in want]

    def test_brute_force_oracle_with_duplicate_rows(self):
        # Duplicated training rows tie exactly; the oracle breaks ties by
        # ascending index, so the selection must match it id for id.
        rng = np.random.default_rng(6)
        for _ in range(20):
            distinct = rng.uniform(0.2, 8.0, size=(5, 3))
            train = distinct[rng.integers(0, 5, size=15)]
            test = rng.uniform(0.2, 8.0, size=(int(rng.integers(1, 4)), 3))
            count = int(rng.integers(1, 16))
            scores = np.array(
                [
                    np.mean([max(dirichlet_kl(t, train[d]), 0.0) for t in test])
                    for d in range(15)
                ]
            )
            want = np.lexsort((np.arange(15), scores))[:count]
            assert select_tasks(train, test, count) == [int(i) for i in want]

    def test_zero_count(self):
        lam = np.ones((3, 2))
        assert select_tasks(lam, lam, 0) == []

    def test_count_exceeds_pool(self):
        lam = np.ones((3, 2))
        with pytest.raises(ValueError):
            select_tasks(lam, lam, 4)
        with pytest.raises(ValueError):
            select_tasks(lam, lam, -1)

    def test_ties_broken_by_ascending_index(self):
        train = np.array([[2.0, 2.0], [2.0, 2.0], [9.0, 1.0], [2.0, 2.0]])
        test = np.array([[2.0, 2.0]])
        assert select_tasks(train, test, 3) == [0, 1, 3]

    def test_closest_first(self):
        train = np.array([[1.0, 5.0], [5.0, 1.0], [3.0, 3.0]])
        test = np.array([[1.0, 5.0]])
        got = select_tasks(train, test, 3)
        assert got[0] == 0

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_lexsort_oracle_on_tie_heavy_pools(self, data):
        # Pool rows repeat a few integer vectors with entries in 1..3, one
        # ordering per multiset. Over every such vector and every mean of up
        # to three integer test rows, distinct rows differ in score by at
        # least 1e-5 relative, far above rounding (at L = 1 every score is
        # exactly 0). So only equal rows tie, and the scalar oracle orders
        # the rest as select does.
        themes = data.draw(st.integers(1, 4))
        row = st.lists(st.integers(1, 3), min_size=themes, max_size=themes)
        bases = data.draw(st.lists(row.map(sorted).map(tuple), min_size=1, max_size=4, unique=True))
        picks = data.draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=16))
        train = np.array(bases, dtype=np.float64)[picks]
        test = np.array(data.draw(st.lists(row, min_size=1, max_size=3)), dtype=np.float64)
        scores = np.array(
            [np.mean([max(dirichlet_kl(t, b), 0.0) for t in test]) for b in train]
        )
        want = np.lexsort((np.arange(len(train)), scores))
        for count in range(len(train) + 1):
            assert select_tasks(train, test, count) == [int(i) for i in want[:count]]


def _cold(fn, *args):
    """fn(*args) after dropping the pool terms `_kl_matrix` keeps between calls."""
    similarity._pool_terms = (np.empty((0, 0)), None)
    return fn(*args)


def _outcome(fn, *args):
    """fn(*args) as comparable bytes, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result.mean_kl.tobytes() + result.matrix.tobytes() if fn is distance_matrix else result


class TestPoolTermReuse:
    """`_kl_matrix` reuses the last pool's log-beta terms; every result must be
    the one a first (cold) call gives."""

    rng = np.random.default_rng(12)
    test = rng.uniform(0.5, 6.0, size=(2, 3))

    def check(self, pool, count=7):
        for _ in range(2):  # the first call may refresh the kept terms, the second reuses them
            assert _outcome(select_tasks, pool, self.test, count) == _cold(
                _outcome, select_tasks, pool, self.test, count
            )
            assert _outcome(distance_matrix, self.test, pool) == _cold(
                _outcome, distance_matrix, self.test, pool
            )

    def test_pool_mutated_in_place(self):
        pool = np.random.default_rng(13).uniform(0.5, 6.0, size=(30, 3))
        self.check(pool)
        for d in range(4):
            pool[d, 1] = np.nextafter(pool[d, 1], np.inf)  # one ulp
            self.check(pool)
            pool[10 + d] = self.test[d % 2]  # now the closest row
            self.check(pool)

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, np.inf,
                                     pytest.param((1e308, 1e308), id="row-sum-overflow")])
    def test_invalid_entry_raises_as_a_first_call(self, bad):
        # The pool's checks run only when its kept terms are refreshed, so a
        # pool that fails them must never be kept.
        pool = np.random.default_rng(14).uniform(0.5, 6.0, size=(30, 3))
        self.check(pool)
        entries = slice(3 - np.size(bad), 3)
        good, pool[5, entries] = pool[5, entries].copy(), bad
        for fn, args in [(select_tasks, (pool, self.test, 7)), (distance_matrix, (self.test, pool))]:
            raised = _outcome(fn, *args)
            assert raised == _cold(_outcome, fn, *args)
            assert isinstance(raised, tuple) and issubclass(raised[0], Exception)
            if np.size(bad) > 1:
                assert raised == (NumericError, "dirichlet parameters overflow the KL computation")
        pool[5, entries] = good
        self.check(pool)

    def test_alternating_equal_and_reshaped_pools(self):
        rng = np.random.default_rng(15)
        first, second = rng.uniform(0.5, 6.0, size=(2, 30, 3))
        for pool in [first, second, first, first.copy(), second[:20], first[::2], second.T.copy().T]:
            self.check(pool)

    def test_threads_share_the_kept_terms(self):
        # More threads than cores and a short switch interval, so the callers
        # interleave between reading the kept entry and replacing it.
        pools = list(np.random.default_rng(17).uniform(0.5, 6.0, size=(3, 30, 3)))
        want = [_cold(select_tasks, pool, self.test, 7) for pool in pools]

        def work(i):
            return all(
                select_tasks(pools[(i + j) % 3], self.test, 7) == want[(i + j) % 3]
                for j in range(200)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as executor:
                results = list(executor.map(work, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 6

    def test_mean_kl_is_cold_identical(self):
        pool = np.random.default_rng(16).uniform(0.5, 6.0, size=(30, 3))
        for _ in range(3):
            want = _cold(distance_matrix, self.test, pool).mean_kl
            assert distance_matrix(self.test, pool).mean_kl.tobytes() == want.tobytes()


class TestCsvHelpers:
    def test_distance_round_trip(self, tmp_path):
        path = tmp_path / "dist.csv"
        ids = ["a", "b"]
        values = np.array([0.123456789012345, 2.5])
        write_distance_csv(path, ids, values)
        got_ids, got = read_distance_csv(path)
        assert got_ids == ids
        assert np.array_equal(got, values)
        assert path.read_text().splitlines()[0] == "test_id,mean_kl"

    def test_distance_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,mean_kl\na,1.0\n")
        with pytest.raises(FormatError):
            read_distance_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_distance_values_checked(self, tmp_path, value):
        path = tmp_path / "dist.csv"
        path.write_text(f"test_id,mean_kl\na,1.0\nb,{value}\n")
        with pytest.raises(FormatError, match=r"dist\.csv:3: mean_kl must be finite and >= 0"):
            read_distance_csv(path)

    def test_distance_duplicate_ids(self, tmp_path):
        # A repeated test id would be binned twice by the diagram.
        path = tmp_path / "dist.csv"
        path.write_text("test_id,mean_kl\nt1,1.0\nt2,2.0\nt1,3.0\n")
        with pytest.raises(FormatError, match=r"dist\.csv:4: duplicate task id 't1'"):
            read_distance_csv(path)

    def test_distance_csv_bytes(self, tmp_path):
        path = tmp_path / "dist.csv"
        write_distance_csv(path, ["q", "r"], [np.float64(0.1) + np.float64(0.2), np.float64(0.0)])
        assert path.read_bytes() == b"test_id,mean_kl\nq,0.30000000000000004\nr,0.0\n"

    def test_accuracy_table(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("task_id,accuracy\nt1,0.5\nt2,1.0\nt3,0.0\n")
        table = read_accuracy_csv(path)
        assert table == {"t1": 0.5, "t2": 1.0, "t3": 0.0}

    def test_accuracy_range_enforced(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("task_id,accuracy\nt1,1.5\n")
        with pytest.raises(FormatError):
            read_accuracy_csv(path)

    def test_accuracy_duplicate_ids(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("task_id,accuracy\nt1,0.5\nt1,0.6\n")
        with pytest.raises(FormatError):
            read_accuracy_csv(path)

    def test_diagram_csv(self, tmp_path):
        path = tmp_path / "diagram.csv"
        bins = [DiagramBin(1, 0.0, 1.5, 1.0, 0.9, 1), DiagramBin(2, 1.5, 3.0, 3.0, 0.8, 1)]
        write_diagram_csv(path, bins)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,low,high,mean_distance,mean_accuracy,count"
        assert lines[1] == "1,0.0,1.5,1.0,0.9,1"
        assert lines[2] == "2,1.5,3.0,3.0,0.8,1"

    def test_selection_file(self, tmp_path):
        path = tmp_path / "selected.txt"
        write_selection(path, ["task_00003", "task_00001"])
        assert path.read_text() == "task_00003\ntask_00001\n"
