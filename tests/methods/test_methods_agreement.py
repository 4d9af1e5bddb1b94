"""Integration tests: the four exact methods must agree on every query.

This is the runtime face of the paper's central claim: TW-Sim-Search,
ST-Filter and LB-Scan filter differently but none of them may lose an
answer that Naive-Scan (ground truth) finds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.queries import QueryWorkload
from repro.methods import (
    FastMapMethod,
    LBScan,
    NaiveScan,
    STFilter,
    TWSimSearch,
)


@pytest.fixture(scope="module")
def built(request):
    from repro.data.synthetic import random_walk_dataset
    from repro.storage.database import SequenceDatabase

    sequences = random_walk_dataset(50, 25, seed=33, length_jitter=0.3)
    db = SequenceDatabase(page_size=256)
    db.insert_many(sequences)
    methods = {
        "naive": NaiveScan(db).build(),
        "lb": LBScan(db).build(),
        "st": STFilter(db, n_categories=25).build(),
        "tw": TWSimSearch(db).build(),
    }
    return sequences, db, methods


QUERY_EPSILONS = [0.0, 0.05, 0.15, 0.4, 1.0]


class TestAgreement:
    def test_all_exact_methods_agree(self, built):
        sequences, _, methods = built
        workload = QueryWorkload(sequences, n_queries=8, seed=41)
        for query in workload:
            for eps in QUERY_EPSILONS:
                reports = {
                    name: m.search(query, eps) for name, m in methods.items()
                }
                reference = reports["naive"].answers
                for name, report in reports.items():
                    assert report.answers == reference, (
                        f"{name} disagrees at eps={eps}"
                    )

    def test_candidates_are_supersets_of_answers(self, built):
        sequences, _, methods = built
        workload = QueryWorkload(sequences, n_queries=5, seed=43)
        for query in workload:
            for eps in (0.1, 0.5):
                for m in methods.values():
                    report = m.search(query, eps)
                    assert set(report.answers) <= set(report.candidates)

    def test_filtering_order_matches_paper(self, built):
        """Figure 2's ordering: TW-Sim candidates <= LB-Scan candidates."""
        sequences, _, methods = built
        workload = QueryWorkload(sequences, n_queries=10, seed=47)
        tw_total = lb_total = 0
        for query in workload:
            tw_total += methods["tw"].search(query, 0.2).candidate_count
            lb_total += methods["lb"].search(query, 0.2).candidate_count
        assert tw_total <= lb_total

    def test_naive_candidates_equal_answers(self, built):
        sequences, _, methods = built
        query = sequences[0]
        report = methods["naive"].search(query, 0.3)
        assert report.candidates == report.answers


class TestStatsAccounting:
    def test_scans_read_whole_database(self, built):
        sequences, db, methods = built
        report = methods["naive"].search(sequences[0], 0.1)
        assert report.stats.sequences_read == len(db)
        report = methods["lb"].search(sequences[0], 0.1)
        assert report.stats.sequences_read == len(db)

    def test_index_methods_read_only_candidates(self, built):
        sequences, _, methods = built
        for name in ("tw", "st"):
            report = methods[name].search(sequences[0], 0.1)
            assert report.stats.sequences_read == report.candidate_count

    def test_index_methods_record_node_reads(self, built):
        sequences, _, methods = built
        for name in ("tw", "st"):
            report = methods[name].search(sequences[0], 0.1)
            assert report.stats.index_node_reads > 0

    def test_elapsed_is_cpu_plus_io(self, built):
        sequences, _, methods = built
        report = methods["tw"].search(sequences[0], 0.1)
        assert report.stats.elapsed_seconds == pytest.approx(
            report.stats.cpu_seconds + report.stats.simulated_io_seconds
        )

    def test_candidate_ratio(self, built):
        sequences, db, methods = built
        report = methods["lb"].search(sequences[0], 0.2)
        assert report.candidate_ratio(len(db)) == pytest.approx(
            report.candidate_count / len(db)
        )
        with pytest.raises(Exception):
            report.candidate_ratio(0)


class TestExactDistances:
    """Every method reports the exact ``D_tw`` of every answer."""

    def test_every_method_reports_exact_distances(self, built):
        from repro.distance.bands import sakoe_chiba_window
        from repro.distance.dtw import dtw_max, dtw_max_matrix
        from repro.methods import CascadeScan, EngineMethod

        sequences, db, methods = built
        radius = 2
        extra = {
            "cascade": CascadeScan(db).build(),
            "cascade-banded": CascadeScan(db, band_radius=radius).build(),
            "engine": EngineMethod(db, executor="serial").build(),
            "fastmap": FastMapMethod(db, k=3, seed=1).build(),
        }
        queries = [sequences[4], sequences[17]]
        try:
            for name, method in {**methods, **extra}.items():
                reports = [method.search(q, 0.3) for q in queries]
                reports += method.search_many(queries, 0.3)
                for query, report in zip(queries * 2, reports):
                    assert report.answers, name
                    assert sorted(report.distances) == report.answers, name
                    for sid, distance in report.distances.items():
                        values = db.fetch(sid).values
                        if name == "cascade-banded":
                            window = sakoe_chiba_window(
                                len(values), len(query), radius
                            )
                            expected = dtw_max_matrix(
                                values, query.values, window=window
                            ).distance
                        else:
                            expected = dtw_max(values, query.values)
                        assert distance == expected, (name, sid)
        finally:
            extra["engine"].close()


class TestFastMapBehaviour:
    def test_fastmap_answers_are_subset(self, built):
        sequences, db, methods = built
        fastmap = FastMapMethod(db, k=3, seed=1).build()
        workload = QueryWorkload(sequences, n_queries=6, seed=51)
        dismissed_total = 0
        for query in workload:
            truth = methods["naive"].search(query, 0.3)
            approx = fastmap.search(query, 0.3)
            assert set(approx.answers) <= set(truth.answers)
            dismissed_total += len(
                FastMapMethod.false_dismissals(approx, truth)
            )
        # Not asserted > 0 per-query, but the mechanism must be exposed.
        assert dismissed_total >= 0

    def test_fastmap_exhibits_false_dismissal_somewhere(self, built):
        """With enough queries the non-contractive embedding loses answers."""
        sequences, db, methods = built
        fastmap = FastMapMethod(db, k=2, seed=3).build()
        workload = QueryWorkload(sequences, n_queries=25, seed=53)
        dismissed = 0
        for query in workload:
            truth = methods["naive"].search(query, 0.25)
            approx = fastmap.search(query, 0.25)
            dismissed += len(FastMapMethod.false_dismissals(approx, truth))
        assert dismissed > 0


class TestLifecycle:
    def test_search_before_build_rejected(self, built):
        _, db, _ = built
        fresh = NaiveScan(db)
        with pytest.raises(Exception):
            fresh.search([1.0], 0.1)

    def test_invalid_queries_rejected(self, built):
        _, _, methods = built
        with pytest.raises(Exception):
            methods["naive"].search([], 0.1)
        with pytest.raises(Exception):
            methods["naive"].search([1.0], -0.1)

    def test_build_returns_self_and_sets_flag(self, built):
        _, db, _ = built
        m = NaiveScan(db)
        assert not m.is_built
        assert m.build() is m
        assert m.is_built

    def test_repr(self, built):
        _, _, methods = built
        assert "built" in repr(methods["naive"])
