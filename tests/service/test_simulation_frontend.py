"""The frontend-routed workload simulation must agree with the classic
one: same seed, same traffic classes, same outcome counts — the pipeline
may change scheduling, never answers."""

from __future__ import annotations

from repro.protocols.simulation import TrafficMix, WorkloadSimulator
from repro.service import ServiceFrontend


def _outcome_signature(report):
    return {
        name: (stats.requests, stats.identified)
        for name, stats in report.per_class.items()
    }


class TestFrontendRoutedSimulation:
    def test_matches_classic_simulation_outcomes(self, paper_params,
                                                 fast_scheme):
        mix = TrafficMix(genuine=0.7, stranger=0.2, noisy_genuine=0.1)
        classic = WorkloadSimulator(paper_params, fast_scheme, n_users=6,
                                    mix=mix, seed=3)
        classic_report = classic.run(40)

        routed = WorkloadSimulator.with_frontend(
            paper_params, fast_scheme, n_users=6, mix=mix, seed=3,
            batch_window_s=0.005, batch_linger_s=0.001)
        try:
            assert isinstance(routed.endpoint, ServiceFrontend)
            routed_report = routed.run(40)
        finally:
            routed.close()

        assert _outcome_signature(routed_report) == \
            _outcome_signature(classic_report)
        assert routed_report.n_users == classic_report.n_users
        assert routed_report.total_wire_bytes == classic_report.total_wire_bytes

    def test_with_frontend_over_engine_store(self, paper_params, fast_scheme):
        """Frontend + engine compose: the full PR-1/2/3 stack in one run."""
        from repro.engine.engine import IdentificationEngine

        routed = WorkloadSimulator.with_frontend(
            paper_params, fast_scheme, n_users=5, seed=9,
            store=IdentificationEngine(paper_params, shards=2))
        try:
            report = routed.run(25)
        finally:
            routed.close()
        assert report.n_requests == 25
        stats = routed.engine_stats()
        assert stats.enrolled == 5
        assert stats.probes_served >= 25
