"""The unified result/export protocol (``repro.results``).

Every result type the library hands back speaks one surface —
``to_table()`` / ``to_json()`` / ``to_csv()`` — and serializes through
tagged payloads (:func:`repro.results.to_payload` /
:func:`~repro.results.from_payload`) that round-trip values, NaN
masks, per-frequency failures, diagnostics, and attribution budgets
exactly.  This battery pins the protocol across
:class:`~repro.noise.result.PsdResult`,
:class:`~repro.mft.corners.CornerSweepResult`, and
:class:`~repro.metrics.attribution.ContributionBudget`, plus the
payload version/kind gates the content-addressed result store relies
on.
"""

import json

import numpy as np
import pytest

from repro.circuits import (
    ParameterGrid,
    ScIntegratorParams,
    sc_integrator_system,
    switched_rc_system,
)
from repro.diagnostics.fallback import AttemptRecord, FallbackPolicy
from repro.errors import ReproError
from repro.mft import corners as corners_module
from repro.mft.context import clear_sweep_contexts
from repro.mft.corners import corner_psd_sweep
from repro.mft.engine import MftNoiseAnalyzer
from repro.results import (
    PAYLOAD_KINDS,
    PAYLOAD_VERSION,
    Exportable,
    from_payload,
    to_payload,
)

SPP = 16
GRID = np.linspace(100.0, 4e4, 8)


@pytest.fixture
def psd_result(rc_system):
    clear_sweep_contexts()
    analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=SPP)
    freqs = GRID.copy()
    freqs[2] = np.nan  # one engineered failure -> NaN + record
    return analyzer.psd_sweep(freqs)


@pytest.fixture
def attributed_result(rc_system):
    clear_sweep_contexts()
    analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=SPP)
    return analyzer.psd_sweep(GRID, attribute_sources=True)


@pytest.fixture
def corner_result(rc_system, rc_params):
    family = ParameterGrid.cross(
        dynamics={"nom": {}, "chi": {"capacitance": 1.2e-9}},
        intensities={"nom": 1.0, "hot": 1.2},
        builder=switched_rc_system, base_params=rc_params)
    clear_sweep_contexts()
    return corner_psd_sweep(rc_system, family, GRID,
                            segments_per_phase=SPP,
                            attribute_sources=True)


class TestExportableProtocol:
    def test_every_result_type_speaks_the_protocol(
            self, psd_result, corner_result, attributed_result):
        for result in (psd_result, corner_result,
                       attributed_result.budget):
            assert isinstance(result, Exportable), type(result).__name__

    def test_job_result_speaks_it_by_delegation(self, rc_system):
        from repro.service import JobQueue, JobSpec
        clear_sweep_contexts()
        with JobQueue() as queue:
            served = queue.submit(
                JobSpec(rc_system, GRID,
                        segments_per_phase=SPP)).wait(timeout=120.0)
        assert isinstance(served, Exportable)

    def test_tables_render(self, psd_result, corner_result,
                           attributed_result):
        assert "frequency_hz" in psd_result.to_table()
        assert "nom/nom" in corner_result.to_table()
        assert "share" in attributed_result.budget.to_table()

    def test_psd_table_subsamples_to_limit(self, psd_result):
        limited = psd_result.to_table(limit=4)
        assert "rows elided" in limited
        assert len(limited.splitlines()) < \
            len(psd_result.to_table().splitlines())

    def test_to_csv_writes_files(self, psd_result, corner_result,
                                 attributed_result, tmp_path):
        for name, result in (("psd", psd_result),
                             ("corners", corner_result),
                             ("budget", attributed_result.budget)):
            path = result.to_csv(tmp_path / f"{name}.csv")
            text = open(path).read()
            assert "frequency_hz" in text or "label" in text, name


class TestPayloadRoundTrip:
    def test_psd_payload_round_trips_exactly(self, psd_result):
        payload = to_payload(psd_result)
        assert payload["kind"] == "psd"
        assert payload["version"] == PAYLOAD_VERSION
        # The store persists payloads as JSON text; go the whole way.
        back = from_payload(json.loads(json.dumps(payload)))
        assert back.psd.tobytes() == psd_result.psd.tobytes()
        assert np.array_equal(back.frequencies, psd_result.frequencies,
                              equal_nan=True)
        assert back.method == psd_result.method
        assert [f.index for f in back.info["failures"]] \
            == [f.index for f in psd_result.info["failures"]]
        assert [f.stage for f in back.info["failures"]] \
            == [f.stage for f in psd_result.info["failures"]]

    def test_attribution_budget_round_trips(self, attributed_result):
        budget = attributed_result.budget
        back = from_payload(
            json.loads(json.dumps(to_payload(budget))))
        assert back.labels == budget.labels
        assert np.array_equal(back.contributions, budget.contributions)
        assert np.array_equal(back.total, budget.total)
        back.check_conservation()

    def test_corner_sweep_round_trips_with_budgets(self, corner_result):
        payload = to_payload(corner_result)
        assert payload["kind"] == "corner-sweep"
        back = from_payload(json.loads(json.dumps(payload)))
        assert back.corner_names == corner_result.corner_names
        assert np.array_equal(back.values, corner_result.values)
        assert set(back.budgets) == set(corner_result.budgets)
        for name, budget in corner_result.budgets.items():
            assert np.array_equal(back.budgets[name].contributions,
                                  budget.contributions)
        for name, failures in corner_result.failures.items():
            assert [f.stage for f in back.failures[name]] \
                == [f.stage for f in failures]

    def test_to_json_is_the_payload(self, psd_result):
        # Compare serialized text: NaN != NaN breaks dict equality.
        assert json.dumps(psd_result.to_json()) \
            == json.dumps(to_payload(psd_result))


class TestAttemptLogRoundTrip:
    """A rescued sweep's attempt log comes back as ``AttemptRecord``s."""

    POLICY = FallbackPolicy(condition_limit=1.0)
    FREQS = np.linspace(200.0, 3e3, 4)

    def _rescued(self, monkeypatch):
        analyzer = MftNoiseAnalyzer(sc_integrator_system().system,
                                    segments_per_phase=SPP,
                                    fallback=self.POLICY)
        plain = analyzer.psd(self.FREQS, solver="spectral-batch")
        build = corners_module._build_roots

        def build_with_policy(*args, **kwargs):
            roots = build(*args, **kwargs)
            for root in roots:
                root.analyzer.fallback = self.POLICY
            return roots

        monkeypatch.setattr(corners_module, "_build_roots",
                            build_with_policy)
        family = ParameterGrid.cross(
            {"nom": {}, "leaky": {"leak": 0.1}}, {"nom": 1.0},
            builder=sc_integrator_system, base_params=ScIntegratorParams())
        corner = corner_psd_sweep(sc_integrator_system(), family,
                                  self.FREQS, segments_per_phase=SPP)
        return plain, corner

    def test_psd_and_corner_payloads_keep_attempt_records(self,
                                                         monkeypatch):
        for result in self._rescued(monkeypatch):
            attempts = result.info["fallback_attempts"]
            assert attempts and all(isinstance(a, AttemptRecord)
                                    for a in attempts)
            assert {a.strategy for a in attempts} >= {"mft-direct",
                                                      "mft-regularized"}
            back = from_payload(json.loads(json.dumps(to_payload(result))))
            assert back.info["fallback_attempts"] == attempts

    def test_stored_strings_stay_as_stored(self, psd_result):
        payload = to_payload(psd_result)
        payload["info"]["fallback_attempts"] = ["mft-direct @ 100 Hz"]
        back = from_payload(payload)
        assert back.info["fallback_attempts"] == ["mft-direct @ 100 Hz"]


class TestPayloadGates:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="kind"):
            from_payload({"kind": "hologram",
                          "version": PAYLOAD_VERSION})

    def test_future_version_rejected(self, psd_result):
        payload = to_payload(psd_result)
        payload["version"] = PAYLOAD_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            from_payload(payload)

    def test_unserializable_type_rejected(self):
        with pytest.raises(ReproError, match="no payload serialization"):
            to_payload(object())

    def test_kind_registry_is_closed(self):
        assert set(PAYLOAD_KINDS) == {"psd", "corner-sweep",
                                      "attribution-budget"}
