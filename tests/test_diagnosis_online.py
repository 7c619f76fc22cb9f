"""Tests for run-time (online) diagnosis feeding the Fig. 1 loop."""


from repro.products import TV, make_monitor
from repro.core import TraderTV
from repro.diagnosis import OnlineDiagnoser
from repro.tv import FaultInjector, TVSet

SESSION = ["power", "ch_up", "ttx", "ttx", "ttx", "vol_up", "ttx", "ch_up", "ttx"]


def run_session(fault=None, activate_after=4):
    tv = TVSet(seed=11)
    monitor = make_monitor(TV, tv)
    diagnoser = OnlineDiagnoser(tv, monitor=monitor)
    if fault is not None:
        FaultInjector(tv).inject(fault, activate_after_presses=activate_after)
    for key in SESSION:
        tv.press(key)
        tv.run(5.0)
    tv.run(10.0)
    return tv, monitor, diagnoser


class TestOnlineDiagnoser:
    def test_steps_track_key_presses(self):
        tv, monitor, diagnoser = run_session()
        diagnoser._close_step()
        assert diagnoser.steps_recorded() == len(SESSION)

    def test_no_errors_no_diagnosis(self):
        tv, monitor, diagnoser = run_session()
        assert diagnoser.diagnose() is None

    def test_stale_render_localized_to_render_code(self):
        tv, monitor, diagnoser = run_session(fault="ttx_stale_render")
        diagnosis = diagnoser.diagnose()
        assert diagnosis is not None
        module = diagnoser.suspect_module(diagnosis)
        # The top suspects are the rendering path and/or the fault's own
        # ground-truth blocks — both are the right place to look.
        assert module in ("ttx_render", "fault_ttx_stale_render")

    def test_errors_flag_multiple_steps_via_deviation_state(self):
        tv, monitor, diagnoser = run_session(fault="ttx_stale_render")
        diagnoser._close_step()
        # the erroneous state persists across several presses even though
        # the comparator reported only once
        assert len(diagnoser.collector.error_steps) >= 2
        assert monitor.comparator.stats.errors_reported <= len(
            diagnoser.collector.error_steps
        )

    def test_diagnosis_carries_evidence_counts(self):
        tv, monitor, diagnoser = run_session(fault="ttx_stale_render")
        diagnosis = diagnoser.diagnose()
        assert diagnosis.errors_explained >= 2
        assert diagnosis.technique == "sfl:ochiai"


class TestLoopIntegration:
    def test_facade_incidents_include_diagnosis(self):
        system = TraderTV(seed=11)
        system.inject("ttx_stale_render", activate_after_presses=2)
        system.press_sequence(["power", "ttx"])
        system.run(40.0)
        assert system.loop.incidents
        incident = system.loop.incidents[0]
        assert incident.diagnosis is not None
        assert incident.diagnosis.best() is not None
        # the diagnosis suspect is forwarded into the recovery action
        assert "suspect" in incident.action.params

    def test_facade_still_recovers_with_diagnosis_wired(self):
        system = TraderTV(seed=11)
        system.inject("ttx_stale_render", activate_after_presses=2)
        system.press_sequence(["power", "ttx"])
        system.run(40.0)
        assert system.health_report()["screen"]["ttx_status"] == "shown"
