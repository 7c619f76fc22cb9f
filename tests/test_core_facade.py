"""Tests for the integrated TraderTV facade."""

import hashlib
import json

from repro.core import TraderTV

#: Faults per seed, each dormant until its press count: the injector's
#: press counting, the online diagnoser's step boundaries and the
#: monitor all watch the same ``suo.tv.input`` topic.
WIRING_PLANS = {
    3: (("drop_ttx_notify", 3), ("menu_opens_epg", 6)),
    7: (("ttx_stale_render", 2), ("mute_noop", 7)),
    11: (("ttx_stale_render", 4), ("mute_noop", 8)),
    19: (("drop_ttx_notify", 2), ("mute_noop", 5)),
}
WIRING_KEYS = [
    "power", "ttx", "ttx", "ch_up", "ttx", "vol_up", "vol_up", "mute",
    "mute", "ttx", "ch_down", "ttx", "menu", "back", "vol_down",
]
#: SHA-256 over every incident of the four sessions above.
WIRING_DIGEST = (
    "dc81f0e5fc15eb814ae082cf6b64a007f35ce4c1ae01e9a389b1d82c00c2b4ee"
)


def _incident_rows(seed):
    system = TraderTV(seed=seed)
    for fault, after in WIRING_PLANS[seed]:
        system.inject(fault, activate_after_presses=after)
    system.press_sequence(WIRING_KEYS, gap=4.0)
    system.run(30.0)
    return [
        [
            round(incident.report.time, 9),
            incident.report.observable,
            None if incident.diagnosis is None
            else [list(entry) for entry in incident.diagnosis.ranking[:5]],
            None if incident.action is None
            else [incident.action.kind, incident.action.target],
            incident.recovered,
        ]
        for incident in system.loop.incidents
    ]


def test_wiring_order_pins_incidents():
    """Injector, monitor and diagnoser wiring order, pinned end to end:
    moving any of them changes which press a fault activates on, which
    step an error lands in, or which repair the ladder picks."""
    digest = hashlib.sha256()
    for seed in sorted(WIRING_PLANS):
        rows = _incident_rows(seed)
        assert rows, f"seed {seed} raised no incident"
        digest.update(json.dumps(rows, sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == WIRING_DIGEST


class TestTraderTV:
    def test_healthy_session_clean_report(self):
        system = TraderTV(seed=3)
        system.press_sequence(["power", "ch_up", "vol_up", "ttx", "ttx", "power"])
        system.run(10.0)
        report = system.health_report()
        assert report["incidents"] == 0
        assert report["active_faults"] == []
        assert report["comparisons"] > 20

    def test_sync_fault_detected_and_recovered(self):
        system = TraderTV(seed=7)
        system.inject("drop_ttx_notify", activate_after_presses=3)
        system.press_sequence(["power", "ttx", "ttx", "ch_up", "ttx"])
        system.run(30.0)
        report = system.health_report()
        assert report["incidents"] >= 1
        assert report["recovered"] == report["incidents"]
        assert report["active_faults"] == []
        assert report["screen"]["ttx_status"] == "shown"

    def test_mute_fault_recovered_via_sound_ladder(self):
        system = TraderTV(seed=8)
        system.inject("mute_noop")
        system.press_sequence(["power", "mute"])
        system.run(30.0)
        assert system.injector.active_faults() == []
        # after repair the mute key works again
        system.tv.press("mute")
        assert system.tv.sound_level() == 0

    def test_escalation_reaches_clear_all(self):
        """A fault the first ladder steps do not fix escalates to the
        catch-all repair."""
        system = TraderTV(seed=9)
        system.inject("menu_opens_epg")
        system.press_sequence(["power", "menu"])
        system.run(20.0)
        # menu_opens_epg has no dedicated screen-ladder step; escalation
        # clears it via clear_all
        system.press_sequence(["menu", "menu"])
        system.run(40.0)
        assert system.injector.active_faults() == []

    def test_errors_tagged_by_scope(self):
        system = TraderTV(seed=7)
        system.inject("drop_ttx_notify", activate_after_presses=3)
        system.press_sequence(["power", "ttx", "ttx", "ch_up", "ttx"])
        system.run(30.0)
        by_scope = system.health_report()["errors_by_scope"]
        assert by_scope["mode-consistency"] >= 1

    def test_deterministic_given_seed(self):
        def run():
            system = TraderTV(seed=11)
            system.inject("ttx_stale_render", activate_after_presses=2)
            system.press_sequence(["power", "ttx"])
            system.run(40.0)
            report = system.health_report()
            report.pop("screen")
            return report

        assert run() == run()
