"""The fault catalogue (:data:`repro.faults.FAULTS`) on live devices.

Several entries (``cold_fuser``, ``lost_staples``, ``menu_opens_epg``,
``ttx_stale_render``) appear in no library scenario, so only this test
runs their fleet actions: a misspelt device method would otherwise
surface the first time a user schedules the fault.
"""

from repro.faults import FAULTS
from repro.runtime.fleet import MonitorFleet


def _admit(fleet, kind):
    """A fresh running member of ``kind``."""
    if kind == "tv":
        member = fleet.add_tv()
        member.suo.remote.schedule_press(0.0, "power")
        for step, key in enumerate(("ttx", "vol_up", "mute", "menu", "back")):
            member.suo.remote.schedule_press(1.0 + 2.0 * step, key)
    elif kind == "player":
        member = fleet.add_player(packet_count=200, corrupt_indices=[40])
        fleet.kernel.schedule(0.0, lambda: member.suo.command("play"))
    else:
        member = fleet.add_printer()
        for at in (0.5, 4.0, 8.0):
            fleet.kernel.schedule(
                at, lambda: member.suo.submit(pages=2, staple=True)
            )
    return member


def test_every_entry_applies_clears_and_repairs_on_a_live_fleet():
    fleet = MonitorFleet(seed=5)
    kernel = fleet.kernel
    for (kind, name), fault in FAULTS.items():
        member = _admit(fleet, kind)
        target = member.monitor if fault.on_monitor else member.suo
        assert target is not None, (kind, name)
        kernel.schedule_at(2.0, lambda f=fault, t=target: f.apply(t))
        for at, action in ((6.0, fault.clear), (9.0, fault.repair)):
            if action is not None:
                kernel.schedule_at(at, lambda a=action, t=target: a(t))
    assert kernel.run(until=20.0) > 0
    assert kernel.now == 20.0
    # the repaired player decodes again after its pipeline restart
    player = next(m.suo for m in fleet.members.values() if m.kind == "player")
    assert not player.stall_on_corrupt
