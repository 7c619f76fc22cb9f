"""A device kind is one :class:`~repro.products.Product` value.

The toy lamp below is defined here and nowhere under ``src/``: one
descriptor gives it a fleet member, an awareness monitor, a restart
resync, component spectra and a perception-weighted recovery ladder.
"""

from repro.core.contract import Observation
from repro.perception.severity import FunctionProfile
from repro.products import PRODUCTS, Product, make_monitor, observable
from repro.runtime.fleet import MonitorFleet
from repro.scenarios.recovery import DOWNTIME, MemberRecovery
from repro.statemachine.builder import MachineBuilder


class Lamp:
    """A lamp toggled by command; a stuck switch ignores the command
    and the lamp publishes nothing."""

    def __init__(self, kernel, suo_id):
        self.kernel = kernel
        self.suo_id = suo_id
        self.lit = False
        self.stuck = False
        self._command = kernel.bus.publisher(f"suo.{suo_id}.input")
        self._output = kernel.bus.publisher(f"suo.{suo_id}.output")

    def toggle(self):
        self._command("toggle")
        if self.stuck:
            return
        self.lit = not self.lit
        self._output(("lit", self.lit))


def _lamp_model(lamp):
    b = MachineBuilder("lamp_spec")
    b.state("off")
    b.state("on")
    b.initial("off")
    b.transition("off", "on", event="toggle")
    b.transition("on", "off", event="toggle")
    return b.build()


def _wire_lamp(monitor, lamp):
    bus, kernel = lamp.kernel.bus, lamp.kernel
    bus.subscribe(
        f"suo.{lamp.suo_id}.input",
        lambda _topic, command: monitor.input_channel.send(
            Observation(kernel.now, "suo", "command", command)
        ),
    )
    bus.subscribe(
        f"suo.{lamp.suo_id}.output",
        lambda _topic, out: monitor.output_channel.send(
            Observation(kernel.now, "suo", *out)
        ),
    )


def _classify_lamp(kind, event):
    if kind == "input":
        return ("switch",)
    if kind == "output":
        return ("bulb",)
    return ()


LAMP = Product(
    kind="lamp",
    build=lambda kernel, suo_id, seed: Lamp(kernel, suo_id),
    model=_lamp_model,
    translate=lambda obs: (obs.value, {}) if obs.name == "command" else None,
    wire=_wire_lamp,
    observables=(
        observable(
            "lit", lambda m: m.configuration().endswith("on"),
            read=lambda lamp: lamp.lit, errors=("switch",),
            max_consecutive=2, trigger="both", period=0.5,
        ),
    ),
    reseed=lambda lamp, now: ("on" if lamp.lit else "off", {}, {}),
    components=("bulb", "switch"),
    keys={},
    outputs={"lit": ("bulb",)},
    classify=_classify_lamp,
    function=FunctionProfile(
        "lighting", stated_importance=0.5, usage=0.9,
        failure_visibility=1.0, external_attribution_prior=0.1,
    ),
)


def test_a_toy_kind_is_monitored_diagnosed_and_repaired_from_its_descriptor():
    assert "lamp" not in PRODUCTS
    fleet = MonitorFleet(seed=4)
    member = fleet.add(LAMP)
    lamp, monitor = member.suo, member.monitor
    assert member.suo_id == "lamp-0" and member.kind == "lamp"
    for i in range(60):
        fleet.kernel.schedule(1.0 + 2.0 * i, lamp.toggle)
    fleet.run(10.0)
    assert monitor.errors == []  # healthy toggles track the model

    harness = MemberRecovery(member, fleet.kernel, fleet.bus)
    lamp.stuck = True
    harness.arm(0, lambda: setattr(lamp, "stuck", False), component="switch")
    fleet.run(100.0)

    assert monitor.errors, "the stuck switch must be detected"
    assert {e.observable for e in monitor.errors} == {"lit"}
    kinds = [entry.action.kind for entry in harness.manager.log]
    assert kinds[:3] == ["local_reset", "component_restart", "rebind"]
    # the ranking was confident enough for a targeted rebind, and right
    assert harness.manager.log[2].downtime == DOWNTIME["targeted_rebind"]
    assert harness.completed, "the rebind must close the episode"
    assert not lamp.stuck
    assert monitor.resyncs >= 2  # the restart and the rebind re-seeded
    # the spectra ranked the lamp's own vocabulary, the switch first
    ranking = harness.spectra.ranking()
    assert ranking[0].component == "switch"
    assert {entry.component for entry in ranking} <= set(LAMP.components)
    # repaired: the monitor stays silent once the rebind is back up
    repaired_at = 10.0 + harness.completed[0][1]
    errors_after = [e for e in monitor.errors if e.time > repaired_at + 1.0]
    assert errors_after == []


def test_a_monitor_copies_its_policies_from_the_descriptor():
    fleet = MonitorFleet(seed=4)
    a = fleet.add(LAMP).monitor
    b = fleet.add(LAMP, monitor=True).monitor
    spec = LAMP.observables[0].spec
    assert a.config.spec("lit") == spec
    assert a.config.spec("lit") is not spec
    a.config.spec("lit").max_consecutive = 9
    assert b.config.spec("lit").max_consecutive == spec.max_consecutive == 2
    assert fleet.add(LAMP, monitor=False).monitor is None
    standalone = make_monitor(LAMP, Lamp(fleet.kernel, "lamp-x"), start=False)
    assert standalone.name == "lamp-awareness"
    assert not standalone.controller.running
