"""Edge-case coverage: ports, event queues, interfaces, SoC composition."""

import pytest

from repro.koala import Component, InterfaceType, Port
from repro.platform import make_tv_soc
from repro.sim import Kernel
from repro.statemachine import Event, EventQueue
from repro.tv import TVSet
from repro.tv.interfaces import IAudio, IOsd, ITeletext, ITuner, IVideo


class TestPorts:
    def test_full_name_and_repr(self):
        itype = InterfaceType("IX").operation("op")

        class Comp(Component):
            def configure(self):
                self.provide("p", itype)

        component = Comp("mycomp")
        port = component.provides["p"]
        assert port.full_name() == "mycomp.p"
        assert "mycomp.p" in repr(port)
        assert not port.bound

    def test_invalid_direction_rejected(self):
        itype = InterfaceType("IX")
        with pytest.raises(ValueError):
            Port(None, "p", itype, "sideways")


class TestEventQueue:
    def test_fifo_order(self):
        queue = EventQueue()
        queue.push(Event("a"))
        queue.push(Event("b"))
        assert queue.pop().name == "a"
        assert queue.pop().name == "b"
        assert queue.pop() is None

    def test_len_and_clear(self):
        queue = EventQueue()
        queue.push(Event("a"))
        queue.push(Event("b"))
        assert len(queue) == 2
        queue.clear()
        assert len(queue) == 0

    def test_event_helpers(self):
        event = Event("key", {"n": 4}, time=2.0)
        assert event.param("n") == 4
        assert event.param("missing", "dflt") == "dflt"
        later = event.with_time(9.0)
        assert later.time == 9.0 and later.name == "key"
        assert "key" in repr(event)


class TestInterfaceCatalogue:
    @pytest.mark.parametrize(
        "itype,operation",
        [
            (ITuner, "tune"),
            (IAudio, "set_volume"),
            (IVideo, "set_source"),
            (ITeletext, "show"),
            (IOsd, "show_overlay"),
        ],
    )
    def test_expected_operations_declared(self, itype, operation):
        assert itype.has_operation(operation)

    def test_volume_contract_bounds(self):
        operation = IAudio.operations["set_volume"]
        assert operation.check_args({"level": 50}) is None
        assert operation.check_args({"level": 101}) is not None


class TestSocComposition:
    def test_make_tv_soc_shape(self):
        soc = make_tv_soc(Kernel(), cores=3, accelerator_speed=8.0)
        names = [p.name for p in soc.pool]
        assert names == ["cpu0", "cpu1", "cpu2", "vpu"]
        assert soc.processor("vpu").accelerator
        assert soc.processor("vpu").speed == 8.0

    def test_soc_and_tv_share_kernel(self):
        tv = TVSet(seed=1)
        assert tv.soc.kernel is tv.kernel

    def test_mismatched_kernel_rejected(self):
        foreign_soc = make_tv_soc(Kernel())
        with pytest.raises(ValueError):
            TVSet(kernel=Kernel(), soc=foreign_soc)


class TestTvConfigurationWiring:
    def test_all_control_dependencies_bound(self):
        tv = TVSet(seed=1)
        assert tv.configuration.validate() == []

    def test_dependency_graph_covers_paper_components(self):
        tv = TVSet(seed=1)
        graph = tv.configuration.dependency_graph()
        for target in ("tuner", "audio", "video", "teletext", "features"):
            assert target in graph["control"]

    def test_component_repr_readable(self):
        tv = TVSet(seed=1)
        assert "audio" in repr(tv.audio)
        assert "mode=" in repr(tv.audio)


class TestTeletextPageSelection:
    def test_select_page_changes_lookup(self):
        tv = TVSet(seed=1)
        tv.press("power")
        tv.press("ttx")
        tv.run(10.0)  # acquire a few carousel pages
        tv.teletext.handle("ttx", "select_page", page=101)
        rendered = tv.teletext.handle("ttx", "rendered_page")
        assert rendered["page"] == 101

    def test_acquired_page_count_grows(self):
        tv = TVSet(seed=1)
        tv.press("power")
        tv.press("ttx")
        tv.run(2.0)
        early = tv.teletext.handle("ttx", "acquired_page")
        tv.run(10.0)
        late = tv.teletext.handle("ttx", "acquired_page")
        assert late > early


class TestSleepInteraction:
    def test_sleep_cycles_through_banner_values(self):
        tv = TVSet(seed=1)
        tv.press("power")
        values = []
        for _ in range(3):
            tv.press("sleep")
            values.append(tv.features.op_features_get_sleep())
            tv.run(3.0)
        assert values == [15, 30, 60]

    def test_sleep_expiry_publishes_dark_screen(self):
        tv = TVSet(seed=1)
        tv.press("power")
        tv.press("sleep")  # 15 simulated minutes
        tv.run(15 * tv.features.time_per_minute + 10)
        assert tv.output_events[-1].name in ("screen", "sound")
        assert tv.screen_descriptor()["power"] is False
