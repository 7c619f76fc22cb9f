"""Tests for the software block map and the fault injector."""

import pytest

from repro.tv import FaultInjector, SoftwareBuild, TVSet


class TestSoftwareBuild:
    def test_total_block_budget(self):
        build = SoftwareBuild()
        assert build.total_blocks == 60000
        covered = sum(m.size for m in build.modules.values())
        assert covered == 60000

    def test_modules_are_disjoint(self):
        build = SoftwareBuild()
        modules = sorted(build.modules.values(), key=lambda m: m.start)
        for first, second in zip(modules, modules[1:]):
            assert first.end == second.start

    def test_module_of_block(self):
        build = SoftwareBuild()
        core = build.module("kernel_core")
        assert build.module_of_block(core.start).name == "kernel_core"
        assert build.module_of_block(core.end - 1).name == "kernel_core"
        assert build.module_of_block(10**9) is None

    def test_background_includes_all_kernel_core(self):
        build = SoftwareBuild()
        background = build.background_blocks(step=0)
        core = build.module("kernel_core")
        assert set(range(core.start, core.end)) <= background

    def test_background_varies_by_step(self):
        build = SoftwareBuild()
        assert build.background_blocks(0) != build.background_blocks(1)

    def test_background_deterministic(self):
        assert SoftwareBuild(seed=5).background_blocks(3) == SoftwareBuild(
            seed=5
        ).background_blocks(3)

    def test_tag_blocks_stable_base(self):
        build = SoftwareBuild()
        step_a = build.tag_blocks("channel_logic", "ch_up", 0)
        step_b = build.tag_blocks("channel_logic", "ch_up", 1)
        # the 60% base is shared, only the 10% variation differs
        overlap = len(step_a & step_b) / max(1, len(step_a | step_b))
        assert overlap > 0.5

    def test_different_tags_differ(self):
        build = SoftwareBuild()
        up = build.tag_blocks("channel_logic", "ch_up", 0)
        down = build.tag_blocks("channel_logic", "ch_down", 0)
        assert up != down

    def test_unknown_module_empty(self):
        build = SoftwareBuild()
        assert build.tag_blocks("no_such_module", "x", 0) == set()

    def test_fault_blocks_are_ground_truth_modules(self):
        build = SoftwareBuild()
        blocks = build.fault_blocks("ttx_stale_render")
        assert len(blocks) == SoftwareBuild.FAULT_MODULE_SIZE
        module = build.module_of_block(min(blocks))
        assert module.name == "fault_ttx_stale_render"

    def test_fault_modules_keep_their_block_ranges(self):
        # The Sect. 4.4 E1 tables rank these blocks: reordering the fault
        # catalogue must not shift them.
        build = SoftwareBuild()
        order = (
            "drop_ttx_notify", "ttx_stale_render", "volume_overshoot",
            "mute_noop", "menu_opens_epg",
        )
        assert [n for n in build.modules if n.startswith("fault_")] == [
            f"fault_{name}" for name in order
        ]
        for index, name in enumerate(order):
            start = 22980 + SoftwareBuild.FAULT_MODULE_SIZE * index
            assert build.fault_blocks(name) == frozenset(range(start, start + 4))

    def test_fault_tag_maps_to_fault_blocks(self):
        build = SoftwareBuild()
        blocks = build.blocks_for_handler(
            "ttx_render", ["render", "FAULT_ttx_stale_render"], None, 0
        )
        assert build.fault_blocks("ttx_stale_render") <= blocks


class TestFaultInjector:
    def test_unknown_fault_rejected(self):
        tv = TVSet(seed=1)
        # load disturbances act on a fleet, not on one TV's defect plan
        for name in ("cosmic_ray", "alert_broadcast", "monitor_churn"):
            with pytest.raises(ValueError):
                FaultInjector(tv).inject(name)

    def test_immediate_activation(self):
        tv = TVSet(seed=1)
        injector = FaultInjector(tv)
        spec = injector.inject("mute_noop")
        assert spec.active
        assert injector.active_faults() == ["mute_noop"]

    def test_deferred_activation_by_press_count(self):
        tv = TVSet(seed=1)
        injector = FaultInjector(tv)
        spec = injector.inject("mute_noop", activate_after_presses=3)
        assert not spec.active
        tv.press("power")
        tv.press("vol_up")
        assert not spec.active
        tv.press("vol_up")
        assert spec.active

    def test_mute_noop_behaviour(self):
        tv = TVSet(seed=1)
        FaultInjector(tv).inject("mute_noop")
        tv.press("power")
        tv.press("mute")
        assert tv.sound_level() == 30  # mute silently ignored

    def test_volume_overshoot_behaviour(self):
        tv = TVSet(seed=1)
        FaultInjector(tv).inject("volume_overshoot")
        tv.press("power")
        tv.press("vol_up")
        assert tv.sound_level() == 100

    def test_menu_opens_epg_behaviour(self):
        tv = TVSet(seed=1)
        FaultInjector(tv).inject("menu_opens_epg")
        tv.press("power")
        tv.press("menu")
        assert tv.screen_descriptor()["overlay"] == "epg"

    def test_ttx_stale_render_behaviour(self):
        tv = TVSet(seed=1)
        FaultInjector(tv).inject("ttx_stale_render")
        tv.press("power")
        tv.press("ttx")
        tv.run(5.0)
        assert tv.screen_descriptor()["ttx_status"] == "searching"

    def test_clear_restores_behaviour(self):
        tv = TVSet(seed=1)
        injector = FaultInjector(tv)
        injector.inject("mute_noop")
        injector.clear("mute_noop")
        tv.press("power")
        tv.press("mute")
        assert tv.sound_level() == 0
        assert injector.active_faults() == []

    def test_clear_ttx_stale_render(self):
        tv = TVSet(seed=1)
        injector = FaultInjector(tv)
        injector.inject("ttx_stale_render")
        injector.clear("ttx_stale_render")
        tv.press("power")
        tv.press("ttx")
        tv.run(5.0)
        assert tv.screen_descriptor()["ttx_status"] == "shown"

    def test_drop_ttx_notify_behaviour(self):
        tv = TVSet(seed=1)
        FaultInjector(tv).inject("drop_ttx_notify")
        tv.press("power")
        tv.press("ttx")
        tv.run(3.0)
        tv.press("ch_up")
        tv.press("ttx")
        tv.run(10.0)
        assert tv.screen_descriptor()["ttx_status"] == "searching"
        assert tv.teletext.acquirer.missed_updates > 0
