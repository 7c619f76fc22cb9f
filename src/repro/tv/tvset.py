"""The complete simulated TV: composition, control logic, observables.

:class:`TVSet` is the reproduction's System Under Observation.  It wires
the Koala components (tuner, audio, video, teletext, OSD, dual screen,
features) into a :class:`~repro.koala.binding.Configuration`, runs the
real-time pipeline on a simulated SoC, and exposes the two user-level
observables of Sect. 4.2 — the **screen** descriptor and the **sound**
level — as output events that the awareness framework's observers attach
to.

The control logic implements the feature-interaction rules that the
specification model (:mod:`repro.tv.control_model`) describes from the
user's viewpoint; faults (:mod:`repro.tv.faults`) perturb exactly these
handlers so spec and system diverge in user-visible ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..koala.binding import Configuration
from ..koala.component import Component
from ..platform.soc import SoC, make_tv_soc
from ..sim.kernel import Kernel
from ..sim.random import RandomStreams
from .audio import Audio
from .dualscreen import DualScreen
from .features import Features
from .interfaces import IKeyInput
from .osd import Osd
from .remote import RemoteControl
from .teletext import Teletext
from .tuner import Tuner
from .video import VideoPipeline

#: Overlays dismissed by a channel change.
_CHANNEL_CLEARS = ("ttx", "epg", "volume_bar", "info_banner")
VOLUME_BAR_TIMEOUT = 2.0
INFO_BANNER_TIMEOUT = 2.0


@dataclass(frozen=True)
class OutputEvent:
    """One observable output: at ``time`` the observable ``name`` became ``value``."""

    time: float
    name: str
    value: Any


class ControlLogic(Component):
    """Key dispatch and feature-interaction rules.

    Each handler reports the *branch tags* it executed through
    ``on_handler`` — the hook the block instrumentation of
    :mod:`repro.tv.software` uses to build program spectra without
    touching handler code (our stand-in for C-code instrumentation).
    """

    def __init__(self, tv: "TVSet", name: str = "control") -> None:
        self.tv = tv
        self.on_handler: List[Callable[[str, List[str]], None]] = []
        #: Named fault hooks the injector toggles; see repro.tv.faults.
        self.fault_flags: Dict[str, bool] = {}
        super().__init__(name)

    def configure(self) -> None:
        self.provide("keys", IKeyInput)
        # Declared dependencies: the control logic drives every other
        # component through these Koala bindings, which is what makes the
        # architecture analyzable (FMEA) and weavable (AspectKoala).
        from .interfaces import IAudio, IFeatures, ITeletext, ITuner, IVideo

        self.require("tuner", ITuner)
        self.require("audio", IAudio)
        self.require("video", IVideo)
        self.require("ttx", ITeletext)
        self.require("features", IFeatures)
        self.set_mode("standby")

    # ------------------------------------------------------------------
    def _report(self, handler: str, tags: List[str]) -> None:
        for hook in self.on_handler:
            hook(handler, tags)

    def _fault(self, flag: str) -> bool:
        return self.fault_flags.get(flag, False)

    # ------------------------------------------------------------------
    def op_keys_press(self, key: str) -> None:
        """Entry point for every remote key."""
        tv = self.tv
        if not tv.powered and key != "power":
            self._report("ignore_standby", ["standby"])
            return
        handler = getattr(self, f"_key_{key}", None)
        if handler is None and key.startswith("digit"):
            handler = lambda: self._key_digit(int(key[5:]))  # noqa: E731
        if handler is None:
            self._report("unknown_key", [key])
            return
        handler()
        tv.publish_outputs()

    # ------------------------------------------------------------------
    # power
    # ------------------------------------------------------------------
    def _key_power(self) -> None:
        tv = self.tv
        if tv.powered:
            tags = ["power_off"]
            tv.powered = False
            self.call("video", "blank")
            tv.audio.set_power(False)
            if tv.osd.op_osd_current_overlay() == "ttx":
                self.call("ttx", "hide")
            tv.osd._set("none")
            tv.dual.exit()
            self.set_mode("standby")
        else:
            tags = ["power_on"]
            tv.powered = True
            self.call("video", "unblank")
            self.call("video", "set_source", channel=tv.channel)
            tv.audio.set_power(True)
            self.set_mode("active")
        self._report("power", tags)

    # ------------------------------------------------------------------
    # channel selection
    # ------------------------------------------------------------------
    def _change_channel(self, target: int, tags: List[str]) -> None:
        tv = self.tv
        if tv.osd.op_osd_current_overlay() == "menu":
            tags.append("blocked_by_menu")
            self._report("channel", tags)
            return
        if self.call("features", "is_locked_channel", channel=target):
            tags.append("child_locked")
            tv.show_transient("info_banner")
            self._report("channel", tags)
            return
        tv.channel = target
        self.call("tuner", "tune", channel=target)
        self.call("video", "set_source", channel=target)
        # The sync-loss fault drops this notification inside the acquirer,
        # not here: control logic and renderer stay consistent with each
        # other while the acquirer silently goes stale (Sect. 4.3, [17]).
        tv.teletext.notify_channel(target)
        overlay = tv.osd.op_osd_current_overlay()
        if overlay in _CHANNEL_CLEARS:
            if overlay == "ttx":
                self.call("ttx", "hide")
                tags.append("ttx_closed")
            tv.osd._set("none")
        self._report("channel", tags)

    def _key_ch_up(self) -> None:
        tv = self.tv
        target = tv.channel + 1
        if target > tv.tuner.channel_count:
            target = 1
        self._change_channel(target, ["ch_up"])

    def _key_ch_down(self) -> None:
        tv = self.tv
        target = tv.channel - 1
        if target < 1:
            target = tv.tuner.channel_count
        self._change_channel(target, ["ch_down"])

    def _key_digit(self, digit: int) -> None:
        target = digit if digit >= 1 else 10
        self._change_channel(target, [f"digit{digit}"])

    # ------------------------------------------------------------------
    # volume
    # ------------------------------------------------------------------
    def _adjust_volume(self, delta: int, tags: List[str]) -> None:
        tv = self.tv
        if tv.osd.op_osd_current_overlay() == "menu":
            tags.append("blocked_by_menu")
            self._report("volume", tags)
            return
        current = self.call("audio", "get_volume")
        if self._fault("volume_overshoot"):
            # Programming fault: writes the raw hardware register with the
            # step unscaled, slamming the volume to an extreme.
            new_level = 100 if delta > 0 else 0
            tags.append("FAULT_volume_overshoot")
        else:
            new_level = current + delta
        self.call("audio", "set_volume", level=new_level)
        overlay = tv.osd.op_osd_current_overlay()
        if overlay in ("none", "volume_bar", "info_banner"):
            tv.show_transient("volume_bar")
            tags.append("volume_bar")
        self._report("volume", tags)

    def volume_self_check(self) -> None:
        """Periodic volume register refresh (the PR 5 timed self-check).

        Re-writes the cached volume level through the same register path
        a key press uses — a silent no-op on a healthy set (same level,
        no overlay, no output event), but under ``volume_overshoot`` the
        unscaled write slams the register to the extreme *farther* from
        the cached level.  Sparse sessions (overnight sleepers with 90s
        press gaps) therefore still exercise a latent volume fault
        between presses, and the monitor's timed sound sampling catches
        the divergence without a single user interaction."""
        tv = self.tv
        if not tv.powered:
            return
        current = self.call("audio", "get_volume")
        if self._fault("volume_overshoot"):
            new_level = 100 if current < 50 else 0
            tags = ["FAULT_volume_overshoot"]
        else:
            new_level = current
            tags = ["refresh"]
        self.call("audio", "set_volume", level=new_level)
        self._report("volume_check", tags)

    def _key_vol_up(self) -> None:
        self._adjust_volume(Audio.VOLUME_STEP, ["vol_up"])

    def _key_vol_down(self) -> None:
        self._adjust_volume(-Audio.VOLUME_STEP, ["vol_down"])

    def _key_mute(self) -> None:
        tv = self.tv
        if self._fault("mute_noop"):
            self._report("mute", ["FAULT_mute_noop"])
            return
        muted = tv.audio.mode == "mute"
        self.call("audio", "set_mute", muted=not muted)
        self._report("mute", ["mute_on" if not muted else "mute_off"])

    # ------------------------------------------------------------------
    # overlays and teletext
    # ------------------------------------------------------------------
    def _key_ttx(self) -> None:
        tv = self.tv
        overlay = tv.osd.op_osd_current_overlay()
        tags = ["ttx"]
        if overlay == "alert":
            tags.append("blocked_by_alert")
            self._report("ttx", tags)
            return
        if overlay == "ttx":
            self.call("ttx", "hide")
            tv.osd._set("none")
            tags.append("ttx_off")
        else:
            if tv.dual.active:
                # Feature interaction: teletext forces single screen.
                tv.dual.exit()
                self.call("video", "set_pip", channel=0)
                tags.append("forced_single")
            self.call("ttx", "show", page=100)
            tv.osd._set("ttx")
            tags.append("ttx_on")
        self._report("ttx", tags)

    def _key_menu(self) -> None:
        tv = self.tv
        overlay = tv.osd.op_osd_current_overlay()
        tags = ["menu"]
        if overlay == "alert":
            tags.append("blocked_by_alert")
            self._report("menu", tags)
            return
        if overlay == "menu":
            tv.osd._set("none")
            tags.append("menu_off")
        else:
            if overlay == "ttx":
                self.call("ttx", "hide")
                tags.append("ttx_suppressed")
            if self._fault("menu_opens_epg"):
                tv.osd._set("epg")
                tags.append("FAULT_menu_opens_epg")
            else:
                tv.osd._set("menu")
                tags.append("menu_on")
        self._report("menu", tags)

    def _key_epg(self) -> None:
        tv = self.tv
        overlay = tv.osd.op_osd_current_overlay()
        tags = ["epg"]
        if overlay in ("alert", "menu"):
            tags.append("suppressed")
        elif overlay == "epg":
            tv.osd._set("none")
            tags.append("epg_off")
        else:
            if overlay == "ttx":
                self.call("ttx", "hide")
                tags.append("ttx_suppressed")
            tv.osd._set("epg")
            tags.append("epg_on")
        self._report("epg", tags)

    def _key_back(self) -> None:
        tv = self.tv
        overlay = tv.osd.op_osd_current_overlay()
        tags = ["back"]
        if overlay == "alert":
            tags.append("blocked_by_alert")
        elif overlay == "ttx":
            self.call("ttx", "hide")
            tv.osd._set("none")
            tags.append("closed_ttx")
        elif overlay != "none":
            tv.osd._set("none")
            tags.append(f"closed_{overlay}")
        self._report("back", tags)

    # ------------------------------------------------------------------
    # dual screen
    # ------------------------------------------------------------------
    def _key_dual(self) -> None:
        tv = self.tv
        overlay = tv.osd.op_osd_current_overlay()
        tags = ["dual"]
        if overlay in ("menu", "ttx", "alert", "epg"):
            tags.append("blocked_by_overlay")
            self._report("dual", tags)
            return
        if tv.dual.active:
            tv.dual.exit()
            self.call("video", "set_pip", channel=0)
            tags.append("dual_off")
        else:
            pip = tv.channel + 1
            if pip > tv.tuner.channel_count:
                pip = 1
            tv.dual.enter(pip)
            self.call("video", "set_pip", channel=pip)
            tags.append("dual_on")
        self._report("dual", tags)

    def _key_swap(self) -> None:
        tv = self.tv
        tags = ["swap"]
        if not tv.dual.active:
            tags.append("not_dual")
            self._report("swap", tags)
            return
        new_main = tv.dual.swap(tv.channel)
        tv.channel = new_main
        self.call("tuner", "tune", channel=new_main)
        self.call("video", "set_source", channel=new_main)
        self.call("video", "set_pip", channel=tv.dual.pip_channel)
        tv.teletext.notify_channel(new_main)
        self._report("swap", tags)

    # ------------------------------------------------------------------
    # features
    # ------------------------------------------------------------------
    def _key_sleep(self) -> None:
        tv = self.tv
        minutes = tv.features.cycle_sleep()
        tv.show_transient("info_banner")
        self._report("sleep", [f"sleep_{minutes}"])

    def _key_lock(self) -> None:
        tv = self.tv
        enabled = self.call("features", "toggle_lock")
        tv.show_transient("info_banner")
        self._report("lock", ["lock_on" if enabled else "lock_off"])

    def _key_ok(self) -> None:
        tv = self.tv
        tags = ["ok"]
        if tv.osd.op_osd_current_overlay() == "alert":
            self.call("features", "clear_alert")
            tv.osd._set("none")
            tags.append("alert_cleared")
        self._report("ok", tags)


class TVSet:
    """Everything assembled: SoC, components, wiring, observables."""

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        seed: int = 0,
        soc: Optional[SoC] = None,
        suo_id: str = "tv",
    ) -> None:
        self.kernel = kernel or Kernel()
        self.streams = RandomStreams(seed)
        self.soc = soc or make_tv_soc(self.kernel, seed=seed)
        if self.soc.kernel is not self.kernel:
            raise ValueError("SoC must share the TV's kernel")

        #: Identity on the shared runtime bus.  Observables go out on
        #: ``suo.<suo_id>.input`` / ``.stimulus`` / ``.output``, which is
        #: what lets a MonitorFleet multiplex many TVs on one kernel.
        self.suo_id = suo_id
        self.bus = self.kernel.bus
        self._publish_output = self.bus.publisher(f"suo.{suo_id}.output")
        self._publish_stimulus = self.bus.publisher(f"suo.{suo_id}.stimulus")

        self.powered = False
        self.channel = 1

        # components ----------------------------------------------------
        self.tuner = Tuner(streams=self.streams)
        self.audio = Audio()
        self.audio.set_power(False)  # the set boots into standby
        self.video = VideoPipeline(self.soc, self._signal_quality)
        self.teletext = Teletext(self.kernel)
        self.osd = Osd()
        self.dual = DualScreen()
        self.features = Features(self.kernel)
        self.control = ControlLogic(self)

        self.configuration = Configuration("tv")
        for component in (
            self.tuner,
            self.audio,
            self.video,
            self.teletext,
            self.osd,
            self.dual,
            self.features,
            self.control,
        ):
            self.configuration.add(component)
        # Koala wiring: the control logic's declared dependencies.
        self.configuration.bind("control", "tuner", "tuner", "tuner")
        self.configuration.bind("control", "audio", "audio", "audio")
        self.configuration.bind("control", "video", "video", "video")
        self.configuration.bind("control", "ttx", "teletext", "ttx")
        self.configuration.bind("control", "features", "features", "features")
        self.configuration.start_all()

        self.remote = RemoteControl(
            self.kernel, self._on_key, topic=f"suo.{suo_id}.input"
        )

        # observables ---------------------------------------------------
        self.output_events: List[OutputEvent] = []
        self._last_published: Dict[str, Any] = {}
        self._transient_events: Dict[str, Any] = {}

        self.features.on_sleep_expire.append(self._sleep_expired)

        # The render loop: periodically re-publish observables so changes
        # that happen *between* key presses (teletext page acquisition,
        # frame-quality shifts) become visible to the output observer.
        self.refresh_interval = 0.5
        self._schedule_refresh()

        # Timed volume self-check: the register refresh that keeps a
        # latent volume fault detectable on sets whose users rarely
        # press anything (see ControlLogic.volume_self_check).
        self.volume_check_interval = 45.0
        self._schedule_volume_check()

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def _on_key(self, key: str) -> None:
        self.control.handle("keys", "press", key=key)

    def _signal_quality(self) -> float:
        return self.tuner.op_tuner_signal_quality()

    def _sleep_expired(self) -> None:
        if self.powered:
            self.control._key_power()
            self.publish_outputs()

    # ------------------------------------------------------------------
    # transient overlays (volume bar, info banner)
    # ------------------------------------------------------------------
    def show_transient(self, kind: str) -> None:
        """Show a self-dismissing overlay and (re)arm its timeout."""
        timeout = VOLUME_BAR_TIMEOUT if kind == "volume_bar" else INFO_BANNER_TIMEOUT
        shown = self.osd.op_osd_show_overlay(kind=kind)
        if not shown:
            return
        pending = self._transient_events.get(kind)
        if pending is not None:
            pending.cancel()
        self._transient_events[kind] = self.kernel.schedule(
            timeout, lambda: self._hide_transient(kind), name=f"osd:{kind}"
        )

    def _hide_transient(self, kind: str) -> None:
        self._transient_events.pop(kind, None)
        if self.osd.op_osd_current_overlay() == kind:
            self.osd._set("none")
            self.publish_outputs()

    # ------------------------------------------------------------------
    # alerts (broadcast-side input)
    # ------------------------------------------------------------------
    def _schedule_refresh(self) -> None:
        self.kernel.schedule(self.refresh_interval, self._refresh, name="render")

    def _refresh(self) -> None:
        if self.powered:
            self.publish_outputs()
        self._schedule_refresh()

    def _schedule_volume_check(self) -> None:
        self.kernel.schedule(
            self.volume_check_interval, self._volume_check,
            name="selfcheck:volume",
        )

    def _volume_check(self) -> None:
        if self.powered:
            self.control.volume_self_check()
            self.publish_outputs()
        self._schedule_volume_check()

    def broadcast_alert(self) -> None:
        """An emergency alert arrives from the broadcaster."""
        if not self.powered:
            return
        self._publish_stimulus("alert_broadcast")
        self.features.handle("features", "raise_alert")
        if self.osd.op_osd_current_overlay() == "ttx":
            self.teletext.handle("ttx", "hide")
        self.osd._set("alert")
        self.publish_outputs()

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def screen_descriptor(self) -> Dict[str, Any]:
        """What the user currently sees."""
        if not self.powered:
            return {"power": False, "content": "dark", "overlay": "none"}
        overlay = self.osd.op_osd_current_overlay()
        descriptor: Dict[str, Any] = {
            "power": True,
            "content": "dual" if self.dual.active else "video",
            "overlay": overlay,
            "channel": self.channel,
        }
        if self.dual.active:
            descriptor["pip_channel"] = self.dual.pip_channel
        if overlay == "ttx":
            rendered = self.teletext.handle("ttx", "rendered_page")
            descriptor["ttx_status"] = rendered.get("status")
            descriptor["ttx_page"] = rendered.get("page")
        return descriptor

    def sound_level(self) -> int:
        return self.audio.op_audio_effective_level()

    def publish_outputs(self) -> None:
        """Emit output events for observables that changed."""
        self._publish("screen", self.screen_descriptor())
        self._publish("sound", self.sound_level())

    def _publish(self, name: str, value: Any) -> None:
        if self._last_published.get(name) == value:
            return
        self._last_published[name] = value
        event = OutputEvent(self.kernel.now, name, value)
        self.output_events.append(event)
        self._publish_output(event)

    # ------------------------------------------------------------------
    # convenience driving API
    # ------------------------------------------------------------------
    def press(self, key: str) -> None:
        """Press a key immediately (runs pending events first)."""
        self.remote.press(key)

    def run(self, duration: float) -> None:
        """Advance the simulation."""
        self.kernel.run(until=self.kernel.now + duration)
