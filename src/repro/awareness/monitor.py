"""AwarenessMonitor: the complete Fig. 2 assembly.

Builds and wires every framework component — channels across the process
boundary, Model Executor, Comparator, Controller, Configuration — along
the figure's interfaces.  Each datagram is one
:class:`~repro.core.contract.Observation`, wired directly to its one
consumer; the two observer roles need no objects of their own:

* SUO  →(IInputEvent)→  input channel → :meth:`AwarenessMonitor._on_input`
  (the Input Observer) →(IEventInfo)→ Model Executor
* SUO  →(IOutputEvent)→ output channel →
  :meth:`Comparator.on_output_event` (the Output Observer: it keeps the
  latest value per observable in ``Comparator.latest``)
* Model Executor →(IModelExecutor)→ Comparator
* Model Executor →(IConfigInfo)→ Configuration
* Comparator →(IErrorNotify)→ Controller (→ the outer Fig. 1 loop)

:func:`make_tv_monitor` and :func:`make_player_monitor` add the "SUO
modifications": the small adaptation that makes a system send its input
and output events across the boundary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.contract import Observation
from ..sim.kernel import Kernel
from ..sim.random import RandomStreams
from ..statemachine.machine import Machine
from ..tv.control_model import (
    build_tv_model,
    expected_screen,
    expected_sound,
    key_to_event_name,
)
from ..tv.mediaplayer import (
    MediaPlayer,
    build_player_model,
    expected_player_pace,
    expected_player_position,
    expected_player_progressing,
    expected_player_state,
)
from ..tv.tvset import TVSet
from .channel import MessageChannel
from .comparator import Comparator
from .config import AwarenessConfig
from .controller import Controller
from .executor import EventTranslator, ExpectedProvider, ModelExecutor


class AwarenessMonitor:
    """One awareness monitor attached to one SUO."""

    def __init__(
        self,
        kernel: Kernel,
        machine: Machine,
        translator: EventTranslator,
        providers: Dict[str, ExpectedProvider],
        config: Optional[AwarenessConfig] = None,
        channel_delay: float = 0.05,
        channel_jitter: float = 0.02,
        streams: Optional[RandomStreams] = None,
        name: str = "awareness",
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.config = config or AwarenessConfig()
        streams = streams or RandomStreams(0)

        self.input_channel = MessageChannel(
            kernel, f"{name}.in", delay=channel_delay, jitter=channel_jitter, streams=streams
        )
        self.output_channel = MessageChannel(
            kernel, f"{name}.out", delay=channel_delay, jitter=channel_jitter, streams=streams
        )

        self.executor = ModelExecutor(
            machine, translator, providers, self.config, name=f"{name}.executor"
        )
        self.controller = Controller(f"{name}.controller")
        self.comparator = Comparator(
            kernel, self.config, self.executor, self.controller.on_error,
            name=f"{name}.comparator",
        )

        # wiring along Fig. 2 interfaces --------------------------------
        self.input_channel.connect(self._on_input)
        self.output_channel.connect(self.comparator.on_output_event)
        self.controller.manage(self.comparator)

        #: Re-sync handshake run on every restart (see
        #: :meth:`attach_resync`); ``resyncs`` counts invocations.
        self._resync: Optional[Callable[[], None]] = None
        self._was_stopped = False
        self.resyncs = 0

    # ------------------------------------------------------------------
    def attach_resync(self, handshake: Callable[[], None]) -> None:
        """Install the restart re-sync handshake.

        A monitor stopped mid-session misses inputs, so on restart its
        model executor would replay expectations from a stale state and
        false-alarm on every divergence it "missed" (the monitor-churn
        scenario made this visible).  The handshake re-seeds the model —
        and the comparator's last-seen outputs — from the SUO's
        *current* observable state before components restart.
        """
        self._resync = handshake

    def start(self) -> None:
        if self.controller.running:
            return
        if self._was_stopped and self._resync is not None:
            # Drop datagrams still in flight from before the stop: the
            # snapshot below already reflects them, and replaying them
            # would double-apply inputs to the re-seeded model.
            self.input_channel.flush_pending()
            self.output_channel.flush_pending()
            self._resync()
            self.resyncs += 1
        self.controller.start()

    def stop(self) -> None:
        if self.controller.running:
            self._was_stopped = True
        self.controller.stop()

    @property
    def errors(self):
        return self.controller.errors

    # -- Input Observer ---------------------------------------------------
    def _on_input(self, observation: Observation) -> None:
        """An input event crossed the boundary: step the model
        (IEventInfo), then let the comparator re-check (IModelExecutor)."""
        comparator = self.comparator
        if comparator.running and self.executor.on_input(observation):
            comparator.on_model_step()

    # -- SUO-side send helpers (used by the adapters) --------------------
    def send_input(self, name: str, value: Any, time: float) -> None:
        self.input_channel.send(Observation(time, "suo", name, value))

    def send_output(self, name: str, value: Any, time: float) -> None:
        self.output_channel.send(Observation(time, "suo", name, value))


# ----------------------------------------------------------------------
# restart re-sync handshakes
# ----------------------------------------------------------------------
_OVERLAY_TO_MODEL_STATE = {
    "none": "viewing",
    "volume_bar": "volbar",
    "info_banner": "banner",
    "menu": "menu",
    "epg": "epg",
    "alert": "alert",
}


def resync_tv_monitor(monitor: "AwarenessMonitor", tv: TVSet) -> None:
    """Re-seed a TV monitor's model from the TV's current observable
    state (the restart handshake; ROADMAP "monitor re-sync" item).

    The model adopts the SUO's *actual* state as its new baseline: the
    active overlay maps to the model leaf (with transient-overlay timers
    re-armed at the TV's true expiry instants), control variables copy
    the component state the user could observe, and the comparator's
    last-seen outputs refresh to the current screen/sound so
    timed comparisons do not run against pre-stop observations.  An
    active fault is *not* masked for long — the adopted baseline matches
    reality right now, and the next interaction that exercises the
    faulty behaviour diverges again and is re-detected.
    """
    now = tv.kernel.now
    if not tv.powered:
        leaf = "standby"
    else:
        overlay = tv.osd.op_osd_current_overlay()
        if overlay == "ttx":
            rendered = tv.teletext.op_ttx_rendered_page()
            leaf = "ttx_shown" if rendered.get("status") == "shown" else "ttx_searching"
        else:
            leaf = _OVERLAY_TO_MODEL_STATE.get(overlay, "viewing")
    deadlines = {}
    for kind, state_name in (("volume_bar", "volbar"), ("info_banner", "banner")):
        pending = tv._transient_events.get(kind)
        if pending is not None and leaf == state_name:
            deadlines[state_name] = pending.time
    monitor.executor.machine.reseed(
        leaf,
        now,
        vars={
            "channel": tv.channel,
            "channel_count": tv.tuner.channel_count,
            "volume": tv.audio.op_audio_get_volume(),
            "mute": tv.audio.mode == "mute",
            "dual": tv.dual.active,
            "pip": tv.dual.pip_channel if tv.dual.active else 0,
            "lock_enabled": tv.features.mode == "locked",
            "locked": frozenset(tv.features.locked_channels),
            "sleep": tv.features.op_features_get_sleep(),
        },
        timer_deadlines=deadlines,
    )
    for name, value in (
        ("screen", tv.screen_descriptor()),
        ("sound", tv.sound_level()),
    ):
        monitor.comparator.latest[name] = Observation(
            time=now, source="suo", name=name, value=value
        )
    monitor.comparator.reset()


def resync_player_monitor(monitor: "AwarenessMonitor", player) -> None:
    """Re-seed a player monitor from the player's current state.

    A stalled player has no model counterpart (the stall *is* the
    fault); the model adopts ``playing`` — what an unfaulty pipeline
    would be doing — so the persistent divergence is re-detected
    immediately after restart instead of being masked.  The depth
    observables re-seed too: position adopts the player's reported
    position, and the progress/pace expectations re-arm at the restart
    instant so the stale pre-stop frame history cannot false-alarm.
    """
    now = player.kernel.now
    state = player.state if player.state in ("stopped", "playing", "paused") else "playing"
    monitor.executor.machine.reseed(
        state,
        now,
        vars={
            "position": player.position,
            "last_progress": now,
            "last_gap": 0.0,
            "pending_since": None,
        },
    )
    for name, value in (
        ("state", player.state),
        ("position", round(player.position, 3)),
        ("buffer", player.buffer_level()),
        ("progressing", True),
        ("pace", True),
    ):
        monitor.comparator.latest[name] = Observation(
            time=now, source="suo", name=name, value=value
        )
    monitor.comparator.reset()


# ----------------------------------------------------------------------
# default configurations and SUO adapters
# ----------------------------------------------------------------------
def default_tv_config(
    max_consecutive: int = 3,
    screen_threshold: float = 0.0,
    sound_threshold: float = 0.0,
    period: float = 0.5,
) -> AwarenessConfig:
    """The TV comparison policy used across examples and benchmarks."""
    config = AwarenessConfig()
    config.observable(
        "screen",
        threshold=screen_threshold,
        max_consecutive=max_consecutive,
        trigger="both",
        period=period,
        severity=2.0,
    )
    config.observable(
        "sound",
        threshold=sound_threshold,
        max_consecutive=max_consecutive,
        trigger="both",
        period=period,
        severity=1.0,
    )
    return config


def _tv_translator(observation: Observation) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Map observed TV inputs to spec-model events."""
    if observation.name == "key":
        return key_to_event_name(observation.value)
    if observation.name == "stimulus":
        return observation.value, {}
    return None


def make_tv_monitor(
    tv: TVSet,
    machine: Optional[Machine] = None,
    config: Optional[AwarenessConfig] = None,
    channel_delay: float = 0.05,
    channel_jitter: float = 0.02,
    start: bool = True,
    name: Optional[str] = None,
) -> AwarenessMonitor:
    """Attach a fully wired awareness monitor to a TV (SUO modifications
    included): key presses and broadcast stimuli feed the input channel,
    screen/sound output events feed the output channel.

    Attachment is topic-based: the monitor subscribes to the TV's
    ``suo.<suo_id>.*`` topics on the shared runtime bus rather than
    patching the TV's hook lists, so any number of monitors (or fleet
    recorders) can observe the same SUO without touching it.
    """
    machine = machine or build_tv_model(channel_count=tv.tuner.channel_count)
    monitor = AwarenessMonitor(
        tv.kernel,
        machine,
        _tv_translator,
        providers={"screen": expected_screen, "sound": expected_sound},
        config=config or default_tv_config(),
        channel_delay=channel_delay,
        channel_jitter=channel_jitter,
        streams=tv.streams,
        name=name or "tv-awareness",
    )
    bus = tv.kernel.bus
    bus.subscribe(
        f"suo.{tv.suo_id}.input",
        lambda _topic, press: monitor.send_input("key", press.key, press.time),
    )
    bus.subscribe(
        f"suo.{tv.suo_id}.stimulus",
        lambda _topic, stimulus: monitor.send_input(
            "stimulus", stimulus, tv.kernel.now
        ),
    )
    bus.subscribe(
        f"suo.{tv.suo_id}.output",
        lambda _topic, event: monitor.send_output(
            event.name, event.value, event.time
        ),
    )
    monitor.attach_resync(lambda: resync_tv_monitor(monitor, tv))
    if start:
        monitor.start()
    return monitor


def _player_translator(observation: Observation) -> Optional[Tuple[str, Dict[str, Any]]]:
    if observation.name == "command":
        command, params = observation.value
        if command == "seek":
            return "seek", {"position": params.get("position", 0.0)}
        return command, {}
    if observation.name == "progress":
        return "progress", {"position": observation.value}
    return None


def default_player_config() -> AwarenessConfig:
    """The player comparison policy (PR 4 detection depth).

    * ``state``       — control-state lockstep (the PR 1 observable);
    * ``position``    — reported position must track the model's last
      confirmed position (consistency; generous threshold rides out
      seek transients crossing the channel);
    * ``progressing`` — belief/verdict stall detector (catches
      ``stall_on_corrupt``);
    * ``pace``        — belief/verdict throughput detector (catches
      ``decode_slowdown``);
    * ``buffer``      — range invariant: the demux buffer level must
      stay inside [0, capacity].
    """
    config = AwarenessConfig()
    config.observable("state", max_consecutive=2, trigger="both", period=0.5)
    # Time-sampled on purpose: around a seek, the model step, the stale
    # in-flight frame, and the progress-input-vs-output race each
    # produce one same-streak comparison instant (the Sect. 4.3 "small
    # delays" effect); sampling once per period keeps the transient to
    # a single deviation while a genuinely diverged position still
    # accumulates a streak within a few seconds.
    config.observable(
        "position", threshold=2.0, max_consecutive=3, trigger="time",
        period=1.0, severity=1.5,
    )
    config.observable(
        "progressing", max_consecutive=2, trigger="time", period=1.0,
        severity=2.0,
    )
    config.observable(
        "pace", max_consecutive=3, trigger="time", period=1.0, severity=1.5,
    )
    config.observable(
        "buffer", threshold=MediaPlayer.BUFFER_CAPACITY / 2.0,
        max_consecutive=2, trigger="event", period=1.0,
    )
    return config


def make_player_monitor(
    player,
    config: Optional[AwarenessConfig] = None,
    channel_delay: float = 0.05,
    channel_jitter: float = 0.02,
    start: bool = True,
    name: Optional[str] = None,
) -> AwarenessMonitor:
    """Awareness monitor for the media player SUO (Sect. 5 validation).

    The player publishes its commands and observables on the runtime bus
    (``suo.<suo_id>.input`` / ``.output``), so no method wrapping is
    needed — the monitor simply subscribes.  Rendered frames double as
    model inputs (``progress`` events drive the position/pace vars) and
    as the SUO's standing belief that it is progressing at nominal pace.
    """
    source = player.source
    machine = build_player_model(
        media_duration=source.packet_count * source.packet_interval
    )
    half_buffer = player.BUFFER_CAPACITY / 2.0
    monitor = AwarenessMonitor(
        player.kernel,
        machine,
        _player_translator,
        providers={
            "state": expected_player_state,
            "position": expected_player_position,
            "progressing": expected_player_progressing,
            "pace": expected_player_pace,
            # Range invariant: level within [0, capacity] ⇔ deviation
            # from the midpoint stays within the half-capacity threshold.
            "buffer": lambda m: half_buffer,
        },
        config=config or default_player_config(),
        channel_delay=channel_delay,
        channel_jitter=channel_jitter,
        name=name or "player-awareness",
    )
    bus = player.kernel.bus
    bus.subscribe(
        f"suo.{player.suo_id}.input",
        lambda _topic, command: monitor.send_input(
            "command", command, player.kernel.now
        ),
    )

    def forward_output(_topic: str, output) -> None:
        output_name, value = output
        now = player.kernel.now
        if output_name == "frame":
            # a rendered frame is a model input (progress event) and the
            # SUO's belief that playback is healthy — deliberately NOT
            # derived from `position`, which also moves on seek echoes
            # that prove nothing about the pipeline
            monitor.send_input("progress", value, now)
            monitor.send_output("progressing", True, now)
            monitor.send_output("pace", True, now)
            return
        monitor.send_output(output_name, value, now)

    bus.subscribe(f"suo.{player.suo_id}.output", forward_output)
    monitor.attach_resync(lambda: resync_player_monitor(monitor, player))
    if start:
        monitor.start()
    return monitor
