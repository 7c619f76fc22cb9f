"""Product descriptors: every per-kind fact about an SUO, once.

Fig. 2's Configuration component is per product.  One :class:`Product`
per kind (a product line in the Koala sense) holds the SUO constructor,
the spec model, the monitor adaptation (translator and bus wiring), the
observables with their providers, resync readings and implicated
components, the diagnosis vocabulary and the Sect. 4.6 function
profile.  :func:`make_monitor`, :func:`resync`,
:meth:`~repro.runtime.fleet.MonitorFleet.add`, the component spectra
and the recovery ladder all derive from it, so a new kind is one
:class:`Product` value; the scenario compiler finds the library kinds
in :data:`PRODUCTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .awareness.config import AwarenessConfig, ObservableSpec
from .awareness.executor import EventTranslator, ExpectedProvider
from .awareness.monitor import AwarenessMonitor
from .core.contract import Observation
from .perception.severity import FunctionProfile
from .printer.engine import Printer
from .printer.model import (
    build_printer_model,
    expected_page_rate,
    expected_progressing,
    expected_queue_depth,
    expected_status,
)
from .statemachine.machine import Machine
from .tv.control_model import (
    build_tv_model,
    expected_screen,
    expected_sound,
    key_to_event_name,
)
from .tv.mediaplayer import (
    MediaPlayer,
    MediaSource,
    build_player_model,
    expected_player_pace,
    expected_player_position,
    expected_player_progressing,
    expected_player_state,
)
from .tv.tvset import TVSet

Components = Tuple[str, ...]
_EMPTY: Components = ()


@dataclass(frozen=True)
class Observable:
    """One monitored observable of a product."""

    #: The comparison policy; each monitor compares with its own copy.
    spec: ObservableSpec
    #: The model's expected value.
    provider: ExpectedProvider
    #: The SUO's current value, adopted by the restart resync; ``None``
    #: leaves the comparator's last-seen value alone.
    read: Optional[Callable[[Any], Any]] = None
    #: Components a deviation implicates, only where unambiguous
    #: (a ``sound`` divergence is audio; a ``screen`` one could be many).
    errors: Components = ()


def observable(
    name: str,
    provider: ExpectedProvider,
    read: Optional[Callable[[Any], Any]] = None,
    errors: Components = (),
    **policy: Any,
) -> Observable:
    """An :class:`Observable` compared under ``ObservableSpec(name, **policy)``."""
    return Observable(ObservableSpec(name, **policy), provider, read, errors)


@dataclass(frozen=True)
class Product:
    """Everything the monitor, the fleet, diagnosis and recovery need to
    know about one kind of SUO."""

    kind: str
    #: ``(kernel=, suo_id=, seed=, **suo_args) -> SUO``, called by keyword.
    build: Callable[..., Any]
    #: ``SUO -> Machine``: a fresh spec model on the shared chart.
    model: Callable[[Any], Machine]
    translate: EventTranslator
    #: ``(monitor, SUO)``: subscribe the monitor's channels to the SUO's
    #: bus topics (the Fig. 2 "SUO modifications").
    wire: Callable[[AwarenessMonitor, Any], None]
    #: In comparison order: the comparator arms its timed samples in
    #: this order, which fixes the kernel's event sequence.
    observables: Tuple[Observable, ...]
    #: ``(SUO, now) -> (leaf, vars, timer deadlines)`` for the resync.
    reseed: Callable[[Any, float], Tuple[str, Dict[str, Any], Dict[str, float]]]
    #: The units a targeted rebind can replace.
    components: Components
    #: Input key -> the component it exercises (the classifier's key map).
    keys: Mapping[str, str]
    #: Output name -> the components it proves active.
    outputs: Mapping[str, Components]
    #: ``(topic kind, bus event) -> components`` the event proves active.
    classify: Callable[[str, Any], Components]
    #: The function users perceive failing (Sect. 4.6 DTI factors).
    function: FunctionProfile

    def config(self) -> AwarenessConfig:
        """A fresh Configuration holding a copy of each policy."""
        config = AwarenessConfig()
        for observable in self.observables:
            config.register(ObservableSpec(**vars(observable.spec)))
        return config


def make_monitor(
    product: Product,
    suo: Any,
    config: Optional[AwarenessConfig] = None,
    channel_delay: float = 0.05,
    channel_jitter: float = 0.02,
    start: bool = True,
    name: Optional[str] = None,
) -> AwarenessMonitor:
    """Attach a fully wired awareness monitor to ``suo``.

    Attachment is topic-based: the monitor subscribes to the SUO's
    ``suo.<suo_id>.*`` topics on the shared runtime bus, so any number
    of monitors (or fleet recorders) can observe one SUO without
    touching it.  A SUO with its own random streams lends them to the
    channels' jitter; any other gets seed-0 streams of the monitor's own.
    """
    monitor = AwarenessMonitor(
        suo.kernel,
        product.model(suo),
        product.translate,
        {o.spec.name: o.provider for o in product.observables},
        config=config or product.config(),
        channel_delay=channel_delay,
        channel_jitter=channel_jitter,
        streams=getattr(suo, "streams", None),
        name=name or f"{product.kind}-awareness",
    )
    product.wire(monitor, suo)
    # a partial, not a closure: no cells per monitor
    monitor.attach_resync(partial(resync, monitor, product, suo))
    if start:
        monitor.start()
    return monitor


def resync(monitor: AwarenessMonitor, product: Product, suo: Any) -> None:
    """Re-seed a restarted monitor from the SUO's current state.

    The model adopts the SUO's *actual* state as its new baseline
    (:meth:`Machine.reseed`), and the comparator's last-seen outputs
    refresh to the SUO's current readings, so comparisons do not run
    against pre-stop observations.  An active fault is not masked for
    long: the next interaction that exercises it diverges again.
    """
    now = suo.kernel.now
    leaf, variables, deadlines = product.reseed(suo, now)
    monitor.executor.machine.reseed(
        leaf, now, vars=variables, timer_deadlines=deadlines
    )
    latest = monitor.comparator.latest
    for observable in product.observables:
        if observable.read is not None:
            name = observable.spec.name
            latest[name] = Observation(now, "suo", name, observable.read(suo))
    monitor.comparator.reset()


def _command_classifier(
    commanded: Components, outputs: Mapping[str, Components]
) -> Callable[[str, Any], Components]:
    """Classify a SUO whose every input is a command to one component and
    whose outputs are ``(name, value)`` tuples."""

    def classify(kind: str, event: Any) -> Components:
        if kind == "input":
            return commanded
        if kind == "output" and isinstance(event, tuple) and event:
            return outputs.get(event[0], _EMPTY)
        return _EMPTY

    return classify


# ----------------------------------------------------------------------
# the TV (Sect. 4.2)
# ----------------------------------------------------------------------
def _tv_translate(observation: Observation):
    if observation.name == "key":
        return key_to_event_name(observation.value)
    if observation.name == "stimulus":
        return observation.value, {}
    return None


# The wiring closures hold only the monitor and the kernel (two cells
# per member) and send each datagram straight into its channel.
def _wire_tv(monitor: AwarenessMonitor, tv: TVSet) -> None:
    subscribe, kernel = tv.kernel.bus.subscribe, tv.kernel
    subscribe(
        f"suo.{tv.suo_id}.input",
        lambda _topic, press: monitor.input_channel.send(
            Observation(press.time, "suo", "key", press.key)
        ),
    )
    subscribe(
        f"suo.{tv.suo_id}.stimulus",
        lambda _topic, stimulus: monitor.input_channel.send(
            Observation(kernel.now, "suo", "stimulus", stimulus)
        ),
    )
    subscribe(
        f"suo.{tv.suo_id}.output",
        lambda _topic, event: monitor.output_channel.send(
            Observation(event.time, "suo", event.name, event.value)
        ),
    )


_OVERLAY_TO_MODEL_STATE = {
    "none": "viewing", "volume_bar": "volbar", "info_banner": "banner",
    "menu": "menu", "epg": "epg", "alert": "alert",
}


def _reseed_tv(tv: TVSet, now: float):
    """The active overlay maps to the model leaf, with transient-overlay
    timers re-armed at the TV's true expiry instants; control variables
    copy the component state the user could observe."""
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
    return leaf, {
        "channel": tv.channel,
        "channel_count": tv.tuner.channel_count,
        "volume": tv.audio.op_audio_get_volume(),
        "mute": tv.audio.mode == "mute",
        "dual": tv.dual.active,
        "pip": tv.dual.pip_channel if tv.dual.active else 0,
        "lock_enabled": tv.features.mode == "locked",
        "locked": frozenset(tv.features.locked_channels),
        "sleep": tv.features.op_features_get_sleep(),
    }, deadlines


_TV_KEYS = {
    "vol_up": "audio", "vol_down": "audio", "mute": "audio",
    "ch_up": "tuner", "ch_down": "tuner",
    "ttx": "teletext",
    "menu": "osd", "epg": "osd", "back": "osd", "ok": "osd",
    "sleep": "osd", "lock": "osd",
    "dual": "dualscreen", "swap": "dualscreen",
    "power": "video",
}

_TV_OUTPUTS = {"sound": ("audio",), "screen": ("video",)}


def _classify_tv(kind: str, event: Any) -> Components:
    if kind == "input":
        key = getattr(event, "key", None)
        if not isinstance(key, str):
            return _EMPTY
        if key.startswith("digit"):
            return ("tuner",)
        component = _TV_KEYS.get(key)
        return (component,) if component else _EMPTY
    if kind == "stimulus":
        return ("osd",)
    if kind == "output":
        return _TV_OUTPUTS.get(getattr(event, "name", None), _EMPTY)
    return _EMPTY


TV = Product(
    kind="tv",
    build=TVSet,
    model=lambda tv: build_tv_model(channel_count=tv.tuner.channel_count),
    translate=_tv_translate,
    wire=_wire_tv,
    observables=(
        observable("screen", expected_screen, read=TVSet.screen_descriptor,
                   max_consecutive=3, trigger="both", period=0.5, severity=2.0),
        observable("sound", expected_sound, read=TVSet.sound_level, errors=("audio",),
                   max_consecutive=3, trigger="both", period=0.5, severity=1.0),
    ),
    reseed=_reseed_tv,
    components=("audio", "dualscreen", "osd", "teletext", "tuner", "video"),
    keys=_TV_KEYS,
    outputs=_TV_OUTPUTS,
    classify=_classify_tv,
    function=FunctionProfile(
        "viewing", stated_importance=0.9, usage=1.0,
        failure_visibility=0.9, external_attribution_prior=0.2,
    ),
)


# ----------------------------------------------------------------------
# the media player (Sect. 5 validation)
# ----------------------------------------------------------------------
def _player_translate(observation: Observation):
    if observation.name == "command":
        command, params = observation.value
        if command == "seek":
            return "seek", {"position": params.get("position", 0.0)}
        return command, {}
    if observation.name == "progress":
        return "progress", {"position": observation.value}
    return None


def _wire_player(monitor: AwarenessMonitor, player: MediaPlayer) -> None:
    subscribe, kernel = player.kernel.bus.subscribe, player.kernel
    subscribe(
        f"suo.{player.suo_id}.input",
        lambda _topic, command: monitor.input_channel.send(
            Observation(kernel.now, "suo", "command", command)
        ),
    )

    def forward_output(_topic: str, output) -> None:
        output_name, value = output
        now = kernel.now
        if output_name == "frame":
            # a rendered frame is a model input (progress event) and the
            # SUO's belief that playback is healthy — deliberately NOT
            # derived from `position`, which also moves on seek echoes
            # that prove nothing about the pipeline
            monitor.input_channel.send(Observation(now, "suo", "progress", value))
            monitor.output_channel.send(Observation(now, "suo", "progressing", True))
            monitor.output_channel.send(Observation(now, "suo", "pace", True))
            return
        monitor.output_channel.send(Observation(now, "suo", output_name, value))

    subscribe(f"suo.{player.suo_id}.output", forward_output)


def _reseed_player(player: MediaPlayer, now: float):
    """A stalled player has no model counterpart (the stall *is* the
    fault): the model adopts ``playing``, so the divergence is
    re-detected at once, and the progress/pace expectations re-arm at
    the restart instant so stale pre-stop frames cannot false-alarm."""
    state = player.state
    if state not in ("stopped", "playing", "paused"):
        state = "playing"
    variables = {"position": player.position, "last_progress": now,
                 "last_gap": 0.0, "pending_since": None}
    return state, variables, {}


_HALF_BUFFER = MediaPlayer.BUFFER_CAPACITY / 2.0

_PLAYER_OUTPUTS = {
    "state": ("control",), "buffer": ("demux",),
    "frame": ("decoder", "renderer"), "position": ("renderer",),
}


def _build_player(kernel, suo_id, seed, packet_count=500, corrupt_indices=None):
    source = MediaSource(packet_count=packet_count, corrupt_indices=corrupt_indices)
    return MediaPlayer(kernel, source, suo_id=suo_id)


PLAYER = Product(
    kind="player",
    build=_build_player,
    model=lambda player: build_player_model(
        media_duration=player.source.packet_count * player.source.packet_interval
    ),
    translate=_player_translate,
    wire=_wire_player,
    observables=(
        # control-state lockstep
        observable("state", expected_player_state, read=lambda p: p.state,
                   errors=("control",), max_consecutive=2, trigger="both", period=0.5),
        # Consistency, time-sampled on purpose: around a seek, the model
        # step, the stale in-flight frame, and the progress-input-vs-output
        # race each produce one same-streak comparison instant (the
        # Sect. 4.3 "small delays" effect); sampling once per period keeps
        # the transient to a single deviation while a genuinely diverged
        # position still accumulates a streak within a few seconds.
        observable("position", expected_player_position,
                   read=lambda p: round(p.position, 3), threshold=2.0,
                   max_consecutive=3, trigger="time", period=1.0, severity=1.5),
        # belief/verdict stall detector (catches stall_on_corrupt)
        observable("progressing", expected_player_progressing, read=lambda p: True,
                   errors=("decoder",), max_consecutive=2, trigger="time",
                   period=1.0, severity=2.0),
        # belief/verdict throughput detector (catches decode_slowdown)
        observable("pace", expected_player_pace, read=lambda p: True,
                   errors=("decoder",), max_consecutive=3, trigger="time",
                   period=1.0, severity=1.5),
        # Range invariant: level within [0, capacity] <=> deviation from
        # the midpoint stays within the half-capacity threshold.
        observable("buffer", lambda m: _HALF_BUFFER, read=MediaPlayer.buffer_level,
                   errors=("demux",), threshold=_HALF_BUFFER, max_consecutive=2,
                   trigger="event", period=1.0),
    ),
    reseed=_reseed_player,
    components=("control", "decoder", "demux", "renderer"),
    keys={},
    outputs=_PLAYER_OUTPUTS,
    classify=_command_classifier(("control",), _PLAYER_OUTPUTS),
    function=FunctionProfile(
        "playback", stated_importance=0.8, usage=0.8,
        failure_visibility=0.8, external_attribution_prior=0.5,
    ),
)


# ----------------------------------------------------------------------
# the printer (the Octopus project of Sect. 5)
# ----------------------------------------------------------------------
def _printer_translate(observation: Observation):
    if observation.name == "command":
        return observation.value, {}
    if observation.name in ("page", "job_done", "all_jobs_done"):
        return observation.name, {}
    return None


def _wire_printer(monitor: AwarenessMonitor, printer: Printer) -> None:
    subscribe, kernel = printer.kernel.bus.subscribe, printer.kernel
    subscribe(
        f"suo.{printer.suo_id}.input",
        lambda _topic, command: monitor.input_channel.send(
            Observation(kernel.now, "suo", "command", command)
        ),
    )

    def forward_output(_topic: str, output) -> None:
        output_name, value = output
        now = kernel.now
        monitor.output_channel.send(Observation(now, "suo", output_name, value))
        # page deliveries and job completions are also model inputs
        if output_name == "pages_done":
            monitor.input_channel.send(Observation(now, "suo", "page", value))
        if output_name == "job_done":
            monitor.input_channel.send(Observation(now, "suo", "job_done", value))
        if output_name == "status" and value == "idle":
            monitor.input_channel.send(Observation(now, "suo", "all_jobs_done", None))
        # The 'progressing' observable captures the silent-jam class of
        # fault.  The SUO reports True (it *believes* it is making
        # progress) whenever it emits page/queue activity; the model-side
        # provider recomputes whether progress actually arrives within
        # the spec's timing window.  A silently jammed feeder keeps the
        # system's belief at True while the model's verdict flips to
        # False — the divergence is the error, found by time-based
        # comparison (the system alone would never notice).
        if output_name in ("pages_done", "queue"):
            monitor.output_channel.send(Observation(now, "suo", "progressing", True))

    subscribe(f"suo.{printer.suo_id}.output", forward_output)


def _reseed_printer(printer: Printer, now: float):
    """The model adopts the printer's status and queue depth; the
    progress and throughput expectations re-arm at the restart instant
    (``printing_since`` restarts the rate ramp, so a monitor restarted
    mid-job does not flag the window refill)."""
    status = printer.status
    if status not in ("idle", "printing", "paused"):
        status = "idle"
    variables = {"jobs": len(printer.queue), "last_progress": now,
                 "printing_since": now}
    return status, variables, {}


_PRINTER_OUTPUTS = {
    "status": ("controller",), "queue": ("controller",),
    "job_done": ("controller",), "pages_done": ("feeder", "engine"),
    "page_quality": ("engine",),
}


PRINTER = Product(
    kind="printer",
    build=lambda kernel, suo_id, seed: Printer(kernel=kernel, suo_id=suo_id),
    model=lambda printer: build_printer_model(),
    translate=_printer_translate,
    wire=_wire_printer,
    observables=(
        # Job completion is a multi-event burst (job_done, queue, status
        # out; all_jobs_done in) whose parts cross the two channels with
        # independent jitter — up to ~4 comparisons at distinct instants
        # can see the SUO's new status against the model's pre-completion
        # state, so the streak must outlast the skew window
        # (printer-jam-drill surfaced a drain-to-idle false alarm at
        # max_consecutive=2).
        observable("status", expected_status, read=lambda p: p.status,
                   max_consecutive=4, trigger="both", period=0.5),
        observable("progressing", expected_progressing, read=lambda p: True,
                   errors=("feeder",), max_consecutive=2, trigger="time",
                   period=1.0, severity=2.0),
        # Fused pages must be near-perfect: the model's constant
        # expectation against the last page quality.
        observable("page_quality", lambda m: 1.0, errors=("engine",),
                   threshold=0.25, max_consecutive=3, trigger="event", severity=1.5),
        # Queue-depth consistency: ±1 rides out the channel skew between
        # a submit crossing the input channel and the matching queue
        # event crossing the output channel; max_consecutive also covers
        # multi-job bursts landing in one instant.
        observable("queue", expected_queue_depth, read=lambda p: len(p.queue),
                   errors=("controller",), threshold=1.0, max_consecutive=4,
                   trigger="both", period=1.0),
        # The throughput floor, time-sampled so a silent jam is caught
        # even while the SUO emits nothing at all.
        observable("page_rate", expected_page_rate,
                   read=lambda p: round(p.page_rate(), 3), errors=("feeder",),
                   threshold=0.7, max_consecutive=3, trigger="time", period=1.0,
                   severity=1.5),
    ),
    reseed=_reseed_printer,
    components=("controller", "engine", "feeder", "finisher"),
    keys={},
    outputs=_PRINTER_OUTPUTS,
    classify=_command_classifier(("controller",), _PRINTER_OUTPUTS),
    function=FunctionProfile(
        "printing", stated_importance=0.7, usage=0.6,
        failure_visibility=0.9, external_attribution_prior=0.3,
    ),
)

#: The library's kinds, by the name scenario plans use.
PRODUCTS: Dict[str, Product] = {p.kind: p for p in (TV, PLAYER, PRINTER)}
