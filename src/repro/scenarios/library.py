"""The named scenario library.

Each entry is a complete :class:`~repro.scenarios.spec.ScenarioSpec` —
device mix, user profiles, phased fault schedule — capturing one workload
class the Trader case studies worry about (Sect. 3–5): zapping storms,
overnight soaks, teletext-heavy sessions, seek stress, printer bursts,
broadcast alert floods, degraded platforms, monitor churn, and repair
drills.  Scenarios are intentionally modest in device count; scale any of
them with ``spec.scaled(factor)`` or ``Campaign(..., scale=...)`` — the
thousand-SUO benchmarks (``benchmarks/bench_e15_scenarios.py``,
``bench_e16_sharded.py``) run at 40-60x this size.

Use :func:`get_scenario` / :func:`scenario_names` to look entries up, and
:func:`register_scenario` to add project-local ones.
"""

from __future__ import annotations

from typing import Dict, List

from .exercise import EXERCISE_GAP, EXERCISE_SCRIPT
from .spec import FaultPhase, ScenarioSpec, UserProfile

ZAP_KEYS = ("ch_up", "ch_down", "digit1", "digit5", "digit9", "ok", "back")
COUCH_KEYS = ("power", "ch_up", "vol_up", "vol_down", "mute", "menu", "back", "epg")
VOLUME_KEYS = ("power", "vol_up", "vol_down", "vol_up", "mute", "ch_up", "menu", "back")
TTX_KEYS = ("ttx", "ttx", "ch_up", "back", "dual", "swap", "digit1", "ok")

SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the library (name must be unused)."""
    spec.validate()
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_names() -> List[str]:
    return list(SCENARIOS)


# ----------------------------------------------------------------------
# the library
# ----------------------------------------------------------------------
register_scenario(ScenarioSpec(
    name="zapping-storm",
    description="Aggressive channel zapping across the whole population: "
                "the densest input workload the remote can produce.",
    duration=60.0,
    tvs=24,
    profiles=(UserProfile("zapper", mean_gap=0.8, keys=ZAP_KEYS),),
))

register_scenario(ScenarioSpec(
    name="overnight-soak",
    description="Sparse traffic over a long simulated stretch, with a "
                "late-night volume fault on a small slice of the fleet.",
    duration=900.0,
    tvs=16,
    profiles=(UserProfile("sleeper", mean_gap=90.0, keys=COUCH_KEYS),),
    phases=(FaultPhase("volume_overshoot", at=600.0, fraction=0.2),),
))

register_scenario(ScenarioSpec(
    name="teletext-heavy",
    description="Teletext readers hammering page acquisition while the "
                "Sect. 4.3 synchronization fault drops channel-change "
                "notifications on part of the fleet.",
    duration=90.0,
    tvs=12,
    profiles=(UserProfile("reader", mean_gap=2.5, keys=TTX_KEYS),),
    phases=(FaultPhase("drop_ttx_notify", at=30.0, fraction=0.3),),
))

register_scenario(ScenarioSpec(
    name="player-seek-stress",
    description="Media players under constant seeking with corrupt "
                "packets in the stream; half the pipeline builds carry "
                "the stall-on-corrupt defect.",
    duration=60.0,
    players=10,
    player_seek_every=3.0,
    corrupt_player_packets=(40, 41, 42, 90, 91),
    phases=(FaultPhase("stall_on_corrupt", at=20.0, kind="player", fraction=0.5),),
))

register_scenario(ScenarioSpec(
    name="printer-burst",
    description="Office printers under pulsed job bursts, with a silent "
                "paper jam injected mid-burst on a quarter of them.",
    duration=80.0,
    printers=8,
    printer_job_gap=20.0,
    printer_pages=(1, 6),
    phases=(
        FaultPhase("job_burst", at=5.0, kind="printer", fraction=1.0,
                   duration=40.0, pulse_every=10.0),
        FaultPhase("silent_jam", at=30.0, kind="printer", fraction=0.25),
    ),
))

register_scenario(ScenarioSpec(
    name="mixed-fleet-cascade",
    description="TVs, players, and printers on one kernel with faults "
                "cascading across device kinds twenty seconds apart.",
    duration=90.0,
    tvs=12,
    players=6,
    printers=4,
    profiles=(UserProfile("couch", mean_gap=3.0, keys=VOLUME_KEYS),),
    corrupt_player_packets=(60, 61),
    phases=(
        FaultPhase("volume_overshoot", at=20.0, fraction=0.3),
        FaultPhase("stall_on_corrupt", at=40.0, kind="player", fraction=0.5),
        FaultPhase("silent_jam", at=60.0, kind="printer", fraction=0.5),
    ),
))

register_scenario(ScenarioSpec(
    name="alert-flood",
    description="Emergency broadcast alerts pulsing over the entire "
                "fleet every five seconds: overlay-suppression stress "
                "for the Sect. 4.2 feature-interaction rules.",
    duration=70.0,
    tvs=20,
    profiles=(UserProfile("calm", mean_gap=8.0, keys=COUCH_KEYS),),
    phases=(
        FaultPhase("alert_broadcast", at=10.0, fraction=1.0,
                   duration=40.0, pulse_every=5.0),
    ),
))

register_scenario(ScenarioSpec(
    name="degraded-memory",
    description="Memory pressure modeled as a 3x decode slowdown on most "
                "players while TVs keep normal sessions — the graceful-"
                "degradation regime of the Sect. 5 case study.",
    duration=70.0,
    tvs=6,
    players=8,
    profiles=(UserProfile("background", mean_gap=6.0, keys=COUCH_KEYS),),
    phases=(
        FaultPhase("decode_slowdown", at=15.0, kind="player", fraction=0.6,
                   duration=30.0),
    ),
))

register_scenario(ScenarioSpec(
    name="monitor-churn",
    description="Awareness monitors stopped and restarted mid-session on "
                "part of the fleet: the monitors themselves are the "
                "disturbance (restart cost and re-sync stress).",
    duration=80.0,
    tvs=16,
    profiles=(UserProfile("steady", mean_gap=5.0, keys=COUCH_KEYS),),
    phases=(
        FaultPhase("monitor_churn", at=20.0, fraction=0.4, duration=15.0),
        FaultPhase("monitor_churn", at=55.0, fraction=0.4, duration=10.0),
    ),
))

register_scenario(ScenarioSpec(
    name="player-decoder-drill",
    description="Players seeking across corrupt streams wedge their "
                "decoder with NO scheduled repair: the monitor detects "
                "the stall, walks the ladder, and the SFL ranking lets "
                "rebind restart just the pipeline (decoder) instead of "
                "replacing the whole player — localization outcomes land "
                "in the diagnosis telemetry block.",
    duration=110.0,
    players=8,
    player_seek_every=4.0,
    # Corrupt clusters spread across the whole seekable range, so every
    # seed's seek pattern crosses one within the drill window (clusters
    # confined to one region let unlucky seeds play clean forever).
    corrupt_player_packets=(
        25, 26, 27, 75, 76, 77, 125, 126, 127, 175, 176, 177,
        225, 226, 227, 275, 276, 277, 325, 326, 327, 375, 376, 377,
        425, 426, 427,
    ),
    phases=(
        FaultPhase("stall_on_corrupt", at=12.0, kind="player", fraction=0.5,
                   recovery=True),
    ),
))

register_scenario(ScenarioSpec(
    name="printer-jam-drill",
    description="Office printers under steady jobs; half the feeders "
                "jam silently with NO scheduled repair — the throughput "
                "floor detects the stall and the ladder's targeted "
                "rebind clears the jam at the feeder the spectra "
                "implicate.",
    duration=90.0,
    printers=6,
    printer_job_gap=10.0,
    printer_pages=(2, 6),
    phases=(
        FaultPhase("silent_jam", at=25.0, kind="printer", fraction=0.5,
                   recovery=True),
    ),
))

register_scenario(ScenarioSpec(
    name="targeted-rebind-storm",
    description="Mixed fleet with recovery waves landing on every device "
                "kind ten seconds apart: TVs slam volume, players wedge "
                "decoders, printers jam — every repair routed through "
                "the diagnosis-guided ladder on one shared kernel.",
    duration=100.0,
    tvs=8,
    players=6,
    printers=4,
    profiles=(UserProfile(
        "storm", mean_gap=1.5,
        keys=("vol_up", "vol_down", "mute", "vol_up", "vol_down", "ch_up"),
    ),),
    player_seek_every=4.0,
    corrupt_player_packets=(25, 26, 27, 55, 56, 57, 85, 86, 87),
    printer_job_gap=10.0,
    phases=(
        FaultPhase("volume_overshoot", at=12.0, fraction=0.5, recovery=True),
        FaultPhase("stall_on_corrupt", at=22.0, kind="player", fraction=0.5,
                   recovery=True),
        FaultPhase("silent_jam", at=32.0, kind="printer", fraction=0.5,
                   recovery=True),
    ),
))

# ----------------------------------------------------------------------
# fuzzer-pinned repros (PR 8).  Each pair of facts below was found by
# ``python -m repro.fuzz run``, shrunk to a minimal spec, and pinned
# here with the workload fix that closes the detection gap; the shrunk
# *failing* twins live in tests/test_fuzz_repros.py.
# ----------------------------------------------------------------------
register_scenario(ScenarioSpec(
    name="fuzz-latent-volume",
    description="Fuzzer find (spec 2c248f67be04, campaign seed 2): a "
                "volume_overshoot injected at t=0 on a lone TV stayed "
                "invisible for the whole horizon because the sampled "
                "profile never touched a volume key — passive awareness "
                "cannot see a latent interaction fault.  Pinned with the "
                "model-coverage exercise profile, which is guaranteed to "
                "reach every key-triggered spec transition: detection "
                "now lands within the first volume press's streak.",
    duration=18.0,
    tvs=1,
    # exercise_profile() at its defaults, from the pinned script: the
    # model search behind it runs only when asked for.
    profiles=(UserProfile("exerciser", mean_gap=EXERCISE_GAP,
                          script=EXERCISE_SCRIPT),),
    phases=(FaultPhase("volume_overshoot", at=1.0, kind="tv", fraction=1.0),),
))

register_scenario(ScenarioSpec(
    name="fuzz-printer-silent-jam",
    description="Fuzzer find (spec 8ade5f2b092a, campaign seed 5): a "
                "silent feeder jam on an idle printer — no job gap, so "
                "the paper path never ran and every throughput/progress "
                "observable stayed vacuously healthy.  Pinned with a "
                "probe job cadence: the first submission stalls in the "
                "jammed feeder and the progressing observable flags the "
                "divergence inside the spec's slack window.",
    duration=25.0,
    printers=1,
    printer_job_gap=5.0,
    printer_pages=(2, 4),
    profiles=(),
    phases=(FaultPhase("silent_jam", at=1.0, kind="printer", fraction=1.0),),
))

register_scenario(ScenarioSpec(
    name="recovery-ladder-drill",
    description="Escalating fault waves with NO scheduled repair: each "
                "afflicted member's awareness controller must detect the "
                "divergence and walk the recovery ladder (local reset → "
                "component restart → rebind) until the fault is gone — "
                "the Fig. 1 loop end to end, with per-wave time-to-"
                "recover recorded in fleet telemetry.",
    duration=80.0,
    tvs=10,
    # Volume-heavy and never standby: every rung of the ladder needs a
    # fresh faulty interaction to re-diverge after the restart re-sync,
    # so the drill keeps the faulty controls exercised.
    profiles=(UserProfile(
        "driller", mean_gap=1.5,
        keys=("vol_up", "vol_down", "mute", "vol_up", "vol_down", "ch_up"),
    ),),
    phases=(
        FaultPhase("volume_overshoot", at=10.0, fraction=0.3, recovery=True),
        FaultPhase("mute_noop", at=36.0, fraction=0.5, recovery=True),
        FaultPhase("volume_overshoot", at=62.0, fraction=0.8, recovery=True),
    ),
))
