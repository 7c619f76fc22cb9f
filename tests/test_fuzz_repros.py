"""Fuzzer-pinned repros: the latent-fault exposure gap and its fix.

The PR 8 fuzz campaigns found (and shrunk) a systematic detection gap:
every ``missed_detection`` verdict was a fault whose triggering
interaction never ran — volume faults with no volume presses, a jammed
feeder in a printer with no jobs.  Passive awareness is blind to a
latent interaction fault, and randomly sampled workloads can starve the
faulty path for a whole scenario horizon.

These tests pin both sides:

* the shrunk failing twins (embedded verbatim from the fuzz corpus)
  still classify as ``missed_detection`` — the gap is real and stays
  documented;
* the ``fuzz-*`` library scenarios — same fault, same horizon, workload
  replaced by the model-coverage exercise profile / a probe job cadence
  — classify ``ok`` with the faulty member detected: the fix closes the
  gap;
* the exercise script itself is deterministic, alphabet-legal, and
  covers every key-triggered spec transition that is structurally
  reachable (so a control-model change cannot silently shrink it);
* the library registers ``fuzz-latent-volume`` from the pinned
  ``EXERCISE_SCRIPT``, which must equal a fresh search (so a model
  change that moves the search result fails here instead of drifting).
"""

from repro.fuzz import classify, evaluate_candidate
from repro.scenarios import (
    EXERCISE_KEYS,
    EXERCISE_SCRIPT,
    ScenarioSpec,
    exercise_profile,
    get_scenario,
    spec_hash,
    tv_exercise_script,
    uncovered_by_exercise,
)
from repro.tv.remote import KEYS

# Shrunk by ``repro.fuzz.shrink`` from grammar-sampled candidates
# (campaign seed 0); spec hashes 2c248f67be04… and 8ade5f2b092a… in the
# fuzz corpus.  Embedded verbatim: these are the *failing* twins of the
# ``fuzz-latent-volume`` / ``fuzz-printer-silent-jam`` library entries.
LATENT_VOLUME = {
    "name": "fuzz-2-10-min",
    "description": "grammar-sampled scenario (repro.fuzz)",
    "duration": 16.6,
    "tvs": 1,
    "players": 0,
    "printers": 0,
    "profiles": [{"name": "default", "weight": 1.0, "mean_gap": 4.0}],
    "phases": [
        {"fault": "volume_overshoot", "at": 0.0, "kind": "tv", "fraction": 1.0}
    ],
    "stagger": 0.1,
    "printer_pages": [1, 5],
    "player_packets": 200,
    "corrupt_player_packets": [],
    "telemetry_window": 10.0,
    "telemetry_reservoir": 512,
    "record_spans": False,
}

LATENT_SILENT_JAM = {
    "name": "fuzz-5-25-min",
    "description": "grammar-sampled scenario (repro.fuzz)",
    "duration": 20.3,
    "tvs": 0,
    "players": 0,
    "printers": 1,
    "profiles": [{"name": "default", "weight": 1.0, "mean_gap": 4.0}],
    "phases": [
        {"fault": "silent_jam", "at": 1.0, "kind": "printer", "fraction": 1.0}
    ],
    "stagger": 0.1,
    "printer_pages": [1, 2],
    "player_packets": 200,
    "corrupt_player_packets": [],
    "telemetry_window": 10.0,
    "telemetry_reservoir": 512,
    "record_spans": False,
}


class TestLatentGapStillOpen:
    """The shrunk finders keep failing — the gap stays documented."""

    def test_latent_volume_overshoot_is_missed(self):
        spec = ScenarioSpec.from_json(LATENT_VOLUME)
        result = evaluate_candidate(spec, seed=0, check_divergence=False)
        assert result.verdict.kind == "missed_detection"
        assert result.verdict.fault_pairs == (("tv", "volume_overshoot"),)

    def test_idle_printer_silent_jam_is_missed(self):
        spec = ScenarioSpec.from_json(LATENT_SILENT_JAM)
        result = evaluate_candidate(spec, seed=0, check_divergence=False)
        assert result.verdict.kind == "missed_detection"
        assert result.verdict.fault_pairs == (("printer", "silent_jam"),)


class TestPinnedScenariosDetect:
    """Same faults, exercised workloads: detection closes the gap."""

    def test_fuzz_latent_volume_detects(self):
        spec = get_scenario("fuzz-latent-volume")
        result = evaluate_candidate(spec, seed=0, check_divergence=False)
        assert result.verdict.kind == "ok", result.verdict.describe()
        assert result.report is not None
        assert result.report.detected == ["tv-0"]
        assert result.report.false_alarms == []

    def test_fuzz_printer_silent_jam_detects(self):
        spec = get_scenario("fuzz-printer-silent-jam")
        result = evaluate_candidate(spec, seed=0, check_divergence=False)
        assert result.verdict.kind == "ok", result.verdict.describe()
        assert result.report is not None
        assert result.report.detected == ["printer-0"]
        assert result.report.false_alarms == []

    def test_detection_is_seed_robust(self):
        # The fix must not hinge on one lucky seed: the exercise script
        # is deterministic and the probe cadence is spec-driven, so any
        # campaign seed detects.
        for seed in (1, 7):
            for name in ("fuzz-latent-volume", "fuzz-printer-silent-jam"):
                result = evaluate_candidate(
                    get_scenario(name), seed=seed, check_divergence=False
                )
                assert result.verdict.kind == "ok", (
                    f"{name} seed {seed}: {result.verdict.describe()}"
                )


class TestExerciseScript:
    def test_deterministic(self):
        assert tv_exercise_script() == tv_exercise_script()

    def test_keys_are_legal_remote_keys(self):
        script = tv_exercise_script()
        assert script
        assert set(script) <= set(KEYS)
        assert set(EXERCISE_KEYS) <= set(KEYS)

    def test_covers_every_reachable_key_transition(self):
        # Residue must be structural only: transitions out of ``alert``
        # (entered by the broadcaster, not the remote) and the
        # ``*-locked`` guard variants (no locked channels by default).
        for name in uncovered_by_exercise():
            assert name.startswith("alert") or "-locked" in name, name

    def test_pinned_script_matches_the_search(self):
        assert EXERCISE_SCRIPT == tv_exercise_script()
        spec = get_scenario("fuzz-latent-volume")
        assert spec.profiles[0] == exercise_profile()
        assert spec_hash(spec) == (
            "d8c4a9f26e9393db1e26d5004835ab2d6ab02752b5a303ec8d72a6b29f12ec8d"
        )

    def test_exercise_profile_is_a_valid_scripted_profile(self):
        profile = exercise_profile()
        assert profile.script == tv_exercise_script()
        assert profile.mean_gap > 0
        spec = ScenarioSpec(
            name="exercise-smoke", description="", duration=10.0, tvs=2,
            profiles=(profile,),
        )
        spec.validate()

    def test_classify_agrees_with_fresh_oracle(self):
        # classify() is re-exported for exactly this pinning flow; keep
        # the convenience import honest.
        from repro.campaign import run_cell_detailed

        spec = get_scenario("fuzz-latent-volume")
        cell = run_cell_detailed(spec, 0)
        report, compiled = cell.report, cell.compiled
        verdict = classify(spec, report, compiled)
        assert verdict.kind == "ok"
