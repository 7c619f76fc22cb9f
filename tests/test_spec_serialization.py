"""Canonical serialization round-trips for the scenario spec layer.

The fuzz corpus and shrunk repros live as canonical JSON keyed by
``spec_hash`` — these tests pin the contract: ``from_json(to_json(x))``
equals ``x`` for every shape a spec can take, the hash is stable across
round-trips, and ints-given-for-floats normalize to the same bytes.
"""

import json

import pytest

from repro.scenarios import (
    FaultPhase,
    ScenarioSpec,
    UserProfile,
    get_scenario,
    scenario_names,
    spec_hash,
)


class TestProfileRoundTrip:
    def test_minimal_profile(self):
        profile = UserProfile("zapper")
        assert UserProfile.from_json(profile.to_json()) == profile

    def test_keys_restored_as_tuple(self):
        profile = UserProfile("p", keys=("ch_up", "ch_down"))
        loaded = UserProfile.from_json(
            json.loads(json.dumps(profile.to_json()))
        )
        assert loaded == profile
        assert isinstance(loaded.keys, tuple)

    def test_script_restored_as_tuple(self):
        profile = UserProfile("s", mean_gap=2.0, script=("power", "mute"))
        loaded = UserProfile.from_json(profile.to_json())
        assert loaded == profile
        assert isinstance(loaded.script, tuple)

    def test_absent_optionals_stay_none(self):
        data = UserProfile("p").to_json()
        assert "keys" not in data and "script" not in data


class TestPhaseRoundTrip:
    def test_plain_phase(self):
        phase = FaultPhase("mute_noop", at=5.0)
        assert FaultPhase.from_json(phase.to_json()) == phase

    def test_windowed_pulsed_phase(self):
        phase = FaultPhase(
            "alert_broadcast", at=3.0, kind="tv", fraction=0.5,
            duration=10.0, pulse_every=2.0,
        )
        assert FaultPhase.from_json(phase.to_json()) == phase

    def test_recovery_phase(self):
        phase = FaultPhase("silent_jam", at=4.0, kind="printer", recovery=True)
        loaded = FaultPhase.from_json(phase.to_json())
        assert loaded == phase and loaded.recovery is True

    def test_int_times_normalize_to_float(self):
        # A hand-written JSON file will say "at": 5 — the canonical form
        # must not distinguish it from 5.0.
        a = FaultPhase("mute_noop", at=5)
        b = FaultPhase("mute_noop", at=5.0)
        assert a.to_json() == b.to_json()


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_library_scenario_round_trips(self, name):
        spec = get_scenario(name)
        loaded = ScenarioSpec.from_json(spec.to_json())
        assert loaded == spec
        assert spec_hash(loaded) == spec_hash(spec)

    def test_round_trip_through_json_text(self):
        spec = get_scenario("recovery-ladder-drill")
        loaded = ScenarioSpec.from_json(json.loads(spec.canonical_json()))
        assert loaded == spec

    def test_explicit_empty_profiles_survive(self):
        # Legal for a printer-only mix; must not be corrupted into the
        # default profile tuple on the way back in.
        spec = ScenarioSpec(
            name="printers-only", description="", duration=10.0,
            printers=2, profiles=(),
        )
        spec.validate()
        loaded = ScenarioSpec.from_json(spec.to_json())
        assert loaded.profiles == ()
        assert loaded == spec

    def test_missing_profiles_key_means_default(self):
        data = {"name": "n", "description": "", "duration": 5.0, "tvs": 1}
        loaded = ScenarioSpec.from_json(data)
        assert loaded.profiles == (UserProfile("default"),)

    def test_unknown_keys_are_ignored(self):
        """A spec stored by an older version may carry a field that no
        longer exists; loading drops it instead of failing."""
        spec = ScenarioSpec(name="n", description="", duration=5.0, tvs=1)
        for value in (None, True, False):
            data = dict(spec.to_json(), retired_field=value)
            assert ScenarioSpec.from_json(data) == spec

    def test_hash_is_stable_and_discriminating(self):
        spec = get_scenario("zapping-storm")
        assert spec_hash(spec) == spec_hash(ScenarioSpec.from_json(spec.to_json()))
        other = get_scenario("overnight-soak")
        assert spec_hash(spec) != spec_hash(other)

    def test_canonical_json_is_key_sorted_and_compact(self):
        text = get_scenario("zapping-storm").canonical_json()
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":"))
