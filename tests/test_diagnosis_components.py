"""Unit tests for component-level online spectra (PR 5).

:class:`~repro.diagnosis.components.ComponentSpectra` folds a member's
bus traffic into per-component activity/error spectra in O(components)
memory and ranks components by spectrum similarity with single-fault
exoneration.  These tests drive it with a hand-controlled clock and bus
— no fleet required — and pin the determinism and tie conventions the
recovery ladder and the telemetry gates rely on.
"""

from dataclasses import replace

import pytest

from repro.core.contract import ErrorReport
from repro.diagnosis.components import ComponentSpectra
from repro.faults import FAULTS
from repro.products import PLAYER, PRINTER, PRODUCTS, TV
from repro.runtime.bus import EventBus
from repro.tv.remote import KeyPress


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def test_tv_key_classification():
    assert TV.classify("input", KeyPress(0.0, "vol_up", 0)) == ("audio",)
    assert TV.classify("input", KeyPress(0.0, "mute", 0)) == ("audio",)
    assert TV.classify("input", KeyPress(0.0, "ch_up", 0)) == ("tuner",)
    assert TV.classify("input", KeyPress(0.0, "digit7", 0)) == ("tuner",)
    assert TV.classify("input", KeyPress(0.0, "ttx", 0)) == ("teletext",)
    assert TV.classify("input", KeyPress(0.0, "dual", 0)) == ("dualscreen",)
    assert TV.classify("stimulus", "alert_broadcast") == ("osd",)
    # defensive: unknown shapes classify to nothing
    assert TV.classify("input", "not-a-press") == ()
    assert TV.classify("recovery", {"action": "rebind"}) == ()


def test_player_and_printer_classification():
    assert PLAYER.classify("input", ("seek", {"position": 3.0})) == ("control",)
    assert PLAYER.classify("output", ("frame", 1.0)) == ("decoder", "renderer")
    assert PLAYER.classify("output", ("buffer", 4)) == ("demux",)
    assert PRINTER.classify("input", "submit") == ("controller",)
    assert PRINTER.classify("output", ("pages_done", 3)) == ("feeder", "engine")
    assert PRINTER.classify("output", ("page_quality", 0.2)) == ("engine",)


@pytest.mark.parametrize("product", PRODUCTS.values(), ids=PRODUCTS)
def test_every_mapped_component_is_in_the_vocabulary(product):
    """The output map, the classifier's key map and the observables'
    error components name only components a rebind can replace."""
    vocabulary = set(product.components)
    assert len(vocabulary) == len(product.components)
    named = set(product.keys.values())
    for components in product.outputs.values():
        named.update(components)
    for observable in product.observables:
        named.update(observable.errors)
    assert named, product.kind
    assert named <= vocabulary, sorted(named - vocabulary)
    # the classifier's fixed answers (stimuli, inputs of any shape)
    for kind, event in (("input", None), ("stimulus", None)):
        assert set(product.classify(kind, event)) <= vocabulary


def test_every_recoverable_fault_has_a_component_in_vocabulary():
    latent = [key for key, fault in FAULTS.items() if fault.component is not None]
    assert latent
    for (kind, name) in latent:
        fault = FAULTS[(kind, name)]
        assert fault.component in PRODUCTS[kind].components, (kind, name)
        # a recovery phase repairs with clear (or repair), so a latent
        # fault without one could be detected but never cleared
        assert fault.clear is not None, (kind, name)


# ----------------------------------------------------------------------
# window folding
# ----------------------------------------------------------------------
class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def error(observable):
    return ErrorReport(
        time=0.0, detector="t", observable=observable,
        expected=None, actual=None, consecutive=3,
    )


def test_windows_fold_activity_and_errors():
    bus = EventBus()
    clock = ManualClock()
    spectra = ComponentSpectra(TV, "tv-1", bus, clock, window=1.0)
    publish = {
        kind: bus.publisher(f"suo.tv-1.{kind}")
        for kind in ("input", "error")
    }
    # window 0: clean audio activity
    clock.now = 0.2
    publish["input"](KeyPress(clock.now, "vol_up", 0))
    # window 2: audio press plus a sound error (window 1 stays empty)
    clock.now = 2.1
    publish["input"](KeyPress(clock.now, "vol_up", 1))
    clock.now = 2.5
    publish["error"](error("sound"))
    # window 3: clean tuner activity
    clock.now = 3.4
    publish["input"](KeyPress(clock.now, "ch_up", 2))
    clock.now = 4.5  # close window 3

    counts = spectra.counts()
    audio = counts["audio"]
    assert (audio.a11, audio.a10, audio.a01) == (1, 1, 0)
    tuner = counts["tuner"]
    assert (tuner.a11, tuner.a10, tuner.a01) == (0, 1, 1)
    # the empty window 1 still counts as a clean, inactive step
    assert audio.a11 + audio.a10 + audio.a01 + audio.a00 >= 4

    ranking = spectra.ranking()
    assert ranking[0].component == "audio"
    assert ranking[0].rank == 1
    assert spectra.top_suspect()[0] == "audio"
    assert spectra.rank_of("audio") == 1


def test_no_errors_means_no_ranking():
    bus = EventBus()
    clock = ManualClock()
    spectra = ComponentSpectra(TV, "tv-1", bus, clock, window=1.0)
    publish = bus.publisher("suo.tv-1.input")
    clock.now = 0.5
    publish(KeyPress(clock.now, "vol_up", 0))
    clock.now = 5.0
    assert spectra.ranking() == []
    assert spectra.top_suspect() == (None, 0.0)


def test_single_fault_exoneration_beats_small_sample_precision():
    """A component missing from a failing window cannot be the standing
    fault, however perfect its precision looks on a tiny sample."""
    bus = EventBus()
    clock = ManualClock()
    spectra = ComponentSpectra(TV, "tv-1", bus, clock, window=1.0)
    key = bus.publisher("suo.tv-1.input")
    err = bus.publisher("suo.tv-1.error")
    # two failing windows, audio attributed in both (sound manifests);
    # tuner present in only one of them but NEVER in a clean window
    clock.now = 0.1
    key(KeyPress(clock.now, "vol_up", 0))
    clock.now = 0.2
    err(error("sound"))
    clock.now = 1.1
    key(KeyPress(clock.now, "ch_up", 1))
    clock.now = 1.2
    err(error("sound"))
    # many clean audio windows dilute audio's similarity score
    for window in range(2, 8):
        clock.now = window + 0.1
        key(KeyPress(clock.now, "vol_down", window))
    clock.now = 9.0
    ranking = spectra.ranking()
    assert ranking[0].component == "audio"
    assert ranking[0].covers_failures
    tuner = next(e for e in ranking if e.component == "tuner")
    assert not tuner.covers_failures
    assert tuner.rank > ranking[0].rank
    # structural separation: confidence is the full top score
    assert spectra.confidence(ranking) == pytest.approx(ranking[0].score)


def test_tied_top_rank_yields_zero_confidence():
    bus = EventBus()
    clock = ManualClock()
    spectra = ComponentSpectra(TV, "tv-1", bus, clock, window=1.0)
    key = bus.publisher("suo.tv-1.input")
    err = bus.publisher("suo.tv-1.error")
    # audio and tuner perfectly co-occur: indistinguishable evidence
    clock.now = 0.1
    key(KeyPress(clock.now, "vol_up", 0))
    key(KeyPress(clock.now, "ch_up", 1))
    clock.now = 0.2
    err(error("screen"))  # screen is deliberately unattributed
    clock.now = 2.0
    ranking = spectra.ranking()
    assert ranking[0].rank == ranking[1].rank == 1
    assert spectra.confidence(ranking) == 0.0


def test_spectra_are_deterministic_for_identical_event_streams():
    def run():
        bus = EventBus()
        clock = ManualClock()
        spectra = ComponentSpectra(PLAYER, "p-1", bus, clock, window=1.0)
        inp = bus.publisher("suo.p-1.input")
        out = bus.publisher("suo.p-1.output")
        err = bus.publisher("suo.p-1.error")
        for window in range(12):
            clock.now = window + 0.1
            if window % 3 == 0:
                inp(("seek", {"position": float(window)}))
            if window < 6:
                out(("frame", float(window)))
                out(("buffer", 3))
            else:
                err(error("progressing"))
        clock.now = 20.0
        return [(e.component, e.score, e.rank) for e in spectra.ranking()]

    first, second = run(), run()
    assert first == second
    assert first[0][0] == "decoder"


def test_unknown_kind_and_bad_window_rejected():
    bus = EventBus()
    with pytest.raises(ValueError, match="vocabulary"):
        ComponentSpectra(
            replace(TV, kind="toaster", components=()), "t-1", bus, lambda: 0.0
        )
    with pytest.raises(ValueError, match="window"):
        ComponentSpectra(TV, "t-1", bus, lambda: 0.0, window=0.0)


def test_detach_stops_ingestion():
    bus = EventBus()
    clock = ManualClock()
    spectra = ComponentSpectra(TV, "tv-1", bus, clock, window=1.0)
    key = bus.publisher("suo.tv-1.input")
    clock.now = 0.1
    key(KeyPress(clock.now, "vol_up", 0))
    spectra.detach()
    clock.now = 5.1
    key(KeyPress(clock.now, "vol_up", 1))
    clock.now = 9.0
    counts = spectra.counts()
    assert counts["audio"].a10 + counts["audio"].a11 == 1
