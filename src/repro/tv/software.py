"""The TV 'software build': code blocks for spectrum-based diagnosis.

Sect. 4.4 describes instrumenting the TV's C code into ~60 000 blocks and
recording, per key press, which blocks executed.  Our TV is simulated, so
this module supplies the block population: a realistic module map whose
blocks are *deterministically* activated by the behaviour the simulation
actually performs (key handlers, teletext rendering, background drivers).

Determinism matters: the same tag (handler branch) always touches the same
base block set, with a small per-step data-dependent variation — the same
structure real program spectra have, and the property spectrum-based fault
localization exploits.

The module map (sizes chosen so a 27-press scenario executes ≈13 800 of
60 000 blocks, the figures reported in the paper):

* ``kernel_core``     8 000 blocks, executed every step (OS, event loop);
* ``drivers_var``    10 000 blocks, ~3% activated per step (interrupt and
  data-dependent driver paths);
* one module per key handler plus per-subsystem logic modules;
* one tiny module per *injectable fault branch* (the ground truth): the
  TV's latent faults of :data:`repro.faults.FAULTS`, in catalogue order;
* ``cold_features``   the remainder — code never exercised by the scenario
  (other input sources, service menus, factory modes).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..faults import latent_faults
from .remote import KEYS


@dataclass(frozen=True)
class Module:
    """A contiguous block range [start, start + size)."""

    name: str
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, block: int) -> bool:
        return self.start <= block < self.end


def _stable_sample(token: str, size: int, fraction: float) -> List[int]:
    """Deterministic pseudo-random subset of ``range(size)``.

    Seeded from a hash of ``token`` so results are stable across Python
    processes (``hash()`` is salted; ``sha256`` is not).  Sampling a fixed
    ``fraction * size`` count keeps the activation model cheap enough to
    run *online* (the run-time diagnosis of Fig. 1), unlike a per-block
    hash test.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    count = int(size * fraction)
    if count <= 0:
        return []
    return rng.sample(range(size), min(count, size))


class SoftwareBuild:
    """The block map of one TV software release."""

    HANDLER_MODULE_SIZE = 120
    LOGIC_MODULES: Tuple[Tuple[str, int], ...] = (
        ("channel_logic", 400),
        ("volume_logic", 200),
        ("ttx_logic", 600),
        ("ttx_render", 350),
        ("osd_logic", 250),
        ("dual_logic", 180),
        ("features_logic", 300),
        ("alert_logic", 120),
        ("standby_logic", 80),
    )
    FAULT_MODULE_SIZE = 4

    def __init__(self, seed: int = 0, total_blocks: int = 60000) -> None:
        self.seed = seed
        self.total_blocks = total_blocks
        self.modules: Dict[str, Module] = {}
        cursor = 0
        cursor = self._add("kernel_core", 7500, cursor)
        cursor = self._add("drivers_var", 10000, cursor)
        for key in KEYS:
            cursor = self._add(f"handler_{key}", self.HANDLER_MODULE_SIZE, cursor)
        for name, size in self.LOGIC_MODULES:
            cursor = self._add(name, size, cursor)
        for fault in latent_faults("tv"):
            cursor = self._add(f"fault_{fault}", self.FAULT_MODULE_SIZE, cursor)
        if cursor > total_blocks:
            raise ValueError(
                f"module map ({cursor}) exceeds total blocks ({total_blocks})"
            )
        self._add("cold_features", total_blocks - cursor, cursor)

    def _add(self, name: str, size: int, cursor: int) -> int:
        self.modules[name] = Module(name, cursor, size)
        return cursor + size

    # ------------------------------------------------------------------
    def module(self, name: str) -> Module:
        return self.modules[name]

    def module_of_block(self, block: int) -> Optional[Module]:
        for module in self.modules.values():
            if module.contains(block):
                return module
        return None

    def fault_blocks(self, fault: str) -> FrozenSet[int]:
        """Ground-truth block set for an injected fault."""
        module = self.modules[f"fault_{fault}"]
        return frozenset(range(module.start, module.end))

    # ------------------------------------------------------------------
    # activation model
    # ------------------------------------------------------------------
    def background_blocks(self, step: int) -> Set[int]:
        """Blocks the platform executes during any step."""
        blocks: Set[int] = set()
        core = self.modules["kernel_core"]
        blocks.update(range(core.start, core.end))
        drivers = self.modules["drivers_var"]
        token = f"{self.seed}:drivers:{step}"
        for offset in _stable_sample(token, drivers.size, 0.02):
            blocks.add(drivers.start + offset)
        return blocks

    def tag_blocks(self, module_name: str, tag: str, step: int) -> Set[int]:
        """Blocks a handler branch touches in one step.

        60% of the module is the branch's stable base (seeded by the tag);
        a further 10% varies with the step (data-dependent paths).
        """
        module = self.modules.get(module_name)
        if module is None:
            return set()
        blocks: Set[int] = set()
        base_token = f"{self.seed}:{module_name}:{tag}"
        step_token = f"{base_token}:{step}"
        for offset in _stable_sample(base_token, module.size, 0.6):
            blocks.add(module.start + offset)
        for offset in _stable_sample(step_token, module.size, 0.1):
            blocks.add(module.start + offset)
        return blocks

    # ------------------------------------------------------------------
    #: handler-name → logic modules it exercises (besides handler_<key>).
    HANDLER_LOGIC = {
        "power": ("standby_logic",),
        "channel": ("channel_logic",),
        "volume": ("volume_logic", "osd_logic"),
        "mute": ("volume_logic",),
        "ttx": ("ttx_logic", "osd_logic"),
        "menu": ("osd_logic",),
        "epg": ("osd_logic",),
        "back": ("osd_logic",),
        "dual": ("dual_logic",),
        "swap": ("dual_logic", "channel_logic"),
        "sleep": ("features_logic", "osd_logic"),
        "lock": ("features_logic", "osd_logic"),
        "ok": ("alert_logic",),
        "ignore_standby": ("standby_logic",),
        "ttx_render": ("ttx_render",),
    }

    def blocks_for_handler(
        self, handler: str, tags: List[str], key: Optional[str], step: int
    ) -> Set[int]:
        """All blocks one reported handler invocation executed."""
        blocks: Set[int] = set()
        if key is not None and f"handler_{key}" in self.modules:
            blocks.update(self.tag_blocks(f"handler_{key}", handler, step))
        plain_tags = [t for t in tags if not t.startswith("FAULT_")]
        for module_name in self.HANDLER_LOGIC.get(handler, ()):
            for tag in plain_tags or [handler]:
                blocks.update(self.tag_blocks(module_name, tag, step))
        for tag in tags:
            if tag.startswith("FAULT_"):
                fault = tag[len("FAULT_"):]
                module_name = f"fault_{fault}"
                module = self.modules.get(module_name)
                if module is not None:
                    blocks.update(range(module.start, module.end))
        return blocks
