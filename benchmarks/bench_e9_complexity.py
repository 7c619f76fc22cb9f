"""E9 — Sect. 2: the complexity argument.

Paper claims: TV software grew from 1 KB (1980) to >20 MB; "given the
large number of possible user settings and types of input, exhaustive
testing is impossible".

The bench quantifies both halves on our artifacts: (a) the state space of
the TV specification model as features are enabled one by one (the
exhaustive-testing wall), and (b) the test-script budget needed for mere
transition coverage, compared against the state count.
"""


from repro.statemachine import Event, ModelChecker, TestGenerator
from repro.tv import build_tv_model

from conftest import print_table, qscale, run_once

FEATURE_ALPHABETS = [
    ("power only", ["power"]),
    ("+channels", ["power", "ch_up", "ch_down"]),
    ("+volume/mute", ["power", "ch_up", "ch_down", "vol_up", "vol_down", "mute"]),
    ("+overlays", [
        "power", "ch_up", "ch_down", "vol_up", "vol_down", "mute",
        "menu", "back", "ttx", "epg",
    ]),
    ("+dual/alerts", [
        "power", "ch_up", "ch_down", "vol_up", "vol_down", "mute",
        "menu", "back", "ttx", "epg", "dual", "swap", "alert_broadcast", "ok",
    ]),
]


def explore(alphabet_names, channels=qscale(5, 3)):
    spec = build_tv_model(channel_count=channels)
    alphabet = [Event(name) for name in alphabet_names]
    report = ModelChecker(spec, alphabet, max_states=qscale(100000, 30000)).run()
    return report.states_explored, report.transitions_taken


def test_e9_state_space_growth(benchmark):
    def sweep():
        rows = []
        for label, alphabet in FEATURE_ALPHABETS:
            states, transitions = explore(alphabet)
            rows.append([label, len(alphabet), states, transitions])
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E9: reachable state space vs feature count "
        "(paper: exhaustive testing is impossible)",
        ["feature set", "events", "reachable states", "transitions"],
        rows,
    )
    state_counts = [row[2] for row in rows]
    assert state_counts == sorted(state_counts)  # monotone growth
    assert state_counts[-1] > 20 * state_counts[0]


def test_e9_channel_count_scales_state_space(benchmark):
    """The 'large number of user settings' half: states scale with the
    channel range; real TVs have hundreds of channels and dozens of other
    settings, multiplying out to the untestable."""

    def sweep():
        rows = []
        alphabet = ["power", "ch_up", "vol_up", "mute", "ttx", "menu", "back"]
        for channels in (3, 5, 10, 20):
            states, _ = explore(alphabet, channels=channels)
            rows.append([channels, states])
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E9b: state count vs channel range",
        ["channels", "reachable states"],
        rows,
    )
    counts = [row[1] for row in rows]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_e9_test_budget_vs_coverage(benchmark):
    """Transition-coverage scripts are linear-ish; exhaustive state×input
    testing is the product — the gap is the paper's argument."""

    def measure():
        spec = build_tv_model(channel_count=3)
        alphabet = [
            Event(name)
            for name in ("power", "ch_up", "vol_up", "mute", "ttx", "menu", "back")
        ]
        generator = TestGenerator(spec, alphabet, max_states=qscale(20000, 8000))
        scenarios = generator.generate(max_scenarios=qscale(200, 100))
        total_presses = sum(len(s) for s in scenarios)
        edges = generator.coverage_keys()
        successors = {}
        for source, target, _ in edges:
            successors.setdefault(source, set()).add(target)
        # Exhaustive probing: every (state, input) pair needs its own test
        # run — reset, drive to the state (its BFS depth), press the input.
        depths = {generator._initial_key: 0}
        frontier = [generator._initial_key]
        while frontier:
            node = frontier.pop(0)
            for target in successors.get(node, ()):
                if target not in depths:
                    depths[target] = depths[node] + 1
                    frontier.append(target)
        states = len(depths)
        exhaustive = sum(
            (depth + 1) * len(alphabet) for depth in depths.values()
        )
        return total_presses, states, exhaustive

    total_presses, states, exhaustive = run_once(benchmark, measure)
    print_table(
        "E9c: coverage budget vs exhaustive budget",
        ["metric", "value"],
        [
            ["transition-coverage key presses", total_presses],
            ["reachable states", states],
            ["exhaustive state x input probes", exhaustive],
        ],
    )
    assert total_presses < exhaustive
