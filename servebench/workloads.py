"""Seeded workload generators for the serve benchmark.

Three of the workloads are built from the example suites and traces of
the repository, copied into servebench/data/ so that the benchmark keeps
its inputs when the examples change:

- `catalog`: examples/specs/catalog.suite, whose checkers share no
  names, fed catalog_ok.csv; a few seeded instances replay
  catalog_bad.csv once.
- `ipu`: examples/specs/ipu.suite fed ipu.csv, sent in the arrival
  order of its recorded scramble ipu_ooo.csv, hosted with `--ooo`.
- `racy`: examples/specs/racy.suite fed racy_ok.csv, sent in the name
  order of its twin racy_swapped.csv (each ack before the req it
  answers), hosted with `--ooo`.

Such a workload hosts `copies` instances of one suite, each on its own
names (every name and label gets the suffix `_<copy>`).  Each instance
replays its recorded trace `episodes` times, one `period` apart.  The
instances are interleaved by phase: the phases are spread evenly over
the period, and the seed decides which instance takes which phase.  The
repository has no measured traffic to say how many instances a server
hosts or for how long: `copies` and `episodes` are picked so that one
session streams 150k to 300k events, enough to time.

Their expected verdicts are those of the recorded traces (RECORDED).
Instances share no names, so each property sees only its own instance:
the recorded trace, episode after episode.  Each recorded trace closes
every round it opens, and the period leaves a gap longer than any
deadline window, so a property's verdict on the whole stream is the
conjunction of its verdicts on the episodes.

`fanout` has no counterpart in the examples, where no name feeds more
than two checkers: it is synthetic, and its sizes are picked to load the
hub's shared-name dispatch rows.

Every suite ends with the sentinel property `end_of_stream`, and every
stream ends with one `eos` event whose antecedent never occurred.  The
sentinel's violation record is the first output that depends on the
last event, so it marks the moment the server has consumed the whole
stream; the benchmark splits the run there into ingest and finalization.
"""

import os
import random
import re
from dataclasses import dataclass, field

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

SENTINEL = "end_of_stream"
SENTINEL_PATTERN = "eos_ready <<! eos"

# Verdict of every property on one recorded trace.  test/test_mutate.ml
# pins the catalog ones, test/test_ooo.ml and TUTORIAL.md §10 the ipu
# one, test/test_robust.ml the racy handshake.  lock_protocol (ipu) and
# irq_window (racy) pass because their traces never trigger them.
RECORDED = {
    "catalog_ok.csv": {
        "precedence": True, "response_bounded": True,
        "chain_precedence": True, "bounded_existence": True,
        "choice": True, "conjunction": True, "chain_response": True,
        "burst_response": True,
    },
    "catalog_bad.csv": {
        "precedence": False, "response_bounded": False,
        "chain_precedence": False, "bounded_existence": False,
        "choice": False, "conjunction": False, "chain_response": True,
        "burst_response": True,
    },
    "ipu.csv": {
        "config_every_round": True, "recognition_bounded": False,
        "lock_protocol": True,
    },
    "racy_ok.csv": {"handshake": True, "commit_guard": True,
                    "irq_window": True},
}


@dataclass
class Workload:
    name: str
    suite: str
    events: list  # (time, name) in timestamp order
    arrival: list  # (time, name) in send order
    serve_args: list = field(default_factory=list)
    expected: dict = field(default_factory=dict)  # property -> passed


def _finish(name, entries, arrival, expected, ooo=False):
    """Append the sentinel and wrap up.  `arrival` is in send order."""
    events = sorted(arrival, key=lambda e: e[0])
    serve_args = []
    if ooo:
        serve_args = ["--ooo", "--lateness", str(required_lateness(arrival))]
    eos = (events[-1][0] + 1, "eos")
    entries = entries + [(SENTINEL, SENTINEL_PATTERN)]
    expected = dict(expected, **{SENTINEL: False})
    suite = "".join(f"{label}: {pattern}\n" for label, pattern in entries)
    return Workload(name, suite, events + [eos], arrival + [eos], serve_args,
                    expected)


def read_suite(file):
    """[(label, pattern)] of a .suite file under DATA."""
    entries = []
    with open(os.path.join(DATA, file)) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                label, pattern = line.split(":", 1)
                entries.append((label.strip(), pattern.strip()))
    return entries


def read_trace(file):
    """[(time, name)] of a CSV trace under DATA, in file order."""
    with open(os.path.join(DATA, file)) as f:
        rows = [line.strip().split(",") for line in f][1:]
    return [(int(t), n) for t, n in rows]


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rename(pattern, copy):
    """The pattern with every event name suffixed by `_<copy>`."""
    return _NAME.sub(lambda m: m.group(0) if m.group(0) == "within"
                     else f"{m.group(0)}_{copy}", pattern)


def required_lateness(arrival):
    """How far the most delayed event trails the furthest time sent."""
    need, max_seen = 0, arrival[0][0]
    for t, _ in arrival:
        need = max(need, max_seen - t)
        max_seen = max(max_seen, t)
    return need


def replicate(rng, name, suite_file, plays, copies, period, ooo=False):
    """A workload of `copies` instances of `suite_file`.

    `plays(copy)` lists, per episode, the recorded trace it replays and
    its events in send order, with times inside one period.  Instances
    are merged by send time: an event goes out once its instance has
    sent its furthest time so far, so no event of the merged stream is
    later than the most delayed event of one instance."""
    base = read_suite(suite_file)
    phases = list(range(copies))
    rng.shuffle(phases)
    entries, expected, keyed = [], {}, []
    for c in range(copies):
        verdict = {label: True for label, _ in base}
        entries += [(f"{label}_{c}", rename(pattern, c))
                    for label, pattern in base]
        offset = phases[c] * period // copies
        reach = 0
        for ep, (recorded, events) in enumerate(plays(c)):
            for label, passed in RECORDED[recorded].items():
                verdict[label] = verdict[label] and passed
            for t, n in events:
                t += offset + ep * period
                reach = max(reach, t)
                keyed.append((reach, phases[c], len(keyed), t, f"{n}_{c}"))
        expected.update((f"{label}_{c}", v) for label, v in verdict.items())
    keyed.sort()
    return _finish(name, entries, [(t, n) for _, _, _, t, n in keyed],
                   expected, ooo)


def catalog(seed, copies=32, episodes=220, victims=3):
    """Eight catalog shapes per instance, three of them timed.  In
    `victims` seeded instances one seeded episode is catalog_bad.csv,
    so six of their eight properties fail."""
    rng = random.Random(seed)
    ok, bad = read_trace("catalog_ok.csv"), read_trace("catalog_bad.csv")
    bad_at = {c: rng.randrange(episodes)
              for c in rng.sample(range(copies), victims)}

    def plays(c):
        return [("catalog_bad.csv", bad) if bad_at.get(c) == ep
                else ("catalog_ok.csv", ok) for ep in range(episodes)]

    return replicate(rng, "catalog", "catalog.suite", plays, copies,
                     period=400)


def ipu(seed, copies=16, episodes=40):
    """The case-study trace: three configuration writes, a start and
    about 120 image reads per round.  It is sent as its recorded
    scramble, which has the same timestamps (9 of 430 events late, the
    latest by 75000 ticks)."""
    play = [("ipu.csv", read_trace("ipu_ooo.csv"))] * episodes
    return replicate(random.Random(seed), "ipu", "ipu.suite",
                     lambda c: play, copies, period=8_000_000_000, ooo=True)


def racy(seed, copies=4, episodes=6_250):
    """racy_ok.csv sent with its first two events swapped, as in
    racy_swapped.csv: each req arrives 100 ticks late, after the ack it
    must precede, and does not commute with it.  From 8 instances on,
    the engine's journal stops trimming and replay grows with the
    stream, so a session would not finish in time.  A session streams
    150k events, half as many as the others: racy's sessions vary most
    from one to the next, and shorter ones give more of them to take the
    median of."""
    ok = read_trace("racy_ok.csv")
    swapped = [n for _, n in read_trace("racy_swapped.csv")]
    assert [n for _, n in ok] == [swapped[1], swapped[0]] + swapped[2:]
    play = [("racy_ok.csv", [ok[1], ok[0]] + ok[2:])] * episodes
    return replicate(random.Random(seed), "racy", "racy.suite",
                     lambda c: play, copies, period=600, ooo=True)


def _interleave(rng, rounds_of, actors, n_events, step):
    """Random interleaving: each step advances one actor, chosen at
    random, by one event of its current round.  `rounds_of(actor)`
    returns the actor's next round of names."""
    cursor = {a: [] for a in actors}
    out, t = [], 0
    while len(out) < n_events:
        a = rng.choice(actors)
        if not cursor[a]:
            cursor[a] = list(rounds_of(a))
        t += rng.randint(1, step)
        out.append((t, cursor[a].pop(0)))
    # Close every open round so no property ends mid-round.
    for a in actors:
        for name in cursor[a]:
            t += rng.randint(1, step)
            out.append((t, name))
    return out


def fanout(seed, n_events=240_000, groups=8, width=16, k=8):
    """Shared-name fan-out: every name is watched by k checkers.

    Group g has `width` names s<g>_<j> and one round-closing name go<g>;
    checker (g, j) is `{s<g>_j .. s<g>_(j+k-1)} <<! go<g>` over a sliding
    window of the group's names.  A round sends each name of the group
    once, in a seeded random order, then go<g>.  Every property passes.
    k = 8 gives about 8.5 deliveries per event, against 1 to 2 in the
    example suites; the other sizes keep a session near one second.
    """
    rng = random.Random(seed)
    entries, expected = [], {}
    for g in range(groups):
        for j in range(width):
            names = [f"s{g}_{(j + i) % width}" for i in range(k)]
            label = f"fan{g}_{j}"
            entries.append((label, "{" + ", ".join(names) + "} <<! go%d" % g))
            expected[label] = True

    def rounds_of(g):
        names = [f"s{g}_{j}" for j in range(width)]
        rng.shuffle(names)
        return names + [f"go{g}"]

    stream = _interleave(rng, rounds_of, list(range(groups)), n_events, 3)
    return _finish("fanout", entries, stream, expected)


WORKLOADS = {"fanout": fanout, "catalog": catalog, "ipu": ipu, "racy": racy}


def to_csv(events):
    return "time,name\n" + "".join(f"{t},{n}\n" for t, n in events)
