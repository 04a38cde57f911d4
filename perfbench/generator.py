"""Seeded event-log generator shaped like the public Helpdesk log.

The process model is a fixed state-machine Petri net: every transition has
one input and one output place, and no place has two choices with the same
label, so token replay of a generated trace is unambiguous and always
conforms. Only the sampling (paths, durations, resources, start times)
depends on the seed. The default weights are calibrated to the published
Helpdesk profile: 4,580 cases, 14 activities, about 21.35k events, maximum
case length 15, about 226 variants, mean and maximum case duration about
40.86 and 59.99 days.

The generator uses numpy and the standard library only, so the inputs do not
depend on the code under test.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

START = "start"
END = "end"

# place -> (label, next place, weight); a trace ends when its token reaches END.
PROCESS: dict[str, tuple[tuple[str, str, float], ...]] = {
    START: (
        ("Assign seriousness", "assigned", 0.90),
        ("Insert ticket", "inserted", 0.06),
        ("Take in charge ticket", "taken", 0.02),
    ),
    "inserted": (
        ("Assign seriousness", "assigned", 0.85),
        ("Take in charge ticket", "taken", 0.10),
    ),
    "assigned": (
        ("Take in charge ticket", "taken", 0.80),
        ("Wait", "assigned", 0.02),
        ("Resolve ticket", "resolved", 0.06),
        ("Require upgrade", "upgrade", 0.03),
        ("INVALID", "rejected", 0.02),
        ("DUPLICATE", "rejected", 0.02),
        ("Closed", END, 0.01),
    ),
    "taken": (
        ("Resolve ticket", "resolved", 0.82),
        ("Wait", "taken", 0.035),
        ("Create SW anomaly", "anomaly", 0.05),
        ("Require upgrade", "upgrade", 0.04),
        ("Schedule intervention", "scheduled", 0.03),
    ),
    "anomaly": (
        ("Resolve ticket", "resolved", 0.70),
        ("Wait", "anomaly", 0.04),
        ("Resolve SW anomaly", "anomaly_fixed", 0.15),
    ),
    "anomaly_fixed": (("Resolve ticket", "resolved", 1.0),),
    "upgrade": (
        ("Take in charge ticket", "taken", 0.50),
        ("Resolve ticket", "resolved", 0.35),
        ("Wait", "upgrade", 0.04),
    ),
    "scheduled": (
        ("Resolve ticket", "resolved", 0.75),
        ("Wait", "scheduled", 0.10),
    ),
    "resolved": (
        ("Closed", END, 0.71),
        ("Wait", "resolved", 0.01),
        ("RESOLVED", "confirmed", 0.22),
        ("Take in charge ticket", "taken", 0.06),
    ),
    "confirmed": (
        ("Closed", END, 0.35),
        ("VERIFIED", "verified", 0.65),
    ),
    "verified": (("Closed", END, 1.0),),
    "rejected": (("Closed", END, 1.0),),
}

# weights are relative within a place; sampling uses their running sums
_CHOICES = {
    place: (
        [(label, target) for label, target, _ in options],
        list(itertools.accumulate(weight for _, _, weight in options)),
    )
    for place, options in PROCESS.items()
}

RESOURCES = tuple(f"Value {i}" for i in range(1, 23))


FULL_SIZE = 4580  # cases in the published Helpdesk log
MAX_LEN = 15
# cases of exactly MAX_LEN events, started in the first tenth of the span so
# that the chronological split always puts them in the training part: the
# longest training prefix, and so every encoder's padded length, is then the
# same for every seed, and the test part's size does not swing with them
LONG_CASES = 6
MAX_DURATION_S = int(59.99 * 86400)
DURATION_BETA = (3.33, 1.57)  # a case's duration as a share of the maximum
GAP_CONCENTRATION = 0.5  # Dirichlet split of a case duration into gaps
FIRST_START = datetime(2010, 1, 4, tzinfo=timezone.utc)
START_SPAN_S = 1460 * 86400
RESOURCE_ZIPF = 1.1


@dataclass(frozen=True)
class GeneratedCase:
    case_id: str
    activities: tuple[str, ...]
    timestamps_s: tuple[int, ...]  # epoch seconds, UTC
    resources: tuple[str, ...]


def _walk(rng: np.random.Generator) -> tuple[str, ...]:
    """One path through the process; paths longer than ``MAX_LEN`` are redrawn."""
    while True:
        place, labels = START, []
        while place != END and len(labels) <= MAX_LEN:
            options, cumulative = _CHOICES[place]
            label, place = options[bisect.bisect_right(cumulative, rng.random() * cumulative[-1])]
            labels.append(label)
        if place == END and len(labels) <= MAX_LEN:
            return tuple(labels)


def _long_walk(rng: np.random.Generator) -> tuple[str, ...]:
    """A path of exactly ``MAX_LEN`` events: END only on the last step."""
    while True:
        place, labels = START, []
        while len(labels) < MAX_LEN:
            last = len(labels) == MAX_LEN - 1
            options = [option for option in PROCESS[place] if (option[1] == END) == last]
            if not options:
                break
            weights = np.array([weight for _, _, weight in options])
            label, place, _ = options[int(rng.choice(len(options), p=weights / weights.sum()))]
            labels.append(label)
        if place == END:
            return tuple(labels)


def generate(seed: int, cases: int = FULL_SIZE) -> list[GeneratedCase]:
    """Draw ``cases`` cases; the same seed gives the same cases."""
    rng = np.random.default_rng(seed)
    first_s = int(FIRST_START.timestamp())
    zipf = 1.0 / np.arange(1, len(RESOURCES) + 1) ** RESOURCE_ZIPF
    zipf /= zipf.sum()
    out = []
    for i in range(cases):
        activities = _long_walk(rng) if i < LONG_CASES else _walk(rng)
        start = first_s + int(rng.integers(0, START_SPAN_S // (10 if i < LONG_CASES else 1)))
        n = len(activities)
        if n > 1:
            total = int(MAX_DURATION_S * rng.beta(*DURATION_BETA))
            shares = rng.dirichlet(np.full(n - 1, GAP_CONCENTRATION))
            # whole seconds, at least one apart, never past the maximum duration
            gaps = np.maximum(1, np.floor(shares * (total - (n - 1))).astype(np.int64) + 1)
            offsets = np.concatenate([[0], np.cumsum(gaps)])
        else:
            offsets = np.zeros(1, dtype=np.int64)
        resources = tuple(RESOURCES[j] for j in rng.choice(len(RESOURCES), size=n, p=zipf))
        out.append(
            GeneratedCase(
                case_id=f"Case {i + 1}",
                activities=activities,
                timestamps_s=tuple(int(start + o) for o in offsets),
                resources=resources,
            )
        )
    return out


def write_csv(cases: list[GeneratedCase], path: str | Path) -> None:
    """Helpdesk-style CSV: case_id, activity, timestamp, Resource."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["case_id", "activity", "timestamp", "Resource"])
        for case in cases:
            for activity, ts, resource in zip(case.activities, case.timestamps_s, case.resources):
                stamp = datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
                writer.writerow([case.case_id, activity, stamp, resource])


def petri_net_json() -> dict:
    """The process model as ``{places, transitions, arcs, initial_marking}``.

    Each choice is a silent transition from a place into a private place that
    enables exactly one labelled transition. Replay therefore searches a
    silent path before every event, as it does on discovered nets rich in
    silent transitions, and the search always finds the one path that fits.
    """
    places = list(PROCESS) + [END]
    transitions, arcs = [], []

    def add(label: str | None, source: str, target: str) -> None:
        tid = f"t{len(transitions)}"
        transitions.append({"id": tid, "label": label})
        arcs.extend([{"from": source, "to": tid}, {"from": tid, "to": target}])

    for place, options in PROCESS.items():
        for label, target, _ in options:
            branch = f"{place}>{label}"
            places.append(branch)
            add(None, place, branch)
            add(label, branch, target)
    return {"places": places, "transitions": transitions, "arcs": arcs, "initial_marking": {START: 1}}


def write_petri_net(path: str | Path) -> None:
    Path(path).write_text(json.dumps(petri_net_json(), indent=1), encoding="utf-8")


def profile_stats(cases: list[GeneratedCase]) -> dict:
    """The statistics the published Helpdesk table reports, computed directly."""
    lengths = [len(c.activities) for c in cases]
    durations = [(c.timestamps_s[-1] - c.timestamps_s[0]) / 86400 for c in cases]
    return {
        "cases": len(cases),
        "activities": len({a for c in cases for a in c.activities}),
        "events": sum(lengths),
        "max_case_length": max(lengths),
        "variants": len({c.activities for c in cases}),
        "mean_case_duration_days": sum(durations) / len(durations),
        "max_case_duration_days": max(durations),
    }
