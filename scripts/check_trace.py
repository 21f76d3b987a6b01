#!/usr/bin/env python3
"""Validate a neatbound round-trace JSONL file (and optionally a Chrome
trace) against the documented schema.

Usage:
    check_trace.py TRACE.jsonl [--chrome CHROME.json] [--allow-empty]
    check_trace.py --artifact VIOLATION.json
    check_trace.py --self-test

This is the CI-side half of the trace contract: `neatbound_cli run
--trace` promises the schema documented in docs/observability.md, and
this checker fails the build when a record drifts from it.  Checks per
record (one JSON object per line):

  * exactly the eight keys: round, honest_mined, adversary_mined,
    mined_by, delivered, adoptions, best_height, violation_depth
  * every value a non-negative integer; mined_by a list of them
  * len(mined_by) == honest_mined (one miner id per honest block), or
    mined_by empty when miner identity is not modeled (the aggregate
    engine streams counting-only records through the same schema)
  * round >= 1 and strictly increasing across records
  * best_height and violation_depth nondecreasing (both are running
    maxima inside the engine)
  * adoptions <= delivered + honest_mined (a tip switch only happens
    on a delivery or on mining one's own block)

--chrome additionally validates the exporter output: a JSON object with
a "traceEvents" list whose events carry a "ph" in {M, X, I}, with
complete ("X") events holding finite non-negative ts/dur numbers (the
exporter emits fixed-point fractional microseconds, e.g. 1234.567).

--artifact validates a replayable violation artifact from `neatbound_cli
run --oracle --oracle-dump` (schema in docs/observability.md): the
"neatbound-violation-v2" format tag, exact key sets at every level, a
known invariant name, a measured value that actually violates the bound
(strictly above it for common-prefix, strictly below for the window
invariants), a violating round inside the run, views indexed 0..n-1
with fixed-width "0x"+16-hex-digit hashes, and a trace slice that
passes every per-record trace check above, is contiguous, ends exactly
at the violating round, and — for common-prefix violations — ends with
violation_depth equal to the measured depth.

Plain python3, stdlib only.  Exit 0 on success, 1 on violations.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

TRACE_KEYS = (
    "round",
    "honest_mined",
    "adversary_mined",
    "mined_by",
    "delivered",
    "adoptions",
    "best_height",
    "violation_depth",
)


def _is_uint(value: object) -> bool:
    # bool is an int subclass; a JSON true/false here is schema drift.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_nonneg_number(value: object) -> bool:
    # Chrome-trace ts/dur: integer or fractional-µs, finite, >= 0.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0)


def check_trace_lines(lines: list[str], *, allow_empty: bool = False,
                      label: str = "trace") -> list[str]:
    """Return a list of human-readable violations (empty == valid)."""
    errors: list[str] = []
    records = 0
    prev_round = 0
    prev_best_height = -1
    prev_violation_depth = -1
    for lineno, line in enumerate(lines, start=1):
        where = f"{label}:{lineno}"
        line = line.strip()
        if not line:
            errors.append(f"{where}: blank line inside trace")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: not valid JSON: {exc}")
            continue
        if not isinstance(record, dict):
            errors.append(f"{where}: record is not a JSON object")
            continue
        keys = set(record)
        expected = set(TRACE_KEYS)
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unexpected {extra}")
            errors.append(f"{where}: wrong key set ({', '.join(detail)})")
            continue
        bad_type = False
        for key in TRACE_KEYS:
            if key == "mined_by":
                continue
            if not _is_uint(record[key]):
                errors.append(f"{where}: {key} must be a non-negative "
                              f"integer, got {record[key]!r}")
                bad_type = True
        mined_by = record["mined_by"]
        if not isinstance(mined_by, list) or not all(
                _is_uint(m) for m in mined_by):
            errors.append(f"{where}: mined_by must be a list of "
                          f"non-negative integers, got {mined_by!r}")
            bad_type = True
        if bad_type:
            continue
        records += 1
        if record["round"] < 1:
            errors.append(f"{where}: round is 1-based, got "
                          f"{record['round']}")
        if record["round"] <= prev_round:
            errors.append(f"{where}: round {record['round']} not strictly "
                          f"greater than previous round {prev_round}")
        prev_round = record["round"]
        # Empty mined_by is the aggregate-engine form: counting-only
        # records where miner identity is not modeled.
        if mined_by and len(mined_by) != record["honest_mined"]:
            errors.append(f"{where}: len(mined_by)={len(mined_by)} != "
                          f"honest_mined={record['honest_mined']}")
        if record["best_height"] < prev_best_height:
            errors.append(f"{where}: best_height decreased "
                          f"({prev_best_height} -> {record['best_height']})")
        prev_best_height = record["best_height"]
        if record["violation_depth"] < prev_violation_depth:
            errors.append(f"{where}: violation_depth decreased "
                          f"({prev_violation_depth} -> "
                          f"{record['violation_depth']})")
        prev_violation_depth = record["violation_depth"]
        if record["adoptions"] > record["delivered"] + record["honest_mined"]:
            errors.append(f"{where}: adoptions={record['adoptions']} exceeds "
                          f"delivered+honest_mined="
                          f"{record['delivered'] + record['honest_mined']}")
    if records == 0 and not allow_empty:
        errors.append(f"{label}: no trace records (pass --allow-empty if the "
                      f"window was intentionally out of range)")
    return errors


def check_chrome_trace(text: str, *, label: str = "chrome") -> list[str]:
    """Validate the shape of a write_chrome_trace export."""
    errors: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: not valid JSON: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return [f"{label}: expected an object with a traceEvents key"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return [f"{label}: traceEvents is not a list"]
    phases = set()
    for i, event in enumerate(events):
        where = f"{label}: traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("M", "X", "I"):
            errors.append(f"{where}: unexpected phase {ph!r}")
            continue
        phases.add(ph)
        if "name" not in event:
            errors.append(f"{where}: missing name")
        if ph == "X":
            for key in ("ts", "dur"):
                if not _is_nonneg_number(event.get(key)):
                    errors.append(f"{where}: {key} must be a finite "
                                  f"non-negative number, "
                                  f"got {event.get(key)!r}")
    if "M" not in phases:
        errors.append(f"{label}: no metadata (\"M\") event — process_name "
                      f"record is part of the exporter contract")
    return errors


ARTIFACT_FORMAT = "neatbound-violation-v2"
ARTIFACT_KEYS = ("format", "engine", "violation_t", "oracle", "adversary",
                 "network", "violation", "views", "trace")
ENGINE_KEYS = ("miners", "nu", "delta", "rounds", "p", "seed", "rng")
RNG_MODES = ("counter",)
ORACLE_KEYS = ("common_prefix", "common_prefix_t", "growth_window",
               "growth_min_blocks", "quality_window", "quality_min_ratio",
               "slice_rounds")
VIOLATION_KEYS = ("invariant", "round", "measured", "bound", "view_a",
                  "view_b")
VIEW_KEYS = ("miner", "tip", "height", "hash")
INVARIANTS = ("common-prefix", "chain-growth", "chain-quality")
_HEX_DIGITS = set("0123456789abcdef")


def _is_hash(value: object) -> bool:
    return (isinstance(value, str) and len(value) == 18
            and value.startswith("0x") and set(value[2:]) <= _HEX_DIGITS)


def _check_keys(obj: object, expected: tuple, where: str,
                errors: list) -> bool:
    if not isinstance(obj, dict):
        errors.append(f"{where}: not a JSON object")
        return False
    keys, want = set(obj), set(expected)
    if keys != want:
        missing = sorted(want - keys)
        extra = sorted(keys - want)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        errors.append(f"{where}: wrong key set ({', '.join(detail)})")
        return False
    return True


def check_artifact(text: str, *, label: str = "artifact") -> list[str]:
    """Validate a replayable violation artifact (empty list == valid)."""
    errors: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: not valid JSON: {exc}"]
    if not _check_keys(doc, ARTIFACT_KEYS, label, errors):
        return errors
    if doc["format"] != ARTIFACT_FORMAT:
        errors.append(f"{label}: format {doc['format']!r} is not "
                      f"{ARTIFACT_FORMAT!r}")

    engine = doc["engine"]
    rounds = 0
    if _check_keys(engine, ENGINE_KEYS, f"{label}: engine", errors):
        for key in ("miners", "delta", "rounds", "seed"):
            if not _is_uint(engine[key]):
                errors.append(f"{label}: engine.{key} must be a "
                              f"non-negative integer, got {engine[key]!r}")
        for key in ("nu", "p"):
            if not _is_nonneg_number(engine[key]):
                errors.append(f"{label}: engine.{key} must be a finite "
                              f"non-negative number, got {engine[key]!r}")
        if engine["rng"] not in RNG_MODES:
            errors.append(f"{label}: engine.rng must be one of "
                          f"{', '.join(RNG_MODES)}, got {engine['rng']!r}")
        if _is_uint(engine["rounds"]):
            rounds = engine["rounds"]

    oracle = doc["oracle"]
    slice_rounds = 0
    if _check_keys(oracle, ORACLE_KEYS, f"{label}: oracle", errors):
        if _is_uint(oracle["slice_rounds"]) and oracle["slice_rounds"] >= 1:
            slice_rounds = oracle["slice_rounds"]
        else:
            errors.append(f"{label}: oracle.slice_rounds must be a positive "
                          f"integer, got {oracle['slice_rounds']!r}")

    for name, selector in (("adversary", "strategy"), ("network", "model")):
        component = doc[name]
        if not isinstance(component, dict) or selector not in component:
            errors.append(f"{label}: {name} must be an object with a "
                          f"{selector!r} selector")
        elif not isinstance(component[selector], str):
            errors.append(f"{label}: {name}.{selector} must be a string")

    violation = doc["violation"]
    violating_round = 0
    measured = None
    common_prefix = False
    if _check_keys(violation, VIOLATION_KEYS, f"{label}: violation", errors):
        for key in ("round", "measured", "bound", "view_a", "view_b"):
            if not _is_uint(violation[key]):
                errors.append(f"{label}: violation.{key} must be a "
                              f"non-negative integer, "
                              f"got {violation[key]!r}")
        invariant = violation["invariant"]
        if invariant not in INVARIANTS:
            errors.append(f"{label}: unknown invariant {invariant!r} "
                          f"(known: {', '.join(INVARIANTS)})")
        elif _is_uint(violation["measured"]) and _is_uint(violation["bound"]):
            common_prefix = invariant == "common-prefix"
            measured = violation["measured"]
            if common_prefix and measured <= violation["bound"]:
                errors.append(f"{label}: common-prefix measured="
                              f"{measured} does not exceed bound="
                              f"{violation['bound']}")
            if not common_prefix and measured >= violation["bound"]:
                errors.append(f"{label}: {invariant} measured={measured} "
                              f"not below bound={violation['bound']}")
        if _is_uint(violation["round"]):
            violating_round = violation["round"]
            if violating_round < 1:
                errors.append(f"{label}: violation.round is 1-based, "
                              f"got {violating_round}")
            if rounds and violating_round > rounds:
                errors.append(f"{label}: violation.round {violating_round} "
                              f"exceeds engine.rounds {rounds}")

    views = doc["views"]
    if not isinstance(views, list) or not views:
        errors.append(f"{label}: views must be a non-empty list")
    else:
        for i, view in enumerate(views):
            where = f"{label}: views[{i}]"
            if not _check_keys(view, VIEW_KEYS, where, errors):
                continue
            if view["miner"] != i:
                errors.append(f"{where}: miner {view['miner']!r} out of "
                              f"order (expected {i})")
            for key in ("tip", "height"):
                if not _is_uint(view[key]):
                    errors.append(f"{where}: {key} must be a non-negative "
                                  f"integer, got {view[key]!r}")
            if not _is_hash(view["hash"]):
                errors.append(f"{where}: hash must be \"0x\" + 16 lowercase "
                              f"hex digits, got {view['hash']!r}")
        if isinstance(violation, dict):
            for key in ("view_a", "view_b"):
                if _is_uint(violation.get(key)) and \
                        violation[key] >= len(views):
                    errors.append(f"{label}: violation.{key}="
                                  f"{violation[key]} has no matching view")

    trace = doc["trace"]
    if not isinstance(trace, list):
        errors.append(f"{label}: trace must be a list")
    else:
        # Every per-record trace-schema check applies to the slice too.
        lines = [json.dumps(record) for record in trace]
        errors += check_trace_lines(lines, label=f"{label}: trace")
        if trace and violating_round:
            last = trace[-1]
            first = trace[0]
            if isinstance(last, dict) and last.get("round") != \
                    violating_round:
                errors.append(f"{label}: trace ends at round "
                              f"{last.get('round')!r}, not the violating "
                              f"round {violating_round}")
            expected_len = min(violating_round, slice_rounds or
                               violating_round)
            if len(trace) != expected_len:
                errors.append(f"{label}: trace has {len(trace)} record(s), "
                              f"expected min(violation.round, slice_rounds)"
                              f"={expected_len}")
            elif isinstance(first, dict) and first.get("round") != \
                    violating_round - expected_len + 1:
                errors.append(f"{label}: trace starts at round "
                              f"{first.get('round')!r}, expected "
                              f"{violating_round - expected_len + 1}")
            if common_prefix and measured is not None and \
                    isinstance(last, dict) and \
                    last.get("violation_depth") != measured:
                errors.append(f"{label}: last trace record has "
                              f"violation_depth="
                              f"{last.get('violation_depth')!r} but the "
                              f"frozen common-prefix measurement is "
                              f"{measured}")
    return errors


# --- self-test ---------------------------------------------------------

def _record(**overrides: object) -> dict:
    base = {"round": 1, "honest_mined": 1, "adversary_mined": 0,
            "mined_by": [3], "delivered": 0, "adoptions": 1,
            "best_height": 1, "violation_depth": 0}
    base.update(overrides)
    return base


_GOOD_TRACE = [
    json.dumps(_record()),
    json.dumps(_record(round=2, honest_mined=0, mined_by=[], delivered=4,
                       adoptions=2, best_height=2)),
    json.dumps(_record(round=5, honest_mined=2, mined_by=[0, 7], delivered=3,
                       adoptions=4, best_height=2, violation_depth=3)),
    # Aggregate-engine form: honest blocks counted, miner identity not
    # modeled, so mined_by stays empty.
    json.dumps(_record(round=7, honest_mined=3, mined_by=[],
                       best_height=2, violation_depth=3)),
]

# (case name, lines, substring that must appear in some violation)
_BAD_TRACES = [
    ("not-json", ["{nope"], "not valid JSON"),
    ("not-object", ["[1, 2]"], "not a JSON object"),
    ("missing-key", [json.dumps({k: v for k, v in _record().items()
                                 if k != "delivered"})], "wrong key set"),
    ("extra-key", [json.dumps({**_record(), "extra": 1})], "wrong key set"),
    ("bool-count", [json.dumps(_record(delivered=True))],
     "non-negative integer"),
    ("negative", [json.dumps(_record(best_height=-1))],
     "non-negative integer"),
    ("mined-by-type", [json.dumps(_record(mined_by=["a"]))],
     "mined_by must be a list"),
    ("mined-by-len", [json.dumps(_record(honest_mined=2))],
     "len(mined_by)"),
    ("zero-round", [json.dumps(_record(round=0))], "1-based"),
    ("round-order", [json.dumps(_record(round=3)),
                     json.dumps(_record(round=3))], "strictly greater"),
    ("height-drop", [json.dumps(_record(best_height=5)),
                     json.dumps(_record(round=2, best_height=4))],
     "best_height decreased"),
    ("violation-drop", [json.dumps(_record(violation_depth=2)),
                        json.dumps(_record(round=2))],
     "violation_depth decreased"),
    ("adoption-bound", [json.dumps(_record(adoptions=9))],
     "adoptions=9 exceeds"),
    ("blank-line", [json.dumps(_record()), ""], "blank line"),
    ("empty", [], "no trace records"),
]

_GOOD_CHROME = json.dumps({"traceEvents": [
    {"ph": "M", "name": "process_name", "pid": 1,
     "args": {"name": "neatbound"}},
    # Fixed-point fractional-µs ts/dur, as write_chrome_trace emits.
    {"ph": "X", "name": "deliver", "pid": 1, "tid": 1, "ts": 1234567.891,
     "dur": 12.005},
    {"ph": "X", "name": "mine", "pid": 1, "tid": 1, "ts": 0, "dur": 12},
    {"ph": "I", "name": "counters", "pid": 1, "tid": 1, "ts": 0, "s": "g",
     "args": {"deliveries": 4}},
]})

_BAD_CHROMES = [
    ("chrome-not-json", "{", "not valid JSON"),
    ("chrome-no-events", json.dumps({"foo": []}), "traceEvents"),
    ("chrome-bad-phase", json.dumps({"traceEvents": [
        {"ph": "M", "name": "process_name"}, {"ph": "Z", "name": "x"}]}),
     "unexpected phase"),
    ("chrome-bad-dur", json.dumps({"traceEvents": [
        {"ph": "M", "name": "process_name"},
        {"ph": "X", "name": "deliver", "ts": 0, "dur": -3}]}),
     "dur must be a finite non-negative number"),
    ("chrome-inf-ts", json.dumps({"traceEvents": [
        {"ph": "M", "name": "process_name"},
        {"ph": "X", "name": "deliver", "ts": float("inf"), "dur": 1}]}),
     "ts must be a finite non-negative number"),
    ("chrome-string-ts", json.dumps({"traceEvents": [
        {"ph": "M", "name": "process_name"},
        {"ph": "X", "name": "deliver", "ts": "0", "dur": 1}]}),
     "ts must be a finite non-negative number"),
    ("chrome-no-meta", json.dumps({"traceEvents": [
        {"ph": "X", "name": "deliver", "ts": 0, "dur": 1}]}),
     "no metadata"),
]


def _artifact(**overrides: object) -> dict:
    base = {
        "format": ARTIFACT_FORMAT,
        "engine": {"miners": 12, "nu": 0.4, "delta": 3, "rounds": 400,
                   "p": 0.03, "seed": 611, "rng": "counter"},
        "violation_t": 3,
        "oracle": {"common_prefix": True, "common_prefix_t": 3,
                   "growth_window": 0, "growth_min_blocks": 1,
                   "quality_window": 0, "quality_min_ratio": 0.05,
                   "slice_rounds": 24},
        "adversary": {"strategy": "fork-balancer"},
        "network": {"model": "strategy"},
        "violation": {"invariant": "common-prefix", "round": 2,
                      "measured": 4, "bound": 3, "view_a": 0, "view_b": 1},
        "views": [
            {"miner": 0, "tip": 9, "height": 4,
             "hash": "0x063f3615ae01bb1d"},
            {"miner": 1, "tip": 11, "height": 5,
             "hash": "0x065c3e9045d0c28a"},
        ],
        "trace": [
            _record(),
            _record(round=2, honest_mined=0, mined_by=[], delivered=4,
                    adoptions=2, best_height=2, violation_depth=4),
        ],
    }
    base.update(overrides)
    return base


def _mutated(path: list, value: object) -> str:
    """The good artifact with one nested field replaced (None = delete)."""
    doc = json.loads(json.dumps(_artifact()))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(doc)


_BAD_ARTIFACTS = [
    ("artifact-not-json", "{nope", "not valid JSON"),
    ("artifact-missing-key", _mutated(["violation_t"], None),
     "wrong key set"),
    ("artifact-extra-key", json.dumps({**_artifact(), "surprise": 1}),
     "wrong key set"),
    ("artifact-bad-format", _mutated(["format"], "neatbound-violation-v9"),
     "is not 'neatbound-violation-v2'"),
    ("artifact-engine-keys", _mutated(["engine", "seed"], None),
     "wrong key set"),
    ("artifact-bad-nu", _mutated(["engine", "nu"], -0.4),
     "engine.nu"),
    ("artifact-bad-rng", _mutated(["engine", "rng"], "legacy"),
     "engine.rng"),
    ("artifact-bad-invariant",
     _mutated(["violation", "invariant"], "common-suffix"),
     "unknown invariant"),
    ("artifact-not-violating", _mutated(["violation", "measured"], 3),
     "does not exceed bound"),
    ("artifact-window-not-violating", json.dumps(_artifact(
        violation={"invariant": "chain-growth", "round": 2, "measured": 5,
                   "bound": 5, "view_a": 0, "view_b": 0})),
     "not below bound"),
    ("artifact-round-zero", _mutated(["violation", "round"], 0), "1-based"),
    ("artifact-round-late", _mutated(["violation", "round"], 500),
     "exceeds engine.rounds"),
    ("artifact-view-order", _mutated(["views", 1, "miner"], 7),
     "out of order"),
    ("artifact-view-keys", _mutated(["views", 0, "tip"], None),
     "wrong key set"),
    ("artifact-bad-hash",
     _mutated(["views", 0, "hash"], "0x063f3615ae01bb1z"),
     "hex digits"),
    ("artifact-view-index", _mutated(["violation", "view_b"], 9),
     "no matching view"),
    ("artifact-trace-schema",
     _mutated(["trace", 0, "delivered"], None), "wrong key set"),
    ("artifact-trace-end", _mutated(["violation", "round"], 3),
     "not the violating round"),
    ("artifact-trace-depth", _mutated(["trace", 1, "violation_depth"], 9),
     "frozen common-prefix measurement"),
]


def self_test() -> int:
    failures = []
    errors = check_trace_lines(_GOOD_TRACE, label="good")
    if errors:
        failures.append(f"good trace flagged: {errors}")
    if check_trace_lines([], allow_empty=True, label="empty-ok"):
        failures.append("--allow-empty did not accept an empty trace")
    for name, lines, needle in _BAD_TRACES:
        errors = check_trace_lines(lines, label=name)
        if not any(needle in e for e in errors):
            failures.append(f"{name}: expected a violation containing "
                            f"{needle!r}, got {errors}")
    if check_chrome_trace(_GOOD_CHROME, label="good-chrome"):
        failures.append("good chrome trace flagged")
    for name, text, needle in _BAD_CHROMES:
        errors = check_chrome_trace(text, label=name)
        if not any(needle in e for e in errors):
            failures.append(f"{name}: expected a violation containing "
                            f"{needle!r}, got {errors}")
    errors = check_artifact(json.dumps(_artifact()), label="good-artifact")
    if errors:
        failures.append(f"good artifact flagged: {errors}")
    for name, text, needle in _BAD_ARTIFACTS:
        errors = check_artifact(text, label=name)
        if not any(needle in e for e in errors):
            failures.append(f"{name}: expected a violation containing "
                            f"{needle!r}, got {errors}")
    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}")
        return 1
    print(f"OK: {len(_BAD_TRACES)} bad traces, {len(_BAD_CHROMES)} bad "
          f"chrome exports and {len(_BAD_ARTIFACTS)} bad artifacts "
          f"rejected, good ones accepted")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?",
                        help="round-trace JSONL file from --trace")
    parser.add_argument("--chrome",
                        help="Chrome trace JSON from --chrome-trace")
    parser.add_argument("--artifact",
                        help="violation artifact JSON from --oracle-dump")
    parser.add_argument("--allow-empty", action="store_true",
                        help="accept a trace with zero records")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the checker against known-bad inputs")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.trace is None and args.chrome is None and args.artifact is None:
        parser.error("need a TRACE.jsonl, --chrome, --artifact, or "
                     "--self-test")
    errors: list[str] = []
    if args.trace is not None:
        with open(args.trace, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        errors += check_trace_lines(lines, allow_empty=args.allow_empty,
                                    label=args.trace)
    if args.chrome is not None:
        with open(args.chrome, encoding="utf-8") as fh:
            errors += check_chrome_trace(fh.read(), label=args.chrome)
    if args.artifact is not None:
        with open(args.artifact, encoding="utf-8") as fh:
            errors += check_artifact(fh.read(), label=args.artifact)
    for error in errors:
        print(error)
    if errors:
        print(f"FAILED: {len(errors)} violation(s)")
        return 1
    checked = [p for p in (args.trace, args.chrome, args.artifact)
               if p is not None]
    print(f"OK: {', '.join(checked)} conform to the trace schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
