#!/usr/bin/env python3
"""Validates Prometheus text exposition format (version 0.0.4), stdlib only.

Usage:
    check_prometheus.py [FILE] [--require NAME ...]
    check_prometheus.py --self-test

Reads the exposition from FILE (or stdin when omitted or "-"), checks
every line against the format grammar, and exits non-zero with a
line-numbered diagnosis on the first class of problem found. With
--require, additionally fails unless each NAME appears as a sample
(label sets and the _sum/_count/_bucket/window suffixes of summaries
count, matching how a scraper sees series).

Checked invariants:
  * lines are comments (# HELP / # TYPE ...), blank, or samples
  * metric and label names match the Prometheus grammar
  * label values are well-formed quoted strings (escapes: \\ \" \n)
  * a label set never repeats a label key
  * sample values parse as floats (inf/nan/scientific accepted),
    optional timestamps as integers
  * # TYPE declares a known type, at most once per metric — labeled
    series of one family share a single declaration — and before any
    of that metric's samples
  * counters end in _total and gauge/counter samples are single-valued
  * no family mixes an unlabeled series with labeled ones (the quantile
    label of summaries ignored): every event is recorded in exactly one
    series, so an unlabeled "total" next to per-model series counts each
    event twice in any sum() over the family

--self-test exercises the checker against built-in labeled fixtures
(valid dimensional series must pass; duplicate label keys, bad
escapes, duplicated TYPE lines, misnamed counters and unlabeled twins
of labeled families must each be rejected) and exits non-zero on any
miss.

The CI server-smoke job pipes `curl /metrics` through this script, so a
malformed exposition fails the build rather than a scrape at 3am.
"""

import argparse
import math
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


class FormatError(Exception):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_float(text):
    lowered = text.lower()
    if lowered in ("+inf", "inf"):
        return math.inf
    if lowered == "-inf":
        return -math.inf
    if lowered == "nan":
        return math.nan
    return float(text)


def parse_labels(lineno, text):
    """Parses the {...} label block; returns (labels dict, rest of line)."""
    assert text[0] == "{"
    labels = {}
    i = 1
    while True:
        if i >= len(text):
            raise FormatError(lineno, "unterminated label set")
        if text[i] == "}":
            return labels, text[i + 1:]
        match = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", text[i:])
        if not match:
            raise FormatError(lineno, f"bad label name at ...{text[i:i+20]!r}")
        name = match.group(0)
        i += len(name)
        if i >= len(text) or text[i] != "=":
            raise FormatError(lineno, f"label {name!r} missing '='")
        i += 1
        if i >= len(text) or text[i] != '"':
            raise FormatError(lineno, f"label {name!r} value not quoted")
        i += 1
        value = []
        while True:
            if i >= len(text):
                raise FormatError(lineno, f"label {name!r} value unterminated")
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text) or text[i + 1] not in ('\\', '"', 'n'):
                    raise FormatError(
                        lineno, f"bad escape in label {name!r} value")
                value.append(text[i + 1])
                i += 2
                continue
            if ch == '"':
                i += 1
                break
            value.append(ch)
            i += 1
        if name in labels:
            raise FormatError(lineno, f"duplicate label key {name!r}")
        labels[name] = "".join(value)
        if i < len(text) and text[i] == ",":
            i += 1
        elif i >= len(text) or text[i] != "}":
            raise FormatError(
                lineno, f"expected ',' or '}}' after label {name!r}")


def check(stream):
    """Returns {metric base name -> declared type}; raises FormatError."""
    types = {}       # name -> type from # TYPE
    sampled = set()  # names that have emitted a sample already
    seen_names = set()
    shapes = {}      # family -> set of "has labels" flags seen
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # Free-form comment: legal, ignored.
            if parts[1] == "TYPE":
                if len(parts) != 4:
                    raise FormatError(lineno, f"malformed TYPE line: {line!r}")
                _, _, name, kind = parts
                if not METRIC_NAME_RE.match(name):
                    raise FormatError(lineno, f"bad metric name {name!r}")
                if kind not in KNOWN_TYPES:
                    raise FormatError(lineno, f"unknown type {kind!r}")
                if name in types:
                    raise FormatError(lineno, f"duplicate TYPE for {name!r}")
                if name in sampled:
                    raise FormatError(
                        lineno, f"TYPE for {name!r} after its samples")
                types[name] = kind
            elif len(parts) < 3 or not METRIC_NAME_RE.match(parts[2]):
                raise FormatError(lineno, f"malformed HELP line: {line!r}")
            continue

        match = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line)
        if not match:
            raise FormatError(lineno, f"unparseable sample line: {line!r}")
        name = match.group(0)
        rest = line[len(name):]
        labels = {}
        if rest.startswith("{"):
            labels, rest = parse_labels(lineno, rest)
        fields = rest.split()
        if len(fields) not in (1, 2):
            raise FormatError(
                lineno, f"expected value [timestamp] after {name!r}")
        try:
            parse_float(fields[0])
        except ValueError:
            raise FormatError(
                lineno, f"bad sample value {fields[0]!r} for {name!r}")
        if len(fields) == 2:
            try:
                int(fields[1])
            except ValueError:
                raise FormatError(
                    lineno, f"bad timestamp {fields[1]!r} for {name!r}")
        sampled.add(name)
        seen_names.add(name)

        base = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
        if base in types and types[base] == "counter":
            if not base.endswith("_total"):
                raise FormatError(
                    lineno, f"counter {base!r} does not end in _total")
        shape = shapes.setdefault(base, set())
        shape.add(bool(set(labels) - {"quantile"}))
        if len(shape) == 2:
            raise FormatError(
                lineno, f"family {base!r} mixes unlabeled and labeled "
                        f"series (each event must be recorded once)")
    return seen_names


# (name, lines, expected-error substring or None for "must pass").
SELF_TEST_FIXTURES = [
    ("labeled series", [
        '# TYPE karl_server_queries_total counter',
        'karl_server_queries_total{model="alpha"} 10',
        'karl_server_queries_total{model="beta"} 3',
        '# TYPE karl_server_eval_us summary',
        'karl_server_eval_us{model="alpha",quantile="0.99"} 120.5',
        'karl_server_eval_us_sum{model="alpha"} 4021',
        'karl_server_eval_us_count{model="alpha"} 10',
        'karl_server_eval_us_window60s{model="alpha"} 9',
        '# TYPE karl_slo_burn_rate gauge',
        'karl_slo_burn_rate{model="alpha",slo="latency",window="fast"} 0.2',
        '# TYPE karl_query_latency_usec summary',
        'karl_query_latency_usec{quantile="0.5"} 3.5',
        'karl_query_latency_usec_count 4',
    ], None),
    ("escaped values", [
        'weird_label{path="C:\\\\tmp",note="line\\nbreak",q="say \\"hi\\""} 1',
    ], None),
    ("overflow sink", [
        '# TYPE karl_x_total counter',
        'karl_x_total{model="__other__"} 7',
    ], None),
    ("duplicate label key", [
        'm{model="a",model="b"} 1',
    ], "duplicate label key"),
    ("bad escape", [
        'm{model="a\\q"} 1',
    ], "bad escape"),
    ("bad label name", [
        'm{9model="a"} 1',
    ], "bad label name"),
    ("unterminated label set", [
        'm{model="a" 1',
    ], "expected ',' or '}'"),
    ("duplicate TYPE across labeled series", [
        '# TYPE karl_y_total counter',
        'karl_y_total{model="a"} 1',
        '# TYPE karl_y_total counter',
        'karl_y_total{model="b"} 1',
    ], "duplicate TYPE"),
    ("TYPE after samples", [
        'karl_z_total{model="a"} 1',
        '# TYPE karl_z_total counter',
    ], "after its samples"),
    ("counter missing _total", [
        '# TYPE karl_model_evictions counter',
        'karl_model_evictions{model="a"} 1',
    ], "does not end in _total"),
    ("bad sample value", [
        'm{model="a"} fast',
    ], "bad sample value"),
    ("unlabeled twin of a labeled family", [
        '# TYPE karl_server_queries_total counter',
        'karl_server_queries_total 100',
        'karl_server_queries_total{model="default"} 100',
    ], "mixes unlabeled and labeled"),
]


def self_test():
    failures = []
    for name, lines, expect in SELF_TEST_FIXTURES:
        try:
            check(iter(lines))
            error = None
        except FormatError as caught:
            error = str(caught)
        if expect is None and error is not None:
            failures.append(f"{name}: expected pass, got: {error}")
        elif expect is not None and error is None:
            failures.append(f"{name}: expected error {expect!r}, passed")
        elif expect is not None and expect not in error:
            failures.append(f"{name}: expected {expect!r} in: {error}")
    for failure in failures:
        print(f"check_prometheus: self-test FAIL: {failure}",
              file=sys.stderr)
    if not failures:
        print(f"check_prometheus: self-test OK "
              f"({len(SELF_TEST_FIXTURES)} fixtures)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="Validate Prometheus text exposition format.")
    parser.add_argument("file", nargs="?", default="-",
                        help="exposition file (default: stdin)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="fail unless NAME appears as a sample "
                             "(prefix match on series names)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    stream = sys.stdin if args.file == "-" else open(args.file)
    try:
        seen = check(stream)
    except FormatError as error:
        print(f"check_prometheus: {error}", file=sys.stderr)
        return 1
    finally:
        if stream is not sys.stdin:
            stream.close()

    missing = [name for name in args.require
               if not any(series == name or series.startswith(name + "_")
                          or series.startswith(name + "{")
                          for series in seen)]
    if missing:
        print(f"check_prometheus: required series missing: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"check_prometheus: OK ({len(seen)} series)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
