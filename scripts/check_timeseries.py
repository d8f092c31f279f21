#!/usr/bin/env python3
"""End-to-end check of the live-telemetry stream and `feam top`.

Runs a pooled `feam survey` with --timeseries-out and validates the
feam.timeseries/1 contract:

  * the stream opens with a meta line (schema, interval, source) and every
    subsequent line is a well-formed sample with a strictly increasing seq,
  * exactly one final sample exists and it is the last line,
  * per-series telescoping: previous total + delta == total on every line,
    and the sum of all deltas equals the final sample's totals exactly,
  * the final counter totals agree with --metrics-out's registry snapshot,
  * gauge samples are well-formed (v/p non-negative ints, peak >= value,
    peaks never regress), the final sample reports a nonzero
    process.rss_bytes, and --track-alloc attributes allocation bytes,
  * `feam top --once` emits a feam.top/1 JSON document with windowed phase
    percentiles, per-cache hit rates, a memory section (RSS + cache
    footprints), and no consistency issues,
  * follow mode tails a file while another feam process is still writing
    it and exits 0 on the final sample,
  * `feam report --baseline` gates trend.* metrics read off the stream:
    a satisfiable baseline exits 0, an impossible bound exits 2, and an
    unknown selector or a directory with no stream exits 1 naming the
    metric,
  * a non-timeseries input produces a diagnostic naming --timeseries-out.

Usage: check_timeseries.py /path/to/feam
"""

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

SCHEMA = "feam.timeseries/1"


def run(cmd, ok_codes=(0,)):
    result = subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=120)
    if result.returncode not in ok_codes:
        sys.stdout.write(result.stdout)
        sys.stderr.write(result.stderr)
        sys.exit(f"FAIL: {' '.join(str(c) for c in cmd)} -> "
                 f"{result.returncode} (wanted {ok_codes})")
    return result


def parse_stream(path):
    """Parses and structurally validates one feam.timeseries/1 file;
    returns (meta, samples)."""
    text = path.read_text()
    if not text.strip():
        sys.exit(f"FAIL: {path} is empty — sampler wrote no lines")
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        parsed = [json.loads(l) for l in lines]
    except json.JSONDecodeError as err:
        sys.exit(f"FAIL: {path} line {err.lineno} is not JSON — line "
                 f"writes are supposed to be atomic: {err.msg}")

    meta = parsed[0]
    if meta.get("schema") != SCHEMA or meta.get("type") != "meta":
        sys.exit(f"FAIL: first line is not a {SCHEMA} meta line: {meta}")
    if not isinstance(meta.get("interval_ms"), int) or meta["interval_ms"] < 1:
        sys.exit(f"FAIL: meta line carries no interval_ms: {meta}")

    samples = []
    for i, obj in enumerate(parsed[1:]):
        if obj.get("schema") != SCHEMA or obj.get("type") != "sample":
            sys.exit(f"FAIL: line {i + 2} is not a {SCHEMA} sample: {obj}")
        if obj.get("seq") != len(samples):
            sys.exit(f"FAIL: sample seq {obj.get('seq')} out of order "
                     f"(expected {len(samples)})")
        samples.append(obj)
    if not samples:
        sys.exit(f"FAIL: {path} has a meta line but no samples")

    finals = [s["seq"] for s in samples if s.get("final")]
    if finals != [samples[-1]["seq"]]:
        sys.exit(f"FAIL: expected exactly one final sample, last in the "
                 f"stream; finals at {finals} of {len(samples)}")
    return meta, samples


def check_telescoping(samples):
    """Every line's total must equal the running sum of deltas, and the
    final totals must equal the overall delta sums exactly."""
    running = {}
    for sample in samples:
        for name, entry in sample.get("counters", {}).items():
            expect = running.get(name, 0) + entry["d"]
            if entry["t"] != expect:
                sys.exit(f"FAIL: counter {name} seq {sample['seq']}: "
                         f"total {entry['t']} != prior+delta {expect}")
            running[name] = entry["t"]
        for name, entry in sample.get("histograms", {}).items():
            key = "hist:" + name
            expect = running.get(key, 0) + entry["d"]["count"]
            if entry["t"] != expect:
                sys.exit(f"FAIL: histogram {name} seq {sample['seq']}: "
                         f"count {entry['t']} != prior+delta {expect}")
            running[key] = entry["t"]
    final = samples[-1]
    for name, entry in final.get("counters", {}).items():
        if entry["t"] != running.get(name):
            sys.exit(f"FAIL: final total of {name} ({entry['t']}) does not "
                     f"telescope from its deltas ({running.get(name)})")
    return {n: t for n, t in running.items() if not n.startswith("hist:")}


def check_gauges(samples):
    """Gauge entries carry non-negative integer v (value) / p (peak) with
    p >= v, peaks never regress across the stream, and the final sample
    (which reports every gauge) includes a nonzero process RSS."""
    peaks = {}
    seen = set()
    for sample in samples:
        for name, entry in sample.get("gauges", {}).items():
            v, p = entry.get("v"), entry.get("p")
            if not isinstance(v, int) or not isinstance(p, int) \
                    or v < 0 or p < v:
                sys.exit(f"FAIL: gauge {name} seq {sample['seq']} "
                         f"malformed (want ints with p >= v >= 0): {entry}")
            if p < peaks.get(name, 0):
                sys.exit(f"FAIL: gauge {name} seq {sample['seq']}: peak "
                         f"{p} regressed below {peaks[name]}")
            peaks[name] = p
            seen.add(name)
    final = samples[-1].get("gauges", {})
    if "process.rss_bytes" not in final:
        sys.exit("FAIL: final sample reports no process.rss_bytes gauge")
    if final["process.rss_bytes"]["v"] <= 0:
        sys.exit("FAIL: process.rss_bytes is zero — /proc probe broken?")
    return sorted(seen)


def check_against_registry(totals, metrics_file):
    """The final sample and the --metrics-out registry snapshot were both
    taken after all workers quiesced, so shared counters match exactly."""
    metrics = json.loads(metrics_file.read_text())
    compared = 0
    for name, value in metrics.get("counters", {}).items():
        if name not in totals:
            continue
        if totals[name] != value:
            sys.exit(f"FAIL: counter {name}: timeseries final total "
                     f"{totals[name]} != registry value {value}")
        compared += 1
    if compared < 4:
        sys.exit(f"FAIL: only {compared} counters shared between the stream "
                 f"and metrics.json — name encoding drifted?")
    return compared


def check_top_once(feam, stream):
    result = run([feam, "top", "--in", stream, "--once"])
    try:
        top = json.loads(result.stdout)
    except json.JSONDecodeError:
        sys.exit(f"FAIL: `feam top --once` stdout is not one JSON "
                 f"document:\n{result.stdout}")
    if top.get("schema") != "feam.top/1":
        sys.exit(f"FAIL: top --once schema is {top.get('schema')!r}")
    if not top.get("final"):
        sys.exit("FAIL: top --once on a completed stream reports final=false")
    if top.get("consistency_issues"):
        sys.exit(f"FAIL: top found consistency issues: "
                 f"{top['consistency_issues']}")
    phases = top.get("phases", {})
    if not phases:
        sys.exit(f"FAIL: top --once reports no phase histograms:\n{top}")
    for name, row in phases.items():
        if row["p50"] > row["p99"]:
            sys.exit(f"FAIL: phase {name}: p50 {row['p50']} > p99 "
                     f"{row['p99']}")
    caches = top.get("caches", {})
    for name, row in caches.items():
        if not (0.0 <= row["rate"] <= 1.0):
            sys.exit(f"FAIL: cache {name} hit rate {row['rate']} out of "
                     f"[0, 1]")
    memory = top.get("memory")
    if not memory:
        sys.exit(f"FAIL: top --once on a gauge-carrying stream has no "
                 f"memory section:\n{top}")
    if memory.get("rss_bytes", 0) <= 0:
        sys.exit(f"FAIL: top memory section reports no RSS: {memory}")
    for label, row in memory.get("caches", {}).items():
        if row["peak"] < row["bytes"]:
            sys.exit(f"FAIL: cache {label} footprint peak {row['peak']} < "
                     f"current {row['bytes']}")
    return len(phases), sorted(caches)


def check_follow_mode(feam, binary, bundle, tmp):
    """`feam top` (no --once) tails a stream that another feam process is
    concurrently writing, and exits 0 once the final sample lands."""
    stream = tmp / "live.jsonl"
    top = subprocess.Popen(
        [str(feam), "top", "--in", str(stream), "--refresh", "25",
         "--idle-timeout", "60000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    writer_result = {}

    def write_stream():
        writer_result["proc"] = subprocess.run(
            [str(feam), "survey", "--binary", str(binary), "--bundle",
             str(bundle), "--jobs", "4", "--timeseries-out", str(stream),
             "--timeseries-interval", "5"],
            capture_output=True, text=True, timeout=120)

    writer = threading.Thread(target=write_stream)
    writer.start()
    try:
        out, err = top.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        top.kill()
        sys.exit("FAIL: follow-mode `feam top` did not exit after the "
                 "stream's final sample")
    writer.join()
    if writer_result["proc"].returncode != 0:
        sys.exit(f"FAIL: concurrent survey failed: "
                 f"{writer_result['proc'].stderr}")
    if top.returncode != 0:
        sys.exit(f"FAIL: follow-mode top -> {top.returncode}:\n{out}\n{err}")
    if "stream finished" not in out:
        sys.exit(f"FAIL: follow-mode top exited 0 without the clean-end "
                 f"banner:\n{out[-500:]}")


def check_trend_gate(feam, stream, binary, bundle, tmp):
    """Trend metrics are ordinary baseline metrics: `feam report
    --baseline` reads each trend.* name the baseline lists off the
    stream in its --in directory, then gates them with everything else."""
    with_stream = tmp / "trend"
    with_stream.mkdir()
    shutil.copy(stream, with_stream / "survey.jsonl")
    without_stream = tmp / "trend-records"
    without_stream.mkdir()
    run([feam, "survey", "--binary", binary, "--bundle", bundle,
         "--run-record-out", without_stream / "survey.json"])
    baseline = tmp / "trend_baseline.json"

    def report(directory, metrics, ok_codes):
        baseline.write_text(json.dumps(
            {"schema": "feam.report_baseline/1", "metrics": metrics}))
        return run([feam, "report", "--in", directory, "--baseline",
                    baseline, "--gate"], ok_codes=ok_codes)

    bounds = {"trend.steady_samples": {"min": 1},
              "trend.hitrate.cache.late": {"min": 0, "max": 1}}
    res = report(with_stream, bounds, (0,))
    if "ok   trend.steady_samples" not in res.stdout or \
            "ok   trend.hitrate.cache.late" not in res.stdout:
        sys.exit(f"FAIL: trend metrics missing from the gate:\n"
                 f"{res.stdout}")
    res = report(with_stream,
                 dict(bounds, **{"trend.hitrate.cache.late": {"min": 2}}),
                 (2,))
    if "FAIL trend.hitrate.cache.late" not in res.stdout:
        sys.exit(f"FAIL: an impossible trend bound did not fail by "
                 f"name:\n{res.stdout}")
    res = report(with_stream,
                 dict(bounds, **{"trend.bogus.p99.drift": {"max": 1}}),
                 (1,))
    if "trend.bogus.p99.drift" not in res.stderr:
        sys.exit(f"FAIL: an unknown trend selector is not named:\n"
                 f"{res.stderr}")
    res = report(without_stream, bounds, (1,))
    if not any(name in res.stderr for name in bounds) or \
            "--timeseries-out" not in res.stderr:
        sys.exit(f"FAIL: a trend baseline over a directory with no stream "
                 f"does not name the metric:\n{res.stderr}")


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} /path/to/feam")
    feam = Path(sys.argv[1])
    if not feam.exists():
        sys.exit(f"FAIL: no such binary: {feam}")

    with tempfile.TemporaryDirectory(prefix="feam_timeseries_") as tmp:
        tmp = Path(tmp)
        binary = tmp / "cg.B"
        bundle = tmp / "cg.B.feambundle"
        stream = tmp / "survey.jsonl"
        metrics_file = tmp / "metrics.json"

        run([feam, "compile", "--site", "india", "--stack", "openmpi/1.4-gnu",
             "--program", "cg.B", "--language", "fortran", "-o", binary])
        run([feam, "source", "--site", "india", "--stack", "openmpi/1.4-gnu",
             "--binary", binary, "-o", bundle])
        # A pooled survey exercises the concurrent-writer paths while the
        # sampler thread snapshots; a short interval yields enough samples
        # for the windowed views.
        run([feam, "survey", "--binary", binary, "--bundle", bundle,
             "--jobs", "4", "--timeseries-out", stream,
             "--timeseries-interval", "5", "--metrics-out", metrics_file,
             "--track-alloc"])

        meta, samples = parse_stream(stream)
        totals = check_telescoping(samples)
        gauges = check_gauges(samples)
        if totals.get("mem.alloc_bytes", 0) <= 0:
            sys.exit("FAIL: --track-alloc run attributed no allocation "
                     "bytes (mem.alloc_bytes total is zero)")
        compared = check_against_registry(totals, metrics_file)
        phases, caches = check_top_once(feam, stream)
        check_follow_mode(feam, binary, bundle, tmp)
        check_trend_gate(feam, stream, binary, bundle, tmp)

        # Not-a-timeseries input -> diagnostic pointing at --timeseries-out.
        bogus = tmp / "bogus.jsonl"
        bogus.write_text('{"schema": "something.else/1"}\n')
        res = run([feam, "top", "--in", bogus, "--once"], ok_codes=(1,))
        if "--timeseries-out" not in res.stderr:
            sys.exit(f"FAIL: unhelpful non-timeseries diagnostic:\n"
                     f"{res.stderr}")

        print(f"OK: {len(samples)} samples at {meta['interval_ms']}ms from "
              f"{meta.get('source', '?')!r}; deltas telescope to final "
              f"totals, {compared} counters match the registry snapshot, "
              f"{len(gauges)} gauges well-formed (incl. RSS), "
              f"top --once saw {phases} phases + caches {caches} + a "
              f"memory panel, follow mode tailed a live writer to a "
              f"clean exit, and the baseline gate judged trend metrics")


if __name__ == "__main__":
    main()
