#!/usr/bin/env python3
"""Matrix smoke check for the telemetry aggregation layer.

Drives the full 14-workload x 5-site migration matrix through the feam
CLI with --run-record-out, then:
  * schema-validates every feam.run_record/1 document (site pair,
    determinant verdicts, span-tree invariants, non-negative durations),
  * cross-checks each record's readiness against the CLI's exit code,
  * runs `feam report` over the record directory with the checked-in
    baseline as a regression gate (must pass) and validates the readiness
    matrix, the bench record, and the HTML dashboard,
  * perturbs the baseline and confirms the gate then fails non-zero,
  * confirms `feam report` on an empty or missing records directory
    exits non-zero with a diagnostic naming the directory,
  * drives `feam fleet` at full scale (500 sites x 100 workloads, drift
    on) and checks the rendered matrix dimensions cell-for-cell against
    the feam.fleet_manifest/1 document, gates the fleet run's peak RSS
    (process.rss_peak_bytes from its --metrics-out), then time-bounds the
    `feam report` aggregation over the 50000-record stream so a quadratic
    regression in ingestion or rendering fails loudly instead of
    hanging CI,
  * schema-validates the feam.provenance/1 section of every record (the
    matrix records and all 50000 fleet records): cardinality and detail
    bounds, stamp format, sorted deduplicated evidence — and bounds each
    serialized fleet record's size so evidence bloat fails loudly.

Usage: check_report.py /path/to/feam [--write-baseline FILE]
                                     [--keep-bench FILE]

With --write-baseline, the measured metrics are written as a fresh
feam.report_baseline/1 document (exact pins for deterministic counts,
generous ceilings for wall-clock latencies) and the gate steps are
skipped — used to regenerate bench/report_baseline.json. With
--keep-bench, the gate run's feam.bench/1 record is copied to FILE —
used to refresh the checked-in BENCH_2.json. --keep-html FILE likewise
keeps the generated dashboard (CI uploads both as artifacts).
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "bench" / "report_baseline.json"

SOURCE_SITE = "india"
SOURCE_STACK = "openmpi/1.4-gnu"
TARGET_SITES = ["ranger", "forge", "blacklight", "india", "fir"]

# The paper's test set: NPB class B plus SPEC MPI2007 (Table II).
WORKLOADS = [
    ("is.B", "c"),
    ("ep.B", "fortran"),
    ("cg.B", "fortran"),
    ("mg.B", "fortran"),
    ("bt.B", "fortran"),
    ("sp.B", "fortran"),
    ("lu.B", "fortran"),
    ("104.milc", "c"),
    ("107.leslie3d", "fortran"),
    ("115.fds4", "fortran"),
    ("122.tachyon", "c"),
    ("126.lammps", "c++"),
    ("127.GAPgeofem", "fortran"),
    ("129.tera_tf", "fortran"),
]

DETERMINANT_KEYS = ["isa", "c_library", "mpi_stack", "shared_libraries"]

# Provenance bounds mirrored from obs::EvidenceSet (provenance.hpp).
PROV_MAX_ITEMS = 128
PROV_MAX_DETAIL = 160
# Serialized ceiling for one fleet record, evidence included. Records
# measure ~5 KiB with ~17 evidence items; 128 items at ~200 bytes each
# stays far below this, so a breach means runaway evidence, not noise.
MAX_RECORD_BYTES = 64 * 1024


def validate_provenance(path, record):
    """Schema-validates one record's feam.provenance/1 section."""
    def need(cond, why):
        if not cond:
            sys.exit(f"FAIL: {path}: provenance: {why}")

    prov = record.get("provenance")
    need(isinstance(prov, dict), "section missing or not an object")
    need(prov.get("schema") == "feam.provenance/1",
         f"bad schema {prov.get('schema')!r}")
    need(prov.get("dropped", -1) >= 0, "dropped missing or negative")
    evidence = prov.get("evidence")
    need(isinstance(evidence, list) and evidence, "no evidence items")
    need(len(evidence) <= PROV_MAX_ITEMS,
         f"{len(evidence)} items exceed the {PROV_MAX_ITEMS} bound")
    keys = []
    for item in evidence:
        need(item.get("stage"), "item with empty stage")
        need(item.get("kind"), "item with empty kind")
        stamp = item.get("stamp", "")
        need(len(stamp) == 16 and all(c in "0123456789abcdef"
                                      for c in stamp),
             f"stamp {stamp!r} is not 16 lowercase hex digits")
        need(len(item.get("detail", "").encode()) <= PROV_MAX_DETAIL,
             f"detail for {item.get('subject')!r} exceeds "
             f"{PROV_MAX_DETAIL} bytes")
        keys.append((item.get("stage"), item.get("kind"),
                     item.get("site", ""), item.get("subject", ""),
                     item.get("detail", ""), stamp))
    need(keys == sorted(keys), "evidence is not in sorted order")
    need(len(set(keys)) == len(keys), "duplicate evidence items")


def run(cmd, ok_codes=(0,), timeout=120):
    result = subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True,
        timeout=timeout)
    if result.returncode not in ok_codes:
        sys.stdout.write(result.stdout)
        sys.stderr.write(result.stderr)
        sys.exit(f"FAIL: {' '.join(str(c) for c in cmd)} -> "
                 f"{result.returncode} (wanted {ok_codes})")
    return result


def validate_record(path, record, binary, site):
    def need(cond, why):
        if not cond:
            sys.exit(f"FAIL: {path}: {why}")

    need(record.get("schema") == "feam.run_record/1",
         f"bad schema {record.get('schema')!r}")
    need(record.get("command") == "target", "command is not 'target'")
    need(record.get("binary") == binary,
         f"binary {record.get('binary')!r} != {binary!r}")
    need(record.get("source_site") == SOURCE_SITE,
         f"source_site {record.get('source_site')!r} != {SOURCE_SITE!r}")
    need(record.get("target_site") == site,
         f"target_site {record.get('target_site')!r} != {site!r}")
    need(record.get("mode") == "extended", "mode is not 'extended'")
    need(record.get("has_prediction") is True, "has_prediction is not true")
    need(record.get("bundle_bytes", 0) > 0, "bundle_bytes is 0")

    dets = record.get("determinants", [])
    need([d.get("key") for d in dets] == DETERMINANT_KEYS,
         f"determinant keys {[d.get('key') for d in dets]}")
    ready = record["ready"]
    if ready:
        need(all(d["compatible"] for d in dets if d["evaluated"]),
             "ready but an evaluated determinant is incompatible")
    else:
        need(any(d["evaluated"] and not d["compatible"] for d in dets),
             "not ready but no evaluated determinant is incompatible")

    spans = record.get("spans", [])
    need(spans, "no spans")
    by_id = {}
    for span in spans:
        need(span.get("id", 0) > 0, f"span {span.get('name')!r} id 0")
        need(span.get("dur_ns", -1) >= 0 and span.get("start_ns", -1) >= 0,
             f"span {span.get('name')!r} has negative times")
        by_id[span["id"]] = span
    child_sum = {}
    for span in spans:
        parent = span.get("parent_id", 0)
        if parent:
            need(parent in by_id,
                 f"span {span['name']!r} has unknown parent {parent}")
            child_sum[parent] = child_sum.get(parent, 0) + span["dur_ns"]
    for parent_id, total in child_sum.items():
        need(by_id[parent_id]["dur_ns"] >= total,
             f"span {by_id[parent_id]['name']!r} shorter than its children")
    phase = [s for s in spans if s["name"] == "feam.target_phase"]
    need(len(phase) == 1, "expected exactly one feam.target_phase span")

    need(isinstance(record.get("counters"), dict) and record["counters"],
         "no counters")
    need(isinstance(record.get("histograms"), dict) and record["histograms"],
         "no histograms")
    validate_provenance(path, record)
    return ready


def parse_matrix(report_stdout):
    """Reads the ASCII readiness matrix into {(binary, site): cell}."""
    lines = [l for l in report_stdout.splitlines() if l.startswith("|")]
    if not lines:
        sys.exit("FAIL: no readiness matrix table in report output")
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    sites = header[1:]
    cells = {}
    for line in lines[1:]:
        row = [c.strip() for c in line.strip("|").split("|")]
        if len(row) != len(header):
            continue
        for site, cell in zip(sites, row[1:]):
            cells[(row[0], site)] = cell
    return cells


def write_baseline(metrics, out_path):
    """Exact pins for deterministic counts; ceilings for wall-clock."""
    spec = {}
    for name, value in sorted(metrics.items()):
        if ".mean" in name or name.endswith(
                (".p50", ".p90", ".p99", ".max")):
            spec[name] = {"max": 5_000_000_000}  # 5s ceiling per phase stat
        else:
            spec[name] = {"value": value, "rel_tol": 0}
    doc = {"schema": "feam.report_baseline/1", "metrics": spec}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"baseline written to {out_path} ({len(spec)} metrics)")


FLEET_SITES = 500
FLEET_WORKLOADS = 100
# Wall-clock ceiling for aggregating the 50000-record fleet stream.
# Measured ~1s on a single-core container; a quadratic regression in
# ingestion or matrix rendering blows well past this.
FLEET_REPORT_BUDGET_S = 60
# Peak RSS ceiling for the fleet run itself (process.rss_peak_bytes from
# its --metrics-out). Measured 1.6 GiB at --jobs 4; the ceiling keeps room
# for four concurrent test processes on a 16 GB machine, so a memory
# regression fails here instead of as an OOM kill.
FLEET_RSS_CEILING_BYTES = 2560 * 1024 * 1024


def check_fleet(feam, tmp):
    """Full-scale fleet: matrix dims must match the manifest exactly."""
    import time

    fleet_dir = tmp / "fleet_records"
    fleet_dir.mkdir()
    manifest_path = tmp / "fleet_manifest.json"
    matrix_path = tmp / "fleet_matrix.txt"
    metrics_path = tmp / "fleet_metrics.json"
    run([feam, "fleet", "--sites", FLEET_SITES,
         "--workloads", FLEET_WORKLOADS, "--drift", "0.25", "--seed", "42",
         "--jobs", "4", "--manifest-out", manifest_path,
         "--matrix-out", matrix_path,
         "--records-out", fleet_dir / "records.jsonl",
         "--metrics-out", metrics_path], timeout=420)

    gauges = json.loads(metrics_path.read_text()).get("gauges", {})
    rss_peak = gauges.get("process.rss_peak_bytes", {}).get("value", 0)
    if rss_peak <= 0:
        sys.exit("FAIL: fleet metrics carry no process.rss_peak_bytes")
    if rss_peak > FLEET_RSS_CEILING_BYTES:
        sys.exit(f"FAIL: fleet peak RSS {rss_peak / 2**20:.0f} MiB exceeds "
                 f"the {FLEET_RSS_CEILING_BYTES / 2**20:.0f} MiB ceiling")
    print(f"fleet peak RSS {rss_peak / 2**20:.0f} MiB (ceiling "
          f"{FLEET_RSS_CEILING_BYTES / 2**20:.0f} MiB)")

    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema") != "feam.fleet_manifest/1":
        sys.exit(f"FAIL: fleet manifest schema {manifest.get('schema')!r}")
    if manifest.get("site_count") != FLEET_SITES or \
            len(manifest.get("sites", [])) != FLEET_SITES:
        sys.exit(f"FAIL: manifest sites {manifest.get('site_count')} / "
                 f"{len(manifest.get('sites', []))} != {FLEET_SITES}")
    if manifest.get("workload_count") != FLEET_WORKLOADS or \
            len(manifest.get("workloads", [])) != FLEET_WORKLOADS:
        sys.exit("FAIL: manifest workload count mismatch")

    # The rendered matrix must have exactly one column per manifest site
    # and one row per manifest workload — no dropped, duplicated, or
    # phantom axes at scale.
    cells = parse_matrix(matrix_path.read_text())
    matrix_sites = {site for _, site in cells}
    matrix_rows = {binary for binary, _ in cells}
    manifest_sites = {s["name"] for s in manifest["sites"]}
    manifest_rows = {w["name"] for w in manifest["workloads"]}
    if matrix_sites != manifest_sites:
        sys.exit(f"FAIL: matrix has {len(matrix_sites)} site columns, "
                 f"manifest has {len(manifest_sites)}; symmetric diff "
                 f"{sorted(matrix_sites ^ manifest_sites)[:5]}")
    if matrix_rows != manifest_rows:
        sys.exit(f"FAIL: matrix has {len(matrix_rows)} workload rows, "
                 f"manifest has {len(manifest_rows)}; symmetric diff "
                 f"{sorted(matrix_rows ^ manifest_rows)[:5]}")
    if len(cells) != FLEET_SITES * FLEET_WORKLOADS:
        sys.exit(f"FAIL: matrix has {len(cells)} cells, expected "
                 f"{FLEET_SITES * FLEET_WORKLOADS}")

    # Every fleet record carries schema-valid, bounded provenance.
    checked = 0
    with open(fleet_dir / "records.jsonl") as stream:
        for n, line in enumerate(stream, 1):
            if not line.strip():
                continue
            if len(line) > MAX_RECORD_BYTES:
                sys.exit(f"FAIL: fleet record on line {n} is {len(line)} "
                         f"bytes (bound {MAX_RECORD_BYTES})")
            validate_provenance(f"records.jsonl:{n}", json.loads(line))
            checked += 1
    if checked != FLEET_SITES * FLEET_WORKLOADS:
        sys.exit(f"FAIL: provenance-checked {checked} fleet records, "
                 f"expected {FLEET_SITES * FLEET_WORKLOADS}")
    print(f"fleet provenance: {checked} records schema-valid, each under "
          f"{MAX_RECORD_BYTES} bytes")

    # Aggregating the record stream must stay linear: bound both the
    # subprocess (hard kill) and the measured wall time (soft budget).
    started = time.monotonic()
    report = run([feam, "report", "--in", fleet_dir],
                 timeout=2 * FLEET_REPORT_BUDGET_S)
    elapsed = time.monotonic() - started
    expect = (f"{FLEET_SITES * FLEET_WORKLOADS} records, "
              f"{FLEET_SITES * FLEET_WORKLOADS} predictions")
    if expect not in report.stdout:
        sys.exit(f"FAIL: fleet report summary missing {expect!r}")
    if elapsed > FLEET_REPORT_BUDGET_S:
        sys.exit(f"FAIL: fleet report took {elapsed:.1f}s "
                 f"(budget {FLEET_REPORT_BUDGET_S}s)")
    report_cells = parse_matrix(report.stdout)
    if len(report_cells) != len(cells):
        sys.exit(f"FAIL: report re-renders {len(report_cells)} cells, "
                 f"fleet wrote {len(cells)}")
    print(f"fleet checked: {FLEET_SITES}x{FLEET_WORKLOADS} matrix matches "
          f"its manifest, report aggregated 50000 records in {elapsed:.1f}s")


def main():
    args = sys.argv[1:]
    baseline_out = None
    bench_keep = None
    if "--write-baseline" in args:
        i = args.index("--write-baseline")
        baseline_out = Path(args[i + 1])
        del args[i:i + 2]
    if "--keep-bench" in args:
        i = args.index("--keep-bench")
        bench_keep = Path(args[i + 1])
        del args[i:i + 2]
    html_keep = None
    if "--keep-html" in args:
        i = args.index("--keep-html")
        html_keep = Path(args[i + 1])
        del args[i:i + 2]
    if len(args) != 1:
        sys.exit(f"usage: {sys.argv[0]} /path/to/feam "
                 "[--write-baseline FILE]")
    feam = Path(args[0])
    if not feam.exists():
        sys.exit(f"FAIL: no such binary: {feam}")

    with tempfile.TemporaryDirectory(prefix="feam_report_") as tmp:
        tmp = Path(tmp)
        records_dir = tmp / "records"
        records_dir.mkdir()
        expected_ready = {}  # (binary, site) -> bool, from CLI exit codes

        for program, language in WORKLOADS:
            binary = tmp / program
            bundle = tmp / f"{program}.feambundle"
            run([feam, "compile", "--site", SOURCE_SITE, "--stack",
                 SOURCE_STACK, "--program", program, "--language", language,
                 "-o", binary])
            run([feam, "source", "--site", SOURCE_SITE, "--stack",
                 SOURCE_STACK, "--binary", binary, "-o", bundle])
            for site in TARGET_SITES:
                record_path = records_dir / f"{program}_{site}.json"
                cmd = [feam, "target", "--site", site, "--binary", binary,
                       "--bundle", bundle, "--run-record-out", record_path]
                if program == "cg.B" and site == "fir":
                    cmd += ["--events-out", records_dir / "cg_fir.jsonl"]
                result = run(cmd, ok_codes=(0, 2))
                record = json.loads(record_path.read_text())
                ready = validate_record(record_path, record, program, site)
                if ready != (result.returncode == 0):
                    sys.exit(f"FAIL: {record_path}: record says ready="
                             f"{ready} but exit code {result.returncode}")
                blocking = next(
                    (d["key"] for d in record["determinants"]
                     if d["evaluated"] and not d["compatible"]), None)
                expected_ready[(program, site)] = (ready, blocking)

        n_ready = sum(ready for ready, _ in expected_ready.values())
        n_total = len(expected_ready)
        print(f"matrix driven: {n_total} migrations, {n_ready} READY")
        if n_total != len(WORKLOADS) * len(TARGET_SITES):
            sys.exit("FAIL: incomplete matrix")

        # Aggregate without the gate first; the readiness matrix must agree
        # with the per-run verdicts.
        dashboard = tmp / "dash.html"
        bench_file = tmp / "BENCH_2.json"
        report = run([feam, "report", "--in", records_dir,
                      "--html", dashboard])
        out = report.stdout
        need_line = f"{n_total} records, {n_total} predictions: " \
                    f"{n_ready} READY, {n_total - n_ready} not ready"
        if need_line not in out:
            sys.exit(f"FAIL: report summary missing {need_line!r}:\n{out}")

        # The rendered readiness matrix must agree, cell by cell, with the
        # per-record TEC verdicts.
        matrix = parse_matrix(out)
        for (program, site), (ready, blocking) in expected_ready.items():
            cell = matrix.get((program, site))
            if cell is None:
                sys.exit(f"FAIL: matrix has no cell for {program} @ {site}")
            if ready and not cell.startswith("READY"):
                sys.exit(f"FAIL: {program} @ {site} is READY but matrix "
                         f"shows {cell!r}")
            if not ready and cell != blocking:
                sys.exit(f"FAIL: {program} @ {site} blocked by {blocking} "
                         f"but matrix shows {cell!r}")

        if "Event logs:" not in out:
            sys.exit("FAIL: report did not ingest the JSONL event log")

        html = dashboard.read_text()
        for marker in ["<!DOCTYPE html>", "FEAM readiness report", "cg.B"]:
            if marker not in html:
                sys.exit(f"FAIL: dashboard missing {marker!r}")
        for forbidden in ["http://", "https://", "src=", "@import"]:
            if forbidden in html:
                sys.exit(f"FAIL: dashboard is not self-contained: "
                         f"found {forbidden!r}")
        if html_keep is not None:
            html_keep.write_text(html)
            print(f"dashboard copied to {html_keep}")

        if baseline_out is not None:
            # Regenerate the baseline from this run's flat metrics (via a
            # bench record), then stop before the gate steps.
            run([feam, "report", "--in", records_dir,
                 "--bench-out", bench_file])
            metrics = json.loads(bench_file.read_text())["metrics"]
            write_baseline(metrics, baseline_out)
            return

        if not BASELINE.exists():
            sys.exit(f"FAIL: no baseline at {BASELINE}; regenerate with "
                     f"--write-baseline")

        # Gate against the checked-in baseline: must pass.
        gated = run([feam, "report", "--in", records_dir,
                     "--baseline", BASELINE, "--gate",
                     "--bench-out", bench_file, "--pr", "2"])
        if "GATE PASS" not in gated.stdout:
            sys.exit(f"FAIL: expected GATE PASS:\n{gated.stdout}")

        bench = json.loads(bench_file.read_text())
        if bench.get("schema") != "feam.bench/1":
            sys.exit(f"FAIL: bench schema {bench.get('schema')!r}")
        if bench.get("pr") != 2 or bench["gate"]["pass"] is not True:
            sys.exit(f"FAIL: bench gate block wrong: {bench.get('gate')}")
        if bench["metrics"].get("matrix.ready") != n_ready:
            sys.exit(f"FAIL: bench matrix.ready "
                     f"{bench['metrics'].get('matrix.ready')} != {n_ready}")
        if bench["metrics"].get("matrix.records") != n_total:
            sys.exit("FAIL: bench matrix.records mismatch")
        if bench_keep is not None:
            bench_keep.write_text(bench_file.read_text())
            print(f"bench record copied to {bench_keep}")

        # Perturb one phase-latency metric to an impossible ceiling: the
        # gate must now fail with a non-zero exit.
        perturbed = json.loads(BASELINE.read_text())
        perturbed["metrics"]["hist.phase.target_ns.p99"] = {"max": 1}
        perturbed_path = tmp / "perturbed_baseline.json"
        perturbed_path.write_text(json.dumps(perturbed))
        failed = run([feam, "report", "--in", records_dir,
                      "--baseline", perturbed_path, "--gate"],
                     ok_codes=(2,))
        if "GATE FAIL" not in failed.stdout:
            sys.exit(f"FAIL: expected GATE FAIL:\n{failed.stdout}")

        # An empty records directory is an error, not a vacuous success:
        # the diagnostic must name the directory and the --run-record-out
        # remedy. A missing directory likewise fails up front.
        empty_dir = tmp / "no_records_here"
        empty_dir.mkdir()
        res = run([feam, "report", "--in", empty_dir], ok_codes=(1,))
        if "no feam.run_record/1 records" not in res.stderr or \
                str(empty_dir) not in res.stderr or \
                "--run-record-out" not in res.stderr:
            sys.exit(f"FAIL: empty-dir diagnostic unhelpful:\n{res.stderr}")
        missing_dir = tmp / "never_created"
        res = run([feam, "report", "--in", missing_dir], ok_codes=(1,))
        if str(missing_dir) not in res.stderr or \
                "not a readable records directory" not in res.stderr:
            sys.exit(f"FAIL: missing-dir diagnostic unhelpful:\n{res.stderr}")

        check_fleet(feam, tmp)

        print(f"OK: {n_total} records validated, gate passes on the real "
              f"baseline, fails (exit 2) on the perturbed one, empty/"
              f"missing record dirs fail with clear diagnostics, and the "
              f"full-scale fleet matrix agrees with its manifest")


if __name__ == "__main__":
    main()
