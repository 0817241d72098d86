#!/usr/bin/env python3
"""Validate state_strategy bench output (JSONL, one record per run).

Usage: check_state_schema.py FILE [FILE...]

Each non-comment line must be a state_strategy record: identifying fields,
sane counters, the per-strategy access/state blocks, and sync/divergence
blocks that are present exactly for replication. Beyond shape, the checker
enforces the structural invariants that hold regardless of host speed
(performance comparisons are evaluated when BENCH_state.json is recorded,
not here — CI runners are too noisy for cross-record pps gates):

  * the telemetry is strategy-exclusive: writing partition is the only
    strategy with remote reads, replication the only one with avoided
    remote reads;
  * replication must broadcast (frames_sent > 0 on any run that forwarded
    traffic), every broadcast frame must be applied by its destination
    replica (frames_applied == frames_sent at quiescence — frames are
    counted per destination on the send side, and the bench drains before
    reading), and the replica-divergence audit must come back CLEAN:
    mismatched == missing == extra == 0. A dirty audit fails CI —
    replication with divergent replicas is not replication;
  * apply_failures must be zero: a replica that cannot apply a sync op has
    lost state.

Exits non-zero on the first malformed file, failing the CI job. Lines whose
object carries a "comment" key are baseline annotations and only need that
key.
"""
import json
import sys

NUMBER = (int, float)
TOP_FIELDS = {
    "bench": str,
    "strategy": str,
    "workload": str,
    "cores": int,
    "flows": int,
    "elapsed_s": NUMBER,
    "injected": int,
    "forwarded": int,
    "pps": NUMBER,
    "rx_ring_drops": int,
    "conn": dict,
    "access": dict,
    "state": dict,
}
CONN_FIELDS = {"local": int, "transferred_out": int, "foreign_in": int}
ACCESS_FIELDS = {
    "reads_regular": int,
    "reads_conn": int,
    "writes_regular": int,
    "writes_conn": int,
}
STATE_FIELDS = {
    "remote_reads": int,
    "remote_reads_avoided": int,
}
SYNC_FIELDS = {
    "frames_sent": int,
    "bytes_sent": int,
    "ops_sent": int,
    "frames_applied": int,
    "ops_applied": int,
    "apply_failures": int,
    "alloc_stalls": int,
}
DIVERGENCE_FIELDS = {
    "entries_compared": int,
    "mismatched": int,
    "missing": int,
    "extra": int,
    "clean": bool,
}
STRATEGIES = ("writing_partition", "replication")
WORKLOADS = ("churn", "nat_write", "monitor_read")


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_block(rec, name, fields, where):
    block = rec.get(name)
    require(isinstance(block, dict),
            f"{where}: field {name!r} missing or not an object")
    for field, ftype in fields.items():
        require(isinstance(block.get(field), ftype),
                f"{where}: {name} field {field!r} missing or not {ftype}")
    return block


def check_record(rec, where):
    for field, ftype in TOP_FIELDS.items():
        require(isinstance(rec.get(field), ftype),
                f"{where}: field {field!r} missing or not {ftype}")
    require(rec["bench"] == "state_strategy",
            f"{where}: bench must be 'state_strategy'")
    strategy = rec["strategy"]
    require(strategy in STRATEGIES,
            f"{where}: strategy must be one of {STRATEGIES}")
    require(rec["workload"] in WORKLOADS,
            f"{where}: workload must be one of {WORKLOADS}")
    require(rec["cores"] >= 1, f"{where}: cores must be positive")
    require(rec["flows"] >= 1, f"{where}: flows must be positive")
    require(rec["elapsed_s"] > 0, f"{where}: elapsed_s must be positive")
    require(rec["pps"] >= 0, f"{where}: negative pps")

    check_block(rec, "conn", CONN_FIELDS, where)
    check_block(rec, "access", ACCESS_FIELDS, where)
    state = check_block(rec, "state", STATE_FIELDS, where)

    # Per-strategy telemetry is exclusive: a counter owned by another
    # strategy must be zero (a nonzero value means the inline dispatch in
    # FlowStateApi took a branch it must never take).
    if strategy != "writing_partition":
        require(state["remote_reads"] == 0,
                f"{where}: remote_reads on a {strategy} run")
    if strategy != "replication":
        require(state["remote_reads_avoided"] == 0,
                f"{where}: remote_reads_avoided on a {strategy} run")

    require("sync" in rec and "divergence" in rec,
            f"{where}: sync/divergence fields missing")
    if strategy != "replication":
        require(rec["sync"] is None,
                f"{where}: sync stats on a {strategy} run")
        require(rec["divergence"] is None,
                f"{where}: divergence audit on a {strategy} run")
        return
    sync = check_block(rec, "sync", SYNC_FIELDS, where)
    div = check_block(rec, "divergence", DIVERGENCE_FIELDS, where)
    if rec["forwarded"] > 0 and rec["cores"] > 1:
        require(sync["frames_sent"] > 0,
                f"{where}: replication forwarded traffic without "
                f"broadcasting a single sync frame")
    require(sync["frames_applied"] == sync["frames_sent"],
            f"{where}: sync frames lost in flight "
            f"(sent {sync['frames_sent']}, applied {sync['frames_applied']})")
    require(sync["apply_failures"] == 0,
            f"{where}: replica failed to apply {sync['apply_failures']} "
            f"sync ops")
    require(div["mismatched"] == 0 and div["missing"] == 0
            and div["extra"] == 0 and div["clean"],
            f"{where}: replica divergence detected "
            f"(mismatched={div['mismatched']} missing={div['missing']} "
            f"extra={div['extra']})")


def check_file(path):
    records = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "comment" in rec:
                continue
            check_record(rec, f"line {lineno}")
            records += 1
    require(records > 0, "no bench records found")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = 0
    for path in argv[1:]:
        try:
            check_file(path)
            print(f"{path}: OK")
        except (SchemaError, json.JSONDecodeError, OSError) as err:
            print(f"{path}: FAIL: {err}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv))
