#!/usr/bin/env python3
"""Validate chain_throughput bench output (JSONL, one record per config).

Usage: check_chain_schema.py FILE [FILE...]

Each non-comment line must be a chain_throughput record: the identifying
fields, sane counters (forwarded + nf_drops <= injected is NOT required —
the threaded driver counts accepted injects, the inline driver exact
batches — but forwarded must never exceed injected), and a per_hop array
whose length matches `hops` whenever telemetry was on (non-empty). Exits
non-zero on the first malformed file, failing the CI job.

Lines whose object carries a "comment" key are baseline annotations and
only need that key.
"""
import json
import sys

NUMBER = (int, float)
TOP_FIELDS = {
    "bench": str,
    "driver": str,
    "hops": int,
    "cores": int,
    "rx_batch": int,
    "flows": int,
    "hop_timing": int,
    "elapsed_s": NUMBER,
    "injected": int,
    "forwarded": int,
    "pps": NUMBER,
    "nf_drops": int,
    "per_hop": list,
}
# ns_per_packet is NUMBER-or-null: hop_timing=0 runs never measure it and
# must say null (a numeric value there would be a fabricated measurement).
HOP_FIELDS = {
    "hop": int,
    "nf": str,
    "packets": int,
    "drops": int,
}


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_record(rec, where):
    for field, ftype in TOP_FIELDS.items():
        require(isinstance(rec.get(field), ftype),
                f"{where}: field {field!r} missing or not {ftype}")
    require(rec["bench"] == "chain_throughput",
            f"{where}: bench must be 'chain_throughput'")
    require(rec["driver"] in ("inline", "threaded"),
            f"{where}: driver must be inline|threaded")
    require(1 <= rec["hops"] <= 4, f"{where}: hops out of [1, 4]")
    require(rec["elapsed_s"] > 0, f"{where}: elapsed_s must be positive")
    require(rec["forwarded"] <= rec["injected"],
            f"{where}: forwarded exceeds injected")
    require(rec["pps"] >= 0, f"{where}: negative pps")

    per_hop = rec["per_hop"]
    if per_hop:
        require(len(per_hop) == rec["hops"],
                f"{where}: per_hop has {len(per_hop)} entries, hops is "
                f"{rec['hops']}")
    for i, hop in enumerate(per_hop):
        hwhere = f"{where} per_hop[{i}]"
        require(isinstance(hop, dict), f"{hwhere}: must be an object")
        for field, ftype in HOP_FIELDS.items():
            require(isinstance(hop.get(field), ftype),
                    f"{hwhere}: field {field!r} missing or not {ftype}")
        require(hop["hop"] == i, f"{hwhere}: hop index mismatch")
        require(hop["drops"] <= hop["packets"],
                f"{hwhere}: drops exceed packets")
        require("ns_per_packet" in hop,
                f"{hwhere}: field 'ns_per_packet' missing")
        nspp = hop["ns_per_packet"]
        if rec["hop_timing"] == 0:
            require(nspp is None,
                    f"{hwhere}: ns_per_packet must be null when hop timing "
                    f"is off (got {nspp!r})")
        else:
            require(nspp is None or isinstance(nspp, NUMBER),
                    f"{hwhere}: ns_per_packet must be a number or null")
            if nspp is not None:
                require(nspp >= 0, f"{hwhere}: negative ns_per_packet")


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
