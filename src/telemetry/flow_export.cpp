#include "telemetry/flow_export.hpp"

#include <ostream>

#include "telemetry/json_exporter.hpp"

namespace sprayer::telemetry {

LiveExporter::LiveExporter(const FlowExportConfig& cfg,
                           const MetricsRegistry& registry)
    : cfg_(cfg), registry_(registry), collector_(registry) {
  SPRAYER_CHECK_MSG(cfg_.harvest_interval > 0,
                    "flow export needs a non-zero harvest interval");
  SPRAYER_CHECK_MSG(cfg_.export_interval > 0 && cfg_.idle_timeout > 0,
                    "flow export intervals must be non-zero");
  SPRAYER_CHECK_MSG(cfg_.max_records_per_tick > 0,
                    "flow export needs a non-zero per-tick record budget");
}

LiveExporter::~LiveExporter() = default;

void LiveExporter::add_recorder(const FlowRecorder* recorder) {
  SPRAYER_CHECK(recorder != nullptr);
  recorders_.push_back(recorder);
  mirrors_.emplace_back(recorder->slots());
}

void LiveExporter::register_metrics(MetricsRegistry& registry) {
  registry.gauge_fn("flow_export.records",
                    [this] { return stats_.records.load(); });
  registry.gauge_fn("flow_export.flows_live",
                    [this] { return live_flows_.load(); });
  registry.gauge_fn("flow_export.deferred",
                    [this] { return stats_.deferred.load(); });
  registry.gauge_fn("flow_export.snapshots",
                    [this] { return stats_.snapshots.load(); });
  registry.gauge_fn("flow_export.untracked",
                    [this] { return recorder_untracked(); });
  registry.gauge_fn("flow_export.evictions",
                    [this] { return recorder_evictions(); });
}

u64 LiveExporter::recorder_packets() const noexcept {
  u64 n = 0;
  for (const FlowRecorder* r : recorders_) n += r->packets();
  return n;
}

u64 LiveExporter::recorder_untracked() const noexcept {
  u64 n = 0;
  for (const FlowRecorder* r : recorders_) n += r->untracked();
  return n;
}

u64 LiveExporter::recorder_evictions() const noexcept {
  u64 n = 0;
  for (const FlowRecorder* r : recorders_) n += r->evictions();
  return n;
}

void LiveExporter::harvest() {
  for (std::size_t c = 0; c < recorders_.size(); ++c) {
    const FlowRecorder& rec = *recorders_[c];
    auto& mirror = mirrors_[c];
    for (u32 i = 0; i < rec.slots(); ++i) {
      const FlowRecorder::SlotView v = rec.read(i);
      if (v.key == 0) continue;  // empty or mid-steal: next harvest
      MirrorSlot& m = mirror[i];
      if (m.key != v.key) m = MirrorSlot{v.key, 0, 0};
      const u64 dp = v.packets - m.packets;
      const u64 db = v.bytes - m.bytes;
      if (dp == 0 && db == 0) continue;
      m.packets = v.packets;
      m.bytes = v.bytes;
      auto [it, inserted] = flows_.try_emplace(v.hash());
      FlowAgg& f = it->second;
      if (inserted) ++stats_.flows_seen;
      f.packets += dp;
      f.bytes += db;
      f.tcp_flags |= v.tcp_flags;
      if (v.first != 0 && (f.first == 0 || v.first < f.first)) {
        f.first = v.first;
      }
      if (v.last > f.last) f.last = v.last;
      f.core_mask |= u64{1} << c;
    }
  }
  live_flows_ = flows_.size();
}

void LiveExporter::emit_record(u32 hash, FlowAgg& f, const char* reason,
                               Time now) {
  ++stats_.records;
  if (sink_ != nullptr) {
    FlowInfo info;
    if (flow_info_ != nullptr) info = flow_info_(hash);
    std::ostream& os = *sink_;
    os << "{\"schema\":\"sprayer.flowexport.v1\",\"type\":\"flow\""
       << ",\"ts_ps\":" << now << ",\"flow\":" << hash << ",\"reason\":\""
       << reason << '"' << ",\"packets\":" << f.packets
       << ",\"bytes\":" << f.bytes
       << ",\"delta_packets\":" << (f.packets - f.emitted_packets)
       << ",\"delta_bytes\":" << (f.bytes - f.emitted_bytes)
       << ",\"first_ps\":" << f.first << ",\"last_ps\":" << f.last
       << ",\"tcp_flags\":" << static_cast<unsigned>(f.tcp_flags)
       << ",\"placement\":\"" << info.placement << '"' << ",\"cores\":[";
    bool first_core = true;
    for (u32 c = 0; c < 64; ++c) {
      if (((f.core_mask >> c) & 1) == 0) continue;
      if (!first_core) os << ',';
      first_core = false;
      os << c;
    }
    os << "],\"ooo_sampled\":" << (info.ooo_sampled ? "true" : "false")
       << ",\"ooo_max\":";
    if (info.ooo_sampled) {
      os << info.ooo_max;
    } else {
      os << "null";
    }
    os << "}\n";
  }
  f.emitted_packets = f.packets;
  f.emitted_bytes = f.bytes;
  f.last_emit = now;
}

void LiveExporter::sweep(Time now, u32 budget, bool final_pass) {
  for (auto it = flows_.begin(); it != flows_.end();) {
    FlowAgg& f = it->second;
    if (final_pass) {
      emit_record(it->first, f, "final", now);
      ++stats_.final_records;
      it = flows_.erase(it);
      continue;
    }
    if (now - f.last >= cfg_.idle_timeout) {
      if (budget == 0) {
        ++stats_.deferred;
        ++it;
        continue;
      }
      --budget;
      emit_record(it->first, f, "idle", now);
      ++stats_.idle_records;
      it = flows_.erase(it);
      continue;
    }
    // Periodic re-emission while the flow grows: measured from first sight
    // for the initial record, from the previous record afterwards.
    const Time basis = f.last_emit == 0 ? f.first : f.last_emit;
    if (f.packets > f.emitted_packets && now - basis >= cfg_.export_interval) {
      if (budget == 0) {
        ++stats_.deferred;
        ++it;
        continue;
      }
      --budget;
      emit_record(it->first, f, "interval", now);
      ++stats_.interval_records;
    }
    ++it;
  }
  live_flows_ = flows_.size();
}

void LiveExporter::emit_snapshot(Time now, bool final_pass) {
  TelemetrySnapshot snap = collector_.collect();
  // Counters are monotonic per cell; two snapshots from one collector must
  // never show a counter total going backwards.
  if (have_prev_snapshot_) {
    JsonExporter::check_counters_monotonic(prev_snapshot_, snap);
  }
  ++stats_.snapshots;
  if (!snap.consistent) ++stats_.inconsistent_snapshots;
  if (sink_ != nullptr) {
    std::ostream& os = *sink_;
    os << "{\"schema\":\"sprayer.flowexport.v1\",\"type\":\"snapshot\""
       << ",\"ts_ps\":" << now << ",\"epoch\":" << snap.epoch
       << ",\"final\":" << (final_pass ? "true" : "false")
       << ",\"consistent\":" << (snap.consistent ? "true" : "false")
       << ",\"inconsistent_shards\":" << snap.inconsistent_shards
       << ",\"counters\":{";
    bool first = true;
    for (const auto& s : snap.scalars) {
      if (s.kind != MetricKind::kCounter) continue;
      if (!first) os << ',';
      first = false;
      write_json_string(os, s.name);
      os << ':' << s.total;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& s : snap.scalars) {
      if (s.kind == MetricKind::kCounter) continue;
      if (!first) os << ',';
      first = false;
      write_json_string(os, s.name);
      os << ':' << s.total;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& h : snap.histograms) {
      if (!first) os << ',';
      first = false;
      write_json_string(os, h.name);
      os << ":{\"count\":" << h.merged.count()
         << ",\"p50\":" << h.merged.p50() << ",\"p90\":" << h.merged.p90()
         << ",\"p99\":" << h.merged.p99() << ",\"max\":" << h.merged.max()
         << '}';
    }
    os << "}}\n";
  }
  prev_snapshot_ = std::move(snap);
  have_prev_snapshot_ = true;
}

void LiveExporter::tick(Time now) {
  last_tick_ = now;
  ++stats_.harvests;
  harvest();
  sweep(now, cfg_.max_records_per_tick, /*final_pass=*/false);
  if (cfg_.snapshot_interval > 0 &&
      now - last_snapshot_ >= cfg_.snapshot_interval) {
    last_snapshot_ = now;
    emit_snapshot(now, /*final_pass=*/false);
  }
  // Flush per tick so a FIFO/tail -f consumer sees lines live, not at exit.
  if (sink_ != nullptr) sink_->flush();
}

void LiveExporter::flush_final(Time now) {
  harvest();
  sweep(now, /*budget=*/0, /*final_pass=*/true);
  if (cfg_.snapshot_interval > 0) emit_snapshot(now, /*final_pass=*/true);
  if (sink_ != nullptr) sink_->flush();
}

}  // namespace sprayer::telemetry
