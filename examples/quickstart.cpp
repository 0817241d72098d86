// Quickstart: write an NF against the Sprayer programming model (§3.4) and
// run it on the simulated testbed under both dispatch modes.
//
// The NF is a small connection counter: it installs per-flow state on SYN
// (connection_packets), reads it for every data packet (regular_packets),
// and tears it down on FIN/RST — the access pattern the whole framework is
// designed around. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/middlebox.hpp"
#include "nic/pktgen.hpp"

using namespace sprayer;

namespace {

/// A minimal stateful NF: counts packets per connection.
class ConnectionCounterNf final : public core::INetworkFunction {
 public:
  // Called once: size the per-core flow tables.
  void init(core::NfInitConfig& cfg, u32 /*num_cores*/) override {
    cfg.flow_table_capacity = 1u << 12;
    cfg.flow_entry_size = sizeof(Entry);
  }

  // SYN/FIN/RST packets, guaranteed to run on the flow's designated core:
  // the only place allowed to write flow state.
  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& /*verdicts*/) override {
    for (net::Packet* pkt : batch) {
      const net::FiveTuple key = pkt->five_tuple().canonical();
      net::TcpView tcp = pkt->tcp();
      if (tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck)) {
        auto* e = static_cast<Entry*>(ctx.flows().insert_local_flow(key));
        if (e != nullptr) e->opened_at = ctx.now();
        ++connections_;
      } else if (tcp.has(net::TcpFlags::kFin) ||
                 tcp.has(net::TcpFlags::kRst)) {
        (void)ctx.flows().remove_local_flow(key);
      }
    }
  }

  // Everything else, wherever it landed. Flow state is read-only here —
  // get_flow() fetches it from the designated core's table. (`meta` is the
  // chain's shared per-batch tuple/hash cache; this NF derives its own.)
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& /*meta*/,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override {
    for (u32 i = 0; i < batch.size(); ++i) {
      net::Packet* pkt = batch[i];
      if (!pkt->is_tcp()) continue;
      const auto* e = static_cast<const Entry*>(
          ctx.flows().get_flow(pkt->five_tuple().canonical()));
      if (e == nullptr) {
        verdicts.drop(i);  // unknown connection
        continue;
      }
      ++counted_;
    }
  }

  [[nodiscard]] const char* name() const noexcept override {
    return "conn-counter";
  }

  u64 connections_ = 0;
  u64 counted_ = 0;

 private:
  struct Entry {
    Time opened_at = 0;
    u64 pad = 0;
  };
};

void run(core::DispatchMode mode) {
  sim::Simulator sim;
  net::PacketPool pool(1u << 14, 256);
  ConnectionCounterNf nf;

  // The middlebox: 8 simulated 2 GHz cores behind a multi-queue NIC.
  core::SprayerConfig cfg;
  cfg.mode = mode;
  core::SimMiddlebox mbox(sim, cfg, nf);

  // Wire it between a traffic generator and a sink.
  nic::MeasureSink sink(sim);
  sim::LinkConfig in_cfg;
  in_cfg.egress_port_label = 0;
  sim::Link gen_link(sim, in_cfg, mbox.ingress(), "gen->mbox");
  sim::LinkConfig out_cfg;
  sim::Link out_link(sim, out_cfg, sink, "mbox->sink");
  sim::Link back_link(sim, out_cfg, sink, "mbox->back");
  mbox.attach_tx_link(1, out_link);
  mbox.attach_tx_link(0, back_link);

  nic::PktGenConfig gen_cfg;
  gen_cfg.rate_pps = 2e6;
  gen_cfg.num_flows = 32;
  nic::PacketGen gen(sim, pool, gen_link, gen_cfg);
  gen.start();

  sim.run_until(from_seconds(0.01));

  const auto report = mbox.report();
  std::printf("--- %s ---\n", to_string(mode));
  std::printf("connections seen: %llu, packets counted: %llu, "
              "forwarded: %llu\n",
              static_cast<unsigned long long>(nf.connections_),
              static_cast<unsigned long long>(nf.counted_),
              static_cast<unsigned long long>(sink.packets()));
  std::printf("cores used: ");
  for (const auto& cs : report.per_core) {
    std::printf("%llu ", static_cast<unsigned long long>(cs.rx_packets));
  }
  std::printf("(rx packets per core)\n");
  std::printf("connection packets transferred between cores: %llu\n\n",
              static_cast<unsigned long long>(
                  report.total.conn_transferred_out));
}

}  // namespace

int main() {
  std::printf("Sprayer quickstart: one NF, two dispatch modes\n\n");
  run(core::DispatchMode::kRss);    // per-flow (baseline)
  run(core::DispatchMode::kSpray);  // per-packet (Sprayer)
  std::printf("Note how RSS concentrates a few flows on a few cores while\n"
              "Sprayer spreads every flow over all cores, with connection\n"
              "packets redirected to their designated cores.\n");
  return 0;
}
