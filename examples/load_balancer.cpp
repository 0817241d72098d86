// L4 load balancer example: connections to a virtual IP are pinned to
// backends at SYN time (flow-server map on the designated core) and
// forwarded DSR-style; per-backend connection counts are global state kept
// with loose consistency (per-core counters, aggregated on demand) — the
// pattern the paper recommends for global statistics (§3.4).
//
//   ./build/examples/load_balancer [flows=24] [backends=3]   (backends 1..246)
#include <cstdio>

#include "common/config.hpp"
#include "nf/load_balancer.hpp"
#include "nic/pktgen.hpp"
#include "tcp/iperf.hpp"

using namespace sprayer;

int main(int argc, char** argv) {
  const CliConfig cli(argc, argv);
  const u32 flows = static_cast<u32>(cli.get_u64("flows", 24));
  // Backend b is 10.1.0.(10 + b): the last octet bounds the count.
  constexpr u32 kFirstOctet = 10;
  constexpr u32 kMaxBackends = 255 - kFirstOctet + 1;
  const u64 backends_arg = cli.get_u64("backends", 3);
  if (backends_arg < 1 || backends_arg > kMaxBackends) {
    std::fprintf(stderr, "usage: load_balancer [flows=N] [backends=1..%u]\n",
                 kMaxBackends);
    return 2;
  }
  const auto backends = static_cast<u32>(backends_arg);

  nf::LbConfig lb_cfg;
  lb_cfg.vip = net::Ipv4Addr{198, 51, 100, 1};
  lb_cfg.vport = 443;
  for (u32 b = 0; b < backends; ++b) {
    const auto octet = static_cast<u8>(kFirstOctet + b);
    lb_cfg.backends.push_back(
        {net::MacAddr::from_id(0x100 + b), net::Ipv4Addr{10, 1, 0, octet}});
  }
  nf::LoadBalancerNf lb(lb_cfg);

  // All connections target the VIP.
  auto tuples = nic::random_tcp_flows(flows, 9);
  for (auto& t : tuples) {
    t.dst_ip = lb_cfg.vip;
    t.dst_port = lb_cfg.vport;
  }

  tcp::IperfScenario sc;
  sc.num_flows = flows;
  sc.tuples = tuples;
  sc.warmup = from_seconds(0.05);
  sc.duration = from_seconds(0.15);
  sc.mbox.mode = core::DispatchMode::kSpray;
  sc.seed = 9;

  std::printf("Load balancer: VIP %s:%u, %u backends, %u connections "
              "(sprayed)\n\n",
              lb_cfg.vip.to_string().c_str(), lb_cfg.vport, backends, flows);

  const auto result = run_iperf(lb, sc);

  const auto active = lb.active_connections();
  std::printf("%-10s %-18s %s\n", "backend", "ip", "active connections");
  for (u32 b = 0; b < backends; ++b) {
    std::printf("%-10u %-18s %lld\n", b,
                lb_cfg.backends[b].ip.to_string().c_str(),
                static_cast<long long>(active[b]));
  }

  std::printf("\nassigned: %llu, dropped (no state): %llu, "
              "dropped (not VIP): %llu\n",
              static_cast<unsigned long long>(lb.counters().assigned),
              static_cast<unsigned long long>(
                  lb.counters().dropped_no_state),
              static_cast<unsigned long long>(
                  lb.counters().dropped_not_vip));
  std::printf("aggregate goodput through the VIP: %.2f Gbps\n",
              result.total_goodput_bps / 1e9);

  const bool ok = lb.counters().assigned == flows;
  std::printf("\n%s\n",
              ok ? "OK: every connection pinned to a backend at SYN time"
                 : "FAILED");
  return ok ? 0 : 1;
}
