// Network topology for the continuum: hosts connected by directed links with
// latency/bandwidth/jitter/loss. Routing is shortest-path by propagation
// latency (recomputed lazily after mutations), which matches the paper's
// assumption that all components speak the same protocols over a multi-layer
// network (§III Network).
//
// Hosts are addressed by a dense index assigned at registration. Routes are
// built per (src, dst) pair on first use and shared as immutable objects; any
// mutation drops the cache, while a holder of an older route (a frame in
// flight) keeps the path it was given.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/status.hpp"

namespace myrtus::net {

using HostId = std::string;

/// One directed link. Bidirectional physical cables are modeled as two links.
struct Link {
  HostId from;
  HostId to;
  sim::SimTime latency;        // propagation delay
  double bandwidth_bps = 1e9;  // serialization rate
  double loss_rate = 0.0;      // i.i.d. packet loss in [0,1)
  sim::SimTime jitter;         // uniform [0, jitter] added per packet
};

/// Route lookup result: the ordered list of links from src to dst.
struct Route {
  std::vector<std::size_t> link_indices;
  sim::SimTime propagation;  // sum of link latencies
  double min_bandwidth_bps = 0.0;
};
/// A cached route, shared by every lookup of its pair until the topology
/// changes.
using RouteRef = std::shared_ptr<const Route>;

class Topology {
 public:
  /// Registers a host; idempotent.
  void AddHost(const HostId& id);
  /// Adds a directed link. Hosts are auto-registered.
  void AddLink(Link link);
  /// Adds both directions with identical parameters.
  void AddBidirectional(const HostId& a, const HostId& b, sim::SimTime latency,
                        double bandwidth_bps, double loss_rate = 0.0,
                        sim::SimTime jitter = {});

  /// Index of an unregistered host.
  static constexpr std::size_t kNoHost = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool HasHost(const HostId& id) const;
  /// The host's index in hosts(), or kNoHost.
  [[nodiscard]] std::size_t HostIndex(const HostId& id) const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Link& link(std::size_t index) const { return links_[index]; }
  /// Drops the cached routes, whose latency and bandwidth the caller may be
  /// about to change.
  Link& mutable_link(std::size_t index) {
    route_cache_.clear();
    return links_[index];
  }
  [[nodiscard]] const std::vector<HostId>& hosts() const { return hosts_; }

  /// Marks a link up/down (failure injection). Down links are excluded from
  /// routing.
  void SetLinkUp(std::size_t index, bool up);
  [[nodiscard]] bool IsLinkUp(std::size_t index) const;

  /// Shortest route by propagation latency. NOT_FOUND when disconnected.
  /// Not thread-safe: a lookup may fill the cache.
  [[nodiscard]] util::StatusOr<RouteRef> FindRoute(const HostId& from,
                                                   const HostId& to) const;
  /// The same by host index (kNoHost is NOT_FOUND).
  [[nodiscard]] util::StatusOr<RouteRef> FindRoute(std::size_t from,
                                                   std::size_t to) const;

 private:
  void Invalidate();
  void EnsureRoutesFresh() const;

  std::vector<HostId> hosts_;
  std::unordered_map<HostId, std::size_t> host_index_;
  std::vector<Link> links_;
  std::vector<std::size_t> link_dst_;  // per link: index of `to` in hosts_
  std::vector<bool> link_up_;
  std::vector<std::vector<std::size_t>> out_links_;  // per host

  // Dijkstra cache: next_link_[src][dst] = first link index on the path.
  mutable std::vector<std::vector<std::int32_t>> next_link_;
  mutable bool routes_dirty_ = true;
  // Routes built so far, keyed by (src << 32 | dst).
  mutable std::unordered_map<std::uint64_t, RouteRef> route_cache_;
};

}  // namespace myrtus::net
