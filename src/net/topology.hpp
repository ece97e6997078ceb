// Network topology for the continuum: hosts connected by directed links with
// latency/bandwidth/jitter/loss. Routing is shortest-path by propagation
// latency (recomputed lazily after mutations), which matches the paper's
// assumption that all components speak the same protocols over a multi-layer
// network (§III Network).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
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

  [[nodiscard]] bool HasHost(const HostId& id) const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Link& link(std::size_t index) const { return links_[index]; }
  Link& mutable_link(std::size_t index) { return links_[index]; }
  [[nodiscard]] const std::vector<HostId>& hosts() const { return hosts_; }

  /// Marks a link up/down (failure injection). Down links are excluded from
  /// routing.
  void SetLinkUp(std::size_t index, bool up);
  [[nodiscard]] bool IsLinkUp(std::size_t index) const;

  /// Shortest route by propagation latency. NOT_FOUND when disconnected.
  [[nodiscard]] util::StatusOr<Route> FindRoute(const HostId& from,
                                                const HostId& to) const;

 private:
  void EnsureRoutesFresh() const;

  std::vector<HostId> hosts_;
  std::map<HostId, std::size_t> host_index_;
  std::vector<Link> links_;
  std::vector<std::size_t> link_dst_;  // per link: index of `to` in hosts_
  std::vector<bool> link_up_;
  std::vector<std::vector<std::size_t>> out_links_;  // per host

  // Dijkstra cache: next_link_[src][dst] = first link index on the path.
  mutable std::vector<std::vector<std::int32_t>> next_link_;
  mutable bool routes_dirty_ = true;
};

}  // namespace myrtus::net
