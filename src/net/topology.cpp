#include "net/topology.hpp"

#include <algorithm>
#include <queue>

namespace myrtus::net {

void Topology::Invalidate() {
  routes_dirty_ = true;
  route_cache_.clear();
}

void Topology::AddHost(const HostId& id) {
  if (!host_index_.try_emplace(id, hosts_.size()).second) return;
  hosts_.push_back(id);
  out_links_.emplace_back();
  Invalidate();
}

void Topology::AddLink(Link link) {
  AddHost(link.from);
  AddHost(link.to);
  const std::size_t index = links_.size();
  out_links_[host_index_.at(link.from)].push_back(index);
  link_dst_.push_back(host_index_.at(link.to));
  links_.push_back(std::move(link));
  link_up_.push_back(true);
  Invalidate();
}

void Topology::AddBidirectional(const HostId& a, const HostId& b,
                                sim::SimTime latency, double bandwidth_bps,
                                double loss_rate, sim::SimTime jitter) {
  AddLink(Link{a, b, latency, bandwidth_bps, loss_rate, jitter});
  AddLink(Link{b, a, latency, bandwidth_bps, loss_rate, jitter});
}

bool Topology::HasHost(const HostId& id) const {
  return host_index_.count(id) > 0;
}

std::size_t Topology::HostIndex(const HostId& id) const {
  const auto it = host_index_.find(id);
  return it == host_index_.end() ? kNoHost : it->second;
}

void Topology::SetLinkUp(std::size_t index, bool up) {
  if (index < link_up_.size() && link_up_[index] != up) {
    link_up_[index] = up;
    Invalidate();
  }
}

bool Topology::IsLinkUp(std::size_t index) const {
  return index < link_up_.size() && link_up_[index];
}

void Topology::EnsureRoutesFresh() const {
  if (!routes_dirty_) return;
  const std::size_t n = hosts_.size();
  next_link_.assign(n, std::vector<std::int32_t>(n, -1));

  // Dijkstra from every source. Control-plane topologies are small (tens to
  // low hundreds of hosts), so O(V * E log V) is fine.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::int64_t> dist(n, std::numeric_limits<std::int64_t>::max());
    std::vector<std::int32_t> first_link(n, -1);
    using QItem = std::pair<std::int64_t, std::size_t>;  // (dist, host)
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
    dist[src] = 0;
    pq.emplace(0, src);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[u]) continue;
      for (const std::size_t li : out_links_[u]) {
        if (!link_up_[li]) continue;
        const std::size_t v = link_dst_[li];
        const std::int64_t nd = d + links_[li].latency.ns;
        if (nd < dist[v]) {
          dist[v] = nd;
          first_link[v] = (u == src) ? static_cast<std::int32_t>(li) : first_link[u];
          pq.emplace(nd, v);
        }
      }
    }
    next_link_[src] = std::move(first_link);
  }
  routes_dirty_ = false;
}

util::StatusOr<RouteRef> Topology::FindRoute(const HostId& from,
                                             const HostId& to) const {
  return FindRoute(HostIndex(from), HostIndex(to));
}

util::StatusOr<RouteRef> Topology::FindRoute(std::size_t from,
                                             std::size_t to) const {
  if (from >= hosts_.size() || to >= hosts_.size()) {
    return util::Status::NotFound("unknown host in route query");
  }
  // Every mutation clears the cache, so a cached route is always current.
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  if (const auto it = route_cache_.find(key); it != route_cache_.end()) {
    return it->second;
  }
  if (from == to) {
    // Loopback: empty path, zero latency.
    return route_cache_.emplace(key, std::make_shared<const Route>()).first->second;
  }
  EnsureRoutesFresh();

  Route route;
  std::size_t cur = from;
  route.min_bandwidth_bps = std::numeric_limits<double>::max();
  // Walk first-hop pointers; bounded by host count to guard against cycles.
  for (std::size_t step = 0; step <= hosts_.size() && cur != to; ++step) {
    const std::int32_t li = next_link_[cur][to];
    if (li < 0) break;
    const Link& l = links_[static_cast<std::size_t>(li)];
    route.link_indices.push_back(static_cast<std::size_t>(li));
    route.propagation += l.latency;
    route.min_bandwidth_bps = std::min(route.min_bandwidth_bps, l.bandwidth_bps);
    cur = link_dst_[static_cast<std::size_t>(li)];
  }
  if (cur != to) {
    return util::Status::NotFound("no route from " + hosts_[from] + " to " +
                                  hosts_[to]);
  }
  return route_cache_
      .emplace(key, std::make_shared<const Route>(std::move(route)))
      .first->second;
}

}  // namespace myrtus::net
