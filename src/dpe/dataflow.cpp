#include "dpe/dataflow.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>

namespace myrtus::dpe {
namespace {

std::uint64_t Gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t Lcm(std::uint64_t a, std::uint64_t b) {
  return a / Gcd(a, b) * b;
}

// "a<i>", built by append: GCC 12 at -O3 flags `"a" + std::to_string(i)`
// with a false-positive -Wrestrict.
std::string ActorName(int i) {
  std::string name = "a";
  name += std::to_string(i);
  return name;
}

}  // namespace

util::Status DataflowGraph::AddActor(Actor actor) {
  if (index_.count(actor.name) > 0) {
    return util::Status::AlreadyExists("actor " + actor.name);
  }
  index_[actor.name] = actors_.size();
  actors_.push_back(std::move(actor));
  return util::Status::Ok();
}

util::Status DataflowGraph::AddChannel(Channel channel) {
  if (index_.count(channel.from) == 0 || index_.count(channel.to) == 0) {
    return util::Status::NotFound("channel endpoints must be actors");
  }
  if (channel.produce <= 0 || channel.consume <= 0) {
    return util::Status::InvalidArgument("SDF rates must be positive");
  }
  channels_.push_back(std::move(channel));
  return util::Status::Ok();
}

const Actor* DataflowGraph::FindActor(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &actors_[it->second];
}

std::size_t DataflowGraph::ActorIndex(const std::string& name) const {
  return index_.at(name);
}

util::StatusOr<std::vector<std::uint64_t>> DataflowGraph::RepetitionVector()
    const {
  // Solve q_from * produce == q_to * consume over rationals by propagation.
  const std::size_t n = actors_.size();
  if (n == 0) return std::vector<std::uint64_t>{};
  // Represent q[i] = num[i] / den[i].
  std::vector<std::uint64_t> num(n, 0);
  std::vector<std::uint64_t> den(n, 1);

  // Adjacency over channels (undirected propagation).
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    adj[index_.at(channels_[c].from)].push_back(c);
    adj[index_.at(channels_[c].to)].push_back(c);
  }

  for (std::size_t start = 0; start < n; ++start) {
    if (num[start] != 0) continue;
    num[start] = 1;
    std::queue<std::size_t> frontier;
    frontier.push(start);
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (const std::size_t ci : adj[u]) {
        const Channel& ch = channels_[ci];
        const std::size_t a = index_.at(ch.from);
        const std::size_t b = index_.at(ch.to);
        const std::size_t v = (a == u) ? b : a;
        // q_a * produce = q_b * consume  =>  q_v derived from q_u.
        std::uint64_t vn;
        std::uint64_t vd;
        if (v == b) {
          vn = num[u] * static_cast<std::uint64_t>(ch.produce);
          vd = den[u] * static_cast<std::uint64_t>(ch.consume);
        } else {
          vn = num[u] * static_cast<std::uint64_t>(ch.consume);
          vd = den[u] * static_cast<std::uint64_t>(ch.produce);
        }
        const std::uint64_t g = Gcd(vn, vd);
        vn /= g;
        vd /= g;
        if (num[v] == 0) {
          num[v] = vn;
          den[v] = vd;
          frontier.push(v);
        } else if (num[v] * vd != vn * den[v]) {
          return util::Status::FailedPrecondition(
              "inconsistent SDF rates around actor " + actors_[v].name);
        }
      }
    }
  }

  // Scale to the smallest integer vector.
  std::uint64_t lcm_den = 1;
  for (const std::uint64_t d : den) lcm_den = Lcm(lcm_den, d);
  std::vector<std::uint64_t> q(n);
  std::uint64_t gcd_all = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = num[i] * (lcm_den / den[i]);
    gcd_all = Gcd(gcd_all, q[i]);
  }
  if (gcd_all > 1) {
    for (std::uint64_t& v : q) v /= gcd_all;
  }
  return q;
}

bool DataflowGraph::IsAcyclic() const { return TopologicalOrder().ok(); }

util::StatusOr<std::vector<std::size_t>> DataflowGraph::TopologicalOrder() const {
  const std::size_t n = actors_.size();
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (const Channel& ch : channels_) {
    const std::size_t a = index_.at(ch.from);
    const std::size_t b = index_.at(ch.to);
    out[a].push_back(b);
    ++indegree[b];
  }
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    const std::size_t u = ready.front();
    ready.pop();
    order.push_back(u);
    for (const std::size_t v : out[u]) {
      if (--indegree[v] == 0) ready.push(v);
    }
  }
  if (order.size() != n) {
    return util::Status::FailedPrecondition("dataflow graph has a cycle");
  }
  return order;
}

util::StatusOr<std::uint64_t> DataflowGraph::IterationCycles() const {
  auto q = RepetitionVector();
  if (!q.ok()) return q.status();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    total += actors_[i].cycles_per_firing * (*q)[i];
  }
  return total;
}

util::StatusOr<std::uint64_t> DataflowGraph::IterationTrafficBytes() const {
  auto q = RepetitionVector();
  if (!q.ok()) return q.status();
  std::uint64_t total = 0;
  for (const Channel& ch : channels_) {
    const std::size_t a = index_.at(ch.from);
    total += (*q)[a] * static_cast<std::uint64_t>(ch.produce) * ch.token_bytes;
  }
  return total;
}

std::pair<DataflowGraph, int> DataflowGraph::FuseLinearChains() const {
  // Count fan-in/out.
  const std::size_t n = actors_.size();
  std::vector<int> fan_in(n, 0);
  std::vector<int> fan_out(n, 0);
  for (const Channel& ch : channels_) {
    ++fan_out[index_.at(ch.from)];
    ++fan_in[index_.at(ch.to)];
  }
  // Union-find over fusable pairs: a->b with matched rates, fan_out[a]==1,
  // fan_in[b]==1.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  int fusions = 0;
  for (const Channel& ch : channels_) {
    const std::size_t a = index_.at(ch.from);
    const std::size_t b = index_.at(ch.to);
    if (ch.produce == ch.consume && fan_out[a] == 1 && fan_in[b] == 1) {
      const std::size_t ra = find(a);
      const std::size_t rb = find(b);
      if (ra != rb) {
        parent[rb] = ra;
        ++fusions;
      }
    }
  }

  // Build fused graph.
  DataflowGraph fused;
  std::map<std::size_t, std::string> group_name;
  std::map<std::size_t, Actor> group_actor;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    auto it = group_actor.find(root);
    if (it == group_actor.end()) {
      Actor merged = actors_[i];
      merged.name = actors_[root].name;
      if (i != root) {
        merged = actors_[root];
        merged.cycles_per_firing += actors_[i].cycles_per_firing;
        merged.state_bytes += actors_[i].state_bytes;
        merged.accelerable = merged.accelerable && actors_[i].accelerable;
      }
      group_actor[root] = merged;
    } else if (i != root) {
      it->second.cycles_per_firing += actors_[i].cycles_per_firing;
      it->second.state_bytes += actors_[i].state_bytes;
      it->second.accelerable = it->second.accelerable && actors_[i].accelerable;
    }
  }
  for (auto& [root, actor] : group_actor) {
    util::MustOk(fused.AddActor(actor));
    group_name[root] = actor.name;
  }
  for (const Channel& ch : channels_) {
    const std::size_t ra = find(index_.at(ch.from));
    const std::size_t rb = find(index_.at(ch.to));
    if (ra == rb) continue;  // internal to a fused actor
    Channel c = ch;
    c.from = group_name[ra];
    c.to = group_name[rb];
    util::MustOk(fused.AddChannel(c));
  }
  return {std::move(fused), fusions};
}

std::vector<int> DataflowGraph::Partition(int k) const {
  const std::size_t n = actors_.size();
  std::vector<int> part(n, 0);
  if (k <= 1 || n == 0) return part;

  // Greedy: actors in topological (or index) order, assign to the partition
  // with the lowest load unless co-locating with a heavy-traffic neighbor
  // wins.
  std::vector<std::uint64_t> load(static_cast<std::size_t>(k), 0);
  std::vector<std::size_t> order;
  if (auto topo = TopologicalOrder(); topo.ok()) {
    order = std::move(topo).value();
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }
  std::vector<bool> placed(n, false);
  for (const std::size_t i : order) {
    // Traffic to already-placed neighbors per partition.
    std::vector<std::uint64_t> affinity(static_cast<std::size_t>(k), 0);
    for (const Channel& ch : channels_) {
      const std::size_t a = index_.at(ch.from);
      const std::size_t b = index_.at(ch.to);
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(ch.produce) * ch.token_bytes;
      if (a == i && placed[b]) affinity[static_cast<std::size_t>(part[b])] += bytes;
      if (b == i && placed[a]) affinity[static_cast<std::size_t>(part[a])] += bytes;
    }
    int best = 0;
    double best_score = -1e300;
    const std::uint64_t total_cycles =
        std::max<std::uint64_t>(1, IterationCycles().ok() ? *IterationCycles() : 1);
    for (int p = 0; p < k; ++p) {
      const double balance =
          -static_cast<double>(load[static_cast<std::size_t>(p)]) /
          static_cast<double>(total_cycles);
      const double score =
          balance + 2.0 * static_cast<double>(affinity[static_cast<std::size_t>(p)]) /
                        static_cast<double>(total_cycles + 1);
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    part[i] = best;
    placed[i] = true;
    load[static_cast<std::size_t>(best)] += actors_[i].cycles_per_firing;
  }
  return part;
}

std::uint64_t DataflowGraph::CutBytes(const std::vector<int>& partition) const {
  std::uint64_t cut = 0;
  for (const Channel& ch : channels_) {
    const std::size_t a = index_.at(ch.from);
    const std::size_t b = index_.at(ch.to);
    if (a < partition.size() && b < partition.size() &&
        partition[a] != partition[b]) {
      cut += static_cast<std::uint64_t>(ch.produce) * ch.token_bytes;
    }
  }
  return cut;
}

DataflowGraph RandomPipeline(int actors, util::Rng& rng) {
  DataflowGraph g;
  for (int i = 0; i < actors; ++i) {
    Actor a;
    a.name = ActorName(i);
    a.cycles_per_firing = 1'000'000 + rng.NextBounded(50'000'000);
    a.state_bytes = 1024 + rng.NextBounded(1 << 20);
    a.accelerable = rng.NextBool(0.3);
    a.parallel_fraction = rng.Uniform(0.0, 0.9);
    util::MustOk(g.AddActor(a));
  }
  // Chain backbone plus a few skip edges.
  for (int i = 0; i + 1 < actors; ++i) {
    Channel c;
    c.from = ActorName(i);
    c.to = ActorName(i + 1);
    c.token_bytes = 256 + rng.NextBounded(64 * 1024);
    util::MustOk(g.AddChannel(c));
  }
  for (int i = 0; i + 2 < actors; i += 3) {
    if (rng.NextBool(0.4)) {
      Channel c;
      c.from = ActorName(i);
      c.to = ActorName(i + 2);
      c.token_bytes = 128 + rng.NextBounded(8 * 1024);
      util::MustOk(g.AddChannel(c));
    }
  }
  return g;
}

}  // namespace myrtus::dpe
