#include "continuum/node.hpp"

#include <algorithm>
#include <limits>

namespace myrtus::continuum {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEdge: return "edge";
    case Layer::kFog: return "fog";
    case Layer::kCloud: return "cloud";
  }
  return "?";
}

ComputeNode::ComputeNode(sim::Engine& engine, std::string id, Layer layer,
                         std::string kind, security::SecurityLevel level,
                         std::uint64_t mem_capacity_mb)
    : engine_(engine),
      id_(std::move(id)),
      layer_(layer),
      kind_(std::move(kind)),
      level_(level),
      mem_capacity_mb_(mem_capacity_mb),
      created_at_(engine.Now()) {}

void ComputeNode::AddDevice(Device device) {
  devices_.push_back(std::move(device));
  busy_until_.push_back(engine_.Now());
  busy_accum_.push_back(sim::SimTime::Zero());
  queue_depth_.push_back(0);
  RefreshCpuCapacity();
  MarkChanged();
}

util::Status ComputeNode::SetOperatingPoint(std::size_t device,
                                            std::size_t point) {
  if (device >= devices_.size()) {
    return util::Status::InvalidArgument(id_ + ": no device " +
                                         std::to_string(device));
  }
  MYRTUS_RETURN_IF_ERROR(devices_[device].SetOperatingPoint(point));
  RefreshCpuCapacity();
  MarkChanged();
  return util::Status::Ok();
}

void ComputeNode::RefreshCpuCapacity() {
  double total = 0.0;
  for (const Device& d : devices_) {
    total += static_cast<double>(d.parallel_units()) *
             d.active_point().speedup * d.active_point().clock_ghz;
  }
  cpu_capacity_ = total;
  NotifyPlacementWatchers();
}

void ComputeNode::AddPlacementWatcher(std::weak_ptr<PlacementWatcher> watcher,
                                      std::uint32_t slot) {
  std::erase_if(placement_watchers_,
                [](const auto& entry) { return entry.first.expired(); });
  placement_watchers_.emplace_back(std::move(watcher), slot);
}

void ComputeNode::NotifyPlacementWatchers() {
  for (const auto& [watcher, slot] : placement_watchers_) {
    if (const auto live = watcher.lock()) live->OnPlacementInputChanged(slot);
  }
}

util::Status ComputeNode::ReserveMemory(std::uint64_t mb) {
  if (mem_allocated_mb_ + mb > mem_capacity_mb_) {
    return util::Status::ResourceExhausted(id_ + ": out of memory");
  }
  mem_allocated_mb_ += mb;
  MarkChanged();
  return util::Status::Ok();
}

void ComputeNode::ReleaseMemory(std::uint64_t mb) {
  mem_allocated_mb_ -= std::min(mem_allocated_mb_, mb);
  MarkChanged();
}

std::size_t ComputeNode::BestDeviceFor(const TaskDemand& demand) const {
  std::size_t best = 0;
  auto best_latency = sim::SimTime::Nanos(std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    // Include current queue backlog so the node load-balances internally.
    const sim::SimTime wait =
        std::max(busy_until_[i], engine_.Now()) - engine_.Now();
    const sim::SimTime total = wait + devices_[i].Estimate(demand).latency;
    if (total < best_latency) {
      best_latency = total;
      best = i;
    }
  }
  return best;
}

void ComputeNode::Submit(const TaskDemand& demand, std::size_t device_index,
                         CompletionFn done) {
  if (!up_ || device_index >= devices_.size()) {
    return;  // dropped without calling `done`: callers check up() first
  }
  const ExecutionEstimate est = devices_[device_index].Estimate(demand);
  const sim::SimTime now = engine_.Now();
  const sim::SimTime start = std::max(now, busy_until_[device_index]);
  const sim::SimTime finish = start + est.latency;
  busy_until_[device_index] = finish;
  busy_accum_[device_index] += est.latency;
  ++queue_depth_[device_index];
  MarkChanged();

  engine_.ScheduleAt(finish, [this, device_index, est, start, now,
                              done = std::move(done)] {
    --queue_depth_[device_index];
    ++tasks_completed_;
    total_energy_ += est.energy_mj;
    MarkChanged();
    if (done) {
      TaskReport report;
      report.node_id = id_;
      report.device_name = devices_[device_index].name();
      report.queued = start - now;
      report.service = est.latency;
      report.energy_mj = est.energy_mj;
      done(report);
    }
  });
}

void ComputeNode::Submit(const TaskDemand& demand, CompletionFn done) {
  Submit(demand, BestDeviceFor(demand), std::move(done));
}

double ComputeNode::Utilization(std::size_t device_index) const {
  const sim::SimTime alive = engine_.Now() - created_at_;
  if (alive.ns <= 0 || device_index >= busy_accum_.size()) return 0.0;
  const double u = static_cast<double>(busy_accum_[device_index].ns) /
                   static_cast<double>(alive.ns);
  return std::min(u, 1.0);
}

std::size_t ComputeNode::QueueDepth() const {
  std::size_t total = 0;
  for (const std::size_t q : queue_depth_) total += q;
  return total;
}

util::MilliJoules ComputeNode::IdleEnergyMj(sim::SimTime now) const {
  const double alive_s = (now - created_at_).ToSecondsF();
  util::MilliWatts idle;
  for (const Device& d : devices_) idle += d.active_point().power_idle_mw;
  return idle * alive_s;
}

}  // namespace myrtus::continuum
