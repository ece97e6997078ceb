#include "kb/store.hpp"

#include <algorithm>

namespace myrtus::kb {

std::int64_t Store::Put(const std::string& key, util::Json value,
                        std::int64_t lease_id, std::int64_t skip_watch) {
  KeyValue& kv = data_[key];
  if (kv.create_revision == 0) kv.key = key;
  kv.value = std::move(value);
  kv.lease_id = lease_id;
  return Commit(kv, skip_watch);
}

std::int64_t Store::Commit(KeyValue& kv, std::int64_t skip_watch) {
  // Captured before Notify: a watcher's re-entrant write takes the next one.
  const std::int64_t revision = ++revision_;
  if (kv.create_revision == 0) kv.create_revision = revision;
  kv.mod_revision = revision;
  kv.version += 1;
  Notify(WatchEvent::Type::kPut, kv, skip_watch);
  return revision;
}

std::optional<std::int64_t> Store::Delete(const std::string& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  const std::int64_t revision = ++revision_;
  KeyValue last = std::move(it->second);
  data_.erase(it);
  last.mod_revision = revision;
  Notify(WatchEvent::Type::kDelete, last);
  return revision;
}

util::StatusOr<KeyValue> Store::Get(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return util::Status::NotFound("key: " + key);
  return it->second;
}

std::vector<KeyValue> Store::Range(const std::string& prefix) const {
  std::vector<KeyValue> out;
  for (auto it = data_.lower_bound(prefix);
       it != data_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::int64_t Store::Watch(const std::string& prefix, WatchCallback cb) {
  const std::int64_t id = next_watch_id_++;
  watchers_.push_back(
      std::make_shared<const Watcher>(Watcher{id, prefix, std::move(cb)}));
  return id;
}

void Store::CancelWatch(std::int64_t watch_id) {
  std::erase_if(watchers_, [&](const std::shared_ptr<const Watcher>& w) {
    return w->id == watch_id;
  });
}

void Store::Notify(WatchEvent::Type type, const KeyValue& kv,
                   std::int64_t skip_watch) {
  // Snapshot the matching watchers: a callback may add or cancel watches
  // re-entrantly. One cancelled by an earlier callback still receives this
  // event; one added during it does not.
  std::vector<std::shared_ptr<const Watcher>> matched;
  for (const std::shared_ptr<const Watcher>& w : watchers_) {
    if (w->id != skip_watch &&
        kv.key.compare(0, w->prefix.size(), w->prefix) == 0) {
      matched.push_back(w);
    }
  }
  if (matched.empty()) return;
  const WatchEvent event{type, kv};
  for (const std::shared_ptr<const Watcher>& w : matched) w->cb(event);
}

std::int64_t Store::GrantLease(std::int64_t expiry_ns) {
  const std::int64_t id = next_lease_id_++;
  leases_[id] = expiry_ns;
  return id;
}

bool Store::RenewLease(std::int64_t lease_id, std::int64_t new_expiry_ns) {
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return false;
  it->second = new_expiry_ns;
  return true;
}

bool Store::RevokeLease(std::int64_t lease_id) {
  if (leases_.erase(lease_id) == 0) return false;
  for (auto& [key, kv] : data_) {
    if (kv.lease_id == lease_id) kv.lease_id = 0;
  }
  return true;
}

std::size_t Store::ExpireLeases(std::int64_t now_ns) {
  std::vector<std::int64_t> expired;
  for (const auto& [id, expiry] : leases_) {
    if (expiry <= now_ns) expired.push_back(id);
  }
  std::size_t removed = 0;
  for (const std::int64_t id : expired) {
    leases_.erase(id);
    std::vector<std::string> doomed;
    for (const auto& [key, kv] : data_) {
      if (kv.lease_id == id) doomed.push_back(key);
    }
    for (const std::string& key : doomed) {
      Delete(key);
      ++removed;
    }
  }
  return removed;
}

}  // namespace myrtus::kb
