// MVCC key-value store — the applied state machine behind the MYRTUS
// Knowledge Base. Mirrors etcd's data model (the technology the paper
// considers, §III fn.3): monotonically increasing store revision, per-key
// create/mod revisions, prefix range reads, prefix watches, and TTL leases.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/status.hpp"

namespace myrtus::kb {

/// A stored value with its MVCC metadata.
struct KeyValue {
  std::string key;
  util::Json value;
  std::int64_t create_revision = 0;
  std::int64_t mod_revision = 0;
  std::int64_t version = 0;   // per-key update counter
  std::int64_t lease_id = 0;  // 0 = no lease
};

/// A watch event.
struct WatchEvent {
  enum class Type { kPut, kDelete };
  Type type;
  KeyValue kv;  // for kDelete, `value` is the last value before deletion
};

/// In-memory MVCC store. Single-writer (the Raft apply loop), many readers.
///
/// A mutation's `skip_watch` names one watch (0 = none) that this commit does
/// not notify: a writer that also watches the keys it writes leaves its own
/// watch out of its own commits, and only those.
class Store {
 public:
  /// Puts a value; returns the new store revision.
  std::int64_t Put(const std::string& key, util::Json value,
                   std::int64_t lease_id = 0, std::int64_t skip_watch = 0);
  /// Edits a key's value in place: `fn(util::Json&)` returns false to
  /// decline, and must leave the value untouched when it does. An accepted
  /// edit has Put's MVCC effects (revision, mod_revision and version bump,
  /// one kPut carrying the post-update value) but keeps the key's lease, like
  /// etcd's ignore_lease. Returns the new store revision, or nullopt — no
  /// revision bump, no event — when the key is absent or `fn` declines.
  template <typename Fn>
  std::optional<std::int64_t> Update(const std::string& key, Fn&& fn,
                                     std::int64_t skip_watch = 0) {
    const auto it = data_.find(key);
    if (it == data_.end() || !fn(it->second.value)) return std::nullopt;
    return Commit(it->second, skip_watch);
  }

  /// Deletes a key; returns the new revision, or nullopt if absent.
  std::optional<std::int64_t> Delete(const std::string& key);
  /// Point read.
  [[nodiscard]] util::StatusOr<KeyValue> Get(const std::string& key) const;
  /// All keys with the given prefix, in key order.
  [[nodiscard]] std::vector<KeyValue> Range(const std::string& prefix) const;
  /// Number of live keys.
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  /// Current store revision (increments on every mutation).
  [[nodiscard]] std::int64_t revision() const { return revision_; }

  /// --- Watches ---------------------------------------------------------
  using WatchCallback = std::function<void(const WatchEvent&)>;
  /// Registers a prefix watch; returns a watch id for cancellation.
  std::int64_t Watch(const std::string& prefix, WatchCallback cb);
  void CancelWatch(std::int64_t watch_id);

  /// --- Leases ----------------------------------------------------------
  /// Creates a lease expiring at `expiry_ns` (simulated clock, interpreted
  /// by the caller). Returns the lease id.
  std::int64_t GrantLease(std::int64_t expiry_ns);
  /// Extends a lease. False if unknown.
  bool RenewLease(std::int64_t lease_id, std::int64_t new_expiry_ns);
  /// Deletes all keys attached to leases expiring at or before `now_ns`.
  /// Returns the number of keys removed.
  std::size_t ExpireLeases(std::int64_t now_ns);
  /// Drops a lease without touching its keys: attached keys are detached
  /// (lease_id → 0), NOT deleted, and no watch events fire — revoking a
  /// superseded lease must not look like a member failure to watchers.
  /// False if the lease is unknown.
  bool RevokeLease(std::int64_t lease_id);
  /// Number of live (granted, not yet expired/revoked) leases.
  [[nodiscard]] std::size_t lease_count() const { return leases_.size(); }

 private:
  /// Stamps a just-written `kv` with the next revision and fires its kPut.
  std::int64_t Commit(KeyValue& kv, std::int64_t skip_watch);
  /// Delivers an event to the watchers, other than `skip_watch`, whose prefix
  /// matches `kv.key`. The event is built only when one matches.
  void Notify(WatchEvent::Type type, const KeyValue& kv,
              std::int64_t skip_watch = 0);

  std::map<std::string, KeyValue> data_;
  std::int64_t revision_ = 0;

  struct Watcher {
    std::int64_t id;
    std::string prefix;
    WatchCallback cb;
  };
  // Held by shared_ptr so Notify snapshots the matching watchers without
  // copying their callbacks.
  std::vector<std::shared_ptr<const Watcher>> watchers_;
  std::int64_t next_watch_id_ = 1;

  std::map<std::int64_t, std::int64_t> leases_;  // id -> expiry_ns
  std::int64_t next_lease_id_ = 1;
};

}  // namespace myrtus::kb
