// PolicyManager: the privileged policy loader the paper envisions (§4.4,
// "Root privileges": sched_ext and ghOSt "mitigate this with a privileged
// policy loader, allowing policies to be managed through systemd. We
// envision a similar solution for cache_ext").
//
// The manager is the single privileged component that owns the loader.
// Unprivileged tenants request policies *by name* from an allowlisted
// catalog — they never hand executable code to the kernel themselves. The
// manager enforces a per-system policy quota, keeps a bounded audit log of
// every attach/detach/watchdog event, polls userspace agents (LHD
// reconfiguration) on behalf of tenants, and runs the supervision loop for
// watchdog-unloaded policies: revert → quarantine with exponential-backoff
// re-attach → permanent ban after repeated strikes.

#ifndef SRC_POLICIES_POLICY_MANAGER_H_
#define SRC_POLICIES_POLICY_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"

namespace cache_ext::policies {

struct PolicyManagerOptions {
  // Policies tenants may request; empty = everything the factory knows.
  std::set<std::string> allowlist;
  // Maximum concurrently attached policies across all cgroups.
  size_t max_attached = 64;
};

// Supervision constants. Like the breaker thresholds they are fixed, not
// per-deployment: a policy's containment is not something to tune.
//
// Audit-log ring capacity; older events are dropped (and counted) once the
// log is full, so a flapping policy cannot grow the manager unboundedly.
inline constexpr size_t kAuditCapacity = 1024;
// Quarantine: after a watchdog revert the (cgroup, policy) pair waits
// `kQuarantineBackoffInitial << (strike-1)` poll cycles (capped at
// kQuarantineBackoffCap) before a re-attach attempt; after
// kQuarantineStrikeLimit watchdog trips the pair is banned permanently
// (until a manual Request overrides it for a different policy).
inline constexpr uint32_t kQuarantineBackoffInitial = 1;
inline constexpr uint32_t kQuarantineStrikeLimit = 3;
// Longest quarantine backoff, in poll cycles.
inline constexpr uint32_t kQuarantineBackoffCap = 16;

class PolicyManager {
 public:
  enum class EventKind {
    kAttached,
    kDetached,
    kDenied,
    kWatchdogReverted,
    kQuarantined,
    kReattached,
    kReattachFailed,
    kBanned,
  };

  struct AuditEvent {
    EventKind kind;
    std::string cgroup;
    std::string policy;
    std::string detail;
  };

  // Snapshot of a cgroup's supervision state (mirrors what the manager
  // publishes into CgroupCacheStats via SetQuarantineInfo).
  struct QuarantineStatus {
    bool quarantined = false;
    bool banned = false;
    uint32_t strikes = 0;
    uint32_t reattach_attempts = 0;
    uint32_t polls_remaining = 0;
  };

  PolicyManager(PageCache* page_cache, PolicyManagerOptions options = {});

  // Tenant API: request a catalog policy for a cgroup. Applies the
  // allowlist, the quota, and sizes the policy to the cgroup. An explicit
  // Request overrides an active quarantine (manual operator intervention),
  // but a banned (cgroup, policy) pair stays denied.
  Status Request(MemCgroup* cg, std::string_view policy_name,
                 const PolicyParams& params = {});
  Status Release(MemCgroup* cg);

  // Housekeeping: polls userspace agents, audits watchdog state, and drives
  // the quarantine/backoff re-attach state machine; call periodically (a
  // daemon loop / systemd timer stand-in).
  void Poll();

  // Introspection.
  std::vector<AuditEvent> audit_log() const;
  uint64_t audit_dropped() const;
  size_t attached_count() const;
  // The policy currently managed for `cg`, or "" if none.
  std::string PolicyFor(MemCgroup* cg) const;
  QuarantineStatus QuarantineFor(MemCgroup* cg) const;

 private:
  struct Attachment {
    std::string policy_name;
    std::shared_ptr<UserspaceAgent> agent;
    // Kept so a quarantined policy can be re-attached with the tenant's
    // original parameters.
    PolicyParams params;
  };

  struct QuarantineEntry {
    std::string policy_name;
    PolicyParams params;
    uint32_t backoff_polls = 1;
    uint32_t polls_remaining = 1;
    uint32_t reattach_attempts = 0;
    bool banned = false;
  };

  bool Allowed(std::string_view name) const;
  void Record(EventKind kind, MemCgroup* cg, std::string_view policy,
              std::string detail);
  void PublishQuarantine(MemCgroup* cg);
  uint32_t& StrikesFor(MemCgroup* cg, const std::string& policy);
  // Moves a watchdog-reverted attachment into quarantine (or bans it).
  void Quarantine(MemCgroup* cg, Attachment attachment);
  // One backoff countdown step + re-attach attempt for a quarantined cgroup.
  // Returns true when the entry should be erased (re-attach succeeded).
  bool TickQuarantine(MemCgroup* cg, QuarantineEntry& entry);

  PageCache* page_cache_;
  CacheExtLoader loader_;
  PolicyManagerOptions options_;
  mutable std::mutex mu_;
  std::map<MemCgroup*, Attachment> attachments_;
  std::map<MemCgroup*, QuarantineEntry> quarantine_;
  // Watchdog strikes per (cgroup, policy); persists across quarantine
  // round-trips so repeat offenders eventually get banned.
  std::map<std::pair<MemCgroup*, std::string>, uint32_t> strikes_;
  std::deque<AuditEvent> audit_;
  uint64_t audit_dropped_ = 0;
};

}  // namespace cache_ext::policies

#endif  // SRC_POLICIES_POLICY_MANAGER_H_
