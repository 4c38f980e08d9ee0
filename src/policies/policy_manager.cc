#include "src/policies/policy_manager.h"

#include <algorithm>

namespace cache_ext::policies {

PolicyManager::PolicyManager(PageCache* page_cache,
                             PolicyManagerOptions options)
    : page_cache_(page_cache),
      loader_(page_cache),
      options_(std::move(options)) {}

bool PolicyManager::Allowed(std::string_view name) const {
  if (options_.allowlist.empty()) {
    const auto known = AvailablePolicies();
    return std::find(known.begin(), known.end(), name) != known.end();
  }
  return options_.allowlist.count(std::string(name)) > 0;
}

void PolicyManager::Record(EventKind kind, MemCgroup* cg,
                           std::string_view policy, std::string detail) {
  audit_.push_back(AuditEvent{kind, cg != nullptr ? cg->name() : "?",
                              std::string(policy), std::move(detail)});
  while (audit_.size() > kAuditCapacity) {
    audit_.pop_front();
    ++audit_dropped_;
  }
}

void PolicyManager::PublishQuarantine(MemCgroup* cg) {
  auto it = quarantine_.find(cg);
  if (it == quarantine_.end()) {
    page_cache_->SetQuarantineInfo(cg, /*quarantined=*/false, /*banned=*/false,
                                   /*reattach_attempts=*/0);
    return;
  }
  page_cache_->SetQuarantineInfo(cg, /*quarantined=*/true, it->second.banned,
                                 it->second.reattach_attempts);
}

uint32_t& PolicyManager::StrikesFor(MemCgroup* cg, const std::string& policy) {
  return strikes_[std::make_pair(cg, policy)];
}

Status PolicyManager::Request(MemCgroup* cg, std::string_view policy_name,
                              const PolicyParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cg == nullptr) {
    return InvalidArgument("null cgroup");
  }
  if (!Allowed(policy_name)) {
    Record(EventKind::kDenied, cg, policy_name, "not in allowlist");
    return PermissionDenied("policy not in the manager's allowlist: " +
                            std::string(policy_name));
  }
  auto strike_it = strikes_.find(std::make_pair(cg, std::string(policy_name)));
  if (strike_it != strikes_.end() &&
      strike_it->second >= kQuarantineStrikeLimit) {
    Record(EventKind::kDenied, cg, policy_name,
           "banned after repeated watchdog trips");
    return PermissionDenied("policy is banned for this cgroup after " +
                            std::to_string(strike_it->second) +
                            " watchdog strikes");
  }
  if (attachments_.size() >= options_.max_attached) {
    Record(EventKind::kDenied, cg, policy_name, "quota exceeded");
    return ResourceExhausted("policy quota exceeded");
  }
  if (attachments_.count(cg) > 0) {
    Record(EventKind::kDenied, cg, policy_name,
           "cgroup already has a managed policy");
    return AlreadyExists("cgroup already has a managed policy");
  }

  PolicyParams sized = params;
  sized.capacity_pages = cg->limit_pages();
  auto bundle = MakePolicy(policy_name, sized);
  CACHE_EXT_RETURN_IF_ERROR(bundle.status());
  auto attached = loader_.Attach(cg, std::move(bundle->ops),
                                 page_cache_->options().costs);
  if (!attached.ok()) {
    // Most failures here are load-time verifier rejections; put the
    // verifier's first failing check in the audit trail.
    Record(EventKind::kDenied, cg, policy_name, attached.status().message());
    return attached.status();
  }

  // An explicit Request is a manual override: it clears any pending
  // quarantine for the cgroup (the operator decided to run something).
  if (quarantine_.erase(cg) > 0) {
    PublishQuarantine(cg);
  }
  attachments_[cg] = Attachment{std::string(policy_name), bundle->agent,
                                params};
  Record(EventKind::kAttached, cg, policy_name, "");
  return OkStatus();
}

Status PolicyManager::Release(MemCgroup* cg) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = attachments_.find(cg);
  if (it == attachments_.end()) {
    // Releasing a quarantined cgroup cancels the pending re-attach.
    auto qit = quarantine_.find(cg);
    if (qit != quarantine_.end()) {
      const std::string name = qit->second.policy_name;
      quarantine_.erase(qit);
      PublishQuarantine(cg);
      Record(EventKind::kDetached, cg, name, "released from quarantine");
      return OkStatus();
    }
    return NotFound("no managed policy for this cgroup");
  }
  const std::string name = it->second.policy_name;
  attachments_.erase(it);
  // Detach may have already happened via the watchdog; tolerate that.
  Status status = loader_.Detach(cg);
  if (!status.ok() && status.code() != ErrorCode::kFailedPrecondition) {
    return status;
  }
  Record(EventKind::kDetached, cg, name, "");
  return OkStatus();
}

void PolicyManager::Quarantine(MemCgroup* cg, Attachment attachment) {
  uint32_t& strikes = StrikesFor(cg, attachment.policy_name);
  ++strikes;
  if (strikes >= kQuarantineStrikeLimit) {
    quarantine_[cg] = QuarantineEntry{attachment.policy_name,
                                      attachment.params,
                                      /*backoff_polls=*/0,
                                      /*polls_remaining=*/0,
                                      /*reattach_attempts=*/0,
                                      /*banned=*/true};
    Record(EventKind::kBanned, cg, attachment.policy_name,
           "strike " + std::to_string(strikes) + " of " +
               std::to_string(kQuarantineStrikeLimit) +
               "; permanently banned");
  } else {
    const uint32_t backoff =
        std::min(kQuarantineBackoffCap,
                 kQuarantineBackoffInitial << (strikes - 1));
    quarantine_[cg] = QuarantineEntry{attachment.policy_name,
                                      attachment.params, backoff, backoff,
                                      /*reattach_attempts=*/0,
                                      /*banned=*/false};
    Record(EventKind::kQuarantined, cg, attachment.policy_name,
           "strike " + std::to_string(strikes) + "; re-attach in " +
               std::to_string(backoff) + " poll cycles");
  }
  PublishQuarantine(cg);
}

bool PolicyManager::TickQuarantine(MemCgroup* cg, QuarantineEntry& entry) {
  if (entry.banned) {
    return false;
  }
  if (entry.polls_remaining > 1) {
    --entry.polls_remaining;
    return false;
  }
  entry.polls_remaining = 0;
  ++entry.reattach_attempts;
  std::string failure;
  if (attachments_.size() >= options_.max_attached) {
    failure = "quota exceeded";
  } else {
    PolicyParams sized = entry.params;
    sized.capacity_pages = cg->limit_pages();
    auto bundle = MakePolicy(entry.policy_name, sized);
    if (!bundle.ok()) {
      failure = bundle.status().message();
    } else {
      auto attached = loader_.Attach(cg, std::move(bundle->ops),
                                     page_cache_->options().costs);
      if (attached.ok()) {
        attachments_[cg] = Attachment{entry.policy_name, bundle->agent,
                                      entry.params};
        Record(EventKind::kReattached, cg, entry.policy_name,
               "attempt " + std::to_string(entry.reattach_attempts));
        return true;
      }
      failure = attached.status().message();
    }
  }
  // Re-attach failed: double the backoff (capped) and try again later.
  entry.backoff_polls =
      std::min(kQuarantineBackoffCap,
               std::max<uint32_t>(1, entry.backoff_polls * 2));
  entry.polls_remaining = entry.backoff_polls;
  Record(EventKind::kReattachFailed, cg, entry.policy_name,
         "attempt " + std::to_string(entry.reattach_attempts) + ": " +
             failure + "; next in " + std::to_string(entry.backoff_polls) +
             " poll cycles");
  PublishQuarantine(cg);
  return false;
}

void PolicyManager::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  // Snapshot first: cgroups quarantined during THIS poll wait their full
  // backoff starting from the next cycle.
  std::vector<MemCgroup*> pending;
  pending.reserve(quarantine_.size());
  for (const auto& [cg, entry] : quarantine_) {
    pending.push_back(cg);
  }
  std::vector<MemCgroup*> reverted;
  for (auto& [cg, attachment] : attachments_) {
    if (attachment.agent != nullptr) {
      attachment.agent->Poll();
    }
    if (page_cache_->StatsFor(cg).ext_detached_by_watchdog) {
      // The kernel watchdog stopped consulting the policy; finish the job:
      // unload it so the cgroup runs the default policy cleanly.
      (void)loader_.Detach(cg);
      Record(EventKind::kWatchdogReverted, cg, attachment.policy_name,
             "watchdog unloaded a misbehaving policy");
      reverted.push_back(cg);
    }
  }
  for (MemCgroup* cg : reverted) {
    Attachment attachment = std::move(attachments_[cg]);
    attachments_.erase(cg);
    Quarantine(cg, std::move(attachment));
  }
  // Drive backoff countdowns and re-attach attempts.
  for (MemCgroup* cg : pending) {
    auto it = quarantine_.find(cg);
    if (it == quarantine_.end()) {
      continue;
    }
    if (TickQuarantine(cg, it->second)) {
      quarantine_.erase(it);
      PublishQuarantine(cg);
    }
  }
}

std::vector<PolicyManager::AuditEvent> PolicyManager::audit_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<AuditEvent>(audit_.begin(), audit_.end());
}

uint64_t PolicyManager::audit_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_dropped_;
}

size_t PolicyManager::attached_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attachments_.size();
}

std::string PolicyManager::PolicyFor(MemCgroup* cg) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = attachments_.find(cg);
  return it == attachments_.end() ? "" : it->second.policy_name;
}

PolicyManager::QuarantineStatus PolicyManager::QuarantineFor(
    MemCgroup* cg) const {
  std::lock_guard<std::mutex> lock(mu_);
  QuarantineStatus status;
  auto it = quarantine_.find(cg);
  if (it != quarantine_.end()) {
    status.quarantined = true;
    status.banned = it->second.banned;
    status.reattach_attempts = it->second.reattach_attempts;
    status.polls_remaining = it->second.polls_remaining;
  }
  for (const auto& [key, strikes] : strikes_) {
    if (key.first == cg) {
      status.strikes = std::max(status.strikes, strikes);
    }
  }
  return status;
}

}  // namespace cache_ext::policies
