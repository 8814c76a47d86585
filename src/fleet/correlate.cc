#include "fleet/correlate.h"

#include "common/strings.h"

namespace scidive::fleet {

FleetCorrelator::FleetCorrelator(std::string self_node, CorrelatorConfig config)
    : self_(std::move(self_node)), config_(config) {
  if (config_.register_flood_window <= 0) config_.register_flood_window = sec(10);
  if (config_.digest_guess_window <= 0) config_.digest_guess_window = sec(30);
  if (config_.retain_windows == 0) config_.retain_windows = 1;
}

SimDuration FleetCorrelator::window_of(CounterKind kind) const {
  return kind == CounterKind::kRegisterFlood ? config_.register_flood_window
                                             : config_.digest_guess_window;
}

uint64_t FleetCorrelator::threshold_of(CounterKind kind) const {
  return kind == CounterKind::kRegisterFlood ? config_.register_flood_threshold
                                             : config_.digest_guess_threshold;
}

std::optional<SepCounter> FleetCorrelator::on_local_event(const core::Event& event) {
  CounterKind kind;
  switch (event.type) {
    case core::EventType::kSipRegisterSeen: kind = CounterKind::kRegisterFlood; break;
    case core::EventType::kSipAuthFailure: kind = CounterKind::kDigestGuess; break;
    default: return std::nullopt;
  }
  // Keyed by the source of the evidence: a REGISTER's sender, and for an
  // auth failure the client whose credentials failed (the 401's
  // destination), never the registrar that answered every user's failure.
  if (event.endpoint.addr.value() == 0) return std::nullopt;
  const SimDuration window = window_of(kind);
  const SimTime window_start = event.time >= 0 ? event.time - event.time % window : 0;
  WindowKey wk{static_cast<uint8_t>(kind), event.endpoint.addr.to_string(), window_start};
  const uint64_t count = ++partials_[wk][self_];
  ++stats_.partials_updated;
  prune(kind, window_start);
  return SepCounter{kind, std::get<1>(wk), window_start, count};
}

void FleetCorrelator::on_remote_counter(std::string_view from_node, const SepCounter& counter) {
  if (counter.kind != CounterKind::kRegisterFlood && counter.kind != CounterKind::kDigestGuess)
    return;
  WindowKey wk{static_cast<uint8_t>(counter.kind), counter.key, counter.window_start};
  auto& per_node = partials_[wk];
  auto it = per_node.find(from_node);
  if (it == per_node.end()) {
    per_node.emplace(std::string(from_node), counter.count);
  } else if (counter.count > it->second) {
    it->second = counter.count;
  }
  ++stats_.partials_merged;
  prune(counter.kind, counter.window_start);
}

std::vector<core::Alert> FleetCorrelator::evaluate(
    const std::function<bool(std::string_view)>& is_owner) {
  std::vector<core::Alert> out;
  for (const auto& [wk, per_node] : partials_) {
    if (alerted_.contains(wk)) continue;
    const auto& [kind_raw, key, window_start] = wk;
    const CounterKind kind = static_cast<CounterKind>(kind_raw);
    if (!is_owner(key)) continue;
    uint64_t total = 0;
    for (const auto& [node, count] : per_node) total += count;
    if (total < threshold_of(kind)) continue;
    alerted_.insert(wk);
    ++stats_.alerts_raised;
    core::Alert alert;
    alert.rule = kind == CounterKind::kRegisterFlood ? kFleetRegisterFloodRule
                                                    : kFleetDigestGuessRule;
    alert.severity = core::Severity::kCritical;
    alert.session = str::format("fleet:%s@%lld", key.c_str(),
                                static_cast<long long>(window_start));
    alert.time = window_start;
    alert.message = str::format(
        "%llu %s from %s across %zu node(s) within one window (threshold %llu)",
        static_cast<unsigned long long>(total),
        kind == CounterKind::kRegisterFlood ? "REGISTERs" : "auth failures", key.c_str(),
        per_node.size(), static_cast<unsigned long long>(threshold_of(kind)));
    out.push_back(std::move(alert));
  }
  return out;
}

void FleetCorrelator::prune(CounterKind kind, SimTime seen_window) {
  SimTime& latest = latest_window_[kind == CounterKind::kRegisterFlood ? 0 : 1];
  if (seen_window > latest) latest = seen_window;
  const SimDuration horizon =
      window_of(kind) * static_cast<SimDuration>(config_.retain_windows);
  const SimTime cutoff = latest - horizon;
  if (cutoff <= 0) return;
  for (auto it = partials_.begin(); it != partials_.end();) {
    const auto& [kind_raw, key, window_start] = it->first;
    if (kind_raw == static_cast<uint8_t>(kind) && window_start < cutoff) {
      alerted_.erase(it->first);
      it = partials_.erase(it);
      ++stats_.windows_pruned;
    } else {
      ++it;
    }
  }
}

void VouchStore::add(const SepVouch& vouch) {
  vouches_.push_back(vouch);
  while (vouches_.size() > max_entries_) vouches_.pop_front();
}

bool VouchStore::vouched(VouchKind kind, std::string_view key, SimTime around) const {
  for (const SepVouch& v : vouches_) {
    if (v.kind != kind || v.key != key) continue;
    const SimDuration delta = v.time >= around ? v.time - around : around - v.time;
    if (delta <= match_window_) return true;
  }
  return false;
}

}  // namespace scidive::fleet
