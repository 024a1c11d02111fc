#include "runtime/health.h"

#include <algorithm>
#include <cmath>

#include "common/types.h"

namespace mscclang {

const char *linkStateName(LinkState state)
{
    switch (state) {
    case LinkState::Healthy:
        return "healthy";
    case LinkState::Quarantined:
        return "quarantined";
    case LinkState::Probing:
        return "probing";
    }
    return "?";
}

LinkHealthMonitor::LinkHealthMonitor(const Topology &topology,
                                     HealthOptions options)
    : topology_(topology), options_(options), rng_(options.seed)
{
}

void LinkHealthMonitor::beginRun()
{
    for (auto &[link, entry] : entries_)
        entry.score *= options_.decayPerRun;
}

void LinkHealthMonitor::noteFault(const FaultEvent &event)
{
    double weight = 0.0;
    switch (event.kind) {
    case FaultKind::LinkDown:
        weight = options_.linkDownWeight;
        break;
    case FaultKind::Stall:
        weight = options_.stallWeight;
        break;
    case FaultKind::Degrade:
        weight = options_.degradeWeight;
        break;
    }
    for (const Link &link : topology_.linksUsingResource(event.resource))
        addScore(link, weight);
}

void LinkHealthMonitor::noteBlocked(const std::vector<Link> &links)
{
    for (const Link &link : links)
        addScore(link, options_.blockedWeight);
}

void LinkHealthMonitor::addScore(const Link &link, double weight)
{
    Entry &entry = entries_[link];
    entry.score += weight;
    if (entry.score < options_.quarantineThreshold)
        return;
    switch (entry.state) {
    case LinkState::Healthy:
        entry.state = LinkState::Quarantined;
        entry.holdRuns = options_.probeAfterRuns;
        entry.runsLeft = entry.holdRuns;
        break;
    case LinkState::Probing:
        // The probe failed: back to quarantine for twice the hold.
        entry.state = LinkState::Quarantined;
        entry.holdRuns = std::min(entry.holdRuns * 2, options_.maxProbeHold);
        entry.runsLeft = entry.holdRuns;
        break;
    case LinkState::Quarantined:
        // Already out of service; fresh evidence restarts the clock.
        entry.runsLeft = entry.holdRuns;
        break;
    }
}

void LinkHealthMonitor::noteSuccess(const std::vector<Link> &links_used)
{
    backoffs_ = 0;
    for (auto &[link, entry] : entries_) {
        switch (entry.state) {
        case LinkState::Healthy:
            break;
        case LinkState::Quarantined:
            if (--entry.runsLeft <= 0)
                entry.state = LinkState::Probing;
            break;
        case LinkState::Probing:
            if (std::binary_search(links_used.begin(), links_used.end(),
                                   link)) {
                entry.state = LinkState::Healthy;
                entry.score = 0.0;
                entry.holdRuns = 0;
            }
            break;
        }
    }
}

std::vector<Link> LinkHealthMonitor::quarantined() const
{
    std::vector<Link> out;
    for (const auto &[link, entry] : entries_)
        if (entry.state == LinkState::Quarantined)
            out.push_back(link);
    return out; // std::map iteration order is already sorted
}

LinkState LinkHealthMonitor::state(const Link &link) const
{
    auto it = entries_.find(link);
    return it == entries_.end() ? LinkState::Healthy : it->second.state;
}

double LinkHealthMonitor::score(const Link &link) const
{
    auto it = entries_.find(link);
    return it == entries_.end() ? 0.0 : it->second.score;
}

double LinkHealthMonitor::nextBackoffUs()
{
    double base = options_.backoffBaseUs * std::pow(2.0, backoffs_);
    base = std::min(base, options_.backoffMaxUs);
    double jitter = 1.0 + 0.25 * rng_.nextDouble();
    ++backoffs_;
    return std::min(base * jitter, options_.backoffMaxUs);
}

std::vector<Link> programLinks(const IrProgram &ir)
{
    // The connection table is sorted by (src, dst, channel), so the
    // links come out sorted; channels only repeat them.
    std::vector<Link> out;
    for (const IrConnection &conn : ir.gpus.connections())
        out.push_back(Link{conn.src, conn.dst});
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace mscclang
