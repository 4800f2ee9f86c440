#include "core/scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"

namespace repute::core {

std::vector<std::size_t> proportional_split(
    std::size_t total, std::span<const double> fractions) {
    std::vector<std::size_t> counts;
    counts.reserve(fractions.size());
    std::size_t assigned = 0;
    for (std::size_t i = 0; i + 1 < fractions.size(); ++i) {
        const auto count = static_cast<std::size_t>(
            static_cast<double>(total) * fractions[i]);
        counts.push_back(count);
        assigned += count;
    }
    counts.push_back(total - assigned);
    return counts;
}

double ScheduleStats::makespan_seconds() const noexcept {
    double makespan = 0.0;
    for (const DeviceScheduleStats& d : per_device) {
        makespan = std::max(makespan, d.busy_seconds + d.stall_seconds);
    }
    return makespan;
}

ChunkScheduler::ChunkScheduler(std::vector<ocl::Device*> devices,
                               std::vector<double> warm_start,
                               SchedulerConfig config)
    : devices_(std::move(devices)), warm_start_(std::move(warm_start)),
      config_(config) {
    if (devices_.empty()) {
        throw std::invalid_argument("ChunkScheduler: no devices");
    }
    for (const ocl::Device* device : devices_) {
        if (device == nullptr) {
            throw std::invalid_argument("ChunkScheduler: null device");
        }
    }
    if (warm_start_.empty()) {
        warm_start_.assign(devices_.size(), 1.0);
    }
    if (warm_start_.size() != devices_.size()) {
        throw std::invalid_argument(
            "ChunkScheduler: warm_start size does not match devices");
    }
    double total = 0.0;
    for (double w : warm_start_) total += std::max(0.0, w);
    if (total <= 0.0) {
        warm_start_.assign(devices_.size(), 1.0);
        total = static_cast<double>(devices_.size());
    }
    for (double& w : warm_start_) w = std::max(0.0, w) / total;
}

std::vector<ChunkRecord> ChunkScheduler::plan(
    std::size_t total_items) const {
    std::vector<ChunkRecord> chunks;
    if (total_items == 0) return chunks;

    // Contiguous per-device ranges proportional to the warm start, so
    // the two modes cover the read set identically and differ only in
    // commitment.
    const auto counts = proportional_split(total_items, warm_start_);

    const std::size_t cap = config_.max_chunk_items == 0
                                ? total_items
                                : std::max<std::size_t>(
                                      1, config_.max_chunk_items);

    auto emit = [&](std::size_t owner, std::size_t begin, std::size_t end,
                    std::size_t size) {
        size = std::clamp<std::size_t>(size, 1, cap);
        while (begin < end) {
            ChunkRecord c;
            c.begin = begin;
            c.count = std::min(size, end - begin);
            c.owner = c.device = owner;
            chunks.push_back(c);
            begin += c.count;
        }
    };

    std::size_t base = 0;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        const std::size_t end = base + counts[d];
        if (counts[d] == 0) continue;
        if (config_.chunk_items > 0) {
            emit(d, base, end, config_.chunk_items);
        } else {
            // One leading chunk carries the committed slice of the
            // warm-start share; the rest is cut fine enough to steal.
            const double commit =
                std::clamp(config_.warm_start_commit, 0.0, 1.0);
            const std::size_t lead = std::min<std::size_t>(
                cap, static_cast<std::size_t>(
                         commit * static_cast<double>(counts[d])));
            if (lead > 0) emit(d, base, base + lead, lead);
            const std::size_t rest = counts[d] - lead;
            if (rest > 0) {
                const std::size_t pieces =
                    std::max<std::size_t>(1,
                                          config_.balance_chunks_per_device);
                emit(d, base + lead, end, (rest + pieces - 1) / pieces);
            }
        }
        base = end;
    }
    return chunks;
}

ScheduleStats ChunkScheduler::run(std::size_t total_items,
                                  const ChunkRunner& runner) {
    ScheduleStats stats;
    stats.per_device.resize(devices_.size());
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        stats.per_device[d].device_name = devices_[d]->name();
    }
    if (total_items == 0) return stats;

    const std::vector<ChunkRecord> planned = plan(total_items);

    // Per-device steal grain: the balance-chunk size the plan would cut
    // for this device. A thief takes at most its own grain from a
    // victim's chunk (splitting the rest back onto the victim's queue),
    // so a slow device can never turn a fast device's chunk into tail
    // latency.
    std::vector<std::size_t> grain(devices_.size(), 1);
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        if (config_.chunk_items > 0) {
            grain[d] = config_.chunk_items;
        } else {
            const auto share = static_cast<std::size_t>(
                static_cast<double>(total_items) * warm_start_[d]);
            const double commit =
                std::clamp(config_.warm_start_commit, 0.0, 1.0);
            const std::size_t rest =
                share - static_cast<std::size_t>(
                            commit * static_cast<double>(share));
            const std::size_t pieces = std::max<std::size_t>(
                1, config_.balance_chunks_per_device);
            grain[d] = std::max<std::size_t>(
                1, (rest + pieces - 1) / pieces);
        }
        if (config_.max_chunk_items > 0) {
            grain[d] = std::min(grain[d], config_.max_chunk_items);
        }
    }

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::deque<ChunkRecord>> queues(devices_.size());
    for (const ChunkRecord& c : planned) queues[c.owner].push_back(c);

    std::size_t remaining = planned.size();
    std::size_t alive = devices_.size();
    std::vector<char> quarantined(devices_.size(), 0);
    std::vector<std::uint32_t> consecutive_failures(devices_.size(), 0);
    bool failed = false;
    ocl::OclStatus fail_status = ocl::OclStatus::Success;
    std::string fail_message;
    std::exception_ptr fatal;

    auto queued_items = [&](std::size_t d) {
        std::size_t items = 0;
        for (const ChunkRecord& c : queues[d]) items += c.count;
        return items;
    };
    auto chunk_available = [&] {
        for (const auto& q : queues)
            if (!q.empty()) return true;
        return false;
    };
    // A device may take its next chunk only while its modeled clock is
    // the minimum of the surviving fleet — the order real devices of
    // these speeds would pull in. Ties run concurrently. The clock is
    // elapsed device time: execution plus staging stalls.
    auto device_clock = [&](std::size_t d) {
        return stats.per_device[d].busy_seconds +
               stats.per_device[d].stall_seconds;
    };
    auto clock_is_min = [&](std::size_t d) {
        for (std::size_t e = 0; e < devices_.size(); ++e) {
            if (quarantined[e]) continue;
            if (device_clock(d) > device_clock(e) + 1e-15) {
                return false;
            }
        }
        return true;
    };
    // Least-loaded surviving peer (excluding `self` when possible) —
    // target for requeued and redistributed chunks.
    auto requeue_target = [&](std::size_t self) {
        std::size_t best = devices_.size();
        for (std::size_t e = 0; e < devices_.size(); ++e) {
            if (quarantined[e] || e == self) continue;
            if (best == devices_.size() ||
                device_clock(e) +
                        1e-9 * static_cast<double>(queued_items(e)) <
                    device_clock(best) +
                        1e-9 * static_cast<double>(queued_items(best))) {
                best = e;
            }
        }
        if (best == devices_.size() && !quarantined[self]) best = self;
        return best;
    };

    auto worker = [&](std::size_t d) {
        std::unique_lock lock(mutex);
        for (;;) {
            cv.wait(lock, [&] {
                if (remaining == 0 || failed || fatal || quarantined[d])
                    return true;
                return chunk_available() && clock_is_min(d);
            });
            if (remaining == 0 || failed || fatal || quarantined[d]) break;

            ChunkRecord chunk;
            if (!queues[d].empty()) {
                chunk = queues[d].front();
                queues[d].pop_front();
            } else {
                // Steal from the peer with the most queued work; take
                // the tail (its finest-grained chunks) so the victim
                // keeps its committed leading slice.
                std::size_t victim = devices_.size();
                std::size_t victim_load = 0;
                for (std::size_t e = 0; e < devices_.size(); ++e) {
                    const std::size_t load = queued_items(e);
                    if (!queues[e].empty() && load >= victim_load) {
                        victim = e;
                        victim_load = load;
                    }
                }
                chunk = queues[victim].back();
                queues[victim].pop_back();
                if (chunk.count > grain[d]) {
                    ChunkRecord rest = chunk;
                    rest.count = chunk.count - grain[d];
                    queues[victim].push_back(rest);
                    chunk.begin += rest.count;
                    chunk.count = grain[d];
                    ++remaining; // the split-off rest is a new chunk
                }
                ++stats.per_device[d].steals;
                ++stats.steals;
                if (auto* recorder = obs::trace()) {
                    obs::TraceInstant instant;
                    instant.name = "steal";
                    instant.device = devices_[d]->name();
                    instant.at_seconds = device_clock(d);
                    instant.detail =
                        "from " + devices_[victim]->name() + " chunk [" +
                        std::to_string(chunk.begin) + ", " +
                        std::to_string(chunk.begin + chunk.count) + ")";
                    recorder->record(std::move(instant));
                }
                if (auto* m = obs::metrics()) {
                    m->counter("scheduler.steals").add();
                }
            }

            lock.unlock();
            ocl::LaunchStats launch_stats;
            bool ok = false;
            try {
                launch_stats = runner(*devices_[d], chunk.begin,
                                      chunk.count);
                ok = true;
            } catch (const ocl::OclError& e) {
                lock.lock();
                DeviceScheduleStats& pd = stats.per_device[d];
                pd.busy_seconds +=
                    devices_[d]->profile().dispatch_overhead_seconds;
                ++pd.failures;
                ++consecutive_failures[d];
                fail_status = e.status();
                ++chunk.retries;
                ++stats.retries;
                if (auto* recorder = obs::trace()) {
                    obs::TraceInstant instant;
                    instant.name = "retry";
                    instant.device = devices_[d]->name();
                    instant.at_seconds = pd.busy_seconds + pd.stall_seconds;
                    instant.detail = "chunk [" +
                                     std::to_string(chunk.begin) + ", " +
                                     std::to_string(chunk.begin +
                                                    chunk.count) +
                                     "): " + e.what();
                    recorder->record(std::move(instant));
                }
                if (auto* m = obs::metrics()) {
                    m->counter("scheduler.retries").add();
                }
                if (chunk.retries > config_.max_chunk_retries) {
                    failed = true;
                    fail_message =
                        "scheduler: chunk [" +
                        std::to_string(chunk.begin) + ", " +
                        std::to_string(chunk.begin + chunk.count) +
                        ") exhausted its retries; last error: " + e.what();
                    cv.notify_all();
                    break;
                }
                if (consecutive_failures[d] >= config_.quarantine_after) {
                    // Quarantine: this device stops pulling work and its
                    // queued chunks move to the survivors.
                    pd.quarantined = true;
                    quarantined[d] = 1;
                    --alive;
                    if (auto* recorder = obs::trace()) {
                        obs::TraceInstant instant;
                        instant.name = "quarantine";
                        instant.device = devices_[d]->name();
                        instant.at_seconds =
                            pd.busy_seconds + pd.stall_seconds;
                        instant.detail =
                            std::to_string(consecutive_failures[d]) +
                            " consecutive launch failures";
                        recorder->record(std::move(instant));
                    }
                    if (auto* m = obs::metrics()) {
                        m->counter("scheduler.quarantines").add();
                    }
                    std::deque<ChunkRecord> orphans;
                    orphans.swap(queues[d]);
                    orphans.push_front(chunk);
                    for (ChunkRecord& orphan : orphans) {
                        const std::size_t target = requeue_target(d);
                        if (target == devices_.size()) break;
                        queues[target].push_back(orphan);
                    }
                    if (alive == 0 && remaining > 0) {
                        failed = true;
                        fail_message =
                            "scheduler: every device quarantined with " +
                            std::to_string(remaining) +
                            " chunks unfinished; last error: " + e.what();
                    }
                    cv.notify_all();
                    break;
                }
                queues[requeue_target(d)].push_back(chunk);
                cv.notify_all();
                continue;
            } catch (...) {
                lock.lock();
                if (!fatal) fatal = std::current_exception();
                cv.notify_all();
                break;
            }
            (void)ok;

            lock.lock();
            DeviceScheduleStats& pd = stats.per_device[d];
            pd.busy_seconds += launch_stats.seconds;
            pd.stall_seconds += launch_stats.queue_wait_seconds;
            ++pd.chunks;
            pd.items += chunk.count;
            pd.stats.items += launch_stats.items;
            pd.stats.total_ops += launch_stats.total_ops;
            pd.stats.scratch_bytes_per_item =
                launch_stats.scratch_bytes_per_item;
            pd.stats.utilization = launch_stats.utilization;
            pd.stats.seconds += launch_stats.seconds;
            consecutive_failures[d] = 0;
            chunk.device = d;
            chunk.stolen = chunk.device != chunk.owner;
            if (auto* recorder = obs::trace()) {
                obs::TraceSpan span;
                span.name = "chunk [" + std::to_string(chunk.begin) +
                            ", " +
                            std::to_string(chunk.begin + chunk.count) +
                            ")";
                span.device = devices_[d]->name();
                span.track = obs::kSchedulerTrack;
                span.start_seconds = launch_stats.start_seconds;
                span.duration_seconds = launch_stats.seconds;
                span.chunk = static_cast<std::int64_t>(chunk.begin);
                span.detail = "owner=" +
                              devices_[chunk.owner]->name() +
                              (chunk.stolen ? " stolen" : "") +
                              (chunk.retries > 0
                                   ? " retries=" +
                                         std::to_string(chunk.retries)
                                   : "");
                recorder->record(std::move(span));
            }
            if (auto* m = obs::metrics()) {
                m->counter("scheduler.chunks").add();
                m->histogram("scheduler.chunk_items")
                    .observe(static_cast<double>(chunk.count));
            }
            stats.records.push_back(chunk);
            ++stats.chunks;
            --remaining;
            cv.notify_all();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(devices_.size());
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        threads.emplace_back(worker, d);
    }
    for (std::thread& t : threads) t.join();

    if (fatal) std::rethrow_exception(fatal);
    if (failed || remaining > 0) {
        throw ocl::OclError(fail_status == ocl::OclStatus::Success
                                ? ocl::OclStatus::OutOfResources
                                : fail_status,
                            fail_message.empty()
                                ? "scheduler: unfinished chunks remain"
                                : fail_message);
    }
    return stats;
}

} // namespace repute::core
