#include "core/repute_mapper.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "index/rixm.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace repute::core {

std::vector<ShardView> shard_views_of(const index::ShardedIndex& index) {
    std::vector<ShardView> views;
    views.reserve(index.shards().size());
    for (const index::ShardedIndex::Shard& s : index.shards()) {
        views.push_back({&s.mapped.multi().concatenated(), &s.mapped.fm(),
                         s.text_offset, s.own_lo(), s.own_hi()});
    }
    return views;
}

std::vector<ShardView> monolithic_view(const genomics::Reference& reference,
                                       const index::FmIndex& fm) {
    return {{&reference, &fm, 0, 0, static_cast<std::uint32_t>(fm.size())}};
}

void merge_sharded_read(
    std::span<const std::span<const ReadMapping>> per_shard,
    std::uint32_t max_locations, std::vector<ReadMapping>& out) {
    out.clear();
    // Rebuild the monolithic generation order: within one strand the
    // kernel accepts candidates in ascending position, and shard owned
    // ranges partition the text in base order — concatenating the
    // shards' per-strand sublists IS the monolithic accept stream. The
    // first-n cap then lands on exactly the same accept.
    bool capped = false;
    for (const genomics::Strand strand :
         {genomics::Strand::Forward, genomics::Strand::Reverse}) {
        for (const std::span<const ReadMapping> list : per_shard) {
            for (const ReadMapping& m : list) {
                if (m.strand != strand) continue;
                if (out.size() >= max_locations) {
                    capped = true;
                    break;
                }
                out.push_back(m);
            }
            if (capped) break;
        }
        if (capped) break;
    }
    std::sort(out.begin(), out.end(),
              [](const ReadMapping& a, const ReadMapping& b) {
                  return a.position != b.position
                             ? a.position < b.position
                             : a.strand < b.strand;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const ReadMapping& a, const ReadMapping& b) {
                              return a.position == b.position &&
                                     a.strand == b.strand;
                          }),
              out.end());
}

HeterogeneousMapper::HeterogeneousMapper(
    std::string display_name, std::vector<ShardView> shards,
    std::unique_ptr<filter::Seeder> seeder,
    HeterogeneousMapperConfig config, std::vector<DeviceShare> shares)
    : name_(std::move(display_name)), shards_(std::move(shards)),
      seeder_(std::move(seeder)), config_(config) {
    if (seeder_ == nullptr) {
        throw std::invalid_argument(name_ + ": seeder must not be null");
    }
    if (shards_.empty()) {
        throw std::invalid_argument(name_ + ": needs at least one shard");
    }
    std::uint32_t cursor = 0;
    for (const ShardView& v : shards_) {
        if (v.reference == nullptr || v.fm == nullptr ||
            v.own_hi <= v.own_lo || v.own_hi > v.fm->size() ||
            v.base() != cursor) {
            throw std::invalid_argument(
                name_ + ": shard owned ranges must tile the reference");
        }
        cursor = v.text_offset + v.own_hi;
    }
    double total = 0.0;
    for (const DeviceShare& s : shares) {
        if (s.device != nullptr && s.fraction > 0.0) {
            total += s.fraction;
            shares_.push_back(s);
        }
    }
    if (shares_.empty() || total <= 0.0) {
        throw std::invalid_argument(
            name_ + ": needs at least one device with a positive share");
    }
    for (DeviceShare& s : shares_) s.fraction /= total;
}

std::uint64_t HeterogeneousMapper::max_image_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const ShardView& v : shards_) {
        bytes = std::max(bytes, v.image_bytes());
    }
    return bytes;
}

std::vector<std::size_t> HeterogeneousMapper::split_workload(
    std::size_t total) const {
    std::vector<double> fractions;
    fractions.reserve(shares_.size());
    for (const DeviceShare& s : shares_) fractions.push_back(s.fraction);
    return proportional_split(total, fractions);
}

void HeterogeneousMapper::validate_overhangs(
    const genomics::ReadBatch& batch, std::uint32_t delta) const {
    if (shards_.size() < 2) return; // monolithic
    // Longest actual read in the batch, not batch.read_length: bucketed
    // batches carry the length-class ceiling there, and a too-small
    // overhang only matters for reads that truly reach past it.
    std::uint64_t n = 0;
    for (const auto& read : batch.reads) {
        n = std::max<std::uint64_t>(n, read.length());
    }
    if (n == 0) n = batch.read_length;
    const ShardView& last = shards_.back();
    const std::uint64_t total =
        std::uint64_t{last.text_offset} + last.own_hi;
    for (const ShardView& v : shards_) {
        // A shard reports candidate diagonals p in its owned range; the
        // verification window spans [p - delta, p + n + delta), so the
        // shard text must cover delta bp left and n + delta bp right of
        // the owned range (clamped at the reference ends — the shard
        // sees the same text boundary the monolithic index does).
        const std::uint64_t left_need =
            std::min<std::uint64_t>(delta, v.base());
        const std::uint64_t own_end =
            std::uint64_t{v.text_offset} + v.own_hi;
        const std::uint64_t right_need =
            std::min<std::uint64_t>(n + delta, total - own_end);
        if (v.own_lo < left_need ||
            v.fm->size() - v.own_hi < right_need) {
            throw std::invalid_argument(
                name_ + ": shard overlap overhang is too small for " +
                std::to_string(n) + " bp reads at delta " +
                std::to_string(delta) +
                " (needs >= read_length + delta) — rebuild the index "
                "with a larger --overlap");
        }
    }
}

namespace {

constexpr std::size_t kNoShard = std::numeric_limits<std::size_t>::max();

/// Publishes the run's transfer/compute overlap ratio once any modeled
/// transfer time was spent (unmodeled runs leave the gauge untouched so
/// legacy metric dumps are unchanged).
void finish_transfer_accounting(const MapResult& result) {
    double transfer = 0.0;
    for (const DeviceRun& run : result.device_runs) {
        transfer += run.transfer_seconds;
    }
    if (transfer <= 0.0) return;
    if (auto* m = obs::metrics()) {
        m->gauge("xfer.overlap_ratio").set(result.transfer_overlap_ratio());
    }
}

/// A dependency list holding `event` when it is valid (a buffer set's
/// first use has no previous user to wait for).
std::vector<ocl::Event> deps(const ocl::Event& event) {
    std::vector<ocl::Event> list;
    if (event.valid()) list.push_back(event);
    return list;
}

/// Per-device shard staging tallies, summed into the obs registry once
/// the run completes.
struct ShardTally {
    std::uint64_t hits = 0;     ///< launches with the shard resident
    std::uint64_t restages = 0; ///< resident-image swaps after the first
    std::uint64_t restage_bytes = 0; ///< shard-image bytes staged
    std::vector<double> busy_by_shard; ///< kernel seconds per shard
};

/// How many read/output buffer sets a device gets and the largest chunk
/// one set holds.
struct BufferPlan {
    std::size_t sets = 1;
    std::size_t max_chunk = 0;
};

/// One device's staging state for a run: the resident shard image, the
/// read/output buffer sets launches rotate through, and the events that
/// order buffer reuse. The static split enqueues a device's whole slice
/// from the calling thread; under the dynamic scheduler only that
/// device's worker touches its lane.
struct Lane {
    ocl::Device* device = nullptr;
    std::unique_ptr<ocl::CommandQueue> queue; ///< in-order, one track
    ocl::Buffer image; ///< sized for the largest shard image
    std::vector<ocl::Buffer> reads;      ///< one per buffer set
    std::vector<ocl::Buffer> outputs;    ///< one per buffer set
    std::vector<ocl::Event> last_kernel; ///< per set: frees its reads
    std::vector<ocl::Event> last_drain;  ///< per set: frees its outputs
    ocl::Event newest_kernel; ///< last possible user of the image
    std::vector<ocl::Event> images; ///< every shard-image staging
    std::size_t shard = kNoShard;   ///< shard whose image is resident
    std::size_t launches = 0;
    ShardTally tally;
    DeviceRun run;
    double last_kernel_end = 0.0;
    double last_drain_end = 0.0;

    /// The last output drain may outlive the last kernel; that tail
    /// extends the device's elapsed time (and the makespan) like any
    /// other stall.
    double drain_tail() const {
        return std::max(0.0, last_drain_end - last_kernel_end);
    }
};

/// The events of one kernel launch over `count` consecutive units of
/// one shard: stage the reads, run the kernel, drain the output.
struct Launch {
    std::size_t shard = 0;
    std::size_t unit = 0;
    std::size_t count = 0;
    std::size_t set = 0;
    ocl::Event write;
    ocl::Event kernel;
    ocl::Event drain;
};

/// One map() call: the per-(shard, read) output slots and the launch
/// plumbing the static and dynamic schedules share.
class Run {
public:
    Run(const std::string& name, const std::vector<ShardView>& shards,
        std::uint64_t image_cap, const filter::Seeder& seeder,
        const HeterogeneousMapperConfig& config,
        const genomics::ReadBatch& batch, std::uint32_t delta)
        : name_(name), shards_(shards), image_cap_(image_cap),
          seeder_(seeder), config_(config), batch_(batch), delta_(delta),
          reads_(batch.size()), n_(batch.read_length),
          scratch_(kernel_scratch_bytes(seeder, n_, delta)),
          out_bytes_(std::uint64_t{config.kernel.max_locations_per_read} *
                     8), // packed (position, edit, strand) slot
          slots(shards.size() * reads_),
          unit_stages(shards.size() * reads_) {}
    // In-flight kernels hold `this`.
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    MapResult map_static(const std::vector<DeviceShare>& shares,
                         const std::vector<std::size_t>& counts);
    MapResult map_dynamic(const std::vector<DeviceShare>& shares);
    void export_shard_metrics() const;

private:
    Lane& open_lane(ocl::Context& context, ocl::Device& device);
    BufferPlan plan_buffers(const ocl::Device& device,
                            std::uint64_t limit) const;
    void allocate_sets(ocl::Context& context, Lane& lane,
                       std::size_t sets, std::size_t chunk) const;
    Launch launch(Lane& lane, std::size_t unit, std::size_t count);
    void drain(Lane& lane, Launch& l) const;
    void account_write(Lane& lane, Launch& l) const;
    obs::StageCounters settle(Lane& lane, Launch& l,
                              const ocl::LaunchStats& kernel) const;
    static void account_images(Lane& lane);

    const std::string& name_;
    const std::vector<ShardView>& shards_;
    std::uint64_t image_cap_;
    const filter::Seeder& seeder_;
    const HeterogeneousMapperConfig& config_;
    const genomics::ReadBatch& batch_;
    std::uint32_t delta_;
    std::size_t reads_;
    std::uint64_t n_;
    std::uint64_t scratch_;
    std::uint64_t out_bytes_;

public:
    /// Per-(shard, read) kernel outputs in shard-local coordinates and
    /// their stage slots, shard-major: unit = shard * reads + read.
    std::vector<std::vector<ReadMapping>> slots;
    std::vector<StageTotals> unit_stages;

private:
    // Declared last so it is destroyed first: lane events join the
    // in-flight kernels that write `slots` before the slots go away.
    std::vector<Lane> lanes_;
};

Lane& Run::open_lane(ocl::Context& context, ocl::Device& device) {
    Lane& lane = lanes_.emplace_back();
    lane.device = &device;
    lane.queue = std::make_unique<ocl::CommandQueue>(device);
    lane.image = context.allocate(device, image_cap_, "index+reference");
    lane.tally.busy_by_shard.resize(shards_.size(), 0.0);
    lane.run.device_name = device.name();
    lane.run.power_scale = config_.power_scale;
    return lane;
}

BufferPlan Run::plan_buffers(const ocl::Device& device,
                             std::uint64_t limit) const {
    // Largest chunk (at most `limit` reads) whose read and output
    // buffers fit the device ceilings: quarter-of-RAM per buffer, the
    // global memory left beside the resident image in total. Oversized
    // workloads run as several kernel invocations reusing the same
    // buffers — the paper's fallback. Double buffering (modeled links
    // only) costs a second buffer set; when even one read does not fit
    // twice, it degrades to a single set rather than failing.
    const auto& profile = device.profile();
    BufferPlan plan;
    plan.sets = profile.transfer.modeled() && config_.double_buffer ? 2 : 1;
    const std::uint64_t quarter = profile.max_single_allocation();
    const std::uint64_t free_bytes =
        profile.global_memory_bytes - device.allocated_bytes();
    std::uint64_t per_set = free_bytes / (plan.sets * (n_ + out_bytes_));
    if (per_set == 0 && plan.sets > 1) {
        plan.sets = 1;
        per_set = free_bytes / (n_ + out_bytes_);
    }
    const std::uint64_t max_chunk =
        std::min({limit, quarter / out_bytes_, quarter / n_, per_set});
    if (max_chunk == 0) {
        throw ocl::OclError(ocl::OclStatus::MemObjectAllocFail,
                            name_ + ": device " + device.name() +
                                " cannot hold the buffers of even one read");
    }
    plan.max_chunk = static_cast<std::size_t>(max_chunk);
    return plan;
}

void Run::allocate_sets(ocl::Context& context, Lane& lane,
                        std::size_t sets, std::size_t chunk) const {
    for (std::size_t s = 0; s < sets; ++s) {
        lane.reads.push_back(
            context.allocate(*lane.device, chunk * n_, "reads"));
        lane.outputs.push_back(
            context.allocate(*lane.device, chunk * out_bytes_, "mappings"));
    }
    lane.last_kernel.resize(sets);
    lane.last_drain.resize(sets);
}

Launch Run::launch(Lane& lane, std::size_t unit, std::size_t count) {
    Launch l;
    l.shard = unit / reads_;
    l.unit = unit;
    l.count = count;
    l.set = lane.launches++ % lane.reads.size();
    const ShardView& view = shards_[l.shard];

    // Every dependency on a buffer's previous user is ordering-only: a
    // faulted kernel never touched its buffers, so reusing them needs no
    // wait and no failure propagation.
    ocl::Event image_write;
    if (lane.shard != l.shard) {
        // Swap the shard image in after the newest kernel (on the
        // in-order queue, the last possible user of the old image).
        image_write = lane.queue->enqueue_write(
            lane.image, view.image_bytes(), {}, deps(lane.newest_kernel));
        lane.images.push_back(image_write);
        lane.tally.restage_bytes += view.image_bytes();
        if (lane.shard != kNoShard) ++lane.tally.restages;
        lane.shard = l.shard;
    } else {
        ++lane.tally.hits;
    }
    l.write = lane.queue->enqueue_write(lane.reads[l.set], count * n_, {},
                                        deps(lane.last_kernel[l.set]));

    ocl::KernelLaunch kernel;
    kernel.name = name_ + "::map";
    kernel.n_items = count;
    kernel.scratch_bytes_per_item = scratch_;
    KernelConfig config = config_.kernel;
    config.report_lo = view.own_lo;
    config.report_hi = view.own_hi;
    const std::size_t first_read = unit - l.shard * reads_;
    kernel.body = [this, &view, config, unit,
                   first_read](std::size_t i) -> std::uint64_t {
        // Work items own disjoint slots, and a retried chunk rewrites
        // exactly the same ones (map_read_workitem clears its output
        // first). One scratch per pool thread: after the first read the
        // kernel runs allocation-free on that thread.
        unit_stages[unit + i] = StageTotals{};
        thread_local KernelScratch kernel_scratch;
        return map_read_workitem(*view.fm, *view.reference, seeder_,
                                 batch_.reads[first_read + i], delta_,
                                 config, slots[unit + i], kernel_scratch,
                                 &unit_stages[unit + i]);
    };
    std::vector<ocl::Event> wait = deps(l.write);
    if (image_write.valid()) wait.push_back(image_write);
    l.kernel = lane.queue->enqueue(std::move(kernel), std::move(wait),
                                   deps(lane.last_drain[l.set]));
    lane.newest_kernel = l.kernel;
    return l;
}

void Run::drain(Lane& lane, Launch& l) const {
    lane.last_kernel[l.set] = l.kernel;
    l.drain = lane.queue->enqueue_read(lane.outputs[l.set],
                                       l.count * out_bytes_, deps(l.kernel));
    lane.last_drain[l.set] = l.drain;
}

void Run::account_write(Lane& lane, Launch& l) const {
    const ocl::LaunchStats& stats = l.write.wait();
    lane.run.bytes_staged += l.count * n_;
    lane.run.transfer_seconds += stats.seconds;
}

obs::StageCounters Run::settle(Lane& lane, Launch& l,
                               const ocl::LaunchStats& kernel) const {
    lane.last_kernel_end =
        std::max(lane.last_kernel_end, kernel.start_seconds + kernel.seconds);
    lane.tally.busy_by_shard[l.shard] += kernel.seconds;

    const ocl::LaunchStats& drained = l.drain.wait();
    lane.run.bytes_drained += l.count * out_bytes_;
    lane.run.transfer_seconds += drained.seconds;
    lane.last_drain_end = std::max(lane.last_drain_end,
                                   drained.start_seconds + drained.seconds);

    obs::StageCounters stage;
    for (std::size_t u = l.unit; u < l.unit + l.count; ++u) {
        stage += unit_stages[u];
    }
    if (auto* recorder = obs::trace()) {
        obs::record_stage_spans(
            *recorder, lane.run.device_name, /*track=*/0,
            kernel.start_seconds,
            lane.device->profile().dispatch_overhead_seconds,
            kernel.seconds, stage);
    }
    return stage;
}

void Run::account_images(Lane& lane) {
    for (ocl::Event& image : lane.images) {
        lane.run.transfer_seconds += image.wait().seconds;
    }
    lane.run.bytes_staged += lane.tally.restage_bytes;
}

MapResult Run::map_static(const std::vector<DeviceShare>& shares,
                          const std::vector<std::size_t>& counts) {
    std::vector<ocl::Device*> devices;
    devices.reserve(shares.size());
    for (const DeviceShare& s : shares) devices.push_back(s.device);
    ocl::Context context(devices);

    // Every device's slice is enqueued up front — shard by shard, each
    // shard in buffer-sized chunks — so the devices run concurrently
    // while the host collects their events below. Each chunk is a
    // stage -> kernel -> drain triple; with two buffer sets chunk k+1's
    // staging overlaps chunk k's kernel, so the steady-state cost per
    // chunk drops from stage+compute+drain to max(stage, compute, drain).
    std::vector<std::vector<Launch>> launched;
    std::size_t base = 0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        const std::size_t count = counts[d];
        if (count == 0) continue;
        Lane& lane = open_lane(context, *devices[d]);
        lane.run.reads = count;
        const BufferPlan plan = plan_buffers(*devices[d], count);
        if (plan.max_chunk < count) {
            util::logf(util::LogLevel::Info,
                       "%s: %zu reads exceed %s memory; running %zu-read "
                       "kernel invocations",
                       name_.c_str(), count, devices[d]->name().c_str(),
                       plan.max_chunk);
            if (auto* m = obs::metrics()) {
                m->counter("mapper.buffer_ceiling_splits")
                    .add((count + plan.max_chunk - 1) / plan.max_chunk - 1);
            }
        }
        allocate_sets(context, lane, plan.sets, plan.max_chunk);
        std::vector<Launch>& mine = launched.emplace_back();
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            for (std::size_t r = base; r < base + count;
                 r += plan.max_chunk) {
                mine.push_back(launch(lane, s * reads_ + r,
                                      std::min(plan.max_chunk,
                                               base + count - r)));
                drain(lane, mine.back());
            }
        }
        base += count;
    }

    // Task-parallel completion: the mapping time is the slowest
    // device's elapsed total — kernel execution plus staging stalls plus
    // the final drain tail. Everything comes from the run's own events,
    // so concurrent mappers sharing a device (the serve pool) cannot
    // skew each other's numbers.
    MapResult result;
    for (std::size_t d = 0; d < lanes_.size(); ++d) {
        Lane& lane = lanes_[d];
        DeviceRun& run = lane.run;
        account_images(lane);
        double exec_seconds = 0.0;
        double wait_seconds = 0.0;
        for (Launch& l : launched[d]) {
            account_write(lane, l);
            const ocl::LaunchStats& stats = l.kernel.wait();
            exec_seconds += stats.seconds;
            wait_seconds += stats.queue_wait_seconds;
            run.stats.items += stats.items;
            run.stats.total_ops += stats.total_ops;
            run.stats.scratch_bytes_per_item = stats.scratch_bytes_per_item;
            run.stats.utilization = stats.utilization;
            run.stage += settle(lane, l, stats);
        }
        const double drain_tail = lane.drain_tail();
        run.stats.seconds = exec_seconds;
        run.stall_seconds = wait_seconds + drain_tail;
        result.mapping_seconds =
            std::max(result.mapping_seconds,
                     exec_seconds + wait_seconds + drain_tail);
        result.device_runs.push_back(std::move(run));
    }
    return result;
}

MapResult Run::map_dynamic(const std::vector<DeviceShare>& shares) {
    // Fleet = shares whose device can run the kernel at all; the rest
    // are dropped up front (the scheduler would only quarantine them).
    std::vector<ocl::Device*> devices;
    std::vector<double> warm_start;
    for (const DeviceShare& s : shares) {
        if (scratch_ > s.device->profile().private_memory_per_unit) {
            util::logf(util::LogLevel::Info,
                       "%s: dropping %s (needs %llu B scratch/item)",
                       name_.c_str(), s.device->name().c_str(),
                       static_cast<unsigned long long>(scratch_));
            continue;
        }
        devices.push_back(s.device);
        warm_start.push_back(s.fraction);
    }
    if (devices.empty()) {
        throw ocl::OclError(ocl::OclStatus::OutOfResources,
                            name_ + ": no device can run this kernel");
    }
    ocl::Context context(devices);

    // Any chunk must fit the buffer budget of EVERY device, because a
    // failed chunk may be requeued anywhere in the fleet (the paper's
    // multi-run fallback, applied fleet-wide). Shard images are staged
    // lazily, at a device's first launch of each shard.
    std::vector<std::size_t> sets;
    std::size_t fleet_chunk_cap = std::numeric_limits<std::size_t>::max();
    for (ocl::Device* device : devices) {
        open_lane(context, *device);
        const BufferPlan plan = plan_buffers(
            *device, std::numeric_limits<std::uint64_t>::max());
        sets.push_back(plan.sets);
        fleet_chunk_cap = std::min(fleet_chunk_cap, plan.max_chunk);
    }
    const std::size_t units = slots.size();
    SchedulerConfig scheduler_config = config_.scheduler;
    scheduler_config.max_chunk_items =
        scheduler_config.max_chunk_items == 0
            ? fleet_chunk_cap
            : std::min(scheduler_config.max_chunk_items, fleet_chunk_cap);
    if (auto* m = obs::metrics()) {
        m->gauge("mapper.fleet_chunk_cap")
            .set(static_cast<double>(fleet_chunk_cap));
        if (fleet_chunk_cap < units) {
            m->counter("mapper.buffer_ceiling_splits").add();
        }
    }
    ChunkScheduler scheduler(devices, warm_start, scheduler_config);

    // Buffers sized to the largest planned chunk, reused across launches.
    std::size_t largest_chunk = 1;
    for (const ChunkRecord& c : scheduler.plan(units)) {
        largest_chunk = std::max(largest_chunk, c.count);
    }
    for (std::size_t d = 0; d < lanes_.size(); ++d) {
        allocate_sets(context, lanes_[d], sets[d], largest_chunk);
    }

    ScheduleStats schedule = scheduler.run(
        units, [&](ocl::Device& device, std::size_t begin,
                   std::size_t count) {
            Lane& lane = *std::find_if(
                lanes_.begin(), lanes_.end(),
                [&](const Lane& l) { return l.device == &device; });
            // A chunk may straddle shard boundaries in the flattened
            // unit space; it runs as one launch per shard segment.
            ocl::LaunchStats total;
            const std::size_t end = begin + count;
            for (std::size_t unit = begin; unit < end;) {
                const std::size_t segment_end =
                    std::min(end, (unit / reads_ + 1) * reads_);
                Launch l = launch(lane, unit, segment_end - unit);
                // The write cannot fault; account it before the kernel
                // wait so a retried chunk still shows the staging it
                // burned.
                account_write(lane, l);
                const ocl::LaunchStats stats = l.kernel.wait(); // throws
                drain(lane, l);
                settle(lane, l, stats);
                if (unit == begin) {
                    total = stats;
                } else {
                    total.items += stats.items;
                    total.total_ops += stats.total_ops;
                    total.seconds += stats.seconds;
                    total.queue_wait_seconds += stats.queue_wait_seconds;
                }
                unit = segment_end;
            }
            return total;
        });

    MapResult result;
    for (std::size_t d = 0; d < lanes_.size(); ++d) {
        Lane& lane = lanes_[d];
        DeviceScheduleStats& pd = schedule.per_device[d];
        account_images(lane);
        pd.stall_seconds += lane.drain_tail();
        DeviceRun& run = lane.run;
        run.reads = pd.items;
        run.stats = pd.stats;
        run.stall_seconds = pd.stall_seconds;
        for (const ChunkRecord& c : schedule.records) {
            if (c.device != d) continue;
            for (std::size_t u = c.begin; u < c.begin + c.count; ++u) {
                run.stage += unit_stages[u];
            }
        }
        result.device_runs.push_back(std::move(run));
    }
    result.mapping_seconds = schedule.makespan_seconds();
    result.schedule = std::move(schedule);
    return result;
}

void Run::export_shard_metrics() const {
    auto* m = obs::metrics();
    if (m == nullptr) return;
    m->gauge("shard.count").set(static_cast<double>(shards_.size()));
    m->gauge("shard.peak_resident_bytes")
        .set(static_cast<double>(image_cap_));
    for (const Lane& lane : lanes_) {
        m->counter("shard.residency_hits").add(lane.tally.hits);
        m->counter("shard.restages").add(lane.tally.restages);
        m->counter("shard.restage_bytes").add(lane.tally.restage_bytes);
        for (const double seconds : lane.tally.busy_by_shard) {
            if (seconds > 0.0) {
                m->histogram("shard.busy_seconds").observe(seconds);
            }
        }
    }
}

} // namespace

MapResult HeterogeneousMapper::map(const genomics::ReadBatch& batch,
                                   std::uint32_t delta) {
    validate_overhangs(batch, delta);
    Run run(name_, shards_, max_image_bytes(), *seeder_, config_, batch,
            delta);
    MapResult result;
    if (!batch.empty()) {
        result = config_.schedule == ScheduleMode::Dynamic
                     ? run.map_dynamic(shares_)
                     : run.map_static(shares_, split_workload(batch.size()));
    }

    // Shift per-shard outputs to global coordinates, then merge; a
    // single shard's output already is the monolithic list.
    const std::size_t reads = batch.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const std::uint32_t shift = shards_[s].text_offset;
        if (shift == 0) continue;
        for (std::size_t r = 0; r < reads; ++r) {
            for (ReadMapping& m : run.slots[s * reads + r]) {
                m.position += shift;
            }
        }
    }
    if (shards_.size() == 1) {
        result.per_read = std::move(run.slots);
    } else {
        result.per_read.resize(reads);
        std::vector<std::span<const ReadMapping>> spans(shards_.size());
        for (std::size_t r = 0; r < reads; ++r) {
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                spans[s] = run.slots[s * reads + r];
            }
            merge_sharded_read(spans, config_.kernel.max_locations_per_read,
                               result.per_read[r]);
        }
        run.export_shard_metrics();
    }
    finish_transfer_accounting(result);
    return result;
}

std::unique_ptr<HeterogeneousMapper> make_repute(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config) {
    return std::make_unique<HeterogeneousMapper>(
        "REPUTE", std::move(shards),
        std::make_unique<filter::MemoryOptimizedSeeder>(
            config.kernel.s_min),
        config, std::move(shares));
}

std::unique_ptr<HeterogeneousMapper> make_repute(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares, HeterogeneousMapperConfig config) {
    return make_repute(monolithic_view(reference, fm), std::move(shares),
                       config);
}

std::unique_ptr<HeterogeneousMapper> make_coral(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config) {
    config.kernel.collapse_candidates = false; // streaming verification
    return std::make_unique<HeterogeneousMapper>(
        "CORAL", std::move(shards),
        std::make_unique<filter::HeuristicSeeder>(config.kernel.s_min),
        config, std::move(shares));
}

std::unique_ptr<HeterogeneousMapper> make_coral(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares, HeterogeneousMapperConfig config) {
    return make_coral(monolithic_view(reference, fm), std::move(shares),
                      config);
}

std::vector<DeviceShare> balanced_shares(
    const std::vector<ocl::Device*>& devices,
    std::uint64_t scratch_bytes_per_item) {
    std::vector<DeviceShare> shares;
    shares.reserve(devices.size());
    for (ocl::Device* device : devices) {
        if (device == nullptr) continue;
        const auto& profile = device->profile();
        double fraction = 0.0;
        if (scratch_bytes_per_item <= profile.private_memory_per_unit) {
            fraction = profile.ops_per_unit_per_second *
                       profile.compute_units *
                       device->utilization_for_scratch(
                           scratch_bytes_per_item);
        }
        shares.push_back({device, fraction});
    }
    return shares;
}

} // namespace repute::core
