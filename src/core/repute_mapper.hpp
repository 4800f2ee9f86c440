#pragma once
// REPUTE's host program: multi-device task-parallel mapping over FM-index
// shards.
//
// The host (paper §III) splits the read set across OpenCL devices per a
// user-specified distribution, allocates the static buffers each device
// needs (index + reference, read chunk, first-n output), launches the
// map kernel on every device's queue simultaneously, and merges results.
// When a chunk's output buffer would violate a device's allocation
// ceiling, the chunk is processed in several smaller kernel runs — the
// exact fallback the paper describes ("we have to limit the number of
// mappings per read or run the kernel multiple times with smaller read
// sets").
//
// One engine serves monolithic and sharded indexes: a monolithic index
// is the one-shard plan {&reference, &fm, 0, 0, fm.size()}. A sharded
// reference (index/shard_plan.hpp, index/rixm.hpp) lifts the
// quarter-of-RAM allocation ceiling (ocl::DeviceProfile::
// max_single_allocation — the paper's OpenCL 1.2 embedded constraint)
// that a monolithic image must fit: every read batch is mapped against
// every shard, with (shard, read) as the work unit, and only the
// current shard's image is resident per device.
//
// Output identity: each shard indexes its slice plus an overlap
// overhang into its neighbours, and its kernel runs with the ownership
// window [own_lo, own_hi) (KernelConfig::report_lo/report_hi), so a
// shard's per-read list is exactly the monolithic list restricted to
// its owned positions — candidates are filtered before verification
// and before first-n cap counting. merge_sharded_read() then rebuilds
// the monolithic generation order (forward accepts across shards in
// base order, then reverse), reapplies the cap at the same point, and
// sorts — byte-identical SAM downstream for the collapse-on (REPUTE)
// flow. The CORAL streaming flow re-verifies duplicate windows, and
// those duplicates consume monolithic cap slots before dedup; a
// cap-bound CORAL read can therefore differ — documented in DESIGN.md
// §5g.
//
// Scheduling: the static split walks shards in order per device
// (restaging the resident image between shards, double-buffered read
// chunks within a shard); the dynamic path flattens (shard, read) into
// one unit space for the work-stealing ChunkScheduler and keeps a
// per-device resident-shard affinity — a chunk whose shard is already
// resident skips the restage (shard.residency_hits), others pay it
// (shard.restages / shard.restage_bytes).
//
// The same host logic with the heuristic seeder is CORAL (the OpenCL
// predecessor REPUTE is compared against), so the class is parameterized
// by the Seeder and both tools are thin factories over it.

#include <memory>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/mapping.hpp"
#include "filter/seed.hpp"
#include "genomics/sequence.hpp"
#include "index/fm_index.hpp"
#include "ocl/context.hpp"
#include "ocl/queue.hpp"

namespace repute::index {
class ShardedIndex;
} // namespace repute::index

namespace repute::core {

/// A device plus the fraction of the read set it should map.
struct DeviceShare {
    ocl::Device* device = nullptr;
    double fraction = 1.0;
};

enum class ScheduleMode {
    /// Paper-fidelity (§III-B): one contiguous slice per device,
    /// committed up front. The default — benchmark numbers meant to be
    /// compared with the paper use this path.
    StaticSplit,
    /// Dynamic chunked work-stealing with fault recovery (scheduler.hpp):
    /// the shares become a warm start, idle devices steal queued chunks,
    /// failed chunks are retried on the surviving fleet.
    Dynamic,
};

struct HeterogeneousMapperConfig {
    KernelConfig kernel;
    /// Wall power the mapper draws relative to device calibration.
    double power_scale = 1.0;
    ScheduleMode schedule = ScheduleMode::StaticSplit;
    /// Chunking/retry knobs for ScheduleMode::Dynamic.
    SchedulerConfig scheduler;
    /// Stage chunk k+1's buffers while chunk k executes, through a
    /// second buffer set chained via event wait-lists. Only takes
    /// effect on devices whose TransferSpec is modeled (staging is free
    /// otherwise, and one buffer set keeps chunk sizing unchanged);
    /// output is byte-identical either way.
    bool double_buffer = true;
};

/// Non-owning view of one shard as the mapper consumes it. Local
/// coordinates index the shard's own text (owned slice + overhangs);
/// `text_offset` places local 0 in the concatenated reference.
struct ShardView {
    const genomics::Reference* reference = nullptr;
    const index::FmIndex* fm = nullptr;
    std::uint32_t text_offset = 0;
    std::uint32_t own_lo = 0; ///< local start of the owned range
    std::uint32_t own_hi = 0; ///< local end (exclusive)

    /// Global start of the owned range.
    std::uint32_t base() const noexcept { return text_offset + own_lo; }
    /// Device image bytes for this shard (packed text + index).
    std::uint64_t image_bytes() const noexcept {
        return reference->sequence().memory_bytes() + fm->memory_bytes();
    }
};

/// Views over an opened .rixm sharded index (which must outlive them).
std::vector<ShardView> shard_views_of(const index::ShardedIndex& index);
/// The one-shard plan of a monolithic index: {&reference, &fm, 0, 0,
/// fm.size()}.
std::vector<ShardView> monolithic_view(const genomics::Reference& reference,
                                       const index::FmIndex& fm);

/// Deterministic per-read merge of per-shard mapping lists into the
/// monolithic result. Each entry of `per_shard` is one shard's kernel
/// output for the read — owned positions only, already shifted to
/// global coordinates, sorted by (position, strand) and deduplicated —
/// in shard base order. Rebuilds generation order (forward accepts
/// across shards, then reverse), truncates at `max_locations` exactly
/// where the monolithic kernel would, then sorts and deduplicates.
void merge_sharded_read(
    std::span<const std::span<const ReadMapping>> per_shard,
    std::uint32_t max_locations, std::vector<ReadMapping>& out);

class HeterogeneousMapper final : public Mapper {
public:
    /// `shards` must be non-empty, ordered by base, tile the reference
    /// and outlive the mapper (they are views). Shares are normalized;
    /// zero-fraction shares are dropped. Throws std::invalid_argument
    /// when no usable share remains.
    HeterogeneousMapper(std::string display_name,
                        std::vector<ShardView> shards,
                        std::unique_ptr<filter::Seeder> seeder,
                        HeterogeneousMapperConfig config,
                        std::vector<DeviceShare> shares);

    /// Maps the batch against every shard and merges. Throws
    /// std::invalid_argument when the shard overhangs are too small for
    /// this batch (needs overlap >= read_length + delta) — remapping
    /// with a bigger --overlap is the fix, not silent wrong output.
    MapResult map(const genomics::ReadBatch& batch,
                  std::uint32_t delta) override;

    std::string_view name() const noexcept override { return name_; }
    double power_scale() const noexcept override {
        return config_.power_scale;
    }

    const filter::Seeder& seeder() const noexcept { return *seeder_; }
    const HeterogeneousMapperConfig& config() const noexcept {
        return config_;
    }
    /// Largest per-shard device image — what the resident buffer holds
    /// (the per-device peak index residency).
    std::uint64_t max_image_bytes() const noexcept;

    /// Number of reads of `total` assigned to each share, in order.
    std::vector<std::size_t> split_workload(std::size_t total) const;

private:
    void validate_overhangs(const genomics::ReadBatch& batch,
                            std::uint32_t delta) const;

    std::string name_;
    std::vector<ShardView> shards_;
    std::unique_ptr<filter::Seeder> seeder_;
    HeterogeneousMapperConfig config_;
    std::vector<DeviceShare> shares_;
};

/// REPUTE with the paper's memory-optimized DP seeder. The minimum
/// k-mer length (and every other kernel/host knob) lives in exactly one
/// place: `config.kernel.s_min` — the seeder is built from it. The
/// shard-view overload maps a sharded index; the (reference, fm) one is
/// its one-shard plan.
std::unique_ptr<HeterogeneousMapper> make_repute(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});
std::unique_ptr<HeterogeneousMapper> make_repute(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

/// CORAL: the same OpenCL host flow with the serial variable-length
/// k-mer heuristic and the streaming verification flow
/// (`config.kernel.collapse_candidates` is forced off).
std::unique_ptr<HeterogeneousMapper> make_coral(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});
std::unique_ptr<HeterogeneousMapper> make_coral(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

/// Workload shares proportional to each device's occupancy-adjusted
/// throughput for a kernel with the given per-item scratch requirement —
/// the "judicious distribution" the paper calls for (§IV, Fig. 3).
/// Devices that cannot run the kernel at all (scratch over their private
/// memory) receive a zero share.
std::vector<DeviceShare> balanced_shares(
    const std::vector<ocl::Device*>& devices,
    std::uint64_t scratch_bytes_per_item);

} // namespace repute::core
