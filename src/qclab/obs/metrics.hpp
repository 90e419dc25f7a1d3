#pragma once

/// \file metrics.hpp
/// \brief Low-overhead global counters for the simulation engine.
///
/// A single process-wide Metrics registry accumulates
///  - the plain counters of the QCLAB_OBS_COUNTERS table below (gate
///    applications, bytes touched, branch spawns and prunes, shots,
///    simulations, noise channels, trajectories, batches, fusion,
///    dispatch conversions and fallbacks, tier fallbacks, sentinel
///    checks and alerts),
///  - label-indexed families: gate applications and bytes touched per
///    kernel path, dispatch routes, and live bytes per memory tier,
///  - gate applications per gate kind, and
///  - live and high-water state-vector memory (the mapped bytes of every
///    sim::StateBuffer, plus density matrices and trajectory states).
///
/// QCLAB_OBS_COUNTERS is the only list of plain counters.  Metrics
/// storage, readers and reset, the ObsSnapshot fields, and the
/// OpenMetrics, JSON, text and crash-dump exporters all expand it, so a
/// new counter is one table row plus its `metrics().add(Counter::k...)`
/// call site.
///
/// Hot-path hooks are relaxed atomic increments.  The per-kind gate
/// counters (string keyed, fed only by InstrumentedBackend) are sharded
/// per thread: each thread owns a shard and increments node-stable atomic
/// cells through a thread-local index, so steady-state recording takes no
/// mutex on any thread; shard mutexes are touched only when a thread sees
/// a gate kind for the first time and when snapshots/resets merge the
/// shards.  Under QCLAB_OBS_DISABLED every mutator body is discarded, so
/// readers return zero and instrumented call sites compile away.

#include <atomic>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qclab/obs/enabled.hpp"
#include "qclab/sim/dispatch_mode.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/state_tier.hpp"

/// The plain counters: X(enumerator, reader, exported name, help).  The
/// exported name is the JSON and crash-dump key and the OpenMetrics
/// family `qclab_<name>` (sample `qclab_<name>_total`); help is the
/// OpenMetrics HELP text, nullptr for none.
#define QCLAB_OBS_COUNTERS(X)                                                  \
  X(kGateApplications, gateApplications, "gate_applications",                  \
    "Gate applications counted by the instrumented backends.")                 \
  X(kBytesTouched, bytesTouched, "bytes_touched",                              \
    "Estimated state-vector bytes read and written.")                          \
  X(kBranchSpawns, branchSpawns, "branch_spawns", nullptr)                     \
  X(kBranchPrunes, branchPrunes, "branch_prunes", nullptr)                     \
  X(kShotsSampled, shotsSampled, "shots_sampled", nullptr)                     \
  X(kCircuitSimulations, circuitSimulations, "circuit_simulations", nullptr)   \
  X(kNoiseChannels, noiseChannelApplications, "noise_channel_applications",    \
    nullptr)                                                                   \
  X(kTrajectoryRuns, trajectoryRuns, "trajectory_runs", nullptr)               \
  X(kTrajectories, trajectoriesSimulated, "trajectories_simulated", nullptr)   \
  X(kBatchRuns, batchRuns, "batch_runs",                                       \
    "Batched multi-circuit executions (BatchedSimulation runs).")              \
  X(kBatchMembers, batchMembersSimulated, "batch_members_simulated",           \
    "Parameter-set members executed across all batch runs.")                   \
  X(kFusionGatesIn, fusionGatesIn, "fusion_gates_in", nullptr)                 \
  X(kFusionBlocks, fusionBlocks, "fusion_blocks_out", nullptr)                 \
  X(kFusionSweepsSaved, fusionSweepsSaved, "fusion_sweeps_saved", nullptr)     \
  X(kDispatchFallbacks, dispatchFallbacks, "dispatch_fallbacks",               \
    "Tableau-phase refusals that fell back to the statevector path.")          \
  X(kDispatchConversions, dispatchConversions, "dispatch_conversions",         \
    "Tableau branches expanded into statevectors at the conversion point.")    \
  X(kStateTierFallbacks, stateTierFallbacks, "state_tier_fallbacks",           \
    "mmap state allocations that fell back to the heap tier.")                 \
  X(kSentinelChecks, sentinelChecks, "sentinel_checks",                        \
    "Numerical-health checks performed by the sentinels.")                     \
  X(kSentinelNanDetected, sentinelNanDetected, "sentinel_nan_detected",        \
    "Sentinel checks that found non-finite amplitudes.")                       \
  X(kSentinelNormAlerts, sentinelNormAlerts, "sentinel_norm_alerts",           \
    "Sentinel checks that found norm drift beyond tolerance.")

namespace qclab::obs {

/// One enumerator per QCLAB_OBS_COUNTERS row.
enum class Counter : int {
#define QCLAB_OBS_ENUMERATOR(e, reader, name, help) e,
  QCLAB_OBS_COUNTERS(QCLAB_OBS_ENUMERATOR)
#undef QCLAB_OBS_ENUMERATOR
};

/// One table row as the exporters iterate it.
struct CounterRow {
  Counter counter;
  const char* name;  ///< exported name (static storage: signal-safe)
  const char* help;  ///< OpenMetrics HELP text, nullptr for none
};

/// Every plain counter, in table order.
inline constexpr CounterRow kCounterRows[] = {
#define QCLAB_OBS_ROW(e, reader, name, help) {Counter::e, name, help},
    QCLAB_OBS_COUNTERS(QCLAB_OBS_ROW)
#undef QCLAB_OBS_ROW
};

inline constexpr int kCounterCount = static_cast<int>(std::size(kCounterRows));

/// String-keyed counters sharded per thread.  Incrementing is mutex-free
/// once a (thread, key) pair is warm: the owner thread resolves the key
/// through its private index (no synchronization — only the owner touches
/// it) and bumps a node-stable std::atomic cell.  A shard's mutex guards
/// only cell creation and cross-thread reads (snapshot/reset), so the
/// recording threads never contend with each other.
class ShardedCounters {
  struct Shard {
    std::mutex mutex;  ///< guards `cells` growth and snapshot iteration
    /// deque: grow-only, never invalidates references to existing cells.
    std::deque<std::pair<std::string, std::atomic<std::uint64_t>>> cells;
  };

  /// Owner-thread-private view of one shard.
  struct LocalShard {
    std::shared_ptr<Shard> shard;
    std::unordered_map<std::string, std::atomic<std::uint64_t>*> index;
  };

 public:
  /// Adds `delta` to the counter named `key` (thread-safe, mutex-free for
  /// keys this thread has already used).
  void add(const std::string& key, std::uint64_t delta) {
    LocalShard& local = localShard();
    const auto hit = local.index.find(key);
    if (hit != local.index.end()) {
      hit->second->fetch_add(delta, std::memory_order_relaxed);
      return;
    }
    std::atomic<std::uint64_t>* cell;
    {
      const std::lock_guard<std::mutex> lock(local.shard->mutex);
      cell = &local.shard->cells.emplace_back(key, 0).second;
    }
    local.index.emplace(key, cell);
    cell->fetch_add(delta, std::memory_order_relaxed);
  }

  /// Merged totals over all shards, zero-valued keys omitted (so a reset
  /// registry snapshots as empty even though cells persist).
  std::map<std::string, std::uint64_t> snapshot() const {
    std::map<std::string, std::uint64_t> merged;
    for (const auto& shard : shardList()) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      for (const auto& [key, cell] : shard->cells) {
        const std::uint64_t value = cell.load(std::memory_order_relaxed);
        if (value != 0) merged[key] += value;
      }
    }
    return merged;
  }

  /// Zeroes every cell in every shard (cells stay registered: the owning
  /// threads keep their mutex-free fast path).
  void reset() {
    for (const auto& shard : shardList()) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      for (auto& [key, cell] : shard->cells) {
        cell.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  /// This thread's shard for this registry instance, created and
  /// registered on first use.  Shards are shared_ptr-owned by both the
  /// registry and the thread-local map, so they survive either's exit.
  LocalShard& localShard() {
    thread_local std::unordered_map<const ShardedCounters*, LocalShard>
        perInstance;
    LocalShard& local = perInstance[this];
    if (!local.shard) {
      local.shard = std::make_shared<Shard>();
      const std::lock_guard<std::mutex> lock(registryMutex_);
      shards_.push_back(local.shard);
    }
    return local;
  }

  std::vector<std::shared_ptr<Shard>> shardList() const {
    const std::lock_guard<std::mutex> lock(registryMutex_);
    return shards_;
  }

  mutable std::mutex registryMutex_;
  std::vector<std::shared_ptr<Shard>> shards_;
};

/// Relaxed atomic counters indexed by an enum label: the one cell type
/// behind the per-path, per-route and per-tier families.
template <typename Label, int N>
class LabeledCounters {
 public:
  void add(Label label, std::uint64_t n) noexcept {
    cells_[static_cast<int>(label)].fetch_add(n, std::memory_order_relaxed);
  }

  void sub(Label label, std::uint64_t n) noexcept {
    cells_[static_cast<int>(label)].fetch_sub(n, std::memory_order_relaxed);
  }

  std::uint64_t operator[](Label label) const noexcept {
    return cells_[static_cast<int>(label)].load(std::memory_order_relaxed);
  }

  /// Copy of every cell, indexed by label.
  std::vector<std::uint64_t> values() const {
    std::vector<std::uint64_t> out(N);
    for (int i = 0; i < N; ++i) {
      out[static_cast<std::size_t>(i)] =
          cells_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() noexcept {
    for (auto& cell : cells_) cell.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> cells_[N] = {};
};

using PathCounters = LabeledCounters<sim::KernelPath, sim::kKernelPathCount>;
using RouteCounters =
    LabeledCounters<sim::DispatchRoute, sim::kDispatchRouteCount>;
using TierCounters = LabeledCounters<sim::StateTier, sim::kStateTierCount>;

/// Process-wide counter registry.  All mutators are thread-safe; reads are
/// snapshots (relaxed, no cross-counter consistency guarantee).
class Metrics {
 public:
  // ---- mutators -------------------------------------------------------

  /// Adds `n` to the plain counter `counter`.
  void add(Counter counter, std::uint64_t n = 1) {
    if constexpr (kEnabled) {
      counters_[static_cast<int>(counter)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }

  /// Records one gate application dispatched to `path`, touching an
  /// estimated `bytes` of state-vector memory.  `kind` is the gate
  /// mnemonic (same key scheme as QCircuit::gateCounts); pass nullptr to
  /// skip the per-kind counters (bare counter-only call sites).
  void countGate(sim::KernelPath path, const char* kind,
                 std::uint64_t bytes) {
    if constexpr (kEnabled) {
      add(Counter::kGateApplications);
      add(Counter::kBytesTouched, bytes);
      gateByPath_.add(path, 1);
      bytesByPath_.add(path, bytes);
      if (kind != nullptr) gateByKind_.add(kind, 1);
    }
  }

  /// Records one dispatched circuit execution routed as `route`
  /// (statevector / stabilizer / hybrid).
  void countDispatchRoute(sim::DispatchRoute route) {
    if constexpr (kEnabled) dispatchRoutes_.add(route, 1);
  }

  /// Attributes `bytes` of newly live simulation state (state buffers,
  /// density matrices, trajectory states) and raises the high-water mark.
  void addStateBytes(std::uint64_t bytes) {
    if constexpr (kEnabled) {
      const std::uint64_t now =
          stateBytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
      std::uint64_t peak = peakStateBytes_.load(std::memory_order_relaxed);
      while (now > peak &&
             !peakStateBytes_.compare_exchange_weak(
                 peak, now, std::memory_order_relaxed)) {
      }
    }
  }

  /// Releases `bytes` of simulation state (buffer freed or handed off).
  void releaseStateBytes(std::uint64_t bytes) {
    if constexpr (kEnabled) {
      stateBytes_.fetch_sub(bytes, std::memory_order_relaxed);
    }
  }

  /// Attributes `bytes` of state to a resolved memory tier
  /// (sim::StateBuffer, the only attributor of state-vector bytes): the
  /// state's size on either tier, so it also counts as live state bytes.
  void addTierBytes(sim::StateTier tier, std::uint64_t bytes) {
    if constexpr (kEnabled) {
      tierMapped_.add(tier, bytes);
      addStateBytes(bytes);
    }
  }

  /// Releases tier-attributed bytes (buffer freed or handed off).
  void releaseTierBytes(sim::StateTier tier, std::uint64_t bytes) {
    if constexpr (kEnabled) {
      tierMapped_.sub(tier, bytes);
      releaseStateBytes(bytes);
    }
  }

  /// Zeroes every counter (start of a measured region / test).  The
  /// high-water mark restarts from the currently live state bytes, so
  /// long-lived simulations stay attributed; the tier byte gauges track
  /// live allocations too and are kept.
  void reset() {
    for (auto& counter : counters_) {
      counter.store(0, std::memory_order_relaxed);
    }
    gateByPath_.reset();
    bytesByPath_.reset();
    dispatchRoutes_.reset();
    peakStateBytes_.store(stateBytes_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    gateByKind_.reset();
  }

  // ---- readers --------------------------------------------------------

  /// Value of the plain counter `counter` since the last reset.
  std::uint64_t value(Counter counter) const {
    return counters_[static_cast<int>(counter)].load(
        std::memory_order_relaxed);
  }

#define QCLAB_OBS_READER(e, reader, name, help) \
  std::uint64_t reader() const { return value(Counter::e); }
  QCLAB_OBS_COUNTERS(QCLAB_OBS_READER)
#undef QCLAB_OBS_READER

  /// Gate applications dispatched to `path`.
  std::uint64_t gateApplications(sim::KernelPath path) const {
    return gateByPath_[path];
  }

  /// Estimated bytes touched by applications dispatched to `path`.
  std::uint64_t bytesTouched(sim::KernelPath path) const {
    return bytesByPath_[path];
  }

  /// Dispatched circuit executions routed as `route`.
  std::uint64_t dispatchRoutes(sim::DispatchRoute route) const {
    return dispatchRoutes_[route];
  }

  /// Mapped (address-space) bytes currently attributed to `tier`.
  std::uint64_t tierMappedBytes(sim::StateTier tier) const {
    return tierMapped_[tier];
  }

  /// The label-indexed families, for snapshots.
  const PathCounters& gatesByPath() const { return gateByPath_; }
  const PathCounters& bytesByPath() const { return bytesByPath_; }
  const RouteCounters& routes() const { return dispatchRoutes_; }
  const TierCounters& tierMapped() const { return tierMapped_; }

  /// Snapshot of the per-kind counters (InstrumentedBackend runs only).
  std::map<std::string, std::uint64_t> gateKinds() const {
    return gateByKind_.snapshot();
  }

  /// Currently live simulation-state bytes.
  std::uint64_t currentStateBytes() const {
    return stateBytes_.load(std::memory_order_relaxed);
  }

  /// High-water mark of currentStateBytes() since the last reset.
  std::uint64_t peakStateBytes() const {
    return peakStateBytes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
  PathCounters gateByPath_;
  PathCounters bytesByPath_;
  RouteCounters dispatchRoutes_;
  TierCounters tierMapped_;
  std::atomic<std::uint64_t> stateBytes_{0};
  std::atomic<std::uint64_t> peakStateBytes_{0};
  ShardedCounters gateByKind_;
};

/// The process-wide registry.
inline Metrics& metrics() {
  static Metrics instance;
  return instance;
}

/// Attributes `bytes` of simulation state held outside a sim::StateBuffer
/// (a density matrix, a trajectory worker's state) to the live and
/// high-water state bytes for the object's lifetime.
class ScopedStateBytes {
 public:
  explicit ScopedStateBytes(std::uint64_t bytes) noexcept : bytes_(bytes) {
    metrics().addStateBytes(bytes_);
  }
  ScopedStateBytes(const ScopedStateBytes&) = delete;
  ScopedStateBytes& operator=(const ScopedStateBytes&) = delete;
  ~ScopedStateBytes() { metrics().releaseStateBytes(bytes_); }

 private:
  std::uint64_t bytes_;
};

}  // namespace qclab::obs
