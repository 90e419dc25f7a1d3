#pragma once

/// \file state_buffer.hpp
/// \brief Tiered storage for statevector amplitudes.
///
/// A `StateBuffer<T>` owns the 2^n amplitudes of one simulation branch
/// and picks, by size, WHERE they live (the tier ladder; DESIGN.md,
/// "Tiered state memory"):
///
///  - **heap**  — a plain `std::vector` (the historical representation;
///    small states, and the fallback for everything below).  Large heap
///    states get a transparent-hugepage `madvise` on their page-aligned
///    interior.
///  - **numa**  — an anonymous private mapping whose pages are placed by
///    an OpenMP *first-touch* zero-fill over the SAME even static
///    partition the blocked executor uses for its chunk loop
///    (`staticPartition`, memory_advisor.hpp), so on a multi-socket box
///    each socket's threads keep streaming the chunks whose pages they
///    faulted in.  No libnuma: nodes are counted via
///    /sys/devices/system/node and a single-node box simply gets an
///    ordinary (hugepage-advised) mapping.
///  - **mmap**  — an out-of-core tier backing the state with an
///    unlinked temporary file (`MAP_SHARED`), so states larger than RAM
///    spill to disk under kernel paging.  The buffer exposes a
///    `MemoryAdvisor` that the blocked executor drives along its
///    `BlockSchedule` walk: `madvise(MADV_WILLNEED)` on upcoming
///    granules, `MADV_DONTNEED` on retired ones — safe precisely
///    because the mapping is file-backed and shared (dropped dirty
///    pages are page-cache pages the file persists).
///
/// Tier selection is automatic by state size (`chooseStateTier`), with
/// `SimulateOptions::stateTier` and the `QCLAB_STATE_TIER` /
/// `QCLAB_STATE_DIR` environment knobs overriding it, and EVERY tier
/// degrades gracefully to the heap when the platform, the filesystem,
/// or the node topology can't serve it.  All tiers are bit-identical:
/// the executors see only `data()`/`size()`.

#include <algorithm>
#include <atomic>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/metrics.hpp"
#include "qclab/sim/memory_advisor.hpp"
#include "qclab/util/errors.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define QCLAB_STATE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define QCLAB_STATE_HAS_MMAP 0
#endif

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::sim {

/// Tuning knobs of the tier ladder (SimulateOptions::stateTier).
struct StateTierOptions {
  /// Requested tier; kAuto picks by state size (and degrades to heap
  /// whenever a higher tier is unavailable).
  StateTier tier = StateTier::kAuto;
  /// Auto mode considers the NUMA tier only at/above this size (small
  /// states fit one socket's cache hierarchy anyway).
  std::size_t numaMinBytes = std::size_t{256} << 20;
  /// Auto mode goes out-of-core at/above this size; 0 = three quarters
  /// of /proc/meminfo MemAvailable (16 GiB when unreadable).
  std::size_t mmapMinBytes = 0;
  /// Backing-file directory for the mmap tier; empty = QCLAB_STATE_DIR,
  /// then TMPDIR, then /tmp.
  std::string directory;
  /// Advise transparent huge pages on large heap/NUMA allocations.
  bool hugePages = true;
};

/// The QCLAB_STATE_TIER environment variable ("auto" / "heap" / "numa" /
/// "mmap") overrides the requested tier (mirroring QCLAB_DISPATCH);
/// unknown values are ignored.
inline StateTier resolveStateTier(StateTier requested) noexcept {
  const char* env = std::getenv("QCLAB_STATE_TIER");
  if (env == nullptr) return requested;
  if (std::strcmp(env, "auto") == 0) return StateTier::kAuto;
  if (std::strcmp(env, "heap") == 0) return StateTier::kHeap;
  if (std::strcmp(env, "numa") == 0) return StateTier::kNuma;
  if (std::strcmp(env, "mmap") == 0) return StateTier::kMmap;
  return requested;
}

/// Number of NUMA nodes, detected without libnuma by probing
/// /sys/devices/system/node/node<i>.  Returns 1 when the sysfs tree is
/// absent (non-Linux, containers) — i.e. "no placement to do".  Nodes
/// numbered sparsely after offlining undercount; that only makes the
/// auto ladder more conservative.
inline int numaNodeCount() noexcept {
#if QCLAB_STATE_HAS_MMAP
  int count = 0;
  for (int i = 0; i < 1024; ++i) {
    char path[64];
    std::snprintf(path, sizeof(path), "/sys/devices/system/node/node%d", i);
    if (::access(path, F_OK) != 0) break;
    ++count;
  }
  return count > 0 ? count : 1;
#else
  return 1;
#endif
}

/// MemAvailable from /proc/meminfo, in bytes; 0 when unreadable.
inline std::size_t availableMemoryBytes() noexcept {
  std::size_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/meminfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "MemAvailable: %zu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb * 1024;
}

/// Backing-file directory for the mmap tier: options.directory, then
/// QCLAB_STATE_DIR, then TMPDIR, then /tmp.
inline std::string stateDirectory(const StateTierOptions& options) {
  if (!options.directory.empty()) return options.directory;
  if (const char* env = std::getenv("QCLAB_STATE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  if (const char* tmp = std::getenv("TMPDIR");
      tmp != nullptr && *tmp != '\0') {
    return tmp;
  }
  return "/tmp";
}

/// Resolves the tier a `bytes`-sized state should be allocated on:
/// explicit requests (options or QCLAB_STATE_TIER) win; auto walks the
/// ladder by size.  The result is still a *request* — allocation
/// degrades to heap when the tier is unavailable.
inline StateTier chooseStateTier(std::size_t bytes,
                                 const StateTierOptions& options) noexcept {
  const StateTier tier = resolveStateTier(options.tier);
  if (tier != StateTier::kAuto) return tier;
  std::size_t outOfCoreMin = options.mmapMinBytes;
  if (outOfCoreMin == 0) {
    const std::size_t available = availableMemoryBytes();
    outOfCoreMin =
        available != 0 ? available / 4 * 3 : (std::size_t{16} << 30);
  }
  if (bytes >= outOfCoreMin) return StateTier::kMmap;
  if (bytes >= options.numaMinBytes && numaNodeCount() > 1) {
    return StateTier::kNuma;
  }
  return StateTier::kHeap;
}

namespace detail {

/// Size threshold for bothering the kernel with hugepage advice.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises transparent huge pages on the page-aligned interior of an
/// arbitrary buffer (heap allocations are not page-aligned; madvise
/// accepts any page-aligned subrange).  Best-effort, Linux-only.
inline void adviseHugePages(void* data, std::size_t bytes) noexcept {
#if QCLAB_STATE_HAS_MMAP && defined(MADV_HUGEPAGE)
  if (bytes < kHugePageBytes) return;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (addr + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(page - 1);
  if (hi > lo) {
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

/// Prefetch advisor of the out-of-core tier.  Batches madvise calls at
/// an 8 MiB granule and tracks per-granule residency in atomic flags,
/// so concurrent per-thread walkers from the blocked executor dedup
/// their advice without locks: a granule someone already faulted in is
/// a prefetch HIT (counted, no syscall), a fresh one is ISSUED, a
/// dropped one RETIRED.  Residency known to the advisor feeds the
/// per-tier resident-bytes gauge (kernel reclaim can evict more; this
/// is the upper bound the advisor maintains).
class MmapAdvisor final : public MemoryAdvisor {
 public:
  MmapAdvisor(void* base, std::uint64_t bytes) noexcept
      : base_(static_cast<unsigned char*>(base)),
        bytes_(bytes),
        granules_((bytes + kGranule - 1) / kGranule),
        resident_(std::make_unique<std::atomic<std::uint8_t>[]>(
            granules_ != 0 ? granules_ : 1)) {
    for (std::uint64_t g = 0; g < granules_; ++g) {
      resident_[g].store(0, std::memory_order_relaxed);
    }
  }

  ~MmapAdvisor() override {
    if constexpr (obs::kEnabled) {
      const std::uint64_t left =
          residentBytes_.load(std::memory_order_relaxed);
      if (left != 0) {
        obs::metrics().releaseTierBytes(StateTier::kMmap, left, 0);
      }
    }
  }

  std::uint64_t granuleBytes() const noexcept override { return kGranule; }

  void willNeed(std::uint64_t offsetBytes,
                std::uint64_t bytes) noexcept override {
    if (bytes == 0 || offsetBytes >= bytes_) return;
    const std::uint64_t end = std::min(offsetBytes + bytes, bytes_);
    std::uint64_t issued = 0, hits = 0, issuedBytes = 0;
    for (std::uint64_t g = offsetBytes / kGranule; g * kGranule < end; ++g) {
      if (resident_[g].exchange(1, std::memory_order_relaxed) != 0) {
        ++hits;
        continue;
      }
      const std::uint64_t len = granuleLength(g);
#if QCLAB_STATE_HAS_MMAP
      ::madvise(base_ + g * kGranule, len, MADV_WILLNEED);
#endif
      ++issued;
      issuedBytes += len;
    }
    if constexpr (obs::kEnabled) {
      if (issued != 0) {
        obs::metrics().add(obs::Counter::kPrefetchIssued, issued);
      }
      if (hits != 0) obs::metrics().add(obs::Counter::kPrefetchHits, hits);
      if (issuedBytes != 0) {
        residentBytes_.fetch_add(issuedBytes, std::memory_order_relaxed);
        obs::metrics().addTierBytes(StateTier::kMmap, issuedBytes, 0);
      }
    }
  }

  void retire(std::uint64_t offsetBytes,
              std::uint64_t bytes) noexcept override {
    if (bytes == 0 || offsetBytes >= bytes_) return;
    const std::uint64_t end = std::min(offsetBytes + bytes, bytes_);
    // Only granules FULLY inside the range: a straddling granule may
    // still be live in a neighbour thread's chunk span.
    std::uint64_t first = (offsetBytes + kGranule - 1) / kGranule;
    std::uint64_t retired = 0, retiredBytes = 0;
    for (std::uint64_t g = first; (g + 1) * kGranule <= end; ++g) {
      if (resident_[g].exchange(0, std::memory_order_relaxed) == 0) continue;
      const std::uint64_t len = granuleLength(g);
#if QCLAB_STATE_HAS_MMAP
      ::madvise(base_ + g * kGranule, len, MADV_DONTNEED);
#endif
      ++retired;
      retiredBytes += len;
    }
    if constexpr (obs::kEnabled) {
      if (retired != 0) {
        obs::metrics().add(obs::Counter::kPrefetchRetired, retired);
        residentBytes_.fetch_sub(retiredBytes, std::memory_order_relaxed);
        obs::metrics().releaseTierBytes(StateTier::kMmap, retiredBytes, 0);
      }
    }
  }

 private:
  static constexpr std::uint64_t kGranule = std::uint64_t{8} << 20;

  std::uint64_t granuleLength(std::uint64_t g) const noexcept {
    return std::min(kGranule, bytes_ - g * kGranule);
  }

  unsigned char* base_;
  std::uint64_t bytes_;
  std::uint64_t granules_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> resident_;
  std::atomic<std::uint64_t> residentBytes_{0};
};

}  // namespace detail

/// Owns one branch's amplitudes on one of the three tiers.  Constructed
/// implicitly from a `std::vector` (heap tier — the historical
/// representation every call site already produces) or via `zeros`
/// (tier chosen by size).  The executors only use data()/size(); the
/// blocked executor additionally discovers `advisor()` through an
/// `if constexpr (requires ...)` probe.
template <typename T>
class StateBuffer {
 public:
  using value_type = std::complex<T>;

  StateBuffer() = default;

  /// Adopts a heap vector (implicit: every legacy `std::vector` state
  /// flows into Simulation through this).
  StateBuffer(std::vector<value_type> state) : vec_(std::move(state)) {
    trackAlloc(byteSize(), byteSize());
  }

  /// Allocates a zeroed `dim`-amplitude state on the tier
  /// `chooseStateTier(dim * sizeof(value_type), options)` resolves,
  /// degrading to the heap tier (and counting `state_tier_fallbacks`)
  /// when the choice is unavailable.
  static StateBuffer zeros(std::size_t dim,
                           const StateTierOptions& options = {}) {
    StateBuffer buffer;
    buffer.options_ = options;
    const StateTier tier = chooseStateTier(dim * sizeof(value_type), options);
    if ((tier == StateTier::kMmap && buffer.allocateMmap(dim)) ||
        (tier == StateTier::kNuma && buffer.allocateNuma(dim))) {
      return buffer;
    }
    if (tier != StateTier::kHeap) {
      obs::metrics().add(obs::Counter::kStateTierFallbacks);
    }
    buffer.allocateHeap(dim);
    return buffer;
  }

  StateBuffer(const StateBuffer& other) { assign(other); }

  StateBuffer& operator=(const StateBuffer& other) {
    if (this != &other) {
      release();
      assign(other);
    }
    return *this;
  }

  StateBuffer(StateBuffer&& other) noexcept
      : vec_(std::move(other.vec_)),
        map_(std::exchange(other.map_, nullptr)),
        mapElems_(std::exchange(other.mapElems_, 0)),
        mapBytes_(std::exchange(other.mapBytes_, 0)),
        tier_(std::exchange(other.tier_, StateTier::kHeap)),
        advisor_(std::move(other.advisor_)),
        options_(std::move(other.options_)),
        trackedResident_(std::exchange(other.trackedResident_, 0)),
        trackedMapped_(std::exchange(other.trackedMapped_, 0)) {
    other.vec_.clear();
  }

  StateBuffer& operator=(StateBuffer&& other) noexcept {
    if (this != &other) {
      release();
      vec_ = std::move(other.vec_);
      other.vec_.clear();
      map_ = std::exchange(other.map_, nullptr);
      mapElems_ = std::exchange(other.mapElems_, 0);
      mapBytes_ = std::exchange(other.mapBytes_, 0);
      tier_ = std::exchange(other.tier_, StateTier::kHeap);
      advisor_ = std::move(other.advisor_);
      options_ = std::move(other.options_);
      trackedResident_ = std::exchange(other.trackedResident_, 0);
      trackedMapped_ = std::exchange(other.trackedMapped_, 0);
    }
    return *this;
  }

  /// Adopts a heap vector into an existing buffer (e.g. a tableau ->
  /// statevector conversion landing in a branch).
  StateBuffer& operator=(std::vector<value_type>&& state) {
    release();
    vec_ = std::move(state);
    trackAlloc(byteSize(), byteSize());
    return *this;
  }

  ~StateBuffer() { release(); }

  value_type* data() noexcept {
    return tier_ == StateTier::kHeap ? vec_.data() : map_;
  }
  const value_type* data() const noexcept {
    return tier_ == StateTier::kHeap ? vec_.data() : map_;
  }
  std::size_t size() const noexcept {
    return tier_ == StateTier::kHeap ? vec_.size() : mapElems_;
  }
  bool empty() const noexcept { return size() == 0; }
  value_type& operator[](std::size_t i) noexcept { return data()[i]; }
  const value_type& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  value_type* begin() noexcept { return data(); }
  value_type* end() noexcept { return data() + size(); }
  const value_type* begin() const noexcept { return data(); }
  const value_type* end() const noexcept { return data() + size(); }

  /// The tier this buffer's amplitudes live on.
  StateTier tier() const noexcept { return tier_; }

  /// Elementwise equality across any pair of tiers.
  friend bool operator==(const StateBuffer& a, const StateBuffer& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

  /// The prefetch advisor of the out-of-core tier (nullptr otherwise);
  /// the blocked executor drives it along its chunk walk.
  MemoryAdvisor* advisor() const noexcept { return advisor_.get(); }

  /// The underlying heap vector — heap tier only (the compatibility
  /// accessor behind Simulation::state()); tiered states must be read
  /// through data()/toVector() instead.
  const std::vector<value_type>& vector() const {
    util::require(tier_ == StateTier::kHeap,
                  "StateBuffer::vector(): state lives on the " +
                      std::string(stateTierName(tier_)) +
                      " tier; use data()/toVector()");
    return vec_;
  }

  /// Copies the amplitudes out into a plain vector (any tier).
  std::vector<value_type> toVector() const {
    if (tier_ == StateTier::kHeap) return vec_;
    return std::vector<value_type>(map_, map_ + mapElems_);
  }

  /// Moves the amplitudes out as a plain vector, leaving the buffer
  /// empty (heap: steals the vector; tiered: copies, then unmaps).
  std::vector<value_type> takeVector() {
    if (tier_ == StateTier::kHeap) {
      untrack();
      return std::exchange(vec_, {});
    }
    std::vector<value_type> out(map_, map_ + mapElems_);
    release();
    return out;
  }

 private:
  std::uint64_t byteSize() const noexcept {
    return static_cast<std::uint64_t>(size()) * sizeof(value_type);
  }

  void trackAlloc(std::uint64_t resident, std::uint64_t mapped) noexcept {
    trackedResident_ = resident;
    trackedMapped_ = mapped;
    if constexpr (obs::kEnabled) {
      if (resident != 0 || mapped != 0) {
        obs::metrics().addTierBytes(tier_, resident, mapped);
      }
    }
  }

  void untrack() noexcept {
    if constexpr (obs::kEnabled) {
      if (trackedResident_ != 0 || trackedMapped_ != 0) {
        obs::metrics().releaseTierBytes(tier_, trackedResident_,
                                        trackedMapped_);
      }
    }
    trackedResident_ = 0;
    trackedMapped_ = 0;
  }

  void release() noexcept {
    untrack();
    advisor_.reset();  // flushes its remaining resident accounting
#if QCLAB_STATE_HAS_MMAP
    if (map_ != nullptr) ::munmap(map_, mapBytes_);
#endif
    map_ = nullptr;
    mapElems_ = 0;
    mapBytes_ = 0;
    vec_ = std::vector<value_type>();
    tier_ = StateTier::kHeap;
  }

  void assign(const StateBuffer& other) {
    options_ = other.options_;
    if (other.tier_ == StateTier::kNuma && allocateNuma(other.size())) {
      parallelCopy(other.data());
      return;
    }
    if (other.tier_ == StateTier::kMmap && allocateMmap(other.size())) {
      std::memcpy(map_, other.data(), mapBytes_);
      return;
    }
    // Heap source, or a tier that could not be re-allocated: heap copy.
    if (other.tier_ != StateTier::kHeap) {
      obs::metrics().add(obs::Counter::kStateTierFallbacks);
    }
    tier_ = StateTier::kHeap;
    vec_.assign(other.data(), other.data() + other.size());
    trackAlloc(byteSize(), byteSize());
  }

  void allocateHeap(std::size_t dim) {
    tier_ = StateTier::kHeap;
    vec_.assign(dim, value_type(0));
    if (options_.hugePages) {
      detail::adviseHugePages(vec_.data(), dim * sizeof(value_type));
    }
    trackAlloc(byteSize(), byteSize());
  }

  bool allocateNuma(std::size_t dim) {
#if QCLAB_STATE_HAS_MMAP
    const std::size_t bytes = dim * sizeof(value_type);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
#ifdef MADV_HUGEPAGE
    if (options_.hugePages && bytes >= detail::kHugePageBytes) {
      ::madvise(p, bytes, MADV_HUGEPAGE);
    }
#endif
    map_ = static_cast<value_type*>(p);
    mapElems_ = dim;
    mapBytes_ = bytes;
    tier_ = StateTier::kNuma;
    firstTouchZero();
    trackAlloc(bytes, bytes);
    return true;
#else
    (void)dim;
    return false;
#endif
  }

  bool allocateMmap(std::size_t dim) {
#if QCLAB_STATE_HAS_MMAP
    const std::size_t bytes = dim * sizeof(value_type);
    std::string path = stateDirectory(options_) + "/qclab-state-XXXXXX";
    const int fd = ::mkstemp(path.data());
    if (fd < 0) return false;
    // Unlink immediately: the state file is anonymous-by-name and the
    // kernel reclaims the disk space when the mapping goes away, even
    // on a crash.
    ::unlink(path.c_str());
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      ::close(fd);
      return false;
    }
    void* p =
        ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) return false;
    map_ = static_cast<value_type*>(p);
    mapElems_ = dim;
    mapBytes_ = bytes;
    tier_ = StateTier::kMmap;
    advisor_ = std::make_unique<detail::MmapAdvisor>(p, bytes);
    // ftruncate made a hole: the state reads as zeros with NO pages
    // resident yet — the zero-fill is free.
    trackAlloc(0, bytes);
    return true;
#else
    (void)dim;
    return false;
#endif
  }

  /// First-touch zero-fill over the executor's static partition — the
  /// page-placement half of the affinity contract (DESIGN.md).
  void firstTouchZero() noexcept {
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel if (!omp_in_parallel())
    {
      const auto [lo, hi] = staticPartition(
          mapElems_, omp_get_num_threads(), omp_get_thread_num());
      if (hi > lo) {
        std::memset(static_cast<void*>(map_ + lo), 0,
                    (hi - lo) * sizeof(value_type));
      }
    }
#else
    std::memset(static_cast<void*>(map_), 0, mapBytes_);
#endif
  }

  void parallelCopy(const value_type* src) noexcept {
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel if (!omp_in_parallel())
    {
      const auto [lo, hi] = staticPartition(
          mapElems_, omp_get_num_threads(), omp_get_thread_num());
      if (hi > lo) {
        std::memcpy(map_ + lo, src + lo, (hi - lo) * sizeof(value_type));
      }
    }
#else
    std::memcpy(map_, src, mapBytes_);
#endif
  }

  std::vector<value_type> vec_;     ///< heap tier storage
  value_type* map_ = nullptr;       ///< numa/mmap tier storage
  std::size_t mapElems_ = 0;
  std::size_t mapBytes_ = 0;
  StateTier tier_ = StateTier::kHeap;
  std::unique_ptr<detail::MmapAdvisor> advisor_;  ///< mmap tier only
  StateTierOptions options_;
  std::uint64_t trackedResident_ = 0;  ///< obs tier-gauge attribution
  std::uint64_t trackedMapped_ = 0;
};

/// A borrowed view of contiguous amplitudes — what the backend virtual
/// interface takes, so one applyGate signature serves `std::vector`
/// states (noise/trajectory/batch pipelines, legacy call sites) and
/// `StateBuffer` states (tiered Simulation branches) alike.
template <typename T>
class StateSpan {
 public:
  using value_type = std::complex<T>;

  StateSpan(std::vector<value_type>& state) noexcept
      : data_(state.data()), size_(state.size()) {}
  StateSpan(StateBuffer<T>& state) noexcept
      : data_(state.data()), size_(state.size()) {}
  StateSpan(value_type* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  value_type* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  value_type& operator[](std::size_t i) const noexcept { return data_[i]; }
  value_type* begin() const noexcept { return data_; }
  value_type* end() const noexcept { return data_ + size_; }

 private:
  value_type* data_;
  std::size_t size_;
};

}  // namespace qclab::sim
