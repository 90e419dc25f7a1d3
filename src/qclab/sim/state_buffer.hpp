#pragma once

/// \file state_buffer.hpp
/// \brief Tiered storage for statevector amplitudes.
///
/// A `StateBuffer<T>` owns the 2^n amplitudes of one simulation branch
/// and picks, by size, WHERE they live (the tier ladder; DESIGN.md,
/// "Tiered state memory"):
///
///  - **heap**  — a plain `std::vector` (the historical representation;
///    every state that fits in RAM, and the fallback of the mmap tier).
///    Large heap states get a transparent-hugepage `madvise` on their
///    page-aligned interior.
///  - **mmap**  — an out-of-core tier backing the state with an
///    unlinked temporary file (`MAP_SHARED`), so states larger than RAM
///    spill to disk under kernel paging.  The file starts as a hole,
///    which reads as the zero state without a single page resident.
///
/// Tier selection is automatic by state size (`chooseStateTier`), with
/// `SimulateOptions::stateTier` and the `QCLAB_STATE_TIER` /
/// `QCLAB_STATE_DIR` environment knobs overriding it, and the mmap tier
/// degrades gracefully to the heap when the platform or the filesystem
/// can't serve it.  Both tiers are bit-identical: the executors see only
/// `data()`/`size()`.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/metrics.hpp"
#include "qclab/sim/state_tier.hpp"
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

namespace qclab::sim {

/// Tuning knobs of the tier ladder (SimulateOptions::stateTier).
struct StateTierOptions {
  /// Requested tier; kAuto picks by state size (and degrades to heap
  /// whenever a higher tier is unavailable).
  StateTier tier = StateTier::kAuto;
  /// Auto mode goes out-of-core at/above this size; 0 = three quarters
  /// of /proc/meminfo MemAvailable (16 GiB when unreadable).
  std::size_t mmapMinBytes = 0;
  /// Backing-file directory for the mmap tier; empty = QCLAB_STATE_DIR,
  /// then TMPDIR, then /tmp.
  std::string directory;
};

/// The QCLAB_STATE_TIER environment variable ("auto" / "heap" / "mmap")
/// overrides the requested tier (mirroring QCLAB_DISPATCH); unknown
/// values are ignored.
inline StateTier resolveStateTier(StateTier requested) noexcept {
  const char* env = std::getenv("QCLAB_STATE_TIER");
  if (env == nullptr) return requested;
  if (std::strcmp(env, "auto") == 0) return StateTier::kAuto;
  if (std::strcmp(env, "heap") == 0) return StateTier::kHeap;
  if (std::strcmp(env, "mmap") == 0) return StateTier::kMmap;
  return requested;
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

/// Auto mode keeps states below this size on the heap without reading
/// /proc/meminfo.  The default out-of-core threshold (three quarters of
/// MemAvailable) lies below 1 MiB only when MemAvailable is under
/// 1.33 MiB, and the read costs more than allocating such a state.
inline constexpr std::size_t kMeminfoMinBytes = std::size_t{1} << 20;

/// Resolves the tier a `bytes`-sized state should be allocated on:
/// explicit requests (options or QCLAB_STATE_TIER) win; auto goes
/// out-of-core from the mmapMinBytes threshold.  The result is still a
/// *request* — allocation degrades to heap when the tier is unavailable.
inline StateTier chooseStateTier(std::size_t bytes,
                                 const StateTierOptions& options) noexcept {
  const StateTier tier = resolveStateTier(options.tier);
  if (tier != StateTier::kAuto) return tier;
  std::size_t outOfCoreMin = options.mmapMinBytes;
  if (outOfCoreMin == 0) {
    if (bytes < kMeminfoMinBytes) return StateTier::kHeap;
    const std::size_t available = availableMemoryBytes();
    outOfCoreMin =
        available != 0 ? available / 4 * 3 : (std::size_t{16} << 30);
  }
  return bytes >= outOfCoreMin ? StateTier::kMmap : StateTier::kHeap;
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

}  // namespace detail

/// The 2^n amplitudes of an n-qubit state of T, formed on the calling
/// thread before anything is allocated.  Throws InvalidArgumentError when
/// 2^n does not fit a std::size_t or exceeds std::vector's max_size(),
/// where the shift would be undefined or the allocation a length_error.
template <typename T>
std::size_t stateDim(int nbQubits) {
  const bool fits = nbQubits >= 0 &&
                    nbQubits < std::numeric_limits<std::size_t>::digits &&
                    (std::size_t{1} << nbQubits) <=
                        std::vector<std::complex<T>>().max_size();
  if (!fits) [[unlikely]] {
    throw InvalidArgumentError("a " + std::to_string(nbQubits) +
                               "-qubit state has more amplitudes than a "
                               "std::vector can hold");
  }
  return std::size_t{1} << nbQubits;
}

/// Owns one branch's amplitudes on one of the two tiers.  Constructed
/// implicitly from a `std::vector` (heap tier — the historical
/// representation every call site already produces) or via `zeros`
/// (tier chosen by size).  The executors only use data()/size().
template <typename T>
class StateBuffer {
 public:
  using value_type = std::complex<T>;

  StateBuffer() = default;

  /// Adopts a heap vector (implicit: every legacy `std::vector` state
  /// flows into Simulation through this).
  StateBuffer(std::vector<value_type> state) : vec_(std::move(state)) {
    trackAlloc();
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
    if (tier == StateTier::kMmap && buffer.allocateMmap(dim)) return buffer;
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
        options_(std::move(other.options_)),
        trackedBytes_(std::exchange(other.trackedBytes_, 0)) {
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
      options_ = std::move(other.options_);
      trackedBytes_ = std::exchange(other.trackedBytes_, 0);
    }
    return *this;
  }

  /// Adopts a heap vector into an existing buffer (e.g. a tableau ->
  /// statevector conversion landing in a branch).
  StateBuffer& operator=(std::vector<value_type>&& state) {
    release();
    vec_ = std::move(state);
    trackAlloc();
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

  void trackAlloc() noexcept {
    trackedBytes_ = byteSize();
    if constexpr (obs::kEnabled) {
      if (trackedBytes_ != 0) obs::metrics().addTierBytes(tier_, trackedBytes_);
    }
  }

  void untrack() noexcept {
    if constexpr (obs::kEnabled) {
      if (trackedBytes_ != 0) {
        obs::metrics().releaseTierBytes(tier_, trackedBytes_);
      }
    }
    trackedBytes_ = 0;
  }

  void release() noexcept {
    untrack();
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
    if (other.tier_ == StateTier::kMmap && allocateMmap(other.size())) {
      std::memcpy(map_, other.data(), mapBytes_);
      return;
    }
    // Heap source, or an mmap copy that could not be mapped: heap copy.
    if (other.tier_ != StateTier::kHeap) {
      obs::metrics().add(obs::Counter::kStateTierFallbacks);
    }
    tier_ = StateTier::kHeap;
    vec_.assign(other.data(), other.data() + other.size());
    trackAlloc();
  }

  void allocateHeap(std::size_t dim) {
    tier_ = StateTier::kHeap;
    vec_.assign(dim, value_type(0));
    detail::adviseHugePages(vec_.data(), dim * sizeof(value_type));
    trackAlloc();
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
    // ftruncate made a hole: the state reads as zeros with NO pages
    // resident yet — the zero-fill is free.
    trackAlloc();
    return true;
#else
    (void)dim;
    return false;
#endif
  }

  std::vector<value_type> vec_;     ///< heap tier storage
  value_type* map_ = nullptr;       ///< mmap tier storage
  std::size_t mapElems_ = 0;
  std::size_t mapBytes_ = 0;
  StateTier tier_ = StateTier::kHeap;
  StateTierOptions options_;
  std::uint64_t trackedBytes_ = 0;  ///< obs tier-gauge attribution
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
