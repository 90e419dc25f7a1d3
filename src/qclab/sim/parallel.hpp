#pragma once

/// \file parallel.hpp
/// \brief The one OpenMP parallel-region helper: every parallel loop runs
/// through parallelFor or parallelRanges, which decide whether to fork
/// before touching OpenMP and never enter libgomp below a site's
/// threshold or inside another region (a false `parallel if` still
/// builds a one-thread team).  DESIGN.md ("Parallelism") has the rules.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::sim {

/// Work below which a kernel runs on the calling thread (a fork/join
/// costs more than the sweep); sites scale it by their work per item.
inline constexpr std::int64_t kOmpThreshold = 1 << 12;

/// The contiguous [lo, hi) share of `total` items owned by thread `tid`
/// of `threads` under an even static partition (lengths differ by at
/// most one); `threads` <= 1 owns everything.
inline std::pair<std::size_t, std::size_t> staticPartition(
    std::size_t total, int threads, int tid) noexcept {
  if (threads <= 1) return {0, total};
  const std::size_t per = total / static_cast<std::size_t>(threads);
  const std::size_t rem = total % static_cast<std::size_t>(threads);
  const std::size_t t = static_cast<std::size_t>(tid);
  const std::size_t lo = t * per + std::min(t, rem);
  return {lo, lo + per + (t < rem ? 1 : 0)};
}

/// The number of threads a region over `work` units forks: 1 (run on the
/// calling thread) below `threshold` or inside any enclosing region,
/// else `threads`, where 0 means the OpenMP default.
inline int teamSize(std::int64_t work, std::int64_t threshold,
                    int threads = 0) noexcept {
  if (work < threshold) return 1;
#ifdef QCLAB_HAS_OPENMP
  if (omp_get_level() == 0) {
    return threads > 0 ? threads : omp_get_max_threads();
  }
#endif
  (void)threads;
  return 1;
}

namespace detail {

/// Runs part(p) for p in [0, team) on a team of `team` threads, then
/// rethrows on the caller the first exception any part threw.  Two
/// release/acquire edges show ThreadSanitizer the fork and the join,
/// which it cannot see inside libgomp (DESIGN.md, "The TSan edges").
template <typename Part>
void forkTeam(int team, const Part& part) {
#ifdef QCLAB_HAS_OPENMP
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  std::atomic<int> workersDone{0};
  std::atomic<bool> forked{false};
  forked.store(true, std::memory_order_release);
#pragma omp parallel num_threads(team)
  {
    (void)forked.load(std::memory_order_acquire);
    // A smaller team than asked for (OMP_THREAD_LIMIT) runs every part.
    for (int p = omp_get_thread_num(); p < team; p += omp_get_num_threads()) {
      try {
        part(p);
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) {
          error = std::current_exception();
        }
        break;
      }
    }
    workersDone.fetch_add(1, std::memory_order_release);
  }
  // The fetch_adds form a release sequence, so this one acquire load
  // synchronizes with every thread's work above.
  (void)workersDone.load(std::memory_order_acquire);
  if (error) std::rethrow_exception(error);
#else
  for (int p = 0; p < team; ++p) part(p);
#endif
}

}  // namespace detail

/// Calls body(lo, hi, part) for each non-empty static share [lo, hi) of
/// [0, count), share p on thread p of a `parts`-thread team (teamSize
/// decides `parts`; never cut to `count`, as libgomp ends pooled threads
/// when a team shrinks).  One part or one item: body(0, count, 0) on the
/// calling thread.
template <typename Body>
void parallelRanges(std::int64_t count, int parts, Body&& body) {
  if (parts <= 1 || count <= 1) {
    body(std::int64_t{0}, count, 0);
    return;
  }
  detail::forkTeam(parts, [&](int part) {
    const auto [lo, hi] =
        staticPartition(static_cast<std::size_t>(count), parts, part);
    if (lo == hi) return;
    body(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi),
         part);
  });
}

/// Calls body(i) for every i in [0, count): on a forked team when `work`
/// reaches `threshold` (teamSize), else on the calling thread.  Each
/// share loops over its own copy of `body`, so what a kernel captures by
/// copy stays in registers instead of being reloaded on every index.
template <typename Body>
void parallelFor(std::int64_t count, std::int64_t work,
                 std::int64_t threshold, const Body& body) {
  parallelRanges(count, teamSize(work, threshold),
                 [&body](std::int64_t lo, std::int64_t hi, int) {
                   Body local = body;
                   for (std::int64_t i = lo; i < hi; ++i) local(i);
                 });
}

/// parallelRanges for a driver's items (batch members, trajectories).
/// Unforked with `threads` == 1 or inside another region, the loop runs
/// as thread 0 of a one-thread team of its own: its kernels stay serial
/// and omp_get_thread_num() reads 0.  Else a lone item runs directly.
template <typename Body>
void parallelItems(std::int64_t count, int parts, int threads,
                   const Body& body) {
#ifdef QCLAB_HAS_OPENMP
  if (parts <= 1 && (threads == 1 || omp_get_level() > 0)) {
    detail::forkTeam(1, [&](int) { body(std::int64_t{0}, count, 0); });
    return;
  }
#endif
  (void)threads;
  parallelRanges(count, parts, body);
}

}  // namespace qclab::sim
