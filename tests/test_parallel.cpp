/// \file test_parallel.cpp
/// \brief The parallel-region helper (sim/parallel.hpp): where it forks,
/// that a call below its threshold or inside another region never opens
/// a team, that every index runs once, and that an exception thrown by
/// one thread of a forked loop reaches the caller with its type while no
/// thread is left behind, and that a driver asked for one thread keeps
/// its kernels serial.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <complex>
#include <thread>
#include <vector>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

#include "test_helpers.hpp"

namespace qclab {
namespace {

int ompLevel() {
#ifdef QCLAB_HAS_OPENMP
  return omp_get_level();
#else
  return 0;
#endif
}

TEST(ParallelFor, BelowThresholdRunsOnTheCallingThreadOutsideAnyTeam) {
  // Inside the one-thread team of a false `parallel if` the level would
  // read 1; the helper decides before entering OpenMP at all.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> seen(64, 0);
  int foreign = 0;
  int nested = 0;
  sim::parallelFor(64, 64, 65, [&](std::int64_t i) {
    ++seen[static_cast<std::size_t>(i)];
    foreign += std::this_thread::get_id() != caller;
    nested += ompLevel() != 0;
  });
  EXPECT_EQ(seen, std::vector<int>(64, 1));
  EXPECT_EQ(foreign, 0);
  EXPECT_EQ(nested, 0);
  EXPECT_EQ(sim::teamSize(64, 65, 4), 1);
}

#ifdef QCLAB_HAS_OPENMP

TEST(ParallelFor, TeamSizeZeroMeansTheOpenMPDefault) {
  EXPECT_EQ(sim::teamSize(1 << 20, 1, 0), omp_get_max_threads());
  EXPECT_EQ(sim::teamSize(1 << 20, 1), omp_get_max_threads());
  EXPECT_EQ(sim::teamSize(1 << 20, 1, 3), 3);
  EXPECT_EQ(sim::teamSize(1 << 20, 1 << 21, 3), 1);
}

TEST(ParallelFor, ForkedSharesCoverEveryIndexOnce) {
  constexpr std::int64_t kCount = 1001;
  std::vector<int> seen(kCount, 0);
  std::vector<int> partsSeen(4, 0);
  std::atomic<int> levels{0};
  sim::parallelRanges(kCount, 4,
                      [&](std::int64_t lo, std::int64_t hi, int part) {
                        ++partsSeen[static_cast<std::size_t>(part)];
                        if (ompLevel() == 1) ++levels;
                        for (std::int64_t i = lo; i < hi; ++i) {
                          ++seen[static_cast<std::size_t>(i)];
                        }
                      });
  EXPECT_EQ(seen, std::vector<int>(kCount, 1));
  EXPECT_EQ(partsSeen, std::vector<int>(4, 1));
  EXPECT_EQ(levels.load(), 4);
}

TEST(ParallelFor, NestedCallRunsSerially) {
  constexpr int kOuter = 2;
  constexpr std::int64_t kCount = 1 << 14;
  std::vector<int> foreign(kOuter, 0);
  std::vector<int> levels(kOuter, 0);
  std::vector<int> teams(kOuter, 0);
  std::vector<std::int64_t> visits(kOuter, 0);
#pragma omp parallel num_threads(kOuter)
  {
    const int outer = omp_get_thread_num();
    const std::thread::id caller = std::this_thread::get_id();
    teams[static_cast<std::size_t>(outer)] = sim::teamSize(kCount, 1, 4);
    sim::parallelFor(kCount, kCount, 1, [&](std::int64_t) {
      foreign[static_cast<std::size_t>(outer)] +=
          std::this_thread::get_id() != caller;
      levels[static_cast<std::size_t>(outer)] += omp_get_level() != 1;
      ++visits[static_cast<std::size_t>(outer)];
    });
  }
  for (int outer = 0; outer < kOuter; ++outer) {
    EXPECT_EQ(teams[static_cast<std::size_t>(outer)], 1);
    EXPECT_EQ(foreign[static_cast<std::size_t>(outer)], 0);
    EXPECT_EQ(levels[static_cast<std::size_t>(outer)], 0);
    EXPECT_EQ(visits[static_cast<std::size_t>(outer)], kCount);
  }
}

TEST(ParallelFor, ThrowInOneIterationReachesTheCallerWithItsType) {
  constexpr std::int64_t kCount = 4096;
  std::atomic<std::int64_t> visited{0};
  try {
    sim::parallelRanges(kCount, 4,
                        [&](std::int64_t lo, std::int64_t hi, int) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            if (i == 3000) util::checkQubit(7, 3);
                            visited.fetch_add(1, std::memory_order_relaxed);
                          }
                        });
    FAIL() << "no exception reached the caller";
  } catch (const QubitRangeError& error) {
    EXPECT_NE(std::string(error.what()).find("7"), std::string::npos);
  }
  // Only the throwing share stopped early: 3000 lies in share 2
  // ([2048, 3072)), which ran its first 952 indices.
  EXPECT_EQ(visited.load(), kCount - (3072 - 3000));

  // No thread was left behind: the next forked loop runs to completion.
  std::atomic<std::int64_t> after{0};
  sim::parallelRanges(kCount, 4, [&](std::int64_t lo, std::int64_t hi, int) {
    after.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), kCount);
}

TEST(ParallelFor, BatchMemberThrowReachesTheCaller) {
  // A worker of a multi-member batch throws from its callback: the error
  // arrives on the calling thread with its type, and the engine (its
  // cached clones included) still runs every member afterwards.
  random::Rng rng(31);
  QCircuit<double> circuit(6);
  test::addRandomGates(circuit, 25, rng);
  sim::BatchOptions options;
  options.nbThreads = 4;
  sim::BatchedSimulation<double> engine(circuit, options);
  std::vector<std::vector<double>> parameterSets(12);
  for (auto& values : parameterSets) {
    values.resize(engine.nbParameters());
    for (auto& value : values) value = rng.uniform(-3.0, 3.0);
  }
  EXPECT_THROW(engine.forEach(parameterSets,
                              [](std::size_t member, Simulation<double>&&) {
                                if (member == 9) util::checkQubit(5, 2);
                              }),
               QubitRangeError);

  const auto results = engine.run(parameterSets);
  sim::BatchOptions serial;
  serial.nbThreads = 1;
  const auto reference =
      sim::BatchedSimulation<double>(circuit, serial).run(parameterSets);
  ASSERT_EQ(results.size(), parameterSets.size());
  for (std::size_t m = 0; m < results.size(); ++m) {
    EXPECT_EQ(results[m].state(0), reference[m].state(0)) << "member " << m;
  }
}

TEST(ParallelFor, OneThreadRequestKeepsKernelsSerial) {
  // With nbThreads = 1 a driver's items run in a one-thread team of their
  // own, so a kernel inside them sees one thread, not the default team;
  // with the default a lone item's kernels fork the default team.  Every
  // case below runs its items on one thread, one after another.
  random::Rng rng(37);
  QCircuit<double> circuit(4);
  test::addRandomGates(circuit, 12, rng);
  int widest = 0;
  const auto recordKernelTeam = [&widest] {
    widest = std::max(widest,
                      sim::teamSize(std::int64_t{1} << 20, sim::kOmpThreshold));
  };

  const auto trajectoryKernels = [&](int threads, std::size_t items) {
    noise::TrajectoryOptions options;
    options.nbTrajectories = items;
    options.nbThreads = threads;
    widest = 0;
    noise::TrajectorySimulator<double>(circuit, noise::NoiseModel<double>(),
                                       options)
        .runFunctional("0000", [&](const std::vector<std::complex<double>>&) {
          recordKernelTeam();
          return 0.0;
        });
    return widest;
  };
  EXPECT_EQ(trajectoryKernels(1, 6), 1);
  EXPECT_EQ(trajectoryKernels(1, 1), 1);
  EXPECT_EQ(trajectoryKernels(0, 1), omp_get_max_threads());

  const auto batchKernels = [&](int threads, std::size_t members) {
    sim::BatchOptions options;
    options.nbThreads = threads;
    sim::BatchedSimulation<double> engine(circuit, options);
    const std::vector<std::vector<double>> parameterSets(
        members, std::vector<double>(engine.nbParameters(), 0.5));
    widest = 0;
    engine.forEach(parameterSets, [&](std::size_t, Simulation<double>&&) {
      recordKernelTeam();
    });
    return widest;
  };
  EXPECT_EQ(batchKernels(1, 5), 1);
  EXPECT_EQ(batchKernels(1, 1), 1);
  EXPECT_EQ(batchKernels(0, 1), omp_get_max_threads());
}

#endif  // QCLAB_HAS_OPENMP

}  // namespace
}  // namespace qclab
