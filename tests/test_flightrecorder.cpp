/// \file test_flightrecorder.cpp
/// \brief Flight-recorder tests: event capture through the instrumented
/// pipeline (gates, fused blocks, blocked runs, batch members), ring wrap
/// at capacity, enable/disable toggling, the qubit-mask helper, the ring's
/// size budget, durations beyond 32 bits, no ring for span-only threads
/// with tracing off, readers racing a wrapping writer, and the no-op
/// surface under QCLAB_OBS_DISABLED.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qclab/qclab.hpp"

using qclab::obs::FlightEventKind;
using qclab::obs::flightRecorder;
using qclab::obs::kFlightRingCapacity;
using qclab::obs::qubitMask64;
using qclab::sim::KernelPath;

namespace {

using T = double;

qclab::QCircuit<T> ghz(int n) {
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  for (int q = 1; q < n; ++q) {
    circuit.push_back(qclab::qgates::CX<T>(q - 1, q));
  }
  return circuit;
}

}  // namespace

TEST(FlightRecorder, QubitMask64CoversLowQubitsAndDropsTheRest) {
  EXPECT_EQ(qubitMask64({}), 0u);
  EXPECT_EQ(qubitMask64({0}), 1u);
  EXPECT_EQ(qubitMask64({0, 1}), 3u);
  EXPECT_EQ(qubitMask64({2, 63}),
            (std::uint64_t{1} << 2) | (std::uint64_t{1} << 63));
  // Out-of-range indices drop from the mask without corrupting it.
  EXPECT_EQ(qubitMask64({64, 100, -1, 3}), std::uint64_t{1} << 3);
}

TEST(FlightRecorder, EventKindNamesAreStable) {
  EXPECT_STREQ(qclab::obs::flightEventKindName(FlightEventKind::kGate),
               "gate");
  EXPECT_STREQ(qclab::obs::flightEventKindName(FlightEventKind::kFusedBlock),
               "fused-block");
  EXPECT_STREQ(
      qclab::obs::flightEventKindName(FlightEventKind::kSentinelAlert),
      "sentinel-alert");
}

#ifndef QCLAB_OBS_DISABLED

TEST(FlightRecorder, RecordsGateEventsFromInstrumentedSimulate) {
  qclab::obs::resetAll();
  flightRecorder().enable();

  const qclab::obs::InstrumentedBackend<T> backend;
  const auto circuit = ghz(4);  // 1 H + 3 CX
  circuit.simulate("0000", backend);

  EXPECT_GE(flightRecorder().totalRecorded(), 4u);
  const auto snapshots = flightRecorder().snapshot();
  ASSERT_FALSE(snapshots.empty());

  bool sawHadamard = false, sawCx = false;
  for (const auto& snap : snapshots) {
    for (const auto& event : snap.events) {
      if (event.kind != static_cast<std::uint16_t>(FlightEventKind::kGate)) {
        continue;
      }
      if (event.qubitMask == qubitMask64({0})) sawHadamard = true;
      if (event.qubitMask == qubitMask64({0, 1})) sawCx = true;
    }
  }
  EXPECT_TRUE(sawHadamard) << "no single-qubit gate event on qubit 0";
  EXPECT_TRUE(sawCx) << "no two-qubit gate event on qubits {0,1}";
}

TEST(FlightRecorder, FusedAndBlockedSweepsRecordTheirOwnKinds) {
  qclab::obs::resetAll();
  flightRecorder().enable();

  // The recipe from test_blocking: gates on high qubits with a small
  // chunk guarantee at least one cache-blocked run.
  qclab::QCircuit<T> circuit(8);
  circuit.push_back(qclab::qgates::Hadamard<T>(5));
  circuit.push_back(qclab::qgates::CX<T>(5, 6));
  circuit.push_back(qclab::qgates::Hadamard<T>(7));
  circuit.push_back(qclab::qgates::CX<T>(6, 7));

  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.maxQubits = 2;
  options.fusionOptions.blockQubits = 3;
  circuit.simulate("00000000", options);

  ASSERT_GE(qclab::obs::metrics().gateApplications(KernelPath::kBlocked), 1u)
      << "workload did not reach the blocked executor";

  bool sawBlockedRun = false;
  for (const auto& snap : flightRecorder().snapshot()) {
    for (const auto& event : snap.events) {
      if (event.kind ==
          static_cast<std::uint16_t>(FlightEventKind::kBlockedRun)) {
        sawBlockedRun = true;
        EXPECT_EQ(event.path,
                  static_cast<std::uint16_t>(KernelPath::kBlocked));
        EXPECT_GE(event.aux, 1u);  // blocks executed in the run
      }
    }
  }
  EXPECT_TRUE(sawBlockedRun);
}

TEST(FlightRecorder, BatchMembersRecordMemberIndices) {
  qclab::obs::resetAll();
  flightRecorder().enable();

  qclab::QCircuit<T> circuit(3);
  for (int q = 0; q < 3; ++q) {
    circuit.push_back(qclab::qgates::RotationY<T>(q, 0.0));
  }
  circuit.simulateBatch({{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}});

  std::vector<bool> memberSeen(2, false);
  for (const auto& snap : flightRecorder().snapshot()) {
    for (const auto& event : snap.events) {
      if (event.kind ==
              static_cast<std::uint16_t>(FlightEventKind::kBatchMember) &&
          event.aux < memberSeen.size()) {
        memberSeen[event.aux] = true;
        EXPECT_EQ(event.path,
                  static_cast<std::uint16_t>(KernelPath::kBatch));
      }
    }
  }
  EXPECT_TRUE(memberSeen[0]);
  EXPECT_TRUE(memberSeen[1]);
}

TEST(FlightRecorder, RingWrapsAtCapacityKeepingNewestEvents) {
  qclab::obs::resetAll();
  flightRecorder().enable();

  const std::uint64_t total = kFlightRingCapacity + 500;
  for (std::uint64_t i = 0; i < total; ++i) {
    flightRecorder().record(FlightEventKind::kBatchMember, 0, i, i, i);
  }

  // Find this thread's ring: the one that recorded `total` events.
  bool found = false;
  for (const auto& snap : flightRecorder().snapshot()) {
    if (snap.recorded != total) continue;
    found = true;
    // The newest capacity - 1 events stay readable (the oldest slot is
    // the one the next record overwrites); newest is total - 1.
    ASSERT_EQ(snap.events.size(), kFlightRingCapacity - 1);
    EXPECT_EQ(snap.events.front().aux, total - kFlightRingCapacity + 1);
    EXPECT_EQ(snap.events.back().aux, total - 1);
  }
  EXPECT_TRUE(found) << "no ring recorded the expected event count";
}

TEST(FlightRecorder, DisableStopsRecordingEnableResumes) {
  qclab::obs::resetAll();
  flightRecorder().enable();
  flightRecorder().record(FlightEventKind::kGate, 0, 1, 0, 1);
  const std::uint64_t afterOne = flightRecorder().totalRecorded();
  EXPECT_GE(afterOne, 1u);

  flightRecorder().disable();
  EXPECT_FALSE(flightRecorder().enabled());
  flightRecorder().record(FlightEventKind::kGate, 0, 2, 0, 1);
  EXPECT_EQ(flightRecorder().totalRecorded(), afterOne);

  flightRecorder().enable();
  EXPECT_TRUE(flightRecorder().enabled());
  flightRecorder().record(FlightEventKind::kGate, 0, 3, 0, 1);
  EXPECT_EQ(flightRecorder().totalRecorded(), afterOne + 1);
}

TEST(FlightRecorder, ResetRewindsEveryRing) {
  flightRecorder().enable();
  flightRecorder().record(FlightEventKind::kGate, 0, 0, 0, 1);
  EXPECT_GE(flightRecorder().totalRecorded(), 1u);
  flightRecorder().reset();
  EXPECT_EQ(flightRecorder().totalRecorded(), 0u);
}

TEST(FlightRecorder, RingStaysWithinItsMemoryBudget) {
  // Spans and kernel events share the 24-byte slot the flight recorder
  // has always had, so a ring still costs at most 64 Ki x 24 B.
  EXPECT_EQ(sizeof(qclab::obs::FlightSlot), 24u);
  EXPECT_EQ(kFlightRingCapacity, std::size_t{1} << 16);
  EXPECT_LE(sizeof(qclab::obs::FlightRing),
            (std::size_t{1} << 16) * 24 + 24);
}

TEST(FlightRecorder, EventsLongerThan32BitNanosecondsSurviveIntact) {
  qclab::obs::resetAll();
  flightRecorder().enable();
  // A 30-qubit simulate runs longer than 2^32 ns (4.3 s): pass explicit
  // timestamps through the record call every timer uses.
  const std::uint64_t start = (std::uint64_t{1} << 40) + 12345;
  const std::uint64_t duration = (std::uint64_t{5} << 32) + 678;
  flightRecorder().record(FlightEventKind::kBlockedRun,
                          static_cast<std::uint16_t>(KernelPath::kBlocked),
                          /*payload=*/7, start, start + duration);
  bool found = false;
  for (const auto& snap : flightRecorder().snapshot()) {
    for (const auto& event : snap.events) {
      found = true;
      EXPECT_EQ(event.startNs, start);
      EXPECT_EQ(event.durationNs, duration);
      EXPECT_EQ(event.kind,
                static_cast<std::uint16_t>(FlightEventKind::kBlockedRun));
      EXPECT_EQ(event.path, static_cast<std::uint16_t>(KernelPath::kBlocked));
      EXPECT_EQ(event.aux, 7u);
    }
  }
  EXPECT_TRUE(found);
  qclab::obs::resetAll();
}

TEST(FlightRecorder, SpanOnlyThreadWithTracingOffAllocatesNoRing) {
  ASSERT_FALSE(flightRecorder().tracing());
  flightRecorder().enable();
  const std::size_t rings = flightRecorder().threadCount();
  std::thread([] {
    for (int i = 0; i < 1000; ++i) {
      const qclab::obs::ScopedSpan outer("untraced");
      const qclab::obs::ScopedSpan inner("untraced/inner");
    }
  }).join();
  EXPECT_EQ(flightRecorder().threadCount(), rings);
}

TEST(FlightRecorder, ReadersNeverDecodeASlotALiveWriterOverwrites) {
  qclab::obs::resetAll();
  flightRecorder().enable();
  flightRecorder().enableTracing();
  // The writer wraps its ring over and over with a three-event pattern —
  // a span (payload: a name pointer) and two gate events (payload: a
  // mask that is no valid pointer) — so the event a slot held and the
  // one overwriting it differ in kind for two slots in three, and a torn
  // slot would pair one event's kind with the other's payload.
  static const char* const kName = "live";
  constexpr std::uint64_t kMask = ~std::uint64_t{0} - 7;
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      { const qclab::obs::ScopedSpan span(kName); }
      flightRecorder().record(FlightEventKind::kGate, 0, kMask, 0, 1);
      flightRecorder().record(FlightEventKind::kGate, 0, kMask, 0, 1);
    }
  });
  while (flightRecorder().totalRecorded() < 2 * kFlightRingCapacity) {
    std::this_thread::yield();
  }
  std::uint64_t torn = 0;
  const auto check = [&torn](const qclab::obs::FlightEvent& event) {
    if (event.kind == static_cast<std::uint16_t>(FlightEventKind::kSpan)) {
      torn += event.name != kName;
    } else {
      torn += event.qubitMask != kMask;
    }
  };
  // Hammer the oldest readable slot, the next one the writer overwrites.
  const qclab::obs::FlightRing& ring = *flightRecorder().rings();
  qclab::obs::FlightEvent event;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    if (qclab::obs::FlightRecorder::load(
            ring, qclab::obs::FlightRecorder::firstReadable(head), event)) {
      check(event);
    }
  }
  // Whole-ring readers: snapshots and the Chrome view.
  bool traced = true;
  for (int round = 0; round < 4; ++round) {
    for (const auto& snap : flightRecorder().snapshot()) {
      for (const auto& e : snap.events) check(e);
    }
    traced = traced && qclab::obs::chromeTraceJson().find("\"live\"") !=
                           std::string::npos;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(torn, 0u);
  EXPECT_TRUE(traced);
  flightRecorder().disableTracing();
  qclab::obs::resetAll();
}

#else  // QCLAB_OBS_DISABLED

TEST(FlightRecorder, DisabledBuildRecordsNothing) {
  flightRecorder().enable();  // no-op
  EXPECT_FALSE(flightRecorder().enabled());
  flightRecorder().enableTracing();  // no-op
  EXPECT_FALSE(flightRecorder().tracing());
  flightRecorder().record(FlightEventKind::kGate, 0, 1, 0, 2);
  EXPECT_EQ(flightRecorder().totalRecorded(), 0u);
  EXPECT_EQ(flightRecorder().threadCount(), 0u);
  EXPECT_TRUE(flightRecorder().snapshot().empty());
}

#endif  // QCLAB_OBS_DISABLED
