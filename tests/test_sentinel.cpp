/// \file test_sentinel.cpp
/// \brief Numerical-health sentinel tests: differential injection of NaN
/// and norm-drift through a deliberately broken gate on the plain,
/// blocked, and batched execution paths; the off/log/throw policies
/// (throw deferred to safe points); bit-identity of monitored vs.
/// unmonitored states; the QCLAB_OBS_SENTINEL env knob; and the no-op
/// surface under QCLAB_OBS_DISABLED.

#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"

using qclab::obs::metrics;
using qclab::obs::NumericalHealthError;
using qclab::obs::sentinel;
using qclab::obs::SentinelConfig;
using qclab::obs::SentinelPolicy;
using qclab::sim::KernelPath;

namespace {

using T = double;

/// A deliberately ill-behaved single-qubit "gate": multiplies both
/// amplitudes by `scale` (non-unitary for |scale| != 1; NaN scale injects
/// non-finite amplitudes).  MatrixGate validates unitarity, so the
/// injection rides a private QGate1 subclass instead.
class BrokenGate : public qclab::qgates::QGate1<T> {
 public:
  BrokenGate(int qubit, std::complex<T> scale)
      : qclab::qgates::QGate1<T>(qubit), scale_(scale) {}

  qclab::dense::Matrix<T> matrix() const override {
    qclab::dense::Matrix<T> m(2, 2);
    m(0, 0) = scale_;
    m(1, 1) = scale_;
    return m;
  }
  std::unique_ptr<qclab::qgates::QGate<T>> inverse() const override {
    return std::make_unique<BrokenGate>(this->qubit(), scale_);
  }
  std::unique_ptr<qclab::qgates::QGate<T>> cloneGate() const override {
    return std::make_unique<BrokenGate>(this->qubit(), scale_);
  }
  std::string qasmName() const override { return "broken"; }
  std::string drawLabel() const override { return "BRK"; }

 private:
  std::complex<T> scale_;
};

constexpr T kNaN = std::numeric_limits<T>::quiet_NaN();

/// Check at every opportunity with a tight norm tolerance.
SentinelConfig eagerConfig(SentinelPolicy policy) {
  SentinelConfig config;
  config.policy = policy;
  config.interval = 1;
  config.normTolerance = 1e-6;
  return config;
}

qclab::QCircuit<T> driftCircuit(std::complex<T> scale) {
  qclab::QCircuit<T> circuit(3);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(std::make_unique<BrokenGate>(2, scale));
  return circuit;
}

template <typename StateA, typename StateB>
bool bitIdentical(const StateA& a, const StateB& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// RAII restore of the process-wide sentinel config around each test.
class SentinelConfigGuard {
 public:
  SentinelConfigGuard() : saved_(sentinel().config()) {}
  ~SentinelConfigGuard() {
    sentinel().configure(saved_);
    sentinel().reset();
  }

 private:
  SentinelConfig saved_;
};

}  // namespace

TEST(Sentinel, PolicyNamesAreStable) {
  EXPECT_STREQ(qclab::obs::sentinelPolicyName(SentinelPolicy::kOff), "off");
  EXPECT_STREQ(qclab::obs::sentinelPolicyName(SentinelPolicy::kLog), "log");
  EXPECT_STREQ(qclab::obs::sentinelPolicyName(SentinelPolicy::kThrow),
               "throw");
}

#ifndef QCLAB_OBS_DISABLED

TEST(Sentinel, DetectsInjectedNaNOnTheSimulatePath) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kLog));

  driftCircuit({kNaN, 0}).simulate("000");

  EXPECT_GE(metrics().sentinelChecks(), 1u);
  EXPECT_GE(metrics().sentinelNanDetected(), 1u);
  EXPECT_EQ(metrics().sentinelNormAlerts(), 0u);  // NaN outranks drift
}

TEST(Sentinel, DetectsInjectedNormDriftOnTheSimulatePath) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kLog));

  driftCircuit({1.2, 0}).simulate("000");  // normSq = 1.44

  EXPECT_GE(metrics().sentinelNormAlerts(), 1u);
  EXPECT_EQ(metrics().sentinelNanDetected(), 0u);
  EXPECT_NEAR(sentinel().lastNormSq(), 1.44, 1e-9);
}

TEST(Sentinel, HealthyCircuitRaisesNoAlerts) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kThrow));

  qclab::QCircuit<T> circuit(3);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(qclab::qgates::CX<T>(1, 2));
  EXPECT_NO_THROW(circuit.simulate("000"));

  EXPECT_GE(metrics().sentinelChecks(), 1u);
  EXPECT_EQ(metrics().sentinelNanDetected(), 0u);
  EXPECT_EQ(metrics().sentinelNormAlerts(), 0u);
}

TEST(Sentinel, ThrowPolicyRaisesAtTheSafePoint) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kThrow));

  try {
    driftCircuit({kNaN, 0}).simulate("000");
    FAIL() << "expected NumericalHealthError";
  } catch (const NumericalHealthError& error) {
    EXPECT_NE(std::string(error.what()).find("non-finite"),
              std::string::npos)
        << error.what();
  }
  // The throw consumed the pending violation.
  EXPECT_FALSE(sentinel().violationPending());
}

TEST(Sentinel, DetectsInjectionOnTheBlockedPath) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kLog));

  // The test_blocking recipe plus a drifting gate inside the window:
  // high qubits + small chunks guarantee a cache-blocked run.
  qclab::QCircuit<T> circuit(8);
  circuit.push_back(qclab::qgates::Hadamard<T>(5));
  circuit.push_back(qclab::qgates::CX<T>(5, 6));
  circuit.push_back(
      std::make_unique<BrokenGate>(7, std::complex<T>{1.3, 0}));
  circuit.push_back(qclab::qgates::CX<T>(6, 7));

  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.maxQubits = 2;
  options.fusionOptions.blockQubits = 3;
  circuit.simulate("00000000", options);

  ASSERT_GE(qclab::obs::metrics().gateApplications(KernelPath::kBlocked), 1u)
      << "workload did not reach the blocked executor";
  EXPECT_GE(metrics().sentinelNormAlerts(), 1u);
}

TEST(Sentinel, ThrowPolicySurfacesFromTheBatchEngine) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kThrow));

  qclab::QCircuit<T> circuit(3);
  circuit.push_back(qclab::qgates::RotationY<T>(0, 0.0));
  circuit.push_back(
      std::make_unique<BrokenGate>(1, std::complex<T>{kNaN, 0}));
  circuit.push_back(qclab::qgates::CX<T>(1, 2));

  // The violation latches inside the (possibly parallel) member loop and
  // must surface on the calling thread after the region.
  EXPECT_THROW(circuit.simulateBatch({{0.3}, {0.7}}), NumericalHealthError);
  EXPECT_FALSE(sentinel().violationPending());
}

TEST(Sentinel, OffPolicyChecksNothingAndStatesStayBitIdentical) {
  SentinelConfigGuard guard;

  // Same drifting circuit under off and under eager log monitoring: the
  // sentinels only ever read the state, so the results must agree bit
  // for bit, and kOff must not even count a check.
  qclab::obs::resetAll();
  sentinel().configure(eagerConfig(SentinelPolicy::kOff));
  const auto unmonitored = driftCircuit({1.2, 0}).simulate("000");
  EXPECT_EQ(metrics().sentinelChecks(), 0u);
  EXPECT_FALSE(sentinel().shouldCheck());

  sentinel().configure(eagerConfig(SentinelPolicy::kLog));
  const auto monitored = driftCircuit({1.2, 0}).simulate("000");
  EXPECT_GE(metrics().sentinelChecks(), 1u);

  EXPECT_TRUE(bitIdentical(unmonitored.branches().front().state,
                           monitored.branches().front().state));
}

TEST(Sentinel, IntervalThrottlesCheckCadence) {
  SentinelConfigGuard guard;
  qclab::obs::resetAll();
  SentinelConfig config = eagerConfig(SentinelPolicy::kLog);
  config.interval = 1000000;  // first opportunity fires, then silence
  sentinel().configure(config);

  const auto circuit = driftCircuit({1.0, 0});
  for (int run = 0; run < 5; ++run) circuit.simulate("000");
  EXPECT_LE(metrics().sentinelChecks(), 2u);
}

TEST(Sentinel, EnvKnobSelectsThePolicy) {
  ASSERT_EQ(setenv("QCLAB_OBS_SENTINEL", "throw", 1), 0);
  EXPECT_EQ(qclab::obs::Sentinel().policy(), SentinelPolicy::kThrow);
  ASSERT_EQ(setenv("QCLAB_OBS_SENTINEL", "off", 1), 0);
  EXPECT_EQ(qclab::obs::Sentinel().policy(), SentinelPolicy::kOff);
  ASSERT_EQ(setenv("QCLAB_OBS_SENTINEL", "0", 1), 0);
  EXPECT_EQ(qclab::obs::Sentinel().policy(), SentinelPolicy::kOff);
  ASSERT_EQ(setenv("QCLAB_OBS_SENTINEL", "log", 1), 0);
  EXPECT_EQ(qclab::obs::Sentinel().policy(), SentinelPolicy::kLog);
  ASSERT_EQ(setenv("QCLAB_OBS_SENTINEL", "garbage", 1), 0);
  EXPECT_EQ(qclab::obs::Sentinel().policy(), SentinelPolicy::kLog)
      << "unknown values keep the default";
  unsetenv("QCLAB_OBS_SENTINEL");
}

TEST(Sentinel, CheckStateHelperClassifiesDirectly) {
  std::vector<std::complex<T>> healthy = {{1.0, 0.0}, {0.0, 0.0}};
  double normSq = 0.0, maxAmpSq = 0.0;
  bool nanSeen = false;
  qclab::obs::sentinelAccumulateChunk(healthy.data(), healthy.size(), normSq,
                                      maxAmpSq, nanSeen);
  EXPECT_NEAR(normSq, 1.0, 1e-12);
  EXPECT_NEAR(maxAmpSq, 1.0, 1e-12);
  EXPECT_FALSE(nanSeen);

  std::vector<std::complex<T>> poisoned = {{kNaN, 0.0}, {0.0, 0.0}};
  normSq = maxAmpSq = 0.0;
  nanSeen = false;
  qclab::obs::sentinelAccumulateChunk(poisoned.data(), poisoned.size(),
                                      normSq, maxAmpSq, nanSeen);
  EXPECT_TRUE(nanSeen);
}

#else  // QCLAB_OBS_DISABLED

TEST(Sentinel, DisabledBuildIsInert) {
  SentinelConfig config;
  config.policy = SentinelPolicy::kThrow;
  config.interval = 1;
  sentinel().configure(config);  // no-op
  EXPECT_FALSE(sentinel().shouldCheck());
  EXPECT_NO_THROW(sentinel().throwIfPending());
  EXPECT_EQ(metrics().sentinelChecks(), 0u);
  EXPECT_EQ(metrics().sentinelNanDetected(), 0u);
  EXPECT_EQ(metrics().sentinelNormAlerts(), 0u);

  // Even a pathological circuit simulates silently.
  EXPECT_NO_THROW(driftCircuit({1.5, 0}).simulate("000"));
  EXPECT_EQ(metrics().sentinelChecks(), 0u);
}

#endif  // QCLAB_OBS_DISABLED
