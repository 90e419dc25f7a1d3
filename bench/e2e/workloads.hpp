#pragma once

/// \file workloads.hpp
/// \brief The four qclab_e2e workloads: seeded input generators, the
/// request each one times, and the checks on its outputs.
///
/// Every request goes through public library calls with library
/// defaults only: no SimulateOptions or BatchOptions field is set here,
/// so a change of a library default shows in the numbers.  Inputs come
/// from a splitmix64 stream of (seed, request id) that is independent of
/// the library's own RNG, so a change to the library's sampler never
/// changes the inputs.

#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "trace.hpp"

namespace qclab::e2e {

using T = double;
using Amplitude = std::complex<T>;

/// Request ids outside the timed range: the warm-up request of the
/// set-up phase and the instances of the reference checks.
inline constexpr std::uint64_t kWarmupId = ~std::uint64_t{0};
inline constexpr std::uint64_t kReferenceId = ~std::uint64_t{1};

inline constexpr double kTolerance = 1e-10;

/// splitmix64 stream of one (seed, request id) pair.
class InputRng {
 public:
  InputRng(std::uint64_t seed, std::uint64_t id)
      : state_(mix(seed ^ 0x5851f42d4c957f2dull) ^ mix(id)) {}

  std::uint64_t next() { return mix(state_ += 0x9e3779b97f4a7c15ull); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double low, double high) {
    return low + (high - low) * uniform();
  }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

/// Input-derived sizes of one request, summed over the traced run.
struct RequestCounts {
  double qasmBytes = 0;
  double gates = 0;          ///< gates applied, over all members
  double computedBytes = 0;  ///< gates x one read + one write of the state
  double simulations = 0;    ///< Simulation results (batch members)
  double finalBranches = 0;  ///< branches over all simulations
  double outcomeSlots = 0;   ///< entries of the sampled distribution
  double distinctOutcomes = 0;
  double termPasses = 0;     ///< Pauli-term state passes of expectations
  double members = 0;        ///< batch members

  RequestCounts& operator+=(const RequestCounts& o) {
    qasmBytes += o.qasmBytes;
    gates += o.gates;
    computedBytes += o.computedBytes;
    simulations += o.simulations;
    finalBranches += o.finalBranches;
    outcomeSlots += o.outcomeSlots;
    distinctOutcomes += o.distinctOutcomes;
    termPasses += o.termPasses;
    members += o.members;
    return *this;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Requests of a full run (which also ends when its time is up); a
  /// smoke run does 1/20 of them.
  virtual std::size_t nominalRequests() const = 0;
  /// Register size of the largest state a request holds.
  virtual int stateQubits() const = 0;
  /// Work done once per process before the warm-up request.
  virtual void setup() {}
  /// Seconds setup() spent compiling a batch plan.
  virtual double compileSeconds() const { return 0.0; }
  /// Generates the input of request `id` and drops the previous outputs
  /// (untimed, so freeing them is not charged to the next request).
  virtual void prepare(std::uint64_t id) = 0;
  /// The timed request.
  virtual void run(Tracer* tracer) = 0;
  /// Invariants of the last request's outputs; "" when they hold.
  virtual std::string check() const = 0;
  /// Hash of the last request's outputs (traced vs untraced identity).
  virtual std::uint64_t digest() const = 0;
  /// Damages the last request's outputs (--corrupt-for-test).
  virtual void corrupt() = 0;
  virtual RequestCounts counts() const = 0;
  /// Checks against the paper's reference algorithm (SparseKronBackend)
  /// and analytic results; returns the failures.
  virtual std::vector<std::string> referenceChecks() = 0;

 protected:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}

  /// Input stream of request `id`.  The warm-up request is the same for
  /// every seed, so set-up does the same work whatever the seed.
  InputRng input(std::uint64_t id) const {
    return InputRng(id == kWarmupId ? 0 : seed_, id);
  }

 private:
  std::uint64_t seed_;
};

namespace detail {

class Hasher {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, p + i, 8);
      mix(word);
    }
    for (; i < bytes; ++i) mix(p[i]);
  }
  template <typename V>
  void addValue(const V& value) {
    add(&value, sizeof(value));
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t word) {
    h_ = (h_ ^ word) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 29;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

template <typename State>
double normError(const State& state) {
  double sum = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) sum += std::norm(state[i]);
  return std::abs(std::sqrt(sum) - 1.0);
}

inline std::string show(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

inline std::string zeros(int qubits) {
  return std::string(static_cast<std::size_t>(qubits), '0');
}

/// Parses `qasm` and simulates it from |0...0>.  Untraced, this is the
/// user's `simulate(bits)`; traced, the same call is split into its
/// StateBuffer::zeros allocation and `simulate(StateBuffer, options)`,
/// which produce the same amplitudes bit for bit (checked by the traced
/// run).
inline Simulation<T> parseAndSimulate(const std::string& qasm,
                                      Tracer* tracer,
                                      std::optional<QCircuit<T>>& circuit) {
  {
    const Span span(tracer, "io.parse");
    circuit.emplace(io::parseQasm<T>(qasm));
  }
  const int n = circuit->nbQubits();
  if (tracer == nullptr) return circuit->simulate(zeros(n));
  sim::StateBuffer<T> state;
  {
    const Span span(tracer, "sim.state_buffer.alloc");
    state = sim::StateBuffer<T>::zeros(std::size_t{1} << n,
                                       SimulateOptions{}.stateTier);
    state.data()[0] = Amplitude(1);
  }
  const Span span(tracer, "qcircuit.execute");
  return circuit->simulate(std::move(state), SimulateOptions{});
}

inline std::uint64_t digestSimulation(Hasher& hasher,
                                      const Simulation<T>& simulation) {
  for (const auto& branch : simulation.branches()) {
    hasher.add(branch.result.data(), branch.result.size());
    hasher.addValue(branch.probability);
    hasher.add(branch.state.data(), branch.state.size() * sizeof(Amplitude));
  }
  return hasher.value();
}

/// Branch-by-branch agreement of the default pipeline with the paper's
/// sparse-Kronecker algorithm on the same circuit.
inline std::string compareWithSparseKron(const QCircuit<T>& circuit,
                                         const std::string& label) {
  const std::string bits = zeros(circuit.nbQubits());
  const Simulation<T> fast = circuit.simulate(bits);
  const sim::SparseKronBackend<T> sparseKron;
  const Simulation<T> reference = circuit.simulate(bits, sparseKron);
  if (fast.nbBranches() != reference.nbBranches()) {
    return label + ": branch count differs from SparseKronBackend";
  }
  for (std::size_t b = 0; b < fast.nbBranches(); ++b) {
    if (fast.result(b) != reference.result(b) ||
        std::abs(fast.probability(b) - reference.probability(b)) >
            kTolerance) {
      return label + ": branch outcome differs from SparseKronBackend";
    }
    const auto& a = fast.stateBuffer(b);
    const auto& r = reference.stateBuffer(b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i] - r[i]) > kTolerance) {
        return label + ": amplitude differs from SparseKronBackend by " +
               show(std::abs(a[i] - r[i]));
      }
    }
  }
  return "";
}

inline std::size_t nonzeroEntries(const std::vector<std::uint64_t>& counts) {
  std::size_t distinct = 0;
  for (const auto c : counts) distinct += c != 0;
  return distinct;
}

}  // namespace detail

// ---- qft18_counts -----------------------------------------------------

/// X-layer basis preparation of a seeded bitstring followed by the QFT,
/// sampled over the whole register.
class Qft18Counts final : public Workload {
 public:
  static constexpr int kQubits = 18;
  static constexpr std::uint64_t kShots = 1024;

  explicit Qft18Counts(std::uint64_t seed) : Workload(seed) {}

  std::size_t nominalRequests() const override { return 100; }
  int stateQubits() const override { return kQubits; }

  void prepare(std::uint64_t id) override {
    InputRng rng = input(id);
    qasm_ = generate(kQubits, rng, bits_);
    sampleSeed_ = rng.next();
    circuit_.reset();
    simulation_ = {};
    counts_.clear();
  }

  void run(Tracer* tracer) override {
    simulation_ = detail::parseAndSimulate(qasm_, tracer, circuit_);
    const Span span(tracer, "simulation.sample");
    random::Rng rng(sampleSeed_);
    counts_ = sampleStateCounts(simulation_.stateBuffer(0), kShots, rng);
  }

  std::string check() const override {
    const auto& state = simulation_.stateBuffer(0);
    if (detail::normError(state) > kTolerance) return "state norm is not 1";
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < counts_.size(); ++k) {
      total += counts_[k];
      if (counts_[k] != 0 && std::norm(state[k]) == 0.0) {
        return "outcome " + std::to_string(k) + " counted at probability 0";
      }
    }
    if (total != kShots) return "counts do not sum to the shot count";
    return "";
  }

  std::uint64_t digest() const override {
    detail::Hasher hasher;
    hasher.add(counts_.data(), counts_.size() * sizeof(std::uint64_t));
    return detail::digestSimulation(hasher, simulation_);
  }

  void corrupt() override { counts_[0] += 1; }

  RequestCounts counts() const override {
    RequestCounts c;
    c.qasmBytes = static_cast<double>(qasm_.size());
    c.gates = static_cast<double>(sim::analyzeCircuit(*circuit_).nbGates);
    c.computedBytes = c.gates * 2.0 * sizeof(Amplitude) *
                      static_cast<double>(std::size_t{1} << kQubits);
    c.simulations = 1;
    c.finalBranches = static_cast<double>(simulation_.nbBranches());
    c.outcomeSlots = static_cast<double>(counts_.size());
    c.distinctOutcomes = static_cast<double>(detail::nonzeroEntries(counts_));
    return c;
  }

  std::vector<std::string> referenceChecks() override {
    std::vector<std::string> failures;
    std::string bits;
    {
      InputRng rng = input(kReferenceId);
      const auto circuit = io::parseQasm<T>(generate(10, rng, bits));
      if (auto f = detail::compareWithSparseKron(circuit, "qft n=10");
          !f.empty()) {
        failures.push_back(f);
      }
    }
    // Full-size instance against the analytic QFT of the prepared basis
    // state |j>: amplitude k is exp(2 pi i j k / N) / sqrt(N).
    prepare(kReferenceId);
    run(nullptr);
    const auto& state = simulation_.stateBuffer(0);
    const std::uint64_t dim = std::uint64_t{1} << kQubits;
    const std::uint64_t j = util::bitstringToIndex(bits_);
    const double scale = 1.0 / std::sqrt(static_cast<double>(dim));
    double worst = 0.0;
    for (std::uint64_t k = 0; k < dim; ++k) {
      const double angle = 2.0 * M_PI * static_cast<double>((j * k) % dim) /
                           static_cast<double>(dim);
      worst = std::max(worst, std::abs(state[k] - std::polar(scale, angle)));
    }
    if (worst > kTolerance) {
      failures.push_back("qft n=18 differs from the analytic QFT by " +
                         detail::show(worst));
    }
    return failures;
  }

 private:
  static std::string generate(int n, InputRng& rng, std::string& bits) {
    QCircuit<T> circuit(n);
    bits.assign(static_cast<std::size_t>(n), '0');
    for (int q = 0; q < n; ++q) {
      if (rng.below(2) == 1) {
        bits[static_cast<std::size_t>(q)] = '1';
        circuit.push_back(qgates::PauliX<T>(q));
      }
    }
    circuit.push_back(algorithms::qft<T>(n));
    return circuit.toQASM();
  }

  std::string qasm_;
  std::string bits_;
  std::uint64_t sampleSeed_ = 0;
  std::optional<QCircuit<T>> circuit_;
  Simulation<T> simulation_;
  std::vector<std::uint64_t> counts_;
};

// ---- trotter20_state --------------------------------------------------

/// Inhomogeneous transverse-field Ising evolution: four first-order
/// Trotter steps of an rzz on every neighbouring pair and an rx on every
/// qubit, with seeded couplings and fields.  The amplitudes are the
/// result.
class Trotter20State final : public Workload {
 public:
  static constexpr int kQubits = 20;
  static constexpr int kSteps = 4;

  explicit Trotter20State(std::uint64_t seed) : Workload(seed) {}

  std::size_t nominalRequests() const override { return 150; }
  int stateQubits() const override { return kQubits; }

  void prepare(std::uint64_t id) override {
    InputRng rng = input(id);
    qasm_ = generate(kQubits, rng);
    circuit_.reset();
    simulation_ = {};
  }

  void run(Tracer* tracer) override {
    simulation_ = detail::parseAndSimulate(qasm_, tracer, circuit_);
  }

  std::string check() const override {
    if (detail::normError(simulation_.stateBuffer(0)) > kTolerance) {
      return "state norm is not 1";
    }
    return "";
  }

  std::uint64_t digest() const override {
    detail::Hasher hasher;
    return detail::digestSimulation(hasher, simulation_);
  }

  void corrupt() override {
    for (auto& amplitude : simulation_.branches()[0].state) amplitude *= 1.01;
  }

  RequestCounts counts() const override {
    RequestCounts c;
    c.qasmBytes = static_cast<double>(qasm_.size());
    c.gates = static_cast<double>(sim::analyzeCircuit(*circuit_).nbGates);
    c.computedBytes = c.gates * 2.0 * sizeof(Amplitude) *
                      static_cast<double>(std::size_t{1} << kQubits);
    c.simulations = 1;
    c.finalBranches = static_cast<double>(simulation_.nbBranches());
    return c;
  }

  std::vector<std::string> referenceChecks() override {
    InputRng rng = input(kReferenceId);
    const auto circuit = io::parseQasm<T>(generate(10, rng));
    const auto failure =
        detail::compareWithSparseKron(circuit, "trotter n=10");
    if (failure.empty()) return {};
    return {failure};
  }

 private:
  static std::string generate(int n, InputRng& rng) {
    constexpr double kDt = 0.25;
    std::vector<double> coupling(static_cast<std::size_t>(n - 1));
    std::vector<double> field(static_cast<std::size_t>(n));
    for (auto& j : coupling) j = rng.uniform(0.5, 1.5);
    for (auto& h : field) h = rng.uniform(0.5, 1.5);
    QCircuit<T> circuit(n);
    for (int step = 0; step < kSteps; ++step) {
      for (int q = 0; q + 1 < n; ++q) {
        circuit.push_back(qgates::RotationZZ<T>(
            q, q + 1, -2.0 * coupling[static_cast<std::size_t>(q)] * kDt));
      }
      for (int q = 0; q < n; ++q) {
        circuit.push_back(qgates::RotationX<T>(
            q, -2.0 * field[static_cast<std::size_t>(q)] * kDt));
      }
    }
    return circuit.toQASM();
  }

  std::string qasm_;
  std::optional<QCircuit<T>> circuit_;
  Simulation<T> simulation_;
};

// ---- qaoa16_sweep -----------------------------------------------------

/// Variational inner loop: one BatchedSimulation of MaxCut QAOA (p = 2)
/// on the complete graph K16, compiled at set-up; each request runs eight
/// seeded (gamma, beta) sets and evaluates <C> for each member.
class Qaoa16Sweep final : public Workload {
 public:
  static constexpr int kVertices = 16;
  static constexpr int kMembers = 8;

  explicit Qaoa16Sweep(std::uint64_t seed)
      : Workload(seed), graph_(completeGraph(kVertices)),
        cost_(algorithms::maxCutHamiltonian<T>(graph_)) {}

  std::size_t nominalRequests() const override { return 100; }
  int stateQubits() const override { return kVertices; }

  void setup() override {
    const auto prototype = placeholderCircuit(graph_);
    gatesPerMember_ =
        static_cast<double>(sim::analyzeCircuit(prototype).nbGates);
    const auto start = std::chrono::steady_clock::now();
    engine_ = std::make_unique<sim::BatchedSimulation<T>>(prototype);
    compileSeconds_ = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  }

  double compileSeconds() const override { return compileSeconds_; }

  void prepare(std::uint64_t id) override {
    InputRng rng = input(id);
    parameterSets_ = generate(rng);
    members_.clear();
    cuts_.clear();
  }

  void run(Tracer* tracer) override {
    {
      const Span span(tracer, "sim.batch.run");
      members_ = engine_->run(parameterSets_);
    }
    cuts_.resize(members_.size());
    for (std::size_t m = 0; m < members_.size(); ++m) {
      const Span span(tracer, "observable.expectation");
      cuts_[m] = cost_.expectation(members_[m].state(0));
    }
  }

  std::string check() const override {
    if (members_.size() != kMembers) return "wrong number of batch members";
    const double edges = static_cast<double>(graph_.edges.size());
    for (std::size_t m = 0; m < members_.size(); ++m) {
      if (detail::normError(members_[m].state(0)) > kTolerance) {
        return "member state norm is not 1";
      }
      if (!(cuts_[m] >= 0.0 && cuts_[m] <= edges)) {
        return "<C> = " + detail::show(cuts_[m]) + " outside [0, |E|]";
      }
    }
    return "";
  }

  std::uint64_t digest() const override {
    detail::Hasher hasher;
    hasher.add(cuts_.data(), cuts_.size() * sizeof(double));
    for (const auto& member : members_) {
      detail::digestSimulation(hasher, member);
    }
    return hasher.value();
  }

  void corrupt() override { cuts_[0] = -1.0; }

  RequestCounts counts() const override {
    RequestCounts c;
    c.members = static_cast<double>(members_.size());
    c.gates = gatesPerMember_ * c.members;
    c.computedBytes = c.gates * 2.0 * sizeof(Amplitude) *
                      static_cast<double>(std::size_t{1} << kVertices);
    c.simulations = c.members;
    for (const auto& member : members_) {
      c.finalBranches += static_cast<double>(member.nbBranches());
    }
    c.termPasses = static_cast<double>(cost_.nbTerms()) * c.members;
    return c;
  }

  std::vector<std::string> referenceChecks() override {
    // K10 instance: a rebound batch member vs the bound circuit on the
    // sparse-Kronecker backend.
    const auto graph = completeGraph(10);
    InputRng rng = input(kReferenceId);
    std::vector<T> gammas, betas;
    angles(rng, gammas, betas);
    const auto bound = algorithms::qaoaCircuit<T>(graph, gammas, betas);
    sim::BatchedSimulation<T> engine(placeholderCircuit(graph));
    const auto member = engine.run({engine.parametersOf(bound)});
    const sim::SparseKronBackend<T> sparseKron;
    const auto reference = bound.simulate(detail::zeros(10), sparseKron);
    double worst = 0.0;
    for (std::size_t i = 0; i < reference.state(0).size(); ++i) {
      worst = std::max(
          worst, std::abs(member[0].state(0)[i] - reference.state(0)[i]));
    }
    if (worst > kTolerance) {
      return {"qaoa n=10 batch member differs from SparseKronBackend by " +
              detail::show(worst)};
    }
    return {};
  }

 private:
  /// The compiled shape; requests rebind its angles.
  static QCircuit<T> placeholderCircuit(const algorithms::Graph& graph) {
    return algorithms::qaoaCircuit<T>(graph, {0.1, 0.2}, {0.3, 0.4});
  }

  static algorithms::Graph completeGraph(int n) {
    algorithms::Graph graph{n, {}};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) graph.edges.push_back({i, j});
    }
    return graph;
  }

  static void angles(InputRng& rng, std::vector<T>& gammas,
                     std::vector<T>& betas) {
    gammas = {rng.uniform(0.0, M_PI), rng.uniform(0.0, M_PI)};
    betas = {rng.uniform(0.0, M_PI / 2), rng.uniform(0.0, M_PI / 2)};
  }

  /// kMembers seeded (gamma, beta) sets in the engine's slot order.
  std::vector<std::vector<T>> generate(InputRng& rng) const {
    std::vector<std::vector<T>> sets;
    for (int m = 0; m < kMembers; ++m) {
      std::vector<T> gammas, betas;
      angles(rng, gammas, betas);
      sets.push_back(sim::BatchedSimulation<T>::parametersOf(
          algorithms::qaoaCircuit<T>(graph_, gammas, betas)));
    }
    return sets;
  }

  algorithms::Graph graph_;
  Observable<T> cost_;
  std::unique_ptr<sim::BatchedSimulation<T>> engine_;
  double compileSeconds_ = 0.0;
  double gatesPerMember_ = 0.0;
  std::vector<std::vector<T>> parameterSets_;
  std::vector<Simulation<T>> members_;
  std::vector<double> cuts_;
};

// ---- paper_circuits ---------------------------------------------------

/// A seeded mix of the paper's small circuits, each with mid-circuit
/// measurement: E1 Bell, E2 teleportation of a seeded u3 state, E4 Grover
/// (n = 2..5, seeded marked string) and E5 repetition code (seeded
/// error, ancilla reset, data readout).  Fixed per-call costs dominate.
class PaperCircuits final : public Workload {
 public:
  static constexpr std::uint64_t kShots = 1024;

  explicit PaperCircuits(std::uint64_t seed) : Workload(seed) {}

  std::size_t nominalRequests() const override { return 200000; }
  int stateQubits() const override { return 5; }

  void prepare(std::uint64_t id) override {
    InputRng rng = input(id);
    input_ = generate(rng);
    circuit_.reset();
    simulation_ = {};
    counts_.clear();
  }

  void run(Tracer* tracer) override {
    simulation_ = detail::parseAndSimulate(input_.qasm, tracer, circuit_);
    const Span span(tracer, "simulation.sample");
    counts_ = simulation_.countsMap(kShots, input_.sampleSeed);
  }

  std::string check() const override {
    const std::string failure = verify(input_, simulation_, counts_);
    return failure.empty() ? failure : input_.label + ": " + failure;
  }

  std::uint64_t digest() const override {
    detail::Hasher hasher;
    for (const auto& [outcome, count] : counts_) {
      hasher.add(outcome.data(), outcome.size());
      hasher.addValue(count);
    }
    return detail::digestSimulation(hasher, simulation_);
  }

  void corrupt() override { counts_.begin()->second += 1; }

  RequestCounts counts() const override {
    RequestCounts c;
    c.qasmBytes = static_cast<double>(input_.qasm.size());
    c.gates = static_cast<double>(sim::analyzeCircuit(*circuit_).nbGates);
    c.computedBytes = c.gates * 2.0 * sizeof(Amplitude) *
                      static_cast<double>(std::size_t{1}
                                          << circuit_->nbQubits());
    c.simulations = 1;
    c.finalBranches = static_cast<double>(simulation_.nbBranches());
    c.outcomeSlots = static_cast<double>(simulation_.nbBranches());
    c.distinctOutcomes = static_cast<double>(counts_.size());
    return c;
  }

  std::vector<std::string> referenceChecks() override {
    // The paper circuits are at most 5 qubits wide: check one instance of
    // each kind at its own size.
    std::vector<std::string> failures;
    InputRng rng = input(kReferenceId);
    for (int kind = 0; kind < kKinds; ++kind) {
      const Input input = generate(rng, kind);
      const auto circuit = io::parseQasm<T>(input.qasm);
      if (auto f = detail::compareWithSparseKron(circuit, input.label);
          !f.empty()) {
        failures.push_back(f);
      }
      const auto simulation =
          circuit.simulate(detail::zeros(circuit.nbQubits()));
      if (auto f = verify(input, simulation,
                          simulation.countsMap(kShots, input.sampleSeed));
          !f.empty()) {
        failures.push_back(input.label + ": " + f);
      }
    }
    return failures;
  }

 private:
  enum Kind { kBell, kTeleport, kGrover, kRepetition, kKinds };

  struct Input {
    Kind kind = kBell;
    std::string label;
    std::string qasm;
    std::uint64_t sampleSeed = 0;
    double probabilityOne = 0.0;  ///< P(teleported / logical qubit = 1)
    std::string marked;           ///< Grover target
    std::string syndrome;         ///< expected repetition-code syndrome
  };

  /// Seeded single-qubit input state u3(theta, phi, lambda)|0> on qubit 0;
  /// returns P(measuring it as 1).
  static double addInputState(QCircuit<T>& circuit, InputRng& rng) {
    const qgates::U3<T> u3(0, rng.uniform(0.0, M_PI),
                           rng.uniform(0.0, 2 * M_PI),
                           rng.uniform(0.0, 2 * M_PI));
    circuit.push_back(u3);
    return std::norm(u3.matrix()(1, 0));
  }

  /// One request of the mix: each kind with probability 1/4.
  static Input generate(InputRng& rng) {
    return generate(rng, rng.below(kKinds));
  }

  static Input generate(InputRng& rng, int kind) {
    Input input;
    input.kind = static_cast<Kind>(kind);
    switch (input.kind) {
      case kBell: {
        input.label = "E1 bell";
        QCircuit<T> circuit(2);
        circuit.push_back(qgates::Hadamard<T>(0));
        circuit.push_back(qgates::CX<T>(0, 1));
        circuit.push_back(Measurement<T>(0));
        circuit.push_back(Measurement<T>(1));
        input.qasm = circuit.toQASM();
        break;
      }
      case kTeleport: {
        input.label = "E2 teleportation";
        QCircuit<T> circuit(3);
        input.probabilityOne = addInputState(circuit, rng);
        circuit.push_back(qgates::Hadamard<T>(1));
        circuit.push_back(qgates::CX<T>(1, 2));
        circuit.push_back(algorithms::teleportationCircuit<T>());
        circuit.push_back(Measurement<T>(2));
        input.qasm = circuit.toQASM();
        break;
      }
      case kGrover: {
        // toQASM has no mnemonic for an MCZ with more than 4 controls.
        const int n = 2 + rng.below(4);
        input.label = "E4 grover n=" + std::to_string(n);
        for (int q = 0; q < n; ++q) input.marked += rng.below(2) ? '1' : '0';
        input.qasm = algorithms::grover<T>(input.marked).toQASM();
        break;
      }
      case kRepetition: {
        input.label = "E5 repetition code";
        const int error = rng.below(4) - 1;  // -1: no error
        input.syndrome = algorithms::expectedSyndrome(error);
        QCircuit<T> circuit(5);
        input.probabilityOne = addInputState(circuit, rng);
        circuit.push_back(algorithms::repetitionCodeDemo<T>(error));
        circuit.push_back(Reset<T>(3));
        circuit.push_back(Reset<T>(4));
        for (int q = 0; q < 3; ++q) circuit.push_back(Measurement<T>(q));
        input.qasm = circuit.toQASM();
        break;
      }
      case kKinds:
        break;
    }
    input.sampleSeed = rng.next();
    return input;
  }

  static std::string verify(
      const Input& input, const Simulation<T>& simulation,
      const std::map<std::string, std::uint64_t>& counts) {
    double total = 0.0;
    double one = 0.0;  // P(teleported / logical qubit reads 1)
    double marked = 0.0;
    for (const auto& branch : simulation.branches()) {
      // Renormalizing an unlikely branch amplifies rounding by 1/p, so a
      // branch's norm error is weighed by its share of the ensemble.
      if (const double error = detail::normError(branch.state);
          error * branch.probability > kTolerance) {
        return "branch " + branch.result + " state norm is off by " +
               detail::show(error) + " at probability " +
               detail::show(branch.probability);
      }
      total += branch.probability;
      const std::string& r = branch.result;
      switch (input.kind) {
        case kBell:
          if (r != "00" && r != "11") return "Bell outcome " + r;
          if (std::abs(branch.probability - 0.5) > kTolerance) {
            return "Bell outcome probability is not 1/2";
          }
          break;
        case kTeleport:
          one += r[2] == '1' ? branch.probability : 0.0;
          break;
        case kGrover:
          marked += r == input.marked ? branch.probability : 0.0;
          break;
        case kRepetition:
          if (r.compare(0, 2, input.syndrome) != 0) {
            return "syndrome " + r.substr(0, 2) + ", expected " +
                   input.syndrome;
          }
          if (r[2] != r[3] || r[3] != r[4]) return "uncorrected data " + r;
          one += r[2] == '1' ? branch.probability : 0.0;
          break;
        case kKinds:
          break;
      }
    }
    if (std::abs(total - 1.0) > kTolerance) {
      return "branch probabilities do not sum to 1";
    }
    if ((input.kind == kTeleport || input.kind == kRepetition) &&
        std::abs(one - input.probabilityOne) > kTolerance) {
      return "logical qubit statistics differ from the input state";
    }
    if (input.kind == kGrover) {
      const int n = static_cast<int>(input.marked.size());
      const double expected = algorithms::groverSuccessProbability(
          n, algorithms::groverIterations(n));
      if (std::abs(marked - expected) > kTolerance) {
        return "Grover success probability differs from the analytic value";
      }
    }
    std::uint64_t shots = 0;
    for (const auto& [outcome, count] : counts) {
      shots += count;
      bool possible = false;
      for (const auto& branch : simulation.branches()) {
        possible |= branch.result == outcome && branch.probability > 0.0;
      }
      if (count != 0 && !possible) {
        return "outcome " + outcome + " counted at probability 0";
      }
    }
    if (shots != kShots) return "counts do not sum to the shot count";
    return "";
  }

  Input input_;
  std::optional<QCircuit<T>> circuit_;
  Simulation<T> simulation_;
  std::map<std::string, std::uint64_t> counts_;
};

inline const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "qft18_counts", "trotter20_state", "qaoa16_sweep", "paper_circuits"};
  return names;
}

inline std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                              std::uint64_t seed) {
  if (name == "qft18_counts") return std::make_unique<Qft18Counts>(seed);
  if (name == "trotter20_state") return std::make_unique<Trotter20State>(seed);
  if (name == "qaoa16_sweep") return std::make_unique<Qaoa16Sweep>(seed);
  if (name == "paper_circuits") return std::make_unique<PaperCircuits>(seed);
  return nullptr;
}

}  // namespace qclab::e2e
