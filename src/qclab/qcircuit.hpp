#pragma once

/// \file qcircuit.hpp
/// \brief The quantum circuit container: an ordered sequence of gates,
/// measurements, resets, barriers, and nested sub-circuits, with
/// simulation, unitary extraction, inversion, and QASM / LaTeX / terminal
/// output (paper §2-§4).

#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "qclab/barrier.hpp"
#include "qclab/io/layout.hpp"
#include "qclab/measurement.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/qgates/qgates.hpp"
#include "qclab/reset.hpp"
#include "qclab/sim/backend.hpp"
#include "qclab/sim/dispatch_mode.hpp"
#include "qclab/sim/execute.hpp"
#include "qclab/simulation.hpp"

namespace qclab {

namespace sim {
struct BatchOptions;  // sim/batch.hpp — knobs of QCircuit::simulateBatch
template <typename U>
class DispatchRunner;  // sim/dispatch.hpp — the tableau route of simulate
}

/// Simulation-time options of QCircuit::simulate.
struct SimulateOptions {
  /// Fuse runs of adjacent gates into blocks applied with one state sweep
  /// each (sim/fusion.hpp).  Measurements, resets, and barriers flush the
  /// open run; results are identical to an unfused run up to rounding.
  /// `true` always fuses and `false` never does.  Unset (the default)
  /// fuses when the kernel backend runs a register of at least
  /// sim::kDefaultFusionMinQubits qubits; any other backend passed
  /// explicitly (SparseKronBackend, InstrumentedBackend) then applies
  /// every gate itself (sim::resolveFusion).
  std::optional<bool> fusion;
  /// Scheduler knobs used when the run fuses.
  sim::FusionOptions fusionOptions{};
  /// Which engine runs the circuit (sim/dispatch.hpp).  kAuto analyzes
  /// the circuit and runs its Clifford prefix on a CHP stabilizer tableau
  /// (O(n^2) per gate), expanding to a statevector at the first
  /// non-Clifford op; kStabilizer forces the tableau prefix regardless of
  /// length.  The QCLAB_DISPATCH environment variable overrides this
  /// field.  Only the bits-overload of simulate routes — simulating from
  /// an arbitrary state vector always uses the statevector pipeline.
  sim::DispatchMode dispatch = sim::DispatchMode::kStatevector;
  /// Tuning knobs of the kAuto router.
  sim::DispatchOptions dispatchOptions{};
  /// Where the state amplitudes live (sim/state_buffer.hpp): the heap
  /// or the out-of-core mmap tier, a mapping of an unlinked temporary
  /// file that the kernel pages — chosen automatically by state size,
  /// overridable here and through the QCLAB_STATE_TIER /
  /// QCLAB_STATE_DIR environment variables.  The bits-overload of
  /// simulate allocates tiered on every route, the tableau-converted
  /// branches of the dispatch routes included; simulating from an
  /// arbitrary state vector adopts it on the heap tier.
  sim::StateTierOptions stateTier{};
};

template <typename T>
class QCircuit final : public QObject<T> {
 public:
  /// Circuit over `nbQubits` qubits.  `offset` shifts all qubit indices
  /// when this circuit is nested inside a larger one (QCLAB's
  /// QCircuit(nbQubits, offset)).
  explicit QCircuit(int nbQubits, int offset = 0)
      : nbQubits_(nbQubits), offset_(offset) {
    util::require(nbQubits >= 1, "circuit needs at least one qubit");
    util::require(offset >= 0, "offset must be nonnegative");
  }

  QCircuit(const QCircuit& other)
      : nbQubits_(other.nbQubits_),
        offset_(other.offset_),
        isBlock_(other.isBlock_),
        label_(other.label_) {
    objects_.reserve(other.objects_.size());
    for (const auto& object : other.objects_) {
      objects_.push_back(object->clone());
    }
  }

  QCircuit& operator=(const QCircuit& other) {
    if (this != &other) {
      QCircuit copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  QCircuit(QCircuit&&) noexcept = default;
  QCircuit& operator=(QCircuit&&) noexcept = default;

  // ---- container interface -------------------------------------------

  /// Appends an object (gate, measurement, reset, barrier, sub-circuit).
  void push_back(std::unique_ptr<QObject<T>> object) {
    checkFits(*object);
    objects_.push_back(std::move(object));
  }

  /// Appends a copy-constructed object:
  ///   circuit.push_back(qclab::qgates::Hadamard<double>(0));
  template <typename ObjectT>
    requires std::is_base_of_v<QObject<T>, std::decay_t<ObjectT>>
  void push_back(ObjectT object) {
    push_back(std::make_unique<std::decay_t<ObjectT>>(std::move(object)));
  }

  /// Inserts an object before position `pos`.
  void insert(std::size_t pos, std::unique_ptr<QObject<T>> object) {
    util::require(pos <= objects_.size(), "insert position out of range");
    checkFits(*object);
    objects_.insert(objects_.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::move(object));
  }

  /// Removes the object at position `pos`.
  void erase(std::size_t pos) {
    util::require(pos < objects_.size(), "erase position out of range");
    objects_.erase(objects_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  /// Removes all objects.
  void clear() noexcept { objects_.clear(); }

  /// Number of objects in the circuit (non-recursive).
  std::size_t nbObjects() const noexcept { return objects_.size(); }

  /// Total number of elementary objects, descending into sub-circuits.
  std::size_t nbObjectsRecursive() const { return flatten().size(); }

  /// The elementary objects (gates, measurements, resets, barriers) in
  /// execution order, sub-circuits expanded, each with the qubit offset
  /// accumulated over its nesting chain (this circuit's own offset
  /// included).  The compile step every simulation driver runs from
  /// (sim/execute.hpp); the ops point into this circuit.
  std::vector<sim::FlatOp<T>> flatten() const {
    std::vector<sim::FlatOp<T>> ops;
    ops.reserve(objects_.size());  // exact for circuits without nesting
    flattenInto(ops, 0);
    return ops;
  }

  /// Histogram of elementary objects by kind, descending into
  /// sub-circuits: gates keyed by their diagram label / class behaviour
  /// ("measure", "reset", "barrier" for non-gates).
  std::map<std::string, std::size_t> gateCounts() const {
    std::map<std::string, std::size_t> counts;
    for (const auto& op : flatten()) ++counts[sim::opKindLabel(*op.object)];
    return counts;
  }

  /// Circuit depth: the number of layers when objects are packed greedily
  /// to the left (the same packing the diagram renderer uses).  Barriers
  /// occupy a layer of their own over their span; nested circuits
  /// contribute their elements individually.
  int depth() const {
    std::vector<int> nextFree(static_cast<std::size_t>(nbQubits_ + offset_),
                              0);
    int layers = 0;
    for (const auto& op : flatten()) {
      const int top = op.object->minQubit() + op.offset;
      const int bottom = op.object->maxQubit() + op.offset;
      int layer = 0;
      for (int row = top; row <= bottom; ++row) {
        layer = std::max(layer, nextFree[static_cast<std::size_t>(row)]);
      }
      for (int row = top; row <= bottom; ++row) {
        nextFree[static_cast<std::size_t>(row)] = layer + 1;
      }
      layers = std::max(layers, layer + 1);
    }
    return layers;
  }

  /// Structural fingerprint of the circuit SHAPE: a 64-bit FNV-1a hash
  /// over everything the simulate path's plan depends on — qubit count,
  /// object kinds (concrete gate types), qubit layout, control qubits and
  /// control states, measurement bases, nesting structure and offsets —
  /// and over no parameter VALUE (rotation angles and phases are
  /// excluded).  Two circuits with equal shapeHash can share one fusion
  /// plan + block schedule and differ only by parameter rebinding
  /// (sim::BatchedSimulation); circuits with the same gate sequence but
  /// different qubit counts, targets, or control layouts hash apart.
  std::uint64_t shapeHash() const {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    hashShapeValue(h, 0x51c1ab);                // domain tag
    hashShapeValue(h, static_cast<std::uint64_t>(nbQubits_));
    hashShape(h, 0);
    return h;
  }

  /// Object access.
  const QObject<T>& objectAt(std::size_t pos) const {
    util::require(pos < objects_.size(), "object position out of range");
    return *objects_[pos];
  }

  /// Mutable object access — the surface the parameter rebinding layer
  /// (parameter_binding.hpp) uses to reach gate setTheta in place.
  QObject<T>& objectAt(std::size_t pos) {
    util::require(pos < objects_.size(), "object position out of range");
    return *objects_[pos];
  }

  auto begin() const noexcept { return objects_.begin(); }
  auto end() const noexcept { return objects_.end(); }

  // ---- properties ------------------------------------------------------

  int nbQubits() const noexcept override { return nbQubits_; }

  /// Qubit offset of this circuit inside its parent.
  int offset() const noexcept { return offset_; }
  /// Changes the qubit offset.
  void setOffset(int offset) {
    util::require(offset >= 0, "offset must be nonnegative");
    offset_ = offset;
  }

  std::vector<int> qubits() const override {
    std::vector<int> qs(static_cast<std::size_t>(nbQubits_));
    for (int q = 0; q < nbQubits_; ++q) qs[static_cast<std::size_t>(q)] = q + offset_;
    return qs;
  }
  int maxQubit() const override { return offset_ + nbQubits_ - 1; }

  ObjectType objectType() const noexcept override {
    return ObjectType::kCircuit;
  }

  std::unique_ptr<QObject<T>> clone() const override {
    return std::make_unique<QCircuit<T>>(*this);
  }

  void shiftQubits(int delta) override { setOffset(offset_ + delta); }

  // ---- block drawing (paper §5.3: asBlock / unBlock) --------------------

  /// Draw this circuit as a single labeled box when nested.
  void asBlock(std::string label = "U") {
    isBlock_ = true;
    label_ = std::move(label);
  }
  /// Draw this circuit's contents individually again.
  void unBlock() noexcept { isBlock_ = false; }
  bool isBlock() const noexcept { return isBlock_; }
  const std::string& label() const noexcept { return label_; }

  // ---- linear algebra ----------------------------------------------------

  /// The 2^n x 2^n unitary of the circuit (throws if the circuit contains
  /// measurements or resets).  Computed column-by-column with the kernel
  /// backend.
  dense::Matrix<T> matrix() const {
    const std::vector<sim::FlatOp<T>> ops = flatten();
    for (const auto& op : ops) {
      const ObjectType type = op.object->objectType();
      if (type == ObjectType::kMeasurement || type == ObjectType::kReset) {
        throw InvalidArgumentError(
            "circuit with measurements or resets has no unitary matrix");
      }
    }
    const std::size_t dim = std::size_t{1} << nbQubits_;
    dense::Matrix<T> u(dim, dim);
    const sim::KernelBackend<T> backend;
    for (std::size_t j = 0; j < dim; ++j) {
      std::vector<std::complex<T>> state(dim);
      state[j] = std::complex<T>(1);
      for (const auto& op : ops) {
        if (op.object->objectType() != ObjectType::kGate) continue;
        backend.applyGate(state, nbQubits_,
                          static_cast<const qgates::QGate<T>&>(*op.object),
                          op.offset);
      }
      for (std::size_t i = 0; i < dim; ++i) u(i, j) = state[i];
    }
    return u;
  }

  /// The inverse circuit (objects reversed, each gate inverted); QCLAB's
  /// ctranspose.  Throws if the circuit contains measurements or resets.
  QCircuit<T> inverted() const {
    QCircuit<T> inverse(nbQubits_, offset_);
    if (isBlock_) inverse.asBlock(label_ + "†");
    for (auto it = objects_.rbegin(); it != objects_.rend(); ++it) {
      const QObject<T>& object = **it;
      switch (object.objectType()) {
        case ObjectType::kGate:
          inverse.objects_.push_back(
              static_cast<const qgates::QGate<T>&>(object).inverse());
          break;
        case ObjectType::kCircuit:
          inverse.objects_.push_back(std::make_unique<QCircuit<T>>(
              static_cast<const QCircuit<T>&>(object).inverted()));
          break;
        case ObjectType::kBarrier:
          inverse.objects_.push_back(object.clone());
          break;
        default:
          throw InvalidArgumentError(
              "cannot invert a circuit containing measurements or resets");
      }
    }
    return inverse;
  }

  // ---- simulation (paper §3) --------------------------------------------

  /// Simulates from the basis state given by `bits` (e.g. "00").
  Simulation<T> simulate(
      const std::string& bits,
      const sim::Backend<T>& backend = sim::defaultBackend<T>()) const {
    return simulate(bits, SimulateOptions{}, backend);
  }

  /// Simulates from an arbitrary initial state vector (normalized within
  /// 1e-6 relative; renormalized exactly before the run).
  Simulation<T> simulate(
      std::vector<std::complex<T>> state,
      const sim::Backend<T>& backend = sim::defaultBackend<T>()) const {
    return simulate(std::move(state), SimulateOptions{}, backend);
  }

  /// Simulates from the basis state given by `bits` with explicit options.
  /// When the resolved dispatch mode (options.dispatch, overridden by the
  /// QCLAB_DISPATCH environment variable) is not kStatevector, the run is
  /// offered to sim::DispatchRunner (sim/dispatch.hpp); a circuit the
  /// router declines runs on the statevector pipeline below.
  Simulation<T> simulate(
      const std::string& bits, const SimulateOptions& options,
      const sim::Backend<T>& backend = sim::defaultBackend<T>()) const {
    util::require(static_cast<int>(bits.size()) == nbQubits_,
                  "initial bitstring length must equal nbQubits");
    const sim::DispatchMode mode = sim::resolveDispatchMode(options.dispatch);
    if (mode != sim::DispatchMode::kStatevector) {
      std::optional<Simulation<T>> routed =
          sim::DispatchRunner<T>::simulate(*this, bits, options, backend,
                                           mode);
      if (routed) return std::move(*routed);
    }
    obs::metrics().countDispatchRoute(sim::DispatchRoute::kStatevector);
    sim::StateBuffer<T> state;
    {
      // Allocating through the tier ladder (instead of basisState's
      // plain vector) lets 30+ qubit runs land on the out-of-core tier;
      // on the mmap tier the zero-fill is a file hole, so only the basis
      // amplitude's page faults in here.
      const obs::ScopedSpan span("state/alloc");
      state = sim::StateBuffer<T>::zeros(sim::stateDim<T>(nbQubits_),
                                         options.stateTier);
      state.data()[util::bitstringToIndex(bits)] = std::complex<T>(1);
    }
    // An exact basis state: no norm pass over the 2^n amplitudes (on the
    // mmap tier that pass would fault in every page of the file hole).
    return simulateNormalized(std::move(state), options, backend);
  }

  /// Simulates from an arbitrary initial state with explicit options.
  /// When the run fuses (sim::resolveFusion) each gate run between
  /// measurement / reset / barrier boundaries (sim::compile) is fused
  /// into blocks, one plan per run applied to every branch; otherwise
  /// gates go through `backend` one at a time.
  /// Takes a StateBuffer so both legacy vectors (implicit heap adoption)
  /// and tiered allocations flow through one pipeline.
  Simulation<T> simulate(
      sim::StateBuffer<T> state, const SimulateOptions& options,
      const sim::Backend<T>& backend = sim::defaultBackend<T>()) const {
    util::require(state.size() == sim::stateDim<T>(nbQubits_),
                  "initial state dimension must be 2^nbQubits");
    const T norm = dense::norm2(state);
    util::require(std::abs(norm - T(1)) < T(1e-4),
                  "initial state must be normalized");
    if (norm != T(1)) {
      const T scale = T(1) / norm;
      for (auto& amplitude : state) amplitude *= scale;
    }
    return simulateNormalized(std::move(state), options, backend);
  }

  /// Batched parameter sweep (sim/batch.hpp — include it to use these):
  /// compiles this circuit's shape ONCE (fusion plan + block schedule),
  /// then executes one member per parameter vector by rebinding the
  /// plan's gate parameters (ParameterBinding slot order).  Every
  /// member's amplitudes are bit-identical to binding the same vector on
  /// a copy and calling simulate with the matching options.  Defined
  /// out-of-line in qclab/sim/batch.hpp.
  std::vector<Simulation<T>> simulateBatch(
      const std::vector<std::vector<T>>& parameterSets,
      const sim::BatchOptions& options) const;

  /// simulateBatch with default BatchOptions.
  std::vector<Simulation<T>> simulateBatch(
      const std::vector<std::vector<T>>& parameterSets) const;

  // ---- I/O (paper §4) -----------------------------------------------------

  /// Full OpenQASM 2.0 program.
  std::string toQASM() const {
    std::ostringstream stream;
    stream << "OPENQASM 2.0;\n"
           << "include \"qelib1.inc\";\n"
           << "qreg q[" << nbQubits_ << "];\n"
           << "creg c[" << nbQubits_ << "];\n";
    toQASM(stream, 0);
    return stream.str();
  }

  /// Emits only the body statements (used when nested).
  void toQASM(std::ostream& stream, int offset = 0) const override {
    for (const auto& object : objects_) {
      object->toQASM(stream, offset + offset_);
    }
  }

  /// UTF-8 terminal diagram of the circuit.
  std::string draw() const {
    std::vector<io::DrawItem> items;
    for (const auto& object : objects_) {
      object->appendDrawItems(items, offset_);
    }
    return io::renderAscii(items, nbQubits_ + offset_);
  }

  /// Standalone quantikz LaTeX document of the circuit diagram.
  std::string toTex() const {
    std::vector<io::DrawItem> items;
    for (const auto& object : objects_) {
      object->appendDrawItems(items, offset_);
    }
    return io::renderLatex(items, nbQubits_ + offset_);
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    if (isBlock_) {
      io::DrawItem item;
      item.kind = io::DrawItem::Kind::kBlock;
      item.label = label_;
      item.boxTop = offset + offset_;
      item.boxBottom = offset + offset_ + nbQubits_ - 1;
      items.push_back(std::move(item));
      return;
    }
    for (const auto& object : objects_) {
      object->appendDrawItems(items, offset + offset_);
    }
  }

 private:
  /// The statevector pipeline of simulate for a state of norm 1.
  Simulation<T> simulateNormalized(sim::StateBuffer<T> state,
                                   const SimulateOptions& options,
                                   const sim::Backend<T>& backend) const {
    obs::metrics().add(obs::Counter::kCircuitSimulations);
    const obs::ScopedSpan span("simulate");
    Simulation<T> simulation(nbQubits_, std::move(state));
    const obs::ScopedSpan executeSpan("execute");
    sim::execute(simulation,
                 sim::compile(flatten(), 0, nbQubits_,
                              sim::resolveFusion(options.fusion,
                                                 options.fusionOptions,
                                                 backend, nbQubits_)),
                 backend);
    return simulation;
  }

  /// Appends this circuit's elementary objects to `ops` (see flatten);
  /// `offset` accumulates parent offsets.
  void flattenInto(std::vector<sim::FlatOp<T>>& ops, int offset) const {
    const int total = offset + offset_;
    for (const auto& object : objects_) {
      if (object->objectType() == ObjectType::kCircuit) {
        static_cast<const QCircuit<T>&>(*object).flattenInto(ops, total);
      } else {
        ops.push_back({object.get(), total});
      }
    }
  }

  // ---- shape hashing (see shapeHash) ------------------------------------

  static void hashShapeValue(std::uint64_t& h, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  }

  static void hashShapeBytes(std::uint64_t& h, const char* bytes) {
    for (; *bytes != '\0'; ++bytes) {
      h ^= static_cast<unsigned char>(*bytes);
      h *= 1099511628211ull;
    }
  }

  /// Hashes this circuit's objects with absolute qubit indices (`offset`
  /// accumulates parent offsets, mirroring the simulate walk).  Gate
  /// kinds are keyed by typeid name: stable within a process, and — the
  /// property the batch engine needs — equal exactly when the concrete
  /// gate class is the same regardless of its parameter values.
  void hashShape(std::uint64_t& h, int offset) const {
    const int total = offset + offset_;
    hashShapeValue(h, static_cast<std::uint64_t>(objects_.size()));
    for (const auto& object : objects_) {
      hashShapeValue(h, static_cast<std::uint64_t>(object->objectType()));
      if (object->objectType() == ObjectType::kCircuit) {
        const auto& sub = static_cast<const QCircuit<T>&>(*object);
        hashShapeValue(h, static_cast<std::uint64_t>(sub.nbQubits_));
        sub.hashShape(h, total);
        continue;
      }
      hashShapeBytes(h, typeid(*object).name());
      for (const int qubit : object->qubits()) {
        hashShapeValue(h, static_cast<std::uint64_t>(qubit + total));
      }
      if (object->objectType() == ObjectType::kGate) {
        const auto& gate = static_cast<const qgates::QGate<T>&>(*object);
        const auto controls = gate.controls();
        const auto states = gate.controlStates();
        hashShapeValue(h, static_cast<std::uint64_t>(controls.size()));
        for (std::size_t i = 0; i < controls.size(); ++i) {
          hashShapeValue(h, static_cast<std::uint64_t>(controls[i] + total));
          hashShapeValue(h, static_cast<std::uint64_t>(states[i]));
        }
      } else if (object->objectType() == ObjectType::kMeasurement) {
        hashShapeValue(h, static_cast<std::uint64_t>(
                              static_cast<const Measurement<T>&>(*object)
                                  .basis()));
      }
    }
  }

  void checkFits(const QObject<T>& object) const {
    util::require(object.nbQubits() >= 1, "object acts on no qubits");
    const int top = object.maxQubit();
    if (top >= nbQubits_) [[unlikely]] {
      throw InvalidArgumentError("object qubit " + std::to_string(top) +
                                 " does not fit in a " +
                                 std::to_string(nbQubits_) + "-qubit circuit");
    }
  }

  int nbQubits_;
  int offset_;
  bool isBlock_ = false;
  std::string label_ = "U";
  std::vector<std::unique_ptr<QObject<T>>> objects_;
};

}  // namespace qclab

// The dispatch engine behind SimulateOptions::dispatch.  Included at the
// bottom because DispatchRunner needs the complete QCircuit (and vice
// versa); the mutual includes are #pragma-once safe in either order.
#include "qclab/sim/dispatch.hpp"
