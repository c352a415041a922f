#pragma once
/// \file compiled.h
/// \brief The netlist compiled once for the 64-lane word evaluators.
///
/// Both word-parallel evaluators — the packed logic simulator
/// (sim::PackedLogicSim, one stimulus lane per bit) and all-mode case
/// analysis (netlist::CaseAnalysis::Batch, one accuracy mode per bit)
/// — sweep the same combinational network thousands of times. Walking
/// Instance records for that costs a cell-kind switch, a pin-count
/// lookup and scattered NetId loads per cell per sweep. The compiled
/// form pays those once:
///
///  - a flat op stream of the combinational cells (tie cells included)
///    with their pin nets hoisted to raw indices, ordered by logic
///    level and, inside a level, by cell kind — so the evaluators
///    dispatch on the kind once per OpRun, not once per cell (cells of
///    one level never read each other, so any order inside a level is
///    a valid topological order);
///  - the register (D, Q) pairs, in instance order;
///  - the subset of the stream in the combinational fan-out of the
///    primary inputs: after new input values, only these cells can
///    change before the next clock edge.

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "netlist/netlist.h"

namespace adq::netlist {

/// One combinational cell with its pin nets as raw net indices. Pins
/// beyond the kind's arity are 0 and never read.
struct CompiledOp {
  std::array<std::uint32_t, tech::kMaxCellInputs> in{};
  std::array<std::uint32_t, tech::kMaxCellOutputs> out{};
};

/// A maximal run [begin, end) of same-kind ops inside one logic level.
struct OpRun {
  tech::CellKind kind = tech::CellKind::kBuf;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// A levelized op sequence and its same-kind runs.
struct OpStream {
  std::vector<CompiledOp> ops;
  std::vector<OpRun> runs;
};

/// A register's pin nets: Q <= D at the clock edge.
struct RegisterPins {
  std::uint32_t d = 0;
  std::uint32_t q = 0;
};

class CompiledNetlist {
 public:
  /// Compiles `nl`. Throws CheckError on a combinational loop.
  explicit CompiledNetlist(const Netlist& nl);

  std::size_t num_nets() const { return num_nets_; }

  /// Every combinational and tie cell, in level order.
  const OpStream& comb() const { return comb_; }

  /// The cells of comb() in the combinational fan-out of a primary
  /// input, in the same order. Empty when every input port feeds only
  /// registers.
  const OpStream& input_fanout() const { return input_fanout_; }

  /// Every register, in instance order.
  const std::vector<RegisterPins>& registers() const { return registers_; }

 private:
  std::size_t num_nets_ = 0;
  OpStream comb_;
  OpStream input_fanout_;
  std::vector<RegisterPins> registers_;
};

/// Calls `f(std::integral_constant<tech::CellKind, K>{})` for the
/// combinational kind K == k, so that a per-run kernel is compiled
/// once per kind with the pin counts and the logic function folded.
template <class F>
void WithCombKind(tech::CellKind k, F&& f) {
  using K = tech::CellKind;
  switch (k) {
    case K::kTieLo: return f(std::integral_constant<K, K::kTieLo>{});
    case K::kTieHi: return f(std::integral_constant<K, K::kTieHi>{});
    case K::kBuf: return f(std::integral_constant<K, K::kBuf>{});
    case K::kInv: return f(std::integral_constant<K, K::kInv>{});
    case K::kNand2: return f(std::integral_constant<K, K::kNand2>{});
    case K::kNor2: return f(std::integral_constant<K, K::kNor2>{});
    case K::kAnd2: return f(std::integral_constant<K, K::kAnd2>{});
    case K::kOr2: return f(std::integral_constant<K, K::kOr2>{});
    case K::kXor2: return f(std::integral_constant<K, K::kXor2>{});
    case K::kXnor2: return f(std::integral_constant<K, K::kXnor2>{});
    case K::kNand3: return f(std::integral_constant<K, K::kNand3>{});
    case K::kNor3: return f(std::integral_constant<K, K::kNor3>{});
    case K::kAnd3: return f(std::integral_constant<K, K::kAnd3>{});
    case K::kOr3: return f(std::integral_constant<K, K::kOr3>{});
    case K::kAoi21: return f(std::integral_constant<K, K::kAoi21>{});
    case K::kOai21: return f(std::integral_constant<K, K::kOai21>{});
    case K::kMux2: return f(std::integral_constant<K, K::kMux2>{});
    case K::kHa: return f(std::integral_constant<K, K::kHa>{});
    case K::kFa: return f(std::integral_constant<K, K::kFa>{});
    case K::kDff:
    case K::kCount_: break;
  }
  ADQ_CHECK_MSG(false, "not a combinational cell kind");
}

/// Evaluates `stream` over one 64-lane word per net (index = net id):
/// lane l of every output equals tech::Evaluate on lane l of its
/// inputs.
void EvaluateWords(const OpStream& stream, std::uint64_t* values);

}  // namespace adq::netlist
