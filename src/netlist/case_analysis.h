#pragma once
/// \file case_analysis.h
/// \brief Three-valued constant propagation (STA "case analysis").
///
/// Runtime accuracy scaling clamps input LSBs to zero (paper Sec.
/// III-A). Timing paths sourced by those constants are *disabled*
/// (set (1) in the paper's Fig. 2) and must be excluded from timing
/// and from the feasibility filter of the design-space exploration.
/// This module propagates forced port constants through the gate
/// network — including through registers, to a fixpoint — producing a
/// per-net value in {0, 1, X}. Any net that resolves to a constant
/// carries no transitions, so every timing arc touching it is dead.
///
/// The propagation runs on the compiled netlist (compiled.h) in
/// dual-rail form, one accuracy mode per word lane, so the all-mode
/// analysis the design-space exploration needs is one pass, not one
/// pass per mode.
///
/// Conservatism: iteration is bounded; a register value that cannot be
/// proven stable stays X. Unproven constants only make timing more
/// pessimistic (more active paths), never optimistic — the safe side.

#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace adq::netlist {

enum class LogicV : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline LogicV FromBool(bool b) { return b ? LogicV::kOne : LogicV::kZero; }

/// One forced primary-input value (the accuracy control interface:
/// "this operand bit is clamped to 0 in the selected mode").
struct ForcedValue {
  NetId net;
  bool value = false;
};

/// Result of case analysis over a netlist.
class CaseAnalysis {
 public:
  /// Propagates `forced` port constants to a fixpoint. The one-lane
  /// case of Batch.
  CaseAnalysis(const Netlist& nl, const std::vector<ForcedValue>& forced);

  /// Analyzes every mode (one set of forced port constants each) in
  /// one pass over the compiled netlist, 64 modes per word lane. Entry
  /// i is identical — values, num_constant() and fingerprint() — to
  /// CaseAnalysis(nl, modes[i]).
  static std::vector<CaseAnalysis> Batch(
      const Netlist& nl, std::span<const std::vector<ForcedValue>> modes);

  LogicV Value(NetId n) const { return values_[n.index()]; }
  bool IsConstant(NetId n) const { return Value(n) != LogicV::kX; }

  /// A timing arc through instance `inst` from input pin `pin` is
  /// active only if both the input net and the output nets can toggle.
  /// (Single query for "is this input net able to launch an event".)
  bool NetActive(NetId n) const { return !IsConstant(n); }

  /// Number of nets proven constant.
  std::size_t num_constant() const { return num_constant_; }

  /// Content digest of the resolved per-net values, computed once at
  /// construction. Two analyses with equal digests disable the same
  /// nets — the identity sta::TimingAnalyzer keys its cached sweep
  /// schedules on (object addresses are unreliable: a stack-allocated
  /// analysis can reuse the address of a destroyed one).
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  explicit CaseAnalysis(std::vector<LogicV> values);

  std::vector<LogicV> values_;
  std::size_t num_constant_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Every lane's value of one net as two words: bit l of `can0` (of
/// `can1`) is set when the net can be 0 (can be 1) in lane l. So 0 is
/// (1, 0), 1 is (0, 1) and X is (1, 1); (0, 0) never occurs.
struct DualRail {
  std::uint64_t can0 = ~0ULL;
  std::uint64_t can1 = ~0ULL;
};

/// Evaluates one combinational cell on dual-rail words with the exact
/// per-kind formula Batch runs: lane l of the outputs equals Evaluate3
/// on lane l of the inputs. Exposed for testing.
void EvaluateDualRail(tech::CellKind kind, const DualRail* in, DualRail* out);

/// Evaluates one cell in three-valued logic by enumerating the X
/// inputs: returns a constant only if every completion agrees.
/// Exposed for testing.
void Evaluate3(tech::CellKind kind, const LogicV* in, LogicV* out);

}  // namespace adq::netlist
