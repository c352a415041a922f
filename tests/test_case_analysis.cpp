/// Tests for three-valued constant propagation (STA case analysis) —
/// the machinery that detects the paper's "disabled paths" (Fig. 2
/// set (1)) when input LSBs are clamped.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/accuracy.h"
#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "netlist/netlist.h"
#include "netlist/topo.h"

namespace adq::netlist {
namespace {

using tech::CellKind;
using tech::DriveStrength;

TEST(Evaluate3, MatchesExhaustiveEnumeration) {
  // For every kind and every 3-valued input assignment, Evaluate3 must
  // equal the agreement of all boolean completions.
  for (int k = 0; k < tech::kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int n_in = tech::NumInputs(kind);
    const int n_out = tech::NumOutputs(kind);
    int assign[3] = {0, 0, 0};
    const int total = 1 * (n_in >= 1 ? 3 : 1) * (n_in >= 2 ? 3 : 1) *
                      (n_in >= 3 ? 3 : 1);
    for (int t = 0; t < total; ++t) {
      int rem = t;
      LogicV in3[3];
      for (int i = 0; i < n_in; ++i) {
        assign[i] = rem % 3;
        rem /= 3;
        in3[i] = static_cast<LogicV>(assign[i]);
      }
      LogicV out3[2];
      Evaluate3(kind, in3, out3);

      // Reference: enumerate completions.
      bool first = true;
      bool ref[2] = {false, false};
      bool agree[2] = {true, true};
      int x_pos[3], n_x = 0;
      bool base[3] = {false, false, false};
      for (int i = 0; i < n_in; ++i) {
        if (in3[i] == LogicV::kX)
          x_pos[n_x++] = i;
        else
          base[i] = in3[i] == LogicV::kOne;
      }
      for (unsigned m = 0; m < (1u << n_x); ++m) {
        bool ins[3] = {base[0], base[1], base[2]};
        for (int j = 0; j < n_x; ++j) ins[x_pos[j]] = (m >> j) & 1;
        bool o[2];
        tech::Evaluate(kind, ins, o);
        for (int q = 0; q < n_out; ++q) {
          if (first)
            ref[q] = o[q];
          else if (o[q] != ref[q])
            agree[q] = false;
        }
        first = false;
      }
      for (int q = 0; q < n_out; ++q) {
        const LogicV expect =
            agree[q] ? FromBool(ref[q]) : LogicV::kX;
        EXPECT_EQ(out3[q], expect)
            << tech::ToString(kind) << " inputs " << assign[0] << ","
            << assign[1] << "," << assign[2] << " out " << q;
      }
    }
  }
}

TEST(CaseAnalysis, ControllingConstantPropagates) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kAnd2, {a, b});
  nl.AddOutputPort("y", y);
  // a = 0 controls the AND regardless of b.
  const CaseAnalysis ca(nl, {{a, false}});
  EXPECT_EQ(ca.Value(y), LogicV::kZero);
  EXPECT_FALSE(ca.IsConstant(b));
}

TEST(CaseAnalysis, NonControllingConstantDoesNot) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kAnd2, {a, b});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, true}});  // AND with 1: transparent
  EXPECT_EQ(ca.Value(y), LogicV::kX);
}

TEST(CaseAnalysis, TieCellsAreConstant) {
  Netlist nl;
  const NetId zero = nl.ConstNet(false);
  const NetId one = nl.ConstNet(true);
  const NetId y = nl.AddGate(CellKind::kXor2, {zero, one});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {});
  EXPECT_EQ(ca.Value(zero), LogicV::kZero);
  EXPECT_EQ(ca.Value(one), LogicV::kOne);
  EXPECT_EQ(ca.Value(y), LogicV::kOne);
}

TEST(CaseAnalysis, PropagatesThroughRegisters) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId q = nl.AddGate(CellKind::kDff, {a});
  const NetId y = nl.AddGate(CellKind::kInv, {q});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, false}});
  EXPECT_EQ(ca.Value(q), LogicV::kZero);
  EXPECT_EQ(ca.Value(y), LogicV::kOne);
}

TEST(CaseAnalysis, AccumulatorFeedbackStaysUnknown) {
  // acc <= acc + in with in = 0: the register output is NOT provably
  // constant (it holds whatever it held), so timing through the
  // accumulator must stay active — the conservative answer.
  Netlist nl;
  const NetId in = nl.AddInputPort("in");
  const NetId q = nl.NewNet();
  const NetId d = nl.AddGate(CellKind::kXor2, {q, in});
  nl.AddCellWithOutputs(CellKind::kDff, DriveStrength::kX1, {d}, {q});
  nl.AddOutputPort("y", q);
  const CaseAnalysis ca(nl, {{in, false}});
  EXPECT_EQ(ca.Value(q), LogicV::kX);
  EXPECT_EQ(ca.Value(d), LogicV::kX);
}

TEST(CaseAnalysis, RegisterChainOfConstants) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  NetId n = a;
  for (int i = 0; i < 5; ++i) n = nl.AddGate(CellKind::kDff, {n});
  nl.AddOutputPort("y", n);
  const CaseAnalysis ca(nl, {{a, true}});
  EXPECT_EQ(ca.Value(n), LogicV::kOne) << "constant must cross 5 registers";
}

TEST(CaseAnalysis, NumConstantCountsForcedAndDerived) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kOr2, {a, b});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, true}});  // OR with 1 -> y = 1
  EXPECT_EQ(ca.num_constant(), 2u);        // a and y
}

TEST(CaseAnalysis, OnlyPortsMayBeForced) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId y = nl.AddGate(CellKind::kBuf, {a});
  nl.AddOutputPort("y", y);
  EXPECT_THROW(CaseAnalysis(nl, {{y, false}}), CheckError);
}

TEST(CaseAnalysis, XorChainKillsExactlyForcedCone) {
  // y = (a ^ b) ^ c with a,b forced: a^b constant, but y still X.
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId c = nl.AddInputPort("c");
  const NetId ab = nl.AddGate(CellKind::kXor2, {a, b});
  const NetId y = nl.AddGate(CellKind::kXor2, {ab, c});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, false}, {b, true}});
  EXPECT_EQ(ca.Value(ab), LogicV::kOne);
  EXPECT_EQ(ca.Value(y), LogicV::kX);
}

TEST(DualRail, MatchesEvaluate3ExhaustivelyForEveryKind) {
  // Lane t carries the t-th assignment of {0, 1, X}^n (at most 27
  // lanes), so one call checks every assignment and that lanes stay
  // independent. Lanes past the last assignment carry all-X inputs.
  for (int k = 0; k < tech::kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    if (tech::IsSequential(kind)) continue;
    const int n_in = tech::NumInputs(kind);
    const int n_out = tech::NumOutputs(kind);
    int total = 1;
    for (int i = 0; i < n_in; ++i) total *= 3;
    DualRail in[tech::kMaxCellInputs];
    for (int t = 0; t < total; ++t) {
      int rem = t;
      for (int i = 0; i < n_in; ++i, rem /= 3) {
        const auto v = static_cast<LogicV>(rem % 3);
        if (v == LogicV::kOne) in[i].can0 &= ~(1ULL << t);
        if (v == LogicV::kZero) in[i].can1 &= ~(1ULL << t);
      }
    }
    DualRail out[tech::kMaxCellOutputs];
    EvaluateDualRail(kind, in, out);
    for (int t = 0; t < 64; ++t) {
      LogicV in3[3] = {LogicV::kX, LogicV::kX, LogicV::kX};
      int rem = t;
      for (int i = 0; i < n_in && t < total; ++i, rem /= 3)
        in3[i] = static_cast<LogicV>(rem % 3);
      LogicV expect[2];
      Evaluate3(kind, in3, expect);
      for (int o = 0; o < n_out; ++o) {
        const bool c0 = (out[o].can0 >> t) & 1ULL;
        const bool c1 = (out[o].can1 >> t) & 1ULL;
        const LogicV got = c0 && c1 ? LogicV::kX : FromBool(c1);
        EXPECT_TRUE(c0 || c1) << tech::ToString(kind) << " lane " << t;
        EXPECT_EQ(got, expect[o])
            << tech::ToString(kind) << " lane " << t << " out " << o;
      }
    }
  }
}

/// The one-mode fixpoint loop CaseAnalysis ran before it was compiled
/// to dual-rail words, kept here as the oracle: Evaluate3 per cell in
/// topological order, then register transfer in instance order, until
/// nothing changes.
std::vector<LogicV> ScalarFixpoint(const Netlist& nl,
                                   const std::vector<ForcedValue>& forced) {
  std::vector<LogicV> values(nl.num_nets(), LogicV::kX);
  for (const ForcedValue& f : forced) values[f.net.index()] = FromBool(f.value);
  const std::vector<InstId> order = TopologicalOrder(nl);
  std::vector<bool> sticky(nl.num_instances(), false);
  bool changed = true;
  int guard = 0;
  while (changed) {
    changed = false;
    EXPECT_LE(++guard, 64);
    for (const InstId id : order) {
      const Instance& inst = nl.inst(id);
      if (inst.is_sequential()) continue;
      LogicV in3[3];
      for (int p = 0; p < inst.num_inputs(); ++p)
        in3[p] = values[inst.in[p].index()];
      LogicV out3[2];
      Evaluate3(inst.kind, in3, out3);
      for (int o = 0; o < inst.num_outputs(); ++o) {
        LogicV& slot = values[inst.out[o].index()];
        if (slot != out3[o]) {
          slot = out3[o];
          changed = true;
        }
      }
    }
    for (std::size_t i = 0; i < nl.num_instances(); ++i) {
      const Instance& inst = nl.instances()[i];
      if (!inst.is_sequential() || sticky[i]) continue;
      const LogicV d = values[inst.in[0].index()];
      LogicV& q = values[inst.out[0].index()];
      if (q == LogicV::kX) {
        if (d != LogicV::kX) {
          q = d;
          changed = true;
        }
      } else if (d != q) {
        q = LogicV::kX;
        sticky[i] = true;
        changed = true;
      }
    }
  }
  return values;
}

std::uint64_t Fingerprint(const std::vector<LogicV>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const LogicV v : values) {
    h ^= static_cast<std::uint8_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h ^ values.size();
}

/// Batch over `modes` must equal the scalar oracle mode by mode: every
/// net's value, num_constant() and fingerprint().
void ExpectBatchMatchesOracle(
    const Netlist& nl, const std::vector<std::vector<ForcedValue>>& modes,
    const std::string& what) {
  const std::vector<CaseAnalysis> batch = CaseAnalysis::Batch(nl, modes);
  ASSERT_EQ(batch.size(), modes.size()) << what;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const std::vector<LogicV> ref = ScalarFixpoint(nl, modes[m]);
    std::size_t constants = 0;
    int mismatches = 0;
    for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
      if (ref[n] != LogicV::kX) ++constants;
      if (batch[m].Value(NetId(n)) != ref[n] && ++mismatches <= 3)
        ADD_FAILURE() << what << " mode " << m << " net " << n;
    }
    EXPECT_EQ(mismatches, 0) << what << " mode " << m;
    EXPECT_EQ(batch[m].num_constant(), constants) << what << " mode " << m;
    EXPECT_EQ(batch[m].fingerprint(), Fingerprint(ref))
        << what << " mode " << m;
  }
}

TEST(CaseAnalysisBatch, MatchesScalarFixpointOnEveryOperatorAndMode) {
  const std::vector<std::pair<std::string,
                              std::function<gen::Operator(int)>>>
      builders = {{"booth", gen::BuildBoothOperator},
                  {"butterfly", gen::BuildButterflyOperator},
                  {"fir_mac", gen::BuildFirMacOperator},
                  {"mac", gen::BuildMacOperator},
                  {"array_mult", gen::BuildArrayMultOperator}};
  for (const auto& [name, build] : builders) {
    for (const int width : {4, 8, 16, 32}) {
      const gen::Operator op = build(width);
      std::vector<std::vector<ForcedValue>> modes;
      for (int b = 0; b <= width; ++b)
        modes.push_back(core::ForcedZeros(op, b));
      ExpectBatchMatchesOracle(op.nl, modes,
                               name + std::to_string(width));
    }
  }
}

TEST(CaseAnalysisBatch, ChunksPastSixtyFourModesWithPerLaneFeedback) {
  // 16-bit MAC: the accumulator register feeds back through the adder,
  // so whether it resolves depends on the mode. Every bitwidth, then
  // each input port forced to 0 and to 1 on its own (the clear pulse
  // among them: clr = 1 makes the accumulator a constant 0), then the
  // bitwidth modes again with the clear held — well over 64 modes, so
  // the batch runs in two chunks with differing register outcomes
  // across lanes.
  const gen::Operator op = gen::BuildMacOperator(16);
  std::vector<std::vector<ForcedValue>> modes;
  for (int b = 0; b <= 16; ++b) modes.push_back(core::ForcedZeros(op, b));
  for (const NetId pi : op.nl.primary_inputs())
    for (const bool v : {false, true}) modes.push_back({{pi, v}});
  const NetId clr = op.nl.InputBus("clr").bits[0];
  for (int b = 0; b <= 16; ++b) {
    modes.push_back(core::ForcedZeros(op, b));
    modes.back().push_back({clr, true});
  }
  ASSERT_GT(modes.size(), 64u);
  ExpectBatchMatchesOracle(op.nl, modes, "mac16");

  // The lanes really differ: with the clear held the accumulator is
  // constant, without it the fully zeroed mode leaves it unknown.
  const std::vector<CaseAnalysis> batch = CaseAnalysis::Batch(op.nl, modes);
  const NetId acc = op.nl.OutputBus("acc").bits[0];
  EXPECT_FALSE(batch[0].IsConstant(acc));
  EXPECT_TRUE(batch[modes.size() - 17].IsConstant(acc));
}

TEST(CaseAnalysisBatch, SingleModeConstructorIsTheOneLaneCase) {
  const gen::Operator op = gen::BuildFirMacOperator(8);
  std::vector<std::vector<ForcedValue>> modes;
  for (int b = 0; b <= 8; ++b) modes.push_back(core::ForcedZeros(op, b));
  const std::vector<CaseAnalysis> batch = CaseAnalysis::Batch(op.nl, modes);
  for (std::size_t m = 0; m < modes.size(); ++m)
    EXPECT_EQ(CaseAnalysis(op.nl, modes[m]).fingerprint(),
              batch[m].fingerprint())
        << "mode " << m;
  EXPECT_TRUE(CaseAnalysis::Batch(op.nl, {}).empty());
}

}  // namespace
}  // namespace adq::netlist
