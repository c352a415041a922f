#include "netlist/case_analysis.h"

#include <algorithm>

#include "netlist/compiled.h"

namespace adq::netlist {

void Evaluate3(tech::CellKind kind, const LogicV* in, LogicV* out) {
  const int n_in = tech::NumInputs(kind);
  const int n_out = tech::NumOutputs(kind);

  // Collect X input positions.
  int x_pos[3];
  int n_x = 0;
  bool base[3] = {false, false, false};
  for (int i = 0; i < n_in; ++i) {
    if (in[i] == LogicV::kX)
      x_pos[n_x++] = i;
    else
      base[i] = (in[i] == LogicV::kOne);
  }

  // Enumerate all completions of the X inputs; a cube of at most 2^3.
  bool first = true;
  bool agreed[2] = {false, false};
  bool agree_ok[2] = {true, true};
  for (unsigned m = 0; m < (1u << n_x); ++m) {
    bool ins[3] = {base[0], base[1], base[2]};
    for (int j = 0; j < n_x; ++j) ins[x_pos[j]] = (m >> j) & 1u;
    bool o[2] = {false, false};
    tech::Evaluate(kind, ins, o);
    for (int k = 0; k < n_out; ++k) {
      if (first)
        agreed[k] = o[k];
      else if (o[k] != agreed[k])
        agree_ok[k] = false;
    }
    first = false;
  }
  for (int k = 0; k < n_out; ++k)
    out[k] = agree_ok[k] ? FromBool(agreed[k]) : LogicV::kX;
}

namespace {

/// Modes per pass: one per bit of a word.
constexpr std::size_t kLanes = 64;

DualRail Not(DualRail a) { return {a.can1, a.can0}; }
DualRail And(DualRail a, DualRail b) {
  return {a.can0 | b.can0, a.can1 & b.can1};
}
DualRail Or(DualRail a, DualRail b) {
  return {a.can0 & b.can0, a.can1 | b.can1};
}
DualRail Xor(DualRail a, DualRail b) {
  return {(a.can0 & b.can0) | (a.can1 & b.can1),
          (a.can0 & b.can1) | (a.can1 & b.can0)};
}
std::uint64_t Majority(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return (a & b) | (a & c) | (b & c);
}

/// The dual-rail formula of kind K. Composing Not/And/Or/Xor is exact
/// when no input feeds two operands (every kind but MUX2 and the FA
/// carry is such a read-once formula); those two get their own exact
/// forms: an output can be v iff some allowed input assignment gives v.
template <tech::CellKind K>
inline void DualRailOf(const DualRail* in, DualRail* out) {
  using tech::CellKind;
  if constexpr (K == CellKind::kTieLo) {
    out[0] = {~0ULL, 0};
  } else if constexpr (K == CellKind::kTieHi) {
    out[0] = {0, ~0ULL};
  } else if constexpr (K == CellKind::kBuf) {
    out[0] = in[0];
  } else if constexpr (K == CellKind::kInv) {
    out[0] = Not(in[0]);
  } else if constexpr (K == CellKind::kNand2) {
    out[0] = Not(And(in[0], in[1]));
  } else if constexpr (K == CellKind::kNor2) {
    out[0] = Not(Or(in[0], in[1]));
  } else if constexpr (K == CellKind::kAnd2) {
    out[0] = And(in[0], in[1]);
  } else if constexpr (K == CellKind::kOr2) {
    out[0] = Or(in[0], in[1]);
  } else if constexpr (K == CellKind::kXor2) {
    out[0] = Xor(in[0], in[1]);
  } else if constexpr (K == CellKind::kXnor2) {
    out[0] = Not(Xor(in[0], in[1]));
  } else if constexpr (K == CellKind::kNand3) {
    out[0] = Not(And(And(in[0], in[1]), in[2]));
  } else if constexpr (K == CellKind::kNor3) {
    out[0] = Not(Or(Or(in[0], in[1]), in[2]));
  } else if constexpr (K == CellKind::kAnd3) {
    out[0] = And(And(in[0], in[1]), in[2]);
  } else if constexpr (K == CellKind::kOr3) {
    out[0] = Or(Or(in[0], in[1]), in[2]);
  } else if constexpr (K == CellKind::kAoi21) {
    out[0] = Not(Or(And(in[0], in[1]), in[2]));
  } else if constexpr (K == CellKind::kOai21) {
    out[0] = Not(And(Or(in[0], in[1]), in[2]));
  } else if constexpr (K == CellKind::kMux2) {
    // s ? d1 : d0 reads s twice: the output can be v iff a select
    // value s may take picks a data input that can be v.
    const DualRail d0 = in[0], d1 = in[1], sel = in[2];
    out[0] = {(sel.can0 & d0.can0) | (sel.can1 & d1.can0),
              (sel.can0 & d0.can1) | (sel.can1 & d1.can1)};
  } else if constexpr (K == CellKind::kHa) {
    out[0] = Xor(in[0], in[1]);
    out[1] = And(in[0], in[1]);
  } else if constexpr (K == CellKind::kFa) {
    out[0] = Xor(Xor(in[0], in[1]), in[2]);
    // The majority can be v iff at least two inputs can be v.
    out[1] = {Majority(in[0].can0, in[1].can0, in[2].can0),
              Majority(in[0].can1, in[1].can1, in[2].can1)};
  } else {
    static_assert(K != K, "no dual-rail formula for this kind");
  }
}

/// One sweep of `stream` over the dual-rail net values; returns the
/// lanes in which any output changed.
std::uint64_t SweepDualRail(const OpStream& stream, DualRail* v) {
  std::uint64_t changed = 0;
  const CompiledOp* const ops = stream.ops.data();
  for (const OpRun& run : stream.runs) {
    WithCombKind(run.kind, [&](auto kind) {
      constexpr tech::CellKind K = decltype(kind)::value;
      const int n_in = tech::NumInputs(K);
      const int n_out = tech::NumOutputs(K);
      for (const CompiledOp* op = ops + run.begin; op != ops + run.end;
           ++op) {
        DualRail in[tech::kMaxCellInputs];
        DualRail out[tech::kMaxCellOutputs];
        for (int p = 0; p < n_in; ++p)
          in[p] = v[op->in[static_cast<std::size_t>(p)]];
        DualRailOf<K>(in, out);
        for (int o = 0; o < n_out; ++o) {
          DualRail& slot = v[op->out[static_cast<std::size_t>(o)]];
          changed |= (slot.can0 ^ out[o].can0) | (slot.can1 ^ out[o].can1);
          slot = out[o];
        }
      }
    });
  }
  return changed;
}

/// Resolves up to 64 modes at once, mode i in lane i, and returns the
/// per-net values of each mode.
std::vector<std::vector<LogicV>> ResolveLanes(
    const CompiledNetlist& cn,
    std::span<const std::vector<ForcedValue>> modes) {
  const std::size_t lanes = modes.size();
  ADQ_CHECK(lanes >= 1 && lanes <= kLanes);
  const std::uint64_t live =
      lanes == kLanes ? ~0ULL : (1ULL << lanes) - 1ULL;

  std::vector<DualRail> v(cn.num_nets());  // X in every lane
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint64_t bit = 1ULL << l;
    for (const ForcedValue& f : modes[l]) {
      DualRail& slot = v[f.net.index()];
      slot.can0 = f.value ? slot.can0 & ~bit : slot.can0 | bit;
      slot.can1 = f.value ? slot.can1 | bit : slot.can1 & ~bit;
    }
  }

  // Register Q values start X. Demotion to "sticky X" bounds the
  // iteration: each register moves at most X -> const -> sticky X,
  // lane by lane. (From the all-X start values only refine, so a
  // register's D keeps the constant it adopted and demotion never
  // fires in practice; it stays as the termination safeguard.)
  const std::vector<RegisterPins>& regs = cn.registers();
  std::vector<std::uint64_t> sticky(regs.size(), 0);

  // Iterate comb propagation + register transfer to a fixpoint in
  // every lane. Each pass is a full levelized sweep, so the comb part
  // is exact after one pass for the current register assumptions. A
  // lane that has converged stays put while the others iterate (a
  // pass over a fixpoint changes nothing), so the pass count is the
  // largest one-mode pass count and the guard trips exactly when a
  // one-mode analysis would.
  std::uint64_t changed = live;
  int guard = 0;
  while (changed) {
    ADQ_CHECK_MSG(++guard <= 64, "case analysis failed to converge");
    changed = SweepDualRail(cn.comb(), v.data());

    // Register transfer, in instance order: Q adopts D's constant if
    // provable and stable; a register whose assumed constant turns
    // out inconsistent with its own fanin is demoted to X for good.
    for (std::size_t i = 0; i < regs.size(); ++i) {
      const DualRail d = v[regs[i].d];
      DualRail& q = v[regs[i].q];
      const std::uint64_t active = live & ~sticky[i];
      const std::uint64_t q_x = q.can0 & q.can1;
      const std::uint64_t d_x = d.can0 & d.can1;
      const std::uint64_t adopt = active & q_x & ~d_x;
      const std::uint64_t demote =
          active & ~q_x & ((d.can0 ^ q.can0) | (d.can1 ^ q.can1));
      q.can0 = (q.can0 & ~adopt) | (d.can0 & adopt) | demote;
      q.can1 = (q.can1 & ~adopt) | (d.can1 & adopt) | demote;
      sticky[i] |= demote;
      changed |= adopt | demote;
    }
    changed &= live;
  }

  std::vector<std::vector<LogicV>> out(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<LogicV>& vals = out[l];
    vals.resize(v.size());
    for (std::size_t n = 0; n < v.size(); ++n) {
      const bool c0 = (v[n].can0 >> l) & 1ULL;
      const bool c1 = (v[n].can1 >> l) & 1ULL;
      vals[n] = c0 && c1 ? LogicV::kX : FromBool(c1);
    }
  }
  return out;
}

}  // namespace

void EvaluateDualRail(tech::CellKind kind, const DualRail* in,
                      DualRail* out) {
  WithCombKind(kind, [&](auto k) {
    DualRailOf<decltype(k)::value>(in, out);
  });
}

CaseAnalysis::CaseAnalysis(const Netlist& nl,
                           const std::vector<ForcedValue>& forced)
    : CaseAnalysis(std::move(
          Batch(nl, std::span<const std::vector<ForcedValue>>(&forced, 1))
              .front())) {}

std::vector<CaseAnalysis> CaseAnalysis::Batch(
    const Netlist& nl, std::span<const std::vector<ForcedValue>> modes) {
  for (const std::vector<ForcedValue>& mode : modes)
    for (const ForcedValue& f : mode)
      ADQ_CHECK_MSG(nl.net(f.net).is_primary_input,
                    "case analysis can only force primary-input ports");
  std::vector<CaseAnalysis> out;
  if (modes.empty()) return out;
  out.reserve(modes.size());
  const CompiledNetlist cn(nl);
  for (std::size_t at = 0; at < modes.size(); at += kLanes) {
    const std::size_t n = std::min(kLanes, modes.size() - at);
    for (std::vector<LogicV>& vals : ResolveLanes(cn, modes.subspan(at, n)))
      out.push_back(CaseAnalysis(std::move(vals)));
  }
  return out;
}

CaseAnalysis::CaseAnalysis(std::vector<LogicV> values)
    : values_(std::move(values)) {
  for (const LogicV v : values_)
    if (v != LogicV::kX) ++num_constant_;

  // FNV-1a over the resolved per-net values. The object is immutable
  // after construction, so the digest is computed once here; callers
  // that cache derived state (sta::TimingAnalyzer) compare digests
  // instead of object addresses, which stack reuse can alias.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const LogicV v : values_) {
    h ^= static_cast<std::uint8_t>(v);
    h *= 0x100000001b3ULL;
  }
  fingerprint_ = h ^ values_.size();
}

}  // namespace adq::netlist
