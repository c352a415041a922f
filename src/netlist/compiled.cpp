#include "netlist/compiled.h"

#include <algorithm>

#include "netlist/topo.h"

namespace adq::netlist {

namespace {

/// Appends the instances of `ids` (already in stream order) as ops and
/// cuts them into same-kind runs. A run never spans two levels: cells
/// of one level are independent, cells of different levels are not.
void BuildStream(const Netlist& nl, const std::vector<InstId>& ids,
                 const std::vector<int>& level, OpStream* s) {
  s->ops.reserve(ids.size());
  int prev_level = -1;
  for (const InstId id : ids) {
    const Instance& inst = nl.inst(id);
    CompiledOp op;
    for (int p = 0; p < inst.num_inputs(); ++p)
      op.in[static_cast<std::size_t>(p)] =
          inst.in[static_cast<std::size_t>(p)].value;
    for (int o = 0; o < inst.num_outputs(); ++o)
      op.out[static_cast<std::size_t>(o)] =
          inst.out[static_cast<std::size_t>(o)].value;
    const auto at = static_cast<std::uint32_t>(s->ops.size());
    const int lv = level[id.index()];
    if (!s->runs.empty() && s->runs.back().kind == inst.kind &&
        lv == prev_level)
      ++s->runs.back().end;
    else
      s->runs.push_back(OpRun{inst.kind, at, at + 1});
    s->ops.push_back(op);
    prev_level = lv;
  }
}

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& nl)
    : num_nets_(nl.num_nets()) {
  const std::size_t n = nl.num_instances();
  const std::vector<int> level = Levelize(nl);  // checks for loops

  // Stream order: (level, kind, instance id), by a counting sort on
  // the (level, kind) bucket, which keeps id order inside a bucket.
  const auto bucket_of = [&](std::size_t i) {
    return static_cast<std::size_t>(level[i]) * tech::kNumCellKinds +
           static_cast<std::size_t>(nl.instances()[i].kind);
  };
  const int max_level =
      n == 0 ? 0 : *std::max_element(level.begin(), level.end());
  std::vector<std::uint32_t> start(
      (static_cast<std::size_t>(max_level) + 1) * tech::kNumCellKinds + 1,
      0);
  std::size_t num_comb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Instance& inst = nl.instances()[i];
    if (inst.is_sequential()) {
      registers_.push_back(
          RegisterPins{inst.in[0].value, inst.out[0].value});
    } else {
      ++start[bucket_of(i) + 1];
      ++num_comb;
    }
  }
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<InstId> order(num_comb);
  for (std::size_t i = 0; i < n; ++i)
    if (!nl.instances()[i].is_sequential())
      order[start[bucket_of(i)]++] = InstId(static_cast<std::uint32_t>(i));
  BuildStream(nl, order, level, &comb_);

  // Combinational fan-out of the primary inputs: a cell is in it when
  // an input net is a port or the output of a cell in it. Stream order
  // is topological, so one forward pass decides every cell.
  std::vector<char> from_input(nl.num_nets(), 0);
  for (const NetId pi : nl.primary_inputs()) from_input[pi.index()] = 1;
  std::vector<InstId> fanout;
  for (const InstId id : order) {
    const Instance& inst = nl.inst(id);
    bool reached = false;
    for (int p = 0; p < inst.num_inputs(); ++p)
      if (from_input[inst.in[static_cast<std::size_t>(p)].index()])
        reached = true;
    if (!reached) continue;
    fanout.push_back(id);
    for (int o = 0; o < inst.num_outputs(); ++o)
      from_input[inst.out[static_cast<std::size_t>(o)].index()] = 1;
  }
  BuildStream(nl, fanout, level, &input_fanout_);
}

void EvaluateWords(const OpStream& stream, std::uint64_t* values) {
  const CompiledOp* const ops = stream.ops.data();
  for (const OpRun& run : stream.runs) {
    WithCombKind(run.kind, [&](auto kind) {
      constexpr tech::CellKind K = decltype(kind)::value;
      const int n_in = tech::NumInputs(K);
      const int n_out = tech::NumOutputs(K);
      for (const CompiledOp* op = ops + run.begin; op != ops + run.end;
           ++op) {
        std::uint64_t in[tech::kMaxCellInputs] = {};
        std::uint64_t out[tech::kMaxCellOutputs] = {};
        for (int p = 0; p < n_in; ++p)
          in[p] = values[op->in[static_cast<std::size_t>(p)]];
        tech::EvaluateWord(K, in, out);
        for (int o = 0; o < n_out; ++o)
          values[op->out[static_cast<std::size_t>(o)]] = out[o];
      }
    });
  }
}

}  // namespace adq::netlist
