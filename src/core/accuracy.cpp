#include "core/accuracy.h"

namespace adq::core {

std::vector<netlist::ForcedValue> ForcedZeros(const gen::Operator& op,
                                              int bitwidth) {
  const int zeroed = ZeroedLsbs(op, bitwidth);
  std::vector<netlist::ForcedValue> forced;
  for (const std::string& bus_name : op.spec.scalable_buses) {
    const netlist::Bus& bus = op.nl.InputBus(bus_name);
    const int z = std::min(zeroed, bus.width());
    for (int i = 0; i < z; ++i)
      forced.push_back(
          netlist::ForcedValue{bus.bits[static_cast<std::size_t>(i)], false});
  }
  return forced;
}

std::vector<netlist::CaseAnalysis> ModeCaseAnalyses(
    const gen::Operator& op, const std::vector<int>& bitwidths) {
  std::vector<std::vector<netlist::ForcedValue>> forced;
  forced.reserve(bitwidths.size());
  for (const int bw : bitwidths) forced.push_back(ForcedZeros(op, bw));
  return netlist::CaseAnalysis::Batch(op.nl, forced);
}

}  // namespace adq::core
