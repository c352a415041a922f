#pragma once
/// \file accuracy.h
/// \brief The runtime accuracy knob: DVAS-style LSB zeroing.
///
/// An accuracy mode is the number of *active* MSBs of each scalable
/// operand bus (paper x-axis "ACCURACY [BITS]"). Mode b on a
/// width-W operator clamps the W-b least significant bits of every
/// scalable input bus to zero; the operator then computes an exact
/// product/sum of the truncated operands. This header turns a mode
/// into the case-analysis constants STA needs and into input masks
/// for simulation.

#include <vector>

#include "gen/operator.h"
#include "netlist/case_analysis.h"

namespace adq::core {

/// Forced-to-zero port bits of accuracy mode `bitwidth` (active bits)
/// for the operator. bitwidth == data_width means nothing is forced.
std::vector<netlist::ForcedValue> ForcedZeros(const gen::Operator& op,
                                              int bitwidth);

/// Case analysis of every mode in `bitwidths` (entry i for
/// bitwidths[i]), all modes in one batch pass.
std::vector<netlist::CaseAnalysis> ModeCaseAnalyses(
    const gen::Operator& op, const std::vector<int>& bitwidths);

/// Number of zeroed LSBs for a mode.
inline int ZeroedLsbs(const gen::Operator& op, int bitwidth) {
  ADQ_CHECK(bitwidth >= 0 && bitwidth <= op.spec.data_width);
  return op.spec.data_width - bitwidth;
}

}  // namespace adq::core
