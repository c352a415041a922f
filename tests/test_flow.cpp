/// Tests for the implementation flow (paper Fig. 4, green phase) and
/// the accuracy / error-metric helpers.

#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "core/accuracy.h"
#include "core/error_metrics.h"
#include "core/flow.h"
#include "gen/operator.h"

namespace adq::core {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

TEST(Accuracy, ForcedZerosCountsAndTargets) {
  const gen::Operator op = gen::BuildBoothOperator(16);
  const auto forced = ForcedZeros(op, 10);  // 6 LSBs on a and b
  EXPECT_EQ(forced.size(), 12u);
  for (const auto& f : forced) {
    EXPECT_FALSE(f.value);
    EXPECT_TRUE(op.nl.net(f.net).is_primary_input);
  }
  EXPECT_TRUE(ForcedZeros(op, 16).empty());
  EXPECT_EQ(ForcedZeros(op, 0).size(), 32u);
  EXPECT_THROW(ForcedZeros(op, 17), CheckError);
}

TEST(Accuracy, ZeroedLsbsComplement) {
  const gen::Operator op = gen::BuildBoothOperator(16);
  EXPECT_EQ(ZeroedLsbs(op, 16), 0);
  EXPECT_EQ(ZeroedLsbs(op, 4), 12);
}

TEST(ErrorMetrics, ExactComparison) {
  const ErrorStats st = CompareStreams({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(st.mean_abs, 0.0);
  EXPECT_DOUBLE_EQ(st.max_abs, 0.0);
  EXPECT_GE(st.snr_db, 200.0);
}

TEST(ErrorMetrics, KnownError) {
  const ErrorStats st = CompareStreams({10.0, -10.0}, {11.0, -12.0});
  EXPECT_DOUBLE_EQ(st.mean_abs, 1.5);
  EXPECT_DOUBLE_EQ(st.max_abs, 2.0);
  EXPECT_DOUBLE_EQ(st.mean_sq, (1.0 + 4.0) / 2.0);
}

TEST(ErrorMetrics, ExpectedTruncation) {
  EXPECT_DOUBLE_EQ(ExpectedTruncationError(0), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedTruncationError(4), 7.5);
}

TEST(Flow, BoothWidth8ClosesTiming) {
  FlowOptions fopt;
  fopt.grid = {2, 2};
  fopt.clock_ns = 0.8;
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_TRUE(d.timing_met);
  EXPECT_EQ(d.num_domains(), 4);
  EXPECT_GT(d.partition.area_overhead(), 0.0);
  EXPECT_EQ(d.loads.cap_ff.size(), d.op.nl.num_nets());
  EXPECT_EQ(d.partition.domain_of.size(), d.op.nl.num_instances());
}

TEST(Flow, DegenerateGridHasNoOverhead) {
  FlowOptions fopt;  // 1x1
  fopt.clock_ns = 0.8;
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_TRUE(d.timing_met);
  EXPECT_EQ(d.num_domains(), 1);
  EXPECT_NEAR(d.partition.area_overhead(), 0.0, 1e-12);
}

TEST(Flow, UsesOperatorNominalClockByDefault) {
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), {});
  EXPECT_NEAR(d.clock_ns, 0.8, 1e-12);  // Booth spec: 1.25 GHz
  EXPECT_NEAR(d.fclk_ghz(), 1.25, 1e-9);
}

TEST(Flow, DeterministicInSeed) {
  FlowOptions fopt;
  fopt.grid = {2, 2};
  const ImplementedDesign a =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  const ImplementedDesign b =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_EQ(a.partition.domain_of, b.partition.domain_of);
  EXPECT_DOUBLE_EQ(a.sizing.wns_ns, b.sizing.wns_ns);
}

TEST(Flow, GuardbandOverheadInPlausibleBand) {
  // Paper Table I: 15-17% for 2x2/3x3 grids on operators this size.
  FlowOptions fopt;
  fopt.grid = {2, 2};
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(16), Lib(), fopt);
  EXPECT_GT(d.partition.area_overhead(), 0.03);
  EXPECT_LT(d.partition.area_overhead(), 0.35);
}

TEST(Flow, TileOverflowIsARecoverableFlowError) {
  // 48 domains leave each Butterfly tile too few rows for its cells:
  // the flow must report it, not fail a check.
  FlowOptions fopt;
  fopt.grid = {16, 3};
  try {
    RunImplementationFlow(gen::BuildButterflyOperator(16), Lib(), fopt);
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("butterfly16"), std::string::npos) << what;
    EXPECT_NE(what.find("16x3"), std::string::npos) << what;
    EXPECT_NE(what.find("legalization overflow"), std::string::npos)
        << what;
  }
}

TEST(Flow, GridBeyondTheDieIsARecoverableFlowError) {
  // 64 domain rows exceed the Booth die's placement rows, and 20
  // columns leave each tile too narrow for its cells: both requests
  // must be reported as FlowError, not fail a check. 2x2 implements.
  for (const place::GridConfig grid :
       {place::GridConfig{1, 64}, place::GridConfig{20, 1}}) {
    SCOPED_TRACE(grid.ToString());
    FlowOptions fopt;
    fopt.grid = grid;
    try {
      RunImplementationFlow(gen::BuildBoothOperator(16), Lib(), fopt);
      FAIL() << "expected FlowError";
    } catch (const FlowError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(grid.ToString()), std::string::npos) << what;
    }
  }
  FlowOptions fopt;
  fopt.grid = {2, 2};
  EXPECT_EQ(
      RunImplementationFlow(gen::BuildBoothOperator(16), Lib(), fopt)
          .num_domains(),
      4);
}

/// Grid-shape robustness under netlist_lint's configuration (the
/// flow's own lint gate off, so nothing rejects a shape up front):
/// every NX x NY grid with NX, NY in 1..16 either implements or is
/// reported as a FlowError — never a failed check or an abort. One
/// test per operator so a parallel ctest spreads the 3 x 256 flows.
void ExpectEveryGridShapeImplementsOrReportsFlowError(
    const gen::Operator& op) {
  for (int nx = 1; nx <= 16; ++nx)
    for (int ny = 1; ny <= 16; ++ny) {
      FlowOptions fopt;
      fopt.grid = {nx, ny};
      fopt.lint = lint::LintGate::kOff;
      try {
        RunImplementationFlow(op, Lib(), fopt);
      } catch (const FlowError&) {
        // A recoverable rejection is an accepted outcome.
      } catch (const std::exception& e) {
        ADD_FAILURE() << op.spec.name << " on " << fopt.grid.ToString()
                      << ": " << e.what();
      }
    }
}

TEST(FlowGridSweep, BoothEveryShapeImplementsOrReportsFlowError) {
  ExpectEveryGridShapeImplementsOrReportsFlowError(
      gen::BuildBoothOperator(4));
}

TEST(FlowGridSweep, ButterflyEveryShapeImplementsOrReportsFlowError) {
  ExpectEveryGridShapeImplementsOrReportsFlowError(
      gen::BuildButterflyOperator(4));
}

TEST(FlowGridSweep, FirEveryShapeImplementsOrReportsFlowError) {
  ExpectEveryGridShapeImplementsOrReportsFlowError(
      gen::BuildFirMacOperator(4));
}

}  // namespace
}  // namespace adq::core
