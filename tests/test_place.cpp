/// Tests for placement: floorplanning, legality (rows, bounds, no
/// overlap), grid partitioning with guardbands, incremental placement
/// and parasitic extraction.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <map>

#include "gen/operator.h"
#include "opt/buffering.h"
#include "place/grid_partition.h"
#include "place/placer.h"
#include "place/wirelength.h"

namespace adq::place {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

gen::Operator SmallOp() { return gen::BuildBoothOperator(8); }

void ExpectLegal(const netlist::Netlist& nl, const Placement& pl,
                 double x_lo, double x_hi) {
  // Every cell on a row center, within bounds, no horizontal overlap
  // within a row.
  std::map<int, std::vector<std::pair<double, double>>> row_spans;
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    const double w = Lib().Variant(inst.kind, inst.drive).width_um;
    const Point& p = pl.pos[i];
    EXPECT_GE(p.x - w / 2, x_lo - 1e-6);
    EXPECT_LE(p.x + w / 2, x_hi + 1e-6);
    const double row_f = (p.y / pl.fp.row_height_um) - 0.5;
    const int row = (int)std::lround(row_f);
    EXPECT_NEAR(row_f, row, 1e-6) << "cell must sit on a row centerline";
    row_spans[row].push_back({p.x - w / 2, p.x + w / 2});
  }
  for (auto& [row, spans] : row_spans) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k) {
      EXPECT_LE(spans[k - 1].second, spans[k].first + 1e-6)
          << "overlap in row " << row;
    }
  }
}

TEST(Floorplan, RespectsUtilizationAndRows) {
  const Floorplan fp = MakeFloorplan(1000.0, 0.5);
  EXPECT_NEAR(fp.area_um2(), 2000.0, 2.0);
  EXPECT_NEAR(fp.height_um, fp.num_rows() * 1.2, 1e-9);
  EXPECT_THROW(MakeFloorplan(-1.0, 0.5), CheckError);
  EXPECT_THROW(MakeFloorplan(100.0, 1.5), CheckError);
}

TEST(Placer, ProducesLegalPlacement) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  ASSERT_EQ(pl.pos.size(), op.nl.num_instances());
  ExpectLegal(op.nl, pl, 0.0, pl.fp.width_um);
}

TEST(Placer, DeterministicInSeed) {
  const gen::Operator op = SmallOp();
  PlacerOptions opt;
  opt.seed = 9;
  const Placement a = PlaceDesign(op.nl, Lib(), opt);
  const Placement b = PlaceDesign(op.nl, Lib(), opt);
  for (std::size_t i = 0; i < a.pos.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pos[i].x, b.pos[i].x);
    EXPECT_DOUBLE_EQ(a.pos[i].y, b.pos[i].y);
  }
}

TEST(Placer, BeatsRandomPlacementOnHpwl) {
  const gen::Operator op = SmallOp();
  PlacerOptions good;
  const Placement pl = PlaceDesign(op.nl, Lib(), good);
  PlacerOptions bad;
  bad.centroid_iterations = 0;  // random + legalize only
  const Placement rnd = PlaceDesign(op.nl, Lib(), bad);
  EXPECT_LT(TotalHpwl(op.nl, pl), 0.8 * TotalHpwl(op.nl, rnd));
}

// FNV-1a over the exact bits of every cell position and of the total
// HPWL: the placer is deterministic, so any change to its arithmetic
// (e.g. the order in which net centres are summed) moves the digest.
std::uint64_t PlacementDigest(const netlist::Netlist& nl,
                              const Placement& pl) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const Point& p : pl.pos) {
    mix(p.x);
    mix(p.y);
  }
  mix(TotalHpwl(nl, pl));
  return h;
}

TEST(Placer, TableIDesignsPlaceBitForBit) {
  // The 16-bit Table I designs as the flow places them: after the
  // fanout-bounding buffer trees. Digests pin the placer's output.
  struct Case {
    gen::Operator (*build)(int);
    std::uint64_t digest;
  };
  const Case cases[] = {
      {&gen::BuildBoothOperator, 0xbe6a0a994c593cd6ull},
      {&gen::BuildButterflyOperator, 0x019209d1a302fd08ull},
      {&gen::BuildFirMacOperator, 0xd67a0c8f1fb2df28ull},
  };
  for (const Case& c : cases) {
    gen::Operator op = c.build(16);
    opt::BufferHighFanout(op.nl, 8);
    const Placement pl = PlaceDesign(op.nl, Lib(), {});
    EXPECT_EQ(PlacementDigest(op.nl, pl), c.digest)
        << op.nl.name() << " digest 0x" << std::hex
        << PlacementDigest(op.nl, pl);
  }
}

TEST(Placer, HandBuiltCornerCasesPlaceBitForBit) {
  // Corner cases of the per-net centre computation:
  //  - `g_twice` reads net `a` on both inputs, so `a` counts twice in
  //    its average (and `a` lists the cell twice as a sink);
  //  - the full adder has five pin nets, enough for the summation
  //    order of their centres to show in the rounding;
  //  - `p` is a port-only net (anchor, no cells), and `c` keeps its
  //    reader's pin but loses its sink list, so its box is the port
  //    anchor alone;
  //  - the tie cell's output loses its driver record: its only net has
  //    an empty box, so the cell has no live net and is not moved by
  //    the centroid passes.
  netlist::Netlist nl("corners");
  const netlist::NetId a = nl.AddInputPort("a");
  const netlist::NetId b = nl.AddInputPort("b");
  const netlist::NetId c = nl.AddInputPort("c");
  nl.AddInputPort("p");
  const netlist::NetId g_twice = nl.AddGate(tech::CellKind::kAnd2, {a, a});
  const netlist::NetId g_xor = nl.AddGate(tech::CellKind::kXor2, {a, b});
  const netlist::NetId g_mix =
      nl.AddGate(tech::CellKind::kNand2, {g_twice, g_xor});
  const std::array<netlist::NetId, 2> fa = nl.AddCell(
      tech::CellKind::kFa, tech::DriveStrength::kX1, {g_twice, b, g_xor});
  const netlist::NetId g_c = nl.AddGate(tech::CellKind::kInv, {c});
  const netlist::NetId tie = nl.ConstNet(false);
  nl.AddOutputPort("y", g_mix);
  nl.AddOutputPort("z", g_xor);
  nl.AddOutputPort("w", g_c);
  nl.AddOutputPort("s", fa[0]);
  nl.AddOutputPort("co", fa[1]);
  netlist::RawAccess raw(nl);
  raw.net(c).sinks.clear();
  raw.net(tie).driver = netlist::PinRef{};

  PlacerOptions opt;
  opt.seed = 5;
  const Placement pl = PlaceDesign(nl, Lib(), opt);
  ASSERT_EQ(pl.pos.size(), nl.num_instances());
  EXPECT_EQ(PlacementDigest(nl, pl), 0xd099896120e426ecull)
      << "digest 0x" << std::hex << PlacementDigest(nl, pl);
}

TEST(Partition, DegenerateSingleDomain) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const GridPartition part = MakePartition(op.nl, Lib(), pl, {1, 1});
  EXPECT_EQ(part.num_domains(), 1);
  EXPECT_NEAR(part.area_overhead(), 0.0, 1e-12);
  for (const int d : part.domain_of) EXPECT_EQ(d, 0);
}

class GridShape : public ::testing::TestWithParam<GridConfig> {};

TEST_P(GridShape, PartitionConsistent) {
  const GridConfig cfg = GetParam();
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const GridPartition part = MakePartition(op.nl, Lib(), pl, cfg);
  EXPECT_EQ((int)part.tiles.size(), cfg.num_domains());
  // Domains in range.
  for (const int d : part.domain_of) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, cfg.num_domains());
  }
  // Tiles lie inside the enlarged die and do not overlap pairwise.
  for (std::size_t i = 0; i < part.tiles.size(); ++i) {
    const auto& t = part.tiles[i];
    EXPECT_GE(t.x_lo, -1e-9);
    EXPECT_LE(t.x_hi, part.enlarged.width_um + 1e-9);
    EXPECT_LE(t.y_hi, part.enlarged.height_um + 1e-9);
    for (std::size_t j = i + 1; j < part.tiles.size(); ++j) {
      const auto& u = part.tiles[j];
      const bool x_sep = t.x_hi <= u.x_lo + 1e-9 || u.x_hi <= t.x_lo + 1e-9;
      const bool y_sep = t.y_hi <= u.y_lo + 1e-9 || u.y_hi <= t.y_lo + 1e-9;
      EXPECT_TRUE(x_sep || y_sep) << "tiles " << i << "," << j << " overlap";
    }
  }
  // Area overhead grows with the guardband count and matches the
  // enlarged-die geometry.
  const double expect =
      part.enlarged.area_um2() / part.original.area_um2() - 1.0;
  EXPECT_NEAR(part.area_overhead(), expect, 1e-12);
  if (cfg.num_domains() > 1) {
    EXPECT_GT(part.area_overhead(), 0.0);
  }
}

TEST_P(GridShape, ApplyPartitionKeepsCellsInTheirTiles) {
  const GridConfig cfg = GetParam();
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const GridPartition part = MakePartition(op.nl, Lib(), pl, cfg);
  const Placement ap = ApplyPartition(op.nl, Lib(), pl, part);
  for (std::uint32_t i = 0; i < op.nl.num_instances(); ++i) {
    const auto& t = part.tiles[(std::size_t)part.domain_of[i]];
    const netlist::Instance& inst = op.nl.instances()[i];
    const double w = Lib().Variant(inst.kind, inst.drive).width_um;
    EXPECT_GE(ap.pos[i].x - w / 2, t.x_lo - 1e-6) << "cell " << i;
    EXPECT_LE(ap.pos[i].x + w / 2, t.x_hi + 1e-6) << "cell " << i;
    EXPECT_GE(ap.pos[i].y, t.y_lo - 1e-6);
    EXPECT_LE(ap.pos[i].y, t.y_hi + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShape,
                         ::testing::Values(GridConfig{2, 1}, GridConfig{1, 2},
                                           GridConfig{2, 2}, GridConfig{3, 1},
                                           GridConfig{3, 3}));

TEST(Partition, GuardbandOverheadScalesWithGrid) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const double o22 =
      MakePartition(op.nl, Lib(), pl, {2, 2}).area_overhead();
  const double o33 =
      MakePartition(op.nl, Lib(), pl, {3, 3}).area_overhead();
  EXPECT_GT(o33, o22) << "3x3 inserts more guardband area than 2x2";
}

TEST(Wirelength, ExtractedLoadsPositiveAndBounded) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const NetLoads loads = ExtractLoads(op.nl, Lib(), pl);
  ASSERT_EQ(loads.cap_ff.size(), op.nl.num_nets());
  const double die_perimeter = 2 * (pl.fp.width_um + pl.fp.height_um);
  for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n) {
    EXPECT_GE(loads.cap_ff[n], 0.0);
    EXPECT_LE(NetHpwl(op.nl, pl, netlist::NetId(n)), die_perimeter);
  }
}

TEST(Wirelength, FanoutModelGrowsWithFanout) {
  netlist::Netlist nl;
  const auto a = nl.AddInputPort("a");
  const auto b = nl.AddInputPort("b");
  for (int i = 0; i < 6; ++i) nl.AddOutputPort("y" + std::to_string(i),
                                               nl.AddGate(tech::CellKind::kBuf, {a}));
  nl.AddOutputPort("z", nl.AddGate(tech::CellKind::kBuf, {b}));
  const NetLoads loads = EstimateLoadsByFanout(nl, Lib());
  EXPECT_GT(loads.cap_ff[a.index()], loads.cap_ff[b.index()]);
}

TEST(Wirelength, PartitionStretchesWires) {
  // Guardbands push cells apart: total HPWL must not shrink.
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const GridPartition part = MakePartition(op.nl, Lib(), pl, {3, 3});
  const Placement ap = ApplyPartition(op.nl, Lib(), pl, part);
  EXPECT_GE(TotalHpwl(op.nl, ap), 0.95 * TotalHpwl(op.nl, pl));
}

}  // namespace
}  // namespace adq::place
