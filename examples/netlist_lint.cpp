/// \file netlist_lint.cpp
/// \brief Standalone lint driver: generate an operator, optionally
/// run the implementation flow, and lint the result.
///
/// Usage: netlist_lint [booth|butterfly|fir|mac|array] [width]
///                     [--flow] [--grid=NXxNY] [--max-fanout=N]
///                     [--disable=RULE[,RULE...]] [--json=FILE]
///                     [--list-rules]
///
/// Without --flow the structural netlist DRC (NL0xx rules) runs on
/// the freshly generated operator. With --flow the full
/// implementation flow runs first (its own gates set to off so this
/// tool is the single reporter) and the flow-artifact rules (FL0xx,
/// ST001) are checked too. --json writes the machine-readable report.
///
/// Exit status: 0 lint-clean (no errors; warnings allowed),
///              1 lint errors found, 2 usage / internal failure
///              (including a flow that cannot implement the request,
///              core::FlowError; the diagnosis goes to stderr).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/flow.h"
#include "gen/operator.h"
#include "lint/lint.h"
#include "tech/cell_library.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: netlist_lint [booth|butterfly|fir|mac|array] [width]\n"
      "                    [--flow] [--grid=NXxNY] [--max-fanout=N]\n"
      "                    [--disable=RULE[,RULE...]] [--json=FILE]\n"
      "                    [--list-rules]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adq;

  const char* which = "booth";
  int width = 16;
  bool run_flow = false;
  place::GridConfig grid{2, 2};
  std::string json_path;
  lint::LintOptions lopt;
  lopt.max_fanout = 8;

  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--list-rules") == 0) {
      for (const lint::RuleInfo& r : lint::AllRules())
        std::printf("%s  %-20s %-7s %s\n", r.id, r.name,
                    ToString(r.severity), r.description);
      return 0;
    } else if (std::strcmp(a, "--flow") == 0) {
      run_flow = true;
    } else if (std::strncmp(a, "--grid=", 7) == 0) {
      if (std::sscanf(a + 7, "%dx%d", &grid.nx, &grid.ny) != 2 ||
          grid.nx < 1 || grid.ny < 1)
        return Usage();
    } else if (std::strncmp(a, "--max-fanout=", 13) == 0) {
      lopt.max_fanout = std::atoi(a + 13);
    } else if (std::strncmp(a, "--disable=", 10) == 0) {
      std::string list = a + 10;
      for (std::size_t at = 0; at != std::string::npos;) {
        const std::size_t comma = list.find(',', at);
        lopt.disabled.push_back(list.substr(at, comma - at));
        at = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      json_path = a + 7;
    } else if (a[0] == '-') {
      return Usage();
    } else if (npos == 0) {
      which = a;
      ++npos;
    } else if (npos == 1) {
      width = std::atoi(a);
      if (width < 2 || width > 64) return Usage();
      ++npos;
    } else {
      return Usage();
    }
  }

  gen::Operator op = std::strcmp(which, "butterfly") == 0
                         ? gen::BuildButterflyOperator(width)
                     : std::strcmp(which, "fir") == 0
                         ? gen::BuildFirMacOperator(width)
                     : std::strcmp(which, "mac") == 0
                         ? gen::BuildMacOperator(width)
                     : std::strcmp(which, "array") == 0
                         ? gen::BuildArrayMultOperator(width)
                     : std::strcmp(which, "booth") == 0
                         ? gen::BuildBoothOperator(width)
                         : gen::Operator();
  if (op.spec.name.empty()) return Usage();

  const tech::CellLibrary lib;
  lint::LintReport rep;
  if (run_flow) {
    core::FlowOptions fopt;
    fopt.grid = grid;
    fopt.lint = lint::LintGate::kOff;  // this tool is the reporter
    core::ImplementedDesign d;
    try {
      d = core::RunImplementationFlow(std::move(op), lib, fopt);
    } catch (const core::FlowError& e) {
      std::fprintf(stderr, "netlist_lint: %s\n", e.what());
      return 2;
    }
    rep = lint::LintNetlist(d.op.nl, lopt);
    lint::FlowArtifacts art;
    art.placement = &d.placement;
    art.partition = &d.partition;
    art.clock_ns = d.clock_ns;
    rep.Merge(lint::LintFlow(d.op.nl, lib, art, lopt));
  } else {
    // Fresh generator output: no buffer trees yet, so the fanout
    // ceiling would only flag work the flow does later.
    lopt.max_fanout = 0;
    rep = lint::LintNetlist(op.nl, lopt);
    lint::FlowArtifacts art;
    art.clock_ns = op.spec.target_clock_ns;
    rep.Merge(lint::LintFlow(op.nl, lib, art, lopt));
  }

  std::fputs(rep.Render().c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << rep.ToJson() << "\n";
  }
  return rep.clean() ? 0 : 1;
}
