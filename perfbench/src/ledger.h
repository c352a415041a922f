#pragma once
/// \file ledger.h
/// \brief Per-layer time ledger of one benchmark job.
///
/// The benchmark wraps every public call it makes into the library in
/// a Span. Each span is also an obs::TraceSpan, so a traced run's
/// Chrome trace shows the benchmark's layer spans with the library's
/// own spans nested inside them. The ledger keeps its own stack of
/// open spans and books each span's *self* time — its duration minus
/// the time its child spans cover — under the span's layer name.
///
/// Attribute() books a measured share of the innermost open span to
/// another layer, as a child would be. The flow split (placement,
/// sizing/ECO, lint from the flow's phase gauges) and the case-analysis
/// estimate inside each exploration use it.

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class Ledger {
 public:
  using Clock = std::chrono::steady_clock;

  void Open(const char* layer);
  void Close();
  /// Books `seconds` of the innermost open span to `layer`.
  void Attribute(const std::string& layer, double seconds);

  const std::map<std::string, double>& self_seconds() const {
    return self_s_;
  }

 private:
  struct Frame {
    std::string layer;
    Clock::time_point t0;
    double child_s = 0.0;
  };
  std::vector<Frame> stack_;
  std::map<std::string, double> self_s_;
};

/// RAII layer span. With a null ledger (untraced jobs) it does nothing.
class Span {
 public:
  Span(Ledger* ledger, const char* layer) : ledger_(ledger) {
    if (ledger_ != nullptr) {
      trace_.emplace(layer);
      ledger_->Open(layer);
    }
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  // Destroyed after Close(), so the trace span encloses the ledger's.
  std::optional<adq::obs::TraceSpan> trace_;
};

}  // namespace perfbench
