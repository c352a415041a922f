#include "ledger.h"

#include "util/check.h"

namespace perfbench {

void Ledger::Open(const char* layer) {
  stack_.push_back(Frame{layer, Clock::now(), 0.0});
}

void Ledger::Close() {
  ADQ_CHECK(!stack_.empty());
  const Frame f = stack_.back();
  stack_.pop_back();
  const double d =
      std::chrono::duration<double>(Clock::now() - f.t0).count();
  self_s_[f.layer] += d - f.child_s;
  if (!stack_.empty()) stack_.back().child_s += d;
}

void Ledger::Attribute(const std::string& layer, double seconds) {
  ADQ_CHECK(!stack_.empty());
  self_s_[layer] += seconds;
  stack_.back().child_s += seconds;
}

}  // namespace perfbench
