#include "sta/assignment.h"

#include "util/check.h"

namespace sasta::sta {

AssignmentState::AssignmentState(int num_nets) {
  SASTA_CHECK(num_nets >= 0) << " net count";
  values_.assign(num_nets, DualVal{});
  justified_.assign(num_nets, 0);
}

void AssignmentState::mark_justified(netlist::NetId n) {
  SASTA_CHECK(n >= 0 && n < num_nets()) << " net " << n;
  if (justified_[n]) return;
  remember(n);
  justified_[n] = 1;
}

void AssignmentState::rollback(Mark m) {
  SASTA_CHECK(m <= trail_.size()) << " bad rollback mark";
  while (trail_.size() > m) {
    const TrailEntry& e = trail_.back();
    values_[e.net] = e.old_value;
    justified_[e.net] = e.old_justified;
    trail_.pop_back();
  }
}

void AssignmentState::reset() {
  trail_.clear();
  for (auto& v : values_) v = DualVal{};
  justified_.assign(justified_.size(), 0);
}

}  // namespace sasta::sta
