#include "sta/path.h"

#include <algorithm>

namespace sasta::sta {

PathFinderStats& PathFinderStats::operator+=(const PathFinderStats& other) {
  paths_recorded += other.paths_recorded;
  courses += other.courses;
  multi_vector_courses += other.multi_vector_courses;
  backtracks += other.backtracks;
  vector_trials += other.vector_trials;
  justify_limited += other.justify_limited;
  tasks_spawned += other.tasks_spawned;
  tasks_stolen += other.tasks_stolen;
  steal_failures += other.steal_failures;
  cpu_seconds = std::max(cpu_seconds, other.cpu_seconds);
  truncated = truncated || other.truncated;
  return *this;
}

std::string TruePath::course_key(const netlist::Netlist& nl) const {
  std::string key = nl.net(source).name;
  key += launch_edge == spice::Edge::kRise ? "/R" : "/F";
  for (const auto& s : steps) {
    key += ">";
    key += nl.instance(s.inst).name;
    key += ".";
    key += std::to_string(s.pin);
  }
  return key;
}

std::string TruePath::full_key(const netlist::Netlist& nl) const {
  std::string key = course_key(nl);
  key += "|";
  for (const auto& s : steps) {
    key += std::to_string(s.vector_id);
    key += ",";
  }
  return key;
}

}  // namespace sasta::sta
