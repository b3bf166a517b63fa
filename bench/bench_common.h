// Shared plumbing for the benchmark harness binaries (one per paper table
// or figure).
//
// Environment knobs:
//   SASTA_CACHE_DIR   - characterization cache directory
//                       (default: .sasta-charcache in the working dir)
//   SASTA_BENCH_FAST  - if set (non-empty), use the fast characterization
//                       profile and reduced circuit/path budgets: smoke-run
//                       mode for CI.  Default is the paper-style full sweep.
//   SASTA_BENCH_JSON  - perf-trajectory sink.  Empty/unset: write the next
//                       free BENCH_<n>.json at the repo root (found by
//                       walking up from the working directory).  A path:
//                       write exactly there.  "off": disable emission.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cell/library_builder.h"
#include "charlib/serialize.h"
#include "tech/technology.h"
#include "util/metrics.h"  // json_quote / json_number for the bench record

namespace sasta::bench {

inline bool fast_mode() {
  const char* env = std::getenv("SASTA_BENCH_FAST");
  return env != nullptr && env[0] != '\0';
}

inline const cell::Library& library() {
  static const cell::Library lib = cell::build_standard_library();
  return lib;
}

inline charlib::CharacterizeOptions characterize_options() {
  charlib::CharacterizeOptions opt;
  opt.profile = fast_mode() ? charlib::CharacterizeOptions::Profile::kFast
                            : charlib::CharacterizeOptions::Profile::kFull;
  return opt;
}

/// Characterized library for a technology, through the disk cache.
inline const charlib::CharLibrary& charlib_for(const std::string& tech_name) {
  static std::map<std::string, charlib::CharLibrary> cache;
  auto it = cache.find(tech_name);
  if (it == cache.end()) {
    std::cerr << "[bench] loading/characterizing " << tech_name
              << " library (" << characterize_options().profile_name()
              << " profile; cached after the first run)...\n";
    it = cache
             .emplace(tech_name, charlib::load_or_characterize(
                                     library(), tech::technology(tech_name),
                                     characterize_options(),
                                     charlib::default_cache_dir()))
             .first;
  }
  return it->second;
}

/// Simple fixed-width table printing.
inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string c = cells[i];
    const int w = i < widths.size() ? widths[i] : 12;
    if (static_cast<int>(c.size()) < w) c.resize(w, ' ');
    line += c;
    line += " ";
  }
  std::cout << line << "\n";
}

inline void print_title(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// One measured configuration in the perf trajectory: which circuit, how it
/// was searched, and what it cost.
struct BenchEntry {
  std::string circuit;
  double wall_s = 0.0;
  long vector_trials = 0;
  int threads = 1;
};

/// Standardized perf-trajectory record ("sasta-bench-v1").  Each bench run
/// appends one BENCH_<n>.json at the repo root so successive commits leave
/// a mechanically diffable cost history; CI uploads the fast-mode file as
/// an artifact.  See bench_common.h header comment for SASTA_BENCH_JSON.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(const BenchEntry& e) { entries_.push_back(e); }

  /// Resolves the sink (env override / repo-root scan), writes the record,
  /// and prints where it went.  No-op when disabled or the root is not
  /// findable (e.g. bench run from an installed tree).
  void write() const {
    const char* env = std::getenv("SASTA_BENCH_JSON");
    std::string path;
    if (env != nullptr && env[0] != '\0') {
      if (std::string(env) == "off") return;
      path = env;
    } else {
      const std::filesystem::path root = repo_root();
      if (root.empty()) {
        std::cout << "\n(bench JSON skipped: repo root not found; set "
                     "SASTA_BENCH_JSON to force a path)\n";
        return;
      }
      path = (root / next_free_name(root)).string();
    }
    std::ofstream os(path);
    write_record(os);
    std::cout << "\nwrote bench trajectory JSON to " << path << "\n";
  }

  void write_record(std::ostream& os) const {
    os << "{\n  \"schema\": \"sasta-bench-v1\",\n  \"bench\": "
       << util::json_quote(bench_name_) << ",\n  \"fast_mode\": "
       << (fast_mode() ? "true" : "false") << ",\n  \"git_sha\": "
       << util::json_quote(git_sha()) << ",\n  \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const BenchEntry& e = entries_[i];
      os << (i == 0 ? "" : ",") << "\n    {\"circuit\": "
         << util::json_quote(e.circuit) << ", \"wall_s\": "
         << util::json_number(e.wall_s) << ", \"vector_trials\": "
         << e.vector_trials << ", \"threads\": " << e.threads << "}";
    }
    os << "\n  ]\n}\n";
  }

  /// Walks up from the working directory to the first directory holding a
  /// .git entry (the repo root).  Empty path when none is found.
  static std::filesystem::path repo_root() {
    std::error_code ec;
    std::filesystem::path dir = std::filesystem::current_path(ec);
    if (ec) return {};
    while (!dir.empty()) {
      if (std::filesystem::exists(dir / ".git", ec)) return dir;
      const std::filesystem::path parent = dir.parent_path();
      if (parent == dir) break;
      dir = parent;
    }
    return {};
  }

  /// First BENCH_<n>.json (n from 0) that does not exist yet at root.
  static std::string next_free_name(const std::filesystem::path& root) {
    for (int n = 0;; ++n) {
      const std::string name = "BENCH_" + std::to_string(n) + ".json";
      std::error_code ec;
      if (!std::filesystem::exists(root / name, ec)) return name;
    }
  }

  /// HEAD commit via git; "unknown" when git or the repo is unavailable.
  static std::string git_sha() {
    FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
    if (pipe == nullptr) return "unknown";
    char buf[64] = {};
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, pipe);
    ::pclose(pipe);
    std::string sha(buf, got);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    return sha.empty() ? "unknown" : sha;
  }

 private:
  std::string bench_name_;
  std::vector<BenchEntry> entries_;
};

}  // namespace sasta::bench
