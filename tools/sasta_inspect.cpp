// sasta_inspect — pretty-printer for flight-recorder post-mortem dumps.
//
// Usage:
//   sasta_inspect [--last N] <dump.flightdump>
//
// Reads a sasta-flightdump-v1 file (written by the SIGSEGV/SIGABRT/SIGBUS
// crash handlers, the SIGUSR1 on-demand trigger, or the stall watchdog)
// and renders:
//   * the header summary (trigger, uptime, stall count, ring geometry),
//   * a per-worker activity table (current source/gate/depth, trial and
//     path counters, trials since the last recorded path),
//   * the merged cross-worker timeline, sorted by timestamp then sequence,
//   * a per-worker view of the last N events (default 10).
//
// Net and instance ids are resolved through the dump's embedded name
// table, so the output names real circuit objects even though the binary
// that wrote the dump is gone.  Any structural violation of the format is
// a hard parse error (exit 1): this tool doubles as the dump validator in
// tests and CI.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Activity {
  std::string source = "-";
  std::string gate = "-";
  std::uint64_t depth = 0;
  std::uint64_t trials = 0;
  std::uint64_t paths = 0;
  std::uint64_t sources_done = 0;
  std::uint64_t since_progress = 0;
};

struct Event {
  unsigned lane = 0;
  std::uint64_t seq = 0;
  std::uint64_t ts_us = 0;
  std::string kind;
  std::uint64_t arg = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct Dump {
  std::string trigger;  ///< "crash <sig>" / "usr1 <sig>" / "" (watchdog)
  std::uint64_t now_us = 0;
  std::uint64_t stalls = 0;
  unsigned lanes = 0;
  std::uint64_t capacity = 0;
  std::map<std::uint64_t, std::string> net_names;
  std::map<std::uint64_t, std::string> inst_names;
  std::vector<Activity> activity;
  std::vector<Event> events;
};

[[noreturn]] void fail(const std::string& why) {
  std::cerr << "sasta_inspect: parse error: " << why << "\n";
  std::exit(1);
}

std::uint64_t parse_u64(const std::string& tok, const std::string& ctx) {
  if (tok.empty() ||
      tok.find_first_not_of("0123456789") != std::string::npos) {
    fail("expected integer for " + ctx + ", got '" + tok + "'");
  }
  return std::stoull(tok);
}

Dump parse_dump(std::istream& is) {
  Dump d;
  std::string line;
  if (!std::getline(is, line)) fail("empty file");
  if (line.rfind("# signal ", 0) == 0) {
    d.trigger = line.substr(9);
    if (!std::getline(is, line)) fail("missing magic after signal header");
  }
  if (line != "sasta-flightdump-v1") {
    fail("bad magic '" + line + "' (want sasta-flightdump-v1)");
  }

  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "now_us") {
      std::string v;
      ls >> v;
      d.now_us = parse_u64(v, "now_us");
    } else if (key == "stalls") {
      std::string v;
      ls >> v;
      d.stalls = parse_u64(v, "stalls");
    } else if (key == "lanes") {
      std::string v, kw, cap;
      ls >> v >> kw >> cap;
      if (kw != "capacity") fail("bad lanes line: " + line);
      d.lanes = static_cast<unsigned>(parse_u64(v, "lanes"));
      d.capacity = parse_u64(cap, "capacity");
      d.activity.resize(d.lanes);
    } else if (key == "net" || key == "inst") {
      // "<net|inst> <id> <name>" — the name is the untokenized remainder
      // so names containing spaces survive a round trip.
      std::string id;
      ls >> id;
      std::string name;
      std::getline(ls, name);
      if (!name.empty() && name[0] == ' ') name.erase(0, 1);
      auto& table = key == "net" ? d.net_names : d.inst_names;
      table[parse_u64(id, key + " id")] = name;
    } else if (key == "lane") {
      std::string id, what;
      ls >> id >> what;
      const auto lane =
          static_cast<unsigned>(parse_u64(id, "lane id"));
      if (lane >= d.lanes) fail("lane id out of range: " + line);
      if (what == "activity") {
        // lane I activity source S gate G depth D trials T paths P
        //   sources N since_progress X
        Activity& act = d.activity[lane];
        std::string k, v;
        while (ls >> k >> v) {
          if (k == "source") {
            act.source = v;
          } else if (k == "gate") {
            act.gate = v;
          } else if (k == "depth") {
            act.depth = parse_u64(v, k);
          } else if (k == "trials") {
            act.trials = parse_u64(v, k);
          } else if (k == "paths") {
            act.paths = parse_u64(v, k);
          } else if (k == "sources") {
            act.sources_done = parse_u64(v, k);
          } else if (k == "since_progress") {
            act.since_progress = parse_u64(v, k);
          } else {
            fail("unknown activity field '" + k + "' in: " + line);
          }
        }
      } else if (what == "event") {
        // lane I event SEQ ts T kind NAME arg A a X b Y
        Event e;
        e.lane = lane;
        std::string seq, kw;
        ls >> seq;
        e.seq = parse_u64(seq, "event seq");
        std::string v;
        if (!(ls >> kw >> v) || kw != "ts") fail("bad event line: " + line);
        e.ts_us = parse_u64(v, "ts");
        if (!(ls >> kw >> e.kind) || kw != "kind") {
          fail("bad event line: " + line);
        }
        if (!(ls >> kw >> v) || kw != "arg") fail("bad event line: " + line);
        e.arg = parse_u64(v, "arg");
        if (!(ls >> kw >> v) || kw != "a") fail("bad event line: " + line);
        e.a = parse_u64(v, "a");
        if (!(ls >> kw >> v) || kw != "b") fail("bad event line: " + line);
        e.b = parse_u64(v, "b");
        d.events.push_back(e);
      } else {
        fail("unknown lane record '" + what + "' in: " + line);
      }
    } else if (!key.empty()) {
      fail("unknown record '" + key + "'");
    }
  }
  if (!saw_end) fail("missing 'end' trailer (truncated dump?)");
  return d;
}

std::string resolve(const std::map<std::uint64_t, std::string>& names,
                    const std::string& id_tok) {
  if (id_tok == "-") return "-";
  const auto it = names.find(std::stoull(id_tok));
  return it == names.end() ? id_tok : it->second;
}

std::string resolve_id(const std::map<std::uint64_t, std::string>& names,
                       std::uint64_t id) {
  const auto it = names.find(id);
  return it == names.end() ? std::to_string(id) : it->second;
}

/// Renders one event's payload with ids resolved to names.  The field
/// meanings mirror the record sites in pathfinder/justify/implication.
std::string describe(const Dump& d, const Event& e) {
  std::ostringstream os;
  if (e.kind == "source_claim") {
    os << "source " << resolve_id(d.net_names, e.a) << " (index " << e.b
       << ")";
  } else if (e.kind == "source_done") {
    os << "source " << resolve_id(d.net_names, e.a) << ", " << e.b
       << " paths";
  } else if (e.kind == "trial") {
    os << "gate " << resolve_id(d.inst_names, e.a) << " pin " << e.arg
       << " depth " << e.b;
  } else if (e.kind == "cache_hit") {
    os << "gate " << resolve_id(d.inst_names, e.a) << " verdict " << e.arg
       << " goals " << e.b;
  } else if (e.kind == "cache_prune") {
    os << "gate " << resolve_id(d.inst_names, e.a) << " pin " << e.arg
       << " vector " << e.b;
  } else if (e.kind == "escalation") {
    os << "gate " << resolve_id(d.inst_names, e.a) << " verdict " << e.arg
       << " backtracks " << e.b;
  } else if (e.kind == "escalation_veto") {
    os << "gate " << resolve_id(d.inst_names, e.a);
  } else if (e.kind == "backtrack_burst") {
    os << e.a << " backtracks, alive " << e.b;
  } else if (e.kind == "path_recorded") {
    os << "sink " << resolve_id(d.net_names, e.b) << " " << e.a
       << " steps bit " << e.arg;
  } else {
    os << "arg " << e.arg << " a " << e.a << " b " << e.b;
  }
  return os.str();
}

void print_event(const Dump& d, const Event& e) {
  std::cout << "  [" << e.ts_us << " us] w" << e.lane << " #" << e.seq
            << " " << e.kind << ": " << describe(d, e) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t last_n = 10;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--last") {
      if (i + 1 >= argc) {
        std::cerr << "usage: sasta_inspect [--last N] <dump>\n";
        return 2;
      }
      last_n = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (a == "--help" || a == "-h" ||
               (!a.empty() && a[0] == '-')) {
      std::cerr << "usage: sasta_inspect [--last N] <dump>\n";
      return a == "--help" || a == "-h" ? 0 : 2;
    } else {
      path = a;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: sasta_inspect [--last N] <dump>\n";
    return 2;
  }
  std::ifstream is(path);
  if (!is) {
    std::cerr << "sasta_inspect: cannot open " << path << "\n";
    return 1;
  }
  const Dump d = parse_dump(is);

  std::cout << "flight dump " << path << "\n";
  std::cout << "  trigger: " << (d.trigger.empty() ? "watchdog/manual"
                                                   : d.trigger)
            << "\n";
  std::cout << "  uptime: " << d.now_us << " us, stalls: " << d.stalls
            << "\n";
  std::cout << "  lanes: " << d.lanes << " x " << d.capacity
            << " events, " << d.events.size() << " events captured, "
            << d.net_names.size() << " nets / " << d.inst_names.size()
            << " insts named\n";

  std::cout << "\nper-worker activity:\n";
  for (unsigned i = 0; i < d.lanes; ++i) {
    const Activity& a = d.activity[i];
    std::cout << "  w" << i << ": ";
    if (a.source == "-") {
      std::cout << "idle";
    } else {
      std::cout << "source " << resolve(d.net_names, a.source);
      if (a.gate != "-") {
        std::cout << ", gate " << resolve(d.inst_names, a.gate);
      }
      std::cout << ", depth " << a.depth;
    }
    std::cout << ", " << a.trials << " trials, " << a.paths << " paths, "
              << a.sources_done << " sources done (" << a.since_progress
              << " trials since last path)\n";
  }

  std::vector<Event> merged = d.events;
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Event& x, const Event& y) {
                     if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
                     return x.seq < y.seq;
                   });
  std::cout << "\nmerged timeline (" << merged.size() << " events):\n";
  for (const Event& e : merged) print_event(d, e);

  std::cout << "\nlast " << last_n << " events per worker:\n";
  for (unsigned i = 0; i < d.lanes; ++i) {
    std::vector<Event> mine;
    for (const Event& e : d.events) {
      if (e.lane == i) mine.push_back(e);
    }
    std::sort(mine.begin(), mine.end(), [](const Event& x, const Event& y) {
      return x.seq < y.seq;
    });
    if (mine.size() > last_n) {
      mine.erase(mine.begin(),
                 mine.end() - static_cast<std::ptrdiff_t>(last_n));
    }
    std::cout << " w" << i << ":\n";
    if (mine.empty()) std::cout << "  (no events)\n";
    for (const Event& e : mine) print_event(d, e);
  }
  return 0;
}
