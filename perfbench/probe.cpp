// perfbench_probe — the in-process half of the saSTA benchmark (run.py).
//
// It links the sasta library and calls its public functions directly, in the
// order the `sasta` CLI and the serve-mode Session call them.  Nothing in the
// library is instrumented: every span below is opened and closed here, around
// a call into one module.
//
//   perfbench_probe setup     --design D --reps N
//       Times the set-up calls (cell library, netlist build + tech_map,
//       characterized-library load) N times, untraced; prints the totals.
//   perfbench_probe instances --design D
//       Lists the mapped instances ("name cell inputs"), from which run.py
//       draws ECO targets.
//   perfbench_probe cold      --design D --script S --checkpoints i,j --threads T
//       Replays the edits of request script S on a fresh netlist and, after
//       each listed request index, runs a cold StaTool analysis and prints
//       its worst paths and report text (the reference a daemon response
//       must match) and the CLI's worst-path listing of it.
//   perfbench_probe trace     --design D --threads T --spans F
//                             [--serve-design B --script S]
//       The traced run: the CLI's batch pipeline on D, once untraced and
//       once traced, then a Session on B driven by S.  Prints a JSON summary
//       (per-layer self times, search counters, per-request session facts)
//       and writes every span to F.
//
// Designs are "c17", a .bench file, or a built-in ISCAS profile name — the
// CLI's resolution order.  All output is one JSON document (or one per
// checkpoint line) on stdout.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/library_builder.h"
#include "charlib/serialize.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "server/protocol.h"
#include "server/session.h"
#include "sta/eco.h"
#include "sta/report.h"
#include "sta/sta_tool.h"
#include "util/flight_recorder.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace sasta;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- tracing ---------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder for one thread; written out when the run ends.
/// A disabled tracer records nothing, so the same pipeline code runs
/// untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}
  int open(std::string name) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now(), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close() {
    if (!enabled_) return;
    spans_[stack_.back()].end = now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part its direct children cover.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    }
    return self;
  }

 private:
  double now() const { return seconds_since(t0_); }
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t) { t_.open(std::move(name)); }
  ~Scope() { t_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

// ---- JSON output -----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Round-trippable number text: Python's float() reads back the exact
/// double, so delays compare bit-for-bit with the daemon's JSON.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> kv;
  std::string str(const std::string& k, const std::string& dflt = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  long integer(const std::string& k, long dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stol(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench_probe MODE [--key value ...]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + k);
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

// ---- the pipeline pieces, as the CLI runs them ----------------------------

netlist::Netlist build_design(const std::string& design, const cell::Library& lib) {
  netlist::PrimNetlist prim;
  if (design == "c17") {
    prim = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  } else if (std::filesystem::exists(design)) {
    prim = netlist::parse_bench_file(design);
  } else {
    prim = netlist::generate_iscas_like(netlist::iscas_profile(design));
  }
  return netlist::tech_map(prim, lib).netlist;
}

charlib::CharLibrary load_charlib(const cell::Library& lib, const tech::Technology& tech) {
  charlib::CharacterizeOptions copt;
  copt.profile = charlib::CharacterizeOptions::Profile::kFast;
  return charlib::load_or_characterize(lib, tech, copt, charlib::default_cache_dir());
}

/// The options `sasta --threads T --paths N` hands StaTool (and
/// `sasta --serve --threads T` hands every Session).  run.py's parity check
/// compares this program's results with the CLI's, so a drifting CLI
/// default fails the benchmark instead of silently measuring another
/// configuration.
sta::StaToolOptions cli_options(int threads, long paths) {
  sta::StaToolOptions o;
  o.keep_worst = paths;
  o.finder.max_seconds = 60.0;
  o.finder.justify_backtrack_budget = 2000;
  o.finder.num_threads = threads;
  o.finder.schedule = sta::ScheduleMode::kSource;
  o.finder.justify_cache = sta::JustifyCacheMode::kShared;
  o.finder.justify_cache_capacity = std::size_t{1} << 16;
  o.finder.justify_tier = sta::JustifyTier::kBoth;
  o.finder.escalation_payoff = 0.1;
  o.finder.trial_lanes = 1;
  o.delay.temperature_c = 25.0;
  o.delay.vdd = 0.0;
  return o;
}

/// The CLI's "worst true paths" listing, byte for byte.
std::string format_listing(const netlist::Netlist& nl, const sta::StaResult& res) {
  std::ostringstream os;
  for (const auto& tp : res.paths) {
    os << "  " << util::format_fixed(tp.delay * 1e12, 1) << " ps  "
       << nl.net(tp.path.source).name
       << (tp.path.launch_edge == spice::Edge::kRise ? "(R)" : "(F)");
    for (const auto& s : tp.path.steps) {
      const auto& inst = nl.instance(s.inst);
      os << " > " << inst.cell->name() << ":" << inst.cell->pin_names()[s.pin]
         << "/v" << s.vector_id;
    }
    os << " > " << nl.net(tp.path.sink).name << "\n";
  }
  return os.str();
}

/// format_path(critical) + format_timing_report — the text a daemon
/// `analyze` response carries under "report".
std::string format_report(const netlist::Netlist& nl, const charlib::CharLibrary& cl,
                          const sta::StaResult& res) {
  if (res.paths.empty()) return "";
  std::string text = sta::format_path(nl, cl, res.critical());
  const sta::TimingReport rep = sta::build_timing_report(nl, res, 0.0);
  return text + "\n" + sta::format_timing_report(nl, rep);
}

std::string paths_json(const netlist::Netlist& nl, const std::vector<sta::TimedPath>& paths) {
  std::string out = "[";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const sta::TimedPath& tp = paths[i];
    if (i > 0) out += ",";
    out += "[" + quote(nl.net(tp.path.source).name) + "," +
           quote(nl.net(tp.path.sink).name) + "," +
           quote(tp.path.launch_edge == spice::Edge::kRise ? "R" : "F") + "," +
           std::to_string(tp.path.steps.size()) + "," + num(tp.delay * 1e12) + "]";
  }
  return out + "]";
}

// ---- request scripts -------------------------------------------------------

/// One line of a request script written by run.py:
///   cold | warm | final | resize INST SCALE | retarget TEMP_C | swap INST CELL
struct Request {
  std::string kind;
  std::string instance;
  std::string cell;
  double value = 0.0;
};

std::vector<Request> read_script(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read script " + path);
  std::vector<Request> out;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    Request r;
    if (!(ls >> r.kind)) continue;
    if (r.kind == "resize") {
      ls >> r.instance >> r.value;
    } else if (r.kind == "retarget") {
      ls >> r.value;
    } else if (r.kind == "swap") {
      ls >> r.instance >> r.cell;
    }
    out.push_back(r);
  }
  return out;
}

netlist::InstId find_instance(const netlist::Netlist& nl, const std::string& name) {
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    if (nl.instance(i).name == name) return i;
  }
  throw std::runtime_error("no instance " + name);
}

/// The request class a latency is reported under.
std::string request_class(const std::string& kind) {
  if (kind == "resize" || kind == "retarget") return "retime";
  return kind;
}

// ---- modes -----------------------------------------------------------------

int run_setup(const Args& a) {
  const std::string design = a.str("design");
  const long reps = a.integer("reps", 5);
  std::string total_s;
  for (long r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const cell::Library lib = cell::build_standard_library();
    const netlist::Netlist nl = build_design(design, lib);
    const charlib::CharLibrary cl = load_charlib(lib, tech::technology("90nm"));
    total_s += (r == 0 ? "" : ",") + num(seconds_since(t0));
  }
  std::cout << "{\"total_s\":[" << total_s << "]}\n";
  return 0;
}

int run_instances(const Args& a) {
  const cell::Library lib = cell::build_standard_library();
  const netlist::Netlist nl = build_design(a.str("design"), lib);
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.instance(i);
    std::cout << inst.name << " " << inst.cell->name() << " " << inst.inputs.size() << "\n";
  }
  return 0;
}

int run_cold(const Args& a) {
  const cell::Library lib = cell::build_standard_library();
  const tech::Technology& tech = tech::technology("90nm");
  netlist::Netlist nl = build_design(a.str("design"), lib);
  const charlib::CharLibrary cl = load_charlib(lib, tech);
  const std::vector<Request> script = read_script(a.str("script"));
  std::vector<long> checkpoints;
  for (const std::string& s : util::split(a.str("checkpoints"), ",")) {
    if (!s.empty()) checkpoints.push_back(std::stol(s));
  }
  sta::StaToolOptions opt = cli_options(static_cast<int>(a.integer("threads", 1)), 10);
  for (long i = 0; i < static_cast<long>(script.size()); ++i) {
    const Request& r = script[i];
    if (r.kind == "resize") {
      nl.set_drive_scale(find_instance(nl, r.instance), r.value);
    } else if (r.kind == "retarget") {
      opt.delay.temperature_c = r.value;
    } else if (r.kind == "swap") {
      const cell::Cell* cell = lib.find(r.cell);
      if (cell == nullptr) throw std::runtime_error("no cell " + r.cell);
      nl.replace_cell(find_instance(nl, r.instance), cell);
    }
    if (std::find(checkpoints.begin(), checkpoints.end(), i) == checkpoints.end()) continue;
    sta::StaTool tool(nl, cl, tech, opt);
    const sta::StaResult res = tool.run();
    std::cout << "{\"index\":" << i << ",\"truncated\":" << (res.stats.truncated ? "true" : "false")
              << ",\"paths\":" << paths_json(nl, res.paths)
              << ",\"report\":" << quote(format_report(nl, cl, res))
              << ",\"listing\":" << quote(format_listing(nl, res)) << "}\n";
  }
  return 0;
}

/// What the batch pipeline leaves for the summary and the serve phase.
struct Batch {
  std::unique_ptr<cell::Library> lib;
  std::shared_ptr<const charlib::CharLibrary> cl;
  sta::StaResult res;
  sta::SearchAttribution attribution;
  long delaycalc_calls = 0;
  std::string listing;
};

/// tools/sasta_cli.cpp main() + sta::StaTool::run on one design, with a
/// span around each call into a module.
Batch run_batch(Tracer& tr, const std::string& design, const tech::Technology& tech,
                int threads) {
  Batch b;
  netlist::Netlist nl;
  {
    Scope s(tr, "netlist");
    b.lib = std::make_unique<cell::Library>(cell::build_standard_library());
    nl = build_design(design, *b.lib);
  }
  {
    Scope s(tr, "charlib");
    b.cl = std::make_shared<charlib::CharLibrary>(load_charlib(*b.lib, tech));
  }
  sta::StaToolOptions opt = cli_options(threads, 10);
  opt.finder.attribution = &b.attribution;
  {
    std::unique_ptr<util::FlightRecorder> flight;
    std::unique_ptr<sta::DelayCalculator> calc;
    std::unique_ptr<sta::PathFinder> finder;
    {
      Scope s(tr, "search.prepare");
      util::FlightRecorder::Config fcfg;
      fcfg.lanes = util::ThreadPool::resolve(threads);
      flight = std::make_unique<util::FlightRecorder>(fcfg);
      std::string names;
      for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
        names += "net " + std::to_string(n) + " " + nl.net(n).name + "\n";
      }
      for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
        names += "inst " + std::to_string(i) + " " + nl.instance(i).name + "\n";
      }
      flight->set_name_table(std::move(names));
      opt.finder.flight = flight.get();
      calc = std::make_unique<sta::DelayCalculator>(nl, *b.cl, tech, opt.delay);
      finder = std::make_unique<sta::PathFinder>(nl, *b.cl, opt.finder);
    }
    sta::PathSelection selection(opt.keep_worst, opt.keep_fastest);
    {
      Scope s(tr, "search.run");
      b.res.stats = finder->run([&](const sta::TruePath& p) {
        sta::TimedPath timed;
        {
          Scope d(tr, "delaycalc");
          timed = calc->compute(p);
        }
        ++b.delaycalc_calls;
        Scope sel(tr, "select");
        selection.add(std::move(timed));
      });
    }
    {
      Scope s(tr, "select");
      selection.finish(b.res.paths, b.res.fastest);
    }
  }
  {
    Scope s(tr, "report");
    b.listing = format_listing(nl, b.res);
  }
  return b;
}

int run_trace(const Args& a) {
  const int threads = static_cast<int>(a.integer("threads", 1));
  const tech::Technology& tech = tech::technology("90nm");
  std::ostringstream out;

  // ---- batch phase, untraced and then traced: the difference of the two
  // totals is the tracing overhead ------------------------------------------
  double untraced_s = 0.0;
  {
    Tracer off(false);
    const auto t0 = Clock::now();
    run_batch(off, a.str("design"), tech, threads);
    untraced_s = seconds_since(t0);
  }
  Tracer tr;
  tr.open("total");
  const Batch batch = run_batch(tr, a.str("design"), tech, threads);
  tr.close();  // total
  double source_seconds = 0.0;
  for (const auto& row : batch.attribution.sources) source_seconds += row.seconds;

  // ---- serve phase: server::Session driven by the request script ---------
  std::string requests = "[";
  const std::string serve_design = a.str("serve-design");
  int serve_root = -1;
  if (!serve_design.empty()) {
    serve_root = tr.open("serve");
    netlist::Netlist snl;
    {
      Scope s(tr, "netlist");
      snl = build_design(serve_design, *batch.lib);
    }
    std::unique_ptr<server::Session> session;
    {
      Scope s(tr, "session");
      server::Session::Config cfg;
      cfg.tool = cli_options(threads, 10);
      session = std::make_unique<server::Session>(snl.name(), std::move(snl), batch.cl,
                                                  batch.lib.get(), &tech, cfg);
    }
    const std::vector<Request> script = read_script(a.str("script"));
    const double n_sources = static_cast<double>(session->num_sources());
    bool first = true;
    for (const Request& r : script) {
      server::Session::AnalyzeOutcome outcome;
      double dirty = -1.0;
      if (r.kind == "resize" || r.kind == "swap") {
        Scope s(tr, "eco");
        const netlist::InstId touched[] = {find_instance(session->netlist(), r.instance)};
        dirty = static_cast<double>(
                    sta::compute_eco_impact(session->netlist(), touched).dirty_sources.size()) /
                n_sources;
      }
      if (r.kind == "cold" || r.kind == "warm" || r.kind == "final") {
        server::Session::AnalyzeRequest req;
        req.force_cold = r.kind == "final";
        Scope s(tr, "session");
        outcome = session->analyze(req);
      } else {
        server::Session::EcoRequest req;
        req.instance = r.instance;
        if (r.kind == "resize") {
          req.op = server::kEcoResizeCell;
          req.scale = r.value;
        } else if (r.kind == "retarget") {
          req.op = server::kEcoRetargetCorner;
          req.has_temp = true;
          req.temp_c = r.value;
        } else {
          req.op = server::kEcoSwapGate;
          req.cell = r.cell;
        }
        Scope s(tr, "session");
        outcome = session->apply_eco(req).analyze;
      }
      bool report_ok = true;
      {
        // The daemon ships this rendering with every answer; re-rendering it
        // here times the report layer and checks the text is reproducible.
        Scope s(tr, "report");
        report_ok = format_report(session->netlist(), *batch.cl, outcome.result) == outcome.report_text;
      }
      requests += std::string(first ? "" : ",") + "{\"class\":" + quote(request_class(r.kind)) +
                  ",\"seconds\":" + num(outcome.seconds) +
                  ",\"search_s\":" + num(outcome.result.stats.cpu_seconds) +
                  ",\"searched\":" + std::to_string(outcome.sources_searched) +
                  ",\"retimed\":" + std::to_string(outcome.sources_retimed) +
                  ",\"dirty_fraction\":" + num(dirty) +
                  ",\"truncated\":" + (outcome.truncated ? "true" : "false") +
                  ",\"report_ok\":" + (report_ok ? "true" : "false") + "}";
      first = false;
    }
    tr.close();  // serve
  }
  requests += "]";

  // ---- summary ------------------------------------------------------------
  // The two phase roots are not layers: their self time is the part of the
  // phase that no layer span covers.
  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = tr.self_times();
  std::map<std::string, double> layer_self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) layer_self[spans[i].name] += self[i];
  }
  const auto duration = [&](int i) { return i < 0 ? 0.0 : spans[i].end - spans[i].start; };
  out << "{\"batch_total_s\":" << num(duration(0)) << ",\"batch_uncovered_s\":" << num(self[0])
      << ",\"batch_untraced_s\":" << num(untraced_s)
      << ",\"serve_total_s\":" << num(duration(serve_root))
      << ",\"serve_uncovered_s\":" << num(serve_root < 0 ? 0.0 : self[serve_root])
      << ",\"self_s\":{";
  bool first = true;
  for (const auto& [name, secs] : layer_self) {
    out << (first ? "" : ",") << quote(name) << ":" << num(secs);
    first = false;
  }
  const sta::PathFinderStats& st = batch.res.stats;
  out << "},\"stats\":{\"paths_recorded\":" << st.paths_recorded
      << ",\"courses\":" << st.courses << ",\"multi_vector_courses\":" << st.multi_vector_courses
      << ",\"backtracks\":" << st.backtracks << ",\"vector_trials\":" << st.vector_trials
      << ",\"justify_limited\":" << st.justify_limited << ",\"cache_hits\":" << st.cache_hits
      << ",\"cache_misses\":" << st.cache_misses << ",\"cache_prunes\":" << st.cache_prunes
      << ",\"solver_escalations\":" << st.solver_escalations
      << ",\"escalation_refutes\":" << st.escalation_refutes
      << ",\"truncated\":" << (st.truncated ? "true" : "false") << "}"
      << ",\"threads\":" << util::ThreadPool::resolve(threads)
      << ",\"source_seconds\":" << num(source_seconds)
      << ",\"delaycalc_calls\":" << batch.delaycalc_calls
      << ",\"listing\":" << quote(batch.listing) << ",\"spans\":" << spans.size()
      << ",\"requests\":" << requests << "}\n";

  // Spans go to a file only now, after the measured work.
  std::ofstream span_file(a.str("spans"));
  span_file << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    span_file << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":" << quote(s.name)
          << ",\"start\":" << num(s.start) << ",\"end\":" << num(s.end)
          << ",\"parent\":" << s.parent << "}";
  }
  span_file << "]\n";
  std::cout << out.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "setup") return run_setup(a);
    if (a.mode == "instances") return run_instances(a);
    if (a.mode == "cold") return run_cold(a);
    if (a.mode == "trace") return run_trace(a);
    std::cerr << "unknown mode " << a.mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
