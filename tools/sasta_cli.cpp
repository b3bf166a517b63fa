// sasta — command-line driver for the sensitization-aware STA library.
//
// Usage:
//   sasta [options] <netlist>
//
//   <netlist>            .bench or .v file, a built-in ISCAS profile name
//                        (c432, c880, ...), or "c17"
//
// Options:
//   --tech NAME          130nm | 90nm | 65nm            (default 90nm)
//   --paths N            report the N worst true paths  (default 10)
//   --max-seconds S      exploration wall-clock budget  (default 60)
//   --budget B           justification backtrack budget (default 2000,
//                        -1 = exact)
//   --threads N          worker threads for path enumeration (default 0 =
//                        all hardware threads; 1 = sequential).  Reported
//                        paths are identical for every thread count.
//   --schedule S         source | steal  (default source): how workers
//                        share the search.  "source" hands each worker one
//                        source PI at a time; "steal" splits every source's
//                        DFS at its first fanout frontier into stealable
//                        tasks so idle workers help on a dominant cone.
//                        Results are bit-identical either way — stealing
//                        changes who executes the work, never what is
//                        searched or the order results are reported in.
//   --baseline           also run the two-step commercial-style baseline
//   --golden             verify reported paths with transistor-level
//                        simulation
//   --full-char          paper-style full PVT characterization profile
//                        (default: fast profile)
//   --temp T             analysis temperature in degC   (default 25)
//   --vdd V              analysis supply in volts       (default nominal)
//   --prune              N-worst branch-and-bound pruning (uses --paths)
//   --report             report_timing-style worst path + endpoint slack
//   --required NS        required time (ns) for the slack report
//   --corners            fast/typ/slow multi-corner summary
//   --fastest N          also report the N fastest (hold-side) true paths
//   --erc                max-slew / max-cap electrical rule checks
//   --write-verilog F    dump the mapped netlist to F
//   --write-sdf F        SDF annotation (min:typ:max = vector spread)
//   --metrics-json F     write run metrics (per-source/per-worker counters,
//                        histograms, phase timings) as JSON to F
//   --trace-out F        write a Chrome trace-event / Perfetto JSON timeline
//                        (load in chrome://tracing or ui.perfetto.dev)
//   --report-json F      write the structured run report (schema
//                        sasta-run-report-v1: metrics + search-cost
//                        attribution tables + per-worker timelines) to F
//   --flight-recorder M  on | off  (default on): per-worker in-memory
//                        flight recorder (lock-free event rings + activity
//                        slots).  Strictly result-neutral: reported paths
//                        and report bytes are bit-identical on/off.
//   --flight-dump F      post-mortem dump path for the flight recorder
//                        (default sasta.flightdump in the system temp
//                        directory).  Written on crash (SIGSEGV / SIGABRT
//                        / SIGBUS), on demand via SIGUSR1, and by the
//                        stall watchdog; read it back with sasta_inspect.
//   --watchdog-seconds S stall watchdog: warn (and dump) when no global
//                        progress is made for S seconds (default off)
//   --serve              run as a persistent timing daemon instead of one
//                        batch analysis: bind --socket, keep characterized
//                        libraries / netlists / per-source results warm
//                        across requests, and answer sasta-rpc-v1 queries
//                        (docs/SERVER.md).  Search options on the command
//                        line become the per-session defaults; requests
//                        may override threads / max_seconds.  SIGINT (or a
//                        shutdown request) drains: the in-flight request
//                        finishes (truncated if mid-search), queued
//                        requests get E_SHUTDOWN, exit 0.
//   --socket PATH        AF_UNIX socket path for --serve (required with
//                        --serve; stale paths are replaced, the path is
//                        unlinked on clean shutdown).  --metrics-json in
//                        serve mode writes the server counters on exit.
//   --selfcheck          end-of-run counter reconciliation: cross-check
//                        attribution rows, per-source metrics and recorder
//                        activity slots against the aggregate stats; any
//                        mismatch prints a diff and exits 3
//   --profile            print the human-readable search-cost profile (top
//                        sources by seconds, hot gates by vector trials)
//   --progress [every 2s] heartbeat: sources done/total, trials/sec, elapsed
//   --log-level L        debug | info | warn | error    (default warn;
//                        -q wins, --log-level wins over the implicit info)
//   -v                   shorthand for --log-level debug
//   -q                   quiet (suppress progress logging)
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "baseline/baseline_tool.h"
#include "cell/library_builder.h"
#include "charlib/serialize.h"
#include "golden/pathsim.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "netlist/verilog.h"
#include "server/server.h"
#include "sta/corners.h"
#include "sta/erc.h"
#include "sta/report.h"
#include "sta/run_report.h"
#include "sta/sdf_writer.h"
#include "sta/sta_tool.h"
#include "util/flight_recorder.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

/// The analysis options the CLI starts from: the library's search and
/// delay defaults, plus the run limits a command-line run wants (report the
/// 10 worst paths, a 60 s wall-clock guard, every hardware thread).
sasta::sta::StaToolOptions cli_tool_defaults() {
  sasta::sta::StaToolOptions t;
  t.keep_worst = 10;
  t.finder.max_seconds = 60.0;
  t.finder.num_threads = 0;
  return t;
}

struct Options {
  std::string netlist;
  std::string tech = "90nm";
  /// Search and delay options, parsed straight into the library struct and
  /// handed unchanged to the batch run and to every --serve session.
  sasta::sta::StaToolOptions tool = cli_tool_defaults();
  bool baseline = false;
  bool golden = false;
  bool full_char = false;
  std::string write_verilog;
  bool quiet = false;
  bool report = false;        ///< detailed per-stage report of the worst path
  double required_ns = 0.0;   ///< slack constraint for the endpoint table
  bool corners = false;       ///< fast/typ/slow multi-corner summary
  bool prune = false;         ///< N-worst branch-and-bound (uses --paths)
  bool erc = false;           ///< max-slew / max-cap electrical rule checks
  std::string write_sdf;      ///< SDF annotation output file
  std::string metrics_json;   ///< run-metrics JSON output file
  std::string trace_out;      ///< Chrome trace-event JSON output file
  std::string report_json;    ///< structured run-report JSON output file
  bool flight_recorder = true;  ///< per-worker event rings + activity slots
  std::string flight_dump;      ///< post-mortem dump path ("" = temp dir)
  double watchdog_seconds = -1.0;  ///< stall watchdog interval (<=0 = off)
  bool serve = false;         ///< persistent daemon mode (docs/SERVER.md)
  std::string socket_path;    ///< AF_UNIX socket path for --serve
  bool selfcheck = false;     ///< end-of-run counter reconciliation
  bool profile = false;       ///< print the search-cost profile summary
  bool progress = false;      ///< periodic search-progress heartbeat
  /// Explicit --log-level / -v choice; unset = infer from -q.
  std::optional<sasta::util::LogLevel> log_level;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--tech T] [--paths N] [--prune] [--max-seconds S]\n"
               "       [--budget B] [--threads N] [--schedule source|steal]\n"
               "       [--baseline] [--golden]\n"
               "       [--full-char]\n"
               "       [--temp T] [--vdd V] [--report] [--required NS]\n"
               "       [--corners] [--write-verilog F] [--write-sdf F] [-q]\n"
               "       [--metrics-json F] [--trace-out F] [--report-json F]\n"
               "       [--flight-recorder on|off] [--flight-dump F]\n"
               "       [--watchdog-seconds S] [--selfcheck]\n"
               "       [--serve --socket PATH]\n"
               "       [--profile] [--progress]\n"
               "       [--log-level debug|info|warn|error] [-v]\n"
               "       <netlist>\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  sasta::sta::PathFinderOptions& f = o.tool.finder;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Checked numeric operands: a malformed or out-of-range value is a
    // usage error (exit 2), never an uncaught std::invalid_argument abort
    // the way bare std::stol/stod/stoul fail.  `lo` is the smallest
    // accepted value (e.g. -1 for budgets where -1 means "exact",
    // 0 for --threads where 0 means "all hardware threads").
    auto long_value = [&](long lo) -> long {
      const std::string v = value();
      const auto parsed = sasta::util::parse_long(v);
      if (!parsed || *parsed < lo) {
        std::cerr << "invalid value '" << v << "' for " << a
                  << " (expected an integer >= " << lo << ")\n";
        usage(argv[0]);
      }
      return *parsed;
    };
    auto double_value = [&](double lo) -> double {
      const std::string v = value();
      const auto parsed = sasta::util::parse_double(v);
      if (!parsed || *parsed < lo) {
        std::cerr << "invalid value '" << v << "' for " << a
                  << " (expected a number >= " << lo << ")\n";
        usage(argv[0]);
      }
      return *parsed;
    };
    if (a == "--tech") {
      o.tech = value();
    } else if (a == "--paths") {
      o.tool.keep_worst = long_value(1);
    } else if (a == "--max-seconds") {
      f.max_seconds = double_value(0.0);
    } else if (a == "--budget") {
      f.justify_backtrack_budget = static_cast<int>(long_value(-1));
    } else if (a == "--threads") {
      f.num_threads = static_cast<int>(long_value(0));
    } else if (a == "--schedule") {
      const std::string mode = value();
      if (mode == "source") {
        f.schedule = sasta::sta::ScheduleMode::kSource;
      } else if (mode == "steal") {
        f.schedule = sasta::sta::ScheduleMode::kSteal;
      } else {
        std::cerr << "unknown --schedule mode '" << mode
                  << "' (source | steal)\n";
        usage(argv[0]);
      }
    } else if (a == "--baseline") {
      o.baseline = true;
    } else if (a == "--golden") {
      o.golden = true;
    } else if (a == "--full-char") {
      o.full_char = true;
    } else if (a == "--temp") {
      o.tool.delay.temperature_c = double_value(-273.15);
    } else if (a == "--vdd") {
      o.tool.delay.vdd = double_value(0.0);
    } else if (a == "--write-verilog") {
      o.write_verilog = value();
    } else if (a == "-q") {
      o.quiet = true;
    } else if (a == "--report") {
      o.report = true;
    } else if (a == "--required") {
      o.required_ns = double_value(0.0);
    } else if (a == "--corners") {
      o.corners = true;
    } else if (a == "--prune") {
      o.prune = true;
    } else if (a == "--erc") {
      o.erc = true;
    } else if (a == "--fastest") {
      o.tool.keep_fastest = long_value(0);
    } else if (a == "--write-sdf") {
      o.write_sdf = value();
    } else if (a == "--metrics-json") {
      o.metrics_json = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--report-json") {
      o.report_json = value();
    } else if (a == "--flight-recorder") {
      const std::string mode = value();
      if (mode == "on") {
        o.flight_recorder = true;
      } else if (mode == "off") {
        o.flight_recorder = false;
      } else {
        std::cerr << "unknown --flight-recorder mode '" << mode
                  << "' (on | off)\n";
        usage(argv[0]);
      }
    } else if (a == "--flight-dump") {
      o.flight_dump = value();
    } else if (a == "--watchdog-seconds") {
      o.watchdog_seconds = double_value(0.0);
    } else if (a == "--serve") {
      o.serve = true;
    } else if (a == "--socket") {
      o.socket_path = value();
    } else if (a == "--selfcheck") {
      o.selfcheck = true;
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--log-level") {
      const std::string name = value();
      o.log_level = sasta::util::parse_log_level(name);
      if (!o.log_level) {
        std::cerr << "unknown log level '" << name << "'\n";
        usage(argv[0]);
      }
    } else if (a == "-v") {
      o.log_level = sasta::util::LogLevel::kDebug;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown option " << a << "\n";
      usage(argv[0]);
    } else {
      o.netlist = a;
    }
  }
  if (o.serve) {
    if (o.socket_path.empty()) {
      std::cerr << "--serve requires --socket PATH\n";
      usage(argv[0]);
    }
    if (!o.netlist.empty()) {
      std::cerr << "--serve takes no netlist operand (designs are loaded "
                   "via the `load` request; see docs/SERVER.md)\n";
      usage(argv[0]);
    }
  } else if (o.netlist.empty()) {
    usage(argv[0]);
  }
  return o;
}

/// RAII pipeline-phase scope: a cli/<name> trace span plus a
/// cli.<name>_seconds gauge (both no-ops when the corresponding output was
/// not requested).
struct Phase {
  Phase(sasta::util::MetricsRegistry* m, sasta::util::TraceCollector* t,
        std::string phase_name)
      : metrics(m), name(std::move(phase_name)), span(t, "cli/" + name, 0) {}
  ~Phase() {
    if (metrics == nullptr) return;
    const sasta::util::GaugeId id = metrics->gauge("cli." + name + "_seconds");
    metrics->create_shard().set(id, watch.elapsed_seconds());
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  sasta::util::MetricsRegistry* metrics;
  std::string name;
  sasta::util::TraceSpan span;
  sasta::util::Stopwatch watch;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sasta;
  const Options opt = parse_args(argc, argv);
  if (opt.log_level) {
    util::set_log_level(*opt.log_level);
  } else if (!opt.quiet) {
    util::set_log_level(util::LogLevel::kInfo);
  }

  if (opt.serve) {
    // Daemon mode: the search flags parsed above become the per-session
    // defaults; everything else (netlist, characterization, reports) is
    // driven per request over the socket.
    server::ServerOptions so;
    so.socket_path = opt.socket_path;
    so.tech = opt.tech;
    so.full_char = opt.full_char;
    so.metrics_json_path = opt.metrics_json;
    so.session_defaults.tool = opt.tool;
    util::install_interrupt_handler();
    try {
      server::Server server(so);
      return server.run();
    } catch (const util::Error& e) {
      std::cerr << "serve failed: " << e.what() << "\n";
      return 1;
    }
  }

  // Observability sinks: enabled by their output flags, shared by every
  // pipeline phase below.  --report-json merges both into one artifact, so
  // it arms them even without --metrics-json / --trace-out.  --progress
  // only needs the heartbeat, which runs without any sink.  --selfcheck
  // arms metrics (and attribution, below) so the reconciliation pass has
  // redundant views to cross-check even when no JSON output was asked for.
  util::MetricsRegistry metrics_registry;
  util::TraceCollector trace_collector;
  util::MetricsRegistry* metrics =
      opt.metrics_json.empty() && opt.report_json.empty() && !opt.selfcheck
          ? nullptr
          : &metrics_registry;
  util::TraceCollector* trace =
      opt.trace_out.empty() && opt.report_json.empty() ? nullptr
                                                       : &trace_collector;

  try {
    const cell::Library lib = cell::build_standard_library();
    const auto& tech = tech::technology(opt.tech);

    // --- Load / generate and map the netlist -------------------------------
    netlist::Netlist mapped_storage;
    const netlist::Netlist* nlp = nullptr;
    {
      Phase load_phase(metrics, trace, "load_netlist");
      if (std::filesystem::exists(opt.netlist) &&
          (opt.netlist.ends_with(".v") ||
           opt.netlist.ends_with(".verilog"))) {
        mapped_storage = netlist::parse_verilog_file(opt.netlist, lib);
        nlp = &mapped_storage;
      } else {
        netlist::PrimNetlist prim;
        if (opt.netlist == "c17") {
          prim =
              netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
        } else if (std::filesystem::exists(opt.netlist)) {
          prim = netlist::parse_bench_file(opt.netlist);
        } else {
          prim = netlist::generate_iscas_like(
              netlist::iscas_profile(opt.netlist));
          std::cerr << "note: '" << opt.netlist
                    << "' is a synthetic ISCAS-like profile circuit\n";
        }
        auto mapped = netlist::tech_map(prim, lib);
        mapped_storage = std::move(mapped.netlist);
        nlp = &mapped_storage;
      }
    }
    const netlist::Netlist& nl = *nlp;
    std::cout << "circuit " << nl.name() << ": " << nl.num_instances()
              << " cells (" << nl.complex_gate_count() << " complex), "
              << nl.primary_inputs().size() << " PIs, "
              << nl.primary_outputs().size() << " POs\n";

    if (!opt.write_verilog.empty()) {
      std::ofstream os(opt.write_verilog);
      netlist::write_verilog(nl, os);
      std::cout << "wrote " << opt.write_verilog << "\n";
    }

    // --- Characterized library ---------------------------------------------
    charlib::CharacterizeOptions copt;
    copt.profile = opt.full_char
                       ? charlib::CharacterizeOptions::Profile::kFull
                       : charlib::CharacterizeOptions::Profile::kFast;
    const charlib::CharLibrary cl = [&] {
      Phase phase(metrics, trace, "characterize");
      return charlib::load_or_characterize(lib, tech, copt,
                                           charlib::default_cache_dir());
    }();

    // --- Developed tool -----------------------------------------------------
    sta::StaToolOptions sopt = opt.tool;
    if (opt.prune) sopt.finder.n_worst = sopt.keep_worst;
    sopt.finder.metrics = metrics;
    sopt.finder.trace = trace;
    sta::SearchAttribution attribution;
    if (!opt.report_json.empty() || opt.profile || opt.selfcheck) {
      sopt.finder.attribution = &attribution;
    }
    if (opt.progress) sopt.finder.progress_interval_seconds = 2.0;

    // --- Flight recorder + signal plumbing ----------------------------------
    // The recorder is write-only for the search (results are bit-identical
    // on/off); the crash/SIGUSR1 handlers and the stall watchdog read it.
    // SIGINT handling is independent of the recorder: the first Ctrl-C
    // requests a cooperative stop so a partial report can still be written.
    util::FlightRecorder::Config fcfg;
    fcfg.lanes = util::ThreadPool::resolve(sopt.finder.num_threads);
    util::FlightRecorder flight_storage(fcfg);
    util::FlightRecorder* flight =
        opt.flight_recorder ? &flight_storage : nullptr;
    const std::string flight_dump =
        !opt.flight_dump.empty()
            ? opt.flight_dump
            : (std::filesystem::temp_directory_path() / "sasta.flightdump")
                  .string();
    if (flight != nullptr) {
      std::string names;
      for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
        names += "net " + std::to_string(n) + " " + nl.net(n).name + "\n";
      }
      for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
        names += "inst " + std::to_string(i) + " " + nl.instance(i).name + "\n";
      }
      flight->set_name_table(std::move(names));
      util::install_flight_signal_handlers(flight, flight_dump);
      sopt.finder.flight = flight;
      sopt.finder.watchdog_seconds = opt.watchdog_seconds;
      sopt.finder.watchdog_dump_path = flight_dump;
    }
    util::install_interrupt_handler();

    sta::StaTool tool(nl, cl, tech, sopt);
    const sta::StaResult res = tool.run();

    std::cout << "\n[saSTA] " << res.stats.paths_recorded
              << " true (path, vector, direction) sensitizations in "
              << util::format_fixed(res.stats.cpu_seconds, 2) << " s ("
              << res.stats.courses << " courses, "
              << res.stats.multi_vector_courses << " multi-vector, "
              << res.stats.justify_limited << " budget drops"
              << (res.stats.truncated ? ", TRUNCATED" : "") << ")\n";
    if (opt.profile) {
      sta::RunReportInputs profile_in;
      profile_in.circuit = nl.name();
      profile_in.netlist = &nl;
      profile_in.options = &sopt.finder;
      profile_in.stats = &res.stats;
      profile_in.attribution = sopt.finder.attribution;
      std::cout << "\n" << sta::format_profile_summary(profile_in);
    }
    std::cout << "worst true paths:\n";
    for (const auto& tp : res.paths) {
      std::cout << "  " << util::format_fixed(tp.delay * 1e12, 1) << " ps  "
                << nl.net(tp.path.source).name
                << (tp.path.launch_edge == spice::Edge::kRise ? "(R)" : "(F)");
      for (const auto& s : tp.path.steps) {
        const auto& inst = nl.instance(s.inst);
        std::cout << " > " << inst.cell->name() << ":"
                  << inst.cell->pin_names()[s.pin] << "/v" << s.vector_id;
      }
      std::cout << " > " << nl.net(tp.path.sink).name;
      if (opt.golden) {
        golden::PathSimOptions gopt;
        gopt.temperature_c = sopt.delay.temperature_c;
        gopt.vdd = sopt.delay.vdd;
        const auto g = golden::simulate_path(nl, cl, tech, tp.path, gopt);
        std::cout << "  [golden " << util::format_fixed(g.path_delay * 1e12, 1)
                  << " ps, err "
                  << util::format_percent(
                         std::abs(tp.delay - g.path_delay) / g.path_delay, 1)
                  << "]";
      }
      std::cout << "\n";
    }

    if (sopt.keep_fastest > 0 && !res.fastest.empty()) {
      std::cout << "fastest true paths (hold side):\n";
      for (const auto& tp : res.fastest) {
        std::cout << "  " << util::format_fixed(tp.delay * 1e12, 1) << " ps  "
                  << nl.net(tp.path.source).name << " -> "
                  << nl.net(tp.path.sink).name << " ("
                  << tp.path.steps.size() << " stages)\n";
      }
    }

    if (opt.erc) {
      const auto erc_report = sta::check_electrical_rules(nl, cl, tech);
      std::cout << "\n" << sta::format_erc_report(nl, erc_report);
    }

    if (!opt.write_sdf.empty()) {
      std::ofstream os(opt.write_sdf);
      sta::SdfOptions sdf_opt;
      sdf_opt.temperature_c = sopt.delay.temperature_c;
      sdf_opt.vdd = sopt.delay.vdd;
      sta::write_sdf(nl, cl, tech, os, sdf_opt);
      std::cout << "wrote " << opt.write_sdf << "\n";
    }

    if (opt.corners) {
      const auto mc = sta::analyze_corners(nl, cl, tech,
                                           sta::default_corners(tech), sopt);
      std::cout << "\ncorner    temp(C)  vdd(V)   critical(ps)\n";
      for (const auto& c : mc.corners) {
        std::cout << (c.corner.name + "        ").substr(0, 8) << "  "
                  << util::format_fixed(c.corner.temp_c, 0) << "\t   "
                  << util::format_fixed(
                         c.corner.vdd > 0 ? c.corner.vdd : tech.vdd, 2)
                  << "     " << util::format_fixed(c.critical_delay * 1e12, 1)
                  << "\n";
      }
      std::cout << "worst corner: " << mc.worst().corner.name << "\n";
      if (!opt.full_char) {
        std::cout << "(note: the fast characterization profile has no T/VDD "
                     "sweep; use --full-char for real corner coefficients)\n";
      }
    }

    if (opt.report && !res.paths.empty()) {
      Phase phase(metrics, trace, "report");
      std::cout << "\n" << sta::format_path(nl, cl, res.critical());
      const sta::TimingReport rep =
          sta::build_timing_report(nl, res, opt.required_ns * 1e-9);
      std::cout << "\n" << sta::format_timing_report(nl, rep);
    }

    // --- Optional baseline ---------------------------------------------------
    if (opt.baseline) {
      Phase phase(metrics, trace, "baseline");
      baseline::BaselineOptions bopt;
      bopt.delay.temperature_c = sopt.delay.temperature_c;
      bopt.delay.vdd = sopt.delay.vdd;
      baseline::BaselineTool base(nl, cl, tech, bopt);
      const auto bres = base.run();
      std::cout << "\n[baseline] explored " << bres.explored << " in "
                << util::format_fixed(bres.cpu_seconds, 2) << " s: "
                << bres.true_paths << " true, " << bres.false_paths
                << " false, " << bres.backtrack_limited
                << " aborted (no-vector ratio "
                << util::format_percent(bres.no_vector_ratio(), 1) << ")\n";
    }

    if (!opt.metrics_json.empty()) {
      std::ofstream os(opt.metrics_json);
      metrics->write_json(os);
      std::cout << "wrote " << opt.metrics_json << "\n";
    }
    if (!opt.trace_out.empty()) {
      std::ofstream os(opt.trace_out);
      trace->write_json(os);
      std::cout << "wrote " << opt.trace_out << "\n";
    }
    if (!opt.report_json.empty() || opt.selfcheck) {
      // Snapshot last so the report's metrics section carries every phase
      // gauge written above.
      const util::MetricsSnapshot snap = metrics->snapshot();
      sta::RunReportInputs report_in;
      report_in.circuit = nl.name();
      report_in.netlist = &nl;
      report_in.options = &sopt.finder;
      report_in.stats = &res.stats;
      report_in.metrics = &snap;
      report_in.attribution = sopt.finder.attribution;
      report_in.trace = trace;
      report_in.flight = flight;
      if (!opt.report_json.empty()) {
        std::ofstream os(opt.report_json);
        sta::write_run_report(report_in, os);
        std::cout << "wrote " << opt.report_json << "\n";
      }
      if (opt.selfcheck) {
        const std::vector<std::string> violations =
            sta::selfcheck_run(report_in);
        if (!violations.empty()) {
          std::cerr << "selfcheck: " << violations.size()
                    << " violation(s):\n";
          for (const std::string& v : violations) {
            std::cerr << "  " << v << "\n";
          }
          return 3;
        }
        std::cout << "selfcheck: ok\n";
      }
    }
    if (util::interrupt_requested()) {
      // A partial report (stats flagged TRUNCATED) was still written above;
      // exit with the conventional SIGINT status.
      std::cerr << "interrupted: results reflect a partial search\n";
      return 130;
    }
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
