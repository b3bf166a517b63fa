// Reproduces paper Table 6: critical-path identification on the ISCAS-85
// suite — developed tool vs commercial-tool baseline.
//
//   developed tool : input vectors (all true (path, vector-combo, direction)
//                    sensitizations), multi-vector paths, CPU time;
//   baseline       : backtrack limit, CPU time, #paths explored, #true,
//                    #false, #backtrack-limited, false-path ratio, and the
//                    worst-delay prediction ratio (how often its single
//                    reported vector is the actual worst one).
//
// c17 is the genuine ISCAS netlist; the larger circuits are synthetic
// stand-ins with the published PI/PO/gate statistics (see iscas_gen.h and
// EXPERIMENTS.md).  Our baseline's complete justification engine never
// *mislabels* a path false; the paper's "#False paths" column manifests
// here as backtrack-limited aborts.
//
// Machine-readable telemetry: when SASTA_BENCH_METRICS_JSON names a file,
// the developed-tool runs share one MetricsRegistry (per-circuit table6.*
// aggregates, per-source/per-worker pathfinder counters, thread-scaling
// gauges) and the merged JSON is written there, so BENCH trajectories can be diffed mechanically
// across commits.
#include <cstdlib>
#include <fstream>
#include <map>

#include "baseline/baseline_tool.h"
#include "bench_common.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/sta_tool.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace sasta::bench {
namespace {

struct CourseInfo {
  long combos = 0;
  double worst_delay = -1.0;
  std::string worst_key;
};

struct DevelopedRun {
  sta::PathFinderStats stats;
  std::map<std::string, CourseInfo> courses;
};

std::string combo_key(const sta::TruePath& p) {
  std::string k;
  for (const auto& s : p.steps) {
    k += std::to_string(s.vector_id);
    k += ",";
  }
  return k;
}

DevelopedRun run_developed(const netlist::Netlist& nl,
                           const charlib::CharLibrary& cl,
                           const tech::Technology& tech,
                           util::MetricsRegistry* metrics) {
  DevelopedRun out;
  sta::DelayCalculator calc(nl, cl, tech);
  sta::PathFinderOptions opt;
  opt.max_seconds = fast_mode() ? 5.0 : 60.0;
  opt.max_paths = fast_mode() ? 200000 : 5000000;
  opt.metrics = metrics;
  sta::PathFinder finder(nl, cl, opt);
  out.stats = finder.run([&](const sta::TruePath& p) {
    const double delay = calc.compute(p).delay;
    CourseInfo& info = out.courses[p.course_key(nl)];
    ++info.combos;
    if (delay > info.worst_delay) {
      info.worst_delay = delay;
      info.worst_key = combo_key(p);
    }
  });
  return out;
}

int run() {
  const std::string tech_name = "90nm";
  const auto& tech = tech::technology(tech_name);
  const auto& cl = charlib_for(tech_name);

  util::MetricsRegistry metrics_registry;
  const char* metrics_path = std::getenv("SASTA_BENCH_METRICS_JSON");
  util::MetricsRegistry* metrics =
      (metrics_path != nullptr && metrics_path[0] != '\0') ? &metrics_registry
                                                           : nullptr;
  BenchJson bench_json("table6_pathfinding");

  print_title("Table 6: path identification, developed vs baseline (" +
              tech_name + (fast_mode() ? ", FAST mode)" : ")"));
  const std::vector<int> widths{8, 9, 11, 9, 6, 9, 9, 7, 7, 9, 8, 7, 9, 9};
  print_row({"circuit", "dev:vecs", "dev:multiIn", "dev:cpu_s", "||",
             "bt-limit", "base:cpu", "#paths", "#true", "#aborted",
             "#false", "#misid", "no-vec%", "worstOK%"},
            widths);

  std::vector<std::string> circuits{"c17"};
  for (const auto& n : netlist::iscas_profile_names()) circuits.push_back(n);
  if (fast_mode()) circuits.resize(5);

  for (const auto& name : circuits) {
    netlist::PrimNetlist prim =
        name == "c17"
            ? netlist::parse_bench_string(netlist::c17_bench_text(), "c17")
            : netlist::generate_iscas_like(netlist::iscas_profile(name));
    const auto mapped = netlist::tech_map(prim, library());
    const netlist::Netlist& nl = mapped.netlist;

    const DevelopedRun dev = run_developed(nl, cl, tech, metrics);
    bench_json.add(
        {name, dev.stats.cpu_seconds, dev.stats.vector_trials, 1});
    if (metrics != nullptr) {
      const std::string base = "table6." + name + ".";
      for (const sta::SearchCounter& c : sta::kSearchCounters) {
        metrics->add(metrics->counter(base + std::string(c.name)),
                     dev.stats.*c.field);
      }
      metrics->set(metrics->gauge(base + "cpu_seconds"),
                   dev.stats.cpu_seconds);
    }

    baseline::BaselineOptions bopt;
    bopt.path_limit = fast_mode() ? 200 : 1000;
    bopt.backtrack_limit = 1000;
    baseline::BaselineTool base(nl, cl, tech, bopt);
    const baseline::BaselineResult bres = base.run();

    // Worst-delay prediction: among baseline true paths whose course has
    // multiple sensitization combos, how often is the reported vector the
    // actual worst one?  Also count baseline-false courses the exhaustive
    // tool proves true (the paper's "#False paths" misidentifications,
    // caused by the baseline's first-fit justification).
    long multi = 0, hits = 0, misidentified = 0;
    for (const auto& bp : bres.paths) {
      sta::TruePath tp;
      tp.source = bp.structural.source;
      tp.sink = bp.structural.sink;
      tp.launch_edge = bp.structural.launch_edge;
      tp.steps = bp.structural.steps;
      if (bp.outcome.status == baseline::SensitizeStatus::kFalse) {
        if (dev.courses.count(tp.course_key(nl))) ++misidentified;
        continue;
      }
      if (bp.outcome.status != baseline::SensitizeStatus::kTrue) continue;
      for (std::size_t i = 0; i < tp.steps.size(); ++i) {
        tp.steps[i].vector_id = bp.outcome.reported_vectors[i];
      }
      const auto it = dev.courses.find(tp.course_key(nl));
      if (it == dev.courses.end() || it->second.combos < 2) continue;
      ++multi;
      if (combo_key(tp) == it->second.worst_key) ++hits;
    }
    const std::string worst_ok =
        multi == 0 ? "n/a"
                   : util::format_percent(static_cast<double>(hits) /
                                              static_cast<double>(multi),
                                          1);

    print_row(
        {name, std::to_string(dev.stats.paths_recorded),
         std::to_string(dev.stats.multi_vector_courses),
         util::format_fixed(dev.stats.cpu_seconds, 2) +
             (dev.stats.truncated ? "*" : ""),
         "||", std::to_string(bopt.backtrack_limit),
         util::format_fixed(bres.cpu_seconds, 2),
         std::to_string(bres.explored), std::to_string(bres.true_paths),
         std::to_string(bres.backtrack_limited),
         std::to_string(bres.false_paths), std::to_string(misidentified),
         util::format_percent(bres.no_vector_ratio(), 1), worst_ok},
        widths);
  }

  // Paper-style backtrack-limit sweep on the multiplier-like circuit.
  if (!fast_mode()) {
    print_title("Backtrack-limit sweep (c6288 profile), paper Table 6 inset");
    const auto prim =
        netlist::generate_iscas_like(netlist::iscas_profile("c6288"));
    const auto mapped = netlist::tech_map(prim, library());
    print_row({"bt-limit", "cpu_s", "#true", "#aborted", "#false", "no-vec%"},
              {9, 8, 7, 9, 8, 9});
    for (long limit : {100L, 1000L, 5000L, 25000L}) {
      baseline::BaselineOptions bopt;
      bopt.path_limit = 1000;
      bopt.backtrack_limit = limit;
      baseline::BaselineTool base(mapped.netlist, cl, tech, bopt);
      const auto r = base.run();
      print_row({std::to_string(limit), util::format_fixed(r.cpu_seconds, 2),
                 std::to_string(r.true_paths),
                 std::to_string(r.backtrack_limited),
                 std::to_string(r.false_paths),
                 util::format_percent(r.no_vector_ratio(), 1)},
                {9, 8, 7, 9, 8, 9});
    }
  }

  // Thread-scaling variant: the same exhaustive enumeration fanned out over
  // source primary inputs.  No time/path budget, so every run is exhaustive
  // and the delivered path list must be byte-identical at every thread
  // count (checked against num_threads=1 via the full path keys, order
  // included).
  {
    print_title("Thread scaling (source-parallel PathFinder)");
    netlist::GeneratorProfile prof;
    prof.name = "scale16";
    prof.num_inputs = 16;
    prof.num_outputs = 8;
    prof.num_gates = fast_mode() ? 80 : 140;
    prof.depth = 8;
    prof.seed = 42;
    const auto mapped =
        netlist::tech_map(netlist::generate_iscas_like(prof), library());
    const netlist::Netlist& nl = mapped.netlist;
    std::cout << "circuit " << prof.name << ": " << nl.num_instances()
              << " cells, " << nl.primary_inputs().size() << " PIs, "
              << util::ThreadPool::hardware_threads()
              << " hardware threads\n";

    print_row({"threads", "cpu_s", "speedup", "paths", "identical"},
              {8, 9, 9, 9, 10});
    double t1 = 0.0;
    std::vector<std::string> reference_keys;
    for (const int threads : {1, 2, 4, 8}) {
      sta::PathFinderOptions opt;
          opt.num_threads = threads;
      opt.metrics = metrics;
      sta::PathFinder finder(nl, cl, opt);
      std::vector<std::string> keys;
      util::Stopwatch watch;
      const sta::PathFinderStats stats = finder.run(
          [&](const sta::TruePath& p) { keys.push_back(p.full_key(nl)); });
      const double secs = watch.elapsed_seconds();
      bench_json.add({prof.name, secs, stats.vector_trials, threads});
      if (metrics != nullptr) {
        metrics->set(metrics->gauge("table6.scaling.threads" +
                                    std::to_string(threads) + ".seconds"),
                     secs);
      }
      if (threads == 1) {
        t1 = secs;
        reference_keys = keys;
      }
      print_row({std::to_string(threads), util::format_fixed(secs, 3),
                 threads == 1 ? "1.00x"
                              : util::format_fixed(t1 / secs, 2) + "x",
                 std::to_string(stats.paths_recorded),
                 keys == reference_keys ? "yes" : "NO (BUG)"},
                {8, 9, 9, 9, 10});
    }
    std::cout << "(speedup needs that many hardware threads and >= 8 "
                 "reachable sources; delivered order is the sequential "
                 "order at every thread count)\n";
  }

  // Flight-recorder overhead: the same exhaustive enumeration with the
  // per-worker recorder off vs on (event rings + activity slots armed,
  // everything the CLI default enables).  Recording is strictly
  // result-neutral — the delivered path list must be byte-identical — and
  // the acceptance budget is < 2% wall-clock overhead.  Wall time is the
  // best of three reps per side to suppress scheduler noise; both sides
  // land in the trajectory JSON as "<name>/recorder_{off,on}".
  {
    print_title("Flight recorder overhead (--flight-recorder off vs on)");
    const std::vector<int> rwidths{14, 10, 9, 9, 10, 10};
    print_row({"circuit", "recorder", "cpu_s", "paths", "events",
               "identical"},
              rwidths);

    std::vector<std::string> rec_circuits{"memo16"};
    if (!fast_mode()) rec_circuits.push_back("c432");
    for (const auto& name : rec_circuits) {
      netlist::PrimNetlist prim;
      if (name == "memo16") {
        netlist::GeneratorProfile prof;
        prof.name = "memo16";
        prof.num_inputs = 16;
        prof.num_outputs = 8;
        prof.num_gates = fast_mode() ? 80 : 140;
        prof.depth = 8;
        prof.seed = 42;
        prim = netlist::generate_iscas_like(prof);
      } else {
        prim = netlist::generate_iscas_like(netlist::iscas_profile(name));
      }
      const auto mapped = netlist::tech_map(prim, library());
      const netlist::Netlist& nl = mapped.netlist;

      struct Side {
        double best = -1.0;
        sta::PathFinderStats stats;
        std::vector<std::string> keys;
        std::uint64_t events = 0;
      };
      const auto run_once = [&](bool recorder, Side* side) {
        util::FlightRecorder::Config cfg;
        cfg.lanes = 8;
        util::FlightRecorder rec(cfg);
        sta::PathFinderOptions opt;
        opt.num_threads = 8;
        if (recorder) opt.flight = &rec;
        sta::PathFinder finder(nl, cl, opt);
        std::vector<std::string> keys;
        util::Stopwatch watch;
        side->stats = finder.run(
            [&](const sta::TruePath& p) { keys.push_back(p.full_key(nl)); });
        const double secs = watch.elapsed_seconds();
        if (side->best < 0 || secs < side->best) side->best = secs;
        if (side->keys.empty()) {
          side->keys = std::move(keys);
          side->events = rec.total_events();
        }
      };
      // Interleave the sides so slow drift (thermal, page cache, noisy
      // neighbors) hits both equally; min-of-reps then removes the tail.
      Side off, on;
      const int reps = 3;
      for (int rep = 0; rep < reps; ++rep) {
        run_once(false, &off);
        run_once(true, &on);
      }
      const double off_s = off.best;
      const double on_s = on.best;
      const sta::PathFinderStats& off_stats = off.stats;
      const sta::PathFinderStats& on_stats = on.stats;
      const std::uint64_t events = on.events;
      const bool identical = on.keys == off.keys;

      bench_json.add(
          {name + "/recorder_off", off_s, off_stats.vector_trials, 8});
      bench_json.add(
          {name + "/recorder_on", on_s, on_stats.vector_trials, 8});
      if (metrics != nullptr) {
        const std::string base = "table6." + name + ".recorder";
        metrics->set(metrics->gauge(base + ".off_seconds"), off_s);
        metrics->set(metrics->gauge(base + ".on_seconds"), on_s);
      }
      print_row({name, "off", util::format_fixed(off_s, 3),
                 std::to_string(off_stats.paths_recorded), "-", "-"},
                rwidths);
      print_row({name, "on", util::format_fixed(on_s, 3),
                 std::to_string(on_stats.paths_recorded),
                 std::to_string(events), identical ? "yes" : "NO (BUG)"},
                rwidths);
      std::cout << "recorder overhead (" << name << "): "
                << util::format_percent(off_s > 0 ? on_s / off_s - 1.0 : 0.0,
                                        1)
                << " (budget < 2%)\n";
    }
  }

  if (metrics != nullptr) {
    std::ofstream os(metrics_path);
    metrics->write_json(os);
    std::cout << "\nwrote metrics JSON to " << metrics_path << "\n";
  }
  bench_json.write();

  std::cout << "\n'*' = exploration truncated by the time/path budget.\n"
               "Paper shape: the developed tool reports every sensitization "
               "vector per path in a single pass,\nwith lower CPU time than "
               "the backtrack-limited baseline, whose single easy vector "
               "matches the\nactual worst delay only ~40% of the time "
               "(Table 6, last column).\n";
  return 0;
}

}  // namespace
}  // namespace sasta::bench

int main() { return sasta::bench::run(); }
