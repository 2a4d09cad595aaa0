// perfbench_driver — the compiled half of the repository benchmark.
//
// run.py (next to this file) builds this program, starts the daemon, and
// turns the JSON this program prints into the benchmark's result line.
// Two subcommands:
//
//   perfbench_driver solve --n N --dir DIR --engine E --k K --rounds R
//                          --seed S --seconds T --trace 0|1 --spans FILE
//       The solve pipeline through the library's public entry points, on
//       clustered instances (n/250 clusters) written to TSPLIB in DIR:
//       load_tsplib -> EngineFactory -> neighbor_lists -> multiple_fragment
//       -> local_search (first minimum) -> iterated_local_search (R rounds)
//       -> or_opt_descend. Solves one instance after another while the
//       next is expected to end within T seconds (at least one). With
//       --trace 1 each instance is solved untraced and then traced, with
//       benchmark-owned spans around each call.
//
//   perfbench_driver serve --port P --pid PID --seed S --rate R
//                          --seconds T --limit-ms L --trace 0|1 --spans FILE
//       An open-loop Poisson load generator against a live tspoptd: one
//       submitting connection, one polling connection.
//
// Every subcommand prints one JSON object on stdout and exits 0 when the
// run completed (correctness verdicts are fields of that object) or
// non-zero when it could not run at all.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "obs/json.hpp"
#include "serve/job.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/ils.hpp"
#include "solver/local_search.hpp"
#include "solver/or_opt.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"
#include "tsp/tsplib.hpp"

namespace {

using namespace tspopt;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest-rank: the smallest value with at least q of the sample at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}
double median(const std::vector<double>& v) { return percentile(v, 0.5); }
double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// VmHWM of a process, in MiB ("self" or a pid).
double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// utime + stime of a process, in milliseconds.
double cpu_ms(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at #3 (state); utime is #14 and
  // stime #15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------------
// Benchmark-owned spans: kept in memory, written as JSON at exit, and
// folded into a self-time table (a span's duration minus the time its
// children cover; the root's self time is the unattributed remainder).

class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    double start = 0.0;  // seconds since process start
    double end = 0.0;
    std::string trace_id;
  };

  std::int64_t add(std::string name, std::int64_t parent, double start,
                   double end, std::string trace_id = {}) {
    spans_.push_back({std::move(name), parent, start, end, std::move(trace_id)});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  std::int64_t open(std::string name, std::int64_t parent) {
    double t = now_s();
    return add(std::move(name), parent, t, t);
  }
  void close(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

  struct Row {
    std::int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  // Self time per span name. Children are summed, not unioned: the
  // benchmark's spans never overlap their siblings.
  std::map<std::string, Row> self_times() const {
    std::vector<double> child_sum(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_sum[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      double d = spans_[i].end - spans_[i].start;
      ++row.count;
      row.total_s += d;
      row.self_s += std::max(0.0, d - child_sum[i]);
    }
    return rows;
  }

  void write(const std::string& path) const {
    obs::JsonWriter w;
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.key("id").value(static_cast<std::int64_t>(i));
      w.key("name").value(s.name);
      w.key("parent").value(s.parent);
      w.key("start_us").value(s.start * 1e6);
      w.key("dur_us").value((s.end - s.start) * 1e6);
      if (!s.trace_id.empty()) w.key("trace_id").value(s.trace_id);
      w.end_object();
    }
    w.end_array();
    std::ofstream out(path);
    out << w.str() << "\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

  void write_self_times(obs::JsonWriter& w) const {
    w.begin_array();
    for (const auto& [name, row] : self_times()) {
      w.begin_object();
      w.key("span").value(name);
      w.key("count").value(row.count);
      w.key("total_s").value(row.total_s);
      w.key("self_s").value(row.self_s);
      w.end_object();
    }
    w.end_array();
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// solve

// Counts engine passes, so ILS passes are known without reading the
// solver's internals. One virtual call per pass.
class CountingEngine : public TwoOptEngine {
 public:
  explicit CountingEngine(TwoOptEngine& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  SearchResult search(const Instance& instance, const Tour& tour) override {
    ++passes;
    return inner_.search(instance, tour);
  }
  std::int64_t passes = 0;

 private:
  TwoOptEngine& inner_;
};

struct SolveOptions {
  std::string engine;
  std::int32_t k = EngineFactory::kDefaultNeighbors;
  std::int64_t rounds = 0;
  std::uint64_t seed = 1;
};

// One solve's measurements. solve_s and time_to_target_s run from the
// moment the pipeline starts with the instance in memory; the others are
// the durations of single calls.
struct SolveRep {
  bool traced = false;
  double solve_s = 0.0;
  double time_to_target_s = 0.0;
  double neighbor_lists_s = 0.0;
  double constructive_s = 0.0;
  double descent_s = 0.0;
  double ils_s = 0.0;
  double or_opt_s = 0.0;
  std::vector<double> pass_us;   // descent: interval between observer calls
  std::vector<double> round_ms;  // ILS: interval between on_progress calls
  std::vector<double> or_opt_pass_s;

  // Exact counts: repeat exactly for one seed on one commit.
  std::map<std::string, std::int64_t> counts;
  std::int64_t ils_improvements = 0;
  std::int64_t or_opt_passes = 0;  // traced solves only
  bool valid = false;
  std::string error;
};

SolveRep solve_once(const Instance& instance, const SolveOptions& opt,
                    Spans* spans) {
  SolveRep rep;
  rep.traced = spans != nullptr;
  EngineFactory factory(&instance, opt.k);

  const double t0 = now_s();
  std::int64_t root = spans ? spans->open("solve", -1) : -1;
  auto layer = [&](const char* name) {
    return spans ? spans->open(name, root) : std::int64_t{-1};
  };
  auto end_layer = [&](std::int64_t id) {
    if (spans) spans->close(id);
  };

  // The first neighbor_lists() call builds the k-NN lists (on the shared
  // thread pool); the pruned engines and Or-opt borrow them.
  std::int64_t sp = layer("tsp.neighbor_lists");
  double t = now_s();
  const NeighborLists& neighbors = factory.neighbor_lists();
  rep.neighbor_lists_s = now_s() - t;
  end_layer(sp);

  sp = layer("solver.create_engine");
  std::unique_ptr<TwoOptEngine> inner = factory.create(opt.engine);
  CountingEngine engine(*inner);
  end_layer(sp);

  sp = layer("constructive.multiple_fragment");
  t = now_s();
  Tour tour = multiple_fragment(instance);
  rep.constructive_s = now_s() - t;
  end_layer(sp);
  const std::int64_t mf_length = tour.length(instance);
  rep.counts["constructive.length"] = mf_length;

  // First 2-opt minimum (the paper's Table II measure).
  std::int64_t descent_span = layer("local_search.descent");
  double last = now_s();
  LocalSearchObserver observer;
  if (spans) {
    observer = [&](const LocalSearchStats&) {
      double n = now_s();
      spans->add("local_search.pass", descent_span, last, n);
      rep.pass_us.push_back((n - last) * 1e6);
      last = n;
      return true;
    };
  }
  t = now_s();
  LocalSearchStats descent = local_search(engine, instance, tour, {}, observer);
  rep.descent_s = now_s() - t;
  // The target is the first 2-opt local minimum (README
  // "time_to_target_s").
  rep.time_to_target_s = now_s() - t0;
  if (spans) {
    // The final pass finds no improving move and calls no observer.
    double n = now_s();
    spans->add("local_search.pass", descent_span, last, n);
    rep.pass_us.push_back((n - last) * 1e6);
  }
  end_layer(descent_span);
  rep.counts["descent.passes"] = descent.passes;
  rep.counts["descent.moves"] = descent.moves_applied;
  rep.counts["descent.checks"] = static_cast<std::int64_t>(descent.checks);

  std::int64_t ils_span = layer("ils.run");
  IlsOptions ils;
  ils.time_limit_seconds = -1.0;  // work is set by the round count
  ils.max_iterations = opt.rounds;
  ils.seed = opt.seed;
  std::vector<double> round_ends;
  if (spans) {
    ils.on_progress = [&](const IlsProgress&) { round_ends.push_back(now_s()); };
  }
  const std::int64_t passes_before_ils = engine.passes;
  t = now_s();
  IlsResult result = iterated_local_search(engine, instance, tour, ils);
  rep.ils_s = now_s() - t;
  if (spans && !result.trace.empty()) {
    // Algorithm 1 re-runs the descent before its first perturbation; the
    // solver's trace stamps when that ended, relative to the call.
    double round_start = t + result.trace.front().seconds;
    spans->add("ils.initial_descent", ils_span, t, round_start);
    for (double end : round_ends) {
      spans->add("ils.round", ils_span, round_start, end);
      rep.round_ms.push_back((end - round_start) * 1e3);
      round_start = end;
    }
  }
  end_layer(ils_span);
  rep.counts["ils.rounds"] = result.iterations;
  rep.counts["ils.checks"] = static_cast<std::int64_t>(result.checks);
  rep.counts["ils.passes"] = engine.passes - passes_before_ils;
  rep.ils_improvements = result.improvements;

  // Or-opt finish. The traced run times each pass, with or_opt_descend's
  // own loop (64 passes at most, stop at the first pass without a move).
  Tour best = result.best;
  std::int64_t or_span = layer("or_opt.descend");
  t = now_s();
  OrOptStats or_stats;
  std::int64_t or_passes = 0;
  if (spans) {
    for (std::int64_t pass = 0; pass < 64; ++pass) {
      std::int64_t ps = spans->open("or_opt.pass", or_span);
      double pt = now_s();
      OrOptStats s = or_opt_pass(instance, best, neighbors);
      rep.or_opt_pass_s.push_back(now_s() - pt);
      spans->close(ps);
      ++or_passes;
      or_stats.moves_applied += s.moves_applied;
      or_stats.improvement += s.improvement;
      or_stats.checks += s.checks;
      if (s.moves_applied == 0) break;
    }
  } else {
    or_stats = or_opt_descend(instance, best, neighbors);
  }
  rep.or_opt_s = now_s() - t;
  end_layer(or_span);
  rep.solve_s = now_s() - t0;
  if (spans) spans->close(root);
  rep.counts["or_opt.moves"] = or_stats.moves_applied;
  rep.counts["or_opt.checks"] = static_cast<std::int64_t>(or_stats.checks);
  rep.or_opt_passes = or_passes;

  // Output checks: a permutation whose recomputed length is the one the
  // pipeline reported.
  const std::int64_t length = best.length(instance);
  rep.counts["tour_length"] = length;
  std::ostringstream err;
  if (!best.is_valid() || best.n() != instance.n()) {
    err << "final tour is not a permutation of the instance; ";
  }
  if (result.best.length(instance) != result.best_length) {
    err << "ILS best_length " << result.best_length << " != recomputed "
        << result.best.length(instance) << "; ";
  }
  if (length != result.best_length - or_stats.improvement) {
    err << "Or-opt length " << length << " != ILS best "
        << result.best_length << " - improvement " << or_stats.improvement
        << "; ";
  }
  if (!descent.reached_local_minimum) {
    err << "the first descent stopped before a local minimum; ";
  }
  if (result.iterations != opt.rounds) {
    err << "ILS ran " << result.iterations << " rounds, not " << opt.rounds
        << "; ";
  }
  rep.error = err.str();
  rep.valid = rep.error.empty();
  return rep;
}

void write_counts(obs::JsonWriter& w,
                  const std::map<std::string, std::int64_t>& counts) {
  w.begin_object();
  for (const auto& [name, value] : counts) w.key(name).value(value);
  w.end_object();
}

// Instance `index` of a run: a clustered instance written to TSPLIB and
// read back, so the program receives only the points.
std::string instance_path(const std::string& dir, std::int32_t n,
                          std::uint64_t seed, std::size_t index) {
  std::string path = dir + "/instance" + std::to_string(index) + ".tsp";
  Instance generated = generate_clustered(
      "perfbench" + std::to_string(n), n, std::max(1, n / 250),
      seed * 1000 + index);
  save_tsplib(path, generated);
  return path;
}

int cmd_solve(CliParser& cli) {
  const auto n = static_cast<std::int32_t>(cli.get_int("n", 0));
  const std::string dir = cli.get("dir");
  SolveOptions opt;
  opt.engine = cli.get("engine");
  opt.k = static_cast<std::int32_t>(cli.get_int("k", opt.k));
  opt.rounds = cli.get_int("rounds", 0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 1.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  std::string spans_path = cli.get("spans");
  if (n < 8 || dir.empty() || opt.engine.empty() || opt.rounds < 1) {
    std::cerr << "solve needs --n >= 8, --dir, --engine and --rounds >= 1\n";
    return 2;
  }

  // Set-up: TSPLIB load and factory creation, 31 times; the median is
  // reported so one slow read does not decide the figure.
  std::vector<std::string> paths{instance_path(dir, n, seed, 0)};
  std::vector<double> setup_s;
  Instance instance;
  for (int i = 0; i < 31; ++i) {
    double t = now_s();
    instance = load_tsplib(paths[0]);
    EngineFactory factory(&instance, opt.k);
    setup_s.push_back(now_s() - t);
  }

  // The window: one instance after another (instance i is generated from
  // the seed and i), at least one, and another only while it is expected
  // to finish inside the window (so a 20 s window holds one 100k solve). A traced run
  // solves each instance twice, untraced then traced, so the tracing
  // overhead is measured on identical work.
  Spans spans;
  std::vector<SolveRep> reps;
  std::vector<double> load_s;
  const double window_start = now_s();
  double last_instance_s = 0.0;
  for (std::size_t i = 0;
       i == 0 || now_s() - window_start + last_instance_s <= seconds; ++i) {
    const double instance_start = now_s();
    if (i > 0) paths.push_back(instance_path(dir, n, seed, i));
    double t = now_s();
    instance = load_tsplib(paths[i]);
    load_s.push_back(now_s() - t);
    opt.seed = seed * 1000 + i;
    reps.push_back(solve_once(instance, opt, nullptr));
    if (trace) {
      reps.push_back(solve_once(instance, opt, &spans));
      // Same instance, same ILS seed: the counts must agree.
      if (reps.back().counts != reps[reps.size() - 2].counts) {
        reps.back().valid = false;
        reps.back().error += "traced and untraced solves of instance " +
                             std::to_string(i) + " differ in their counts; ";
      }
    }
    last_instance_s = now_s() - instance_start;
  }
  const double window_s = now_s() - window_start;

  std::string error;
  std::int64_t failed = 0;
  for (const SolveRep& r : reps) {
    if (!r.valid) {
      ++failed;
      if (error.empty()) error = r.error;
    }
  }

  // End-to-end figures come from the untraced solves, layer figures from
  // the traced ones. Exact counts are keyed by instance index.
  std::vector<double> solve_untraced, ttt_untraced, solve_traced;
  std::vector<const SolveRep*> traced;
  for (const SolveRep& r : reps) {
    if (r.traced) {
      traced.push_back(&r);
      solve_traced.push_back(r.solve_s);
    } else {
      solve_untraced.push_back(r.solve_s);
      ttt_untraced.push_back(r.time_to_target_s);
    }
  }
  double solve_total = 0.0;
  for (double x : solve_untraced) solve_total += x;

  obs::JsonWriter w;
  w.begin_object();
  w.key("kind").value("solve");
  w.key("attempted").value(static_cast<std::int64_t>(reps.size()));
  w.key("failed").value(failed);
  w.key("error").value(error);
  w.key("window_s").value(window_s);
  w.key("samples").value(static_cast<std::int64_t>(solve_untraced.size()));
  w.key("end_to_end").begin_object();
  w.key("setup_s").value(median(setup_s));
  w.key("time_to_target_s").value(median(ttt_untraced));
  w.key("solve_s").value(median(solve_untraced));
  w.key("tour_length").value(reps.front().counts.at("tour_length"));
  w.key("latency_p50_ms").value(median(solve_untraced) * 1e3);
  w.key("latency_p99_ms").value(percentile(solve_untraced, 0.99) * 1e3);
  w.key("goodput_jobs_s")
      .value(static_cast<double>(solve_untraced.size()) / solve_total);
  w.key("peak_rss_mb").value(peak_rss_mb("self"));
  w.end_object();
  // Phase times of every untraced solve, for triage.
  w.key("phases").begin_array();
  for (const SolveRep& r : reps) {
    if (r.traced) continue;
    w.begin_object();
    w.key("neighbor_lists_s").value(r.neighbor_lists_s);
    w.key("constructive_s").value(r.constructive_s);
    w.key("descent_s").value(r.descent_s);
    w.key("ils_s").value(r.ils_s);
    w.key("or_opt_s").value(r.or_opt_s);
    w.end_object();
  }
  w.end_array();
  w.key("counts").begin_object();
  for (std::size_t i = 0, inst = 0; i < reps.size(); ++i) {
    if (reps[i].traced) continue;
    w.key("instance" + std::to_string(inst++));
    write_counts(w, reps[i].counts);
  }
  w.end_object();
  if (trace) {
    // Counts of instance 0 (exact for the seed); times are medians over
    // the traced solves; per-unit costs are totals over totals.
    const auto& c = traced.front()->counts;
    std::vector<double> nn_s, mf_s, descent_s, ils_s, or_s, pass_us, round_ms;
    double descent_total = 0.0, ils_total = 0.0, or_pass_total = 0.0;
    double descent_checks = 0.0, ils_checks = 0.0, or_moves = 0.0;
    for (const SolveRep* r : traced) {
      nn_s.push_back(r->neighbor_lists_s);
      mf_s.push_back(r->constructive_s);
      descent_s.push_back(r->descent_s);
      ils_s.push_back(r->ils_s);
      or_s.push_back(r->or_opt_s);
      pass_us.insert(pass_us.end(), r->pass_us.begin(), r->pass_us.end());
      round_ms.insert(round_ms.end(), r->round_ms.begin(), r->round_ms.end());
      descent_total += r->descent_s;
      ils_total += r->ils_s;
      for (double x : r->or_opt_pass_s) or_pass_total += x;
      descent_checks += static_cast<double>(r->counts.at("descent.checks"));
      ils_checks += static_cast<double>(r->counts.at("ils.checks"));
      or_moves += static_cast<double>(r->counts.at("or_opt.moves"));
    }
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    w.key("layers").begin_object();
    w.key("tsp.load_s").value(median(load_s));
    w.key("tsp.neighbor_lists_s").value(median(nn_s));
    w.key("constructive.s").value(median(mf_s));
    w.key("constructive.length").value(c.at("constructive.length"));
    w.key("descent.s").value(median(descent_s));
    w.key("descent.passes").value(c.at("descent.passes"));
    w.key("descent.moves").value(c.at("descent.moves"));
    w.key("descent.checks").value(c.at("descent.checks"));
    w.key("descent.pass_us_p50").value(median(pass_us));
    w.key("descent.pass_us_p99").value(percentile(pass_us, 0.99));
    w.key("descent.ns_per_check").value(ratio(descent_total * 1e9, descent_checks));
    w.key("ils.s").value(median(ils_s));
    w.key("ils.rounds").value(c.at("ils.rounds"));
    w.key("ils.improvements").value(traced.front()->ils_improvements);
    w.key("ils.checks").value(c.at("ils.checks"));
    w.key("ils.passes").value(c.at("ils.passes"));
    w.key("ils.round_ms_p50").value(median(round_ms));
    w.key("ils.round_ms_p99").value(percentile(round_ms, 0.99));
    w.key("ils.ns_per_check").value(ratio(ils_total * 1e9, ils_checks));
    w.key("or_opt.s").value(median(or_s));
    w.key("or_opt.passes").value(traced.front()->or_opt_passes);
    w.key("or_opt.moves").value(c.at("or_opt.moves"));
    w.key("or_opt.checks").value(c.at("or_opt.checks"));
    w.key("or_opt.us_per_move").value(ratio(or_pass_total * 1e6, or_moves));
    w.key("trace.overhead_frac")
        .value(median(solve_traced) / median(solve_untraced) - 1.0);
    w.end_object();
    w.key("self_times");
    spans.write_self_times(w);
  }
  w.end_object();
  if (trace && !spans_path.empty()) spans.write(spans_path);
  std::cout << w.str() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// serve

// One blocking line-protocol connection to tspoptd. Kept separate from
// serve::Client so the benchmark sees raw request and response sizes.
class LineConn {
 public:
  LineConn(std::uint16_t port, double timeout_s) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - std::floor(timeout_s)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to tspoptd on port " +
                               std::to_string(port));
    }
  }
  ~LineConn() { ::close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  // Send one request line, return the response line (without '\n').
  std::string request(const std::string& line) {
    std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to tspoptd failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      std::size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        std::string response = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return response;
      }
      char buf[65536];
      ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("tspoptd closed or timed out");
      pending_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

enum class JobKind { kCatalogPruned = 0, kInlinePruned = 1, kCatalogBatch = 2 };

struct Arrival {
  double at_s = 0.0;  // scheduled send time, from the window start
  JobKind kind = JobKind::kCatalogPruned;
  std::size_t instance = 0;  // index into the inline instances
  serve::JobSpec spec;
  std::string line;  // the submit request, rendered before the window
};

struct JobRecord {
  std::uint64_t id = 0;
  double sent_s = 0.0;     // actual send time, from the window start
  double acked_s = 0.0;    // submit response received
  double fetched_s = -1.0; // result response received
  double submit_rtt_ms = 0.0;
  double result_rtt_ms = 0.0;
  std::size_t submit_bytes = 0;
  std::size_t result_bytes = 0;
  std::int64_t polls = 0;
  double wait_ms = 0.0, lease_ms = 0.0, run_ms = 0.0, settle_ms = 0.0;
  bool ok = false;  // finished with a valid result
  bool batched = false;
  std::vector<std::int32_t> order;
  std::int64_t best_length = 0;
  std::string error;
};

// Check a result's tour against its instance; "" when it holds.
std::string check_result(const obs::JsonValue& result, const Instance& instance,
                         std::vector<std::int32_t>* order_out,
                         std::int64_t* length_out) {
  const obs::JsonValue* order = result.find("order");
  const obs::JsonValue* best = result.find("best_length");
  if (order == nullptr || !order->is_array() || best == nullptr) {
    return "result has no order/best_length";
  }
  std::vector<std::int32_t> tour;
  tour.reserve(order->array.size());
  for (const obs::JsonValue& c : order->array) {
    tour.push_back(static_cast<std::int32_t>(c.number));
  }
  if (static_cast<std::int32_t>(tour.size()) != instance.n()) {
    return "order has " + std::to_string(tour.size()) + " cities, instance " +
           std::to_string(instance.n());
  }
  Tour t(tour);
  if (!t.is_valid()) return "order is not a permutation";
  auto reported = static_cast<std::int64_t>(best->number);
  std::int64_t length = t.length(instance);
  if (length != reported) {
    return "recomputed length " + std::to_string(length) +
           " != best_length " + std::to_string(reported);
  }
  if (order_out) *order_out = std::move(tour);
  if (length_out) *length_out = length;
  return {};
}

std::string submit_line(const serve::JobSpec& spec) {
  return "{\"verb\":\"submit\",\"job\":" + serve::job_spec_to_json(spec) + "}";
}
std::string id_line(const char* verb, std::uint64_t id) {
  return std::string("{\"verb\":\"") + verb + "\",\"id\":" + std::to_string(id) +
         "}";
}

struct ServeConfig {
  std::uint16_t port = 0;
  std::string pid;
  std::uint64_t seed = 1;
  double rate = 1.0;
  double seconds = 1.0;
  double limit_ms = 100.0;
};

// The per-job iteration budgets. Time limits are out of reach; the
// iteration count sets the work.
constexpr std::int64_t kCatalogIterations = 10;
constexpr std::int64_t kInlineIterations = 3;
constexpr std::size_t kInlineInstances = 16;
constexpr std::int32_t kInlineN = 1000;
constexpr std::size_t kBatchSample = 8;
constexpr double kWarmupSeconds = 2.0;

std::vector<Arrival> make_schedule(const ServeConfig& cfg,
                                   const std::vector<Instance>& inline_instances) {
  std::mt19937_64 rng(cfg.seed);
  std::exponential_distribution<double> gap(cfg.rate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Arrival> schedule;
  double t = gap(rng);
  while (t < cfg.seconds) {
    Arrival a;
    a.at_s = t;
    double u = unit(rng);
    a.kind = u < 0.25   ? JobKind::kCatalogPruned
             : u < 0.5 ? JobKind::kInlinePruned
                       : JobKind::kCatalogBatch;
    serve::JobSpec& s = a.spec;
    s.time_limit_seconds = 600.0;
    s.seed = rng() % 1000000 + 1;
    s.trace_id = "pb" + std::to_string(cfg.seed) + "-" +
                 std::to_string(schedule.size());
    switch (a.kind) {
      case JobKind::kCatalogPruned:
        s.catalog = "kroA200";
        s.engine = "cpu-simd-pruned";
        s.k = 10;
        s.max_iterations = kCatalogIterations;
        break;
      case JobKind::kInlinePruned:
        a.instance = rng() % inline_instances.size();
        s.instance_name = inline_instances[a.instance].name();
        s.points.assign(inline_instances[a.instance].points().begin(),
                        inline_instances[a.instance].points().end());
        s.engine = "cpu-simd-pruned";
        s.max_iterations = kInlineIterations;
        break;
      case JobKind::kCatalogBatch:
        s.catalog = "kroA200";
        s.engine = "batch-simd";
        s.batchable = true;
        s.max_iterations = kCatalogIterations;
        break;
    }
    a.line = submit_line(s);
    schedule.push_back(std::move(a));
    t += gap(rng);
  }
  return schedule;
}

double field_ms(const obs::JsonValue& job, const char* key) {
  const obs::JsonValue* v = job.find(key);
  return v ? v->number * 1e3 : 0.0;
}

// Poll one job to its terminal state, fetch, validate and forget it.
// Returns true when the job is settled (record filled), false while it is
// still live.
bool poll_job(LineConn& conn, JobRecord& rec, const Instance& instance,
              double window_origin) {
  ++rec.polls;
  obs::JsonValue status = obs::json_parse(conn.request(id_line("status", rec.id)));
  const obs::JsonValue* job = status.find("job");
  if (job == nullptr) {
    const obs::JsonValue* e = status.find("error");
    rec.error = "status failed: " + (e ? e->string : std::string("?"));
    return true;
  }
  std::string state = job->at("state").string;
  if (state == "queued" || state == "running") return false;

  double t = now_s();
  std::string response = conn.request(id_line("result", rec.id));
  rec.fetched_s = now_s() - window_origin;
  rec.result_rtt_ms = (now_s() - t) * 1e3;
  rec.result_bytes = response.size();
  obs::JsonValue result = obs::json_parse(response);
  const obs::JsonValue* rjob = result.find("job");
  if (rjob != nullptr) {
    rec.wait_ms = field_ms(*rjob, "wait_seconds");
    rec.lease_ms = field_ms(*rjob, "lease_seconds");
    rec.run_ms = field_ms(*rjob, "run_seconds");
    rec.settle_ms = field_ms(*rjob, "settle_seconds");
    rec.batched = rjob->find("batch_id") != nullptr;
  }
  if (state != "finished") {
    rec.error = "job ended " + state;
  } else if (const obs::JsonValue* r = result.find("result")) {
    rec.error = check_result(*r, instance, &rec.order, &rec.best_length);
  } else {
    rec.error = "finished job returned no result";
  }
  rec.ok = rec.error.empty();
  conn.request(id_line("forget", rec.id));
  return true;
}

struct StatsSnapshot {
  double batches = 0, batched_jobs = 0, rejected = 0, finished = 0;
  double appends = 0, bytes = 0, fsyncs = 0;
  double cpu_ms = 0;
};

StatsSnapshot snapshot(LineConn& conn, const std::string& pid) {
  obs::JsonValue r = obs::json_parse(conn.request("{\"verb\":\"stats\"}"));
  StatsSnapshot s;
  const obs::JsonValue& st = r.at("stats");
  s.batches = st.at("batches").number;
  s.batched_jobs = st.at("batched_jobs").number;
  s.rejected = st.at("rejected_full").number + st.at("rejected_invalid").number;
  s.finished = st.at("finished").number;
  if (const obs::JsonValue* j = r.find("journal")) {
    s.appends = j->at("appends").number;
    s.bytes = j->at("bytes").number;
    s.fsyncs = j->at("fsyncs").number;
  }
  s.cpu_ms = cpu_ms(pid);
  return s;
}

struct WindowResult {
  std::vector<Arrival> schedule;
  std::vector<JobRecord> records;
  std::vector<double> lag_ms;
  StatsSnapshot before, after;
  std::int64_t batch_mismatches = 0;
  std::int64_t batch_checked = 0;
  std::int64_t batch_checked_batched = 0;
  std::string first_error;
};

WindowResult run_window(const ServeConfig& cfg,
                        const std::vector<Instance>& inline_instances,
                        const Instance& kro) {
  WindowResult out;
  out.schedule = make_schedule(cfg, inline_instances);
  out.records.resize(out.schedule.size());
  auto instance_of = [&](const Arrival& a) -> const Instance& {
    return a.kind == JobKind::kInlinePruned ? inline_instances[a.instance] : kro;
  };

  LineConn submit_conn(cfg.port, 30.0);
  LineConn poll_conn(cfg.port, 30.0);
  out.before = snapshot(poll_conn, cfg.pid);

  std::mutex mu;
  std::deque<std::size_t> accepted;  // indices handed to the poller
  std::atomic<bool> submitting_done{false};
  const double origin = now_s();
  const Clock::time_point window_start =
      kOrigin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(origin));

  std::thread submitter([&] {
    for (std::size_t i = 0; i < out.schedule.size(); ++i) {
      const Arrival& a = out.schedule[i];
      // Sleep, not spin, to the scheduled time: a spinning generator
      // would take a core from the daemon it measures. The timer's
      // lateness is reported as lag and counted in latency.
      std::this_thread::sleep_until(
          window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(a.at_s)));
      JobRecord& rec = out.records[i];
      rec.sent_s = now_s() - origin;
      rec.submit_bytes = a.line.size() + 1;
      try {
        obs::JsonValue r = obs::json_parse(submit_conn.request(a.line));
        rec.acked_s = now_s() - origin;
        rec.submit_rtt_ms = (rec.acked_s - rec.sent_s) * 1e3;
        const obs::JsonValue* ok = r.find("ok");
        if (ok != nullptr && ok->boolean) {
          rec.id = static_cast<std::uint64_t>(r.at("id").number);
          std::lock_guard lock(mu);
          accepted.push_back(i);
        } else {
          const obs::JsonValue* e = r.find("error");
          rec.error = "rejected: " + (e ? e->string : std::string("?"));
        }
      } catch (const std::exception& e) {
        rec.error = std::string("submit failed: ") + e.what();
      }
    }
    submitting_done.store(true);
  });

  // The poller runs on this thread: round-robin over live jobs; a sweep
  // that settles nothing backs off for 1 ms, which bounds the polling
  // delay a job can add to its latency and keeps status traffic from
  // competing with the daemon's workers.
  std::vector<std::size_t> live;
  const double drain_deadline = cfg.seconds + 60.0;
  try {
    for (;;) {
      {
        std::lock_guard lock(mu);
        live.insert(live.end(), accepted.begin(), accepted.end());
        accepted.clear();
      }
      if (live.empty() && submitting_done.load()) {
        std::lock_guard lock(mu);
        if (accepted.empty()) break;
        continue;
      }
      bool settled_any = false;
      for (std::size_t k = 0; k < live.size();) {
        std::size_t i = live[k];
        if (poll_job(poll_conn, out.records[i], instance_of(out.schedule[i]),
                     origin)) {
          settled_any = true;
          live[k] = live.back();
          live.pop_back();
        } else {
          ++k;
        }
      }
      if (now_s() - origin > drain_deadline) break;
      if (!settled_any) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } catch (const std::exception& e) {
    out.first_error = std::string("poll failed: ") + e.what();
  }
  submitter.join();
  for (std::size_t i : live) {
    out.records[i].error = "not settled within " +
                           std::to_string(static_cast<int>(drain_deadline)) + " s";
  }
  out.after = snapshot(poll_conn, cfg.pid);
  for (std::size_t i = 0; i < out.schedule.size(); ++i) {
    out.lag_ms.push_back((out.records[i].sent_s - out.schedule[i].at_s) * 1e3);
  }

  // Fixed sample: the first kBatchSample finished batchable jobs, each
  // re-run solo (same spec, batchable off) after the window; the tours
  // must match bit for bit.
  for (std::size_t i = 0; i < out.schedule.size() &&
                          out.batch_checked < static_cast<std::int64_t>(kBatchSample);
       ++i) {
    const Arrival& a = out.schedule[i];
    const JobRecord& rec = out.records[i];
    if (a.kind != JobKind::kCatalogBatch || !rec.ok) continue;
    serve::JobSpec solo = a.spec;
    solo.batchable = false;
    solo.trace_id += "-solo";
    JobRecord check;
    obs::JsonValue r = obs::json_parse(poll_conn.request(submit_line(solo)));
    check.id = static_cast<std::uint64_t>(r.at("id").number);
    while (!poll_job(poll_conn, check, kro, origin)) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    ++out.batch_checked;
    if (rec.batched) ++out.batch_checked_batched;
    if (!check.ok || check.order != rec.order ||
        check.best_length != rec.best_length) {
      ++out.batch_mismatches;
      if (out.first_error.empty()) {
        out.first_error = "batched job " + std::to_string(rec.id) +
                          " differs from its solo re-run " +
                          std::to_string(check.id);
      }
    }
  }
  return out;
}

// One serve.job span per settled job, keyed by its trace_id, with the
// client-side phases and the daemon-reported ones as children. Times are
// from the window start.
void add_job_spans(Spans& spans, const WindowResult& w) {
  for (std::size_t i = 0; i < w.records.size(); ++i) {
    const JobRecord& r = w.records[i];
    if (!r.ok) continue;
    const double start = w.schedule[i].at_s;
    const std::string& trace = w.schedule[i].spec.trace_id;
    std::int64_t job = spans.add("serve.job", -1, start, r.fetched_s, trace);
    spans.add("loadgen.lag", job, start, r.sent_s, trace);
    spans.add("wire.submit", job, r.sent_s, r.acked_s, trace);
    // Daemon-reported phases carry durations only; they are laid end to
    // end after the submit acknowledgement.
    double t = r.acked_s;
    for (auto [name, ms] : {std::pair{"queue.wait", r.wait_ms},
                            std::pair{"device.lease", r.lease_ms},
                            std::pair{"scheduler.run", r.run_ms},
                            std::pair{"scheduler.settle", r.settle_ms}}) {
      spans.add(name, job, t, t + ms / 1e3, trace);
      t += ms / 1e3;
    }
    spans.add("wire.result", job, r.fetched_s - r.result_rtt_ms / 1e3,
              r.fetched_s, trace);
  }
}

// The first failure of a window, for the run's error line; "" when none.
std::string first_error(const WindowResult& w, const std::string& label) {
  if (!w.first_error.empty()) return label + w.first_error;
  for (const JobRecord& r : w.records) {
    if (!r.ok) return label + "job " + std::to_string(r.id) + ": " + r.error;
  }
  return {};
}

struct ServeSummary {
  std::int64_t attempted = 0, failed = 0, good = 0;
  std::vector<double> latency_ms;
  double p50 = 0.0, p99 = 0.0;
};

// Latency percentiles are taken in equal slices of the window (by
// scheduled send time) and the median slice is reported, so one short
// stall of a shared machine moves one slice, not the figure. A slice is
// expected to hold at least 1,000 jobs: ten or more beyond its p99.
std::size_t latency_slices(const ServeConfig& cfg) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.rate * cfg.seconds / 1000.0));
}

ServeSummary summarize(const WindowResult& w, const ServeConfig& cfg) {
  ServeSummary s;
  s.attempted = static_cast<std::int64_t>(w.records.size());
  std::vector<std::vector<double>> slices(latency_slices(cfg));
  for (std::size_t i = 0; i < w.records.size(); ++i) {
    const JobRecord& r = w.records[i];
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    double latency = (r.fetched_s - w.schedule[i].at_s) * 1e3;
    s.latency_ms.push_back(latency);
    if (latency <= cfg.limit_ms) ++s.good;
    auto slice = static_cast<std::size_t>(w.schedule[i].at_s / cfg.seconds *
                                          static_cast<double>(slices.size()));
    slices[std::min(slice, slices.size() - 1)].push_back(latency);
  }
  s.failed += w.batch_mismatches;
  std::vector<double> p50s, p99s;
  for (const std::vector<double>& slice : slices) {
    p50s.push_back(median(slice));
    p99s.push_back(percentile(slice, 0.99));
  }
  s.p50 = median(p50s);
  s.p99 = median(p99s);
  return s;
}

int cmd_serve(CliParser& cli) {
  ServeConfig cfg;
  cfg.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  cfg.pid = cli.get("pid");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.rate = cli.get_double("rate", 0.0);
  cfg.seconds = cli.get_double("seconds", 1.0);
  cfg.limit_ms = cli.get_double("limit-ms", 0.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  std::string spans_path = cli.get("spans");
  if (cfg.port == 0 || cfg.pid.empty() || cfg.rate <= 0.0 || cfg.limit_ms <= 0.0) {
    std::cerr << "serve needs --port, --pid, --rate > 0 and --limit-ms > 0\n";
    return 2;
  }

  std::vector<Instance> inline_instances;
  for (std::size_t i = 0; i < kInlineInstances; ++i) {
    inline_instances.push_back(generate_uniform(
        "pb-inline-" + std::to_string(i), kInlineN, cfg.seed * 1000 + i));
  }
  const Instance kro = make_catalog_instance(*find_catalog_entry("kroA200"));

  // Warm-up: a short unmeasured window of the same mix (another seed), so
  // the measured window does not pay for the daemon's first-use costs.
  ServeConfig warm = cfg;
  warm.seed = cfg.seed + 0x5EED;
  warm.seconds = kWarmupSeconds;
  WindowResult warmup = run_window(warm, inline_instances, kro);

  // Traced runs replay the same schedule twice on one daemon, untraced
  // then traced; the overhead is the difference between the two windows.
  WindowResult untraced = run_window(cfg, inline_instances, kro);
  ServeSummary u = summarize(untraced, cfg);
  Spans spans;
  WindowResult traced;
  ServeSummary tr;
  if (trace) {
    traced = run_window(cfg, inline_instances, kro);
    tr = summarize(traced, cfg);
    add_job_spans(spans, traced);
  }
  const WindowResult& lw = trace ? traced : untraced;

  std::string error = first_error(warmup, "warm-up ");
  if (error.empty()) error = first_error(untraced, "");
  if (error.empty() && trace) error = first_error(traced, "traced ");

  double jobs = std::max(1.0, lw.after.finished - lw.before.finished);
  std::vector<double> submit_rtt, result_rtt, submit_bytes, result_bytes, polls,
      wait, run, settle, unattributed;
  for (std::size_t i = 0; i < lw.records.size(); ++i) {
    const JobRecord& r = lw.records[i];
    if (!r.ok) continue;
    submit_rtt.push_back(r.submit_rtt_ms);
    result_rtt.push_back(r.result_rtt_ms);
    submit_bytes.push_back(static_cast<double>(r.submit_bytes));
    result_bytes.push_back(static_cast<double>(r.result_bytes));
    polls.push_back(static_cast<double>(r.polls));
    wait.push_back(r.wait_ms + r.lease_ms);
    run.push_back(r.run_ms);
    settle.push_back(r.settle_ms);
    double latency = (r.fetched_s - lw.schedule[i].at_s) * 1e3;
    double lag = (r.sent_s - lw.schedule[i].at_s) * 1e3;
    unattributed.push_back(latency - lag - r.submit_rtt_ms - r.wait_ms -
                           r.lease_ms - r.run_ms - r.settle_ms - r.result_rtt_ms);
  }
  std::int64_t failed = u.failed + (trace ? tr.failed : 0);
  std::int64_t attempted = u.attempted + (trace ? tr.attempted : 0);

  obs::JsonWriter w;
  w.begin_object();
  w.key("kind").value("serve");
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("error").value(error);
  w.key("samples").value(static_cast<std::int64_t>(u.latency_ms.size()));
  w.key("batch_checked").value(untraced.batch_checked);
  w.key("batch_checked_batched").value(untraced.batch_checked_batched);
  w.key("end_to_end").begin_object();
  w.key("latency_p50_ms").value(u.p50);
  w.key("latency_p99_ms").value(u.p99);
  w.key("goodput_jobs_s").value(static_cast<double>(u.good) / cfg.seconds);
  {
    std::vector<double> run_s, kro_len;
    double last = 0.0;
    for (std::size_t i = 0; i < untraced.records.size(); ++i) {
      const JobRecord& r = untraced.records[i];
      if (!r.ok) continue;
      run_s.push_back(r.run_ms / 1e3);
      last = std::max(last, r.fetched_s);
      if (untraced.schedule[i].kind != JobKind::kInlinePruned) {
        kro_len.push_back(static_cast<double>(r.best_length));
      }
    }
    w.key("solve_s").value(median(run_s));
    w.key("time_to_target_s").value(last);
    w.key("tour_length").value(mean(kro_len));
  }
  w.key("peak_rss_mb").value(peak_rss_mb(cfg.pid));
  w.end_object();
  {
    // Every job's result is a pure function of its spec, so these sums
    // repeat exactly for one seed.
    std::int64_t kro = 0, inl = 0;
    for (std::size_t i = 0; i < untraced.records.size(); ++i) {
      const JobRecord& r = untraced.records[i];
      (untraced.schedule[i].kind == JobKind::kInlinePruned ? inl : kro) +=
          r.best_length;
    }
    w.key("counts").begin_object();
    w.key("window").begin_object();
    w.key("serve.kro_length_sum").value(kro);
    w.key("serve.inline_length_sum").value(inl);
    w.end_object();
    w.end_object();
  }
  if (trace) {
    std::vector<double> lag_pos;
    for (double x : lw.lag_ms) lag_pos.push_back(std::max(0.0, x));
    w.key("layers").begin_object();
    w.key("wire.submit_rtt_ms_p50").value(median(submit_rtt));
    w.key("wire.submit_rtt_ms_p99").value(percentile(submit_rtt, 0.99));
    w.key("wire.submit_bytes_mean").value(mean(submit_bytes));
    w.key("wire.result_rtt_ms_p50").value(median(result_rtt));
    w.key("wire.result_rtt_ms_p99").value(percentile(result_rtt, 0.99));
    w.key("wire.result_bytes_mean").value(mean(result_bytes));
    w.key("client.polls_per_job").value(mean(polls));
    w.key("client.unattributed_ms_p50").value(median(unattributed));
    w.key("queue.wait_ms_p50").value(median(wait));
    w.key("queue.wait_ms_p99").value(percentile(wait, 0.99));
    w.key("scheduler.run_ms_p50").value(median(run));
    w.key("scheduler.run_ms_p99").value(percentile(run, 0.99));
    w.key("scheduler.settle_ms_p50").value(median(settle));
    w.key("scheduler.settle_ms_p99").value(percentile(settle, 0.99));
    double batches = lw.after.batches - lw.before.batches;
    w.key("batcher.occupancy_mean")
        .value(batches > 0 ? (lw.after.batched_jobs - lw.before.batched_jobs) / batches
                           : 0.0);
    w.key("journal.appends_per_job").value((lw.after.appends - lw.before.appends) / jobs);
    w.key("journal.bytes_per_job").value((lw.after.bytes - lw.before.bytes) / jobs);
    w.key("journal.fsyncs").value(lw.after.fsyncs - lw.before.fsyncs);
    w.key("admission.rejected").value(lw.after.rejected - lw.before.rejected);
    w.key("daemon.cpu_ms_per_job").value((lw.after.cpu_ms - lw.before.cpu_ms) / jobs);
    w.key("loadgen.lag_ms_p99").value(percentile(lag_pos, 0.99));
    w.key("loadgen.lag_ms_max").value(lag_pos.empty() ? 0.0
                                                      : *std::max_element(lag_pos.begin(),
                                                                          lag_pos.end()));
    w.key("trace.overhead_frac").value(u.p50 > 0.0 ? tr.p50 / u.p50 - 1.0 : 0.0);
    w.end_object();
    w.key("self_times");
    spans.write_self_times(w);
  }
  w.end_object();
  if (trace && !spans_path.empty()) spans.write(spans_path);
  std::cout << w.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver solve|serve [options]\n";
    return 2;
  }
  std::string command = argv[1];
  CliParser cli("perfbench_driver " + command, "benchmark driver");
  for (const char* name :
       {"n", "dir", "seed", "engine", "k", "rounds", "seconds", "trace", "spans", "port", "pid", "rate",
        "limit-ms"}) {
    cli.add_option(name, name);
  }
  if (!cli.parse(argc - 1, argv + 1)) {
    std::cerr << cli.error() << "\n";
    return 2;
  }
  try {
    if (command == "solve") return cmd_solve(cli);
    if (command == "serve") return cmd_serve(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown subcommand " << command << "\n";
  return 2;
}
