// service_mix: one generator thread drives router::Router over two
// in-process parmemd workers (real PMF1 framing over socketpairs) with a
// seeded open-loop arrival schedule. Each worker runs one request worker
// with the result cache (LRU-capped below the number of distinct keys) and
// the atom cache journaled under a fresh per-run directory, as `parmemd
// --workers 1 --cache-dir D --cache-max-entries N --atom-cache D2` would.
//
// Every request is timed from its due send time. Hot repeats of the paper
// programs are answered from the result cache (the hot set is compiled
// once, untimed, before the load); edits and fresh streams are cold.
//
// Traced run: the same load, then every miss is replayed serially through
// CompileService::handle on a replay service per worker (same options, its
// atom cache warmed by the same earlier requests), which gives
// service.compute_ms; service.overhead_ms is observed latency minus it.
#include <array>
#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/pipeline.h"
#include "inputs.h"
#include "ir/stream_io.h"
#include "router/router.h"
#include "workloads.h"

namespace perfbench {

namespace sv = parmem::service;
namespace rt = parmem::router;

namespace {

constexpr std::size_t kWorkers = 2;
/// Result-cache LRU cap per worker: below the number of distinct keys a
/// worker sees (every edit and fresh stream is a new key), so misses store,
/// journal and evict; large enough that a hot key is practically never
/// evicted between two of its repeats (a repeat is ~1 in 30 requests), so
/// hot repeats stay hits and an eviction storm on one seed cannot decide
/// the tail.
constexpr std::size_t kResultCacheCap = 256;
constexpr double kDrainTimeoutS = 90;
constexpr std::size_t kWarmEdits = 16;

sv::ServiceOptions worker_options(const std::string& dir, std::size_t index) {
  sv::ServiceOptions o;
  o.workers = 1;
  const std::string base = dir + "/w" + std::to_string(index);
  o.cache_dir = base + "/results";
  o.cache_max_entries = kResultCacheCap;
  o.incremental = true;
  o.atom_cache_dir = base + "/atoms";
  std::filesystem::create_directories(o.cache_dir);
  std::filesystem::create_directories(o.atom_cache_dir);
  return o;
}

/// The router over two in-process workers, journaling under `dir`.
struct Fleet {
  std::string dir;
  std::array<std::atomic<sv::CompileService*>, kWorkers> services{};
  std::unique_ptr<rt::Router> router;

  explicit Fleet(std::string journal_dir) : dir(std::move(journal_dir)) {
    std::filesystem::remove_all(dir);
    rt::RouterOptions ro;
    ro.workers = kWorkers;
    router = std::make_unique<rt::Router>(
        ro, [this](std::uint32_t index, std::uint32_t) {
          auto chan = rt::spawn_inprocess_worker(worker_options(dir, index));
          services[index] = chan->service();
          return chan;
        });
  }
  ~Fleet() {
    router.reset();  // drains: every admitted request gets its response
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::size_t queue_depth() const {
    std::size_t depth = 0;
    for (const auto& s : services) {
      if (sv::CompileService* svc = s.load()) depth += svc->queue_depth();
    }
    return depth;
  }
};

/// Copies in a response body: one per ` M<i>` on the `value` lines of its
/// placement section.
std::size_t body_copies(const std::string& body) {
  std::size_t copies = 0;
  std::size_t pos = body.find("# placement\n");
  while (pos != std::string::npos && pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    const std::string_view line(body.data() + pos,
                                (eol == std::string::npos ? body.size() : eol) - pos);
    if (line.rfind("value ", 0) == 0) {
      for (std::size_t m = line.find(" M"); m != std::string_view::npos;
           m = line.find(" M", m + 2)) {
        ++copies;
      }
    }
    pos = eol == std::string::npos ? eol : eol + 1;
  }
  return copies;
}

/// Output checks shared by every response: ok status, and for stream
/// artifacts a checksum that matches and zero residual conflicts.
bool response_ok(const sv::CompileRequest& req, const sv::CompileResponse& resp,
                 std::string& why) {
  if (!resp.ok()) {
    why = std::string("status ") + sv::response_status_name(resp.status) +
          ": " + resp.diagnostic;
    return false;
  }
  if (req.kind == sv::RequestKind::kStream) {
    if (sv::fnv1a64(resp.body) != resp.fingerprint) {
      why = "stream artifact does not match its fingerprint";
      return false;
    }
    if (resp.body.find(" residual 0\n") == std::string::npos) {
      why = "stream artifact reports residual conflicts";
      return false;
    }
  }
  return true;
}

/// What the benchmark keeps of a load response: the verdict of its checks
/// and its fingerprint. Bodies are checked on arrival and dropped, so the
/// run's memory is the service's, not a copy of every artifact.
struct Checked {
  bool ok = false;
  std::string why;
  std::uint64_t fingerprint = 0;
};

/// What a worker computes for a hot `kind mc` request, compiled locally.
std::uint64_t local_fingerprint(const sv::CompileRequest& req) {
  parmem::analysis::PipelineOptions o;
  o.assign.module_count = o.sched.module_count = req.module_count;
  o.sched.fu_count = req.fu_count;
  o.assign.strategy = req.strategy;
  o.assign.method = req.method;
  o.rename = req.rename;
  o.source_name = "<service>";
  return parmem::analysis::compiled_fingerprint(
      parmem::analysis::compile_mc(req.body, o));
}

}  // namespace

void run_service_mix(const RunOptions& opts, Outcome& outcome, Report& report) {
  const std::size_t count =
      static_cast<std::size_t>(opts.service_rate * opts.seconds + 0.5);
  const std::string run_dir = opts.work_dir + "/service-" +
                              std::to_string(getpid());

  // Declared before the fleet so the fleet (and its router, which drains
  // every callback) is destroyed first.
  std::vector<ServiceInput> inputs;
  std::vector<Checked> checked;
  std::unique_ptr<OpenLoop> loop;
  std::unique_ptr<Fleet> fleet;

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const Clock::time_point t0 = Clock::now();
    inputs = service_requests(count, opts.seed);
    fleet = std::make_unique<Fleet>(run_dir + "-" + std::to_string(rep));
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  // Warm-up (untimed): the hot set once through the fleet, each checked
  // against a local compile of the same request, then edits of the modular
  // stream no load request repeats, so both workers' atom caches hold its
  // clean atoms before the load starts.
  const std::vector<sv::CompileRequest> hot = hot_requests();
  std::vector<sv::CompileRequest> warm = hot;
  for (auto& r : warm_edit_requests(kWarmEdits)) warm.push_back(std::move(r));
  std::map<std::uint64_t, std::uint64_t> fingerprint_of;  // cache key -> fp
  std::size_t hot_copies = 0;
  {
    std::vector<std::future<sv::CompileResponse>> pending;
    for (const sv::CompileRequest& r : warm) pending.push_back(fleet->router->submit(r));
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const sv::CompileResponse resp = pending[i].get();
      ++outcome.attempted;
      std::string why;
      if (!response_ok(warm[i], resp, why)) {
        outcome.fail("warm-up: " + why);
        continue;
      }
      fingerprint_of[sv::cache_key(warm[i])] = resp.fingerprint;
      if (i >= hot.size()) continue;
      if (resp.fingerprint != local_fingerprint(hot[i])) {
        outcome.fail("warm-up: parmemd's artifact differs from compile_mc's");
      }
      hot_copies += body_copies(resp.body);
    }
  }

  // The load.
  checked.assign(inputs.size(), Checked{});
  loop = std::make_unique<OpenLoop>(
      poisson_offsets_ms(inputs.size(), opts.service_rate, opts.seed));
  std::vector<double> queue_depths;
  queue_depths.reserve(inputs.size());
  loop->run([&](std::size_t i) {
    queue_depths.push_back(static_cast<double>(fleet->queue_depth()));
    fleet->router->submit(inputs[i].req, [&, i](const sv::CompileResponse& r) {
      const Clock::time_point at = Clock::now();
      Checked c;
      c.ok = response_ok(inputs[i].req, r, c.why);
      c.fingerprint = r.fingerprint;
      checked[i] = std::move(c);
      loop->complete(i, at);
    });
  });
  if (!loop->wait_all(kDrainTimeoutS)) {
    outcome.fail("service_mix: responses still missing after the drain timeout");
  }
  const double load_s = ms_between(loop->start(), loop->last_completion()) / 1000.0;

  std::vector<double> hit_ms, miss_ms;
  std::size_t answered = 0;  // ok responses
  std::array<std::vector<double>, 3> class_ms;
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ++outcome.attempted;
    const double ms = loop->latency_ms(i);
    if (ms < 0) {
      outcome.fail("request " + std::to_string(i + 1) + ": no response");
      continue;
    }
    if (!checked[i].ok) {
      outcome.fail("request " + std::to_string(i + 1) + ": " + checked[i].why);
      continue;
    }
    const auto [it, fresh] = fingerprint_of.emplace(
        sv::cache_key(inputs[i].req), checked[i].fingerprint);
    if (!fresh && it->second != checked[i].fingerprint) {
      outcome.fail("request " + std::to_string(i + 1) +
                   ": two fingerprints for one cache key");
      continue;
    }
    ++answered;
    class_ms[static_cast<std::size_t>(inputs[i].cls)].push_back(ms);
    if (inputs[i].cls == RequestClass::kHot) {
      hit_ms.push_back(ms);
    } else {
      miss_ms.push_back(ms);
      misses.push_back(i);
    }
  }

  if (!opts.trace) {
    report.set("setup_s", median(setup_s), "s");
    // Only misses compile; a hit is a cache read (hit_ms).
    report.set_p50_tail("compile_ms", miss_ms);
    std::vector<double> class_medians;
    for (const auto& v : class_ms) {
      if (!v.empty()) class_medians.push_back(median(v));
    }
    report.set("compile_ms.geomean", geomean(class_medians), "ms");
    report.set("throughput_per_s",
               load_s > 0 ? static_cast<double>(answered) / load_s : 0,
               "1/s");
    report.set_p50_tail("hit_ms", hit_ms);
    report.set_p50_tail("miss_ms", miss_ms);
    report.set("copies_total", static_cast<double>(hot_copies), "count");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.detail("requests", static_cast<double>(inputs.size()));
    report.detail("rate_per_s", opts.service_rate);
    for (std::size_t c = 0; c < class_ms.size(); ++c) {
      report.detail(std::string("latency_ms.p50.") +
                        request_class_name(static_cast<RequestClass>(c)),
                    median(class_ms[c]));
    }
    return;
  }

  // ---- traced: counters, then the serial replay of every miss ----------
  sv::ResultCache::Stats rc{};
  parmem::cache::AtomCache::Stats ac{};
  sv::CompileService::Counters sc{};
  for (const auto& s : fleet->services) {
    sv::CompileService* svc = s.load();
    const auto r = svc->cache().stats();
    rc.hits += r.hits;
    rc.misses += r.misses;
    rc.evicted += r.evicted;
    const auto a = svc->atom_cache()->stats();
    ac.hits += a.hits;
    ac.misses += a.misses;
    ac.stores += a.stores;
    ac.evicted += a.evicted;
    const auto c = svc->counters();
    sc.shed += c.shed;
    sc.retried += c.retried;
  }
  const rt::Router::Counters rcount = fleet->router->counters();
  double max_routed = 0, sum_routed = 0;
  for (const auto& w : fleet->router->workers()) {
    max_routed = std::max(max_routed, static_cast<double>(w.routed));
    sum_routed += static_cast<double>(w.routed);
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report.set("cache.atom.hit_ratio",
             ratio(static_cast<double>(ac.hits), static_cast<double>(ac.hits + ac.misses)),
             "ratio");
  report.set("cache.atom.stores", static_cast<double>(ac.stores), "count");
  report.set("cache.atom.evicted", static_cast<double>(ac.evicted), "count");
  report.set("service.result_cache.hit_ratio",
             ratio(static_cast<double>(rc.hits), static_cast<double>(rc.hits + rc.misses)),
             "ratio");
  report.set("service.result_cache.evicted", static_cast<double>(rc.evicted), "count");
  report.set("service.queue_depth.mean",
             ratio(std::accumulate(queue_depths.begin(), queue_depths.end(), 0.0),
                   static_cast<double>(queue_depths.size())),
             "count");
  report.set("service.shed", static_cast<double>(sc.shed), "count");
  report.set("service.retried", static_cast<double>(sc.retried), "count");
  report.set("router.spilled", static_cast<double>(rcount.spilled), "count");
  report.set("router.shed", static_cast<double>(rcount.shed), "count");
  report.set("router.redriven", static_cast<double>(rcount.redriven), "count");
  report.set("router.balance",
             ratio(max_routed, sum_routed / static_cast<double>(kWorkers)), "ratio");
  report.set("generator.lag_ms.tail", windowed_tail(loop->lag_ms()).tail.value, "ms");
  // The hit path's tail is sub-millisecond and moves with host scheduling
  // noise far more than any end-to-end bound allows, so it is a layer
  // metric rather than an end-to-end one.
  report.set("service.hit_ms.tail", windowed_tail(hit_ms).tail.value, "ms");

  // Replay services mirror the live workers' atom-cache state: the same
  // earlier requests in the same order (warm-up hot set, then the misses in
  // arrival order), on the worker that owned each key.
  std::array<std::unique_ptr<sv::CompileService>, kWorkers> replay;
  for (auto& r : replay) {
    sv::ServiceOptions o;
    o.workers = 1;
    o.incremental = true;
    r = std::make_unique<sv::CompileService>(o);
  }
  const auto owner = [&](const sv::CompileRequest& req) {
    return fleet->router->owner_of(sv::cache_key(req)).value_or(0) % kWorkers;
  };
  for (const sv::CompileRequest& r : warm) replay[owner(r)]->handle(r);

  std::vector<double> compute_ms, overhead_ms, parse_ms;
  std::array<std::vector<double>, 3> class_compute_ms;
  double compute_sum = 0, latency_sum = 0;
  for (const std::size_t i : misses) {
    const sv::CompileRequest& req = inputs[i].req;
    const Clock::time_point t0 = Clock::now();
    const sv::CompileResponse resp = replay[owner(req)]->handle(req);
    const double ms = ms_since(t0);
    ++outcome.attempted;
    if (resp.fingerprint != checked[i].fingerprint) {
      outcome.fail("replay of request " + std::to_string(i + 1) +
                   " does not reproduce its fingerprint");
      continue;
    }
    const double observed = loop->latency_ms(i);
    compute_ms.push_back(ms);
    class_compute_ms[static_cast<std::size_t>(inputs[i].cls)].push_back(ms);
    overhead_ms.push_back(observed - ms);
    compute_sum += ms;
    latency_sum += observed;
    if (req.kind == sv::RequestKind::kStream) {
      const Clock::time_point p0 = Clock::now();
      parmem::ir::parse_stream(req.body, "<service>", std::uint64_t{1} << 20);
      parse_ms.push_back(ms_since(p0));
    }
  }
  report.set("service.compute_ms.p50", median(compute_ms), "ms");
  report.detail("service.compute_ms.max",
                compute_ms.empty() ? 0.0
                                   : *std::max_element(compute_ms.begin(),
                                                       compute_ms.end()));
  report.set("service.overhead_ms.p50", median(overhead_ms), "ms");
  report.set("service.overhead_ms.tail", windowed_tail(overhead_ms).tail.value, "ms");
  report.set("ir.parse_stream.ms", median(parse_ms), "ms");
  report.set("pipeline.accounted_ratio", ratio(compute_sum, latency_sum), "ratio");
  for (const RequestClass c : {RequestClass::kEdit, RequestClass::kFresh}) {
    const auto& v = class_compute_ms[static_cast<std::size_t>(c)];
    report.detail(std::string("service.compute_ms.mean.") + request_class_name(c),
                  v.empty() ? 0.0
                            : std::accumulate(v.begin(), v.end(), 0.0) /
                                  static_cast<double>(v.size()));
  }
  // Worker utilisation the schedule offered: replayed miss compute over the
  // load span and the two workers.
  report.detail("service.utilisation",
                ratio(compute_sum, 1000.0 * load_s * static_cast<double>(kWorkers)));
}

}  // namespace perfbench
