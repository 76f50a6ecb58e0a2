#include "telemetry/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

#include "support/json.h"
#include "support/table.h"

namespace parmem::telemetry {

namespace {

double to_us(std::uint64_t ns, std::uint64_t t0_ns) {
  // Events always postdate the session start; guard anyway so a stray
  // pre-start event cannot produce a huge unsigned wrap.
  return ns >= t0_ns ? static_cast<double>(ns - t0_ns) / 1000.0 : 0.0;
}

}  // namespace

std::string to_chrome_trace(const std::vector<Lane>& lanes,
                            std::uint64_t t0_ns) {
  support::JsonWriter w(0);  // compact: traces get large
  w.begin_object();
  w.member("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  w.begin_object();
  w.member("ph", "M");
  w.member("name", "process_name");
  w.member("pid", 1);
  w.key("args");
  w.begin_object();
  w.member("name", "parmem");
  w.end_object();
  w.end_object();

  for (const Lane& lane : lanes) {
    w.begin_object();
    w.member("ph", "M");
    w.member("name", "thread_name");
    w.member("pid", 1);
    w.member("tid", lane.id);
    w.key("args");
    w.begin_object();
    w.member("name", lane.name);
    w.end_object();
    w.end_object();
  }

  for (const Lane& lane : lanes) {
    for (const TraceEvent& e : lane.events) {
      w.begin_object();
      switch (e.kind) {
        case EventKind::kSpan:
          w.member("ph", "X");
          w.member("name", e.name);
          w.member("cat", "parmem");
          w.member("pid", 1);
          w.member("tid", lane.id);
          w.member_fixed("ts", to_us(e.t0_ns, t0_ns), 3);
          w.member_fixed("dur", to_us(e.t1_ns, e.t0_ns), 3);
          break;
        case EventKind::kCounter:
          w.member("ph", "C");
          w.member("name", e.name);
          w.member("pid", 1);
          w.member("tid", lane.id);
          w.member_fixed("ts", to_us(e.t0_ns, t0_ns), 3);
          w.key("args");
          w.begin_object();
          w.member("value", e.value);
          w.end_object();
          break;
        case EventKind::kInstant:
          w.member("ph", "i");
          w.member("name", e.name);
          w.member("pid", 1);
          w.member("tid", lane.id);
          w.member_fixed("ts", to_us(e.t0_ns, t0_ns), 3);
          w.member("s", "t");
          break;
      }
      w.end_object();
    }
  }

  w.end_array();
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Lane>& lanes,
                        std::uint64_t t0_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_chrome_trace(lanes, t0_ns);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

DurationStats duration_stats(std::vector<std::uint64_t>& durations_ns) {
  DurationStats s;
  if (durations_ns.empty()) return s;
  std::sort(durations_ns.begin(), durations_ns.end());
  s.count = durations_ns.size();
  for (const std::uint64_t d : durations_ns) s.total_ns += d;
  s.max_ns = durations_ns.back();
  const auto rank = [&durations_ns](double p) {
    // Nearest rank: index ceil(p * N) - 1, clamped into the sample.
    const double n = static_cast<double>(durations_ns.size());
    std::size_t idx = static_cast<std::size_t>(std::ceil(p * n));
    if (idx > 0) --idx;
    if (idx >= durations_ns.size()) idx = durations_ns.size() - 1;
    return durations_ns[idx];
  };
  s.p50_ns = rank(0.50);
  s.p99_ns = rank(0.99);
  s.p999_ns = rank(0.999);
  return s;
}

std::vector<std::uint64_t> span_durations_ns(const std::vector<Lane>& lanes,
                                             std::string_view name) {
  std::vector<std::uint64_t> out;
  for (const Lane& lane : lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.kind == EventKind::kSpan && name == e.name) {
        out.push_back(e.t1_ns - e.t0_ns);
      }
    }
  }
  return out;
}

std::string phase_summary(const std::vector<Lane>& lanes) {
  std::map<std::string_view, std::vector<std::uint64_t>> by_name;
  std::uint64_t dropped = 0;
  for (const Lane& lane : lanes) {
    dropped += lane.dropped;
    for (const TraceEvent& e : lane.events) {
      if (e.kind != EventKind::kSpan) continue;
      by_name[e.name].push_back(e.t1_ns - e.t0_ns);
    }
  }

  std::vector<std::pair<std::string_view, DurationStats>> rows;
  rows.reserve(by_name.size());
  for (auto& [name, durations] : by_name) {
    rows.emplace_back(name, duration_stats(durations));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_ns != b.second.total_ns) {
      return a.second.total_ns > b.second.total_ns;
    }
    return a.first < b.first;
  });

  support::TextTable t({"span", "count", "total ms", "mean ms", "p50 ms",
                        "p99 ms", "p999 ms", "max ms"});
  t.set_align(0, support::Align::kLeft);
  const auto fmt_ms = [](std::uint64_t ns) {
    return support::format_fixed(static_cast<double>(ns) / 1e6, 3);
  };
  for (const auto& [name, a] : rows) {
    const double total_ms = static_cast<double>(a.total_ns) / 1e6;
    t.add_row({std::string(name), std::to_string(a.count),
               support::format_fixed(total_ms, 3),
               support::format_fixed(total_ms / static_cast<double>(a.count),
                                     3),
               fmt_ms(a.p50_ns), fmt_ms(a.p99_ns), fmt_ms(a.p999_ns),
               fmt_ms(a.max_ns)});
  }
  std::string out = t.render();
  if (dropped > 0) {
    out += '(';
    out += std::to_string(dropped);
    out += " events dropped by full ring buffers)\n";
  }
  return out;
}

std::string counters_table(const Snapshot& snapshot) {
  support::TextTable t({"metric", "kind", "value"});
  t.set_align(0, support::Align::kLeft);
  t.set_align(1, support::Align::kLeft);
  for (const Snapshot::Entry& e : snapshot.entries) {
    t.add_row({e.name, e.kind == MetricKind::kCounter ? "counter" : "gauge",
               std::to_string(e.value)});
  }
  return t.render();
}

}  // namespace parmem::telemetry
