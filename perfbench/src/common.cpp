#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "pdc/obs/obs.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Values median_per_key(const std::vector<Values>& samples) {
  std::map<std::string, std::vector<double>> by_key;
  for (const Values& s : samples)
    for (const auto& [k, v] : s) by_key[k].push_back(v);
  Values out;
  for (auto& [k, vs] : by_key) out[k] = median(std::move(vs));
  return out;
}

Values engine_values() {
  const pdc::obs::Metrics& m = pdc::obs::Metrics::global();
  Values v;
  for (const char* plane : {"enumerating", "analytic", "prefix"})
    v[std::string("engine.search_ms.") + plane] = 0.0;
  for (const auto& e : m.snapshot())
    if (e.name == "engine.wall_ms" && !e.labels.plane.empty())
      v["engine.search_ms." + e.labels.plane] += e.value.real;
  auto count = [&](const char* name) {
    return static_cast<double>(m.counter_total(name));
  };
  v["engine.evaluations"] = count("engine.evaluations");
  v["engine.sweeps"] = count("engine.sweeps");
  v["engine.formula_evals"] = count("engine.analytic.formula_evals");
  v["engine.junta_evals"] = count("engine.prefix.junta_evals");
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void SpanLedger::fold() {
  std::vector<pdc::obs::SpanRecord> recs = pdc::obs::trace_snapshot();
  pdc::obs::clear_trace();
  spans_ += recs.size();
  // Parents before children: by thread, then start, then longer first.
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> self(recs.size());
  std::vector<std::size_t> open;  // stack of enclosing spans
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    self[i] = static_cast<double>(r.dur_us);
    while (!open.empty()) {
      const auto& top = recs[open.back()];
      if (top.tid == r.tid && r.start_us < top.start_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= static_cast<double>(r.dur_us);
    open.push_back(i);
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Totals& t = by_name_[recs[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(recs[i].dur_us) / 1000.0;
    t.self_ms += self[i] / 1000.0;
  }
}

void SpanLedger::absorb(const SpanLedger& other) {
  spans_ += other.spans_;
  for (const auto& [name, t] : other.by_name_) {
    Totals& mine = by_name_[name];
    mine.count += t.count;
    mine.total_ms += t.total_ms;
    mine.self_ms += t.self_ms;
  }
}

double SpanLedger::total_ms(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.total_ms;
}

void SpanLedger::print(std::ostream& os) const {
  char line[160];
  std::snprintf(line, sizeof line, "%-34s %10s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  os << line;
  for (const auto& [name, t] : by_name_) {
    std::snprintf(line, sizeof line, "%-34s %10llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    os << line;
  }
}

}  // namespace perfbench
