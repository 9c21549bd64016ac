// scenario_pack: the standard scenarios at one fixed scale under the
// default blueprint, run back to back through RunScenario in virtual time.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "scenario/scenario.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Request volume multiplier passed to StandardScenarios.
constexpr size_t kScale = 4;
/// The set-up warms up on the pack at this scale.
constexpr size_t kWarmupScale = 2;

/// FNV-1a digest of ScenarioReport::Metrics(), every value at full
/// precision: equal digests mean equal reports.
uint64_t Digest(const ads::scenario::ScenarioReport& report) {
  uint64_t h = 1469598103934665603ull;
  char buf[64];
  for (const auto& [name, value] : report.Metrics()) {
    std::snprintf(buf, sizeof(buf), "=%.17g;", value);
    for (const std::string& part : {name, std::string(buf)}) {
      for (unsigned char c : part) {
        h = (h ^ c) * 1099511628211ull;
      }
    }
  }
  return h;
}

/// Digests at the scenarios' own default seeds (--seed 0) and kScale.
const std::map<std::string, uint64_t>& ExpectedDigests() {
  static const std::map<std::string, uint64_t> kExpected = {
      {"diurnal_surge", 0x3ceeb1f26a0ce232ull},
      {"flash_crowd", 0x940152d286cde9b3ull},
      {"regional_outage", 0x02a9b218ea235664ull},
      {"noisy_neighbor", 0x7b05159cdb3a4660ull},
      {"slow_burn_drift", 0x98998346a0f22b75ull},
  };
  return kExpected;
}

/// The pack with every scenario's seed offset by the workload seed; seed 0
/// keeps the defaults.
std::vector<ads::scenario::ScenarioSpec> Pack(size_t scale, uint64_t seed) {
  std::vector<ads::scenario::ScenarioSpec> pack =
      ads::scenario::StandardScenarios(scale);
  for (ads::scenario::ScenarioSpec& spec : pack) spec.seed += 1000 * seed;
  return pack;
}

bool LedgerHolds(const ads::fleet::ShardCounters& c) {
  return c.submitted == c.accepted + c.Rejected() &&
         c.accepted == c.served + c.Shed();
}

bool MatchesRecorded(const std::string& name, uint64_t digest) {
  auto expected = ExpectedDigests().find(name);
  return expected != ExpectedDigests().end() && expected->second == digest;
}

/// Runs the pack at its default seeds once, untimed, against the recorded
/// reports; a run at --seed 0 already checked them in its timed loop.
void CheckDefaultSeeds(Report* report) {
  for (const ads::scenario::ScenarioSpec& spec : Pack(kScale, 0)) {
    const ads::scenario::ScenarioReport r =
        ads::scenario::RunScenario(spec, ads::scenario::DefaultBlueprint());
    report->Count(LedgerHolds(r.fleet) &&
                  MatchesRecorded(spec.name, Digest(r)));
  }
}

/// Per-pack figures in wall time and in reference-host time (see
/// HostSpeed), each pack scaled by the kernel samples taken during it.
struct PackFigures {
  std::vector<double> rate;     // simulated requests / s
  // Mean scenario time. Not the median: that is one scenario's time, and
  // which one depends on the seed.
  std::vector<double> mean_ms;
  std::vector<double> slowest_ms;
};

struct PackResult {
  double wall_s = 0.0;
  uint64_t submitted = 0;
  PackFigures wall;
  PackFigures ref;
  uint64_t runs = 0;
  std::map<std::string, std::vector<double>> wall_s_by_name;
  std::map<std::string, ads::scenario::ScenarioReport> last;
};

/// Runs whole packs until `seconds` of scenarios have run (at least one
/// pack), sampling the host's speed after each scenario.
PackResult RunPacks(const std::vector<ads::scenario::ScenarioSpec>& pack,
                    uint64_t seed, double seconds, Spans& spans,
                    std::map<std::string, uint64_t>* digests,
                    HostSpeed* host, Report* report) {
  const ads::scenario::Blueprint blueprint =
      ads::scenario::DefaultBlueprint();
  PackResult result;
  do {
    double slowest = 0.0;
    double pack_wall = 0.0;
    uint64_t pack_submitted = 0;
    std::vector<double> kernel_s;
    for (const ads::scenario::ScenarioSpec& spec : pack) {
      ads::scenario::ScenarioReport r;
      double wall = 0.0;
      {
        ScopedSpan s(spans, "scenario", spec.name);
        wall = TimeS([&] { r = ads::scenario::RunScenario(spec, blueprint); });
      }
      // Every run must balance its ledger and repeat the first run of the
      // same scenario exactly; at the default seeds it must also match the
      // recorded reports.
      const uint64_t digest = Digest(r);
      auto [it, first] = digests->emplace(spec.name, digest);
      bool ok = LedgerHolds(r.fleet) && it->second == digest;
      if (first && seed == 0) ok = ok && MatchesRecorded(spec.name, digest);
      report->Count(ok);
      result.submitted += r.fleet.submitted;
      pack_submitted += r.fleet.submitted;
      pack_wall += wall;
      ++result.runs;
      result.wall_s_by_name[spec.name].push_back(wall);
      slowest = std::max(slowest, wall * 1e3);
      result.last[spec.name] = r;
      kernel_s.push_back(host->Sample());
    }
    const double rate = static_cast<double>(pack_submitted) / pack_wall;
    const double mean_ms = pack_wall * 1e3 / static_cast<double>(pack.size());
    const double f = HostSpeed::kReferenceS / Median(kernel_s);
    result.wall.rate.push_back(rate);
    result.wall.mean_ms.push_back(mean_ms);
    result.wall.slowest_ms.push_back(slowest);
    result.ref.rate.push_back(rate / f);
    result.ref.mean_ms.push_back(mean_ms * f);
    result.ref.slowest_ms.push_back(slowest * f);
    result.wall_s += pack_wall;
  } while (result.wall_s < seconds);
  return result;
}

}  // namespace

void RunScenarioPack(const RunOptions& options, Spans& spans,
                     Report* report) {
  // Set-up: build the specs and warm up on the small pack, repeated so
  // setup_s is a median. Each set-up is scaled to the reference host by
  // the kernel sample taken right after it.
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  std::vector<ads::scenario::ScenarioSpec> pack;
  HostSpeed host;
  const int setups = options.trace ? 1 : 7;
  for (int i = 0; i < setups; ++i) {
    ScopedSpan s(spans, "setup", "warm-up pack");
    setup_s.push_back(TimeS([&] {
      for (const auto& spec : Pack(kWarmupScale, options.seed)) {
        (void)ads::scenario::RunScenario(spec,
                                         ads::scenario::DefaultBlueprint());
      }
      pack = Pack(kScale, options.seed);
    }));
    setup_ref_s.push_back(setup_s.back() * HostSpeed::kReferenceS /
                          host.Sample());
  }
  report->Meta("scenario_scale", std::to_string(kScale));

  std::map<std::string, uint64_t> digests;
  if (!options.trace) {
    const PackResult r = RunPacks(pack, options.seed, options.seconds,
                                  spans, &digests, &host, report);
    // Medians over packs, so one slow stretch of the run moves one pack;
    // times in reference-host seconds (see HostSpeed), wall figures beside.
    report->Set("setup_s", Median(setup_ref_s), "s");
    report->Set("throughput_per_s", Median(r.ref.rate), "1/s");
    report->Set("latency_p50_ms", Median(r.ref.mean_ms), "ms");
    report->Set("latency_tail_ms", Median(r.ref.slowest_ms), "ms");
    report->Set("latency_tail_level", 1.0, "quantile");
    report->Set("latency_samples", static_cast<double>(r.runs), "count");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("sim_req_per_s",
                static_cast<double>(r.submitted) / r.wall_s, "1/s");
    SetHostSpeed(host, report);
    report->Set("wall.setup_s", Median(setup_s), "s");
    report->Set("wall.throughput_per_s", Median(r.wall.rate), "1/s");
    report->Set("wall.latency_p50_ms", Median(r.wall.mean_ms), "ms");
    report->Set("wall.latency_tail_ms", Median(r.wall.slowest_ms), "ms");
    if (options.seed != 0) CheckDefaultSeeds(report);
    for (const auto& [name, digest] : digests) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(digest));
      report->Meta("digest." + name, hex);
    }
    return;
  }

  // Traced run: half the window untraced, half traced, for the overhead.
  Spans off(nullptr);
  const PackResult plain = RunPacks(pack, options.seed, options.seconds / 2,
                                    off, &digests, &host, report);
  const PackResult traced = RunPacks(pack, options.seed, options.seconds / 2,
                                     spans, &digests, &host, report);
  for (const auto& [name, walls] : traced.wall_s_by_name) {
    const ads::scenario::ScenarioReport& r = traced.last.at(name);
    report->Set("scenario." + name + ".wall_s", Median(walls), "s");
    report->Set("scenario." + name + ".submitted",
                static_cast<double>(r.fleet.submitted), "count");
    report->Set("scenario." + name + ".episodes",
                static_cast<double>(r.episodes), "count");
    report->Set("scenario." + name + ".promotes",
                static_cast<double>(r.promotes), "count");
  }
  const double plain_rate = plain.submitted / plain.wall_s;
  const double traced_rate = traced.submitted / traced.wall_s;
  report->Set("telemetry.trace_overhead_frac", plain_rate / traced_rate - 1.0,
              "ratio");
}

}  // namespace perfbench
