// The benchmark's own checks (perfbench --self-test): the percentile
// helper's nearest-rank and refusal rules, metric names and units, and
// that the seed alone fixes every workload's initial state.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <regex>
#include <set>
#include <string>

#include "perfbench.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("self-test %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// 1..n in shuffled order.
std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

void test_percentiles() {
  const auto p99 = percentile(ramp(1000), 99);
  expect(p99 && p99->value == 990 && p99->rank == 990 && p99->n == 1000,
         "p99 of 1..1000 is 990 by nearest rank, with n=1000");
  const auto p50 = percentile(ramp(1000), 50);
  expect(p50 && p50->value == 500, "p50 of 1..1000 is 500");
  expect(!percentile(ramp(999), 99),
         "p99 of 999 samples is refused (9 beyond rank 990)");
  const auto p50_20 = percentile(ramp(20), 50);
  expect(p50_20 && p50_20->value == 10 && p50_20->n == 20,
         "p50 of 20 samples is rank 10 with 10 beyond");
  expect(!percentile(ramp(19), 50),
         "p50 of 19 samples is refused (9 beyond rank 10)");
  expect(!percentile({}, 50), "an empty sample is refused");
  const auto tail25 = highest_percentile(ramp(25), 99);
  expect(tail25 && tail25->value == 15 && tail25->rank == 15 &&
             tail25->p == 60,
         "highest percentile of 25 samples is p60 (rank 15, 10 beyond)");
  const auto tail2000 = highest_percentile(ramp(2000), 99);
  expect(tail2000 && tail2000->p == 99 && tail2000->value == 1980,
         "highest percentile of 2000 samples is capped at p99");
  expect(!highest_percentile(ramp(10), 99),
         "10 samples support no percentile");
  for (std::size_t n : {11u, 37u, 150u, 1001u}) {
    const auto t = highest_percentile(ramp(n), 99);
    expect(t && t->n - t->rank >= kMinBeyond && percentile(ramp(n), t->p) &&
               percentile(ramp(n), t->p)->rank == t->rank,
           "highest percentile of " + std::to_string(n) +
               " samples round-trips through percentile()");
  }
}

void test_names() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  bool ok = true;
  auto check = [&](const char* name, const char* unit) {
    ok = ok && std::regex_match(name, name_re) &&
         (unit == nullptr || std::regex_match(unit, unit_re)) &&
         seen.insert(name).second;
  };
  for (const MetricDef& m : kEndToEnd) check(m.name, m.unit);
  for (const MetricDef& m : kPerLayer) check(m.name, m.unit);
  for (const char* w : kWorkloads) check(w, nullptr);
  expect(ok, "metric and workload names match [A-Za-z0-9_.-]+, units are "
             "valid, and no name repeats");
}

void test_seeds() {
  for (const char* w : kWorkloads) {
    const bool bulk = std::string(w).rfind("bulk", 0) == 0;
    auto digest = [&](std::uint64_t seed) {
      return bulk ? bulk_initial_digest(w, seed)
                  : serve_initial_digest(w, seed);
    };
    const std::uint64_t a = digest(11);
    expect(a == digest(11), std::string(w) + ": same seed, same initial state");
    expect(a != digest(12),
           std::string(w) + ": different seed, different initial state");
  }
}

}  // namespace

int self_test() {
  test_percentiles();
  test_names();
  test_seeds();
  std::printf("self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
