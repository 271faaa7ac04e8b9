/// \file selftest.cc
/// \brief Unit tests of the harness's own arithmetic: nearest-rank
/// percentiles and the samples-beyond rule, shed-as-failed accounting,
/// span self times, and digest stability. Exits 1 on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestNearestRank() {
  using perfbench::NearestRank;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(NearestRank(v, 50) == 50);
  EXPECT(NearestRank(v, 95) == 95);
  EXPECT(NearestRank(v, 99) == 99);
  EXPECT(NearestRank(v, 100) == 100);
  EXPECT(NearestRank(v, 0) == 1);
  // Nearest rank always returns a sample, never an interpolation.
  EXPECT(NearestRank({1.0, 2.0}, 50) == 1.0);
  EXPECT(NearestRank({1.0, 2.0, 3.0, 4.0}, 75) == 3.0);
  EXPECT(NearestRank({7.0}, 99) == 7.0);
  EXPECT(NearestRank({}, 50) == 0.0);
}

void TestSamplesBeyond() {
  using perfbench::PercentileResolved;
  using perfbench::SamplesBeyond;
  // p95 of 200 samples is rank 190: ten samples lie beyond it.
  EXPECT(SamplesBeyond(200, 95) == 10);
  EXPECT(PercentileResolved(200, 95));
  EXPECT(!PercentileResolved(199, 95));
  // p99 needs 1000 samples.
  EXPECT(!PercentileResolved(999, 99));
  EXPECT(PercentileResolved(1000, 99));
  EXPECT(SamplesBeyond(0, 50) == 0);
  EXPECT(PercentileResolved(20, 50));
  EXPECT(!PercentileResolved(19, 50));
}

void TestShedCountsAsFailed() {
  perfbench::Outcomes o;
  o.attempted = 100;
  o.completed = 95;
  o.shed = 4;
  o.errored = 1;
  EXPECT(o.failed() == 5);
  EXPECT(Near(o.failed_frac(), 0.05));
  perfbench::Outcomes shed_only;
  shed_only.attempted = 10;
  shed_only.shed = 10;
  EXPECT(Near(shed_only.failed_frac(), 1.0));
  EXPECT(perfbench::Outcomes{}.failed_frac() == 0.0);
}

void TestSelfTime() {
  using perfbench::ComputeSelfTime;
  using perfbench::Interval;
  // Disjoint children.
  auto t = ComputeSelfTime(10.0, {{0, 2}, {5, 6}});
  EXPECT(Near(t.covered, 3.0));
  EXPECT(Near(t.self, 7.0));
  EXPECT(!t.negative);
  // Overlapping children are counted once: [1,4] u [2,6] u [5,7] = [1,7].
  t = ComputeSelfTime(10.0, {{2, 6}, {1, 4}, {5, 7}});
  EXPECT(Near(t.covered, 6.0));
  EXPECT(Near(t.self, 4.0));
  // A child nested inside another adds nothing.
  t = ComputeSelfTime(10.0, {{0, 8}, {2, 3}});
  EXPECT(Near(t.covered, 8.0));
  // Replays that add up to more than the call: negative, flagged, kept.
  t = ComputeSelfTime(5.0, {{0, 4}, {10, 13}});
  EXPECT(Near(t.covered, 7.0));
  EXPECT(Near(t.self, -2.0));
  EXPECT(t.negative);
  // Empty and degenerate children.
  t = ComputeSelfTime(3.0, {});
  EXPECT(Near(t.self, 3.0));
  t = ComputeSelfTime(3.0, {{2, 2}, {5, 4}});
  EXPECT(Near(t.covered, 0.0));
}

void TestSpanLog() {
  perfbench::SpanLog log;
  const uint64_t op = log.NewOp();
  const uint64_t root = log.Add("root", 0, op, 0.0, 10.0);
  log.Add("child", root, op, 0.0, 3.0);
  log.Add("child", root, op, 2.0, 4.0);
  log.Add("probe", root, op, 0.0, 9.0, /*probe=*/true);
  const auto spans = log.Snapshot();
  const perfbench::SelfTime t = perfbench::SpanLog::SelfTimes(spans)[root - 1];
  EXPECT(Near(t.covered, 4.0));  // probes never cover their parent
  EXPECT(Near(t.self, 6.0));
  EXPECT(Near(perfbench::SpanLog::TotalMs(spans, "child"), 5.0));
  EXPECT(perfbench::SpanLog::Count(spans, "child") == 2);
  EXPECT(spans[root - 1].op == op && spans[1].parent == root);
}

void TestDigest() {
  using perfbench::Fnv1a;
  using perfbench::Hex64;
  // Known FNV-1a 64 vectors.
  EXPECT(Fnv1a("") == 0xcbf29ce484222325ull);
  EXPECT(Fnv1a("a") == 0xaf63dc4c8601ec8cull);
  EXPECT(Hex64(Fnv1a("foobar")) == "85944171f73967e8");
  // Stable across calls, sensitive to one byte.
  const std::string dump = "e2e=1.2345678901234567 rr=0.5|row";
  EXPECT(Fnv1a(dump) == Fnv1a(std::string(dump)));
  EXPECT(Fnv1a(dump) != Fnv1a("e2e=1.2345678901234568 rr=0.5|row"));
  EXPECT(Hex64(0).size() == 16);
}

}  // namespace

int main() {
  TestNearestRank();
  TestSamplesBeyond();
  TestShedCountsAsFailed();
  TestSelfTime();
  TestSpanLog();
  TestDigest();
  if (failures > 0) {
    std::fprintf(stderr, "%d selftest check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
