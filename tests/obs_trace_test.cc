/// \file obs_trace_test.cc
/// \brief Deterministic span tracing (obs/trace.h): TraceBuffer nesting
/// and splice mapping, golden-pinned text-tree rendering, a golden-file
/// trace of a tiny two-job cluster session (span names, parent linkage
/// and attributes pinned), and the serial == parallel byte-identity gate
/// for both the Chrome trace JSON and the metrics snapshot under a
/// seeded fault plan with self-healing and speculation enabled.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "mapreduce/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "util/crc32c.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace obs {
namespace {

using mapreduce::ClusterSession;
using mapreduce::ExecutionMode;
using mapreduce::SessionOptions;
using mapreduce::System;
using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

// Force several pool workers even on single-core CI machines so the
// parallel byte-identity gate really interleaves.
const bool kForcePoolSize = [] {
  setenv("HAIL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TEST(TraceBufferTest, OpenCloseNestsAndLinksParents) {
  TraceBuffer buf;
  const size_t outer = buf.Open("read", "io", 0.0);
  const size_t inner = buf.Open("decode", "cpu", 0.25);
  buf.Attr(inner, "column", 3);
  buf.Close(inner, 0.75);
  const size_t sibling = buf.Open("filter", "cpu", 0.75);
  buf.Close(sibling, 1.0);
  buf.Close(outer, 1.0);

  ASSERT_EQ(buf.spans().size(), 3u);
  EXPECT_EQ(buf.spans()[0].parent, 0u);  // buffer root
  EXPECT_EQ(buf.spans()[1].parent, 1u);  // nested under "read"
  EXPECT_EQ(buf.spans()[2].parent, 1u);  // sibling, same parent
  EXPECT_DOUBLE_EQ(buf.spans()[1].duration, 0.5);
  ASSERT_EQ(buf.spans()[1].attrs.size(), 1u);
  EXPECT_EQ(buf.spans()[1].attrs[0].first, "column");
  EXPECT_EQ(buf.spans()[1].attrs[0].second, "3");
}

TEST(TraceBufferTest, SpliceMapsOffsetsOntoSimulatedTime) {
  TraceBuffer buf;
  const size_t outer = buf.Open("read", "io", 1.0);
  const size_t inner = buf.Open("decode", "cpu", 1.5);
  buf.Close(inner, 2.0);
  buf.Close(outer, 3.0);

  Tracer tracer;
  const uint64_t task = tracer.AddSpan("map_task", "task", 10.0, 8.0, 0, 2);
  // origin 12, scale 2: offset o lands at 12 + 2*o, durations double.
  tracer.Splice(buf, task, /*lane=*/2, /*origin=*/12.0, /*scale=*/2.0);

  ASSERT_EQ(tracer.size(), 3u);
  const TraceSpan& read = tracer.spans()[1];
  const TraceSpan& decode = tracer.spans()[2];
  EXPECT_EQ(read.parent, task);
  EXPECT_EQ(decode.parent, read.id);  // local nesting preserved globally
  EXPECT_DOUBLE_EQ(read.start, 14.0);
  EXPECT_DOUBLE_EQ(read.duration, 4.0);
  EXPECT_DOUBLE_EQ(decode.start, 15.0);
  EXPECT_DOUBLE_EQ(decode.duration, 1.0);
  EXPECT_EQ(read.lane, 2);
}

// ---------------------------------------------------------------------------
// Text-tree rendering (hand-built golden)
// ---------------------------------------------------------------------------

TEST(TracerTest, TextTreeGolden) {
  Tracer tracer;
  const uint64_t session = tracer.AddSpan("session", "session", 0.0, 9.0, 0, -1);
  const uint64_t job = tracer.AddSpan("job", "query", 0.0, 8.0, session, -1);
  tracer.Attr(job, "name", "Q1");
  const uint64_t late =
      tracer.AddSpan("map_task", "task", 4.0, 3.0, job, 1);
  const uint64_t early =
      tracer.AddSpan("map_task", "task", 1.0, 3.0, job, 0);
  tracer.Attr(early, "task", 0);
  tracer.Attr(late, "task", 1);

  // Siblings order by (start, id) regardless of append order.
  EXPECT_EQ(tracer.ToTextTree(/*include_times=*/false),
            "session\n"
            "  job name=Q1\n"
            "    map_task task=0\n"
            "    map_task task=1\n");
  EXPECT_EQ(tracer.ToTextTree(/*include_times=*/true),
            "[0 +9s] session\n"
            "  [0 +8s] job name=Q1\n"
            "    [1 +3s] map_task task=0\n"
            "    [4 +3s] map_task task=1\n");
}

// ---------------------------------------------------------------------------
// Tiny two-job session: golden-file trace
// ---------------------------------------------------------------------------

/// 1 node, 2 blocks: the smallest session whose trace still shows every
/// span layer (session / job / map_task / spliced block reads).
TestbedConfig TinyConfig() {
  TestbedConfig config;
  config.num_nodes = 1;
  config.replication = 1;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 4 * 1024 * 1024;  // scale 512
  config.blocks_per_node = 2;
  config.seed = 7;
  return config;
}

std::string RunTinySessionTrace(ExecutionMode mode, Tracer* tracer,
                                std::string* metrics_json) {
  Testbed bed(TinyConfig());
  bed.LoadUserVisits();
  auto upload = bed.UploadHail("/uv", {workload::kVisitDate});
  EXPECT_TRUE(upload.ok()) << upload.status().ToString();
  bed.FreeSourceTexts();

  SessionOptions opt;
  opt.execution = mode;
  opt.tracer = tracer;
  ClusterSession session(&bed.dfs(), opt);
  const auto bob = workload::BobQueries();
  for (int i = 0; i < 2; ++i) {
    auto spec = workload::MakeQueryJob(bed.schema(), "/uv", System::kHail,
                                       bob[0], /*hail_splitting=*/false,
                                       /*collect_output=*/false);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    session.Submit(*spec, "default", 10.0 * i);
  }
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  for (const auto& job : sr->jobs) {
    EXPECT_TRUE(job.ok()) << job.status().ToString();
  }
  if (metrics_json != nullptr) {
    *metrics_json = bed.dfs().metrics().TakeSnapshot().ToJson();
  }
  return tracer->ToTextTree(/*include_times=*/false);
}

TEST(TraceGoldenTest, TinyTwoJobSessionStructurePinned) {
  Tracer tracer;
  const std::string tree =
      RunTinySessionTrace(ExecutionMode::kSerial, &tracer, nullptr);
  // Span names, parent nesting and attributes of the whole session,
  // pinned. A diff here means the emitted trace changed shape — bump
  // deliberately, never silently.
  const std::string golden =
      "session jobs=2 nodes=1\n"
      "  job name=Bob-Q1 job=0 queue=default\n"
      "    map_task task=0 attempt=1 node=0 records=2 qualifying=0 "
      "billed_cost_seconds=0.02541952673149143 billed_cost_nanos=25419526\n"
      "      block_read block=1 datanode=0 generation=1 replica=clustered "
      "bytes=18711 rows=2 qualifying=0\n"
      "        index_probe kind=clustered column=2 rows=2\n"
      "    map_task task=1 attempt=1 node=0 records=4 qualifying=1 "
      "billed_cost_seconds=0.02620171933820986 billed_cost_nanos=26201719\n"
      "      block_read block=2 datanode=0 generation=1 replica=clustered "
      "bytes=37618 rows=4 qualifying=1\n"
      "        index_probe kind=clustered column=2 rows=4\n"
      "  job name=Bob-Q1 job=1 queue=default\n"
      "    map_task task=0 attempt=1 node=0 records=2 qualifying=0 "
      "billed_cost_seconds=0.02541952673149143 billed_cost_nanos=25419526\n"
      "      block_read block=1 datanode=0 generation=1 replica=clustered "
      "bytes=18711 rows=2 qualifying=0\n"
      "        index_probe kind=clustered column=2 rows=2\n"
      "    map_task task=1 attempt=1 node=0 records=4 qualifying=1 "
      "billed_cost_seconds=0.02620171933820986 billed_cost_nanos=26201719\n"
      "      block_read block=2 datanode=0 generation=1 replica=clustered "
      "bytes=37618 rows=4 qualifying=1\n"
      "        index_probe kind=clustered column=2 rows=4\n";
  EXPECT_EQ(tree, golden) << "actual tree:\n" << tree;
}

// ---------------------------------------------------------------------------
// Serial == parallel byte identity (trace + metrics) under faults
// ---------------------------------------------------------------------------

TestbedConfig FaultedConfig() {
  TestbedConfig config;
  config.num_nodes = 4;
  config.real_block_bytes = 8 * 1024;
  config.logical_block_bytes = 4 * 1024 * 1024;
  config.blocks_per_node = 6;
  config.seed = 99;
  return config;
}

std::string RunFaultedSession(ExecutionMode mode, Tracer* tracer,
                              std::string* metrics_json) {
  Testbed bed(FaultedConfig());
  bed.LoadUserVisits();
  auto upload = bed.UploadHail("/uv", {workload::kVisitDate});
  EXPECT_TRUE(upload.ok()) << upload.status().ToString();
  bed.FreeSourceTexts();

  SessionOptions opt;
  opt.execution = mode;
  opt.tracer = tracer;
  opt.fault_plan =
      sim::FaultPlan::FromSeed(101, FaultedConfig().num_nodes);
  opt.self_heal = true;
  opt.speculative_execution = true;
  ClusterSession session(&bed.dfs(), opt);
  const auto bob = workload::BobQueries();
  session.Submit(*workload::MakeQueryJob(bed.schema(), "/uv", System::kHail,
                                         bob[0], false, false),
                 "default", 0.0);
  session.Submit(*workload::MakeQueryJob(bed.schema(), "/uv", System::kHail,
                                         bob[3], false, false),
                 "default", 60.0);
  auto sr = session.Run();
  EXPECT_TRUE(sr.ok()) << sr.status().ToString();
  *metrics_json = bed.dfs().metrics().TakeSnapshot().ToJson();
  return tracer->ToChromeJson();
}

TEST(TraceDeterminismTest, SerialAndParallelTraceAndMetricsByteIdentical) {
  Tracer serial_tracer;
  Tracer parallel_tracer;
  std::string serial_metrics;
  std::string parallel_metrics;
  const std::string serial_json =
      RunFaultedSession(ExecutionMode::kSerial, &serial_tracer,
                        &serial_metrics);
  const std::string parallel_json =
      RunFaultedSession(ExecutionMode::kParallel, &parallel_tracer,
                        &parallel_metrics);

  EXPECT_GT(serial_tracer.size(), 0u);
  // Byte-for-byte: span ids, order, simulated times and attributes all
  // replay identically on the worker pool.
  EXPECT_EQ(serial_json, parallel_json);
  EXPECT_EQ(serial_metrics, parallel_metrics);
  EXPECT_EQ(crc32c::Extend(0, serial_json.data(), serial_json.size()),
            0x640cee34u);
  EXPECT_EQ(crc32c::Extend(0, serial_metrics.data(), serial_metrics.size()),
            0x467408bbu);
}

}  // namespace
}  // namespace obs
}  // namespace hail
