/// \file bench_index_micro.cc
/// \brief Real (wall-clock) micro-benchmarks of the library's hot paths,
/// plus the §3.5 design ablations.
///
/// Unlike the figure benches, these measure the actual C++ implementation:
/// CRC32C throughput, block sorting, clustered index build/lookup, PAX
/// tuple reconstruction. The ablations quantify the paper's §3.5 design
/// arguments: clustered vs unclustered index I/O, single-level vs
/// two-level directory crossover (~5 GB blocks), and index size ratios
/// (HAIL ~2 KB vs trojan ~304 KB per 64 MB block).

#include <benchmark/benchmark.h>

#include "index/clustered_index.h"
#include "index/trojan_index.h"
#include "index/unclustered_index.h"
#include "layout/pax_block.h"
#include "sim/cost_model.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

void BM_Crc32c(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  Random rng(1);
  std::string data = rng.NextString(bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(64 << 10)->Arg(1 << 20);

PaxBlock MakeUvBlock(uint64_t rows) {
  workload::UserVisitsConfig cfg;
  cfg.rows = rows;
  return BuildPaxBlockFromText(workload::UserVisitsSchema(),
                               workload::GenerateUserVisitsText(cfg),
                               BlockFormatOptions{64});
}

void BM_SortBlockByColumn(benchmark::State& state) {
  const PaxBlock base = MakeUvBlock(static_cast<uint64_t>(state.range(0)));
  const std::string bytes = base.Serialize();
  for (auto _ : state) {
    PaxBlock block = *PaxBlock::Deserialize(bytes);
    block.SortByColumn(workload::kVisitDate);
    benchmark::DoNotOptimize(block.num_records());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SortBlockByColumn)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_ClusteredIndexBuild(benchmark::State& state) {
  PaxBlock block = MakeUvBlock(static_cast<uint64_t>(state.range(0)));
  block.SortByColumn(workload::kVisitDate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ClusteredIndex::Build(block.column(workload::kVisitDate), 1024));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ClusteredIndexBuild)->Arg(10000)->Arg(100000);

void BM_ClusteredIndexLookup(benchmark::State& state) {
  PaxBlock block = MakeUvBlock(50000);
  block.SortByColumn(workload::kVisitDate);
  const ClusteredIndex index =
      ClusteredIndex::Build(block.column(workload::kVisitDate), 1024);
  Random rng(2);
  const int32_t base_day = *ParseDateToDays("1990-01-01");
  for (auto _ : state) {
    const int32_t lo = base_day + static_cast<int32_t>(rng.Uniform(5000));
    benchmark::DoNotOptimize(index.Lookup(
        KeyRange::Between(Value(lo), Value(lo + 366))));
  }
}
BENCHMARK(BM_ClusteredIndexLookup);

void BM_PaxTupleReconstruction(benchmark::State& state) {
  PaxBlock block = MakeUvBlock(20000);
  block.SortByColumn(workload::kVisitDate);
  const std::string bytes = block.Serialize();
  PaxBlockView view = *PaxBlockView::Open(bytes);
  Random rng(3);
  for (auto _ : state) {
    const uint32_t row = static_cast<uint32_t>(rng.Uniform(20000));
    benchmark::DoNotOptimize(view.GetRow(row));
  }
}
BENCHMARK(BM_PaxTupleReconstruction);

void BM_UnclusteredIndexLookup(benchmark::State& state) {
  PaxBlock block = MakeUvBlock(50000);  // unsorted
  const UnclusteredIndex index =
      UnclusteredIndex::Build(block.column(workload::kVisitDate));
  Random rng(4);
  const int32_t base_day = *ParseDateToDays("1990-01-01");
  for (auto _ : state) {
    const int32_t lo = base_day + static_cast<int32_t>(rng.Uniform(5000));
    benchmark::DoNotOptimize(index.Lookup(
        KeyRange::Between(Value(lo), Value(lo + 30))));
  }
}
BENCHMARK(BM_UnclusteredIndexLookup);

/// §3.5 ablation: simulated access cost of clustered vs unclustered index
/// at varying selectivity. The unclustered index pays one random I/O per
/// qualifying record; the clustered one scans the qualifying partitions.
void BM_Ablation_ClusteredVsUnclusteredIO(benchmark::State& state) {
  const double selectivity = static_cast<double>(state.range(0)) / 10000.0;
  sim::CostModel cost(sim::NodeProfile::Physical(), sim::CostConstants{});
  const uint64_t block_bytes = 64ull << 20;
  const uint64_t records = 433000;
  const uint64_t qualifying =
      static_cast<uint64_t>(records * selectivity);
  // Clustered: index root + qualifying partition scan.
  const double clustered =
      cost.DiskSeek() + cost.DiskTransfer(2048) +
      cost.DiskSeek() +
      cost.DiskTransfer(static_cast<uint64_t>(block_bytes * selectivity));
  // Unclustered: dense index read + one seek+page per qualifying record
  // (capped at a full scan).
  const double unclustered = std::min(
      cost.DiskSeek() + cost.DiskTransfer(records * 8) +
          static_cast<double>(qualifying) *
              (cost.DiskSeek() + cost.DiskTransfer(4096)),
      cost.DiskSeek() + cost.DiskTransfer(block_bytes));
  for (auto _ : state) {
    state.SetIterationTime(clustered);
  }
  state.counters["clustered_s"] = clustered;
  state.counters["unclustered_s"] = unclustered;
  state.counters["unclustered_over_clustered"] = unclustered / clustered;
}
BENCHMARK(BM_Ablation_ClusteredVsUnclusteredIO)
    ->Arg(1)      // 0.01%
    ->Arg(10)     // 0.1%
    ->Arg(100)    // 1%
    ->Arg(2000)   // 20% (Bob-Q5 territory)
    ->Iterations(1)
    ->UseManualTime();

/// §3.5 ablation: single-level vs two-level directory. The paper computes
/// that a second level only pays off beyond ~5 GB blocks (root > 500 KB).
void BM_Ablation_MultiLevelCrossover(benchmark::State& state) {
  const uint64_t block_mb = static_cast<uint64_t>(state.range(0));
  sim::CostModel cost(sim::NodeProfile::Physical(), sim::CostConstants{});
  const uint64_t rows = block_mb * 1024 * 1024 / 40;  // 40 B rows, 10 attrs
  const uint64_t root_bytes = rows / 1024 * 4;
  // Single level: seek + read the whole root.
  const double single = cost.DiskSeek() + cost.DiskTransfer(root_bytes);
  // Two levels: two seeks + two page reads (root page + directory page).
  const double multi = 2 * (cost.DiskSeek() + cost.DiskTransfer(4096));
  for (auto _ : state) {
    state.SetIterationTime(single);
  }
  state.counters["single_level_s"] = single;
  state.counters["two_level_s"] = multi;
  state.counters["two_level_wins"] = multi < single ? 1 : 0;
}
BENCHMARK(BM_Ablation_MultiLevelCrossover)
    ->Arg(64)     // default block: single level wins
    ->Arg(1024)   // 1 GB: single level still wins
    ->Arg(5120)   // ~5 GB: crossover (paper §3.5)
    ->Arg(16384)  // 16 GB: two levels win
    ->Iterations(1)
    ->UseManualTime();

/// Index size comparison (§6.4.2): HAIL ~2 KB vs trojan ~304 KB per block.
void BM_Ablation_IndexSizes(benchmark::State& state) {
  PaxBlock block = MakeUvBlock(100000);
  block.SortByColumn(workload::kVisitDate);
  const ClusteredIndex clustered =
      ClusteredIndex::Build(block.column(workload::kVisitDate), 1024);
  std::vector<uint64_t> offsets(100000);
  for (size_t i = 0; i < offsets.size(); ++i) offsets[i] = i * 150;
  const TrojanIndex trojan = TrojanIndex::Build(
      block.column(workload::kVisitDate), offsets, 100000ull * 150, 8);
  const UnclusteredIndex unclustered =
      UnclusteredIndex::Build(block.column(workload::kVisitDate));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustered.SerializedBytes());
  }
  state.counters["clustered_bytes"] =
      static_cast<double>(clustered.SerializedBytes());
  state.counters["trojan_bytes"] =
      static_cast<double>(trojan.SerializedBytes());
  state.counters["unclustered_bytes"] =
      static_cast<double>(unclustered.SerializedBytes());
  state.counters["trojan_over_clustered"] =
      static_cast<double>(trojan.SerializedBytes()) /
      static_cast<double>(clustered.SerializedBytes());
}
BENCHMARK(BM_Ablation_IndexSizes);

}  // namespace
}  // namespace hail

BENCHMARK_MAIN();
