/// \file extensions_test.cc
/// \brief Tests for the paper's §3.4 future-work extension: the
/// workload-driven index advisor.

#include <gtest/gtest.h>

#include <set>

#include "hail/index_advisor.h"
#include "workload/queries.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

// ---------------------------------------------------------------------------
// Index advisor (§3.4)
// ---------------------------------------------------------------------------

WorkloadEntry Entry(const Schema& schema, const std::string& filter,
                    double weight) {
  WorkloadEntry e;
  e.annotation = *ParseAnnotation(schema, filter, "");
  e.weight = weight;
  return e;
}

TEST(IndexAdvisorTest, BobsWorkloadGetsBobsIndexes) {
  const Schema schema = workload::UserVisitsSchema();
  std::vector<WorkloadEntry> workload;
  for (const workload::QueryDef& q : workload::BobQueries()) {
    workload.push_back(Entry(schema, q.filter, 1.0));
  }
  const auto columns = SuggestSortColumns(schema, workload, 3);
  // The advisor must pick exactly the paper's §6.4.1 configuration
  // (visitDate, sourceIP, adRevenue — in some order).
  std::set<int> got(columns.begin(), columns.end());
  EXPECT_EQ(got, (std::set<int>{workload::kVisitDate, workload::kSourceIP,
                                workload::kAdRevenue}));
}

TEST(IndexAdvisorTest, WeightsDetermineOrder) {
  const Schema schema = workload::UserVisitsSchema();
  std::vector<WorkloadEntry> workload = {
      Entry(schema, "@4 between(1,10)", 10.0),   // adRevenue, hot
      Entry(schema, "@3 = 1999-05-05", 1.0),     // visitDate, cold
  };
  const auto columns = SuggestSortColumns(schema, workload, 3);
  ASSERT_EQ(columns.size(), 2u);  // only two referenced attributes
  EXPECT_EQ(columns[0], workload::kAdRevenue);  // replica 0 = hottest
  EXPECT_EQ(columns[1], workload::kVisitDate);
}

TEST(IndexAdvisorTest, MoreAttributesThanReplicasPicksTopK) {
  const Schema schema = workload::UserVisitsSchema();
  std::vector<WorkloadEntry> workload = {
      Entry(schema, "@3 = 2001-01-01", 5.0),
      Entry(schema, "@4 >= 100", 4.0),
      Entry(schema, "@1 = 1.2.3.4", 3.0),
      Entry(schema, "@9 >= 5000", 2.0),
      Entry(schema, "@6 = USA", 1.0),
  };
  const auto columns = SuggestSortColumns(schema, workload, 3);
  ASSERT_EQ(columns.size(), 3u);
  EXPECT_EQ(columns[0], workload::kVisitDate);
  EXPECT_EQ(columns[1], workload::kAdRevenue);
  EXPECT_EQ(columns[2], workload::kSourceIP);
}

TEST(IndexAdvisorTest, SecondaryFilterColumnsGetPartialCredit) {
  const Schema schema = workload::UserVisitsSchema();
  // Bob-Q3 filters on sourceIP AND visitDate; sourceIP is primary.
  std::vector<WorkloadEntry> workload = {
      Entry(schema, "@1 = 172.101.11.46 and @3 = 1992-12-22", 2.0),
  };
  const auto scores = ScoreColumns(schema, workload);
  EXPECT_DOUBLE_EQ(scores[workload::kSourceIP].benefit, 2.0);
  EXPECT_DOUBLE_EQ(scores[workload::kVisitDate].benefit, 1.0);
}

TEST(IndexAdvisorTest, NonServiceablePredicatesScoreNothing) {
  const Schema schema = workload::UserVisitsSchema();
  std::vector<WorkloadEntry> workload = {
      Entry(schema, "@9 != 5", 100.0),  // != cannot use a clustered index
  };
  EXPECT_TRUE(SuggestSortColumns(schema, workload, 3).empty());
}

TEST(IndexAdvisorTest, EmptyWorkload) {
  const Schema schema = workload::UserVisitsSchema();
  EXPECT_TRUE(SuggestSortColumns(schema, {}, 3).empty());
}

TEST(IndexAdvisorTest, EqualBenefitTiesBreakByColumnId) {
  // The adaptive loop re-plans after every query; equal-benefit plans must
  // come out in one canonical order (ascending column id) or the planner
  // would flap between them and reorganize forever.
  const Schema schema = workload::UserVisitsSchema();
  // Three single-column queries with identical weight: @9, @4, @3 in
  // deliberately descending-column observation order.
  std::vector<WorkloadEntry> workload = {
      Entry(schema, "@9 >= 100", 2.0),
      Entry(schema, "@4 >= 1", 2.0),
      Entry(schema, "@3 = 2001-01-01", 2.0),
  };
  const auto columns = SuggestSortColumns(schema, workload, 3);
  ASSERT_EQ(columns.size(), 3u);
  EXPECT_EQ(columns[0], workload::kVisitDate);   // @3 -> column 2
  EXPECT_EQ(columns[1], workload::kAdRevenue);   // @4 -> column 3
  EXPECT_EQ(columns[2], workload::kDuration);    // @9 -> column 8
  // Stable under input permutation: the workload order must not matter.
  std::vector<WorkloadEntry> permuted = {workload[2], workload[0],
                                         workload[1]};
  EXPECT_EQ(SuggestSortColumns(schema, permuted, 3), columns);
  // And stable across repeated planning rounds (no flapping).
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(SuggestSortColumns(schema, workload, 3), columns);
  }
}

}  // namespace
}  // namespace hail
