// Tests for src/sim: sparse similarity matrix, top-k search, LSH.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>

#include "src/common/rng.h"
#include "src/la/ops.h"
#include "src/obs/metrics.h"
#include "src/par/thread_pool.h"
#include "src/sim/csls.h"
#include "src/sim/sim_io.h"
#include "src/sim/lsh.h"
#include "src/sim/similarity_search.h"
#include "src/sim/sparse_sim.h"
#include "src/sim/topk_search.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"
#include "src/stream/memory_budget.h"
#include "src/stream/stream_options.h"
#include "src/stream/tile_store.h"

namespace largeea {
namespace {

TEST(SparseSimMatrixTest, AccumulateKeepsRowsSorted) {
  SparseSimMatrix m(2, 10, 3);
  m.Accumulate(0, 3, 0.5f);
  m.Accumulate(0, 7, 0.9f);
  m.Accumulate(0, 1, 0.7f);
  const auto row = m.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].column, 7);
  EXPECT_EQ(row[1].column, 1);
  EXPECT_EQ(row[2].column, 3);
}

TEST(SparseSimMatrixTest, EvictsWeakestWhenFull) {
  SparseSimMatrix m(1, 10, 2);
  m.Accumulate(0, 1, 0.1f);
  m.Accumulate(0, 2, 0.2f);
  m.Accumulate(0, 3, 0.3f);  // evicts column 1
  EXPECT_EQ(m.RankInRow(0, 1), 0);
  EXPECT_EQ(m.RankInRow(0, 3), 1);
  EXPECT_EQ(m.RankInRow(0, 2), 2);
  m.Accumulate(0, 4, 0.05f);  // too weak to enter
  EXPECT_EQ(m.RankInRow(0, 4), 0);
}

TEST(SparseSimMatrixTest, AccumulateAddsToExisting) {
  SparseSimMatrix m(1, 10, 3);
  m.Accumulate(0, 5, 0.4f);
  m.Accumulate(0, 6, 0.5f);
  m.Accumulate(0, 5, 0.3f);  // 5 now 0.7, overtakes 6
  EXPECT_EQ(m.ArgmaxOfRow(0), 5);
  EXPECT_EQ(m.RankInRow(0, 6), 2);
}

TEST(SparseSimMatrixTest, EmptyRowBehaviour) {
  const SparseSimMatrix m(3, 3, 2);
  EXPECT_EQ(m.ArgmaxOfRow(1), kInvalidEntity);
  EXPECT_EQ(m.RankInRow(1, 0), 0);
  EXPECT_EQ(m.TotalEntries(), 0);
}

TEST(SparseSimMatrixTest, ArgmaxPerColumn) {
  SparseSimMatrix m(3, 3, 3);
  m.Accumulate(0, 0, 0.9f);
  m.Accumulate(1, 0, 0.5f);
  m.Accumulate(2, 1, 0.7f);
  const auto best = m.ArgmaxPerColumn();
  EXPECT_EQ(best[0], 0);
  EXPECT_EQ(best[1], 2);
  EXPECT_EQ(best[2], kInvalidEntity);
}

TEST(SparseSimMatrixTest, FuseUnionsAndWeights) {
  SparseSimMatrix a(1, 10, 5), b(1, 10, 5);
  a.Accumulate(0, 1, 1.0f);
  a.Accumulate(0, 2, 0.5f);
  b.Accumulate(0, 2, 1.0f);
  b.Accumulate(0, 3, 0.8f);
  const SparseSimMatrix fused = a.Fuse(b, 1.0f, 0.5f, 5);
  // 2: 0.5 + 0.5 = 1.0; 1: 1.0; 3: 0.4
  EXPECT_EQ(fused.RankInRow(0, 3), 3);
  const auto row = fused.Row(0);
  ASSERT_EQ(row.size(), 3u);
  float score2 = 0.0f;
  for (const SimEntry& e : row) {
    if (e.column == 2) score2 = e.score;
  }
  EXPECT_FLOAT_EQ(score2, 1.0f);
}

TEST(SparseSimMatrixTest, FuseTruncates) {
  SparseSimMatrix a(1, 10, 5), b(1, 10, 5);
  for (int i = 0; i < 5; ++i) a.Accumulate(0, i, 0.1f * (i + 1));
  for (int i = 5; i < 10; ++i) b.Accumulate(0, i, 0.01f * (i + 1));
  const SparseSimMatrix fused = a.Fuse(b, 1.0f, 1.0f, 4);
  EXPECT_EQ(fused.Row(0).size(), 4u);
  EXPECT_EQ(fused.ArgmaxOfRow(0), 4);  // highest from a
}

TEST(SparseSimMatrixTest, MemoryBytesTracksEntries) {
  SparseSimMatrix m(2, 10, 0);
  EXPECT_EQ(m.MemoryBytes(), 0);
  m.Accumulate(0, 1, 1.0f);
  m.Accumulate(1, 2, 1.0f);
  EXPECT_EQ(m.MemoryBytes(),
            static_cast<int64_t>(2 * sizeof(SimEntry)));
}

TEST(SparseSimMatrixTest, UnlimitedRowsWhenCapNonPositive) {
  SparseSimMatrix m(1, 200, 0);
  for (int i = 0; i < 100; ++i) m.Accumulate(0, i, 1.0f / (i + 1));
  EXPECT_EQ(m.Row(0).size(), 100u);
}

TEST(CslsTest, RecentersByLocalMeans) {
  SparseSimMatrix m(2, 3, 3);
  m.Accumulate(0, 0, 1.0f);
  m.Accumulate(0, 1, 0.5f);
  m.Accumulate(1, 1, 0.9f);
  const SparseSimMatrix rescaled = CslsRescale(m);
  // Row 0 mean = 0.75; col 0 mean = 1.0; col 1 mean = (0.5+0.9)/2 = 0.7.
  float score00 = 0, score01 = 0, score11 = 0;
  for (const SimEntry& e : rescaled.Row(0)) {
    if (e.column == 0) score00 = e.score;
    if (e.column == 1) score01 = e.score;
  }
  for (const SimEntry& e : rescaled.Row(1)) {
    if (e.column == 1) score11 = e.score;
  }
  EXPECT_NEAR(score00, 2.0f * 1.0f - 0.75f - 1.0f, 1e-5f);
  EXPECT_NEAR(score01, 2.0f * 0.5f - 0.75f - 0.7f, 1e-5f);
  EXPECT_NEAR(score11, 2.0f * 0.9f - 0.9f - 0.7f, 1e-5f);
}

TEST(CslsTest, PreservesWithinRowRanking) {
  Rng rng(61);
  SparseSimMatrix m(20, 30, 8);
  for (int32_t r = 0; r < 20; ++r) {
    for (int i = 0; i < 8; ++i) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(30)),
                   rng.UniformFloat());
    }
  }
  const SparseSimMatrix rescaled = CslsRescale(m);
  // CSLS shifts all entries of a row by the same row mean and differing
  // column means; within-row *argmax* can legitimately change, but the
  // entry set must be identical.
  for (int32_t r = 0; r < 20; ++r) {
    EXPECT_EQ(rescaled.Row(r).size(), m.Row(r).size());
    for (const SimEntry& e : m.Row(r)) {
      EXPECT_NE(rescaled.RankInRow(r, e.column), 0);
    }
  }
}

TEST(SimIoTest, RoundTripPreservesEverything) {
  SparseSimMatrix m(3, 5, 4);
  Rng rng(71);
  for (int32_t r = 0; r < 3; ++r) {
    for (int i = 0; i < 4; ++i) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(5)),
                   rng.UniformFloat() - 0.3f);  // include negative scores
    }
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "sim_io_test.tsv").string();
  ASSERT_TRUE(SaveSimMatrix(m, path).ok());
  const auto loaded = LoadSimMatrix(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), m.num_rows());
  ASSERT_EQ(loaded->num_cols(), m.num_cols());
  ASSERT_EQ(loaded->max_entries_per_row(), m.max_entries_per_row());
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto a = m.Row(r);
    const auto b = loaded->Row(r);
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].column, b[i].column);
      EXPECT_FLOAT_EQ(a[i].score, b[i].score);
    }
  }
  std::remove(path.c_str());
}

TEST(SimIoTest, RejectsMalformedFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sim_io_bad.tsv").string();
  {
    std::ofstream out(path);
    out << "not-a-sim-file\n";
  }
  EXPECT_EQ(LoadSimMatrix(path).status().code(),
            StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "largeea-sim v1 2 2 2\n9\t0\t1.0\n";  // row out of range
  }
  EXPECT_EQ(LoadSimMatrix(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadSimMatrix("/nonexistent/sim.tsv").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

// Brute-force reference for top-k.
std::vector<int32_t> BruteTopK(const Matrix& a, int64_t row, const Matrix& b,
                               int32_t k, SimMetric metric) {
  std::vector<std::pair<float, int32_t>> scored;
  for (int64_t j = 0; j < b.rows(); ++j) {
    const float s =
        metric == SimMetric::kManhattan
            ? ManhattanSimilarity(
                  ManhattanDistance(a.Row(row), b.Row(j), a.cols()))
            : Dot(a.Row(row), b.Row(j), a.cols());
    scored.emplace_back(-s, static_cast<int32_t>(j));
  }
  std::sort(scored.begin(), scored.end());
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < k; ++i) ids.push_back(scored[i].second);
  return ids;
}

class TopKTest : public ::testing::TestWithParam<SimMetric> {};

TEST_P(TopKTest, ExactMatchesBruteForce) {
  Rng rng(41);
  Matrix a(20, 8), b(50, 8);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  const TopKOptions options{.k = 5, .metric = GetParam()};
  const SparseSimMatrix result = ExactTopK(a, b, options);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const auto expected = BruteTopK(a, i, b, 5, GetParam());
    const auto row = result.Row(static_cast<int32_t>(i));
    ASSERT_EQ(row.size(), 5u);
    // Same candidate set (ordering ties may differ).
    std::vector<int32_t> got;
    for (const SimEntry& e : row) got.push_back(e.column);
    std::sort(got.begin(), got.end());
    std::vector<int32_t> want = expected;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, TopKTest,
                         ::testing::Values(SimMetric::kManhattan,
                                           SimMetric::kDot));

TEST(TopKTest, IdMapsRespected) {
  Rng rng(43);
  Matrix a(3, 4), b(4, 4);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  const std::vector<EntityId> row_ids{10, 20, 30};
  const std::vector<EntityId> col_ids{5, 6, 7, 8};
  SparseSimMatrix out(40, 10, 2);
  ExactTopKInto(a, row_ids, b, col_ids, TopKOptions{.k = 2}, out);
  EXPECT_EQ(out.Row(10).size(), 2u);
  EXPECT_EQ(out.Row(20).size(), 2u);
  EXPECT_EQ(out.Row(0).size(), 0u);
  for (const SimEntry& e : out.Row(10)) {
    EXPECT_GE(e.column, 5);
    EXPECT_LE(e.column, 8);
  }
}

TEST(LshTest, FindsIdenticalVectors) {
  Rng rng(47);
  Matrix data(200, 16);
  data.GlorotInit(rng);
  L2NormalizeRows(data);
  const LshIndex index(data, LshOptions{.num_tables = 12,
                                        .bits_per_table = 8,
                                        .seed = 3});
  // Querying with a stored vector must return it.
  std::vector<int32_t> candidates;
  int found = 0;
  for (int32_t i = 0; i < 200; ++i) {
    index.Query(data.Row(i), candidates);
    if (std::find(candidates.begin(), candidates.end(), i) !=
        candidates.end()) {
      ++found;
    }
  }
  EXPECT_EQ(found, 200);
}

TEST(LshTest, NearNeighborsRecall) {
  Rng rng(53);
  const int32_t n = 300, dim = 32;
  Matrix base(n, dim), noisy(n, dim);
  base.GlorotInit(rng);
  L2NormalizeRows(base);
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t d = 0; d < dim; ++d) {
      noisy.At(i, d) =
          base.At(i, d) + 0.05f * static_cast<float>(rng.Gaussian());
    }
  }
  L2NormalizeRows(noisy);
  const LshIndex index(base, LshOptions{.num_tables = 16,
                                        .bits_per_table = 10,
                                        .seed = 5});
  std::vector<int32_t> candidates;
  int recalled = 0;
  for (int32_t i = 0; i < n; ++i) {
    index.Query(noisy.Row(i), candidates);
    if (std::find(candidates.begin(), candidates.end(), i) !=
        candidates.end()) {
      ++recalled;
    }
  }
  // Slightly-perturbed points should collide nearly always.
  EXPECT_GT(recalled, static_cast<int>(0.9 * n));
}

TEST(LshTest, LshTopKFindsPlantedMatches) {
  Rng rng(59);
  const int32_t n = 200, dim = 24;
  Matrix target(n, dim);
  target.GlorotInit(rng);
  L2NormalizeRows(target);
  Matrix source = target;  // exact copies: planted 1-1 matches
  const LshIndex index(target, LshOptions{.num_tables = 12,
                                          .bits_per_table = 10,
                                          .seed = 7});
  std::vector<EntityId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  SparseSimMatrix out(n, n, 5);
  LshTopKInto(source, ids, stream::TileMatrix::Borrow(target), ids, index,
              TopKOptions{.k = 5, .metric = SimMetric::kManhattan}, out);
  int hits = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (out.ArgmaxOfRow(i) == i) ++hits;
  }
  EXPECT_GT(hits, static_cast<int>(0.95 * n));
}

// Brute-force LSH oracle. Every row's key per table comes from the same
// hyperplanes the index draws (a Gaussian matrix from Rng(seed), one row
// per (table, bit)) and the same sign test; a query's candidates are the
// rows whose key lies within Hamming distance probe_radius of the
// query's key in at least one table.
class LshOracle {
 public:
  LshOracle(const Matrix& data, const LshOptions& options)
      : options_(options),
        planes_(static_cast<int64_t>(options.num_tables) *
                    options.bits_per_table,
                data.cols()) {
    Rng rng(options.seed);
    planes_.GaussianInit(rng, 1.0f);
    for (int64_t r = 0; r < data.rows(); ++r) {
      keys_.push_back(Keys(data.Row(r)));
    }
  }

  std::vector<int32_t> Candidates(const float* vec) const {
    const std::vector<uint32_t> query = Keys(vec);
    std::vector<int32_t> out;
    for (size_t r = 0; r < keys_.size(); ++r) {
      for (int32_t t = 0; t < options_.num_tables; ++t) {
        if (std::popcount(query[t] ^ keys_[r][t]) <= options_.probe_radius) {
          out.push_back(static_cast<int32_t>(r));
          break;
        }
      }
    }
    return out;
  }

 private:
  std::vector<uint32_t> Keys(const float* vec) const {
    std::vector<uint32_t> keys(options_.num_tables, 0);
    for (int32_t t = 0; t < options_.num_tables; ++t) {
      for (int32_t b = 0; b < options_.bits_per_table; ++b) {
        const float* plane = planes_.Row(
            static_cast<int64_t>(t) * options_.bits_per_table + b);
        if (Dot(plane, vec, planes_.cols()) >= 0.0f) keys[t] |= 1u << b;
      }
    }
    return keys;
  }

  LshOptions options_;
  Matrix planes_;
  std::vector<std::vector<uint32_t>> keys_;
};

// Target rows for the oracle tests: the last third repeats rows of the
// first third exactly, so tied scores (and tied bucket keys) are common.
Matrix TargetWithDuplicates(int64_t rows, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, dim);
  m.GlorotInit(rng);
  const int64_t copies_from = rows - rows / 3;
  for (int64_t r = copies_from; r < rows; ++r) {
    for (int64_t d = 0; d < dim; ++d) m.At(r, d) = m.At(r - copies_from, d);
  }
  return m;
}

// `rows` queries: even rows are noisy copies of target rows, odd rows are
// unrelated random vectors (often with no candidate at all when buckets
// are fine-grained).
Matrix QueriesNear(const Matrix& target, int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix q(rows, target.cols());
  q.GlorotInit(rng);
  for (int64_t r = 0; r < rows; r += 2) {
    const int64_t near = static_cast<int64_t>(rng.Uniform(target.rows()));
    for (int64_t d = 0; d < q.cols(); ++d) {
      q.At(r, d) = target.At(near, d) +
                   0.02f * static_cast<float>(rng.Gaussian());
    }
  }
  return q;
}

const LshOptions kOracleConfigs[] = {
    {.num_tables = 12, .bits_per_table = 8, .probe_radius = 1, .seed = 3},
    {.num_tables = 4, .bits_per_table = 4, .probe_radius = 0, .seed = 5},
    {.num_tables = 24, .bits_per_table = 10, .probe_radius = 1, .seed = 7},
    {.num_tables = 3, .bits_per_table = 32, .probe_radius = 1, .seed = 9},
    {.num_tables = 2, .bits_per_table = 32, .probe_radius = 0, .seed = 11},
    {.num_tables = 1, .bits_per_table = 1, .probe_radius = 1, .seed = 13},
};

TEST(LshTest, QueryEqualsBruteForceOracle) {
  const Matrix target = TargetWithDuplicates(150, 12, 61);
  const Matrix queries = QueriesNear(target, 40, 67);
  for (const LshOptions& options : kOracleConfigs) {
    SCOPED_TRACE(testing::Message()
                 << "tables=" << options.num_tables
                 << " bits=" << options.bits_per_table
                 << " radius=" << options.probe_radius);
    const LshOracle oracle(target, options);
    const LshIndex one_shot(target, options);
    LshIndex incremental(static_cast<int32_t>(target.cols()), options);
    for (int32_t r = 0; r < target.rows(); ++r) {
      incremental.Insert(r, target.Row(r));
    }
    incremental.FinishBuild();
    incremental.FinishBuild();  // idempotent
    std::vector<int32_t> got;
    for (int64_t q = 0; q < queries.rows(); ++q) {
      const std::vector<int32_t> want = oracle.Candidates(queries.Row(q));
      one_shot.Query(queries.Row(q), got);
      EXPECT_EQ(got, want) << "one-shot, query " << q;
      incremental.Query(queries.Row(q), got);
      EXPECT_EQ(got, want) << "incremental, query " << q;
    }
  }
}

// The oracle's top-k: each row's candidates (every target row for exact
// search, the brute-force LSH oracle's for LSH) scored with ScorePair and
// kept by TopKHeap on their column ids, so boundary ties keep the smaller
// column id whatever order col_ids run in.
SparseSimMatrix OracleTopK(const Matrix& source,
                           std::span<const EntityId> row_ids,
                           const Matrix& target,
                           std::span<const EntityId> col_ids,
                           int32_t out_rows, int32_t out_cols,
                           const LshOracle* oracle,
                           const TopKOptions& options, int64_t& scanned,
                           int64_t& empty_rows) {
  const simd::KernelTable& kt = simd::Kernels();
  SparseSimMatrix out(out_rows, out_cols, options.k);
  TopKHeap heap(options.k);
  std::vector<std::pair<float, int32_t>> drained;
  std::vector<int32_t> candidates;
  for (int64_t i = 0; i < source.rows(); ++i) {
    if (oracle != nullptr) {
      candidates = oracle->Candidates(source.Row(i));
    } else {
      candidates.resize(target.rows());
      std::iota(candidates.begin(), candidates.end(), 0);
    }
    scanned += static_cast<int64_t>(candidates.size());
    if (candidates.empty()) ++empty_rows;
    for (const int32_t j : candidates) {
      heap.Offer(col_ids[j], ScorePair(kt, source.Row(i), target.Row(j),
                                       source.cols(), options.metric));
    }
    heap.Drain(drained);
    for (const auto& [score, column] : drained) {
      out.Accumulate(row_ids[i], column, score);
    }
  }
  return out;
}

void ExpectSameEntries(const SparseSimMatrix& want,
                       const SparseSimMatrix& got) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (int32_t r = 0; r < want.num_rows(); ++r) {
    const auto a = want.Row(r);
    const auto b = got.Row(r);
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].column, b[e].column) << "row " << r << " entry " << e;
      EXPECT_EQ(a[e].score, b[e].score) << "row " << r << " entry " << e;
    }
  }
}

// Tied kept scores somewhere in `m` — proof that the tie-break is exercised.
int64_t CountTies(const SparseSimMatrix& m) {
  int64_t ties = 0;
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    for (size_t a = 0; a < row.size(); ++a) {
      for (size_t b = a + 1; b < row.size(); ++b) {
        if (row[a].score == row[b].score) ++ties;
      }
    }
  }
  return ties;
}

enum class SearchMethod { kExact, kLsh };
enum class TargetLayout { kResident, kTiled };

// Every top-k path against a brute-force oracle, through the one
// SimilaritySearch implementation per method: exact or LSH, over a
// resident target or one tiled through a real TileStore (150 rows in
// tiles of 40, so the last tile is short, each spilled to disk), at 1, 2
// and 8 threads. Column ids are non-identity (gapped, ascending as in the
// structure channel's local-to-global maps, or descending so that the
// target-row order of tied scores differs from the column order) and row
// ids interleaved.
class TopKOracleTest
    : public testing::TestWithParam<
          std::tuple<SearchMethod, TargetLayout, int>> {
 protected:
  void SetUp() override {
    saved_threads_ = par::ThreadPool::Get().num_threads();
    par::ThreadPool::Get().SetNumThreads(std::get<2>(GetParam()));
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
  }

  static bool lsh() { return std::get<0>(GetParam()) == SearchMethod::kLsh; }

  // `target` as the parameter's layout: borrowed as one resident tile,
  // or copied tile by tile into `store`.
  static stream::TileMatrix Layout(const Matrix& target,
                                   stream::TileStore& store) {
    if (std::get<1>(GetParam()) == TargetLayout::kResident) {
      return stream::TileMatrix::Borrow(target);
    }
    stream::TileMatrix tiles(&store, target.rows(), target.cols(), 40);
    for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
      Matrix block(tiles.TileEnd(t) - tiles.TileBegin(t), target.cols());
      for (int64_t r = 0; r < block.rows(); ++r) {
        std::copy_n(target.Row(tiles.TileBegin(t) + r), target.cols(),
                    block.Row(r));
      }
      tiles.Append(std::move(block));
    }
    return tiles;
  }

  // Searches `source` against `target` and compares SearchInto, the
  // scanned-candidate counter and QueryTopK with the oracle's top-k.
  // QueryTopK answers must equal the batch rows entry for entry, tied
  // scores included, whichever way the column ids run.
  void ExpectMatchesOracle(const Matrix& source, const Matrix& target,
                           const LshOptions& lsh_options,
                           const TopKOptions& topk, int64_t& ties,
                           int64_t& empty_rows,
                           bool descending_cols = false) {
    const int64_t rows = source.rows();
    std::vector<EntityId> row_ids(rows);
    for (int64_t i = 0; i < rows; ++i) row_ids[i] = 2 * i + 1;
    std::vector<EntityId> col_ids(target.rows());
    for (int64_t j = 0; j < target.rows(); ++j) {
      col_ids[j] = 2 * (descending_cols ? target.rows() - 1 - j : j) + 3;
    }
    const int32_t out_rows = static_cast<int32_t>(2 * rows + 2);
    const int32_t out_cols = static_cast<int32_t>(2 * target.rows() + 3);

    const std::optional<LshOracle> oracle =
        lsh() ? std::optional<LshOracle>(std::in_place, target, lsh_options)
              : std::nullopt;
    int64_t want_scanned = 0;
    const SparseSimMatrix want = OracleTopK(
        source, row_ids, target, col_ids, out_rows, out_cols,
        oracle ? &*oracle : nullptr, topk, want_scanned, empty_rows);
    ties += CountTies(want);

    stream::StreamOptions stream_options;
    stream_options.memory_budget_mb = 1;
    stream::TileStore store{stream::MemoryBudget(stream_options)};
    auto& registry = obs::MetricsRegistry::Get();
    const int64_t spilled_before =
        registry.GetCounter("stream.spill.tiles").Value();
    const auto search = MakeSimilaritySearch(
        Layout(target, store), col_ids,
        SimilaritySearchOptions{
            .topk = topk, .use_lsh = lsh(), .lsh = lsh_options});
    EXPECT_EQ(registry.GetCounter("stream.spill.tiles").Value() -
                  spilled_before,
              store.num_tiles());

    const char* scanned_counter = lsh() ? "topk.lsh.candidates_scanned"
                                        : "topk.exact.candidates_scanned";
    const int64_t scanned_before =
        registry.GetCounter(scanned_counter).Value();
    const int64_t queries_before = registry.GetCounter("lsh.queries").Value();
    SparseSimMatrix got(out_rows, out_cols, topk.k);
    search->SearchInto(source, row_ids, got);
    ExpectSameEntries(want, got);
    EXPECT_EQ(registry.GetCounter(scanned_counter).Value() - scanned_before,
              want_scanned);
    if (lsh()) {
      EXPECT_EQ(registry.GetCounter("lsh.queries").Value() - queries_before,
                rows);
    }

    std::vector<SimEntry> single;
    for (int64_t i = 0; i < rows; ++i) {
      search->QueryTopK(std::span<const float>(source.Row(i), source.cols()),
                        topk.k, single);
      const auto row = want.Row(row_ids[i]);
      ASSERT_EQ(single.size(), row.size()) << "query " << i;
      for (size_t e = 0; e < row.size(); ++e) {
        EXPECT_EQ(single[e].column, row[e].column) << "query " << i;
        EXPECT_EQ(single[e].score, row[e].score) << "query " << i;
      }
    }
  }

  // A dense LSH config (many candidates per row) and a sparse one (rows
  // with none); exact search ignores them.
  static constexpr LshOptions kConfigs[] = {
      {.num_tables = 6, .bits_per_table = 6, .probe_radius = 1, .seed = 17},
      {.num_tables = 2, .bits_per_table = 32, .probe_radius = 0, .seed = 19},
  };

  int saved_threads_ = 1;
};

TEST_P(TopKOracleTest, SearchEqualsOracle) {
  const Matrix target = TargetWithDuplicates(150, 12, 71);
  // Source row counts straddling the 32-row LSH block. Up to 2048 rows
  // the default grain gives one block per chunk; 2100 rows give two, so
  // the second block must start from the chunk's cleared mask and heaps.
  const int64_t source_rows[] = {0, 1, 31, 32, 33, 70, 2100};
  int64_t ties = 0, empty_rows = 0;
  for (const LshOptions& options : kConfigs) {
    for (const SimMetric metric : {SimMetric::kManhattan, SimMetric::kDot}) {
      for (const int64_t rows : source_rows) {
        for (const bool descending_cols : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "bits=" << options.bits_per_table << " metric="
                       << static_cast<int>(metric) << " rows=" << rows
                       << " descending_cols=" << descending_cols);
          ExpectMatchesOracle(QueriesNear(target, rows, 73 + rows), target,
                              options, TopKOptions{.k = 4, .metric = metric},
                              ties, empty_rows, descending_cols);
        }
      }
    }
  }
  EXPECT_GT(ties, 0);
  if (lsh()) {
    EXPECT_GT(empty_rows, 0);
  }
}

TEST_P(TopKOracleTest, ZeroRowTargetYieldsNothing) {
  const Matrix target(0, 12);
  int64_t ties = 0, empty_rows = 0;
  ExpectMatchesOracle(QueriesNear(TargetWithDuplicates(10, 12, 5), 33, 7),
                      target, kConfigs[0], TopKOptions{.k = 4}, ties,
                      empty_rows);
  EXPECT_EQ(empty_rows, 33);
}

INSTANTIATE_TEST_SUITE_P(
    TopK, TopKOracleTest,
    testing::Combine(testing::Values(SearchMethod::kExact, SearchMethod::kLsh),
                     testing::Values(TargetLayout::kResident,
                                     TargetLayout::kTiled),
                     testing::Values(1, 2, 8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == SearchMethod::kLsh
                             ? "Lsh"
                             : "Exact") +
             (std::get<1>(info.param) == TargetLayout::kTiled ? "Tiled"
                                                              : "Resident") +
             std::to_string(std::get<2>(info.param)) + "Threads";
    });

}  // namespace
}  // namespace largeea
