#include "src/sim/similarity_search.h"

#include <algorithm>
#include <ranges>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/obs/trace.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

/// The target of the tiled methods (exact and LSH): its tiles and
/// their column ids.
struct TiledTarget {
  TiledTarget(stream::TileMatrix target, std::span<const EntityId> ids)
      : tiles(std::move(target)), col_ids(ids) {
    LARGEEA_CHECK(tiles.complete());
    LARGEEA_CHECK_EQ(static_cast<size_t>(tiles.rows()), col_ids.size());
  }

  /// The single-query scan: scores `query` against target rows `rows`
  /// (ascending) on the calling thread and writes the top k as
  /// {entity id, score}, kept and ordered by column id on ties exactly
  /// like a SearchInto row. Tile pins are thread-safe, so concurrent
  /// callers need no lock.
  template <typename Rows>
  void QueryRows(std::span<const float> query, int32_t k, SimMetric metric,
                 const Rows& rows, std::vector<SimEntry>& out) const {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), tiles.cols());
    const simd::KernelTable& kt = simd::Kernels();
    stream::TileRowCursor cursor(tiles);
    TopKHeap heap(k);
    for (const int32_t j : rows) {
      heap.Offer(col_ids[j], ScorePair(kt, query.data(), cursor.Row(j),
                                       tiles.cols(), metric));
    }
    std::vector<std::pair<float, int32_t>> drained;
    heap.Drain(drained);
    out.clear();
    out.reserve(drained.size());
    for (const auto& [score, column] : drained) out.push_back({column, score});
  }

  stream::TileMatrix tiles;
  std::span<const EntityId> col_ids;
};

class ExactSearch : public SimilaritySearch {
 public:
  ExactSearch(stream::TileMatrix target, std::span<const EntityId> col_ids,
              const SimilaritySearchOptions& options)
      : target_(std::move(target), col_ids), options_(options) {}

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    // Tiles outer, so each tile is pinned once per call. Tiles partition
    // the target's rows and the kept top-k is independent of candidate
    // order, so accumulating over tiles equals one pass over the whole
    // target.
    const stream::TileMatrix& tiles = target_.tiles;
    for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
      if (options_.prefetch) tiles.Prefetch(t + 1);
      const std::shared_ptr<const Matrix> tile = tiles.Tile(t);
      ExactTopKInto(source, row_ids, *tile,
                    target_.col_ids.subspan(tiles.TileBegin(t), tile->rows()),
                    options_.topk, out);
    }
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    target_.QueryRows(
        query, k, options_.topk.metric,
        std::views::iota(0, static_cast<int32_t>(target_.tiles.rows())), out);
  }

 private:
  TiledTarget target_;
  SimilaritySearchOptions options_;
};

class LshSearch : public SimilaritySearch {
 public:
  LshSearch(stream::TileMatrix target, std::span<const EntityId> col_ids,
            const SimilaritySearchOptions& options)
      : target_(std::move(target), col_ids),
        options_(options),
        index_(static_cast<int32_t>(target_.tiles.cols()), options.lsh,
               target_.tiles.rows()) {
    // Incremental build, one tile pinned at a time. Rows arrive in
    // ascending order, so the index is the same however the target is
    // tiled.
    obs::Span build_span("lsh/build_index");
    build_span.AddAttr("num_tables",
                       static_cast<int64_t>(options.lsh.num_tables));
    build_span.AddAttr("bits_per_table",
                       static_cast<int64_t>(options.lsh.bits_per_table));
    const stream::TileMatrix& tiles = target_.tiles;
    for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
      if (options.prefetch) tiles.Prefetch(t + 1);
      const std::shared_ptr<const Matrix> tile = tiles.Tile(t);
      const int32_t base = static_cast<int32_t>(tiles.TileBegin(t));
      for (int64_t r = 0; r < tile->rows(); ++r) {
        index_.Insert(base + static_cast<int32_t>(r), tile->Row(r));
      }
    }
    index_.FinishBuild();
  }

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    LshTopKInto(source, row_ids, target_.tiles, target_.col_ids, index_,
                options_.topk, out);
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    std::vector<int32_t> candidates;
    index_.Query(query.data(), candidates);  // ascending
    target_.QueryRows(query, k, options_.topk.metric, candidates, out);
  }

 private:
  TiledTarget target_;
  SimilaritySearchOptions options_;
  LshIndex index_;
};

/// Wraps a graph built (or deserialised) elsewhere — the serving layer
/// loads graphs from the index artifact instead of rebuilding. The
/// index stays owned by the caller.
class HnswSearch : public SimilaritySearch {
 public:
  HnswSearch(const Matrix& target, std::span<const EntityId> col_ids,
             const SimilaritySearchOptions& options, const HnswIndex& index)
      : target_(&target),
        col_ids_(col_ids),
        options_(options),
        index_(&index) {
    LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  }

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    // Each source row is an independent graph walk, so the batch path
    // is a parallel loop of single queries with direct scatter — same
    // disjoint-rows argument as ExactTopKInto.
    const int64_t row_grain = par::TopKRowGrain(source.rows());
    par::ParallelFor(
        0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
          std::vector<std::pair<float, int32_t>> drained;
          for (int64_t i = rows.begin; i < rows.end; ++i) {
            index_->QueryTopK(source.Row(i), options_.topk.k, drained);
            for (const auto& [score, j] : drained) {
              out.Accumulate(row_ids[i], col_ids_[j], score);
            }
          }
        });
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), target_->cols());
    std::vector<std::pair<float, int32_t>> drained;
    index_->QueryTopK(query.data(), k, drained);
    out.clear();
    out.reserve(drained.size());
    for (const auto& [score, j] : drained) {
      out.push_back({col_ids_[j], score});
    }
    // The graph ranks target rows; a SearchInto row ranks column ids.
    std::sort(out.begin(), out.end(), EntryBefore);
  }

 private:
  const Matrix* target_;
  std::span<const EntityId> col_ids_;
  SimilaritySearchOptions options_;
  const HnswIndex* index_;
};

}  // namespace

std::unique_ptr<SimilaritySearch> MakeSimilaritySearch(
    stream::TileMatrix target, std::span<const EntityId> col_ids,
    const SimilaritySearchOptions& options) {
  if (options.use_lsh) {
    return std::make_unique<LshSearch>(std::move(target), col_ids, options);
  }
  return std::make_unique<ExactSearch>(std::move(target), col_ids, options);
}

std::unique_ptr<SimilaritySearch> MakeHnswSimilaritySearch(
    const Matrix& target, std::span<const EntityId> col_ids,
    const SimilaritySearchOptions& options, const HnswIndex& index) {
  return std::make_unique<HnswSearch>(target, col_ids, options, index);
}

}  // namespace largeea
