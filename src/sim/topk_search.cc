#include "src/sim/topk_search.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <numeric>
#include <vector>

#include "src/common/macros.h"
#include "src/la/ops.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/sim/lsh.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"
#include "src/stream/tile_store.h"

namespace largeea {

// Source rows per parallel chunk come from par::TopKRowGrain. The
// scatter below writes each result straight into its own SparseSimMatrix
// row from the parallel body, so the output is a pure per-row function
// of the inputs — any grain (and any thread count) produces identical
// bytes, and the kernels run with no merge tail at all.
//
// ScorePair and TopKHeap live in src/sim/topk_util.h so the
// single-query path (QueryTopK, HNSW, serving) keeps byte-identical
// keep-set semantics with these batch kernels.

void ExactTopKInto(const MatrixRowRange& source,
                   std::span<const EntityId> row_ids,
                   const MatrixRowRange& target,
                   std::span<const EntityId> col_ids,
                   const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  LARGEEA_CHECK_GT(options.k, 0);
  const int64_t dim = source.cols();
  const simd::KernelTable& kt = simd::Kernels();

  // Every source row streams the full target once; the survivors are
  // (score, id) pairs. The brute-force scan dominates, so this is the
  // canonical bandwidth-bound kernel in a profile.
  obs::ProfileScope prof("sim.topk.exact");
  prof.AddBytes(4 * (source.rows() * dim + source.rows() * target.rows() * dim),
                source.rows() * options.k * 8);
  prof.AddFlops(2 * source.rows() * target.rows() * dim);

  // Chunks partition the source rows and row_ids are distinct, so each
  // parallel body writes a disjoint set of `out` rows — the scatter
  // happens in the body and the former serial result-merge tail is
  // gone. Per-row entry order (heap drain order) is unchanged, so the
  // output bytes match the merged version exactly.
  const int64_t row_grain = par::TopKRowGrain(source.rows());
  par::ParallelFor(
      0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
        TopKHeap heap(options.k);
        std::vector<std::pair<float, int32_t>> drained;
        for (int64_t i = rows.begin; i < rows.end; ++i) {
          // Deliberately a hot-path no-op unless LARGEEA_OBS_HOT_TRACING
          // is defined: per-row spans would dominate the scan they
          // measure.
          LARGEEA_TRACE_HOT_SPAN("topk/exact_row");
          heap.Clear();
          const float* src = source.Row(i);
          for (int64_t j = 0; j < target.rows(); ++j) {
            heap.Offer(col_ids[j], ScorePair(kt, src, target.Row(j), dim,
                                             options.metric));
          }
          heap.Drain(drained);
          for (const auto& [score, column] : drained) {
            out.Accumulate(row_ids[i], column, score);
          }
        }
      });
  // Counters are accumulated outside the loop: one atomic add per call,
  // nothing per row or per candidate.
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("topk.exact.rows").Add(source.rows());
  registry.GetCounter("topk.exact.candidates_scanned")
      .Add(source.rows() * target.rows());
}

SparseSimMatrix ExactTopK(const Matrix& source, const Matrix& target,
                          const TopKOptions& options) {
  std::vector<EntityId> row_ids(source.rows());
  std::vector<EntityId> col_ids(target.rows());
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  SparseSimMatrix out(static_cast<int32_t>(source.rows()),
                      static_cast<int32_t>(target.rows()), options.k);
  ExactTopKInto(source, row_ids, target, col_ids, options, out);
  out.RefreshMemoryTracking();
  return out;
}

namespace {

// Source rows per block: one bit each in a uint32_t mask word.
constexpr int32_t kBlockRows = 32;

}  // namespace

// Each block of up to 32 source rows marks its candidates in a
// per-chunk mask (one word per target row, bit b = block row b), then
// one ascending sweep scores every marked (row, target) pair and clears
// the words it read. Each target row is thus loaded once per block
// instead of once per (row, candidate), and every row still sees
// exactly Query()'s candidate set, offered in ascending target id — so
// the kept top-k and the output bytes equal the per-row scan.
void LshTopKInto(const MatrixRowRange& source,
                 std::span<const EntityId> row_ids,
                 const stream::TileMatrix& target,
                 std::span<const EntityId> col_ids, const LshIndex& index,
                 const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK(target.complete());
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  LARGEEA_CHECK_EQ(source.cols(), index.dim());
  LARGEEA_CHECK_EQ(target.rows(), index.num_rows());
  LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  const int64_t dim = source.cols();
  const int32_t num_targets = index.num_rows();
  const simd::KernelTable& kt = simd::Kernels();

  // LSH candidate counts are data-dependent: the fixed source-read and
  // result-write traffic is declared up front, and the scored-candidate
  // traffic is added after the reduce once candidates_scanned is known
  // (ProfileScope accumulators are caller-thread-only by design).
  obs::ProfileScope prof("sim.topk.lsh");
  prof.AddBytes(4 * source.rows() * dim, source.rows() * options.k * 8);

  // Direct scatter, same argument as ExactTopKInto: disjoint source
  // rows → disjoint `out` rows. The data-dependent candidate count is
  // the only cross-chunk aggregate left — one relaxed add per chunk.
  // Chunks are whole blocks where possible; chunking cannot change the
  // output, only how many full blocks there are.
  std::atomic<int64_t> candidates_total{0};
  const int64_t row_grain =
      (par::TopKRowGrain(source.rows()) + kBlockRows - 1) / kBlockRows *
      kBlockRows;
  par::ParallelFor(
      0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
        // Chunk-private cursor: it holds the pin of the tile it read last.
        stream::TileRowCursor targets(target);
        // Chunk-private mask: 4 bytes per target row. Every sweep
        // zeroes what it reads, so each block starts from a clear mask.
        std::vector<uint32_t> mask(num_targets, 0);
        std::vector<TopKHeap> heaps(kBlockRows, TopKHeap(options.k));
        std::vector<std::pair<float, int32_t>> drained;
        const float* src[kBlockRows] = {};
        int64_t candidates_scanned = 0;
        for (int64_t begin = rows.begin; begin < rows.end;
             begin += kBlockRows) {
          LARGEEA_TRACE_HOT_SPAN("topk/lsh_block");
          const int32_t n =
              static_cast<int32_t>(std::min<int64_t>(kBlockRows,
                                                     rows.end - begin));
          for (int32_t b = 0; b < n; ++b) {
            src[b] = source.Row(begin + b);
            index.MarkCandidates(src[b], uint32_t{1} << b, mask);
          }
          for (int32_t j = 0; j < num_targets; ++j) {
            uint32_t marked = mask[j];
            if (marked == 0) continue;
            mask[j] = 0;
            candidates_scanned += std::popcount(marked);
            const float* tgt = targets.Row(j);
            const EntityId column = col_ids[j];
            for (; marked != 0; marked &= marked - 1) {
              const int b = std::countr_zero(marked);
              heaps[b].Offer(column, ScorePair(kt, src[b], tgt, dim,
                                               options.metric));
            }
          }
          for (int32_t b = 0; b < n; ++b) {
            heaps[b].Drain(drained);  // leaves the heap empty
            for (const auto& [score, column] : drained) {
              out.Accumulate(row_ids[begin + b], column, score);
            }
          }
        }
        candidates_total.fetch_add(candidates_scanned,
                                   std::memory_order_relaxed);
      });
  const int64_t candidates_scanned =
      candidates_total.load(std::memory_order_relaxed);
  prof.AddBytes(4 * candidates_scanned * dim, 0);
  prof.AddFlops(2 * candidates_scanned * dim);
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("topk.lsh.rows").Add(source.rows());
  registry.GetCounter("topk.lsh.candidates_scanned").Add(candidates_scanned);
}

}  // namespace largeea
