// Top-k similarity search between embedding matrices (Faiss substitute).
//
// Two paths, matching how the paper uses Faiss:
//   * exact blocked search — every (source, target) pair scored, only the
//     top-k per source kept;
//   * approximate search through a random-hyperplane LSH index
//     (src/sim/lsh.h) — candidates from colliding buckets are scored
//     exactly. Used at the DBP1M tier where exact search is too slow.
//
// Both write into a global SparseSimMatrix through row/column id maps, so
// mini-batch results land directly in the full M_s. A target held in
// tiles (src/stream/tile_store.h) — spilled under a memory budget, or
// one resident tile — is searched through SimilaritySearch
// (src/sim/similarity_search.h), which runs these kernels per tile.
#ifndef LARGEEA_SIM_TOPK_SEARCH_H_
#define LARGEEA_SIM_TOPK_SEARCH_H_

#include <cstdint>
#include <span>

#include "src/la/matrix.h"
#include "src/sim/sparse_sim.h"

namespace largeea {

/// Similarity scoring function between two embedding rows.
enum class SimMetric {
  /// 1 / (1 + L1 distance) — the paper's Manhattan choice.
  kManhattan,
  /// Plain dot product (cosine once rows are L2-normalised).
  kDot,
};

struct TopKOptions {
  /// Candidates kept per source entity (the paper's φ = 50 for SENS).
  int32_t k = 50;
  SimMetric metric = SimMetric::kManhattan;
};

/// Scores every source row against every target row; keeps top-k, with
/// score ties broken towards the smaller column id so the kept set is
/// independent of scan order. `row_ids[i]` / `col_ids[j]` map view rows
/// to entity ids in `out`. Both sides take row-range views (a whole
/// Matrix converts implicitly), so callers can pass windows into a
/// matrix instead of materialised row copies.
/// Rows are scanned in parallel on the par::ThreadPool; each row's
/// result is scattered into `out` directly and is bit-identical at any
/// thread count. Calls over disjoint target tiles accumulate to the
/// single-call result.
void ExactTopKInto(const MatrixRowRange& source,
                   std::span<const EntityId> row_ids,
                   const MatrixRowRange& target,
                   std::span<const EntityId> col_ids,
                   const TopKOptions& options, SparseSimMatrix& out);

/// Convenience wrapper: identity id maps, fresh matrix.
SparseSimMatrix ExactTopK(const Matrix& source, const Matrix& target,
                          const TopKOptions& options);

class LshIndex;

namespace stream {
class TileMatrix;
}  // namespace stream

/// Approximate variant: candidates come from `index` (built over
/// `target`), then are scored exactly with `options.metric`. Same
/// parallel scan and deterministic tie-breaking as ExactTopKInto;
/// `col_ids[j]` maps target row j. Source rows are processed in blocks
/// of 32 that share one ascending sweep over the marked target rows, so
/// each target row is read once per block and each needed tile is
/// pinned once per block; the output equals scoring each row's Query()
/// candidates on their own, however the target is tiled.
void LshTopKInto(const MatrixRowRange& source,
                 std::span<const EntityId> row_ids,
                 const stream::TileMatrix& target,
                 std::span<const EntityId> col_ids, const LshIndex& index,
                 const TopKOptions& options, SparseSimMatrix& out);

}  // namespace largeea

#endif  // LARGEEA_SIM_TOPK_SEARCH_H_
