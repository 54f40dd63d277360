// Unified top-k similarity search over a fixed target set.
//
// Exact blocked search, approximate LSH search and the HNSW graph index
// all answer the same question — "which target rows score highest?" —
// so callers select a strategy through options instead of branching on
// `use_lsh` at every site. Exact and LSH search a stream::TileMatrix:
// an in-memory target is one resident tile, a memory-budgeted one is
// spilled tiles, and each method has one implementation for both. A
// SimilaritySearch is built once per target (the expensive part: the
// LSH/HNSW index) and then queried two ways:
//   * SearchInto — the batch path: score a block of source rows,
//     accumulate per-row top-k into a SparseSimMatrix;
//   * QueryTopK — the serving path: answer one query vector, now, on
//     the calling thread.
// Every strategy keeps the library's determinism contract: exact search
// is bit-identical regardless of tiling/threads, approximate search
// (LSH, HNSW) produces a deterministic candidate set whose kept entries
// carry exact scores, so swapping strategies changes recall and speed,
// never the correctness of any entry that is returned.
#ifndef LARGEEA_SIM_SIMILARITY_SEARCH_H_
#define LARGEEA_SIM_SIMILARITY_SEARCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/la/matrix.h"
#include "src/sim/hnsw.h"
#include "src/sim/lsh.h"
#include "src/sim/sparse_sim.h"
#include "src/sim/topk_search.h"
#include "src/stream/tile_store.h"

namespace largeea {

/// Strategy selection for MakeSimilaritySearch.
struct SimilaritySearchOptions {
  TopKOptions topk;
  /// Approximate candidates from a random-hyperplane LSH index instead
  /// of scoring every target row (the DBP1M-tier setting).
  bool use_lsh = false;
  LshOptions lsh;
  /// Spilled targets: prefetch the next tile while the current one is
  /// read.
  bool prefetch = true;
};

/// Top-k search against a fixed target set. Implementations are
/// immutable after construction. SearchInto may be called from one
/// thread at a time (it parallelises internally on the par:: pool);
/// QueryTopK is thread-safe and may be called concurrently with itself
/// and with SearchInto — the serving layer depends on that.
class SimilaritySearch {
 public:
  virtual ~SimilaritySearch() = default;

  /// Scores `source` rows against the target set and accumulates the
  /// top-k per row into `out` (row ids via `row_ids`, column ids fixed
  /// at construction). Accumulation composes: calling with disjoint
  /// source blocks equals one call with their concatenation.
  virtual void SearchInto(const MatrixRowRange& source,
                          std::span<const EntityId> row_ids,
                          SparseSimMatrix& out) const = 0;

  /// Answers one query vector (length = target dim) with the top-k
  /// target entries, writing {column entity id, exact score} pairs into
  /// `out` (cleared first) in the order of a SearchInto row: score
  /// descending, then column id ascending. Runs entirely on the
  /// calling thread — no pool fan-out — so concurrent callers scale
  /// with their own thread count.
  virtual void QueryTopK(std::span<const float> query, int32_t k,
                         std::vector<SimEntry>& out) const = 0;
};

/// Exact search, or LSH when `options.use_lsh` (index built here, one
/// tile at a time), over a complete tiled target. `col_ids[j]` is the
/// entity id of target row j. The caller keeps `col_ids`, and a
/// borrowed target or its TileStore, alive for the search's lifetime.
std::unique_ptr<SimilaritySearch> MakeSimilaritySearch(
    stream::TileMatrix target, std::span<const EntityId> col_ids,
    const SimilaritySearchOptions& options);

/// Wraps an already-built HNSW graph (e.g. deserialised from a serve
/// index artifact) as a SimilaritySearch, so the serving layer shares
/// the batch interface without rebuilding the graph. `index` is
/// borrowed — the caller keeps it (and `target`, which it was built
/// over with `options.topk.metric`) alive for the search's lifetime.
/// HNSW walks the whole matrix, so its target is always resident.
std::unique_ptr<SimilaritySearch> MakeHnswSimilaritySearch(
    const Matrix& target, std::span<const EntityId> col_ids,
    const SimilaritySearchOptions& options, const HnswIndex& index);

}  // namespace largeea

#endif  // LARGEEA_SIM_SIMILARITY_SEARCH_H_
