// Kernel grain selection (DESIGN.md §13): how many rows or elements each
// parallel chunk of a hot kernel covers, as plain functions of the
// problem shape and the detected cache sizes.
//
// Most grains here are reduction-order-neutral: the kernel behind them
// writes only chunk-private or element-private state (DESIGN.md §8), so
// any grain produces the same bytes and the value only decides how the
// work is spread over the pool. Two functions are different —
// SinkhornColChunks and GemmTransposeAGrain pick the float merge order
// of a reduction, so they depend on shape alone, never on the cache
// sizes or the thread count.
#ifndef LARGEEA_PAR_GRAIN_H_
#define LARGEEA_PAR_GRAIN_H_

#include <cstdint>

namespace largeea::par {

/// Per-core data cache sizes, detected once per process (sysconf on
/// Linux; 32KB/1MB fallbacks when the OS reports nothing).
struct CacheSizes {
  int64_t l1_bytes = 32 * 1024;
  int64_t l2_bytes = 1024 * 1024;
};
const CacheSizes& DetectedCacheSizes();

/// Target chunk count per job for the order-neutral grain formulas.
inline constexpr int64_t kTargetChunks = 64;

// --- Order-neutral grains: ~kTargetChunks chunks per job.

/// Gemm/GemmTransposeB row grain, a 16-row multiple.
int64_t GemmRowGrain(int64_t m);
/// Gemm k-panel depth: all of k when B (k×n floats) fits in
/// `cache_bytes`, else a half-cache worth of B rows clamped to [16, 256].
int64_t GemmPanel(int64_t k, int64_t n,
                  int64_t cache_bytes = DetectedCacheSizes().l2_bytes);
/// GemmTransposeB B-row tile width: a tile of k-float rows in half of L1.
int64_t GemmTileCols(int64_t k,
                     int64_t cache_bytes = DetectedCacheSizes().l1_bytes);
/// Axpy/Scale/Relu element grain, at least 16K elements.
int64_t ElemGrain(int64_t size);
/// L2NormalizeRows row grain.
int64_t NormRowGrain(int64_t rows);
/// Sinkhorn row-normalise grain.
int64_t SinkhornRowGrain(int64_t rows);
/// Top-k source-row grain.
int64_t TopKRowGrain(int64_t rows);

// --- Reduction-order grains: pure functions of shape.

/// Sinkhorn column-sum partial count (~256K entries each, in [2, 32]).
int64_t SinkhornColChunks(int64_t num_entries);
/// GemmTransposeA row grain: at most 16 k×n partials, at least 64 rows.
int64_t GemmTransposeAGrain(int64_t m);

}  // namespace largeea::par

#endif  // LARGEEA_PAR_GRAIN_H_
