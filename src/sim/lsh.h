// Random-hyperplane locality-sensitive hashing over embedding rows.
//
// Each table projects a vector onto `bits_per_table` random hyperplanes
// and uses the sign pattern as a bucket key; vectors with high cosine
// similarity collide with high probability. Queries return the union of
// bucket members across tables as candidates for exact re-scoring.
#ifndef LARGEEA_SIM_LSH_H_
#define LARGEEA_SIM_LSH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/la/matrix.h"

namespace largeea {

struct LshOptions {
  int32_t num_tables = 24;
  int32_t bits_per_table = 10;
  /// Multiprobe radius: 0 probes only the exact bucket, 1 additionally
  /// probes every bucket at Hamming distance 1 (bits_per_table extra
  /// probes per table), trading query time for much better recall.
  int32_t probe_radius = 1;
  uint64_t seed = 1;
};

/// LSH index over the rows of a data matrix. Immutable once built —
/// either in one shot from a full matrix, or incrementally (for the
/// streaming layer, which only ever holds one tile of the data at a
/// time). Both build paths produce identical indexes for identical
/// data: the hyperplanes depend only on (seed, dim), and FinishBuild()
/// seals the same (row, key) pairs into the same flat layout either way.
class LshIndex {
 public:
  /// Builds the index over `data` (rows are points). The matrix is not
  /// retained; only bucket membership is stored.
  LshIndex(const Matrix& data, const LshOptions& options);

  /// Incremental build: creates an empty index over `dim`-dimensional
  /// points, with staging reserved for `expected_rows` inserts. Call
  /// Insert() for rows 0, 1, 2, ... in order, then FinishBuild() before
  /// the first Query().
  LshIndex(int32_t dim, const LshOptions& options,
           int64_t expected_rows = 0);

  /// Adds row `row` with vector `vec` (length dim()). `row` must equal
  /// num_rows(), and FinishBuild() must not have run yet.
  void Insert(int32_t row, const float* vec);

  /// Seals the index into one flat layout per table (sorted unique
  /// keys, CSR offsets, members ascending within each bucket) and
  /// records the bucket-occupancy histogram. Idempotent; the one-shot
  /// constructor calls it.
  void FinishBuild();

  /// Replaces `candidates` with the ids of all rows colliding with `vec`
  /// (dimension must match) in at least one probed bucket, sorted
  /// ascending and unique. Requires FinishBuild().
  void Query(const float* vec, std::vector<int32_t>& candidates) const;

  /// Block form of Query() for the batch kernels: ORs `bit` into
  /// `mask[r]` for every candidate row `r` of `vec`. `mask` holds one
  /// word per indexed row (size num_rows()), so up to 32 queries share
  /// one mask, and an ascending sweep over it reads each query's
  /// candidate set in the order Query() returns it. Requires
  /// FinishBuild().
  void MarkCandidates(const float* vec, uint32_t bit,
                      std::span<uint32_t> mask) const;

  int32_t dim() const { return dim_; }
  /// Rows inserted so far.
  int32_t num_rows() const { return num_rows_; }

 private:
  /// One sealed hash table: bucket `i` has key `keys[i]` and members
  /// `members[offsets[i] .. offsets[i + 1])`, ascending.
  struct Table {
    std::vector<uint32_t> keys;
    std::vector<int32_t> offsets;
    std::vector<int32_t> members;
  };

  uint32_t BucketKey(const float* vec, int32_t table) const;

  /// Calls `fn(row)` for every member of every probed bucket of `vec`;
  /// a row colliding in several buckets is visited once per bucket.
  template <typename Fn>
  void ForEachProbedMember(const float* vec, Fn&& fn) const;

  int32_t dim_ = 0;
  LshOptions options_;
  int32_t num_rows_ = 0;
  bool sealed_ = false;
  /// Hyperplane normals: one matrix of shape
  /// (num_tables * bits_per_table) x dim, row-major by (table, bit).
  Matrix planes_;
  /// Build staging until FinishBuild(): every inserted row's keys,
  /// row-major as (row, table).
  std::vector<uint32_t> staged_keys_;
  std::vector<Table> tables_;
};

}  // namespace largeea

#endif  // LARGEEA_SIM_LSH_H_
