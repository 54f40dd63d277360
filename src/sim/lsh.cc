#include "src/sim/lsh.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/la/ops.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace largeea {

LshIndex::LshIndex(int32_t dim, const LshOptions& options,
                   int64_t expected_rows)
    : dim_(dim), options_(options) {
  LARGEEA_CHECK_GT(options.num_tables, 0);
  LARGEEA_CHECK_GT(options.bits_per_table, 0);
  LARGEEA_CHECK_LE(options.bits_per_table, 32);
  staged_keys_.reserve(expected_rows * options.num_tables);
  // Hyperplanes depend only on (seed, dim), so one-shot and incremental
  // builds of the same data hash identically.
  Rng rng(options.seed);
  planes_ = Matrix(static_cast<int64_t>(options.num_tables) *
                       options.bits_per_table,
                   dim_);
  planes_.GaussianInit(rng, 1.0f);
}

LshIndex::LshIndex(const Matrix& data, const LshOptions& options)
    : LshIndex(static_cast<int32_t>(data.cols()), options, data.rows()) {
  obs::Span build_span("lsh/build_index");
  build_span.AddAttr("num_tables", static_cast<int64_t>(options.num_tables));
  build_span.AddAttr("bits_per_table",
                     static_cast<int64_t>(options.bits_per_table));
  for (int32_t row = 0; row < data.rows(); ++row) {
    Insert(row, data.Row(row));
  }
  FinishBuild();
}

void LshIndex::Insert(int32_t row, const float* vec) {
  LARGEEA_CHECK(!sealed_);
  LARGEEA_CHECK_EQ(row, num_rows_);
  ++num_rows_;
  for (int32_t t = 0; t < options_.num_tables; ++t) {
    staged_keys_.push_back(BucketKey(vec, t));
  }
}

void LshIndex::FinishBuild() {
  if (sealed_) return;
  sealed_ = true;
  const int32_t num_tables = options_.num_tables;
  // Bucket-occupancy histogram: the paper's Fig. 4 linearity argument
  // rests on occupancy staying near-constant as the dataset grows.
  obs::Histogram& occupancy = obs::MetricsRegistry::Get().GetHistogram(
      "lsh.bucket_occupancy",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
  tables_.resize(num_tables);
  std::vector<int32_t> order(num_rows_);
  for (int32_t t = 0; t < num_tables; ++t) {
    const auto key_of = [&](int32_t row) {
      return staged_keys_[static_cast<int64_t>(row) * num_tables + t];
    };
    // A stable sort of the ascending row ids by key leaves every
    // bucket's members ascending.
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return key_of(a) < key_of(b);
    });
    Table& table = tables_[t];
    table.members.reserve(num_rows_);
    for (const int32_t row : order) {
      if (table.keys.empty() || table.keys.back() != key_of(row)) {
        table.keys.push_back(key_of(row));
        table.offsets.push_back(static_cast<int32_t>(table.members.size()));
      }
      table.members.push_back(row);
    }
    table.offsets.push_back(static_cast<int32_t>(table.members.size()));
    for (size_t b = 0; b < table.keys.size(); ++b) {
      occupancy.Observe(
          static_cast<double>(table.offsets[b + 1] - table.offsets[b]));
    }
  }
  std::vector<uint32_t>().swap(staged_keys_);
}

uint32_t LshIndex::BucketKey(const float* vec, int32_t table) const {
  uint32_t key = 0;
  const int64_t base =
      static_cast<int64_t>(table) * options_.bits_per_table;
  for (int32_t b = 0; b < options_.bits_per_table; ++b) {
    if (Dot(planes_.Row(base + b), vec, dim_) >= 0.0f) {
      key |= (1u << b);
    }
  }
  return key;
}

template <typename Fn>
void LshIndex::ForEachProbedMember(const float* vec, Fn&& fn) const {
  LARGEEA_CHECK(sealed_);
  const auto visit = [&](const Table& table, uint32_t key) {
    const auto it =
        std::lower_bound(table.keys.begin(), table.keys.end(), key);
    if (it == table.keys.end() || *it != key) return;
    const size_t bucket = static_cast<size_t>(it - table.keys.begin());
    const int32_t* members = table.members.data();
    for (int32_t m = table.offsets[bucket]; m < table.offsets[bucket + 1];
         ++m) {
      fn(members[m]);
    }
  };
  for (int32_t t = 0; t < options_.num_tables; ++t) {
    const uint32_t key = BucketKey(vec, t);
    visit(tables_[t], key);
    if (options_.probe_radius >= 1) {
      // Multiprobe: buckets whose key differs in exactly one bit.
      for (int32_t b = 0; b < options_.bits_per_table; ++b) {
        visit(tables_[t], key ^ (1u << b));
      }
    }
  }
  // One relaxed add per query — negligible next to the bucket scans.
  obs::MetricsRegistry::Get().GetCounter("lsh.queries").Increment();
}

void LshIndex::Query(const float* vec,
                     std::vector<int32_t>& candidates) const {
  // Bit-marking dedup: reading the set bits back in word order yields
  // the candidates ascending, with no sort.
  std::vector<uint64_t> seen((static_cast<size_t>(num_rows()) + 63) / 64);
  ForEachProbedMember(vec, [&](int32_t row) {
    seen[row >> 6] |= uint64_t{1} << (row & 63);
  });
  candidates.clear();
  for (size_t w = 0; w < seen.size(); ++w) {
    for (uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      candidates.push_back(static_cast<int32_t>(w * 64) +
                           std::countr_zero(bits));
    }
  }
}

void LshIndex::MarkCandidates(const float* vec, uint32_t bit,
                              std::span<uint32_t> mask) const {
  LARGEEA_CHECK_EQ(mask.size(), static_cast<size_t>(num_rows()));
  uint32_t* words = mask.data();
  ForEachProbedMember(vec, [&](int32_t row) { words[row] |= bit; });
}

}  // namespace largeea
