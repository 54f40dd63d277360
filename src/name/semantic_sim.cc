#include "src/name/semantic_sim.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/sim/similarity_search.h"
#include "src/stream/stream_context.h"

namespace largeea {

SparseSimMatrix ComputeSemanticSimilarity(const KnowledgeGraph& source,
                                          const KnowledgeGraph& target,
                                          const SensOptions& options,
                                          stream::StreamContext* stream_ctx) {
  SemanticEncoder encoder(options.encoder);
  if (options.use_idf) encoder.FitIdf({&source, &target});

  SparseSimMatrix m_se(source.num_entities(), target.num_entities(),
                       options.top_k);
  SimilaritySearchOptions search_options{
      .topk = {.k = options.top_k, .metric = options.metric},
      .use_lsh = options.use_lsh,
      .lsh = options.lsh,
  };

  // In memory the target embeddings are one resident tile and the
  // source one block. Under a budget both are cut into budget-sized
  // tiles: target tiles spill to the store and source blocks are encoded
  // on the fly, so neither whole-graph embedding matrix ever exists.
  // Per-name encoding and order-independent top-k make the result
  // bit-identical either way.
  const int64_t dim = encoder.dim();
  stream::TileStore* store = nullptr;
  int64_t tile_rows = std::max<int64_t>(
      {1, source.num_entities(), target.num_entities()});
  if (stream_ctx != nullptr) {
    store = &stream_ctx->store();
    tile_rows = stream_ctx->budget().TileRowsFor(
        target.num_entities(), dim * static_cast<int64_t>(sizeof(float)));
    search_options.prefetch = stream_ctx->options().prefetch;
  }
  stream::TileMatrix tiles(store, target.num_entities(), dim, tile_rows);
  for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
    tiles.Append(encoder.EncodeNameRange(
        target, static_cast<EntityId>(tiles.TileBegin(t)),
        static_cast<EntityId>(tiles.TileEnd(t))));
  }
  std::vector<EntityId> col_ids(target.num_entities());
  std::iota(col_ids.begin(), col_ids.end(), 0);
  const std::unique_ptr<SimilaritySearch> search =
      MakeSimilaritySearch(std::move(tiles), col_ids, search_options);

  for (int64_t sb = 0; sb < source.num_entities(); sb += tile_rows) {
    const int64_t se =
        std::min<int64_t>(sb + tile_rows, source.num_entities());
    const Matrix block = encoder.EncodeNameRange(
        source, static_cast<EntityId>(sb), static_cast<EntityId>(se));
    std::vector<EntityId> row_ids(se - sb);
    std::iota(row_ids.begin(), row_ids.end(), static_cast<EntityId>(sb));
    search->SearchInto(block, row_ids, m_se);
  }
  m_se.RefreshMemoryTracking();
  return m_se;
}

}  // namespace largeea
