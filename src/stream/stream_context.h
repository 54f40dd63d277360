// Per-run handle bundling the streaming layer's pieces.
//
// RunLargeEa creates one StreamContext when the resolved memory budget
// is positive and threads it (as a nullable pointer) through the phases
// that know how to stream — semantic top-k, NFF fusion, final fusion. A
// null context means "run in memory"; either way the results are
// byte-for-byte the same.
#ifndef LARGEEA_STREAM_STREAM_CONTEXT_H_
#define LARGEEA_STREAM_STREAM_CONTEXT_H_

#include "src/stream/memory_budget.h"
#include "src/stream/stream_options.h"
#include "src/stream/tile_store.h"

namespace largeea::stream {

/// Owns the budget and the spill store for one pipeline run. The
/// options must already be resolved (ResolveStreamOptions) and enabled.
class StreamContext {
 public:
  explicit StreamContext(const StreamOptions& resolved)
      : options_(resolved),
        budget_(resolved),
        store_(budget_, resolved.spill_dir) {}

  const StreamOptions& options() const { return options_; }
  const MemoryBudget& budget() const { return budget_; }
  TileStore& store() { return store_; }

 private:
  StreamOptions options_;
  MemoryBudget budget_;
  TileStore store_;
};

}  // namespace largeea::stream

#endif  // LARGEEA_STREAM_STREAM_CONTEXT_H_
