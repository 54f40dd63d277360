// The LargeEA pipeline expressed as an operator DAG (DESIGN.md §14).
//
// BuildLargeEaGraph decomposes Algorithm 1 into nine operators —
//
//   name_semantic ─┐
//                  ├─ name_fuse ── name_augmentation ─┐
//   name_string ──┘                                   │
//                                 seed_augmentation ──┴─ (ψ')
//                                        │
//                                    partition ── structure_train ─┐
//                                                                  │
//                              name_fuse ──────────────── fusion ──┴─ eval
//
// — wired so the two channels' independent prefixes (the whole name
// string/semantic computation vs. nothing-to-wait-for structure work)
// overlap: with augmentation disabled (or the name channel ablated)
// ψ' needs no name-channel output, so the structure channel launches
// immediately and runs concurrently with SENS/STNS.
//
// This is the pipeline's only executor: RunLargeEa builds a streaming
// context and a checkpoint manager and delegates here. At
// max_concurrency 1 the scheduler replays the nodes in id order on one
// thread, which is the serial reference every wider schedule is proven
// bit-identical against (tests/dag_test.cc). Sharded training
// (src/shard/) is not a separate pipeline either: it is a
// StructureTrainer the structure_train node calls before merging.
#ifndef LARGEEA_DAG_PIPELINE_DAG_H_
#define LARGEEA_DAG_PIPELINE_DAG_H_

#include "src/core/large_ea.h"
#include "src/dag/scheduler.h"
#include "src/rt/checkpoint.h"
#include "src/stream/stream_context.h"

namespace largeea::dag {

/// Runs the full pipeline as a scheduled operator graph. The result —
/// `fused`, the metrics, and every checkpoint artifact — is bit-for-bit
/// the same at any `max_concurrency` (1 = serial order) and any memory
/// budget. `checkpoint` must come from MakePipelineCheckpointManager so
/// per-node artifacts carry per-node fingerprints; `stream_ctx` may be
/// null (unbudgeted). A non-null `train_batches` runs inside the
/// structure_train node before the batch blocks are merged.
StatusOr<LargeEaResult> RunLargeEaPipeline(
    const EaDataset& dataset, const LargeEaOptions& options,
    rt::CheckpointManager& checkpoint, stream::StreamContext* stream_ctx,
    int32_t max_concurrency, const StructureTrainer& train_batches);

}  // namespace largeea::dag

#endif  // LARGEEA_DAG_PIPELINE_DAG_H_
