// perfbench_harness — the benchmark's in-process helper.
//
//   perfbench_harness gen --tier dbp1m|ids100k --pair enfr|ende
//       --scale X --seed N --out-dir DIR
//     Writes source/target/train/test TSVs (what `largeea_cli generate`
//     writes, but seeded: the tier factory's default seed plus N, so
//     N = 0 reproduces `generate`) and truth.tsv (every ground-truth
//     pair), and prints one JSON line with the seed and sizes.
//
//   perfbench_harness trace --source S --target T --seeds R --test E
//       --truth TRUTH --index-out X.lea --out layers.json
//       [--serve-queries N] [any largeea::Config flag]
//     Calls each layer's public entry point in pipeline order on the
//     same inputs and configuration `largeea_cli run` would use, and
//     records one span (name, start, end, parent) around every call.
//     Spans stay in memory and are written with the per-layer figures
//     when the run ends. Then builds, saves and loads the serve index
//     from the fused matrix and times QueryEngine::Execute in process.
//     The serial call order does not overlap the channels the way the
//     DAG executor does; run.py reports that difference against the
//     untraced `run` wall time as core.unattributed_s.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/core/config.h"
#include "src/core/evaluator.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/core/structure_channel.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/dataset.h"
#include "src/kg/kg_io.h"
#include "src/name/data_augmentation.h"
#include "src/name/semantic_sim.h"
#include "src/name/string_sim.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/partition/metis_cps.h"
#include "src/partition/mini_batch.h"
#include "src/partition/overlap.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/stream/stream_context.h"

using namespace largeea;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  return 1;
}

int CmdGen(const Flags& flags) {
  const std::string tier = flags.GetString("tier", "");
  const LanguagePair pair = flags.GetString("pair", "enfr") == "ende"
                                ? LanguagePair::kEnDe
                                : LanguagePair::kEnFr;
  const double scale = flags.GetDouble("scale", 1.0);
  BenchmarkSpec spec;
  if (tier == "dbp1m") {
    spec = Dbp1mSpec(pair, scale);
  } else if (tier == "ids100k") {
    spec = Ids100kSpec(pair, scale);
  } else {
    return Fail("--tier must be dbp1m or ids100k");
  }
  const int64_t seed = flags.GetInt("seed", 0);
  spec.seed += static_cast<uint64_t>(seed);
  const std::string dir = flags.GetString("out-dir", "");
  if (dir.empty()) return Fail("--out-dir is required");

  const EaDataset d = GenerateBenchmark(spec);
  EntityPairList truth = d.split.train;
  truth.insert(truth.end(), d.split.test.begin(), d.split.test.end());
  if (!SaveTriples(d.source, dir + "/source.tsv").ok() ||
      !SaveTriples(d.target, dir + "/target.tsv").ok() ||
      !SaveAlignment(d.split.train, d.source, d.target, dir + "/train.tsv")
           .ok() ||
      !SaveAlignment(d.split.test, d.source, d.target, dir + "/test.tsv")
           .ok() ||
      !SaveAlignment(truth, d.source, d.target, dir + "/truth.tsv").ok()) {
    return Fail("cannot write the generated files under " + dir);
  }
  obs::JsonWriter w;
  w.BeginObject()
      .Key("dataset").String(d.name)
      .Key("seed").Int(seed)
      .Key("spec_seed").Int(static_cast<int64_t>(spec.seed))
      .Key("scale").Double(scale)
      .Key("source_entities").Int(d.source.num_entities())
      .Key("target_entities").Int(d.target.num_entities())
      .Key("source_triples").Int(d.source.num_triples())
      .Key("target_triples").Int(d.target.num_triples())
      .Key("train_pairs").Int(static_cast<int64_t>(d.split.train.size()))
      .Key("test_pairs").Int(static_cast<int64_t>(d.split.test.size()))
      .EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// In-memory span log: one record per timed call into a layer.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::string parent;
    double start_s;
    double end_s;
  };

  // Runs `fn` inside a span named `name` under `parent`.
  template <typename Fn>
  auto Time(const std::string& name, const std::string& parent, Fn&& fn) {
    const double start = Now();
    struct Close {
      SpanLog* log;
      std::string name, parent;
      double start;
      ~Close() { log->spans_.push_back(Span{name, parent, start, log->Now()}); }
    } close{this, name, parent, start};
    return fn();
  }

  // Total seconds of the spans called `name`.
  double Seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end_s - s.start_s;
    }
    return total;
  }

  // Total seconds of the spans directly under `parent`.
  double ChildSeconds(const std::string& parent) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == parent) total += s.end_s - s.start_s;
    }
    return total;
  }

  void Write(obs::JsonWriter& w) const {
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject()
          .Key("name").String(s.name)
          .Key("parent").String(s.parent)
          .Key("start_s").Double(s.start_s)
          .Key("end_s").Double(s.end_s)
          .EndObject();
    }
    w.EndArray();
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// Share of `pairs` whose true target appears anywhere in row `source`.
double RowRecall(const SparseSimMatrix& m, const EntityPairList& pairs) {
  if (pairs.empty()) return 0.0;
  int64_t hits = 0;
  for (const EntityPair& p : pairs) {
    for (const SimEntry& e : m.Row(p.source)) {
      if (e.column == p.target) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(pairs.size());
}

double PercentileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

int CmdTrace(const Flags& flags) {
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  Config config = std::move(parsed).value();
  if (const Status s = config.ApplyRuntime(); !s.ok()) {
    return Fail(s.ToString());
  }
  SpanLog log;
  obs::JsonWriter w;
  w.BeginObject();

  EaDatasetPaths paths;
  paths.source_triples = flags.GetString("source", "");
  paths.target_triples = flags.GetString("target", "");
  paths.train_pairs = flags.GetString("seeds", "");
  paths.test_pairs = flags.GetString("test", "");
  TsvReadOptions io;
  io.strict = config.strict_io;
  auto loaded = log.Time("kg.load", "pipeline", [&] {
    return LoadEaDataset(paths, io, "cli");
  });
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const EaDataset dataset = std::move(loaded).value();
  const KnowledgeGraph& source = dataset.source;
  const KnowledgeGraph& target = dataset.target;
  auto truth = LoadAlignment(flags.GetString("truth", ""), source, target);
  if (!truth.ok()) return Fail("--truth: " + truth.status().ToString());

  // The CLI's auto-LSH rule, so the configuration matches `run`.
  if (!flags.Has("use-lsh") &&
      std::max(source.num_entities(), target.num_entities()) > 8000) {
    config.pipeline.name_channel.nff.sens.use_lsh = true;
  }
  const LargeEaOptions& options = config.pipeline;
  const NameChannelOptions& n = options.name_channel;
  const StructureChannelOptions& s = options.structure_channel;

  const stream::StreamOptions stream_options =
      stream::ResolveStreamOptions(options.stream);
  std::unique_ptr<stream::StreamContext> stream_ctx;
  if (stream::StreamingEnabled(stream_options)) {
    stream_ctx = std::make_unique<stream::StreamContext>(stream_options);
  }
  const bool consume =
      stream_ctx != nullptr && stream_ctx->options().release_inputs;

  // --- name: SENS, STNS, NFF fusion, pseudo seeds. ---
  SparseSimMatrix semantic = log.Time("name.semantic", "pipeline", [&] {
    return ComputeSemanticSimilarity(source, target, n.nff.sens,
                                     stream_ctx.get());
  });
  const double semantic_recall = RowRecall(semantic, dataset.split.test);
  SparseSimMatrix string_sim = log.Time("name.string", "pipeline", [&] {
    return ComputeStringSimilarity(source, target, n.nff.stns);
  });
  SparseSimMatrix name_fused = log.Time("sim.fuse", "pipeline", [&] {
    return consume ? SparseSimMatrix::FuseStreamed(
                         std::move(semantic), std::move(string_sim), 1.0f,
                         n.nff.string_weight, n.nff.max_entries_per_row)
                   : semantic.Fuse(string_sim, 1.0f, n.nff.string_weight,
                                   n.nff.max_entries_per_row);
  });
  EntityPairList pseudo;
  if (n.enable_augmentation) {
    pseudo = log.Time("name.augment", "pipeline", [&] {
      return GeneratePseudoSeeds(name_fused, dataset.split.train,
                                 n.augmentation_margin);
    });
  }
  EntityPairList seeds = dataset.split.train;
  seeds.insert(seeds.end(), pseudo.begin(), pseudo.end());

  // --- partition: METIS-CPS, as the structure channel configures it. ---
  MetisCpsOptions cps = s.metis_cps;
  cps.num_batches = s.num_batches;
  cps.seed = s.seed;
  MetisCpsReport cps_report;
  auto batches = log.Time("partition", "pipeline", [&] {
    return MetisCpsPartition(source, target, seeds, cps, &cps_report);
  });
  if (!batches.ok()) return Fail(batches.status().ToString());
  MiniBatchSet batch_set = std::move(batches).value();
  if (s.overlap_degree > 1) {
    batch_set = log.Time("partition", "pipeline", [&] {
      return MakeOverlappingBatches(batch_set, source, target,
                                    s.overlap_degree);
    });
  }
  const double seed_retention = SameBatchFraction(
      batch_set, seeds, source.num_entities(), target.num_entities());
  const auto trainable = static_cast<int32_t>(std::count_if(
      batch_set.begin(), batch_set.end(), StructureBatchTrainable));

  // --- nn (through core's structure channel): per-batch training. ---
  auto trained = log.Time("nn.train", "pipeline", [&] {
    return TrainStructureChannel(source, target, std::move(batch_set), s);
  });
  if (!trained.ok()) return Fail(trained.status().ToString());
  StructureChannelResult structure = std::move(trained).value();

  // --- sim: channel fusion M = M_s + M_n; then evaluation. ---
  SparseSimMatrix fused = log.Time("sim.fuse", "pipeline", [&] {
    return consume ? SparseSimMatrix::FuseStreamed(
                         std::move(structure.similarity),
                         std::move(name_fused), options.structure_weight,
                         options.name_weight, options.fused_top_k)
                   : structure.similarity.Fuse(
                         name_fused, options.structure_weight,
                         options.name_weight, options.fused_top_k);
  });
  const EvalMetrics metrics = log.Time("core.evaluate", "pipeline", [&] {
    return Evaluate(fused, dataset.split.test);
  });
  auto& registry = obs::MetricsRegistry::Get();

  w.Key("threads").Int(config.threads);
  w.Key("layers").BeginObject()
      .Key("kg.load_s").Double(log.Seconds("kg.load"))
      .Key("name.semantic_s").Double(log.Seconds("name.semantic"))
      .Key("name.string_s").Double(log.Seconds("name.string"))
      .Key("name.semantic_recall").Double(semantic_recall)
      .Key("name.pseudo_seeds").Int(static_cast<int64_t>(pseudo.size()))
      .Key("name.pseudo_seed_precision")
      .Double(PseudoSeedPrecision(pseudo, *truth))
      .Key("sim.fuse_s").Double(log.Seconds("sim.fuse"))
      .Key("partition.s").Double(log.Seconds("partition"))
      .Key("partition.seed_retention").Double(seed_retention)
      .Key("partition.edge_cut_rate")
      .Double((cps_report.source_edge_cut_rate +
               cps_report.target_edge_cut_rate) / 2)
      .Key("nn.train_s").Double(log.Seconds("nn.train"))
      .Key("nn.epoch_s")
      .Double(registry.GetHistogram("structure.epoch_seconds").Percentile(0.5))
      .Key("nn.batches_trained")
      .Int(trainable - structure.batches_dropped)
      .Key("nn.batches_dropped").Int(structure.batches_dropped)
      .EndObject();
  w.Key("pipeline_calls_s").Double(log.ChildSeconds("pipeline"));
  w.Key("eval").BeginObject()
      .Key("hits_at_1").Double(metrics.hits_at_1)
      .Key("mrr").Double(metrics.mrr)
      .EndObject();

  // --- serve: build, save, load, then Execute in process. ---
  const std::string index_path = flags.GetString("index-out", "");
  if (!index_path.empty()) {
    std::vector<std::string> source_names, target_names;
    for (int32_t e = 0; e < source.num_entities(); ++e) {
      source_names.push_back(source.EntityName(e));
    }
    for (int32_t e = 0; e < target.num_entities(); ++e) {
      target_names.push_back(target.EntityName(e));
    }
    // The index-build defaults (encoder/metric from the pipeline, HNSW
    // 12 neighbours, ef 80/64), so the artifact matches the CLI's.
    serve::ServeIndexOptions serve_options;
    serve_options.encoder = n.nff.sens.encoder;
    serve_options.metric = n.nff.sens.metric;
    serve_options.hnsw.max_neighbors = 12;
    serve_options.hnsw.ef_construction = 80;
    serve_options.hnsw.ef_search = 64;
    const uint64_t fingerprint =
        ComputePipelineFingerprints(dataset, options).fused;
    auto index = log.Time("serve.build", "serve", [&] {
      return serve::ServeIndex::Build(fused, source_names, target_names,
                                      fingerprint, serve_options);
    });
    if (!index.ok()) return Fail(index.status().ToString());
    const Status saved = log.Time("serve.save", "serve", [&] {
      return (*index)->Save(index_path);
    });
    if (!saved.ok()) return Fail(saved.ToString());
    serve::IndexManager manager;
    const Status swapped = log.Time("serve.load", "serve", [&] {
      return manager.LoadAndSwap(index_path);
    });
    if (!swapped.ok()) return Fail(swapped.ToString());

    // The serve mix (70% entity, 30% name), one query at a time.
    const serve::QueryEngine engine(&manager);
    const auto queries = flags.GetInt("serve-queries", 4000);
    std::vector<double> entity_us, name_us, mix_us;
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    int64_t failed = 0;
    for (int64_t i = 0; i < queries; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t r = state >> 33;
      serve::QueryRequest request;
      request.k = 5;
      const bool entity = (r % 10) < 7;
      const auto entities = static_cast<uint64_t>(source.num_entities());
      const auto id = static_cast<int32_t>((r / 10) % entities);
      if (entity) {
        request.kind = serve::QueryRequest::Kind::kEntity;
        request.entity = id;
      } else {
        request.kind = serve::QueryRequest::Kind::kName;
        request.name = source.EntityName(id);
      }
      const auto t0 = std::chrono::steady_clock::now();
      const serve::QueryResponse response = engine.Execute(request);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (!response.status.ok()) ++failed;
      (entity ? entity_us : name_us).push_back(us);
      mix_us.push_back(us);
    }
    w.Key("serve").BeginObject()
        .Key("serve.build_s").Double(log.Seconds("serve.build"))
        .Key("serve.save_s").Double(log.Seconds("serve.save"))
        .Key("serve.load_s").Double(log.Seconds("serve.load"))
        .Key("serve.entity_us_p50").Double(PercentileOf(entity_us, 0.5))
        .Key("serve.entity_us_p99").Double(PercentileOf(entity_us, 0.99))
        .Key("serve.name_us_p50").Double(PercentileOf(name_us, 0.5))
        .Key("serve.name_us_p99").Double(PercentileOf(name_us, 0.99))
        .Key("serve.mix_us_p50").Double(PercentileOf(mix_us, 0.5))
        .Key("queries").Int(queries)
        .Key("failed").Int(failed)
        .EndObject();
  }
  w.Key("spans");
  log.Write(w);
  w.EndObject();

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::printf("%s\n", w.str().c_str());
  } else if (!obs::WriteStringToFile(out, w.str())) {
    return Fail("cannot write " + out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|trace [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (command == "gen") return CmdGen(flags);
  if (command == "trace") return CmdTrace(flags);
  std::fprintf(stderr, "perfbench_harness: unknown command '%s'\n",
               command.c_str());
  return 2;
}
