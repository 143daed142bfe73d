#include "core/freehgc.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "core/selection_util.h"
#include "metapath/metapath.h"
#include "obs/trace.h"

namespace freehgc::core {

namespace {

int32_t Budget(double ratio, int32_t count) {
  if (count == 0) return 0;
  return std::max<int32_t>(
      1, static_cast<int32_t>(std::lround(ratio * count)));
}

std::vector<int32_t> AllNodes(int32_t n) {
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = i;
  return out;
}

}  // namespace

Result<HeteroGraph> AssembleCondensedGraph(
    const HeteroGraph& g, const std::vector<TypeMapping>& mappings) {
  if (static_cast<int32_t>(mappings.size()) != g.NumNodeTypes()) {
    return Status::InvalidArgument("one mapping per node type required");
  }

  // New node counts and original->new membership lists per type.
  std::vector<std::vector<std::vector<int32_t>>> to_new(mappings.size());
  std::vector<int32_t> new_count(mappings.size(), 0);
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    const auto& m = mappings[static_cast<size_t>(t)];
    auto& map = to_new[static_cast<size_t>(t)];
    map.resize(static_cast<size_t>(g.NodeCount(t)));
    if (m.synthesized) {
      new_count[static_cast<size_t>(t)] =
          static_cast<int32_t>(m.members.size());
      for (size_t k = 0; k < m.members.size(); ++k) {
        for (int32_t orig : m.members[k]) {
          if (orig < 0 || orig >= g.NodeCount(t)) {
            return Status::OutOfRange("hyper-node member out of range");
          }
          map[static_cast<size_t>(orig)].push_back(
              static_cast<int32_t>(k));
        }
      }
      if (m.synthetic_features.rows() !=
          static_cast<int64_t>(m.members.size())) {
        return Status::InvalidArgument(
            "synthetic feature rows must match hyper-node count");
      }
    } else {
      new_count[static_cast<size_t>(t)] =
          static_cast<int32_t>(m.keep.size());
      for (size_t k = 0; k < m.keep.size(); ++k) {
        const int32_t orig = m.keep[k];
        if (orig < 0 || orig >= g.NodeCount(t)) {
          return Status::OutOfRange("keep id out of range");
        }
        if (!map[static_cast<size_t>(orig)].empty()) {
          return Status::InvalidArgument("duplicate keep id");
        }
        map[static_cast<size_t>(orig)].push_back(static_cast<int32_t>(k));
      }
    }
  }

  HeteroGraph out;
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    auto added =
        out.AddNodeType(g.TypeName(t), new_count[static_cast<size_t>(t)]);
    if (!added.ok()) return added.status();
  }

  for (RelationId r = 0; r < g.NumRelations(); ++r) {
    const Relation& rel = g.relation(r);
    const auto& src_map = to_new[static_cast<size_t>(rel.src_type)];
    const auto& dst_map = to_new[static_cast<size_t>(rel.dst_type)];
    std::vector<CooEntry> entries;
    for (int32_t a = 0; a < rel.adj.rows(); ++a) {
      const auto& new_rows = src_map[static_cast<size_t>(a)];
      if (new_rows.empty()) continue;
      auto idx = rel.adj.RowIndices(a);
      auto val = rel.adj.RowValues(a);
      for (size_t k = 0; k < idx.size(); ++k) {
        const auto& new_cols = dst_map[static_cast<size_t>(idx[k])];
        for (int32_t nr : new_rows) {
          for (int32_t nc : new_cols) {
            entries.push_back({nr, nc, val[k]});
          }
        }
      }
    }
    FREEHGC_ASSIGN_OR_RETURN(
        CsrMatrix adj,
        CsrMatrix::FromCoo(new_count[static_cast<size_t>(rel.src_type)],
                           new_count[static_cast<size_t>(rel.dst_type)],
                           std::move(entries)));
    auto added =
        out.AddRelation(rel.name, rel.src_type, rel.dst_type, std::move(adj));
    if (!added.ok()) return added.status();
  }

  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    const auto& m = mappings[static_cast<size_t>(t)];
    if (m.synthesized) {
      FREEHGC_RETURN_IF_ERROR(out.SetFeatures(t, m.synthetic_features));
    } else if (g.HasFeatures(t)) {
      FREEHGC_RETURN_IF_ERROR(
          out.SetFeatures(t, g.Features(t).GatherRows(m.keep)));
    }
  }

  const TypeId target = g.target_type();
  if (target >= 0) {
    const auto& m = mappings[static_cast<size_t>(target)];
    if (m.synthesized) {
      return Status::InvalidArgument("target type cannot be synthesized");
    }
    std::vector<int32_t> labels;
    labels.reserve(m.keep.size());
    for (int32_t v : m.keep) {
      labels.push_back(g.labels()[static_cast<size_t>(v)]);
    }
    FREEHGC_RETURN_IF_ERROR(
        out.SetTarget(target, std::move(labels), g.num_classes()));
    std::vector<int32_t> train(m.keep.size());
    for (size_t i = 0; i < m.keep.size(); ++i) {
      train[i] = static_cast<int32_t>(i);
    }
    FREEHGC_RETURN_IF_ERROR(out.SetSplit(std::move(train), {}, {}));
  }
  FREEHGC_RETURN_IF_ERROR(out.Validate());
  return out;
}

Result<CondensedResult> Condense(const HeteroGraph& g,
                                 const FreeHgcOptions& opts,
                                 exec::ExecContext* ctx,
                                 AdjacencyCache* cache) {
  if (cache == nullptr) {
    return Status::InvalidArgument("Condense needs an adjacency cache");
  }
  if (g.target_type() < 0) {
    return Status::FailedPrecondition("graph has no target type");
  }
  if (opts.ratio <= 0.0 || opts.ratio >= 1.0) {
    return Status::InvalidArgument("ratio must be in (0, 1)");
  }
  exec::ExecContext& ex = exec::Resolve(ctx);
  FREEHGC_TRACE_SPAN("condense");
  Timer timer;
  StageSeconds stages;
  const TypeId target = g.target_type();

  // General meta-paths generation model (Section IV-A).
  std::vector<MetaPath> paths;
  {
    ScopedTimer stage_timer(stages.metapath);
    FREEHGC_TRACE_SPAN("condense.metapath");
    paths = EnumerateMetaPaths(g, target, opts);
  }

  // --- Target type (Algorithm 1) ----------------------------------------
  const int32_t target_budget = Budget(opts.ratio, g.NodeCount(target));
  std::vector<int32_t> selected_target;
  {
    ScopedTimer stage_timer(stages.target);
    FREEHGC_TRACE_SPAN("condense.target");
    switch (opts.target_strategy) {
      case TargetStrategy::kCriterion: {
        selected_target = CondenseTargetNodes(
            g, paths, opts.max_row_nnz, target_budget, opts.target, *cache,
            /*scores_out=*/nullptr, &ex);
        break;
      }
      case TargetStrategy::kHerding: {
        // Class-balanced herding on raw target features (Variant#3).
        const auto budgets = PerClassBudget(g.labels(), g.train_index(),
                                            g.num_classes(), target_budget);
        for (int32_t c = 0; c < g.num_classes(); ++c) {
          const auto pool = PoolOfClass(g.labels(), g.train_index(), c);
          const auto picked = HerdingSelect(g.Features(target), pool,
                                            budgets[static_cast<size_t>(c)]);
          selected_target.insert(selected_target.end(), picked.begin(),
                                 picked.end());
        }
        std::sort(selected_target.begin(), selected_target.end());
        break;
      }
      case TargetStrategy::kRandom: {
        const auto budgets = PerClassBudget(g.labels(), g.train_index(),
                                            g.num_classes(), target_budget);
        for (int32_t c = 0; c < g.num_classes(); ++c) {
          const auto pool = PoolOfClass(g.labels(), g.train_index(), c);
          const auto picked = RandomSelect(
              pool, budgets[static_cast<size_t>(c)], opts.seed ^ (c + 1));
          selected_target.insert(selected_target.end(), picked.begin(),
                                 picked.end());
        }
        std::sort(selected_target.begin(), selected_target.end());
        break;
      }
    }
  }

  // --- Other types (Algorithm 2) ----------------------------------------
  const std::vector<TypeRole> roles = g.ClassifySchema();
  std::vector<TypeMapping> mappings(static_cast<size_t>(g.NumNodeTypes()));
  mappings[static_cast<size_t>(target)].keep = selected_target;

  // Fathers first (leaf synthesis depends on kept fathers).
  std::vector<std::pair<TypeId, const std::vector<int32_t>*>> kept_fathers;
  {
    ScopedTimer stage_timer(stages.father);
    FREEHGC_TRACE_SPAN("condense.father");
    std::vector<NimType> fathers;
    for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
      if (roles[static_cast<size_t>(t)] == TypeRole::kFather) {
        fathers.push_back({t, Budget(opts.ratio, g.NodeCount(t))});
      }
    }
    if (opts.father_strategy == FatherStrategy::kNim) {
      std::vector<std::vector<int32_t>> kept =
          CondenseFatherTypes(g, fathers, paths, opts.max_row_nnz,
                              selected_target, *cache, &ex);
      for (size_t i = 0; i < fathers.size(); ++i) {
        mappings[static_cast<size_t>(fathers[i].type)].keep =
            std::move(kept[i]);
      }
    } else {
      for (const NimType& f : fathers) {
        std::vector<int32_t>& keep =
            mappings[static_cast<size_t>(f.type)].keep;
        const std::vector<int32_t> all = AllNodes(g.NodeCount(f.type));
        keep = opts.father_strategy == FatherStrategy::kHerding
                   ? HerdingSelect(g.Features(f.type), all, f.budget)
                   : RandomSelect(all, f.budget,
                                  opts.seed ^ (0x5eedULL + f.type));
        std::sort(keep.begin(), keep.end());
      }
    }
    for (const NimType& f : fathers) {
      kept_fathers.emplace_back(f.type,
                                &mappings[static_cast<size_t>(f.type)].keep);
    }
  }

  // Leaves.
  {
    ScopedTimer stage_timer(stages.leaf);
    FREEHGC_TRACE_SPAN("condense.leaf");
    // ILM leaves to synthesize, and leaves that fall back to NIM.
    struct Synthesis {
      TypeId type;
      int32_t budget;
      std::vector<std::pair<TypeId, const std::vector<int32_t>*>> parents;
    };
    std::vector<Synthesis> syntheses;
    std::vector<NimType> fallbacks;
    for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
      if (roles[static_cast<size_t>(t)] != TypeRole::kLeaf) continue;
      const int32_t budget = Budget(opts.ratio, g.NodeCount(t));
      auto& mapping = mappings[static_cast<size_t>(t)];
      switch (opts.leaf_strategy) {
        case LeafStrategy::kIlm: {
          // A leaf's "fathers" are the kept types it is directly connected
          // to (for deep hierarchies like DBLP's term/venue under paper,
          // these are the Fig. 5 father types; for chains deeper than two
          // the previously condensed level plays the father role).
          std::vector<std::pair<TypeId, const std::vector<int32_t>*>> parents;
          for (const auto& kf : kept_fathers) {
            for (RelationId r = 0; r < g.NumRelations(); ++r) {
              if (g.relation(r).src_type == kf.first &&
                  g.relation(r).dst_type == t) {
                parents.push_back(kf);
                break;
              }
            }
          }
          if (parents.empty()) {
            // Leaf hangs directly under the root (no father in between).
            parents.emplace_back(target,
                                 &mappings[static_cast<size_t>(target)].keep);
          }
          // Synthesis produces roughly one hyper-node per kept parent; when
          // the budget forces heavy merging the blended hyper-nodes lose
          // more information than plain selection keeps (the paper does the
          // same on ACM: ILM for the author type, selection for the small
          // subject/term types). Fall back to NIM under extreme pressure.
          int64_t parent_count = 0;
          for (const auto& pk : parents) {
            parent_count += static_cast<int64_t>(pk.second->size());
          }
          if (budget * 4 < parent_count * 3) {
            fallbacks.push_back({t, budget});
          } else {
            syntheses.push_back({t, budget, std::move(parents)});
          }
          break;
        }
        case LeafStrategy::kHerding:
          mapping.keep =
              HerdingSelect(g.Features(t), AllNodes(g.NodeCount(t)), budget);
          std::sort(mapping.keep.begin(), mapping.keep.end());
          break;
        case LeafStrategy::kRandom:
          mapping.keep = RandomSelect(AllNodes(g.NodeCount(t)), budget,
                                      opts.seed ^ (0x1eafULL + t));
          std::sort(mapping.keep.begin(), mapping.keep.end());
          break;
      }
    }
    // The fallback leaves share one batched NIM call; the ILM leaves are
    // independent, so each synthesizes as one task.
    std::vector<std::vector<int32_t>> kept =
        CondenseFatherTypes(g, fallbacks, paths, opts.max_row_nnz,
                            selected_target, *cache, &ex);
    for (size_t i = 0; i < fallbacks.size(); ++i) {
      mappings[static_cast<size_t>(fallbacks[i].type)].keep =
          std::move(kept[i]);
    }
    std::vector<LeafSynthesis> synths(syntheses.size());
    std::vector<int64_t> work;  // the leaf features its means read
    for (const Synthesis& s : syntheses) {
      work.push_back(int64_t{g.NodeCount(s.type)} *
                     g.Features(s.type).cols());
    }
    RunTasks(ex, work, [&](size_t i, exec::Workspace&) {
      const Synthesis& s = syntheses[i];
      synths[i] = SynthesizeLeafType(g, s.type, s.parents, s.budget, &ex);
    });
    for (size_t i = 0; i < syntheses.size(); ++i) {
      auto& mapping = mappings[static_cast<size_t>(syntheses[i].type)];
      mapping.synthesized = true;
      mapping.members = std::move(synths[i].members);
      mapping.synthetic_features = std::move(synths[i].features);
    }
  }

  CondensedResult out;
  {
    ScopedTimer stage_timer(stages.assemble);
    FREEHGC_TRACE_SPAN("condense.assemble");
    FREEHGC_ASSIGN_OR_RETURN(HeteroGraph condensed,
                             AssembleCondensedGraph(g, mappings));
    out.graph = std::move(condensed);
  }
  out.selected_target = std::move(selected_target);
  out.kept_per_type.resize(mappings.size());
  for (size_t t = 0; t < mappings.size(); ++t) {
    if (!mappings[t].synthesized) out.kept_per_type[t] = mappings[t].keep;
  }
  out.seconds = timer.ElapsedSeconds();
  out.stage_seconds = stages;
  return out;
}

}  // namespace freehgc::core
