#include "hgnn/trainer.h"

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freehgc::hgnn {

EvalContext BuildEvalContext(const HeteroGraph& full,
                             const MetaPathOptions& opts,
                             exec::ExecContext* ctx_exec,
                             AdjacencyCache* /*cache*/) {
  EvalContext ctx;
  ctx.full = &full;
  ctx.options = opts;
  ctx.paths = EnumerateMetaPaths(full, full.target_type(), opts);
  ctx.full_features =
      PropagateAlongPaths(full, ctx.paths, opts.max_row_nnz, ctx_exec);
  return ctx;
}

namespace {

/// 0, 1, ..., num_rows - 1.
std::vector<int32_t> AllRows(int64_t num_rows) {
  std::vector<int32_t> all(static_cast<size_t>(num_rows));
  for (int64_t i = 0; i < num_rows; ++i) {
    all[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  return all;
}

/// The rows of every block listed in `index`.
std::vector<Matrix> GatherBlockRows(const std::vector<Matrix>& blocks,
                                    const std::vector<int32_t>& index) {
  std::vector<Matrix> out;
  out.reserve(blocks.size());
  for (const Matrix& b : blocks) out.push_back(b.GatherRows(index));
  return out;
}

/// The labels of the rows listed in `index`.
std::vector<int32_t> GatherLabels(const std::vector<int32_t>& labels,
                                  const std::vector<int32_t>& index) {
  std::vector<int32_t> out;
  out.reserve(index.size());
  for (int32_t r : index) out.push_back(labels[static_cast<size_t>(r)]);
  return out;
}

EvalMetrics RunTraining(const EvalContext& ctx,
                        const std::vector<Matrix>& train_blocks,
                        const std::vector<int32_t>& train_labels,
                        const std::vector<int32_t>& train_idx,
                        const HgnnConfig& config, exec::ExecContext* ex) {
  FREEHGC_CHECK(ctx.full != nullptr);
  const HeteroGraph& full = *ctx.full;
  FREEHGC_CHECK(train_blocks.size() == ctx.full_features.blocks.size());

  std::vector<int64_t> block_dims;
  for (const auto& b : ctx.full_features.blocks) {
    block_dims.push_back(b.cols());
  }
  HgnnModel model(config, block_dims, ctx.full_features.end_types,
                  full.num_classes());
  nn::Adam opt(config.lr);
  auto params = model.Params();

  FREEHGC_TRACE_SPAN("hgnn.train");
  // Eval forwards score only the rows they read: the validation rows
  // (the test rows when the graph has no validation split), and the test
  // rows when validation accuracy improves. Inference is row-wise, so
  // these logits equal the matching rows of a full-graph forward. An
  // empty test split scores every row, as a full forward scored it.
  const std::vector<int32_t> test_idx =
      full.test_index().empty()
          ? AllRows(ctx.full_features.blocks[0].rows())
          : full.test_index();
  const bool has_val = !full.val_index().empty();
  const std::vector<int32_t>& val_idx = has_val ? full.val_index() : test_idx;
  const std::vector<Matrix> val_blocks =
      GatherBlockRows(ctx.full_features.blocks, val_idx);
  const std::vector<int32_t> val_labels = GatherLabels(full.labels(), val_idx);
  const std::vector<Matrix> test_blocks =
      has_val ? GatherBlockRows(ctx.full_features.blocks, test_idx)
              : std::vector<Matrix>{};
  const std::vector<int32_t> test_labels =
      GatherLabels(full.labels(), test_idx);

  static obs::Counter& epochs_ctr =
      obs::MetricsRegistry::Global().GetCounter("hgnn.epochs");

  EvalMetrics out;
  float best_val = -1.0f;
  int since_best = 0;
  double train_time = 0.0;

  const int eval_every = 10;
  for (int epoch = 1; epoch <= config.epochs; ++epoch) {
    {
      ScopedTimer step_timer(train_time);
      FREEHGC_TRACE_SPAN("hgnn.train_epoch");
      model.ZeroGrad();
      Matrix logits = model.Forward(train_blocks, /*train=*/true, ex);
      Matrix dlogits;
      nn::SoftmaxCrossEntropy(logits, train_labels, train_idx, &dlogits);
      model.Backward(dlogits, ex);
      opt.Step(params);
    }
    epochs_ctr.Increment();
    out.epochs_run = epoch;

    if (epoch % eval_every == 0 || epoch == config.epochs) {
      const Matrix val_logits = model.Forward(val_blocks, /*train=*/false, ex);
      const float val_acc = nn::Accuracy(val_logits, val_labels, {});
      if (val_acc > best_val) {
        best_val = val_acc;
        const Matrix test_logits =
            has_val ? model.Forward(test_blocks, /*train=*/false, ex)
                    : val_logits;
        out.test_accuracy = nn::Accuracy(test_logits, test_labels, {});
        out.macro_f1 =
            nn::MacroF1(test_logits, test_labels, {}, full.num_classes());
        since_best = 0;
      } else if (config.patience > 0) {
        since_best += eval_every;
        if (since_best >= config.patience) break;
      }
    }
  }
  out.train_seconds = train_time;
  return out;
}

}  // namespace

EvalMetrics TrainAndEvaluate(const EvalContext& ctx,
                             const HeteroGraph& train_graph,
                             const HgnnConfig& config,
                             exec::ExecContext* ex) {
  // Propagate the training graph's features along the shared path list so
  // block layouts line up. (When training on the full graph itself, reuse
  // the context's blocks.)
  const bool self_train = (&train_graph == ctx.full);
  PropagatedFeatures train_features =
      self_train ? PropagatedFeatures{}
                 : PropagateAlongPaths(train_graph, ctx.paths,
                                       ctx.options.max_row_nnz, ex);
  const PropagatedFeatures& train_feats =
      self_train ? ctx.full_features : train_features;
  return RunTraining(ctx, train_feats.blocks, train_graph.labels(),
                     train_graph.train_index(), config, ex);
}

EvalMetrics WholeGraphBaseline(const EvalContext& ctx,
                               const HgnnConfig& config,
                               exec::ExecContext* ex) {
  return TrainAndEvaluate(ctx, *ctx.full, config, ex);
}

EvalMetrics TrainOnBlocks(const EvalContext& ctx,
                          const std::vector<Matrix>& blocks,
                          const std::vector<int32_t>& labels,
                          const HgnnConfig& config,
                          exec::ExecContext* ex) {
  return RunTraining(ctx, blocks, labels,
                     AllRows(static_cast<int64_t>(labels.size())), config, ex);
}

}  // namespace freehgc::hgnn
