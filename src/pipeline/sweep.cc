#include "pipeline/sweep.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "datasets/generator.h"

namespace freehgc::pipeline {

hgnn::HgnnConfig SweepSpec::DefaultEvalConfig() {
  hgnn::HgnnConfig cfg;
  cfg.kind = hgnn::HgnnKind::kSeHGNN;  // test model of the paper
  cfg.hidden = 32;
  cfg.epochs = 60;
  cfg.patience = 0;
  return cfg;
}

double DefaultDatasetScale(const std::string& name) {
  return name == "aminer" ? 0.5 : 1.0;
}

const SweepCell* SweepResult::Find(const std::string& dataset, double ratio,
                                   const std::string& method,
                                   const std::string& model) const {
  for (const SweepCell& c : cells) {
    if (c.dataset == dataset && c.ratio == ratio && c.method == method &&
        c.model == model) {
      return &c;
    }
  }
  return nullptr;
}

const WholeCell* SweepResult::FindWhole(const std::string& dataset,
                                        const std::string& model) const {
  for (const WholeCell& w : wholes) {
    if (w.dataset == dataset && w.model == model) return &w;
  }
  return nullptr;
}

std::string SweepResult::ToJson() const {
  std::string json = "{\n  \"cells\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& c = cells[i];
    json += StrFormat(
        "%s\n    {\"dataset\": \"%s\", \"ratio\": %.6f, \"method\": \"%s\", "
        "\"model\": \"%s\", \"oom\": %s, \"accuracy_mean\": %.6f, "
        "\"accuracy_std\": %.6f, \"storage_bytes\": %zu}",
        i == 0 ? "" : ",", JsonEscape(c.dataset).c_str(), c.ratio,
        JsonEscape(c.method).c_str(), JsonEscape(c.model).c_str(),
        c.agg.oom ? "true" : "false", c.agg.accuracy.mean,
        c.agg.accuracy.std, c.agg.storage_bytes);
  }
  json += "\n  ],\n  \"whole\": [";
  for (size_t i = 0; i < wholes.size(); ++i) {
    const WholeCell& w = wholes[i];
    json += StrFormat(
        "%s\n    {\"dataset\": \"%s\", \"model\": \"%s\", "
        "\"accuracy\": %.6f, \"macro_f1\": %.6f}",
        i == 0 ? "" : ",", JsonEscape(w.dataset).c_str(),
        JsonEscape(w.model).c_str(), 100.0f * w.metrics.test_accuracy,
        100.0f * w.metrics.macro_f1);
  }
  json += "\n  ],\n  \"timing\": {\n    \"total_seconds\": " +
          StrFormat("%.6f", total_seconds) +
          ",\n    \"threads\": " + StrFormat("%d", threads) +
          ",\n    \"cells\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& c = cells[i];
    json += StrFormat(
        "%s\n      {\"dataset\": \"%s\", \"ratio\": %.6f, "
        "\"method\": \"%s\", \"model\": \"%s\", \"wall_seconds\": %.6f, "
        "\"mean_condense_seconds\": %.6f, \"mean_train_seconds\": %.6f}",
        i == 0 ? "" : ",", JsonEscape(c.dataset).c_str(), c.ratio,
        JsonEscape(c.method).c_str(), JsonEscape(c.model).c_str(),
        c.wall_seconds, c.agg.mean_condense_seconds,
        c.agg.mean_train_seconds);
  }
  json += StrFormat(
      "\n    ]\n  },\n  \"cache\": {\"hits\": %lld, \"misses\": %lld, "
      "\"bytes\": %zu}\n}\n",
      static_cast<long long>(cache_stats.hits),
      static_cast<long long>(cache_stats.misses), cache_stats.bytes);
  return json;
}

Result<std::unique_ptr<PreparedDataset>> PrepareDataset(
    const DatasetSpec& ds, const PipelineEnv& env) {
  auto out = std::make_unique<PreparedDataset>();
  const double scale =
      ds.scale > 0 ? ds.scale : DefaultDatasetScale(ds.name);
  FREEHGC_ASSIGN_OR_RETURN(
      out->graph,
      datasets::MakeByName(ds.name, ds.graph_seed, scale, env.exec));

  // The one translation of the spec's meta-path fields.
  const MetaPathOptions mp{
      .max_hops = ds.max_hops > 0
                      ? ds.max_hops
                      : std::min(3, datasets::RecommendedHops(ds.name)),
      .max_paths = ds.max_paths};
  out->ctx = BuildEvalContext(out->graph, mp, env);
  return out;
}

SweepRunner::SweepRunner(SweepSpec spec, exec::ExecContext* exec)
    : spec_(std::move(spec)), exec_(exec) {}

Result<SweepResult> SweepRunner::Run() {
  exec::ExecContext& ex = exec::Resolve(exec_);

  SweepResult out;
  out.threads = ex.num_threads();
  const ArtifactCache::Stats before = cache_.stats();
  Timer total;

  const PipelineEnv cell_env(&ex, &cache_);

  for (const DatasetSpec& ds : spec_.datasets) {
    FREEHGC_ASSIGN_OR_RETURN(std::unique_ptr<PreparedDataset> data,
                             PrepareDataset(ds, cell_env));
    const hgnn::EvalContext& ctx = data->ctx;

    for (hgnn::HgnnKind model : spec_.models) {
      hgnn::HgnnConfig cfg = spec_.eval_cfg;
      cfg.kind = model;

      if (spec_.whole_graph_baseline) {
        WholeCell whole;
        whole.dataset = ds.name;
        whole.model = hgnn::HgnnKindName(model);
        whole.metrics = cache_.WholeGraphBaseline(ctx, cfg, &ex);
        out.wholes.push_back(std::move(whole));
      }

      for (double ratio : ds.ratios) {
        RunSpec spec = spec_.base;
        spec.ratio = ratio;
        for (const std::string& method : spec_.methods) {
          SweepCell cell;
          cell.dataset = ds.name;
          cell.ratio = ratio;
          cell.method = method;
          cell.model = hgnn::HgnnKindName(model);
          Timer wall;
          cell.agg =
              RunMethodSeeds(ctx, method, spec, cfg, spec_.seeds, cell_env);
          cell.wall_seconds = wall.ElapsedSeconds();
          out.cells.push_back(std::move(cell));
        }
      }
    }
  }

  out.total_seconds = total.ElapsedSeconds();
  const ArtifactCache::Stats after = cache_.stats();
  out.cache_stats.hits = after.hits - before.hits;
  out.cache_stats.misses = after.misses - before.misses;
  out.cache_stats.bytes = after.bytes;
  return out;
}

namespace {

std::string CellText(const SweepCell* cell) {
  if (cell == nullptr) return "-";
  if (cell->agg.oom) return "OOM";
  return Cell(cell->agg.accuracy);
}

}  // namespace

void PrintRatioTables(const SweepResult& result, const SweepSpec& spec) {
  for (const DatasetSpec& ds : spec.datasets) {
    for (hgnn::HgnnKind model : spec.models) {
      const std::string model_name = hgnn::HgnnKindName(model);
      std::vector<std::string> headers = {"Dataset", "Ratio (r)"};
      for (const std::string& method : spec.methods) {
        headers.push_back(DisplayName(method));
      }
      const WholeCell* whole = result.FindWhole(ds.name, model_name);
      if (whole != nullptr) headers.push_back("Whole Dataset");
      TablePrinter table(std::move(headers));
      for (double ratio : ds.ratios) {
        std::vector<std::string> row = {ds.name,
                                        StrFormat("%.1f%%", 100.0 * ratio)};
        for (const std::string& method : spec.methods) {
          row.push_back(
              CellText(result.Find(ds.name, ratio, method, model_name)));
        }
        if (whole != nullptr) {
          row.push_back(
              StrFormat("%.2f", 100.0f * whole->metrics.test_accuracy));
        }
        table.AddRow(std::move(row));
      }
      table.Print();
    }
  }
}

void PrintModelTables(const SweepResult& result, const SweepSpec& spec,
                      double ratio) {
  for (const DatasetSpec& ds : spec.datasets) {
    double whole_sum = 0.0;
    int whole_count = 0;
    for (hgnn::HgnnKind model : spec.models) {
      const WholeCell* whole =
          result.FindWhole(ds.name, hgnn::HgnnKindName(model));
      if (whole != nullptr) {
        whole_sum += 100.0f * whole->metrics.test_accuracy;
        ++whole_count;
      }
    }

    std::vector<std::string> headers = {
        ds.name + StrFormat(" r=%.1f%%", 100.0 * ratio)};
    for (hgnn::HgnnKind model : spec.models) {
      headers.push_back(hgnn::HgnnKindName(model));
    }
    headers.push_back("Condensed Avg.");
    if (whole_count > 0) headers.push_back("Whole Avg.");
    TablePrinter table(std::move(headers));

    for (const std::string& method : spec.methods) {
      std::vector<std::string> row = {DisplayName(method)};
      double sum = 0.0;
      for (hgnn::HgnnKind model : spec.models) {
        const SweepCell* cell =
            result.Find(ds.name, ratio, method, hgnn::HgnnKindName(model));
        row.push_back(CellText(cell));
        if (cell != nullptr && !cell->agg.oom) {
          sum += cell->agg.accuracy.mean;
        }
      }
      row.push_back(StrFormat(
          "%.2f", sum / static_cast<double>(spec.models.size())));
      if (whole_count > 0) {
        row.push_back(
            StrFormat("%.2f", whole_sum / static_cast<double>(whole_count)));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
}

}  // namespace freehgc::pipeline
