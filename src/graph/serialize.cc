#include "graph/serialize.h"

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "common/string_util.h"
#include "graph/serialize_internal.h"

namespace freehgc {

namespace {

using serialize_internal::FilePtr;

Result<std::vector<std::vector<std::string>>> ReadCsvRows(
    const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::NotFound("cannot open: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  int c;
  while ((c = std::fgetc(f.get())) != EOF) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) rows.push_back(Split(line, ','));
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  if (!line.empty()) rows.push_back(Split(line, ','));
  return rows;
}

}  // namespace

Result<HeteroGraph> LoadHeteroGraphCsv(const std::string& dir,
                                       uint64_t seed) {
  HeteroGraph g;
  std::vector<int32_t> feat_dims;
  {
    FREEHGC_ASSIGN_OR_RETURN(auto rows, ReadCsvRows(dir + "/types.csv"));
    for (const auto& row : rows) {
      if (row.size() != 3) {
        return Status::InvalidArgument("types.csv rows need name,count,dim");
      }
      FREEHGC_ASSIGN_OR_RETURN(
          TypeId id, g.AddNodeType(row[0], std::atoi(row[1].c_str())));
      (void)id;
      feat_dims.push_back(std::atoi(row[2].c_str()));
    }
  }
  {
    FREEHGC_ASSIGN_OR_RETURN(auto rows, ReadCsvRows(dir + "/edges.csv"));
    // Group by (relation, src_type, dst_type).
    struct Key {
      std::string rel, src, dst;
    };
    std::vector<Key> order;
    std::vector<std::vector<CooEntry>> entries;
    auto find_group = [&](const std::string& rel, const std::string& src,
                          const std::string& dst) -> size_t {
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i].rel == rel) return i;
      }
      order.push_back({rel, src, dst});
      entries.emplace_back();
      return order.size() - 1;
    };
    for (const auto& row : rows) {
      if (row.size() != 5) {
        return Status::InvalidArgument(
            "edges.csv rows need relation,src_type,dst_type,src_id,dst_id");
      }
      const size_t gi = find_group(row[0], row[1], row[2]);
      entries[gi].push_back({std::atoi(row[3].c_str()),
                             std::atoi(row[4].c_str()), 1.0f});
    }
    for (size_t i = 0; i < order.size(); ++i) {
      FREEHGC_ASSIGN_OR_RETURN(TypeId src, g.TypeByName(order[i].src));
      FREEHGC_ASSIGN_OR_RETURN(TypeId dst, g.TypeByName(order[i].dst));
      FREEHGC_ASSIGN_OR_RETURN(
          CsrMatrix adj, CsrMatrix::FromCoo(g.NodeCount(src),
                                            g.NodeCount(dst),
                                            std::move(entries[i])));
      auto added = g.AddRelation(order[i].rel, src, dst, std::move(adj));
      if (!added.ok()) return added.status();
    }
    g.EnsureReverseRelations();
  }
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    const std::string path = dir + "/features_" + g.TypeName(t) + ".csv";
    auto rows = ReadCsvRows(path);
    if (!rows.ok()) continue;  // features optional per type
    if (static_cast<int32_t>(rows->size()) != g.NodeCount(t)) {
      return Status::InvalidArgument("feature row count mismatch for " +
                                     g.TypeName(t));
    }
    const int64_t dim = feat_dims[static_cast<size_t>(t)];
    Matrix m(g.NodeCount(t), dim);
    for (size_t i = 0; i < rows->size(); ++i) {
      if (static_cast<int64_t>((*rows)[i].size()) != dim) {
        return Status::InvalidArgument("feature dim mismatch for " +
                                       g.TypeName(t));
      }
      for (int64_t d = 0; d < dim; ++d) {
        m.At(static_cast<int64_t>(i), d) =
            static_cast<float>(std::atof((*rows)[i][static_cast<size_t>(d)]
                                             .c_str()));
      }
    }
    FREEHGC_RETURN_IF_ERROR(g.SetFeatures(t, std::move(m)));
  }
  {
    FREEHGC_ASSIGN_OR_RETURN(auto rows, ReadCsvRows(dir + "/labels.csv"));
    if (rows.empty() || rows[0].size() != 3 || rows[0][0] != "target") {
      return Status::InvalidArgument(
          "labels.csv must start with 'target,<type>,<num_classes>'");
    }
    FREEHGC_ASSIGN_OR_RETURN(TypeId target, g.TypeByName(rows[0][1]));
    const int32_t num_classes = std::atoi(rows[0][2].c_str());
    std::vector<int32_t> labels(static_cast<size_t>(g.NodeCount(target)), 0);
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].size() != 2) {
        return Status::InvalidArgument("labels.csv rows need id,label");
      }
      const int32_t id = std::atoi(rows[i][0].c_str());
      if (id < 0 || id >= g.NodeCount(target)) {
        return Status::OutOfRange("label id out of range");
      }
      labels[static_cast<size_t>(id)] = std::atoi(rows[i][1].c_str());
    }
    FREEHGC_RETURN_IF_ERROR(g.SetTarget(target, std::move(labels),
                                        num_classes));
    // Deterministic 24/6/70 split, matching the HGB protocol.
    const int32_t n = g.NodeCount(target);
    std::vector<int32_t> perm(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    Rng rng(seed);
    rng.Shuffle(perm);
    const int32_t n_train = static_cast<int32_t>(0.24 * n);
    const int32_t n_val = static_cast<int32_t>(0.06 * n);
    FREEHGC_RETURN_IF_ERROR(g.SetSplit(
        {perm.begin(), perm.begin() + n_train},
        {perm.begin() + n_train, perm.begin() + n_train + n_val},
        {perm.begin() + n_train + n_val, perm.end()}));
  }
  FREEHGC_RETURN_IF_ERROR(g.Validate());
  return g;
}

}  // namespace freehgc
