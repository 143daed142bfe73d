#include "serve/graph_store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "datasets/generator.h"
#include "graph/section_io.h"
#include "graph/serialize.h"
#include "obs/metrics.h"

namespace freehgc::serve {

namespace {

void ObserveLoad(obs::Histogram& histogram, const Timer& timer) {
  histogram.Observe(static_cast<int64_t>(timer.ElapsedSeconds() * 1e9));
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

GraphStore::Metrics::Metrics(obs::MetricsRegistry& reg)
    : graphs(reg.GetGauge("serve.store.graphs")),
      bytes(reg.GetGauge("serve.store.bytes")),
      resident_bytes(reg.GetGauge("store.resident_bytes")),
      mapped_resident_bytes(reg.GetGauge("store.mapped_resident_bytes")),
      resident_budget_bytes(reg.GetGauge("store.resident_budget_bytes")),
      evictions(reg.GetCounter("store.evictions")),
      remaps(reg.GetCounter("store.remaps")),
      load_heap_ns(reg.GetHistogram("store.load.heap_ns")),
      load_mapped_ns(reg.GetHistogram("store.load.mapped_ns")) {}

Result<GraphInfo> GraphStore::Register(const std::string& name,
                                       HeteroGraph graph) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  FREEHGC_RETURN_IF_ERROR(graph.Validate());
  const uint64_t fingerprint = graph.ContentFingerprint();
  return Insert(name, std::move(graph), fingerprint, {}, nullptr);
}

Result<GraphInfo> GraphStore::RegisterSerialized(const std::string& name,
                                                 std::string_view container) {
  return RegisterSerialized(name, container, nullptr);
}

Result<GraphInfo> GraphStore::RegisterSerialized(
    const std::string& name, std::string_view container,
    std::shared_ptr<const void> owner) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  std::string spool;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spool = spool_dir_;
  }
  Timer timer;
  // The one verification pass: every section CRC, Validate, and the
  // content hash recomputed from the bytes. The header's claim must
  // match it, so a spooled file can never carry a client-chosen identity.
  FREEHGC_ASSIGN_OR_RETURN(ContainerGraph upload,
                           AdoptHeteroGraph(container, std::move(owner)));
  const uint64_t fp = upload.graph.ContentFingerprint();
  if (upload.fingerprint != fp) {
    return Status::InvalidArgument(StrFormat(
        "upload header fingerprint %016llx does not match its content "
        "(%016llx)",
        static_cast<unsigned long long>(upload.fingerprint),
        static_cast<unsigned long long>(fp)));
  }
  if (spool.empty()) {
    auto info = Insert(name, std::move(upload.graph), fp, {}, nullptr);
    if (info.ok()) ObserveLoad(m_.load_heap_ns, timer);
    return info;
  }
  // Spool-on-upload: publish the verified bytes verbatim under their
  // content fingerprint and register the file mapped, so the resident
  // arrays are page-cache-backed and evictable. Identical re-uploads
  // rewrite the same file (atomically), so the spool dir never
  // accumulates duplicates. The fresh file is mapped without a second
  // CRC pass or Validate; a re-map after eviction still runs both.
  upload = ContainerGraph();
  const std::string path = StrFormat(
      "%s/%016llx.fhgc", spool.c_str(), static_cast<unsigned long long>(fp));
  FREEHGC_RETURN_IF_ERROR(section_io::WriteFileAtomic(path, container));
  FREEHGC_ASSIGN_OR_RETURN(
      ContainerGraph mg,
      MapHeteroGraphDetailed(path, MapCheck::kStructureOnly));
  if (mg.fingerprint != fp) {
    return Status::Internal("spool file " + path +
                            " changed while it was registered");
  }
  mg.graph.SeedContentFingerprint(fp);
  auto info = Insert(name, std::move(mg.graph), fp, path,
                     std::move(mg.mapping));
  if (info.ok()) ObserveLoad(m_.load_mapped_ns, timer);
  return info;
}

Result<GraphInfo> GraphStore::RegisterMappedFile(const std::string& name,
                                                 const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  Timer timer;
  FREEHGC_ASSIGN_OR_RETURN(ContainerGraph mg, MapHeteroGraphDetailed(path));
  mg.graph.SeedContentFingerprint(mg.fingerprint);
  auto info = Insert(name, std::move(mg.graph), mg.fingerprint, path,
                     std::move(mg.mapping));
  if (info.ok()) ObserveLoad(m_.load_mapped_ns, timer);
  return info;
}

Status GraphStore::SetSpoolDir(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("spool dir must not be empty");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(StrFormat("cannot create spool dir %s: %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  spool_dir_ = dir;
  return Status::OK();
}

Result<GraphInfo> GraphStore::RegisterGenerator(const std::string& name,
                                                const std::string& preset,
                                                uint64_t seed, double scale,
                                                exec::ExecContext* ctx) {
  FREEHGC_ASSIGN_OR_RETURN(
      HeteroGraph g,
      datasets::MakeByName(preset, seed, scale > 0 ? scale : 1.0, ctx));
  return Register(name, std::move(g));
}

void GraphStore::SetResidentBudget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  resident_budget_ = bytes;
  TrimLocked(nullptr);
  UpdateGauges();
}

Result<GraphInfo> GraphStore::Insert(const std::string& name,
                                     HeteroGraph graph, uint64_t fingerprint,
                                     std::string source_path,
                                     std::shared_ptr<const MappedFile> mapping) {
  GraphInfo info;
  info.name = name;
  info.fingerprint = fingerprint;
  info.nodes = graph.TotalNodes();
  info.edges = graph.TotalEdges();
  info.memory_bytes = graph.MemoryBytes();
  info.mapped = graph.IsMapped();
  info.source_path = std::move(source_path);
  const size_t resident = graph.ResidentHeapBytes();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it != graphs_.end()) {
    if (it->second.info.fingerprint == info.fingerprint) {
      return it->second.info;  // idempotent re-registration
    }
    return Status::FailedPrecondition(StrFormat(
        "graph '%s' already registered with different content "
        "(resident %016llx, new %016llx)",
        name.c_str(),
        static_cast<unsigned long long>(it->second.info.fingerprint),
        static_cast<unsigned long long>(info.fingerprint)));
  }
  Entry entry;
  entry.graph = std::make_shared<const HeteroGraph>(std::move(graph));
  entry.info = info;
  entry.resident_bytes = resident;
  entry.mapping = std::move(mapping);
  entry.tick = ++tick_;
  auto [pos, inserted] = graphs_.emplace(name, std::move(entry));
  (void)inserted;
  TrimLocked(&pos->second);
  UpdateGauges();
  return info;
}

Result<GraphStore::GraphRef> GraphStore::Get(const std::string& name) {
  std::string path;
  uint64_t expect_fp = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("no resident graph named '" + name + "'");
    }
    Entry& e = it->second;
    if (e.graph != nullptr) {
      e.tick = ++tick_;
      return e.graph;
    }
    // Evicted under the residency budget: re-map outside the lock.
    path = e.info.source_path;
    expect_fp = e.info.fingerprint;
  }
  FREEHGC_ASSIGN_OR_RETURN(ContainerGraph mg, MapHeteroGraphDetailed(path));
  if (mg.fingerprint != expect_fp) {
    return Status::Internal(StrFormat(
        "spool file %s changed since eviction (was %016llx, now %016llx)",
        path.c_str(), static_cast<unsigned long long>(expect_fp),
        static_cast<unsigned long long>(mg.fingerprint)));
  }
  // Every request keys the artifact cache by this fingerprint; seeding it
  // keeps a re-map from re-hashing the whole graph.
  mg.graph.SeedContentFingerprint(mg.fingerprint);
  auto graph = std::make_shared<const HeteroGraph>(std::move(mg.graph));
  if (mg.mapping != nullptr) {
    mg.mapping->Advise(MappedFile::AccessPattern::kWillNeed);
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no resident graph named '" + name + "'");
  }
  Entry& e = it->second;
  if (e.graph != nullptr) {
    e.tick = ++tick_;  // another thread re-mapped first; use its copy
    return e.graph;
  }
  e.graph = std::move(graph);
  e.mapping = std::move(mg.mapping);
  e.info.resident = true;
  e.tick = ++tick_;
  m_.remaps.Increment();
  TrimLocked(&e);
  UpdateGauges();
  return e.graph;
}

Result<GraphInfo> GraphStore::Info(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no resident graph named '" + name + "'");
  }
  return it->second.info;
}

std::vector<GraphInfo> GraphStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GraphInfo> out;
  out.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) out.push_back(entry.info);
  return out;
}

int64_t GraphStore::MappedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t mapped = 0;
  for (const auto& [name, entry] : graphs_) {
    if (entry.info.mapped) ++mapped;
  }
  return mapped;
}

size_t GraphStore::MappedResidentLocked() const {
  size_t bytes = 0;
  for (const auto& [name, entry] : graphs_) {
    if (entry.info.mapped && entry.graph != nullptr) {
      bytes += entry.info.memory_bytes;
    }
  }
  return bytes;
}

void GraphStore::TrimLocked(const Entry* protect) {
  if (resident_budget_ == SIZE_MAX) return;
  while (MappedResidentLocked() > resident_budget_) {
    Entry* victim = nullptr;
    for (auto& [name, entry] : graphs_) {
      if (&entry == protect) continue;
      if (entry.graph == nullptr || !entry.info.mapped ||
          entry.info.source_path.empty()) {
        continue;  // already evicted, heap-resident, or not restorable
      }
      if (entry.graph.use_count() != 1) continue;  // in-flight reference
      if (victim == nullptr || entry.tick < victim->tick) victim = &entry;
    }
    if (victim == nullptr) break;  // everything left is pinned or protected
    // Pages are cold: hand them back to the kernel before dropping the
    // keepalive (an in-flight view, if any raced in, just re-faults).
    if (victim->mapping != nullptr) {
      victim->mapping->Advise(MappedFile::AccessPattern::kDontNeed);
    }
    victim->graph.reset();
    victim->mapping.reset();
    victim->info.resident = false;
    m_.evictions.Increment();
  }
}

void GraphStore::UpdateGauges() {
  size_t total = 0;
  size_t resident = 0;
  for (const auto& [name, entry] : graphs_) {
    total += entry.info.memory_bytes;
    resident += entry.resident_bytes;
  }
  m_.graphs.Set(static_cast<int64_t>(graphs_.size()));
  m_.bytes.Set(static_cast<int64_t>(total));
  m_.resident_bytes.Set(static_cast<int64_t>(resident));
  m_.mapped_resident_bytes.Set(static_cast<int64_t>(MappedResidentLocked()));
  m_.resident_budget_bytes.Set(
      resident_budget_ == SIZE_MAX ? 0
                                   : static_cast<int64_t>(resident_budget_));
}

Result<int> SweepSpoolDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound(StrFormat("cannot open spool dir %s: %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  int removed = 0;
  for (struct dirent* ent = ::readdir(d); ent != nullptr;
       ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    bool drop = false;
    if (EndsWith(name, ".spill") || EndsWith(name, ".tmp")) {
      // Spill files are keyed by in-process cache state; across a restart
      // they are all orphans. Tmp files are abandoned atomic publishes.
      drop = true;
    } else if (EndsWith(name, ".fhgc")) {
      // Keep only containers whose header fingerprint matches their
      // `<fingerprint>.fhgc` name (what spool-on-upload writes).
      const std::string stem = name.substr(0, name.size() - 5);
      char* end = nullptr;
      const uint64_t named = std::strtoull(stem.c_str(), &end, 16);
      const bool well_named = stem.size() == 16 && end != nullptr &&
                              *end == '\0';
      if (!well_named) {
        drop = true;
      } else {
        Result<uint64_t> fp = section_io::PeekFingerprint(
            path, section_io::GraphContainerFormat());
        drop = !fp.ok() || *fp != named;
      }
    }
    if (drop && std::remove(path.c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

}  // namespace freehgc::serve
