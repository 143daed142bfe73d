#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "graph/serialize.h"
#include "mutate.h"
#include "obs/access_log.h"
#include "obs/exposition.h"
#include "pipeline/method.h"
#include "serve/client.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace freehgc::serve {
namespace {

// ---------------------------------------------------------------------------
// GraphStore

TEST(GraphStoreTest, RegisterGetInfoListRemove) {
  GraphStore::GraphRef held;
  int64_t nodes = 0;
  {
    GraphStore store;
    auto info = store.Register("toy", datasets::MakeToy(5));
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->name, "toy");
    EXPECT_GT(info->nodes, 0);
    EXPECT_GT(info->memory_bytes, 0u);
    nodes = info->nodes;

    auto ref = store.Get("toy");
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ((*ref)->TotalNodes(), info->nodes);
    EXPECT_EQ(store.Count(), 1);
    EXPECT_EQ(store.List().size(), 1u);
    EXPECT_EQ(store.Get("missing").status().code(), StatusCode::kNotFound);
    held = *ref;
  }
  // A held reference outlives the store's entry.
  EXPECT_EQ(held->TotalNodes(), nodes);
}

TEST(GraphStoreTest, IdempotentOnSameContentConflictOnDifferent) {
  GraphStore store;
  ASSERT_TRUE(store.Register("g", datasets::MakeToy(5)).ok());
  // Same bytes: fine (idempotent upload retry).
  EXPECT_TRUE(store.Register("g", datasets::MakeToy(5)).ok());
  // Different content under the same name: refused.
  auto conflict = store.Register("g", datasets::MakeToy(6));
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GraphStoreTest, SerializedUploadRoundTripsAndRejectsCorrupt) {
  const HeteroGraph g = datasets::MakeToy(9);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());

  GraphStore store;
  auto info = store.RegisterSerialized("up", *bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->fingerprint, g.ContentFingerprint());

  // Flip a byte of the first section's payload, right after the 4096-byte
  // header page (the zero padding between sections carries no CRC).
  std::string corrupt = *bytes;
  corrupt[4096] = static_cast<char>(corrupt[4096] ^ 0x5a);
  auto bad = store.RegisterSerialized("bad", corrupt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Count(), 1);  // nothing was registered

  auto trunc = store.RegisterSerialized(
      "short", std::string_view(*bytes).substr(0, bytes->size() / 3));
  ASSERT_FALSE(trunc.ok());
  EXPECT_EQ(trunc.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphStoreTest, GeneratorPresets) {
  GraphStore store;
  ASSERT_TRUE(store.RegisterGenerator("t", "toy", 1, 0.0).ok());
  EXPECT_EQ(store.RegisterGenerator("x", "no_such_preset", 1, 1.0)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(GraphStoreTest, MappedFileRegistrationIsZeroCopyResident) {
  const HeteroGraph g = datasets::MakeToy(21);
  const std::string path = "/tmp/freehgc_test_store_map.fhgc";
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());

  GraphStore::GraphRef held;
  {
    GraphStore store;
    auto info = store.RegisterMappedFile("toy", path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info->mapped);
    EXPECT_EQ(info->source_path, path);
    EXPECT_EQ(info->fingerprint, g.ContentFingerprint());
    EXPECT_EQ(info->memory_bytes, g.MemoryBytes());
    EXPECT_EQ(store.MappedCount(), 1);
    // Mapped arrays live in the page cache: resident heap is only the
    // labels/splits, far below the logical footprint.
    EXPECT_LT(store.ResidentBytes(), info->memory_bytes);

    auto ref = store.Get("toy");
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE((*ref)->IsMapped());
    EXPECT_EQ((*ref)->ContentFingerprint(), g.ContentFingerprint());
    held = *ref;
  }

  // The mapping outlives the store and the file's unlink while a
  // reference is held.
  std::remove(path.c_str());
  EXPECT_EQ(held->ContentFingerprint(), g.ContentFingerprint());
  EXPECT_EQ(held->relation(0).adj, g.relation(0).adj);

  GraphStore store;
  auto missing = store.RegisterMappedFile("gone", path);
  EXPECT_FALSE(missing.ok());
}

TEST(GraphStoreTest, SpoolDirTurnsUploadsIntoMappedResidents) {
  const HeteroGraph g = datasets::MakeToy(33);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());

  const std::string spool = "/tmp/freehgc_test_spool";
  GraphStore store;
  ASSERT_TRUE(store.SetSpoolDir(spool).ok());
  auto info = store.RegisterSerialized("up", *bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->mapped);
  EXPECT_EQ(info->fingerprint, g.ContentFingerprint());
  ASSERT_FALSE(info->source_path.empty());

  // The spooled container is a valid v3 file a restarted server can
  // re-register directly (catalog rehydration without re-upload).
  auto remapped = MapHeteroGraphDetailed(info->source_path);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(remapped->fingerprint, g.ContentFingerprint());

  // A condensation request against the mapped resident matches the heap
  // answer bit for bit (the graphs are bit-identical by fingerprint).
  auto ref = store.Get("up");
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE((*ref)->IsMapped());
  EXPECT_EQ((*ref)->labels(), g.labels());

  std::remove(info->source_path.c_str());
  ::rmdir(spool.c_str());
}

TEST(GraphStoreTest, SpoolRejectsAnUploadWhoseHeaderFingerprintLies) {
  const HeteroGraph g = datasets::MakeToy(34);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  // Rewrite the header's content fingerprint (byte 40) and re-seal the
  // header CRC (byte 52), so every checksum holds and only the recompute
  // can tell.
  std::string forged = *bytes;
  const uint64_t claimed = g.ContentFingerprint() ^ 0x5a5a;
  std::memcpy(forged.data() + 40, &claimed, sizeof(claimed));
  const uint32_t header_crc = Crc32(forged.data(), 52);
  std::memcpy(forged.data() + 52, &header_crc, sizeof(header_crc));

  const std::string spool = "/tmp/freehgc_test_spool_forged";
  GraphStore store;
  ASSERT_TRUE(store.SetSpoolDir(spool).ok());
  auto info = store.RegisterSerialized("forged", forged);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(info.status().message().find("fingerprint"), std::string::npos)
      << info.status().ToString();
  // Nothing registered, and no spool file under either identity.
  EXPECT_EQ(store.Count(), 0);
  EXPECT_EQ(store.MappedCount(), 0);
  for (uint64_t fp : {claimed, g.ContentFingerprint()}) {
    const std::string path = StrFormat(
        "%s/%016llx.fhgc", spool.c_str(), static_cast<unsigned long long>(fp));
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << path;
  }

  // The honest container registers mapped under the recomputed identity.
  auto honest = store.RegisterSerialized("honest", *bytes);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_TRUE(honest->mapped);
  EXPECT_EQ(honest->fingerprint, g.ContentFingerprint());
  std::remove(honest->source_path.c_str());
  ::rmdir(spool.c_str());
}

TEST(GraphStoreTest, AdoptedUploadIsHeapResidentAndNeverEvicted) {
  const HeteroGraph g = datasets::MakeToy(35);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  auto buffer = std::make_shared<std::vector<uint64_t>>(
      (bytes->size() + 7) / 8);
  std::memcpy(buffer->data(), bytes->data(), bytes->size());
  const std::string_view container(
      reinterpret_cast<const char*>(buffer->data()), bytes->size());

  GraphStore store;
  auto info = store.RegisterSerialized("adopted", container, buffer);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->mapped);
  EXPECT_EQ(info->fingerprint, g.ContentFingerprint());
  // The whole adopted container is resident heap, none of it counts as
  // mapped, so the residency budget can neither charge nor evict it.
  EXPECT_GE(store.ResidentBytes(), bytes->size());
  EXPECT_EQ(store.MappedResidentBytes(), 0u);
  store.SetResidentBudget(1);
  EXPECT_EQ(store.Evictions(), 0);

  auto ref = store.Get("adopted");
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE((*ref)->IsMapped());
  EXPECT_GE((*ref)->ResidentHeapBytes(), bytes->size());
  // Zero-copy: the resident arrays view the caller's buffer.
  const auto* indptr = reinterpret_cast<const char*>(
      (*ref)->relation(0).adj.indptr().data());
  EXPECT_TRUE(indptr >= container.data() &&
              indptr < container.data() + container.size());
}

// ---------------------------------------------------------------------------
// MethodRegistry satellite: unknown keys name what exists.

TEST(MethodRegistryTest, UnknownKeyErrorListsRegisteredMethods) {
  auto res = pipeline::MethodRegistry::Global().FindOrError("nope");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
  const std::string& msg = res.status().message();
  EXPECT_NE(msg.find("'nope'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("freehgc"), std::string::npos) << msg;
  EXPECT_NE(msg.find("herding"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// RequestScheduler, driven by stub work bodies.

/// Work body that blocks until released — lets tests fill slots and the
/// queue deterministically.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void BlockUntilReleased() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
  void WaitForEntered(int n) {
    while (entered.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(SchedulerTest, OverloadShedsWithResourceExhaustedWithoutDeadlock) {
  Latch latch;
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 2,
                       .threads_per_slot = 1},
      [&](const CondenseRequest&, const RequestContext&) -> Result<CondenseReply> {
        latch.BlockUntilReleased();
        return CondenseReply{};
      });

  // One request occupies the slot, two fill the queue.
  auto running = sched.Submit({});
  ASSERT_TRUE(running.ok());
  latch.WaitForEntered(1);
  auto q1 = sched.Submit({});
  auto q2 = sched.Submit({});
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  // Queue is at capacity: the next submission is shed, not stalled.
  auto shed = sched.Submit({});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(sched.stats().shed, 1);

  latch.Release();
  EXPECT_TRUE((*running)->Wait().ok());
  EXPECT_TRUE((*q1)->Wait().ok());
  EXPECT_TRUE((*q2)->Wait().ok());
  sched.Shutdown();
  EXPECT_EQ(sched.stats().completed, 3);
}

// Spill-aware admission: a guard that reports budget pressure sheds the
// request with kResourceExhausted and counts it separately from
// queue-full sheds; clearing the guard restores admission.
TEST(SchedulerTest, AdmissionGuardShedsWithBudgetStatus) {
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 4,
                       .threads_per_slot = 1},
      [&](const CondenseRequest&,
          const RequestContext&) -> Result<CondenseReply> {
        return CondenseReply{};
      });
  sched.set_admission_guard([] {
    return Status::ResourceExhausted("artifact cache under budget pressure");
  });

  auto shed = sched.Submit({});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("budget"), std::string::npos);
  EXPECT_EQ(sched.stats().shed, 1);
  EXPECT_EQ(sched.stats().shed_budget, 1);

  sched.set_admission_guard(nullptr);
  auto admitted = sched.Submit({});
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE((*admitted)->Wait().ok());
  sched.Shutdown();
  EXPECT_EQ(sched.stats().completed, 1);
  EXPECT_EQ(sched.stats().shed_budget, 1);  // unchanged by the clear
}

TEST(SchedulerTest, CancelledQueuedRequestNeverRuns) {
  Latch latch;
  std::atomic<int> executed{0};
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 8,
                       .threads_per_slot = 1},
      [&](const CondenseRequest&, const RequestContext&) -> Result<CondenseReply> {
        executed.fetch_add(1);
        latch.BlockUntilReleased();
        return CondenseReply{};
      });

  auto running = sched.Submit({});
  ASSERT_TRUE(running.ok());
  latch.WaitForEntered(1);
  auto queued = sched.Submit({});
  ASSERT_TRUE(queued.ok());

  EXPECT_TRUE(sched.Cancel((*queued)->id()));
  EXPECT_FALSE(sched.Cancel((*queued)->id()));  // already terminal
  EXPECT_FALSE(sched.Cancel((*running)->id()));  // running: not cancellable
  EXPECT_EQ((*queued)->Wait().status().code(), StatusCode::kCancelled);

  latch.Release();
  EXPECT_TRUE((*running)->Wait().ok());
  sched.Shutdown();
  EXPECT_EQ(executed.load(), 1);  // the cancelled request never ran
  EXPECT_EQ(sched.stats().cancelled, 1);
}

TEST(SchedulerTest, ExpiredQueuedRequestNeverRuns) {
  Latch latch;
  std::atomic<int> executed{0};
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 8,
                       .threads_per_slot = 1},
      [&](const CondenseRequest&, const RequestContext&) -> Result<CondenseReply> {
        executed.fetch_add(1);
        latch.BlockUntilReleased();
        return CondenseReply{};
      });

  auto running = sched.Submit({});
  ASSERT_TRUE(running.ok());
  latch.WaitForEntered(1);
  CondenseRequest short_deadline;
  short_deadline.deadline_ms = 20;
  auto queued = sched.Submit(short_deadline);
  ASSERT_TRUE(queued.ok());

  // Hold the slot well past the deadline, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  latch.Release();
  EXPECT_EQ((*queued)->Wait().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE((*running)->Wait().ok());
  sched.Shutdown();
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(sched.stats().expired, 1);
}

TEST(SchedulerTest, PriorityOrderFifoWithinPriority) {
  Latch latch;
  std::mutex order_mu;
  std::vector<uint64_t> order;
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 16,
                       .threads_per_slot = 1},
      [&](const CondenseRequest& req,
          const RequestContext&) -> Result<CondenseReply> {
        if (req.seed == 0) {
          latch.BlockUntilReleased();  // the slot-occupier
        } else {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(req.seed);
        }
        return CondenseReply{};
      });

  CondenseRequest blocker;
  blocker.seed = 0;
  ASSERT_TRUE(sched.Submit(blocker).ok());
  latch.WaitForEntered(1);

  // Queue: two low-priority, then two high-priority. High (smaller value)
  // must run first; FIFO inside each class.
  for (uint64_t seed : {101, 102}) {
    CondenseRequest r;
    r.seed = seed;
    r.priority = 5;
    ASSERT_TRUE(sched.Submit(r).ok());
  }
  for (uint64_t seed : {201, 202}) {
    CondenseRequest r;
    r.seed = seed;
    r.priority = 1;
    ASSERT_TRUE(sched.Submit(r).ok());
  }
  latch.Release();
  sched.Shutdown();
  EXPECT_EQ(order, (std::vector<uint64_t>{201, 202, 101, 102}));
}

TEST(SchedulerTest, GracefulShutdownDrainsInflightAndQueued) {
  Latch latch;
  std::atomic<int> executed{0};
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 8,
                       .threads_per_slot = 1},
      [&](const CondenseRequest&, const RequestContext&) -> Result<CondenseReply> {
        executed.fetch_add(1);
        latch.BlockUntilReleased();
        return CondenseReply{};
      });
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = sched.Submit({});
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  latch.WaitForEntered(1);
  // Release from a helper thread so Shutdown (which blocks on the drain)
  // can be the call under test.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    latch.Release();
  });
  sched.Shutdown(ShutdownMode::kDrain);
  releaser.join();
  EXPECT_EQ(executed.load(), 4);
  for (auto& t : tickets) EXPECT_TRUE(t->Wait().ok());
  // Post-shutdown submissions are refused.
  EXPECT_EQ(sched.Submit({}).status().code(), StatusCode::kUnavailable);
}

TEST(SchedulerTest, CancelQueuedShutdownFailsQueuedRuns) {
  Latch latch;
  std::atomic<int> executed{0};
  RequestScheduler sched(
      SchedulerOptions{.slots = 1, .queue_capacity = 8,
                       .threads_per_slot = 1},
      [&](const CondenseRequest&, const RequestContext&) -> Result<CondenseReply> {
        executed.fetch_add(1);
        latch.BlockUntilReleased();
        return CondenseReply{};
      });
  auto running = sched.Submit({});
  auto queued = sched.Submit({});
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  latch.WaitForEntered(1);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    latch.Release();
  });
  sched.Shutdown(ShutdownMode::kCancelQueued);
  releaser.join();
  EXPECT_EQ(executed.load(), 1);  // the queued request was dropped
  EXPECT_TRUE((*running)->Wait().ok());
  EXPECT_EQ((*queued)->Wait().status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// RequestScheduler QoS: coalescing, aging, SLO shed, dispatch cap.

TEST(SchedulerTest, CoalescedDuplicatesAllGetBitIdenticalReply) {
  const std::string path = testing::TempDir() + "/coalesce_access.jsonl";
  std::remove(path.c_str());
  obs::AccessLog log;
  ASSERT_TRUE(log.Open(path).ok());

  Latch latch;
  std::atomic<int> execs{0};
  SchedulerOptions opts;
  opts.slots = 1;
  opts.queue_capacity = 8;
  opts.threads_per_slot = 1;
  RequestScheduler sched(
      opts,
      [&](const CondenseRequest& req,
          const RequestContext& rctx) -> Result<CondenseReply> {
        latch.BlockUntilReleased();
        CondenseReply reply;
        reply.request_id = rctx.id;
        // Distinct per execution: if a duplicate ever re-executed, its
        // reply would differ and the bit-identity checks below fail.
        reply.nodes = 100 + execs.fetch_add(1);
        reply.graph_bytes = "payload-" + std::to_string(req.seed);
        return reply;
      });
  sched.set_telemetry(&log, [](obs::AccessRecord&) {});
  sched.set_coalesce_key(
      [](const CondenseRequest& req) -> uint64_t { return req.seed + 1; });

  CondenseRequest req;
  req.seed = 9;
  auto leader = sched.Submit(req);
  ASSERT_TRUE(leader.ok());
  latch.WaitForEntered(1);  // leader is executing, key still in flight

  auto f1 = sched.Submit(req);
  auto f2 = sched.Submit(req);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(sched.stats().coalesced, 2);

  CondenseRequest other;
  other.seed = 10;  // distinct key: queues normally, runs for real
  auto distinct = sched.Submit(other);
  ASSERT_TRUE(distinct.ok());

  latch.Release();
  const Result<CondenseReply> lead_reply = (*leader)->Wait();
  const Result<CondenseReply> f1_reply = (*f1)->Wait();
  const Result<CondenseReply> f2_reply = (*f2)->Wait();
  ASSERT_TRUE(lead_reply.ok());
  ASSERT_TRUE(f1_reply.ok());
  ASSERT_TRUE(f2_reply.ok());
  EXPECT_TRUE((*distinct)->Wait().ok());
  sched.Shutdown();

  // Followers receive a verbatim copy of the leader's reply — including
  // the leader's request id, the join key for tracing.
  for (const auto* r : {&f1_reply, &f2_reply}) {
    EXPECT_EQ((*r)->request_id, lead_reply->request_id);
    EXPECT_EQ((*r)->nodes, lead_reply->nodes);
    EXPECT_EQ((*r)->graph_bytes, lead_reply->graph_bytes);
  }
  EXPECT_EQ(execs.load(), 2);  // leader + the distinct request only
  EXPECT_EQ(sched.stats().completed, 4);

  // Each follower still logs its own terminal line, tagged "coalesced",
  // under its own ticket id.
  log.Close();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int coalesced_lines = 0;
  std::set<unsigned long long> ids;
  while (std::getline(in, line)) {
    unsigned long long id = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"id\": %llu,", &id), 1) << line;
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    if (line.find("\"reason\": \"coalesced\"") != std::string::npos) {
      ++coalesced_lines;
    }
  }
  EXPECT_EQ(coalesced_lines, 2);
  EXPECT_EQ(ids.size(), 4u);
  std::remove(path.c_str());
}

TEST(SchedulerTest, AgedLowPriorityOvertakesFreshHighPriority) {
  Latch latch;
  std::mutex order_mu;
  std::vector<uint64_t> order;
  SchedulerOptions opts;
  opts.slots = 1;
  opts.queue_capacity = 16;
  opts.threads_per_slot = 1;
  opts.aging_quantum_ms = 10;
  RequestScheduler sched(
      opts,
      [&](const CondenseRequest& req,
          const RequestContext&) -> Result<CondenseReply> {
        if (req.graph == "blocker") latch.BlockUntilReleased();
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(req.seed);
        return CondenseReply{};
      });

  CondenseRequest blocker;
  blocker.graph = "blocker";
  blocker.seed = 777;  // distinct from the flood's seeds 1-5
  ASSERT_TRUE(sched.Submit(blocker).ok());
  latch.WaitForEntered(1);

  // A low-priority request waits long enough to age past a later flood
  // of fresh high-priority ones: effective priority 5 - 120ms/10ms < 0.
  CondenseRequest low;
  low.seed = 999;
  low.priority = 5;
  std::vector<TicketPtr> tickets;
  {
    auto t = sched.Submit(low);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  for (uint64_t s = 1; s <= 5; ++s) {
    CondenseRequest fresh;
    fresh.seed = s;
    fresh.priority = 0;
    auto t = sched.Submit(fresh);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }

  latch.Release();
  for (auto& t : tickets) EXPECT_TRUE(t->Wait().ok());
  sched.Shutdown();

  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 777u);  // the blocker itself
  EXPECT_EQ(order[1], 999u);  // aged request dispatches first
  EXPECT_GE(sched.stats().aged, 1);
}

TEST(SchedulerTest, SloShedIsResourceExhaustedWithDistinctReason) {
  const std::string path = testing::TempDir() + "/slo_access.jsonl";
  std::remove(path.c_str());
  obs::AccessLog log;
  ASSERT_TRUE(log.Open(path).ok());

  Latch latch;
  SchedulerOptions opts;
  opts.slots = 1;
  opts.queue_capacity = 8;
  opts.threads_per_slot = 1;
  opts.slo_ms = 5;
  RequestScheduler sched(
      opts,
      [&](const CondenseRequest& req,
          const RequestContext&) -> Result<CondenseReply> {
        if (req.graph == "blocker") latch.BlockUntilReleased();
        if (req.graph == "slow") {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return CondenseReply{};
      });
  sched.set_telemetry(&log, [](obs::AccessRecord&) {});

  // Seed the execution-time EWMA with one ~20 ms completion. Admission
  // can't predict before it has seen at least one request finish.
  CondenseRequest warm;
  warm.graph = "slow";
  {
    auto t = sched.Submit(warm);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Wait().ok());
  }

  CondenseRequest blocker;
  blocker.graph = "blocker";
  auto running = sched.Submit(blocker);
  ASSERT_TRUE(running.ok());
  latch.WaitForEntered(1);
  auto queued = sched.Submit({});
  ASSERT_TRUE(queued.ok());

  // Predicted queue wait: one queued request at ~20 ms mean execution —
  // far past the 5 ms SLO. Shed at admission, with a reason distinct
  // from queue-full shedding. (The blocker and the first queued request
  // were admitted at an empty queue: predicted wait 0.)
  auto shed = sched.Submit({});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("SLO shed"), std::string::npos)
      << shed.status().message();
  EXPECT_EQ(sched.stats().shed, 1);
  EXPECT_EQ(sched.stats().shed_slo, 1);

  latch.Release();
  EXPECT_TRUE((*running)->Wait().ok());
  EXPECT_TRUE((*queued)->Wait().ok());
  sched.Shutdown();

  // The access log's shed line carries the SLO reason.
  log.Close();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int slo_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"outcome\": \"shed\"") != std::string::npos) {
      EXPECT_NE(line.find("SLO shed"), std::string::npos) << line;
      ++slo_lines;
    }
  }
  EXPECT_EQ(slo_lines, 1);
  std::remove(path.c_str());
}

TEST(SchedulerTest, MaxConcurrentCapsDispatchBelowSlotCount) {
  // The multi-slot cold regression fix: surplus slots must park, not
  // time-slice. With max_concurrent=1, four slots never have more than
  // one request executing at once.
  Latch latch;
  SchedulerOptions opts;
  opts.slots = 4;
  opts.queue_capacity = 16;
  opts.threads_per_slot = 1;
  opts.max_concurrent = 1;
  RequestScheduler sched(
      opts,
      [&](const CondenseRequest&,
          const RequestContext&) -> Result<CondenseReply> {
        latch.BlockUntilReleased();
        return CondenseReply{};
      });

  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = sched.Submit({});
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  latch.WaitForEntered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(latch.entered.load(), 1);  // the other three are parked
  EXPECT_EQ(sched.stats().inflight, 1);

  latch.Release();
  for (auto& t : tickets) EXPECT_TRUE(t->Wait().ok());
  sched.Shutdown();
  EXPECT_EQ(sched.stats().completed, 4);

  // The default cap is the core budget: never more than the machine can
  // genuinely run, never more than the slot count.
  EXPECT_EQ(exec::ConcurrentSlotBudget(4),
            std::min(4, exec::DefaultNumThreads()));
  EXPECT_EQ(exec::ConcurrentSlotBudget(1), 1);
  EXPECT_GE(exec::ConcurrentSlotBudget(0), 1);
}

TEST(SchedulerTest, SlotsShareOneHelperPoolWithinTheCoreBudget) {
  // Every slot drives one shared pool: S slot threads plus cores - S
  // helpers, so the server never runs more than `cores` compute threads
  // (S when S > cores), and one request may use cores - S + 1 of them.
  const char* saved = std::getenv("FREEHGC_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  for (const char* cores : {"1", "3", "4", "8"}) {
    ::setenv("FREEHGC_THREADS", cores, 1);
    const int n = exec::DefaultNumThreads();
    for (int slots : {1, 2, 4}) {
      SchedulerOptions opts;
      opts.slots = slots;
      std::atomic<int> request_threads{0};
      RequestScheduler sched(
          opts,
          [&](const CondenseRequest&,
              const RequestContext& rc) -> Result<CondenseReply> {
            request_threads = rc.exec->num_threads();
            return CondenseReply{};
          });
      const int helpers = sched.pool().size() - 1;
      EXPECT_EQ(helpers, std::max(0, n - slots))
          << "cores " << n << " slots " << slots;
      EXPECT_LE(slots + helpers, std::max(n, slots));
      EXPECT_EQ(sched.pool().size(), exec::ThreadsPerSlot(slots));
      auto t = sched.Submit({});
      ASSERT_TRUE(t.ok());
      EXPECT_TRUE((*t)->Wait().ok());
      EXPECT_EQ(request_threads, sched.pool().size());
      sched.Shutdown();
    }
  }
  if (saved != nullptr) {
    ::setenv("FREEHGC_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("FREEHGC_THREADS");
  }
}

// ---------------------------------------------------------------------------
// ServeService: real condensation through the scheduler.

ServeOptions SmallServeOptions(int slots) {
  ServeOptions opts;
  opts.slots = slots;
  opts.queue_capacity = 64;
  opts.threads_per_slot = 1;
  return opts;
}

CondenseRequest ToyRequest(uint64_t seed) {
  CondenseRequest req;
  req.graph = "toy";
  req.method = "freehgc";
  req.ratio = 0.3;
  req.seed = seed;
  req.max_paths = 6;
  req.return_graph = true;
  return req;
}

/// Acceptance (a): K concurrent requests on the same graph are
/// bit-identical to sequential execution. Serialized output is the
/// byte-exact witness.
TEST(ServeServiceTest, ConcurrentResultsBitIdenticalToSequential) {
  constexpr int kRequests = 8;
  const uint64_t seeds[kRequests] = {1, 2, 3, 1, 2, 7, 7, 11};

  // Sequential reference: one slot, submitted one at a time.
  std::vector<std::string> reference;
  {
    ServeService service(SmallServeOptions(1));
    ASSERT_TRUE(service.store().Register("toy", datasets::MakeToy(5)).ok());
    for (uint64_t seed : seeds) {
      auto reply = service.Condense(ToyRequest(seed));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      reference.push_back(reply->graph_bytes);
    }
    service.Shutdown();
  }

  // Concurrent run: 4 slots, all submitted up front.
  ServeService service(SmallServeOptions(4));
  ASSERT_TRUE(service.store().Register("toy", datasets::MakeToy(5)).ok());
  std::vector<TicketPtr> tickets;
  for (uint64_t seed : seeds) {
    auto t = service.Submit(ToyRequest(seed));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tickets.push_back(*t);
  }
  for (int i = 0; i < kRequests; ++i) {
    Result<CondenseReply>& reply = tickets[static_cast<size_t>(i)]->Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->graph_bytes, reference[static_cast<size_t>(i)])
        << "request " << i << " (seed " << seeds[i]
        << ") diverged from sequential execution";
  }
  service.Shutdown();
}

CondenseRequest EvalRequest(uint64_t seed) {
  CondenseRequest req = ToyRequest(seed);
  req.evaluate = true;
  return req;
}

/// Coalescing: K concurrent same-config evaluating requests propagate
/// once; a condense-only FreeHGC request reads no blocks and builds none.
TEST(ServeServiceTest, SameConfigRequestsCoalesceEvalContext) {
  ServeService service(SmallServeOptions(4));
  ASSERT_TRUE(service.store().Register("toy", datasets::MakeToy(5)).ok());
  auto plain = service.Condense(ToyRequest(9));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(service.eval_context_builds(), 0);
  EXPECT_TRUE(plain->evalctx_hit);

  std::vector<TicketPtr> tickets;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto t = service.Submit(EvalRequest(seed));
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  for (auto& t : tickets) ASSERT_TRUE(t->Wait().ok());
  EXPECT_EQ(service.eval_context_builds(), 1);

  // A config with a different propagation path list is a different
  // build (toy's first three paths are all it has, so cap at one).
  CondenseRequest other = EvalRequest(1);
  other.max_paths = 1;
  ASSERT_TRUE(service.Condense(other).ok());
  EXPECT_EQ(service.eval_context_builds(), 2);
  service.Shutdown();
}

TEST(ServeServiceTest, IdenticalInflightRequestsCoalesceAtServiceLevel) {
  // Service-level wiring of request coalescing (on by default): a burst
  // of byte-identical requests on one slot produces identical replies,
  // and any that overlapped an in-flight twin rode its execution. The
  // count of coalesced requests is timing-dependent; the reply identity
  // and counter consistency are not.
  ServeService service(SmallServeOptions(1));
  ASSERT_TRUE(service.store().Register("toy", datasets::MakeToy(40)).ok());

  constexpr int kThreads = 6;
  std::vector<Result<CondenseReply>> replies(
      kThreads, Result<CondenseReply>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { replies[static_cast<size_t>(i)] = service.Condense(ToyRequest(5)); });
  }
  for (auto& t : threads) t.join();

  for (const auto& r : replies) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->graph_bytes, replies[0]->graph_bytes);
  }
  const SchedulerStats stats = service.scheduler_stats();
  EXPECT_EQ(stats.completed, kThreads);
  EXPECT_EQ(stats.admitted, kThreads);

  // The QoS counters surface in the stats JSON for operators.
  const std::string json = service.StatsJson();
  for (const char* key : {"\"coalesced\"", "\"shed_slo\"", "\"aged\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
  service.Shutdown();
}

// Each service counts into its own registry: a second service in the
// same process starts from zero, latency quantiles included.
TEST(ServeServiceTest, MetricsAreScopedToTheService) {
  {
    ServeService a(SmallServeOptions(1));
    ASSERT_TRUE(a.store().Register("toy", datasets::MakeToy(5)).ok());
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ASSERT_TRUE(a.Condense(EvalRequest(seed)).ok());
    }
    const std::string json = a.StatsJson();
    EXPECT_NE(json.find("\"completed\": 3,"), std::string::npos) << json;
    EXPECT_EQ(json.find("\"latency_ms\": {\"p50\": 0.000,"),
              std::string::npos)
        << json;
    EXPECT_EQ(a.eval_context_builds(), 1);
    a.Shutdown();
  }
  ServeService b(SmallServeOptions(1));
  ASSERT_TRUE(b.store().Register("toy", datasets::MakeToy(5)).ok());
  EXPECT_EQ(b.eval_context_builds(), 0);
  const std::string json = b.StatsJson();
  for (const char* want :
       {"\"completed\": 0,", "\"eval_context_builds\": 0,",
        "\"queue_ms\": {\"p50\": 0.000,", "\"exec_ms\": {\"p50\": 0.000,",
        "\"latency_ms\": {\"p50\": 0.000,"}) {
    EXPECT_NE(json.find(want), std::string::npos) << want << " in " << json;
  }
  b.Shutdown();
}

TEST(ServeServiceTest, ValidatesBeforeAdmission) {
  ServeService service(SmallServeOptions(1));
  ASSERT_TRUE(service.store().Register("toy", datasets::MakeToy(5)).ok());

  CondenseRequest unknown_graph = ToyRequest(1);
  unknown_graph.graph = "nope";
  EXPECT_EQ(service.Submit(unknown_graph).status().code(),
            StatusCode::kNotFound);

  CondenseRequest unknown_method = ToyRequest(1);
  unknown_method.method = "nope";
  auto res = service.Submit(unknown_method);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
  EXPECT_NE(res.status().message().find("registered:"), std::string::npos);

  CondenseRequest bad_ratio = ToyRequest(1);
  bad_ratio.ratio = 1.5;
  EXPECT_EQ(service.Submit(bad_ratio).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.scheduler_stats().admitted, 0);
  service.Shutdown();
}

TEST(ServeServiceTest, EvaluateReproducesPipelineRunMethod) {
  const HeteroGraph toy = datasets::MakeToy(5);
  ServeService service(SmallServeOptions(1));
  ASSERT_TRUE(service.store().Register("toy", toy).ok());
  CondenseRequest req = ToyRequest(3);
  req.evaluate = true;
  auto reply = service.Condense(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->evaluated);

  // The same run through the pipeline layer directly.
  MetaPathOptions mp;
  mp.max_paths = req.max_paths;
  hgnn::EvalContext ctx = hgnn::BuildEvalContext(toy, mp);
  pipeline::RunSpec spec;
  spec.ratio = req.ratio;
  spec.seed = req.seed;
  pipeline::ArtifactCache cache;
  auto run = pipeline::RunMethod(ctx, "freehgc", spec,
                                 service.options().eval, {nullptr, &cache});
  ASSERT_TRUE(run.ok());
  EXPECT_FLOAT_EQ(reply->accuracy, run->accuracy);
  EXPECT_FLOAT_EQ(reply->macro_f1, run->macro_f1);
  service.Shutdown();
}

// A store budget never wedges the server: a graph that has served a
// request is evictable once the request is done. Six ACM uploads through
// a spool dir under a budget that holds about two of them, one condense
// after each.
TEST(ServeServiceTest, StoreBudgetEvictsServedGraphsInsteadOfShedding) {
  constexpr size_t kBudget = 14000000;
  const std::string spool =
      StrFormat("/tmp/freehgc_test_wedge_%d", static_cast<int>(::getpid()));
  ServeOptions opts = SmallServeOptions(1);
  opts.store_resident_budget_bytes = kBudget;
  ServeService service(opts);
  ASSERT_TRUE(service.store().SetSpoolDir(spool).ok());

  std::vector<std::string> spooled;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto bytes = SerializeHeteroGraph(datasets::MakeAcm(seed, 2.0));
    ASSERT_TRUE(bytes.ok());
    const std::string name = StrFormat("acm%d", static_cast<int>(seed));
    auto info = service.store().RegisterSerialized(name, *bytes);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_TRUE(info->mapped);
    ASSERT_LE(info->memory_bytes, kBudget);
    spooled.push_back(info->source_path);

    CondenseRequest req;
    req.graph = name;
    req.method = "freehgc";
    req.ratio = 0.05;
    req.seed = seed;
    auto reply = service.Condense(req);
    ASSERT_TRUE(reply.ok()) << "upload " << seed << ": "
                            << reply.status().ToString();
    EXPECT_EQ(reply->graph_fingerprint, info->fingerprint);
    EXPECT_LE(service.store().MappedResidentBytes(), kBudget)
        << "after the request on upload " << seed;
  }
  EXPECT_EQ(service.scheduler_stats().shed, 0);
  EXPECT_GT(service.store().Evictions(), 0);
  service.Shutdown();
  for (const std::string& path : spooled) std::remove(path.c_str());
  ::rmdir(spool.c_str());
}

// Spill-aware admission: once mapped graphs the store cannot evict (their
// GraphRefs are held) sit past kBudgetShedFactor times the store budget,
// Submit sheds with kResourceExhausted and counts serve.shed.budget.
TEST(ServeServiceTest, StoreBudgetPressureShedsSubmissions) {
  std::vector<std::string> paths;
  size_t largest = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const HeteroGraph g = datasets::MakeToy(seed);
    paths.push_back(StrFormat("%s/freehgc_test_shed_%d_%d.fhgc",
                              testing::TempDir().c_str(),
                              static_cast<int>(::getpid()),
                              static_cast<int>(seed)));
    ASSERT_TRUE(SaveHeteroGraphV3(g, paths.back()).ok());
    largest = std::max(largest, g.MemoryBytes());
  }
  ServeOptions opts = SmallServeOptions(1);
  opts.store_resident_budget_bytes = largest;
  ServeService service(opts);

  std::vector<GraphStore::GraphRef> held;
  auto register_and_hold = [&](size_t i) {
    const std::string name = StrFormat("g%d", static_cast<int>(i));
    ASSERT_TRUE(service.store().RegisterMappedFile(name, paths[i]).ok());
    auto ref = service.store().Get(name);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    held.push_back(*ref);
  };
  CondenseRequest req = ToyRequest(1);
  req.graph = "g0";
  req.return_graph = false;

  // Two graphs fit inside 2x the budget: admitted.
  register_and_hold(0);
  register_and_hold(1);
  ASSERT_LE(service.store().MappedResidentBytes(),
            static_cast<size_t>(ServeService::kBudgetShedFactor *
                                static_cast<double>(largest)));
  ASSERT_TRUE(service.Condense(req).ok());

  // The third pushes the pinned set past 2x the budget: shed.
  register_and_hold(2);
  ASSERT_GT(service.store().MappedResidentBytes(),
            static_cast<size_t>(ServeService::kBudgetShedFactor *
                                static_cast<double>(largest)));
  EXPECT_EQ(service.store().Evictions(), 0);
  auto shed = service.Submit(req);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.scheduler_stats().shed_budget, 1);

  service.Shutdown();
  held.clear();
  for (const std::string& path : paths) std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Wire codecs.

TEST(WireTest, CodecsRoundTrip) {
  CondenseRequest req;
  req.graph = "acm";
  req.method = "herding";
  req.ratio = 0.05;
  req.seed = 42;
  req.max_hops = 3;
  req.max_paths = 7;
  req.max_row_nnz = 256;
  req.evaluate = true;
  req.return_graph = true;
  req.priority = -2;
  req.deadline_ms = 1500;
  WireWriter w;
  EncodeCondenseRequest(w, req);
  WireReader r(w.payload());
  auto back = DecodeCondenseRequest(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->graph, req.graph);
  EXPECT_EQ(back->method, req.method);
  EXPECT_EQ(back->ratio, req.ratio);
  EXPECT_EQ(back->seed, req.seed);
  EXPECT_EQ(back->max_hops, req.max_hops);
  EXPECT_EQ(back->max_paths, req.max_paths);
  EXPECT_EQ(back->max_row_nnz, req.max_row_nnz);
  EXPECT_EQ(back->evaluate, req.evaluate);
  EXPECT_EQ(back->return_graph, req.return_graph);
  EXPECT_EQ(back->priority, req.priority);
  EXPECT_EQ(back->deadline_ms, req.deadline_ms);
  EXPECT_EQ(r.remaining(), 0u);

  CondenseReply reply;
  reply.nodes = 42;
  reply.edges = 100;
  reply.storage_bytes = 2680;
  reply.condense_seconds = 0.125;
  reply.evaluated = true;
  reply.accuracy = 96.5f;
  reply.graph_bytes = std::string("\x00\x01\x02", 3);
  reply.graph_fingerprint = 0xdeadbeefcafef00dULL;
  reply.request_id = 7077;
  reply.evalctx_hit = true;
  WireWriter w2;
  EncodeCondenseReply(w2, reply);
  WireReader r2(w2.payload());
  auto reply_back = DecodeCondenseReply(r2);
  ASSERT_TRUE(reply_back.ok());
  EXPECT_EQ(reply_back->nodes, reply.nodes);
  EXPECT_EQ(reply_back->storage_bytes, reply.storage_bytes);
  EXPECT_EQ(reply_back->graph_bytes, reply.graph_bytes);
  EXPECT_EQ(reply_back->graph_fingerprint, reply.graph_fingerprint);
  EXPECT_FLOAT_EQ(reply_back->accuracy, reply.accuracy);
  EXPECT_EQ(reply_back->request_id, reply.request_id);
  EXPECT_TRUE(reply_back->evalctx_hit);
  EXPECT_EQ(r2.remaining(), 0u);
}

TEST(WireTest, GraphInfoCarriesMappedResidency) {
  GraphInfo info;
  info.name = "acm";
  info.fingerprint = 0x1234abcd5678ef90ULL;
  info.nodes = 10;
  info.edges = 20;
  info.memory_bytes = 4096;
  info.mapped = true;
  info.source_path = "/tmp/spool/x.fhgc";
  WireWriter w;
  EncodeGraphInfoList(w, {info});
  WireReader r(w.payload());
  auto back = DecodeGraphInfoList(r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].name, info.name);
  EXPECT_EQ((*back)[0].fingerprint, info.fingerprint);
  EXPECT_EQ((*back)[0].memory_bytes, info.memory_bytes);
  EXPECT_TRUE((*back)[0].mapped);
  EXPECT_EQ((*back)[0].source_path, info.source_path);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, ReaderRejectsShortPayloads) {
  WireWriter w;
  w.PutString("hello");
  const std::string payload = w.payload();
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireReader r(std::string_view(payload).substr(0, cut));
    EXPECT_FALSE(r.GetString().ok()) << "cut=" << cut;
  }
  WireReader r(payload);
  auto s = r.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "hello");
}

// Seeded mutation test of the wire decoders: byte flips, truncations and
// insertions of every encoded message kind, fed through its decoder. Each
// mutant sits in a heap buffer of exactly its size, so under ASan a read
// one byte past the payload is a heap-buffer-overflow. Every mutant must
// decode or fail with a Status naming the problem.
TEST(WireMutationTest, EveryMutantDecodesOrFailsCleanly) {
  CondenseRequest req;
  req.graph = "acm";
  req.method = "freehgc";
  req.ratio = 0.05;
  req.seed = 42;
  req.max_row_nnz = 256;
  req.evaluate = true;
  req.priority = -2;
  req.deadline_ms = 1500;
  CondenseReply reply;
  reply.nodes = 42;
  reply.edges = 100;
  reply.evaluated = true;
  reply.accuracy = 96.5f;
  reply.graph_bytes = std::string("\x00\x01\x02\x03", 4);
  reply.graph_fingerprint = 0xdeadbeefcafef00dULL;
  reply.request_id = 7077;
  GraphInfo heap_info;
  heap_info.name = "acm";
  heap_info.nodes = 10;
  heap_info.edges = 20;
  GraphInfo mapped_info = heap_info;
  mapped_info.name = "dblp";
  mapped_info.mapped = true;
  mapped_info.source_path = "/spool/dblp.fhgc";
  HelloInfo hello;
  hello.features = kFeatureAdminOps | kFeatureFetchGraph;
  hello.role = "serve";

  auto encoded = [](auto encode) {
    WireWriter w;
    encode(w);
    return w.Take();
  };
  auto read_all = [](auto decode) {
    return [decode](std::string_view payload) {
      WireReader r(payload);
      return decode(r).status();
    };
  };
  struct Codec {
    const char* name;
    std::string bytes;
    std::function<Status(std::string_view)> decode;
  };
  const Codec codecs[] = {
      {"WireResponse",
       EncodeResponse(Status::NotFound("no graph 'x'"), "body"),
       [](std::string_view payload) {
         auto got = DecodeResponse(payload);
         if (got.ok()) got->status.ToString();
         return got.status();
       }},
      {"CondenseRequest",
       encoded([&](WireWriter& w) { EncodeCondenseRequest(w, req); }),
       read_all(DecodeCondenseRequest)},
      {"CondenseReply",
       encoded([&](WireWriter& w) { EncodeCondenseReply(w, reply); }),
       read_all(DecodeCondenseReply)},
      {"GraphInfo list",
       encoded([&](WireWriter& w) {
         EncodeGraphInfoList(w, {heap_info, mapped_info});
       }),
       read_all(DecodeGraphInfoList)},
      {"HelloInfo",
       encoded([&](WireWriter& w) { EncodeHelloInfo(w, hello); }),
       read_all(DecodeHelloInfo)},
  };
  Rng rng(20261021);
  for (const Codec& codec : codecs) {
    ASSERT_TRUE(codec.decode(codec.bytes).ok()) << codec.name;
    int decoded = 0, rejected = 0;
    for (int i = 0; i < 2000; ++i) {
      const std::string mutant = testing_util::MutateBytes(codec.bytes, rng);
      const auto buffer = std::make_unique<char[]>(mutant.size());
      std::memcpy(buffer.get(), mutant.data(), mutant.size());
      const Status st =
          codec.decode(std::string_view(buffer.get(), mutant.size()));
      if (st.ok()) {
        ++decoded;
      } else {
        ++rejected;
        EXPECT_FALSE(st.message().empty()) << codec.name << " mutant " << i;
      }
    }
    // Both outcomes occur: the mutants reach past the first field.
    EXPECT_GT(decoded, 0) << codec.name;
    EXPECT_GT(rejected, 0) << codec.name;
  }
}

TEST(WireTest, ResponseEnvelopeCarriesStatus) {
  const std::string payload =
      EncodeResponse(Status::ResourceExhausted("queue full"), "body");
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(resp->status.message(), "queue full");
  EXPECT_EQ(resp->body, "body");
}

TEST(WireTest, HelloInfoRoundTripsAndRejectsEmptyBody) {
  HelloInfo info;
  info.protocol_version = kProtocolVersion;
  info.features = kFeatureAdminOps | kFeatureFetchGraph;
  info.role = "serve";
  WireWriter w;
  EncodeHelloInfo(w, info);
  WireReader r(w.payload());
  auto back = DecodeHelloInfo(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->protocol_version, kProtocolVersion);
  EXPECT_EQ(back->features, kFeatureAdminOps | kFeatureFetchGraph);
  EXPECT_EQ(back->role, "serve");
  EXPECT_EQ(r.remaining(), 0u);

  // Truncation at every offset is rejected. Cut 0 is an empty Ping body,
  // which ServeClient::Hello therefore returns as an error.
  for (size_t cut = 0; cut < w.payload().size(); ++cut) {
    WireReader rc(std::string_view(w.payload()).substr(0, cut));
    EXPECT_FALSE(DecodeHelloInfo(rc).ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Frame I/O over socketpairs.

/// Connected AF_UNIX socketpair, closed on scope exit.
struct SocketPair {
  explicit SocketPair(int type) {
    ok = ::socketpair(AF_UNIX, type, 0, fd) == 0;
  }
  ~SocketPair() {
    CloseEnd(0);
    CloseEnd(1);
  }
  void CloseEnd(int i) {
    if (fd[i] >= 0) ::close(fd[i]);
    fd[i] = -1;
  }
  bool ok = false;
  int fd[2] = {-1, -1};
};

// A frame is one write: over a record-preserving socket, one recv sees
// the prefix and the payload together. Two writes (prefix, then payload)
// are what lets Nagle stall a TCP frame until the peer's delayed ACK.
TEST(WireTest, FrameLeavesInOneWrite) {
  SocketPair sp(SOCK_SEQPACKET);
  ASSERT_TRUE(sp.ok);
  const std::string payload = "condensed graph bytes";
  ASSERT_TRUE(WriteFrame(sp.fd[0], payload).ok());
  char buf[256];
  const ssize_t n = ::recv(sp.fd[1], buf, sizeof(buf), 0);
  ASSERT_EQ(n, static_cast<ssize_t>(4 + payload.size()));
  EXPECT_EQ(std::string(buf, 4),
            std::string("\x15\x00\x00\x00", 4));  // u32 LE length 21
  EXPECT_EQ(std::string(buf + 4, payload.size()), payload);
}

// A frame far larger than the socket buffer, with the blocked writer
// interrupted by signals, so sendmsg returns short counts (and EINTR)
// mid-frame: the writer must resume exactly where it stopped.
TEST(WireTest, LargeFrameSurvivesPartialWrites) {
  SocketPair sp(SOCK_STREAM);
  ASSERT_TRUE(sp.ok);
  const int small = 16 << 10;
  ASSERT_EQ(::setsockopt(sp.fd[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  ASSERT_EQ(::setsockopt(sp.fd[1], SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  std::string payload(4u << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) ^ (i >> 11));
  }

  struct sigaction interrupt {};
  struct sigaction saved {};
  interrupt.sa_handler = [](int) {};
  sigemptyset(&interrupt.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &saved), 0);

  std::atomic<bool> written{false};
  Status write_status;
  std::thread writer([&] {
    write_status = WriteFrame(sp.fd[0], payload);
    written.store(true);
  });
  // Wait until the writer has filled the buffer and blocked, then
  // interrupt it a few times before the reader drains anything.
  pollfd readable{sp.fd[1], POLLIN, 0};
  const int polled = ::poll(&readable, 1, 5000);
  for (int i = 0; i < 4 && !written.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ::pthread_kill(writer.native_handle(), SIGUSR1);
  }
  auto got = ReadFrame(sp.fd[1]);
  writer.join();
  ::sigaction(SIGUSR1, &saved, nullptr);

  EXPECT_EQ(polled, 1);
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->payload.size(), payload.size());
  EXPECT_TRUE(got->payload == payload)
      << "payload bytes differ after partial writes";
}

TEST(WireTest, FramePayloadEndsOnAnEightByteBoundary) {
  // An upload's container is the frame's last field and its size is a
  // multiple of 8, so it must start aligned whatever precedes it.
  for (size_t head : {1u, 5u, 8u, 13u}) {
    SocketPair sp(SOCK_STREAM);
    ASSERT_TRUE(sp.ok);
    const std::string prefix(head, 'h');
    const std::string tail(64, 't');
    ASSERT_TRUE(WriteFrame(sp.fd[0], prefix, tail).ok());
    auto got = ReadFrame(sp.fd[1]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->payload, prefix + tail);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(got->payload.data() + head) % 8, 0u)
        << head;
  }
}

TEST(WireTest, ReadFrameReportsEofAndOversizeFrames) {
  {  // EOF before the first byte: the peer closed between frames.
    SocketPair sp(SOCK_STREAM);
    ASSERT_TRUE(sp.ok);
    sp.CloseEnd(0);
    EXPECT_EQ(ReadFrame(sp.fd[1]).status().code(), StatusCode::kUnavailable);
  }
  {  // EOF inside the length prefix.
    SocketPair sp(SOCK_STREAM);
    ASSERT_TRUE(sp.ok);
    ASSERT_EQ(::write(sp.fd[0], "\x05\x00", 2), 2);
    sp.CloseEnd(0);
    EXPECT_EQ(ReadFrame(sp.fd[1]).status().code(), StatusCode::kInternal);
  }
  {  // EOF inside the payload.
    SocketPair sp(SOCK_STREAM);
    ASSERT_TRUE(sp.ok);
    ASSERT_EQ(::write(sp.fd[0], "\x05\x00\x00\x00" "abc", 7), 7);
    sp.CloseEnd(0);
    EXPECT_EQ(ReadFrame(sp.fd[1]).status().code(), StatusCode::kInternal);
  }
  {  // An announced length above the cap is refused before allocation.
    SocketPair sp(SOCK_STREAM);
    ASSERT_TRUE(sp.ok);
    const uint32_t len = kMaxFrameBytes + 1;
    char prefix[4];
    for (int i = 0; i < 4; ++i) prefix[i] = static_cast<char>(len >> (8 * i));
    ASSERT_EQ(::write(sp.fd[0], prefix, 4), 4);
    EXPECT_EQ(ReadFrame(sp.fd[1]).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WireTest, SetNoDelayOnTcpAndErrorElsewhere) {
  const int tcp = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(tcp, 0);
  const Status st = SetNoDelay(tcp);
  int on = 0;
  socklen_t len = sizeof(on);
  const int rc = ::getsockopt(tcp, IPPROTO_TCP, TCP_NODELAY, &on, &len);
  ::close(tcp);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(rc, 0);
  EXPECT_NE(on, 0);

  // Not a TCP socket: the error surfaces instead of being swallowed.
  SocketPair sp(SOCK_STREAM);
  ASSERT_TRUE(sp.ok);
  EXPECT_EQ(SetNoDelay(sp.fd[0]).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// TCP loopback end-to-end.

TEST(ServerTest, LoopbackRoundTripAndGracefulShutdown) {
  ServerOptions options;
  options.serve = SmallServeOptions(2);
  Server server(options);
  const Status st = server.Start();
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }
  ASSERT_GT(server.port(), 0);

  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  auto info = client.RegisterGenerator("toy", "toy", 5, 0.0);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GT(info->nodes, 0);

  // Upload path: serialize locally, upload under a new name.
  auto bytes = SerializeHeteroGraph(datasets::MakeToy(7));
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(client.UploadGraph("toy7", *bytes).ok());
  auto corrupt = *bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;
  EXPECT_EQ(client.UploadGraph("bad", corrupt).status().code(),
            StatusCode::kInvalidArgument);

  auto list = client.ListGraphs();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);

  CondenseRequest req = EvalRequest(3);
  auto reply = client.Condense(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GT(reply->nodes, 0);
  EXPECT_FALSE(reply->graph_bytes.empty());
  // The wire reply carries the scheduler-assigned request id and whether
  // the request ran a propagation build (the first evaluating request on
  // this graph config does).
  EXPECT_GT(reply->request_id, 0u);
  EXPECT_FALSE(reply->evalctx_hit);
  auto reply2 = client.Condense(req);
  ASSERT_TRUE(reply2.ok());
  EXPECT_GT(reply2->request_id, reply->request_id);
  EXPECT_TRUE(reply2->evalctx_hit);
  // The returned container parses and matches the in-process result.
  ServeService local(SmallServeOptions(1));
  ASSERT_TRUE(local.store().Register("toy", datasets::MakeToy(5)).ok());
  auto local_reply = local.Condense(req);
  ASSERT_TRUE(local_reply.ok());
  EXPECT_EQ(reply->graph_bytes, local_reply->graph_bytes);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"completed\": 2"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"queue_ms\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"exec_ms\""), std::string::npos) << *stats;

  // Admin ops: METRICS is parseable Prometheus text containing the
  // serving counters, HEALTH reports ok, and the flight recorder holds
  // the requests this test just ran.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const auto samples = obs::ParsePrometheusText(*metrics);
  double completed = 0.0;
  ASSERT_TRUE(obs::FindPromValue(
      samples, "freehgc_serve_requests_completed_total", &completed))
      << *metrics;
  EXPECT_GE(completed, 2.0);
  double exec_count = 0.0;
  ASSERT_TRUE(obs::FindPromValue(samples,
                                 "freehgc_serve_latency_exec_ns_count",
                                 &exec_count));
  EXPECT_GE(exec_count, 2.0);

  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health->find("\"slots\": 2"), std::string::npos) << *health;

  auto flight = client.FlightRecorderDump();
  ASSERT_TRUE(flight.ok());
  EXPECT_NE(flight->find("\"recent\": ["), std::string::npos);
  EXPECT_NE(flight->find("\"graph\": \"toy\""), std::string::npos)
      << *flight;

  ASSERT_TRUE(client.Shutdown().ok());
  server.Wait();  // drains and returns
  EXPECT_EQ(server.service().scheduler_stats().inflight, 0);
  EXPECT_EQ(server.service().scheduler_stats().queue_depth, 0);
}

// A meta-path configuration the server cannot bound is rejected before
// admission, so nothing executes: an unlimited or negative path cap, a
// negative row budget, and int fields sent out of int range (which the
// decoder used to truncate, so max_paths = 2^32 arrived as 0).
TEST(ServerTest, RejectsUnboundedMetaPathRequestsBeforeAdmission) {
  ServerOptions options;
  options.serve = SmallServeOptions(1);
  Server server(options);
  const Status st = server.Start();
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.RegisterGenerator("toy", "toy", 5, 0.0).ok());

  for (const int max_paths : {0, -1}) {
    CondenseRequest req = ToyRequest(1);
    req.max_paths = max_paths;
    EXPECT_EQ(client.Condense(req).status().code(),
              StatusCode::kInvalidArgument)
        << "max_paths " << max_paths;
  }
  CondenseRequest negative_budget = ToyRequest(1);
  negative_budget.max_row_nnz = -1;
  EXPECT_EQ(client.Condense(negative_budget).status().code(),
            StatusCode::kInvalidArgument);

  // The wire carries max_hops, max_paths and priority as i64.
  auto condense_payload = [](int64_t max_hops, int64_t max_paths,
                             int64_t priority) {
    const CondenseRequest req = ToyRequest(1);
    WireWriter w;
    w.PutU8(static_cast<uint8_t>(MsgType::kCondense));
    w.PutString(req.graph);
    w.PutString(req.method);
    w.PutF64(req.ratio);
    w.PutU64(req.seed);
    w.PutI64(max_hops);
    w.PutI64(max_paths);
    w.PutI64(req.max_row_nnz);
    w.PutU8(0);
    w.PutU8(0);
    w.PutI64(priority);
    w.PutI64(req.deadline_ms);
    return w.Take();
  };
  ASSERT_TRUE(client.Call(condense_payload(2, 6, 0)).ok());
  const int64_t completed = server.service().scheduler_stats().completed;
  for (const int64_t bad : {int64_t{1} << 32, int64_t{1} << 31,
                            -(int64_t{1} << 31) - 1}) {
    EXPECT_EQ(client.Call(condense_payload(bad, 6, 0)).status().code(),
              StatusCode::kInvalidArgument)
        << "max_hops " << bad;
    EXPECT_EQ(client.Call(condense_payload(2, bad, 0)).status().code(),
              StatusCode::kInvalidArgument)
        << "max_paths " << bad;
    EXPECT_EQ(client.Call(condense_payload(2, 6, bad)).status().code(),
              StatusCode::kInvalidArgument)
        << "priority " << bad;
  }
  const SchedulerStats stats = server.service().scheduler_stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, completed);
  ASSERT_TRUE(client.Shutdown().ok());
  server.Wait();
}

// Protocol-v2 handshake: the Ping reply identifies the server; cluster
// metadata ops aimed at a serve server are rejected with a pointer to
// the meta service; FetchGraph serializes a resident graph back.
TEST(ServerTest, HelloNegotiationFetchGraphAndClusterOpRejection) {
  ServerOptions options;
  options.serve = SmallServeOptions(1);
  Server server(options);
  const Status st = server.Start();
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }

  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto hello = client.Hello();
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->protocol_version, kProtocolVersion);
  EXPECT_EQ(hello->role, "serve");
  EXPECT_NE(hello->features & kFeatureAdminOps, 0u);
  EXPECT_NE(hello->features & kFeatureFetchGraph, 0u);
  EXPECT_EQ(hello->features & kFeatureClusterOps, 0u);

  // Cluster metadata ops do not belong here.
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kRegisterShard));
  auto rejected = client.Call(w.Take());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("freehgc_meta"),
            std::string::npos)
      << rejected.status().ToString();

  // FetchGraph returns the same container bytes the store would
  // serialize — the replication path's transport.
  ASSERT_TRUE(client.RegisterGenerator("toy", "toy", 5, 0.0).ok());
  auto fetched = client.FetchGraph("toy");
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  auto ref = server.service().store().Get("toy");
  ASSERT_TRUE(ref.ok());
  auto expected = SerializeHeteroGraph(**ref);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*fetched, *expected);
  EXPECT_EQ(client.FetchGraph("missing").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(client.Shutdown().ok());
  server.Wait();
}


// Two servers in one process each export only their own numbers — the
// scheduler's serve.*, the store's serve.store.* / store.* and the
// cache's pipeline.cache.* — and the METRICS text (process-global
// registry followed by the service's) declares every metric family
// exactly once. The servers carry different loads: one graph and one
// condense on the first, two of each on the second.
TEST(ServerTest, MetricsArePerServerAndEachFamilyIsTypedOnce) {
  ServerOptions options;
  options.serve = SmallServeOptions(1);
  Server first(options);
  Server second(options);
  if (!first.Start().ok() || !second.Start().ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets here";
  }
  ServeClient c1;
  ServeClient c2;
  ASSERT_TRUE(c1.Connect(first.port()).ok());
  ASSERT_TRUE(c2.Connect(second.port()).ok());
  ASSERT_TRUE(c1.RegisterGenerator("toy", "toy", 5, 0.0).ok());
  ASSERT_TRUE(c2.RegisterGenerator("toy", "toy", 5, 0.0).ok());
  ASSERT_TRUE(c2.RegisterGenerator("toy6", "toy", 6, 0.0).ok());
  ASSERT_TRUE(c1.Condense(ToyRequest(1)).ok());
  ASSERT_TRUE(c2.Condense(ToyRequest(1)).ok());
  CondenseRequest other = ToyRequest(2);
  other.graph = "toy6";
  ASSERT_TRUE(c2.Condense(other).ok());

  const std::tuple<ServeClient*, Server*, double> expected[] = {
      {&c1, &first, 1.0}, {&c2, &second, 2.0}};
  for (const auto& [client, server, want] : expected) {
    auto metrics = client->Metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    const std::vector<obs::PromSample> samples =
        obs::ParsePrometheusText(*metrics);
    auto value = [&samples](const char* name) {
      double v = -1.0;
      EXPECT_TRUE(obs::FindPromValue(samples, name, &v)) << name;
      return v;
    };
    EXPECT_EQ(value("freehgc_serve_requests_completed_total"), want);
    ServeService& service = server->service();
    const pipeline::ArtifactCache::Stats cache = service.cache().stats();
    EXPECT_EQ(value("freehgc_serve_store_graphs"), want);
    EXPECT_EQ(value("freehgc_serve_store_graphs"),
              static_cast<double>(service.store().Count()));
    EXPECT_GT(cache.misses, 0);
    EXPECT_EQ(value("freehgc_pipeline_cache_misses_total"),
              static_cast<double>(cache.misses));
    EXPECT_EQ(value("freehgc_pipeline_cache_bytes"),
              static_cast<double>(cache.bytes));
    std::set<std::string> typed;
    std::istringstream lines(*metrics);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("# TYPE ", 0) != 0) continue;
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed.insert(name).second) << name << " typed twice";
    }
    EXPECT_TRUE(typed.count("freehgc_serve_evalctx_builds_total"));
    EXPECT_TRUE(typed.count("freehgc_serve_store_graphs"));
    // Registered at construction, so present before the first hit.
    EXPECT_TRUE(typed.count("freehgc_pipeline_cache_hits_total"));
  }
  ASSERT_TRUE(c1.Shutdown().ok());
  ASSERT_TRUE(c2.Shutdown().ok());
  first.Wait();
  second.Wait();
}

// Small frames on a long-lived connection must not wait out the peer's
// delayed-ACK timer (>= 40 ms a frame when Nagle holds a split write):
// 50 warm Pings fit in well under a second.
TEST(ServerTest, WarmPingBurstHasNoDelayedAckStall) {
  ServerOptions options;
  options.serve = SmallServeOptions(1);
  Server server(options);
  const Status st = server.Start();
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(client.Ping().ok());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(client.Ping().ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "50 Pings took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms";
}

}  // namespace
}  // namespace freehgc::serve
