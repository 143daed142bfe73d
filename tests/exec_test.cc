#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/freehgc.h"
#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "metapath/metapath.h"
#include "pipeline/artifact_cache.h"
#include "sparse/ops.h"

namespace freehgc {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, StartupAndShutdown) {
  for (int size : {1, 2, 4, 8}) {
    exec::ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
  }
  // Degenerate sizes clamp to one worker (the caller).
  exec::ThreadPool tiny(0);
  EXPECT_EQ(tiny.size(), 1);
  exec::ThreadPool negative(-3);
  EXPECT_EQ(negative.size(), 1);
}

TEST(ThreadPoolTest, InvokeRunsEveryWorkerExactlyOnce) {
  // Two threads drive one pool at once: every chunk of every Run is
  // claimed exactly once, worker ids stay in [0, size()), and no body is
  // still running once its Run has returned.
  exec::ThreadPool pool(4);
  constexpr int64_t kChunks = 64;
  auto drive = [&pool] {
    exec::Workspace ws;
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> hits(kChunks);
      for (auto& h : hits) h = 0;
      std::atomic<int> inside{0};
      const int participants = pool.Run(
          kChunks, ws,
          [&](int worker, exec::Workspace&, exec::ThreadPool::Cursor& chunks) {
            ++inside;
            EXPECT_GE(worker, 0);
            EXPECT_LT(worker, pool.size());
            for (int64_t c; (c = chunks.Next()) >= 0;) {
              // Long enough chunks that helpers join mid-job.
              std::this_thread::sleep_for(std::chrono::microseconds(10));
              ++hits[static_cast<size_t>(c)];
            }
            --inside;
          });
      EXPECT_EQ(inside, 0) << "a body outlived its Run";
      EXPECT_GE(participants, 1);
      EXPECT_LE(participants, pool.size());
      for (const auto& h : hits) EXPECT_EQ(h, 1);
    }
  };
  std::thread other(drive);
  drive();
  other.join();
}

// --- ParallelFor ----------------------------------------------------------

TEST(ExecContextTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    exec::ExecContext ex(threads);
    for (int64_t n : {1, 7, 100, 1000, 10000}) {
      for (int64_t grain : {1, 16, 512}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h = 0;
        ex.ParallelFor(n, grain,
                       [&](int64_t begin, int64_t end, exec::Workspace&) {
                         for (int64_t i = begin; i < end; ++i) {
                           ++hits[static_cast<size_t>(i)];
                         }
                       });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<size_t>(i)], 1)
              << "index " << i << " n=" << n << " grain=" << grain
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ExecContextTest, ChunkLayoutIgnoresThreadCount) {
  // The chunk layout is a pure function of (n, grain); constructing
  // contexts with different worker counts must not change it.
  for (int64_t n : {1, 100, 12345}) {
    for (int64_t grain : {1, 64}) {
      const int64_t chunk = exec::ExecContext::ChunkSize(n, grain);
      EXPECT_GE(chunk, grain);
      EXPECT_EQ(exec::ExecContext::NumChunks(n, grain),
                (n + chunk - 1) / chunk);
      EXPECT_LE(exec::ExecContext::NumChunks(n, grain), 256);
    }
  }
}

TEST(ExecContextTest, ParallelForPropagatesException) {
  for (int threads : {1, 4}) {
    exec::ExecContext ex(threads);
    EXPECT_THROW(
        ex.ParallelFor(1000, 1,
                       [&](int64_t begin, int64_t, exec::Workspace&) {
                         if (begin >= 500) {
                           throw std::runtime_error("chunk failure");
                         }
                       }),
        std::runtime_error);
    // The pool survives an exception and keeps working.
    std::atomic<int64_t> sum{0};
    ex.ParallelFor(100, 1, [&](int64_t b, int64_t e, exec::Workspace&) {
      for (int64_t i = b; i < e; ++i) sum += i;
    });
    EXPECT_EQ(sum, 99 * 100 / 2);
  }
}

TEST(ExecContextTest, NestedParallelForRunsSeriallyAndTerminates) {
  // A kernel issuing ParallelFor from inside another ParallelFor body
  // (e.g. sparse::Transpose under the per-relation loop of
  // EnsureReverseRelations) must not re-enter the pool's single-driver
  // invoke — it degrades to a serial loop on the calling thread. Before
  // the InParallelRegion guard this deadlocked at >= 2 threads whenever
  // the inner range spanned multiple chunks.
  for (int threads : {1, 2, 4}) {
    exec::ExecContext ex(threads);
    const int64_t outer = 8;
    const int64_t inner = 100000;  // multiple chunks at grain 1
    std::vector<int64_t> sums(static_cast<size_t>(outer), 0);
    ex.ParallelFor(outer, 1, [&](int64_t ob, int64_t oe, exec::Workspace&) {
      for (int64_t o = ob; o < oe; ++o) {
        EXPECT_TRUE(exec::ThreadPool::InParallelRegion());
        std::atomic<int64_t> sum{0};
        ex.ParallelFor(inner, 1,
                       [&](int64_t b, int64_t e, exec::Workspace&) {
                         for (int64_t i = b; i < e; ++i) sum += i;
                       });
        sums[static_cast<size_t>(o)] = sum;
      }
    });
    EXPECT_FALSE(exec::ThreadPool::InParallelRegion());
    for (int64_t o = 0; o < outer; ++o) {
      EXPECT_EQ(sums[static_cast<size_t>(o)], inner * (inner - 1) / 2)
          << "outer " << o << " threads " << threads;
    }
  }
}

TEST(ExecContextTest, NestedWorkspaceIsDistinctFromWorkerArenas) {
  // The nested serial path hands out NestedWorkspace(), never the
  // enclosing chunk's per-worker arena: a kernel mid-use of its own
  // workspace can safely call a workspace-using kernel.
  exec::ExecContext ex(2);
  std::atomic<bool> aliased{false};
  ex.ParallelFor(4, 1, [&](int64_t ob, int64_t oe, exec::Workspace& outer) {
    for (int64_t o = ob; o < oe; ++o) {
      ex.ParallelFor(2, 1, [&](int64_t, int64_t, exec::Workspace& nested) {
        if (&nested == &outer) aliased = true;
      });
    }
  });
  EXPECT_FALSE(aliased);
}

TEST(ExecContextTest, ParallelReduceMatchesSequentialFold) {
  for (int threads : {1, 2, 4}) {
    exec::ExecContext ex(threads);
    const int64_t n = 5000;
    const double got = ex.ParallelReduce(
        n, 64, 0.0,
        [](int64_t begin, int64_t end, exec::Workspace&) {
          double s = 0.0;
          for (int64_t i = begin; i < end; ++i) s += 1.0 / (1.0 + i);
          return s;
        },
        [](double acc, double part) { return acc + part; });
    // Recompute with the same chunk layout sequentially: must be
    // bit-identical, not just approximately equal.
    const int64_t chunk = exec::ExecContext::ChunkSize(n, 64);
    double want = 0.0;
    for (int64_t b = 0; b < n; b += chunk) {
      double s = 0.0;
      const int64_t e = std::min(n, b + chunk);
      for (int64_t i = b; i < e; ++i) s += 1.0 / (1.0 + i);
      want += s;
    }
    EXPECT_EQ(got, want);
  }
}

TEST(ExecContextTest, WorkspaceInvariants) {
  exec::Workspace ws;
  auto& accum = ws.ZeroedAccum(64);
  ASSERT_GE(accum.size(), 64u);
  for (float v : accum) EXPECT_EQ(v, 0.0f);
  accum[3] = 7.0f;
  accum[3] = 0.0f;  // kernel contract: re-zero touched entries
  auto& touched = ws.Touched();
  EXPECT_TRUE(touched.empty());
  touched.push_back(9);
  EXPECT_TRUE(ws.Touched().empty());  // cleared on every handout
  EXPECT_EQ(ws.F32(10, 2.5f).size(), 10u);
  EXPECT_EQ(ws.F32(10, 2.5f)[9], 2.5f);
  EXPECT_EQ(ws.I32(5, -1)[4], -1);
}

TEST(ExecContextTest, FreehgcThreadsEnvOverride) {
  ::setenv("FREEHGC_THREADS", "3", 1);
  EXPECT_EQ(exec::DefaultNumThreads(), 3);
  exec::ExecContext ex(0);
  EXPECT_EQ(ex.num_threads(), 3);
  ::setenv("FREEHGC_THREADS", "not-a-number", 1);
  EXPECT_GE(exec::DefaultNumThreads(), 1);
  ::unsetenv("FREEHGC_THREADS");
  EXPECT_GE(exec::DefaultNumThreads(), 1);
}

// --- Bit-identical results across thread counts ---------------------------

TEST(DeterminismTest, SpGemmBitIdenticalAcrossThreadCounts) {
  const HeteroGraph g = datasets::MakeAcm(7, 0.3);
  const CsrMatrix a = sparse::RowNormalize(g.relation(1).adj);
  const CsrMatrix b = sparse::Transpose(a);
  exec::ExecContext ex1(1);
  const CsrMatrix ref = sparse::SpGemm(a, b, 0, &ex1);
  const CsrMatrix ref_capped = sparse::SpGemm(a, b, 32, &ex1);
  for (int threads : {2, 4}) {
    exec::ExecContext ex(threads);
    EXPECT_TRUE(sparse::SpGemm(a, b, 0, &ex) == ref) << threads;
    EXPECT_TRUE(sparse::SpGemm(a, b, 32, &ex) == ref_capped) << threads;
  }
}

TEST(DeterminismTest, ComposeAdjacencyBitIdenticalAcrossThreadCounts) {
  const HeteroGraph g = datasets::MakeDblp(3, 0.3);
  MetaPathOptions opts;
  opts.max_hops = 3;
  opts.max_paths = 6;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  ASSERT_FALSE(paths.empty());
  exec::ExecContext ex1(1);
  std::vector<CsrMatrix> ref;
  for (const auto& p : paths) {
    ref.push_back(ComposeAdjacency(g, p, 256, &ex1));
  }
  for (int threads : {2, 4}) {
    exec::ExecContext ex(threads);
    for (size_t i = 0; i < paths.size(); ++i) {
      EXPECT_TRUE(ComposeAdjacency(g, paths[i], 256, &ex) == ref[i])
          << "path " << i << " threads " << threads;
    }
  }
}

void ExpectGraphsIdentical(const HeteroGraph& a, const HeteroGraph& b) {
  ASSERT_EQ(a.NumNodeTypes(), b.NumNodeTypes());
  ASSERT_EQ(a.NumRelations(), b.NumRelations());
  for (TypeId t = 0; t < a.NumNodeTypes(); ++t) {
    EXPECT_EQ(a.NodeCount(t), b.NodeCount(t)) << a.TypeName(t);
    EXPECT_TRUE(a.Features(t) == b.Features(t)) << a.TypeName(t);
  }
  for (RelationId r = 0; r < a.NumRelations(); ++r) {
    EXPECT_EQ(a.relation(r).name, b.relation(r).name);
    EXPECT_TRUE(a.relation(r).adj == b.relation(r).adj)
        << a.relation(r).name;
  }
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(DeterminismTest, CondenseBitIdenticalAcrossThreadCounts) {
  // Each thread count condenses on a fresh cache, then again on the now
  // warm one; every run matches the one-thread fresh run.
  const HeteroGraph g = datasets::MakeAcm(1, 0.3);
  core::FreeHgcOptions opts;
  opts.ratio = 0.05;
  opts.max_hops = 2;

  exec::ExecContext ex1(1);
  pipeline::ArtifactCache ref_cache;
  auto ref = core::Condense(g, opts, &ex1, &ref_cache);
  ASSERT_TRUE(ref.ok());

  for (int threads : {1, 2, 4}) {
    exec::ExecContext ex(threads);
    pipeline::ArtifactCache cache;
    for (const char* leg : {"fresh", "warm"}) {
      auto got = core::Condense(g, opts, &ex, &cache);
      ASSERT_TRUE(got.ok()) << leg << " " << threads;
      EXPECT_EQ(got.value().selected_target, ref.value().selected_target)
          << leg << " " << threads;
      ASSERT_EQ(got.value().kept_per_type.size(),
                ref.value().kept_per_type.size());
      for (size_t t = 0; t < ref.value().kept_per_type.size(); ++t) {
        EXPECT_EQ(got.value().kept_per_type[t], ref.value().kept_per_type[t])
            << "type " << t << " " << leg << " threads " << threads;
      }
      ExpectGraphsIdentical(got.value().graph, ref.value().graph);
    }
    EXPECT_GT(cache.stats().hits, 0) << threads;
  }
}

TEST(DeterminismTest, SharedPoolDriversBitIdentical) {
  // Two contexts over one pool, driven from two threads at once, borrow
  // each other's helpers chunk by chunk; the results must still be
  // byte-identical to a one-thread run.
  const HeteroGraph g = datasets::MakeAcm(1, 0.3);
  const CsrMatrix a = sparse::RowNormalize(g.relation(1).adj);
  const CsrMatrix b = sparse::Transpose(a);
  core::FreeHgcOptions opts;
  opts.ratio = 0.05;
  opts.max_hops = 2;
  exec::ExecContext ex1(1);
  const CsrMatrix ref_product = sparse::SpGemm(a, b, 32, &ex1);
  pipeline::ArtifactCache ref_cache;
  auto ref = core::Condense(g, opts, &ex1, &ref_cache);
  ASSERT_TRUE(ref.ok());

  exec::ThreadPool pool(4);
  auto drive = [&] {
    exec::ExecContext ex(pool);
    // Round 0 condenses on the fresh cache, later rounds on the warm one.
    pipeline::ArtifactCache cache;
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(sparse::SpGemm(a, b, 32, &ex) == ref_product) << round;
      auto got = core::Condense(g, opts, &ex, &cache);
      ASSERT_TRUE(got.ok()) << round;
      EXPECT_EQ(got.value().selected_target, ref.value().selected_target);
      EXPECT_EQ(got.value().kept_per_type, ref.value().kept_per_type);
      ExpectGraphsIdentical(got.value().graph, ref.value().graph);
    }
  };
  std::thread other(drive);
  drive();
  other.join();
}

TEST(DeterminismTest, GeneratorBitIdenticalAcrossThreadCounts) {
  exec::ExecContext ex1(1);
  exec::ExecContext ex4(4);
  const HeteroGraph a = datasets::MakeToy(11);
  auto b = datasets::MakeByName("toy", 11, 1.0, &ex4);
  ASSERT_TRUE(b.ok());
  ExpectGraphsIdentical(a, b.value());
  const HeteroGraph c = datasets::MakeAcm(5, 0.2, &ex1);
  const HeteroGraph d = datasets::MakeAcm(5, 0.2, &ex4);
  ExpectGraphsIdentical(c, d);
}

}  // namespace
}  // namespace freehgc
