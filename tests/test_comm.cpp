#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "comm/comm.hpp"
#include "comm/sort.hpp"
#include "util/rng.hpp"

namespace pkifmm::comm {
namespace {

TEST(Bytes, PackReadRoundTrip) {
  Bytes b;
  pack(b, 42);
  pack(b, 3.5);
  pack(b, std::vector<int>{1, 2, 3});
  pack(b, std::vector<double>{});
  Reader r(b);
  EXPECT_EQ(r.read<int>(), 42);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.5);
  EXPECT_EQ(r.read_vector<int>(), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(r.read_vector<double>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, UnderrunThrows) {
  Bytes b;
  pack(b, 1);
  Reader r(b);
  r.read<int>();
  EXPECT_ANY_THROW(r.read<double>());
}

TEST(Bytes, SpanRoundTrip) {
  for (const std::vector<double>& v :
       {std::vector<double>{1.0, 2.0, 3.0}, std::vector<double>{}}) {
    auto b = to_bytes(std::span<const double>(v));
    EXPECT_EQ(b.size(), v.size() * sizeof(double));
    EXPECT_EQ(from_bytes<double>(b), v);
  }
}

TEST(Runtime, SingleRankRuns) {
  auto reports = Runtime::run(1, [](RankCtx& ctx) {
    EXPECT_EQ(ctx.rank(), 0);
    EXPECT_EQ(ctx.size(), 1);
    ctx.flops.add("work", 10);
  });
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].sum("flops."), 10.0);
}

TEST(Runtime, ExceptionsPropagateWithoutDeadlock) {
  EXPECT_THROW(Runtime::run(4,
                            [](RankCtx& ctx) {
                              if (ctx.rank() == 2)
                                throw std::runtime_error("rank 2 failed");
                              // Other ranks block; poison must wake them.
                              ctx.comm.recv_bytes((ctx.rank() + 1) % 4, 7);
                            }),
               std::runtime_error);
}

TEST(PointToPoint, RingExchange) {
  for (int p : {2, 3, 5, 8}) {
    Runtime::run(p, [p](RankCtx& ctx) {
      const int r = ctx.rank();
      std::vector<int> payload = {r, r * r};
      ctx.comm.send((r + 1) % p, 3, std::span<const int>(payload));
      auto got = ctx.comm.recv<int>((r - 1 + p) % p, 3);
      const int prev = (r - 1 + p) % p;
      EXPECT_EQ(got, (std::vector<int>{prev, prev * prev}));
    });
  }
}

TEST(PointToPoint, NonOvertakingPerTag) {
  Runtime::run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> m = {i};
        ctx.comm.send(1, 5, std::span<const int>(m));
      }
    } else {
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(ctx.comm.recv<int>(0, 5).at(0), i);
    }
  });
}

TEST(Barrier, CompletesForVariousSizes) {
  for (int p : {1, 2, 3, 4, 7, 16}) {
    Runtime::run(p, [](RankCtx& ctx) {
      for (int i = 0; i < 3; ++i) ctx.comm.barrier();
    });
  }
}

TEST(Allgather, GathersInRankOrder) {
  for (int p : {1, 2, 5, 8}) {
    Runtime::run(p, [p](RankCtx& ctx) {
      auto all = ctx.comm.allgather(ctx.rank() * 10);
      ASSERT_EQ(static_cast<int>(all.size()), p);
      for (int k = 0; k < p; ++k) EXPECT_EQ(all[k], k * 10);
    });
  }
}

TEST(Allgatherv, VariableSizes) {
  Runtime::run(4, [](RankCtx& ctx) {
    std::vector<int> mine(ctx.rank(), ctx.rank());  // rank r sends r copies of r
    auto all = ctx.comm.allgatherv(std::span<const int>(mine));
    ASSERT_EQ(all.size(), 4u);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(all[k].size(), static_cast<std::size_t>(k));
      for (int v : all[k]) EXPECT_EQ(v, k);
    }
  });
}

TEST(AllgathervConcat, OrderedConcatenation) {
  Runtime::run(3, [](RankCtx& ctx) {
    std::vector<int> mine = {ctx.rank()};
    auto cat = ctx.comm.allgatherv_concat(std::span<const int>(mine));
    EXPECT_EQ(cat, (std::vector<int>{0, 1, 2}));
  });
}

TEST(Alltoallv, PersonalizedExchange) {
  Runtime::run(4, [](RankCtx& ctx) {
    std::vector<std::vector<int>> out(4);
    for (int k = 0; k < 4; ++k) out[k] = {ctx.rank() * 100 + k};
    auto in = ctx.comm.alltoallv(std::move(out));
    for (int k = 0; k < 4; ++k) {
      ASSERT_EQ(in[k].size(), 1u);
      EXPECT_EQ(in[k][0], k * 100 + ctx.rank());
    }
  });
}

TEST(Allreduce, SumAndMax) {
  Runtime::run(6, [](RankCtx& ctx) {
    EXPECT_EQ(ctx.comm.allreduce_sum(ctx.rank()), 15);
    EXPECT_EQ(ctx.comm.allreduce_max(ctx.rank() % 4), 3);
  });
}

TEST(Allreduce, Vectors) {
  Runtime::run(3, [](RankCtx& ctx) {
    std::vector<std::uint64_t> mine = {1u, static_cast<std::uint64_t>(ctx.rank())};
    auto sum = ctx.comm.allreduce(std::span<const std::uint64_t>(mine),
                                  [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum[0], 3u);
    EXPECT_EQ(sum[1], 3u);
  });
}

TEST(Exscan, ExclusivePrefixSum) {
  Runtime::run(5, [](RankCtx& ctx) {
    const int got = ctx.comm.exscan_sum(ctx.rank() + 1);
    // exscan of [1,2,3,4,5]: rank r gets sum of first r values.
    int expect = 0;
    for (int k = 0; k < ctx.rank(); ++k) expect += k + 1;
    EXPECT_EQ(got, expect);
  });
}

TEST(Cost, SendsAreCountedPerPhase) {
  auto reports = Runtime::run(2, [](RankCtx& ctx) {
    ctx.comm.cost().set_phase("alpha");
    std::vector<int> m = {1, 2, 3};
    if (ctx.rank() == 0) ctx.comm.send(1, 9, std::span<const int>(m));
    else ctx.comm.recv<int>(0, 9);
    ctx.comm.cost().set_phase("beta");
    ctx.comm.barrier();
  });
  EXPECT_EQ(reports[0].counter("comm.alpha.msgs_sent"), 1.0);
  EXPECT_EQ(reports[0].counter("comm.alpha.bytes_sent"), 3 * sizeof(int));
  EXPECT_EQ(reports[1].counter("comm.alpha.bytes_recv"), 3 * sizeof(int));
  EXPECT_GT(reports[0].counter("comm.beta.msgs_sent"), 0.0);  // barrier traffic
}

TEST(Cost, PayloadDigestCountersAppearWhenEnabled) {
  auto reports = Runtime::run(1, [](RankCtx& ctx) {
    EXPECT_FALSE(ctx.comm.cost().payload_digests_enabled());
    ctx.comm.cost().enable_payload_digests();
    ctx.comm.cost().enable_payload_digests();  // idempotent
    EXPECT_TRUE(ctx.comm.cost().payload_digests_enabled());
  });
  // No traffic on one rank, yet both digests are there, at 0.
  for (const char* name :
       {"health.comm.payload_sent", "health.comm.payload_recv"}) {
    EXPECT_EQ(reports[0].counters.count(name), 1u) << name;
    EXPECT_EQ(reports[0].counter(name), 0.0) << name;
  }
}

TEST(Cost, AlltoallvBytesMatchPayloads) {
  auto reports = Runtime::run(3, [](RankCtx& ctx) {
    ctx.comm.cost().set_phase("x");
    std::vector<std::vector<std::uint64_t>> out(3);
    for (int k = 0; k < 3; ++k)
      if (k != ctx.rank()) out[k].assign(10 * (k + 1), 7);
    (void)ctx.comm.alltoallv(std::move(out));
  });
  // Rank 0 sends 20 u64 to rank 1 and 30 to rank 2 = 400 bytes.
  EXPECT_EQ(reports[0].counter("comm.x.bytes_sent"),
            50 * sizeof(std::uint64_t));
  EXPECT_EQ(reports[0].counter("comm.x.msgs_sent"), 2.0);
  // Received: 10 from each of ranks 1 and 2.
  EXPECT_EQ(reports[0].counter("comm.x.bytes_recv"),
            20 * sizeof(std::uint64_t));
}

TEST(Cost, SendVolumeEqualsRecvVolumeGlobally) {
  auto reports = Runtime::run(4, [](RankCtx& ctx) {
    Rng rng(3, ctx.rank());
    std::vector<std::uint64_t> data(500);
    for (auto& v : data) v = rng.next_u64();
    sample_sort(ctx.comm, data, std::less<>{});
    ctx.comm.barrier();
  });
  double sent = 0, recv = 0;
  for (const auto& rep : reports) {
    sent += rep.sum("comm.", ".bytes_sent");
    recv += rep.sum("comm.", ".bytes_recv");
  }
  EXPECT_EQ(sent, recv);  // conservation on the fabric
  EXPECT_GT(sent, 0.0);
}

TEST(CostModel, AlphaBetaFormula) {
  CostModel m;
  m.latency_s = 1e-6;
  m.inv_bandwidth_s = 1e-9;
  EXPECT_DOUBLE_EQ(m.comm_time(10, 1000), 10e-6 + 1e-6);
  EXPECT_DOUBLE_EQ(m.compute_time(500e6), 1.0);
}

struct Rec {
  std::uint64_t key;
  int origin;
};

TEST(SampleSort, GloballySortsRandomData) {
  for (int p : {1, 2, 4, 7}) {
    Runtime::run(p, [](RankCtx& ctx) {
      Rng rng(1234, ctx.rank());
      std::vector<Rec> data(500);
      for (auto& r : data) r = {rng.next_u64(), ctx.rank()};
      const auto total_before = ctx.comm.allreduce_sum(
          static_cast<std::uint64_t>(data.size()));

      sample_sort(ctx.comm, data,
                  [](const Rec& a, const Rec& b) { return a.key < b.key; });

      // Locally sorted.
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end(),
                                 [](const Rec& a, const Rec& b) {
                                   return a.key < b.key;
                                 }));
      // Globally sorted across rank boundaries.
      const std::uint64_t my_first = data.empty() ? 0 : data.front().key;
      const std::uint64_t my_last = data.empty() ? 0 : data.back().key;
      auto firsts = ctx.comm.allgather(my_first);
      auto lasts = ctx.comm.allgather(my_last);
      auto sizes = ctx.comm.allgather(static_cast<std::uint64_t>(data.size()));
      std::uint64_t prev_last = 0;
      for (int k = 0; k < ctx.size(); ++k) {
        if (sizes[k] == 0) continue;
        EXPECT_GE(firsts[k], prev_last);
        prev_last = lasts[k];
      }
      // No elements lost or duplicated.
      const auto total_after = ctx.comm.allreduce_sum(
          static_cast<std::uint64_t>(data.size()));
      EXPECT_EQ(total_before, total_after);
    });
  }
}

TEST(SampleSort, BalancedWithinFactor) {
  const int p = 4;
  Runtime::run(p, [p](RankCtx& ctx) {
    Rng rng(99, ctx.rank());
    std::vector<Rec> data(2000);
    for (auto& r : data) r = {rng.next_u64(), 0};
    sample_sort(ctx.comm, data,
                [](const Rec& a, const Rec& b) { return a.key < b.key; });
    auto sizes = ctx.comm.allgather(static_cast<std::uint64_t>(data.size()));
    const std::uint64_t total = std::accumulate(sizes.begin(), sizes.end(), 0ull);
    for (auto s : sizes) EXPECT_LT(s, 3 * total / p);  // loose balance bound
  });
}

TEST(BitonicSort, SortsEqualChunksGlobally) {
  for (int p : {2, 4, 8}) {
    Runtime::run(p, [](RankCtx& ctx) {
      Rng rng(17, ctx.rank());
      std::vector<std::uint64_t> data(256);
      for (auto& v : data) v = rng.next_u64();
      bitonic_sort_equal(ctx.comm, data,
                         std::less<std::uint64_t>{});
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
      EXPECT_EQ(data.size(), 256u);
      // Cross-rank boundaries sorted.
      auto firsts = ctx.comm.allgather(data.front());
      auto lasts = ctx.comm.allgather(data.back());
      for (int k = 0; k + 1 < ctx.size(); ++k)
        EXPECT_LE(lasts[k], firsts[k + 1]);
    });
  }
}

TEST(BitonicSort, PreservesMultiset) {
  Runtime::run(4, [](RankCtx& ctx) {
    std::vector<std::uint64_t> data(64);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = (ctx.rank() * 64 + i) % 17;  // many duplicates
    std::uint64_t sum_before = 0;
    for (auto v : data) sum_before += v;
    sum_before = ctx.comm.allreduce_sum(sum_before);
    bitonic_sort_equal(ctx.comm, data, std::less<std::uint64_t>{});
    std::uint64_t sum_after = 0;
    for (auto v : data) sum_after += v;
    EXPECT_EQ(ctx.comm.allreduce_sum(sum_after), sum_before);
  });
}

TEST(BitonicSort, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Runtime::run(3,
                            [](RankCtx& ctx) {
                              std::vector<int> d(8, ctx.rank());
                              bitonic_sort_equal(ctx.comm, d, std::less<>{});
                            }),
               CheckFailure);
}

TEST(BitonicSort, RejectsUnequalChunks) {
  EXPECT_THROW(Runtime::run(2,
                            [](RankCtx& ctx) {
                              std::vector<int> d(ctx.rank() + 1, 0);
                              bitonic_sort_equal(ctx.comm, d, std::less<>{});
                            }),
               CheckFailure);
}

TEST(RebalanceEqual, EvensOutSkewedCounts) {
  Runtime::run(4, [](RankCtx& ctx) {
    // Rank 0 has everything.
    std::vector<Rec> data;
    if (ctx.rank() == 0)
      for (int i = 0; i < 400; ++i)
        data.push_back({static_cast<std::uint64_t>(i), 0});
    rebalance_equal(ctx.comm, data);
    EXPECT_EQ(data.size(), 100u);
    // Order preserved: rank k holds [100k, 100k+100).
    for (std::size_t i = 0; i < data.size(); ++i)
      EXPECT_EQ(data[i].key, static_cast<std::uint64_t>(ctx.rank()) * 100 + i);
  });
}

TEST(PointToPoint, LargePayloadSurvives) {
  Runtime::run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> big(1 << 18);  // 2 MB
      for (std::size_t i = 0; i < big.size(); ++i) big[i] = double(i);
      ctx.comm.send(1, 2, std::span<const double>(big));
    } else {
      auto got = ctx.comm.recv<double>(0, 2);
      ASSERT_EQ(got.size(), std::size_t(1) << 18);
      EXPECT_EQ(got[12345], 12345.0);
      EXPECT_EQ(got.back(), double(got.size() - 1));
    }
  });
}

TEST(PointToPoint, InterleavedTagsDoNotCross) {
  Runtime::run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        std::vector<int> a = {i}, b = {100 + i};
        ctx.comm.send(1, 10, std::span<const int>(a));
        ctx.comm.send(1, 11, std::span<const int>(b));
      }
    } else {
      // Drain tag 11 first, then tag 10: no cross-talk allowed.
      for (int i = 0; i < 5; ++i)
        EXPECT_EQ(ctx.comm.recv<int>(0, 11).at(0), 100 + i);
      for (int i = 0; i < 5; ++i)
        EXPECT_EQ(ctx.comm.recv<int>(0, 10).at(0), i);
    }
  });
}

TEST(Alltoallv, EmptyVectorsAreDelivered) {
  Runtime::run(4, [](RankCtx& ctx) {
    std::vector<std::vector<int>> out(4);  // everything empty
    auto in = ctx.comm.alltoallv(std::move(out));
    for (const auto& v : in) EXPECT_TRUE(v.empty());
  });
}

TEST(Collectives, ManySmallRoundsStayInLockstep) {
  // Collective tag sequencing must survive many mixed collectives.
  Runtime::run(3, [](RankCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      auto all = ctx.comm.allgather(ctx.rank() + i);
      EXPECT_EQ(all[1], 1 + i);
      ctx.comm.barrier();
      EXPECT_EQ(ctx.comm.allreduce_sum(1), 3);
    }
  });
}

TEST(SampleSort, HandlesMassiveDuplicates) {
  Runtime::run(4, [](RankCtx& ctx) {
    // Only three distinct keys across the whole dataset.
    Rng rng(31, ctx.rank());
    std::vector<std::uint64_t> data(3000);
    for (auto& v : data) v = rng.uniform_u64(3);
    sample_sort(ctx.comm, data, std::less<>{});
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    const auto total =
        ctx.comm.allreduce_sum(static_cast<std::uint64_t>(data.size()));
    EXPECT_EQ(total, 12000u);
  });
}

TEST(SampleSort, AlreadySortedInputIsStable) {
  Runtime::run(2, [](RankCtx& ctx) {
    std::vector<std::uint64_t> data;
    for (int i = 0; i < 1000; ++i)
      data.push_back(static_cast<std::uint64_t>(ctx.rank()) * 1000 + i);
    sample_sort(ctx.comm, data, std::less<>{});
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    const auto total =
        ctx.comm.allreduce_sum(static_cast<std::uint64_t>(data.size()));
    EXPECT_EQ(total, 2000u);
  });
}

TEST(RebalanceEqual, NoOpWhenAlreadyBalanced) {
  Runtime::run(4, [](RankCtx& ctx) {
    std::vector<std::uint64_t> data(100, ctx.rank());
    rebalance_equal(ctx.comm, data);
    EXPECT_EQ(data.size(), 100u);
    for (auto v : data) EXPECT_EQ(v, static_cast<std::uint64_t>(ctx.rank()));
  });
}

TEST(Fabric, PoisonWakesEveryConcurrentBlockedRecv) {
  // All waiters block on messages that will never arrive; poison() must
  // wake each one with FabricPoisoned — none may return a payload, none
  // may stay parked (a hung waiter would deadlock the join below).
  constexpr int kWaiters = 8;
  Fabric fabric(kWaiters + 1);
  std::atomic<int> poisoned{0};
  std::atomic<int> started{0};
  std::vector<std::thread> waiters;
  for (int r = 0; r < kWaiters; ++r)
    waiters.emplace_back([&, r] {
      started.fetch_add(1);
      try {
        (void)fabric.recv(r, kWaiters, /*tag=*/7);
        ADD_FAILURE() << "recv on rank " << r << " returned a payload";
      } catch (const FabricPoisoned&) {
        poisoned.fetch_add(1);
      }
    });
  while (started.load() < kWaiters) std::this_thread::yield();
  fabric.poison();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(poisoned.load(), kWaiters);

  // Poison is sticky: a recv entered after the fact throws immediately
  // instead of parking forever.
  EXPECT_THROW((void)fabric.recv(0, 1, 7), FabricPoisoned);
}

TEST(Fabric, RecvReportsWhetherItActuallyBlocked) {
  Fabric fabric(2);
  const std::vector<int> payload = {11};
  // Message already queued: the receive must report blocked = false.
  fabric.send(0, 1, 3, to_bytes(std::span<const int>(payload)));
  bool blocked = true;
  (void)fabric.recv(1, 0, 3, &blocked);
  EXPECT_FALSE(blocked);

  // Queue empty on entry: the receive waits and reports blocked = true.
  std::thread sender(
      [&] { fabric.send(0, 1, 4, to_bytes(std::span<const int>(payload))); });
  blocked = false;
  (void)fabric.recv(1, 0, 4, &blocked);
  sender.join();
  // Racy in one direction only: the sender may win, making blocked
  // false — but a pre-queued message can never report true, which is
  // the classification-correctness half that matters. Assert the
  // deterministic case above; here just exercise the path.
  SUCCEED();
}

TEST(PointToPoint, ProbeSeesQueuedMessageWithoutConsuming) {
  Runtime::run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::vector<int> v = {11};
      ctx.comm.send(1, 9, std::span<const int>(v));
      ctx.comm.barrier();
    } else {
      EXPECT_FALSE(ctx.comm.probe(0, 8));  // wrong tag: nothing queued
      ctx.comm.barrier();  // sender has definitely enqueued by now
      EXPECT_TRUE(ctx.comm.probe(0, 9));
      EXPECT_TRUE(ctx.comm.probe(0, 9));  // probe must not consume
      EXPECT_EQ(ctx.comm.recv<int>(0, 9), std::vector<int>{11});
      EXPECT_FALSE(ctx.comm.probe(0, 9));
    }
  });
}

}  // namespace
}  // namespace pkifmm::comm
