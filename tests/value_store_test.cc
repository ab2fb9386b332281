#include "psk/table/value_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "psk/table/value.h"

namespace psk {
namespace {

TEST(ValueStoreTest, NullIsAlwaysIdZero) {
  ValueStore store;
  EXPECT_EQ(store.Intern(Value()), ValueStore::kNullId);
  EXPECT_TRUE(store.Get(ValueStore::kNullId).is_null());
  // The null sentinel is pre-seeded, so an empty store already has it.
  EXPECT_EQ(store.size(), 1u);
}

TEST(ValueStoreTest, InternDeduplicatesAndRoundTrips) {
  ValueStore store;
  ValueId a1 = store.Intern(Value("alpha"));
  ValueId b = store.Intern(Value("beta"));
  ValueId a2 = store.Intern(Value("alpha"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(store.Get(a1).AsString(), "alpha");
  EXPECT_EQ(store.Get(b).AsString(), "beta");
  EXPECT_EQ(store.size(), 3u);  // null + alpha + beta
}

TEST(ValueStoreTest, NumericallyEqualValuesOfDifferentTypesStayDistinct) {
  // Value::operator== calls int64(5) == double(5.0), but interning must
  // keep them apart: a cell reads back with exactly the dynamic type it
  // was written with.
  ValueStore store;
  ValueId i = store.Intern(Value(int64_t{5}));
  ValueId d = store.Intern(Value(5.0));
  EXPECT_NE(i, d);
  EXPECT_EQ(store.Get(i).type(), ValueType::kInt64);
  EXPECT_EQ(store.Get(d).type(), ValueType::kDouble);
  // Within a type, dedup works as usual.
  EXPECT_EQ(store.Intern(Value(int64_t{5})), i);
  EXPECT_EQ(store.Intern(Value(5.0)), d);
  // Signed double zeros merge (they compare equal and print the same).
  EXPECT_EQ(store.Intern(Value(0.0)), store.Intern(Value(-0.0)));
}

TEST(ValueStoreTest, LongStringsBypassTheHotShardButStillDedup) {
  ValueStore store;
  std::string long_a(100, 'a');
  std::string long_b(100, 'b');
  ValueId a1 = store.Intern(Value(long_a));
  ValueId a2 = store.Intern(Value(long_a));
  ValueId b = store.Intern(Value(long_b));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(store.Get(a1).AsString(), long_a);
}

TEST(ValueStoreTest, GetReferencesSurviveLaterInterning) {
  ValueStore store;
  ValueId early = store.Intern(Value("early-bird"));
  const Value* pinned = &store.Get(early);
  // Push enough distinct values through every shard class to force slot
  // and index growth everywhere.
  for (int i = 0; i < 5000; ++i) {
    store.Intern(Value("filler_" + std::to_string(i)));
    store.Intern(Value(int64_t{i}));
  }
  EXPECT_EQ(pinned, &store.Get(early));
  EXPECT_EQ(pinned->AsString(), "early-bird");
}

TEST(ValueStoreTest, ApproxBytesGrowsWithContent) {
  ValueStore store;
  size_t empty = store.ApproxBytes();
  for (int i = 0; i < 1000; ++i) {
    store.Intern(Value("some_reasonably_long_value_" + std::to_string(i)));
  }
  EXPECT_GT(store.ApproxBytes(), empty);
}

// The concurrency contract: parallel intern storms over an overlapping
// value set yield exactly one id per distinct value, every id
// dereferences to its value, and size() lands on the distinct count.
// Run under TSan in CI (thread-sanitize job).
TEST(ValueStoreTest, ParallelInternStormYieldsOneIdPerDistinctValue) {
  ValueStore store;
  constexpr size_t kThreads = 8;
  constexpr size_t kDistinct = 2000;  // overflows the hot shard classes
  constexpr size_t kRounds = 3;

  // Every thread interns every value (maximal overlap, maximal racing),
  // in a thread-dependent order, across string/int/double classes.
  std::vector<std::vector<ValueId>> ids(kThreads,
                                        std::vector<ValueId>(kDistinct));
  auto make_value = [](size_t i) {
    switch (i % 3) {
      case 0:
        return Value("v_" + std::to_string(i));
      case 1:
        return Value(static_cast<int64_t>(i));
      default:
        return Value(static_cast<double>(i) + 0.5);
    }
  };
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kDistinct; ++i) {
          // Per-thread rotation: same value set, different arrival order.
          size_t j = (i + t * 251) % kDistinct;
          ids[t][j] = store.Intern(make_value(j));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // All threads agree on every value's id.
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[0], ids[t]) << "thread " << t << " saw different ids";
  }
  // Ids are distinct and dereference to the right value.
  std::unordered_set<ValueId> unique(ids[0].begin(), ids[0].end());
  EXPECT_EQ(unique.size(), kDistinct);
  for (size_t i = 0; i < kDistinct; ++i) {
    EXPECT_TRUE(store.Get(ids[0][i]) == make_value(i)) << "value " << i;
    EXPECT_EQ(store.Get(ids[0][i]).type(), make_value(i).type());
  }
  EXPECT_EQ(store.size(), kDistinct + 1);  // + the null sentinel
}

// Concurrent interning while readers dereference previously returned ids:
// Get() must never observe a torn or moved Value.
TEST(ValueStoreTest, ReadersAreSafeDuringConcurrentInterning) {
  ValueStore store;
  constexpr size_t kSeed = 500;
  std::vector<ValueId> seeded(kSeed);
  for (size_t i = 0; i < kSeed; ++i) {
    seeded[i] = store.Intern(Value("seed_" + std::to_string(i)));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 20000 && !stop.load(); ++i) {
      store.Intern(Value("storm_" + std::to_string(i)));
    }
  });
  std::thread reader([&] {
    for (size_t round = 0; round < 200; ++round) {
      for (size_t i = 0; i < kSeed; ++i) {
        const Value& v = store.Get(seeded[i]);
        ASSERT_EQ(v.AsString(), "seed_" + std::to_string(i));
      }
    }
  });
  reader.join();
  stop.store(true);
  writer.join();
}

// Past kHotShardSlots, short strings (hot-classed) spill to the hash
// shards: every id stays distinct, Get round-trips, and re-interning
// finds the spilled values again.
TEST(ValueStoreTest, HotShardOverflowSpillsToHashShards) {
  ValueStore store;
  const size_t count = ValueStore::kHotShardSlots + 1000;
  std::vector<ValueId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(store.Intern(Value("s" + std::to_string(i))));
  }
  EXPECT_EQ(store.size(), count + 1);  // + the null sentinel
  std::unordered_set<ValueId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), count);
  size_t spilled = 0;
  for (size_t i = 0; i < count; ++i) {
    if ((ids[i] >> ValueStore::kSlotBits) != 0) ++spilled;
    ASSERT_EQ(store.Get(ids[i]).AsString(), "s" + std::to_string(i));
  }
  // The null sentinel takes one hot slot, so one more value spills.
  EXPECT_EQ(spilled, 1001u);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(store.Intern(Value("s" + std::to_string(i))), ids[i]);
  }
  EXPECT_EQ(store.size(), count + 1);
}

}  // namespace
}  // namespace psk
