#include "util/id_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "util/rng.h"

namespace tamp::util {
namespace {

constexpr uint32_t kMaxId = std::numeric_limits<uint32_t>::max();

// Counts live instances, so a test can see pages being allocated (each
// holds IdMap::kPageSlots values) and freed.
struct Tracked {
  static inline int live = 0;
  int value = 0;

  Tracked() { ++live; }
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& other) : value(other.value) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  ~Tracked() { --live; }
};

void expect_same(const IdMap<int>& map, const std::map<uint32_t, int>& model,
                 int step) {
  ASSERT_EQ(map.size(), model.size()) << "step " << step;
  ASSERT_EQ(map.empty(), model.empty()) << "step " << step;
  auto want = model.begin();
  for (const auto& [id, value] : map) {
    ASSERT_NE(want, model.end()) << "step " << step;
    ASSERT_EQ(id, want->first) << "step " << step;
    ASSERT_EQ(value, want->second) << "step " << step << " id " << id;
    ++want;
  }
  ASSERT_EQ(want, model.end()) << "step " << step;
}

// Random insert / erase / erase_if steps on ids drawn from `ids` (and their
// neighbours, which may be absent), checked against std::map after each.
void run_differential(const std::vector<uint32_t>& ids, uint64_t seed,
                      int steps) {
  Rng rng(seed);
  IdMap<int> map;
  std::map<uint32_t, int> model;
  auto pick = [&] {
    uint32_t id = rng.pick(ids);
    const uint64_t nudge = rng.uniform_u64(5);
    if (nudge == 0 && id != 0) --id;
    if (nudge == 1 && id != kMaxId) ++id;
    return id;
  };
  for (int step = 0; step < steps; ++step) {
    const uint32_t id = pick();
    const uint64_t op = rng.uniform_u64(100);
    if (op < 55) {
      const int value = static_cast<int>(rng.uniform_u64(1000));
      auto [slot, inserted] = map.insert(id, value);
      auto [it, model_inserted] = model.insert({id, value});
      ASSERT_EQ(inserted, model_inserted) << "step " << step;
      ASSERT_EQ(*slot, it->second) << "step " << step;
    } else if (op < 90) {
      ASSERT_EQ(map.erase(id), model.erase(id) == 1) << "step " << step;
    } else {
      const int cut = static_cast<int>(rng.uniform_u64(1000));
      std::vector<uint32_t> visited;
      map.erase_if([&](uint32_t key, const int& value) {
        visited.push_back(key);
        return value < cut;
      });
      std::vector<uint32_t> want;
      for (const auto& [key, value] : model) want.push_back(key);
      ASSERT_EQ(visited, want) << "step " << step;  // every row, id order
      std::erase_if(model, [&](const auto& row) { return row.second < cut; });
    }
    for (uint32_t probe : {id, pick(), uint32_t{0}, kMaxId}) {
      auto it = model.find(probe);
      const int* got = map.find(probe);
      ASSERT_EQ(got == nullptr, it == model.end())
          << "step " << step << " probe " << probe;
      ASSERT_EQ(map.contains(probe), it != model.end());
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    expect_same(map, model, step);
  }
}

std::vector<uint32_t> dense_ids() {
  std::vector<uint32_t> ids;
  for (uint32_t id = 1; id <= 300; ++id) {
    if (id % 21 != 0) ids.push_back(id);  // a switch id after 20 hosts
  }
  return ids;
}

std::vector<uint32_t> sparse_ids(uint64_t seed) {
  Rng rng(seed);
  std::set<uint32_t> ids{0, kMaxId};
  while (ids.size() < 64) {
    ids.insert(static_cast<uint32_t>(rng.uniform_u64(uint64_t{kMaxId} + 1)));
  }
  return {ids.begin(), ids.end()};
}

std::vector<uint32_t> top_ids() {
  std::vector<uint32_t> ids;
  for (uint32_t back = 0; back < 40; ++back) ids.push_back(kMaxId - back);
  return ids;
}

TEST(IdMap, MatchesStdMapOnDenseIds) {
  for (uint64_t seed : {1, 2, 3}) run_differential(dense_ids(), seed, 4000);
}

TEST(IdMap, MatchesStdMapOnSparseIds) {
  for (uint64_t seed : {4, 5, 6}) {
    run_differential(sparse_ids(seed), seed, 4000);
  }
}

TEST(IdMap, MatchesStdMapNearTheTopOfTheIdRange) {
  for (uint64_t seed : {7, 8}) run_differential(top_ids(), seed, 3000);
}

TEST(IdMap, IteratesInIdOrderWhateverTheInsertOrder) {
  std::vector<uint32_t> ids = sparse_ids(9);
  const std::vector<uint32_t> dense = dense_ids();
  ids.insert(ids.end(), dense.begin(), dense.end());
  const std::set<uint32_t> sorted(ids.begin(), ids.end());
  Rng(10).shuffle(ids);
  IdMap<int> map;
  for (uint32_t id : ids) map.insert(id, static_cast<int>(id % 977));
  std::vector<uint32_t> seen;
  for (const auto& [id, value] : map) {
    EXPECT_EQ(value, static_cast<int>(id % 977));
    seen.push_back(id);
  }
  EXPECT_EQ(seen, std::vector<uint32_t>(sorted.begin(), sorted.end()));
}

TEST(IdMap, PointersSurviveOtherInsertsAndErases) {
  IdMap<int> map;
  const std::vector<uint32_t> held = {500, 503, 1 << 20};
  std::vector<const int*> where;
  for (uint32_t id : held) {
    where.push_back(map.insert(id, static_cast<int>(id)).first);
  }
  // New pages before, between and after the held ones, then erase them.
  std::vector<uint32_t> others;
  for (uint32_t id = 0; id < 2000; id += 3) {
    if (!map.contains(id)) others.push_back(id);
  }
  others.push_back(kMaxId);
  for (uint32_t id : others) map.insert(id, -1);
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(map.find(held[i]), where[i]) << held[i];
  }
  for (uint32_t id : others) map.erase(id);
  map.erase_if([](uint32_t, const int& value) { return value < 0; });
  ASSERT_EQ(map.size(), held.size());
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(map.find(held[i]), where[i]) << held[i];
    EXPECT_EQ(*where[i], static_cast<int>(held[i]));
  }
}

TEST(IdMap, PageIsFreedWithItsLastRow) {
  constexpr int kSlots = static_cast<int>(IdMap<Tracked>::kPageSlots);
  Tracked::live = 0;
  {
    IdMap<Tracked> map;
    map.insert(16, Tracked(1));
    map.insert(17, Tracked(2));
    EXPECT_EQ(Tracked::live, kSlots);  // one page for ids 16..23
    map.insert(kMaxId, Tracked(3));
    EXPECT_EQ(Tracked::live, 2 * kSlots);
    EXPECT_TRUE(map.erase(16));
    EXPECT_EQ(Tracked::live, 2 * kSlots);  // 17 still holds the page
    EXPECT_FALSE(map.erase(16));
    EXPECT_TRUE(map.erase(17));
    EXPECT_EQ(Tracked::live, kSlots);
    map.erase_if([](uint32_t id, const Tracked&) { return id == kMaxId; });
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.begin(), map.end());
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(IdMap, MemoryFollowsRowsNotTheSpreadOfIds) {
  Tracked::live = 0;
  {
    IdMap<Tracked> map;
    const std::vector<uint32_t> ids = sparse_ids(11);
    for (uint32_t id : ids) map.insert(id, Tracked(1));
    // At most one page per row, whatever the distance between ids.
    EXPECT_LE(Tracked::live,
              static_cast<int>(ids.size() * IdMap<Tracked>::kPageSlots));
  }
  EXPECT_EQ(Tracked::live, 0);
}

}  // namespace
}  // namespace tamp::util
