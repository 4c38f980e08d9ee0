// Differential test of the eviction-list kfuncs against a reference model
// of one std::list<Folio*> per list: seeded random sequences of every list
// kfunc (add and move at either end, move across lists, del, removal
// unlink, both list_iterate modes with every placement, kStop and a full
// ctx), with every list's order, size and slot invariants and every
// folio's list id compared after each op. Targeted cases cover slot-array
// growth under head and tail pushes, compaction followed by move and del,
// and scans over tombstones. A variant runs the sequences with the
// list-misuse fault armed; the binary is labelled chaos, so
// tools/check.sh --chaos also runs it under the sanitizers, which watch
// the slot-array reallocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cache_ext/eviction_list.h"
#include "src/fault/fault_injector.h"
#include "src/util/rng.h"

namespace cache_ext {
namespace {

constexpr uint64_t kBadList = 9999;

// The reference: each list a std::list, walked with the cursor semantics
// of a doubly-linked list (the successor is taken before a placement).
class Model {
 public:
  void AddList(uint64_t id) { lists_[id]; }
  bool HasList(uint64_t id) const { return lists_.count(id) != 0; }

  uint64_t ListOf(Folio* folio) const {
    auto it = where_.find(folio);
    return it == where_.end() ? 0 : it->second.list;
  }

  std::vector<Folio*> Order(uint64_t id) const {
    const std::list<Folio*>& l = lists_.at(id);
    return {l.begin(), l.end()};
  }

  void Link(uint64_t id, Folio* folio, bool tail) {
    std::list<Folio*>& l = lists_.at(id);
    auto it = tail ? l.insert(l.end(), folio) : l.insert(l.begin(), folio);
    where_[folio] = Where{id, it};
  }

  void Unlink(Folio* folio) {
    auto it = where_.find(folio);
    ASSERT_NE(it, where_.end());
    lists_.at(it->second.list).erase(it->second.it);
    where_.erase(it);
  }

  void Place(uint64_t id, Folio* folio, IterPlacement placement,
             uint64_t dst) {
    switch (placement) {
      case IterPlacement::kKeepInPlace:
        return;
      case IterPlacement::kMoveToTail:
        Unlink(folio);
        Link(id, folio, /*tail=*/true);
        return;
      case IterPlacement::kMoveToList:
        if (HasList(dst)) {
          Unlink(folio);
          Link(dst, folio, /*tail=*/true);
        }
        return;
    }
  }

  // list_iterate, simple mode; the k-th examined folio gets verdicts[k].
  std::vector<Folio*> Iterate(uint64_t id, const IterOpts& opts,
                              EvictionCtx* ctx,
                              const std::vector<IterVerdict>& verdicts) {
    std::vector<Folio*> visited;
    std::list<Folio*>& l = lists_.at(id);
    uint64_t bound = std::min<uint64_t>(opts.nr_scan, l.size());
    auto it = l.begin();
    while (bound-- > 0 && it != l.end()) {
      auto next = std::next(it);
      Folio* folio = *it;
      const IterVerdict verdict = verdicts[visited.size()];
      visited.push_back(folio);
      if (verdict == IterVerdict::kStop) {
        break;
      }
      if (verdict == IterVerdict::kEvict) {
        if (ctx != nullptr) {
          ctx->Propose(folio);
        }
        Place(id, folio, opts.on_evict, opts.dst_list_evict);
        if (ctx != nullptr && ctx->Full()) {
          break;
        }
      } else {
        Place(id, folio, opts.on_skip, opts.dst_list_skip);
      }
      it = next;
    }
    return visited;
  }

  // list_iterate, batch-scoring mode: score the first N, select the C
  // lowest with nth_element, then place in the order it leaves them.
  std::vector<Folio*> IterateScore(
      uint64_t id, const IterOpts& opts, EvictionCtx* ctx,
      const std::unordered_map<Folio*, int64_t>& scores) {
    struct Scored {
      int64_t score;
      Folio* folio;
    };
    std::vector<Scored> scored;
    std::vector<Folio*> visited;
    for (Folio* folio : lists_.at(id)) {
      if (scored.size() == opts.nr_scan) {
        break;
      }
      scored.push_back({scores.at(folio), folio});
      visited.push_back(folio);
    }
    const uint64_t remaining =
        ctx->nr_candidates_requested > ctx->nr_candidates_proposed
            ? ctx->nr_candidates_requested - ctx->nr_candidates_proposed
            : 0;
    const uint64_t c = std::min<uint64_t>(remaining, scored.size());
    if (c > 0 && c < scored.size()) {
      std::nth_element(scored.begin(), scored.begin() + (c - 1),
                       scored.end(), [](const Scored& a, const Scored& b) {
                         return a.score < b.score;
                       });
    }
    for (uint64_t i = 0; i < scored.size(); ++i) {
      if (i < c) {
        ctx->Propose(scored[i].folio);
        Place(id, scored[i].folio, opts.on_evict, opts.dst_list_evict);
      } else {
        Place(id, scored[i].folio, opts.on_skip, opts.dst_list_skip);
      }
    }
    return visited;
  }

 private:
  struct Where {
    uint64_t list;
    std::list<Folio*>::iterator it;
  };
  std::map<uint64_t, std::list<Folio*>> lists_;
  std::unordered_map<Folio*, Where> where_;
};

// One CacheExtApi and its model, driven in lockstep.
class Harness {
 public:
  Harness(int nr_folios, int nr_lists) : registry_(1024), api_(&registry_) {
    for (int i = 0; i < nr_folios; ++i) {
      folios_.push_back(std::make_unique<Folio>());
      folios_.back()->index = static_cast<uint64_t>(i);
      registry_.Insert(folios_.back().get());
    }
    for (int i = 0; i < nr_lists; ++i) {
      auto id = api_.ListCreate();
      CHECK(id.ok());
      lists_.push_back(*id);
      model_.AddList(*id);
    }
  }

  Folio* folio(size_t i) { return folios_[i].get(); }
  size_t nr_folios() const { return folios_.size(); }
  uint64_t list(size_t i) const { return lists_[i]; }
  size_t nr_lists() const { return lists_.size(); }

  // A refused add or move must be the armed fault, and change nothing.
  static bool Injected(const Status& s, bool faults_armed) {
    if (s.code() != ErrorCode::kInvalidArgument) {
      return false;
    }
    EXPECT_TRUE(faults_armed) << "unexpected InvalidArgument";
    return true;
  }

  void Add(uint64_t id, Folio* folio, bool tail, bool faults_armed) {
    const Status s = api_.ListAdd(id, folio, tail);
    if (Injected(s, faults_armed)) {
      return;
    }
    if (!model_.HasList(id)) {
      EXPECT_EQ(s.code(), ErrorCode::kNotFound);
    } else if (model_.ListOf(folio) != 0) {
      EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
    } else {
      ASSERT_TRUE(s.ok());
      model_.Link(id, folio, tail);
    }
  }

  void Move(uint64_t id, Folio* folio, bool tail, bool faults_armed) {
    const Status s = api_.ListMove(id, folio, tail);
    if (Injected(s, faults_armed)) {
      return;
    }
    if (!model_.HasList(id)) {
      EXPECT_EQ(s.code(), ErrorCode::kNotFound);
      return;
    }
    ASSERT_TRUE(s.ok());
    if (model_.ListOf(folio) != 0) {
      model_.Unlink(folio);
    }
    model_.Link(id, folio, tail);
  }

  void Del(Folio* folio) {
    const Status s = api_.ListDel(folio);
    if (model_.ListOf(folio) == 0) {
      EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
      return;
    }
    ASSERT_TRUE(s.ok());
    model_.Unlink(folio);
  }

  void UnlinkForRemoval(Folio* folio) {
    api_.UnlinkForRemoval(folio);
    if (model_.ListOf(folio) != 0) {
      model_.Unlink(folio);
    }
  }

  // Both modes compare the examined folios and the proposed candidates.
  void Iterate(uint64_t id, const IterOpts& opts, uint64_t requested,
               bool with_ctx, const std::vector<IterVerdict>& verdicts) {
    EvictionCtx api_ctx;
    api_ctx.nr_candidates_requested = requested;
    EvictionCtx model_ctx = api_ctx;
    std::vector<Folio*> seen;
    const Status s = api_.ListIterate(
        id, opts, with_ctx ? &api_ctx : nullptr, [&](Folio* folio) {
          const IterVerdict verdict = verdicts[seen.size()];
          seen.push_back(folio);
          return verdict;
        });
    if (!model_.HasList(id)) {
      EXPECT_EQ(s.code(), ErrorCode::kNotFound);
      return;
    }
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(seen, model_.Iterate(id, opts, with_ctx ? &model_ctx : nullptr,
                                   verdicts));
    ExpectSameCandidates(api_ctx, model_ctx);
  }

  void IterateScore(uint64_t id, const IterOpts& opts, uint64_t requested,
                    const std::unordered_map<Folio*, int64_t>& scores) {
    EvictionCtx api_ctx;
    api_ctx.nr_candidates_requested = requested;
    EvictionCtx model_ctx = api_ctx;
    std::vector<Folio*> seen;
    const Status s =
        api_.ListIterateScore(id, opts, &api_ctx, [&](Folio* folio) {
          seen.push_back(folio);
          return scores.at(folio);
        });
    if (!model_.HasList(id)) {
      EXPECT_EQ(s.code(), ErrorCode::kNotFound);
      return;
    }
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(seen, model_.IterateScore(id, opts, &model_ctx, scores));
    ExpectSameCandidates(api_ctx, model_ctx);
  }

  // Every list's order and size, every folio's list id.
  void ExpectMatches() {
    for (uint64_t id : lists_) {
      ASSERT_EQ(api_.CheckedOrder(id), model_.Order(id)) << "list " << id;
      ASSERT_EQ(*api_.ListSize(id), model_.Order(id).size());
    }
    for (const auto& folio : folios_) {
      ASSERT_EQ(*api_.ListIdOf(folio.get()), model_.ListOf(folio.get()));
    }
  }

 private:
  static void ExpectSameCandidates(const EvictionCtx& a,
                                   const EvictionCtx& b) {
    ASSERT_EQ(a.nr_candidates_proposed, b.nr_candidates_proposed);
    for (uint64_t i = 0; i < a.nr_candidates_proposed; ++i) {
      EXPECT_EQ(a.candidates[i], b.candidates[i]);
    }
  }

  FolioRegistry registry_;
  CacheExtApi api_;
  Model model_;
  std::vector<std::unique_ptr<Folio>> folios_;
  std::vector<uint64_t> lists_;
};

IterPlacement RandomPlacement(Rng& rng) {
  return static_cast<IterPlacement>(rng.NextU64Below(3));
}

// One random kfunc call, applied to the api and the model.
void RandomStep(Harness& h, Rng& rng, bool faults_armed) {
  Folio* folio = h.folio(rng.NextU64Below(h.nr_folios()));
  // One id in 16 is not a list: every list argument is bounds-checked.
  const uint64_t list = rng.NextU64Below(16) == 0
                            ? kBadList
                            : h.list(rng.NextU64Below(h.nr_lists()));
  const bool tail = rng.NextBool(0.5);
  IterOpts opts;
  opts.nr_scan = rng.NextU64Below(48);
  opts.on_skip = RandomPlacement(rng);
  opts.on_evict = RandomPlacement(rng);
  opts.dst_list_skip = rng.NextU64Below(16) == 0
                           ? kBadList
                           : h.list(rng.NextU64Below(h.nr_lists()));
  opts.dst_list_evict = h.list(rng.NextU64Below(h.nr_lists()));
  const uint64_t requested = rng.NextU64Below(6);  // 0: full from the start
  switch (rng.NextU64Below(8)) {
    case 0:
    case 1:
      h.Add(list, folio, tail, faults_armed);
      break;
    case 2:
      h.Move(list, folio, tail, faults_armed);
      break;
    case 3:
      h.Del(folio);
      break;
    case 4:
      h.UnlinkForRemoval(folio);
      break;
    case 5:
    case 6: {
      std::vector<IterVerdict> verdicts(opts.nr_scan + 1);
      for (IterVerdict& v : verdicts) {
        const uint64_t r = rng.NextU64Below(16);
        v = r == 0 ? IterVerdict::kStop
                   : (r < 6 ? IterVerdict::kEvict : IterVerdict::kSkip);
      }
      h.Iterate(list, opts, requested, /*with_ctx=*/rng.NextBool(0.7),
                verdicts);
      break;
    }
    case 7: {
      // Scores from a small range, so nth_element sees ties.
      std::unordered_map<Folio*, int64_t> scores;
      for (size_t i = 0; i < h.nr_folios(); ++i) {
        scores[h.folio(i)] = static_cast<int64_t>(rng.NextU64Below(8));
      }
      h.IterateScore(list, opts, requested, scores);
      break;
    }
  }
}

class EvictionListDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvictionListDiffTest, MatchesStdListModel) {
  Harness h(/*nr_folios=*/96, /*nr_lists=*/3);
  Rng rng(GetParam());
  for (int step = 0; step < 4000; ++step) {
    RandomStep(h, rng, /*faults_armed=*/false);
    ASSERT_NO_FATAL_FAILURE(h.ExpectMatches()) << "step " << step;
  }
}

// The list-misuse fault refuses a fifth of adds and moves; a refused call
// changes nothing, so the model skips it and the lists must still agree.
TEST_P(EvictionListDiffTest, MatchesStdListModelUnderListOpFaults) {
  fault::FaultSchedule schedule;
  schedule.probability = 0.2;
  schedule.seed = GetParam();
  fault::ScopedFault fault(fault::points::kListOp, schedule);
  Harness h(/*nr_folios=*/96, /*nr_lists=*/3);
  Rng rng(GetParam() * 7 + 1);
  for (int step = 0; step < 4000; ++step) {
    RandomStep(h, rng, /*faults_armed=*/true);
    ASSERT_NO_FATAL_FAILURE(h.ExpectMatches()) << "step " << step;
  }
  EXPECT_GT(fault::FaultInjector::Global().fires(fault::points::kListOp), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionListDiffTest,
                         ::testing::Values(1, 2, 3, 4));

// Interleaved head and tail pushes take the ring through several doublings
// (16 slots to 1024) with head positions below zero; order and positions
// must survive each one.
TEST(EvictionListDiffCases, GrowthWithInterleavedHeadAndTailPushes) {
  Harness h(/*nr_folios=*/600, /*nr_lists=*/2);
  for (size_t i = 0; i < h.nr_folios(); ++i) {
    h.Add(h.list(0), h.folio(i), /*tail=*/i % 3 != 0, false);
    ASSERT_NO_FATAL_FAILURE(h.ExpectMatches()) << "push " << i;
  }
  // Positions are logical: the head went negative and every doubling kept
  // each folio's position.
  EXPECT_LT(h.folio(0)->ext.node.pos, 0);
  EXPECT_EQ(h.folio(1)->ext.node.pos, 0);
  // Drain from the middle and both ends, then refill across lists.
  for (size_t i = 0; i < h.nr_folios(); i += 4) {
    h.Del(h.folio(i));
  }
  h.Move(h.list(1), h.folio(1), /*tail=*/false, false);
  h.Move(h.list(0), h.folio(2), /*tail=*/false, false);
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
  for (size_t i = 0; i < h.nr_folios(); i += 4) {
    h.Add(h.list(i % 8 == 0 ? 0 : 1), h.folio(i), /*tail=*/i % 8 == 0, false);
  }
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
}

// A scan that moves two of every three folios away leaves more tombstones
// than live folios behind its cursor. The next del renumbers the survivors
// contiguously; moves and dels after that must still find every slot.
TEST(EvictionListDiffCases, CompactionThenMoveAndDel) {
  Harness h(/*nr_folios=*/90, /*nr_lists=*/2);
  const uint64_t src = h.list(0);
  const uint64_t dst = h.list(1);
  for (size_t i = 0; i < h.nr_folios(); ++i) {
    h.Add(src, h.folio(i), /*tail=*/true, false);
  }
  IterOpts opts;
  opts.nr_scan = h.nr_folios();
  opts.on_skip = IterPlacement::kKeepInPlace;
  opts.on_evict = IterPlacement::kMoveToList;
  opts.dst_list_evict = dst;
  std::vector<IterVerdict> verdicts(h.nr_folios());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    verdicts[i] = i % 3 == 0 ? IterVerdict::kSkip : IterVerdict::kEvict;
  }
  h.Iterate(src, opts, /*requested=*/0, /*with_ctx=*/false, verdicts);
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
  // 30 live, 58 tombstones in the span [0, 88): not yet renumbered.
  EXPECT_EQ(h.folio(87)->ext.node.pos, 87);

  h.Del(h.folio(3));  // compacts: 29 live in [0, 29)
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
  EXPECT_EQ(h.folio(87)->ext.node.pos, 28);

  h.Move(src, h.folio(45), /*tail=*/false, false);
  h.Move(dst, h.folio(0), /*tail=*/true, false);
  h.Del(h.folio(60));
  h.Move(src, h.folio(87), /*tail=*/false, false);
  h.UnlinkForRemoval(h.folio(30));
  h.Add(src, h.folio(3), /*tail=*/true, false);
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
}

// Scans that start on a list with tombstones in its span (fewer than live
// folios, so no compaction first) examine exactly the first N live folios
// and rotate them past the tombstones.
TEST(EvictionListDiffCases, ScansOverTombstones) {
  Harness h(/*nr_folios=*/64, /*nr_lists=*/2);
  const uint64_t list = h.list(0);
  for (size_t i = 0; i < h.nr_folios(); ++i) {
    h.Add(list, h.folio(i), /*tail=*/true, false);
  }
  // Every fourth folio after the first moves out: 16 tombstones, 48 live.
  IterOpts out;
  out.nr_scan = h.nr_folios();
  out.on_evict = IterPlacement::kMoveToList;
  out.dst_list_evict = h.list(1);
  std::vector<IterVerdict> verdicts(h.nr_folios());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    verdicts[i] = i % 4 == 1 ? IterVerdict::kEvict : IterVerdict::kSkip;
  }
  h.Iterate(list, out, 0, false, verdicts);
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
  // A del leaves 17 tombstones beside 47 live folios: too few to renumber.
  h.Del(h.folio(62));
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
  EXPECT_EQ(h.folio(63)->ext.node.pos, 63);

  IterOpts rotate;
  rotate.nr_scan = 20;
  rotate.on_skip = IterPlacement::kMoveToTail;
  rotate.on_evict = IterPlacement::kMoveToTail;
  h.Iterate(list, rotate, 0, false,
            std::vector<IterVerdict>(21, IterVerdict::kSkip));
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());

  std::unordered_map<Folio*, int64_t> scores;
  for (size_t i = 0; i < h.nr_folios(); ++i) {
    scores[h.folio(i)] = static_cast<int64_t>((i * 37) % 11);
  }
  rotate.nr_scan = 30;
  h.IterateScore(list, rotate, /*requested=*/5, scores);
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
  // A scan longer than the list examines each live folio exactly once.
  rotate.nr_scan = 1000;
  h.IterateScore(list, rotate, /*requested=*/8, scores);
  ASSERT_NO_FATAL_FAILURE(h.ExpectMatches());
}

}  // namespace
}  // namespace cache_ext
