#include "txn/txn_manager.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <thread>

namespace idba {
namespace {

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : pool_(&data_disk_, {.frame_count = 32}) {
    heap_ = std::move(HeapStore::Open(&pool_, 0).value());
    wal_ = std::make_unique<Wal>(&wal_disk_);
    mgr_ = std::make_unique<TxnManager>(heap_.get(), wal_.get());
  }

  DatabaseObject MakeObj(Oid oid, int64_t v) {
    DatabaseObject obj(oid, 1, 1);
    obj.Set(0, Value(v));
    return obj;
  }

  Oid Seed(int64_t v) {
    Oid oid = mgr_->AllocateOid();
    TxnId t = mgr_->Begin();
    EXPECT_TRUE(mgr_->Insert(t, MakeObj(oid, v)).ok());
    EXPECT_TRUE(mgr_->Commit(t).ok());
    return oid;
  }

  MemDisk data_disk_, wal_disk_;
  BufferPool pool_;
  std::unique_ptr<HeapStore> heap_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<TxnManager> mgr_;
};

TEST_F(TxnManagerTest, CommitMakesWritesVisible) {
  Oid oid = Seed(10);
  TxnId t = mgr_->Begin();
  auto obj = mgr_->Get(t, oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj.value().Get(0), Value(int64_t(10)));
  ASSERT_TRUE(mgr_->Commit(t).ok());
}

TEST_F(TxnManagerTest, AbortDiscardsWrites) {
  Oid oid = Seed(10);
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 99)).ok());
  ASSERT_TRUE(mgr_->Abort(t).ok());
  TxnId t2 = mgr_->Begin();
  EXPECT_EQ(mgr_->Get(t2, oid).value().Get(0), Value(int64_t(10)));
  ASSERT_TRUE(mgr_->Commit(t2).ok());
  EXPECT_EQ(mgr_->aborts(), 1u);
}

TEST_F(TxnManagerTest, ReadYourOwnWrites) {
  Oid oid = Seed(1);
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 2)).ok());
  EXPECT_EQ(mgr_->Get(t, oid).value().Get(0), Value(int64_t(2)));
  ASSERT_TRUE(mgr_->Commit(t).ok());
}

TEST_F(TxnManagerTest, InsertVisibleToSelfBeforeCommit) {
  TxnId t = mgr_->Begin();
  Oid oid = mgr_->AllocateOid();
  ASSERT_TRUE(mgr_->Insert(t, MakeObj(oid, 5)).ok());
  EXPECT_EQ(mgr_->Get(t, oid).value().Get(0), Value(int64_t(5)));
  ASSERT_TRUE(mgr_->Commit(t).ok());
  EXPECT_TRUE(heap_->Contains(oid));
}

TEST_F(TxnManagerTest, EraseCommits) {
  Oid oid = Seed(10);
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Erase(t, oid).ok());
  EXPECT_EQ(mgr_->Get(t, oid).status().code(), StatusCode::kNotFound);
  auto result = mgr_->Commit(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().erased, std::vector<Oid>{oid});
  EXPECT_FALSE(heap_->Contains(oid));
}

TEST_F(TxnManagerTest, VersionsBumpOnEveryCommit) {
  Oid oid = Seed(0);
  EXPECT_EQ(heap_->Read(oid).value().version(), 1u);  // insert = v1
  for (int i = 1; i <= 3; ++i) {
    TxnId t = mgr_->Begin();
    ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, i)).ok());
    ASSERT_TRUE(mgr_->Commit(t).ok());
    EXPECT_EQ(heap_->Read(oid).value().version(), static_cast<uint64_t>(1 + i));
  }
}

TEST_F(TxnManagerTest, LastWritePerOidWins) {
  Oid oid = Seed(0);
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 1)).ok());
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 2)).ok());
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 3)).ok());
  auto result = mgr_->Commit(t);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().updated.size(), 1u);
  EXPECT_EQ(heap_->Read(oid).value().Get(0), Value(int64_t(3)));
}

TEST_F(TxnManagerTest, StrictTwoPhase_WriterBlocksReader) {
  Oid oid = Seed(1);
  TxnId writer = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(writer, MakeObj(oid, 2)).ok());
  std::atomic<bool> read_done{false};
  int64_t seen = -1;
  std::thread reader([&] {
    TxnId r = mgr_->Begin();
    auto obj = mgr_->Get(r, oid);
    if (obj.ok()) seen = obj.value().Get(0).AsInt();
    (void)mgr_->Commit(r);
    read_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(read_done.load());  // S blocked behind X
  ASSERT_TRUE(mgr_->Commit(writer).ok());
  reader.join();
  EXPECT_EQ(seen, 2);  // reader saw the committed value, never a torn state
}

TEST_F(TxnManagerTest, CommitHookSeesFinalImages) {
  Oid oid = Seed(1);
  std::vector<DatabaseObject> seen;
  mgr_->set_commit_hook(
      [&](const CommitResult& r) { seen = r.updated; });
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 42)).ok());
  ASSERT_TRUE(mgr_->Commit(t).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].Get(0), Value(int64_t(42)));
  EXPECT_EQ(seen[0].version(), 2u);
}

TEST_F(TxnManagerTest, XLockHookFiresOnWrite) {
  Oid oid = Seed(1);
  std::vector<Oid> intents;
  mgr_->set_xlock_hook([&](TxnId, Oid o) { intents.push_back(o); });
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t, MakeObj(oid, 2)).ok());
  EXPECT_EQ(intents, std::vector<Oid>{oid});
  ASSERT_TRUE(mgr_->Abort(t).ok());
}

TEST_F(TxnManagerTest, AbortHookFires) {
  TxnId aborted = 0;
  mgr_->set_abort_hook([&](TxnId t) { aborted = t; });
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Abort(t).ok());
  EXPECT_EQ(aborted, t);
}

TEST_F(TxnManagerTest, OperationsOnFinishedTxnRejected) {
  Oid oid = Seed(1);
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Commit(t).ok());
  EXPECT_EQ(mgr_->Put(t, MakeObj(oid, 9)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr_->Get(t, oid).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr_->Commit(t).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr_->Get(999, oid).status().code(), StatusCode::kNotFound);
}

TEST_F(TxnManagerTest, DuplicateInsertDetected) {
  Oid oid = Seed(1);
  TxnId t = mgr_->Begin();
  EXPECT_EQ(mgr_->Insert(t, MakeObj(oid, 2)).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(mgr_->Abort(t).ok());
}

TEST_F(TxnManagerTest, StateTransitions) {
  TxnId t = mgr_->Begin();
  EXPECT_EQ(mgr_->GetState(t), TxnState::kActive);
  ASSERT_TRUE(mgr_->Commit(t).ok());
  EXPECT_EQ(mgr_->GetState(t), TxnState::kCommitted);
  TxnId t2 = mgr_->Begin();
  ASSERT_TRUE(mgr_->Abort(t2).ok());
  EXPECT_EQ(mgr_->GetState(t2), TxnState::kAborted);
}

TEST_F(TxnManagerTest, OidAllocationSkipsExisting) {
  Oid oid = Seed(1);
  // A fresh manager over the same heap must not re-issue `oid`.
  TxnManager mgr2(heap_.get(), wal_.get());
  EXPECT_GT(mgr2.AllocateOid().value, oid.value);
}

TEST_F(TxnManagerTest, ConcurrentDisjointCommitsAllSucceed) {
  std::vector<Oid> oids;
  for (int i = 0; i < 8; ++i) oids.push_back(Seed(i));
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 20; ++round) {
        TxnId t = mgr_->Begin();
        ASSERT_TRUE(mgr_->Put(t, MakeObj(oids[i], round)).ok());
        ASSERT_TRUE(mgr_->Commit(t).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(heap_->Read(oids[i]).value().Get(0), Value(int64_t(19)));
    EXPECT_EQ(heap_->Read(oids[i]).value().version(), 21u);
  }
}

TEST_F(TxnManagerTest, FinishedTransactionsReleaseTheirWriteSets) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  constexpr int kTxns = 20000;
  // Near a heap page: one object per page, ~70 MB of after-images in all.
  DatabaseObject image(mgr_->AllocateOid(), 1, 1);
  image.Set(0, Value(std::string(3500, 'x')));
  TxnId seed = mgr_->Begin();
  ASSERT_TRUE(mgr_->Insert(seed, image).ok());
  ASSERT_TRUE(mgr_->Commit(seed).ok());

  auto heap_bytes = [] {
    struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const size_t before = heap_bytes();
  TxnId committed = 0, aborted = 0;
  for (int i = 0; i < kTxns; ++i) {
    TxnId t = mgr_->Begin();
    ASSERT_TRUE(mgr_->Put(t, image).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(mgr_->Commit(t).ok());
      committed = t;
    } else {
      ASSERT_TRUE(mgr_->Abort(t).ok());
      aborted = t;
    }
    // Keep the in-memory log itself small; only the transaction table may
    // grow here.
    if (i % 256 == 255) {
      ASSERT_TRUE(wal_->Reset().ok());
    }
  }
  const size_t grown = heap_bytes() - std::min(before, heap_bytes());
  EXPECT_LT(grown, size_t{16} << 20);
  // Finished transactions keep their outcome.
  EXPECT_EQ(mgr_->GetState(committed), TxnState::kCommitted);
  EXPECT_EQ(mgr_->GetState(aborted), TxnState::kAborted);
  EXPECT_EQ(mgr_->Put(committed, image).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace idba
