// Detection-based consistency (paper §3.3's rejected alternative for
// displays): stale copies may sit in the client cache; transactions
// validate their optimistic reads at commit and abort on staleness.

#include <gtest/gtest.h>

#include "client_backends.h"

namespace idba {
namespace {

/// Every case runs on both channels (in process and over TCP).
class DetectionModeTest : public ::testing::Test {
 protected:
  /// Runs `body` on each backend with fresh detection-mode clients a_, b_.
  void OnEachBackend(const std::function<void()>& body) {
    ForEachBackend([&](BackendRig& rig) {
      rig_ = &rig;
      cls_ = rig.server().schema().DefineClass("Item").value();
      EXPECT_TRUE(rig.server()
                      .schema()
                      .AddAttribute(cls_, "Counter", ValueType::kInt,
                                    Value(int64_t(0)))
                      .ok());
      ClientOptions detection;
      detection.consistency = ConsistencyMode::kDetection;
      a_ = rig.Connect(100, detection);
      b_ = rig.Connect(101, detection);
      if (a_ != nullptr && b_ != nullptr) {
        body();
      } else {
        ADD_FAILURE() << "clients did not connect";
      }
      a_.reset();  // before the rig goes
      b_.reset();
    });
  }

  DatabaseServer& server() { return rig_->server(); }

  Oid Seed(int64_t v) {
    TxnId t = a_->Begin();
    Oid oid = a_->AllocateOid();
    DatabaseObject obj(oid, cls_, 1);
    obj.Set(0, Value(v));
    EXPECT_TRUE(a_->Insert(t, std::move(obj)).ok());
    EXPECT_TRUE(a_->Commit(t).ok());
    return oid;
  }

  BackendRig* rig_ = nullptr;
  ClassId cls_ = 0;
  std::unique_ptr<ClientApi> a_, b_;
};

TEST_F(DetectionModeTest, StaleCopiesStayInCache) {
  OnEachBackend([&] {
    Oid oid = Seed(1);
    // B caches the object optimistically.
    TxnId tb = b_->Begin();
    ASSERT_TRUE(b_->Read(tb, oid).ok());
    ASSERT_TRUE(b_->Abort(tb).ok());
    ASSERT_TRUE(b_->cache().Contains(oid));

    // A commits an update. No callback: B's copy is now stale but present —
    // the defining property (and flaw) of detection for displays.
    TxnId ta = a_->Begin();
    DatabaseObject obj = a_->Read(ta, oid).value();
    obj.Set(0, Value(int64_t(2)));
    ASSERT_TRUE(a_->Write(ta, std::move(obj)).ok());
    ASSERT_TRUE(a_->Commit(ta).ok());

    ASSERT_TRUE(b_->cache().Contains(oid));
    EXPECT_EQ(b_->cache().Get(oid)->Get(0), Value(int64_t(1)));  // stale!
  });
}

TEST_F(DetectionModeTest, StaleReadAbortsAtCommit) {
  OnEachBackend([&] {
    Oid oid = Seed(1);
    // B reads (and caches) version 1.
    TxnId tb = b_->Begin();
    ASSERT_TRUE(b_->Read(tb, oid).ok());
    ASSERT_TRUE(b_->Abort(tb).ok());

    // A bumps to version 2.
    TxnId ta = a_->Begin();
    DatabaseObject obj = a_->Read(ta, oid).value();
    obj.Set(0, Value(int64_t(2)));
    ASSERT_TRUE(a_->Write(ta, std::move(obj)).ok());
    ASSERT_TRUE(a_->Commit(ta).ok());

    // B runs an RMW from its stale cached copy: validation must abort it.
    TxnId tb2 = b_->Begin();
    DatabaseObject stale = b_->Read(tb2, oid).value();
    stale.Set(0, Value(int64_t(99)));
    ASSERT_TRUE(b_->Write(tb2, std::move(stale)).ok());
    auto commit = b_->Commit(tb2);
    EXPECT_FALSE(commit.ok());
    EXPECT_TRUE(commit.status().IsAborted()) << commit.status().ToString();
    EXPECT_EQ(b_->validation_aborts(), 1u);

    // The lost update never happened; the stale copy was dropped, so the
    // retry sees the current value and succeeds.
    TxnId tb3 = b_->Begin();
    DatabaseObject fresh = b_->Read(tb3, oid).value();
    EXPECT_EQ(fresh.Get(0), Value(int64_t(2)));
    fresh.Set(0, Value(int64_t(3)));
    ASSERT_TRUE(b_->Write(tb3, std::move(fresh)).ok());
    EXPECT_TRUE(b_->Commit(tb3).ok());
  });
}

TEST_F(DetectionModeTest, FreshReadsValidateAndCommit) {
  OnEachBackend([&] {
    Oid oid = Seed(1);
    TxnId t = b_->Begin();
    DatabaseObject obj = b_->Read(t, oid).value();
    obj.Set(0, Value(int64_t(5)));
    ASSERT_TRUE(b_->Write(t, std::move(obj)).ok());
    EXPECT_TRUE(b_->Commit(t).ok());
    EXPECT_EQ(b_->validation_aborts(), 0u);
  });
}

TEST_F(DetectionModeTest, ServerDoesNotTrackDetectionCopies) {
  OnEachBackend([&] {
    Oid oid = Seed(1);
    TxnId t = b_->Begin();
    ASSERT_TRUE(b_->Read(t, oid).ok());
    ASSERT_TRUE(b_->Abort(t).ok());
    // No callback registration: the server's copy table is empty for B.
    EXPECT_TRUE(server().callback_manager().CopyHolders(oid).empty());
  });
}

TEST_F(DetectionModeTest, ReadOnlyTransactionsValidateToo) {
  OnEachBackend([&] {
    Oid oid = Seed(1);
    TxnId tb = b_->Begin();
    ASSERT_TRUE(b_->Read(tb, oid).ok());

    // Concurrent update commits before B does.
    TxnId ta = a_->Begin();
    DatabaseObject obj = a_->Read(ta, oid).value();
    obj.Set(0, Value(int64_t(2)));
    ASSERT_TRUE(a_->Write(ta, std::move(obj)).ok());
    ASSERT_TRUE(a_->Commit(ta).ok());

    auto commit = b_->Commit(tb);
    EXPECT_TRUE(commit.status().IsAborted());
  });
}

TEST_F(DetectionModeTest, LostUpdateAnomalyPreventedUnderConcurrency) {
  OnEachBackend([&] {
    Oid oid = Seed(0);
    constexpr int kRounds = 20;
    auto work = [&](ClientApi* client) {
      for (int i = 0; i < kRounds; ++i) {
        for (;;) {
          TxnId t = client->Begin();
          auto obj = client->Read(t, oid);
          if (!obj.ok()) {
            (void)client->Abort(t);
            continue;
          }
          DatabaseObject o = std::move(obj).value();
          o.Set(0, Value(o.Get(0).AsInt() + 1));
          if (!client->Write(t, std::move(o)).ok()) {
            (void)client->Abort(t);
            continue;
          }
          if (client->Commit(t).ok()) break;
          // Validation abort: cache dropped, retry re-reads fresh.
        }
      }
    };
    std::thread ta([&] { work(a_.get()); });
    std::thread tb([&] { work(b_.get()); });
    ta.join();
    tb.join();
    EXPECT_EQ(server().heap().Read(oid).value().Get(0),
              Value(int64_t(2 * kRounds)));
  });
}

}  // namespace
}  // namespace idba
