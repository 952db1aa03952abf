// A degree-0 fill racing a newer commit must not leave a stale copy in a
// client cache.
//
// Client side: ClientApi installs ReadCurrent/ScanClass images through an
// ObjectCache fill window, so an image whose oid was called back while the
// fill was in flight is dropped. A test ServerChannel commits a newer
// version from a second client after the server has read the image and
// before the image reaches the client.
//
// Server side: FetchCurrent, ScanClass and ExecuteQuery register the copy
// before reading the heap, so a commit landing between the two either is
// seen by the read or calls the copy back. A probe disk checks the
// registration at the moment each page is read.

#include <gtest/gtest.h>

#include <functional>

#include "client/database_client.h"
#include "storage/page.h"

namespace idba {
namespace {

/// Forwards to `inner`; runs `after_read` once a FetchCurrent or ScanClass
/// has been answered by the server, before the client sees the reply.
class RacingChannel : public ServerChannel {
 public:
  RacingChannel(ClientApi& client, ServerChannel& inner)
      : ServerChannel(client), inner_(inner) {}

  std::function<void()> after_read;

  const SchemaCatalog& schema() const override { return inner_.schema(); }
  const CostModel& cost_model() const override { return inner_.cost_model(); }
  Result<ClassId> DefineClass(const std::string& name, ClassId base) override {
    return inner_.DefineClass(name, base);
  }
  Status AddAttribute(ClassId cls, const std::string& name, ValueType type,
                      Value default_value) override {
    return inner_.AddAttribute(cls, name, type, std::move(default_value));
  }
  Result<TxnId> Begin() override { return inner_.Begin(); }
  Result<DatabaseObject> Fetch(TxnId txn, Oid oid) override {
    return inner_.Fetch(txn, oid);
  }
  Result<DatabaseObject> FetchCurrent(Oid oid, bool register_copy) override {
    auto obj = inner_.FetchCurrent(oid, register_copy);
    Race();
    return obj;
  }
  Status LockForRead(TxnId txn, Oid oid) override {
    return inner_.LockForRead(txn, oid);
  }
  Status Put(TxnId txn, DatabaseObject obj) override {
    return inner_.Put(txn, std::move(obj));
  }
  Status Insert(TxnId txn, DatabaseObject obj) override {
    return inner_.Insert(txn, std::move(obj));
  }
  Status Erase(TxnId txn, Oid oid) override { return inner_.Erase(txn, oid); }
  Result<CommitResult> Commit(TxnId txn) override { return inner_.Commit(txn); }
  Result<CommitResult> CommitValidated(TxnId txn,
                                       const ReadSet& read_set) override {
    return inner_.CommitValidated(txn, read_set);
  }
  Status Abort(TxnId txn) override { return inner_.Abort(txn); }
  Result<std::vector<DatabaseObject>> ScanClass(
      ClassId cls, bool include_subclasses) override {
    auto objs = inner_.ScanClass(cls, include_subclasses);
    Race();
    return objs;
  }
  Result<std::vector<DatabaseObject>> Query(const ObjectQuery& query) override {
    return inner_.Query(query);
  }
  Result<Oid> AllocateOid() override { return inner_.AllocateOid(); }
  Result<uint64_t> GetVersion(Oid oid) override {
    return inner_.GetVersion(oid);
  }
  void NoteEvicted(Oid oid) override { inner_.NoteEvicted(oid); }

 private:
  void Race() {
    if (!after_read) return;
    auto race = std::move(after_read);
    after_read = nullptr;
    race();
  }

  ServerChannel& inner_;
};

/// The in-process client with a RacingChannel spliced under ClientApi.
class RacingClient : public ClientApi {
 public:
  RacingClient(DatabaseServer* server, ClientId id, RpcMeter* meter)
      : ClientApi(id, racing_, ClientOptions{}),
        inner_(*this, server, meter),
        racing_(*this, inner_) {
    server->ConnectClient(id, &cache());
  }
  ~RacingClient() override { inner_.server().DisconnectClient(id()); }

  RacingChannel& channel() { return racing_; }

 private:
  InProcessChannel inner_;
  RacingChannel racing_;
};

class ClientFillRaceTest : public ::testing::Test {
 protected:
  ClientFillRaceTest() {
    cls_ = server_.schema().DefineClass("Item").value();
    EXPECT_TRUE(server_.schema()
                    .AddAttribute(cls_, "Counter", ValueType::kInt,
                                  Value(int64_t(0)))
                    .ok());
    writer_ = std::make_unique<DatabaseClient>(&server_, 100, &meter_, nullptr);
    reader_ = std::make_unique<RacingClient>(&server_, 101, &meter_);
    oid_ = writer_->AllocateOid();
    DatabaseObject obj(oid_, cls_, 1);
    obj.Set(0, Value(int64_t(1)));
    TxnId t = writer_->Begin();
    EXPECT_TRUE(writer_->Insert(t, std::move(obj)).ok());
    EXPECT_TRUE(writer_->Commit(t).ok());
  }

  void CommitCounter(int64_t value) {
    TxnId t = writer_->Begin();
    DatabaseObject obj = writer_->Read(t, oid_).value();
    obj.Set(0, Value(value));
    ASSERT_TRUE(writer_->Write(t, std::move(obj)).ok());
    ASSERT_TRUE(writer_->Commit(t).ok());
  }

  DatabaseServer server_;
  RpcMeter meter_;
  ClassId cls_ = 0;
  Oid oid_;
  std::unique_ptr<DatabaseClient> writer_;
  std::unique_ptr<RacingClient> reader_;
};

TEST_F(ClientFillRaceTest, ReadCurrentDropsImageCalledBackInFlight) {
  reader_->channel().after_read = [&] { CommitCounter(2); };
  // The racing read is linearized before the commit: it returns the image
  // it read...
  Result<DatabaseObject> first = reader_->ReadCurrent(oid_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().Get(0), Value(int64_t(1)));
  // ...but that image must not stay cached: the commit's callback arrived
  // while it was in flight, and no later callback would remove it.
  EXPECT_FALSE(reader_->cache().Contains(oid_));
  Result<DatabaseObject> second = reader_->ReadCurrent(oid_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().Get(0), Value(int64_t(2)));
  EXPECT_EQ(second.value().version(),
            server_.heap().Read(oid_).value().version());
}

TEST_F(ClientFillRaceTest, ScanDropsImageCalledBackInFlight) {
  reader_->channel().after_read = [&] { CommitCounter(3); };
  auto scanned = reader_->ScanClass(cls_);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned.value().size(), 1u);
  EXPECT_EQ(scanned.value()[0].Get(0), Value(int64_t(1)));
  EXPECT_EQ(reader_->ReadCurrent(oid_).value().Get(0), Value(int64_t(3)));
}

TEST_F(ClientFillRaceTest, UnracedFillStaysCached) {
  ASSERT_TRUE(reader_->ReadCurrent(oid_).ok());
  EXPECT_TRUE(reader_->cache().Contains(oid_));
  // The cached copy is protected: the next commit calls it back.
  CommitCounter(4);
  EXPECT_FALSE(reader_->cache().Contains(oid_));
  EXPECT_EQ(reader_->ReadCurrent(oid_).value().Get(0), Value(int64_t(4)));
}

/// A data disk that reports the objects on every page it is asked for.
class ProbeDisk : public MemDisk {
 public:
  std::function<void(Oid)> on_read;

  Status ReadPage(PageId id, PageData* out) override {
    IDBA_RETURN_NOT_OK(MemDisk::ReadPage(id, out));
    if (on_read) {
      SlottedPage page(out);
      for (const auto& [slot, bytes] : page.LiveRecords()) {
        Decoder dec(bytes.data(), bytes.size());
        DatabaseObject obj;
        IDBA_RETURN_NOT_OK(DatabaseObject::DecodeFrom(&dec, &obj));
        on_read(obj.oid());
      }
    }
    return Status::OK();
  }
};

class ServerRegistrationOrderTest : public ::testing::Test {
 protected:
  static constexpr ClientId kReader = 7;
  static constexpr int kObjects = 4;

  ServerRegistrationOrderTest() {
    DatabaseServerOptions opts;
    // One frame: every read of an object other than the last one touched
    // goes to the disk, where the probe sees it.
    opts.buffer_pool.frame_count = 1;
    server_ = std::make_unique<DatabaseServer>(&data_, &wal_, 0, opts);
    cls_ = server_->schema().DefineClass("Blob").value();
    EXPECT_TRUE(
        server_->schema().AddAttribute(cls_, "Bytes", ValueType::kString).ok());
    // Objects large enough to need a page each.
    TxnId t = server_->Begin(1);
    for (int i = 0; i < kObjects; ++i) {
      DatabaseObject obj(server_->AllocateOid(), cls_, 1);
      obj.Set(0, Value(std::string(3000, static_cast<char>('a' + i))));
      oids_.push_back(obj.oid());
      EXPECT_TRUE(server_->Insert(1, t, std::move(obj), nullptr).ok());
    }
    EXPECT_TRUE(server_->Commit(1, t, nullptr).ok());
    server_->ConnectClient(kReader, &reader_cache_);
  }

  /// Starts counting disk reads of objects, and those that find the
  /// reader's copy already registered.
  void Arm() {
    data_.on_read = [this](Oid oid) {
      ++disk_reads_;
      if (Registered(oid)) ++registered_at_read_;
    };
  }

  ~ServerRegistrationOrderTest() override { data_.on_read = nullptr; }

  bool Registered(Oid oid) const {
    for (ClientId c : server_->callback_manager().CopyHolders(oid)) {
      if (c == kReader) return true;
    }
    return false;
  }

  ProbeDisk data_;
  MemDisk wal_;
  std::unique_ptr<DatabaseServer> server_;
  ObjectCache reader_cache_;
  ClassId cls_ = 0;
  std::vector<Oid> oids_;
  int disk_reads_ = 0;
  int registered_at_read_ = 0;
};

TEST_F(ServerRegistrationOrderTest, FetchCurrentRegistersBeforeReading) {
  // Make another object's page the resident one.
  ASSERT_TRUE(server_->heap().Read(oids_[1]).ok());
  Arm();
  auto obj = server_->FetchCurrent(kReader, oids_[0], true, nullptr);
  ASSERT_TRUE(obj.ok());
  ASSERT_EQ(disk_reads_, 1);
  EXPECT_EQ(registered_at_read_, 1);
  EXPECT_TRUE(Registered(oids_[0]));
}

// The heap's class scan reads pages before any copy is registered. After
// it, each object's page is read again (all but the one left resident),
// and each of those reads must find the copy registered.
TEST_F(ServerRegistrationOrderTest, ScanRegistersEachCopyBeforeReadingIt) {
  Arm();
  auto objs = server_->ScanClass(kReader, cls_, false, nullptr);
  ASSERT_TRUE(objs.ok());
  ASSERT_EQ(objs.value().size(), oids_.size());
  EXPECT_GE(registered_at_read_, kObjects - 1);
  for (Oid oid : oids_) EXPECT_TRUE(Registered(oid));
}

TEST_F(ServerRegistrationOrderTest, QueryRegistersFirstAndUndoesNonMatches) {
  ObjectQuery query;
  query.cls = cls_;
  query.conjuncts = {{"Bytes", CompareOp::kEq, Value(std::string(3000, 'a'))}};
  Arm();
  auto objs = server_->ExecuteQuery(kReader, query, nullptr);
  ASSERT_TRUE(objs.ok());
  ASSERT_EQ(objs.value().size(), 1u);
  EXPECT_GE(registered_at_read_, kObjects - 1);
  EXPECT_TRUE(Registered(oids_[0]));
  for (int i = 1; i < kObjects; ++i) EXPECT_FALSE(Registered(oids_[i]));
}

TEST_F(ServerRegistrationOrderTest, FailedReadUndoesTheRegistration) {
  Oid missing(oids_.back().value + 100);
  EXPECT_TRUE(server_->FetchCurrent(kReader, missing, true, nullptr)
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(Registered(missing));
}

TEST_F(ServerRegistrationOrderTest, NonMatchKeepsAnEarlierRegistration) {
  ASSERT_TRUE(server_->FetchCurrent(kReader, oids_[1], true, nullptr).ok());
  ObjectQuery none;
  none.cls = cls_;
  none.conjuncts = {{"Bytes", CompareOp::kEq, Value("nothing")}};
  auto objs = server_->ExecuteQuery(kReader, none, nullptr);
  ASSERT_TRUE(objs.ok());
  EXPECT_TRUE(objs.value().empty());
  // The copy fetched before the query is still cached by the client and
  // must stay protected.
  EXPECT_TRUE(Registered(oids_[1]));
  EXPECT_FALSE(Registered(oids_[0]));
}

}  // namespace
}  // namespace idba
