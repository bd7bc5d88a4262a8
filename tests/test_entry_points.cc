// Cross-entry-point differential suite: the same SQL — SNB short reads
// SQ1-SQ7, filters, IN lists, aggregates, and lookups and joins through
// the second index of a multi-index table — runs through the Session path,
// QueryService::Execute, ExecutePrepared and the wire (net::Client). Every
// entry point must return the same rows AND run the same physical
// operators (the relation's `@vN` version tag aside), so a rule that only
// fires for one form of relation read shows up here. A live-appender case
// checks that service joins read both sides at the query's epoch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/multi_indexed_table.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "snb/datagen.h"
#include "snb/tables.h"

namespace idf {
namespace {

EngineConfig TestEngine() {
  EngineConfig cfg;
  cfg.num_partitions = 4;
  cfg.num_threads = 2;
  return cfg;
}

/// Pre-order operator signatures of a physical plan: each operator's name
/// up to its bracketed relation (or its first word), with `@vN` removed.
/// Literal-vs-parameter renderings of keys and predicates are not part of
/// the signature; the operator and the relation it reads are.
void CollectSignatures(const PhysicalOp& op, std::vector<std::string>* out) {
  static const std::regex kVersionTag("@v[0-9]+");
  const std::string name = std::regex_replace(op.name(), kVersionTag, "");
  const size_t space = name.find(' ');
  const size_t open = name.find('[');
  const size_t end = open < space ? name.find(']') + 1 : space;
  out->push_back(name.substr(0, end));
  for (const PhysicalOpPtr& child : op.children()) {
    CollectSignatures(*child, out);
  }
}

std::vector<std::string> Signatures(const PhysicalOp& op) {
  std::vector<std::string> out;
  CollectSignatures(op, &out);
  return out;
}

std::string Joined(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += p + " | ";
  return out;
}

bool Contains(const std::vector<std::string>& sigs, const std::string& needle) {
  for (const std::string& s : sigs) {
    if (s.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Rows as a sorted list of rendered strings (an ORDER BY's tie order is
/// not part of the contract).
std::vector<std::string> Canonical(const RowVec& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Replaces each '?' of `sql` with the next parameter, rendered as a SQL
/// literal.
std::string Splice(std::string sql, const std::vector<Value>& params) {
  for (const Value& p : params) {
    const std::string lit =
        p.is_string() ? "'" + p.string_value() + "'" : p.ToString();
    sql.replace(sql.find('?'), 1, lit);
  }
  return sql;
}

struct Case {
  std::string label;
  std::string sql;
  std::vector<Value> params;
  /// Operator signatures every entry point's plan must contain.
  std::vector<std::string> must_plan;
};

class EntryPointsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snb::SnbConfig cfg;
    cfg.scale_factor = 0.2;
    cfg.seed = 7;
    data_ = new snb::SnbDataset(snb::GenerateSnb(cfg));
    session_ = new SessionPtr(Session::Make(TestEngine()).ValueOrDie());
    ServiceConfig service_cfg;
    service_cfg.engine = TestEngine();
    service_ = new QueryServicePtr(QueryService::Make(service_cfg).ValueOrDie());

    struct Single {
      const char* name;
      SchemaPtr schema;
      const RowVec* rows;
      int column;
    };
    const Single singles[] = {
        {"person", snb::PersonSchema(), &data_->persons, snb::person::kId},
        {"person_knows_person", snb::KnowsSchema(), &data_->knows,
         snb::knows::kPerson1},
        {"comment", snb::CommentSchema(), &data_->comments,
         snb::comment::kReplyOfPostId},
        {"forum", snb::ForumSchema(), &data_->forums, snb::forum::kId},
    };
    SessionPtr& s = *session_;
    for (const Single& t : singles) {
      DataFrame df = s->CreateDataFrame(t.schema, *t.rows, t.name).ValueOrDie();
      IndexedDataFrame idf =
          IndexedDataFrame::CreateIndex(df, t.column, t.name).ValueOrDie();
      ASSERT_TRUE(s->RegisterTable(t.name, idf.ToDataFrame()).ok());
      ASSERT_TRUE((*service_)->RegisterTable(t.name, idf.relation()).ok());
    }
    DataFrame posts =
        s->CreateDataFrame(snb::PostSchema(), data_->posts, "post").ValueOrDie();
    auto post = std::make_shared<MultiIndexedTable>(
        MultiIndexedTable::Create(posts, {"id", "creatorId"}, "post")
            .ValueOrDie());
    ASSERT_TRUE(s->RegisterTable("post", post->ToDataFrame().ValueOrDie()).ok());
    ASSERT_TRUE((*service_)->RegisterTable("post", post).ok());

    server_ = net::Server::Start(*service_, net::ServerConfig{})
                  .ValueOrDie()
                  .release();
    client_ =
        net::Client::Connect("127.0.0.1", server_->port()).ValueOrDie().release();
  }

  static void TearDownTestSuite() {
    delete client_;
    server_->Stop();
    delete server_;
    delete service_;
    delete session_;
    delete data_;
  }

  /// Runs `c` through all four entry points and checks rows and plans.
  void RunEverywhere(const Case& c) {
    SCOPED_TRACE(c.label + ": " + c.sql);
    QueryService& service = **service_;
    const std::string literal_sql = Splice(c.sql, c.params);

    // Session path: the reference.
    Session& session = **session_;
    DataFrame df = session.Sql(literal_sql).ValueOrDie();
    PhysicalOpPtr session_plan = session.PlanQuery(df.plan()).ValueOrDie();
    const std::vector<std::string> want = Signatures(*session_plan);
    const std::vector<std::string> want_rows =
        Canonical(session.ExecuteCollect(df.plan()).ValueOrDie());
    for (const std::string& op : c.must_plan) {
      EXPECT_TRUE(Contains(want, op)) << op << " missing from " << Joined(want);
    }

    // Ad hoc through the service.
    QueryResult adhoc = service.Execute(literal_sql);
    ASSERT_TRUE(adhoc.ok()) << adhoc.status.ToString();
    ASSERT_NE(adhoc.plan, nullptr);
    EXPECT_EQ(Joined(Signatures(*adhoc.plan)), Joined(want));
    EXPECT_EQ(Canonical(adhoc.rows), want_rows);

    // Prepared through the service.
    PreparedInfo info = service.Prepare(c.sql).ValueOrDie();
    QueryResult prepared = service.ExecutePrepared(info.handle, c.params);
    ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
    ASSERT_NE(prepared.plan, nullptr);
    EXPECT_EQ(Joined(Signatures(*prepared.plan)), Joined(want));
    EXPECT_EQ(Canonical(prepared.rows), want_rows);

    // The wire: prepared and ad hoc.
    net::PreparedReply wire = client_->Prepare(c.sql).ValueOrDie();
    net::RowsReply wire_rows = client_->Execute(wire.handle, c.params).ValueOrDie();
    EXPECT_EQ(Canonical(wire_rows.rows), want_rows);
    net::RowsReply wire_adhoc = client_->Query(literal_sql).ValueOrDie();
    EXPECT_EQ(Canonical(wire_adhoc.rows), want_rows);
    // The wire handle is the service's own: executing it in process at the
    // unchanged epoch reuses the physical plan the wire execution lowered
    // (no re-plan), so its plan is the one the wire ran.
    const uint64_t replans = service.Stats().prepared_replans;
    QueryResult same = service.ExecutePrepared(wire.handle, c.params);
    ASSERT_TRUE(same.ok()) << same.status.ToString();
    EXPECT_EQ(service.Stats().prepared_replans, replans);
    EXPECT_EQ(Joined(Signatures(*same.plan)), Joined(want));
    EXPECT_TRUE(client_->Close(wire.handle).ok());
    EXPECT_TRUE(service.ClosePrepared(info.handle).ok());
  }

  static snb::SnbDataset* data_;
  static SessionPtr* session_;
  static QueryServicePtr* service_;
  static net::Server* server_;
  static net::Client* client_;
};

snb::SnbDataset* EntryPointsTest::data_ = nullptr;
SessionPtr* EntryPointsTest::session_ = nullptr;
QueryServicePtr* EntryPointsTest::service_ = nullptr;
net::Server* EntryPointsTest::server_ = nullptr;
net::Client* EntryPointsTest::client_ = nullptr;

TEST_F(EntryPointsTest, SnbShortReads) {
  const snb::SnbDataset& d = *data_;
  const Row& person = d.persons[d.persons.size() / 3];
  const Row& post = d.posts[d.posts.size() / 2];
  const Row& comment = d.comments[d.comments.size() / 2];
  const Row& knows = d.knows[d.knows.size() / 2];
  const Value person_id = person[snb::person::kId];
  const std::vector<Case> cases = {
      {"SQ1",
       "SELECT firstName, lastName, gender, birthday, creationDate, "
       "locationIP, browserUsed, cityId FROM person WHERE id = ?",
       {person_id},
       {"IndexLookup[person]"}},
      {"SQ2",
       "SELECT id, content, creationDate FROM post WHERE creatorId = ? "
       "ORDER BY creationDate DESC LIMIT 10",
       {post[snb::post::kCreatorId]},
       {"IndexLookup[post_by_creatorId]"}},
      {"SQ3",
       "SELECT p.id, p.firstName, p.lastName, k.creationDate "
       "FROM person_knows_person k JOIN person p ON p.id = k.person2Id "
       "WHERE k.person1Id = ? ORDER BY k.creationDate DESC",
       {knows[snb::knows::kPerson1]},
       {"IndexedEquiJoin[person]", "IndexLookup[person_knows_person]"}},
      {"SQ4", "SELECT creationDate, content FROM post WHERE id = ?",
       {post[snb::post::kId]},
       {"IndexLookup[post_by_id]"}},
      {"SQ5",
       "SELECT p.id, p.firstName, p.lastName FROM comment c "
       "JOIN person p ON p.id = c.creatorId WHERE c.id = ?",
       {comment[snb::comment::kId]},
       {"IndexedEquiJoin[person]"}},
      {"SQ6",
       "SELECT f.title, p.firstName, p.lastName FROM comment c "
       "JOIN post po ON po.id = c.replyOfPostId "
       "JOIN forum f ON f.id = po.forumId "
       "JOIN person p ON p.id = f.moderatorId WHERE c.id = ?",
       {comment[snb::comment::kId]},
       // post is the build side: its probe is the one filtered comment.
       {"IndexedEquiJoin[post_by_id]", "IndexedEquiJoin[forum]",
        "IndexedEquiJoin[person]", "IndexedScanFilter[comment]"}},
      {"SQ7",
       "SELECT c.content, p.firstName, p.lastName FROM comment c "
       "JOIN person p ON p.id = c.creatorId WHERE c.replyOfPostId = ? "
       "ORDER BY c.creationDate DESC",
       {comment[snb::comment::kReplyOfPostId]},
       {"IndexedEquiJoin[person]", "IndexLookup[comment]"}},
  };
  for (const Case& c : cases) {
    RunEverywhere(c);
    for (const char* fanout : {"SQ3", "SQ5", "SQ6", "SQ7"}) {
      if (c.label != fanout) continue;
      QueryResult r = (*service_)->Execute(Splice(c.sql, c.params));
      EXPECT_FALSE(Contains(Signatures(*r.plan), "BroadcastHashJoin"))
          << c.label << ": " << Joined(Signatures(*r.plan));
    }
  }
}

TEST_F(EntryPointsTest, FiltersInListsAggregatesAndSecondIndex) {
  const snb::SnbDataset& d = *data_;
  const Row& post = d.posts[d.posts.size() / 4];
  const Value creator = post[snb::post::kCreatorId];
  const std::vector<Case> cases = {
      {"filter", "SELECT id, length FROM comment WHERE length > ? AND creatorId = ?",
       {Value(int32_t{40}), d.comments[7][snb::comment::kCreatorId]},
       {"IndexedScanFilter[comment]"}},
      {"in-list", "SELECT id, title FROM forum WHERE id IN (?, ?, ?)",
       {d.forums[0][snb::forum::kId], d.forums[2][snb::forum::kId],
        Value(int64_t{-1})},
       {"IndexLookup[forum]"}},
      {"in-list second index",
       "SELECT id FROM post WHERE creatorId IN (?, ?) AND length > ?",
       {creator, d.persons[1][snb::person::kId], Value(int32_t{10})},
       {"IndexLookup[post_by_creatorId]"}},
      {"aggregate",
       "SELECT forumId, COUNT(*) AS n, MAX(length) AS longest FROM post "
       "WHERE creatorId = ? GROUP BY forumId",
       {creator},
       {"HashAggregate", "IndexLookup[post_by_creatorId]"}},
      {"scan aggregate", "SELECT COUNT(*) AS n FROM comment WHERE length > ?",
       {Value(int32_t{50})},
       {"IndexedScanAggregate[comment]"}},
      {"join on second index",
       "SELECT p.firstName, po.id FROM person p "
       "JOIN post po ON po.creatorId = p.id WHERE p.id = ?",
       {creator},
       {"IndexedEquiJoin[post_by_creatorId]", "IndexLookup[person]"}},
      {"join aggregate",
       "SELECT COUNT(*) AS n FROM person_knows_person k "
       "JOIN person p ON p.id = k.person2Id WHERE k.person1Id = ?",
       {d.knows[3][snb::knows::kPerson1]},
       {"IndexedEquiJoin[person]"}},
  };
  for (const Case& c : cases) RunEverywhere(c);
}

// Live appender: service joins read both sides at the query's epoch. The
// appender cycles through three commits: knows edges pointing at persons
// that do not exist yet, then those persons plus more, then edges to the
// latter. A query pinned at epoch e therefore joins an exactly known
// number of edges; reading the build side (person) later than the probe
// (knows) joins dangling edges too early, and reading the probe later
// than the build joins the third commit's edges too early — either tear
// changes the count.
TEST(EntryPointsLiveTest, JoinsReadBothSidesAtTheQueryEpoch) {
  ServiceConfig cfg;
  cfg.engine = TestEngine();
  QueryServicePtr service = QueryService::Make(cfg).ValueOrDie();
  SessionPtr session = Session::Make(TestEngine()).ValueOrDie();
  SchemaPtr person_schema = Schema::Make(
      {{"id", TypeId::kInt64, false}, {"name", TypeId::kString, false}});
  SchemaPtr knows_schema = Schema::Make(
      {{"src", TypeId::kInt64, false}, {"dst", TypeId::kInt64, false}});
  constexpr int64_t kPersons = 200;
  constexpr int64_t kEdges = 600;
  constexpr int64_t kBatch = 5;
  RowVec persons, knows;
  for (int64_t i = 0; i < kPersons; ++i) {
    persons.push_back({Value(i), Value("p")});
  }
  for (int64_t i = 0; i < kEdges; ++i) {
    knows.push_back({Value(i % kPersons), Value((i * 7) % kPersons)});
  }
  auto index = [&](const SchemaPtr& schema, const RowVec& rows,
                   const std::string& name) {
    DataFrame df = session->CreateDataFrame(schema, rows, name).ValueOrDie();
    return IndexedDataFrame::CreateIndex(df, 0, name).ValueOrDie().relation();
  };
  ASSERT_TRUE(
      service->RegisterTable("person", index(person_schema, persons, "person")).ok());
  ASSERT_TRUE(
      service->RegisterTable("knows", index(knows_schema, knows, "knows")).ok());
  const uint64_t epoch0 = service->snapshots().epoch();

  // Joined edges after `step` commits.
  auto expected = [&](uint64_t step) {
    return kEdges + static_cast<int64_t>(step / 3) * 2 * kBatch +
           (step % 3 >= 2 ? kBatch : 0);
  };

  constexpr int kCycles = 60;
  std::atomic<bool> done{false};
  std::thread appender([&] {
    int64_t next_id = kPersons;
    for (int c = 0; c < kCycles; ++c) {
      const int64_t waiting = next_id;  // persons of the second commit
      const int64_t later = next_id + kBatch;
      RowVec dangling, new_persons, fresh_edges;
      for (int64_t i = 0; i < kBatch; ++i) {
        dangling.push_back({Value(i), Value(waiting + i)});
        new_persons.push_back({Value(waiting + i), Value("w")});
        new_persons.push_back({Value(later + i), Value("l")});
        fresh_edges.push_back({Value(i + 1), Value(later + i)});
      }
      next_id += 2 * kBatch;
      for (const auto& [table, rows] :
           {std::pair{"knows", &dangling}, std::pair{"person", &new_persons},
            std::pair{"knows", &fresh_edges}}) {
        EXPECT_TRUE(service->Append(table, *rows).ok());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    done.store(true, std::memory_order_release);
  });

  const std::string sql =
      "SELECT COUNT(*) AS n FROM knows k JOIN person p ON p.id = k.dst";
  PreparedInfo info = service->Prepare(sql).ValueOrDie();
  bool phase_seen[3] = {false, false, false};
  auto check = [&](const QueryResult& r) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_TRUE(Contains(Signatures(*r.plan), "IndexedEquiJoin[person]"))
        << Joined(Signatures(*r.plan));
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].ToString(),
              std::to_string(expected(r.epoch - epoch0)))
        << "epoch " << r.epoch;
    phase_seen[(r.epoch - epoch0) % 3] = true;
  };
  while (!done.load(std::memory_order_acquire)) {
    check(service->Execute(sql));
    check(service->ExecutePrepared(info.handle, {}));
  }
  appender.join();
  check(service->Execute(sql));
  check(service->ExecutePrepared(info.handle, {}));
  // Queries landed after each of the three kinds of commit.
  EXPECT_TRUE(phase_seen[0] && phase_seen[1] && phase_seen[2]);
}

}  // namespace
}  // namespace idf
