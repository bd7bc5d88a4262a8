#include "fixture.h"

#include <utility>

#include "common/macros.h"
#include "snb/tables.h"
#include "trace.h"

namespace bench {

using idf::DataFrame;
using idf::IndexedDataFrame;
using idf::Result;
using idf::Status;
namespace snb = idf::snb;

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

Result<std::shared_ptr<IndexedDataFrame>> Index(const idf::SessionPtr& session,
                                                idf::SchemaPtr schema,
                                                const idf::RowVec& rows,
                                                const std::string& table,
                                                int column) {
  IDF_ASSIGN_OR_RETURN(DataFrame df, session->CreateDataFrame(schema, rows, table));
  IDF_ASSIGN_OR_RETURN(IndexedDataFrame idf,
                       IndexedDataFrame::CreateIndex(df, column, table));
  return std::make_shared<IndexedDataFrame>(std::move(idf));
}

}  // namespace

Result<std::unique_ptr<Fixture>> SetUp(double scale_factor, uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  const int64_t t0 = NowNs();
  snb::SnbConfig cfg;
  cfg.scale_factor = scale_factor;
  cfg.seed = seed;
  fx->data = snb::GenerateSnb(cfg);
  const int64_t t1 = NowNs();

  IDF_ASSIGN_OR_RETURN(fx->session, idf::Session::Make());
  const idf::SessionPtr& s = fx->session;
  const snb::SnbDataset& d = fx->data;
  IDF_ASSIGN_OR_RETURN(fx->person, Index(s, snb::PersonSchema(), d.persons, "person",
                                         snb::person::kId));
  IDF_ASSIGN_OR_RETURN(fx->knows, Index(s, snb::KnowsSchema(), d.knows,
                                        "person_knows_person", snb::knows::kPerson1));
  IDF_ASSIGN_OR_RETURN(fx->comment, Index(s, snb::CommentSchema(), d.comments,
                                          "comment", snb::comment::kReplyOfPostId));
  IDF_ASSIGN_OR_RETURN(fx->forum, Index(s, snb::ForumSchema(), d.forums, "forum",
                                        snb::forum::kId));
  {
    IDF_ASSIGN_OR_RETURN(DataFrame posts,
                         s->CreateDataFrame(snb::PostSchema(), d.posts, "post"));
    IDF_ASSIGN_OR_RETURN(idf::MultiIndexedTable table,
                         idf::MultiIndexedTable::Create(posts, {"id", "creatorId"},
                                                        "post"));
    fx->post = std::make_shared<idf::MultiIndexedTable>(std::move(table));
    IDF_ASSIGN_OR_RETURN(IndexedDataFrame by_id, fx->post->Index("id"));
    fx->post_by_id = by_id.relation();
  }

  IDF_ASSIGN_OR_RETURN(fx->service, idf::QueryService::Make());
  const std::pair<const char*, const std::shared_ptr<IndexedDataFrame>*> single[] = {
      {"person", &fx->person},
      {"person_knows_person", &fx->knows},
      {"comment", &fx->comment},
      {"forum", &fx->forum}};
  for (const auto& [name, idf_ptr] : single) {
    IDF_RETURN_NOT_OK(fx->service->RegisterTable(name, (*idf_ptr)->relation()));
    IDF_RETURN_NOT_OK(s->RegisterTable(name, (*idf_ptr)->ToDataFrame()));
  }
  IDF_RETURN_NOT_OK(fx->service->RegisterTable("post", fx->post));
  IDF_ASSIGN_OR_RETURN(DataFrame post_view, fx->post->ToDataFrame());
  IDF_RETURN_NOT_OK(s->RegisterTable("post", post_view));
  const int64_t t2 = NowNs();

  IDF_ASSIGN_OR_RETURN(fx->server,
                       idf::net::Server::Start(fx->service, idf::net::ServerConfig{}));
  const int64_t t3 = NowNs();

  fx->times.datagen_s = Seconds(t0, t1);
  fx->times.build_s = Seconds(t1, t2);
  fx->times.total_s = Seconds(t0, t3);
  return fx;
}

idf::IndexedRelationPtr PointRelation(const Fixture& fx, int query) {
  if (query == 1) return fx.person->relation();
  if (query == 4) return fx.post_by_id;
  return nullptr;
}

}  // namespace bench
