// The system under test for one run: an SNB dataset loaded into indexed
// tables, a QueryService (default ServiceConfig) serving them behind a
// net::Server (default ServerConfig), and a Session over the same live
// relations for the Session-path measurements.
#pragma once

#include <memory>

#include "indexed/indexed_dataframe.h"
#include "indexed/multi_indexed_table.h"
#include "net/server.h"
#include "service/query_service.h"
#include "snb/datagen.h"

namespace bench {

struct SetupTimes {
  double datagen_s = 0;  ///< snb::GenerateSnb
  double build_s = 0;    ///< load + index creation + RegisterTable
  double total_s = 0;    ///< datagen + build + server start
};

struct Fixture {
  idf::snb::SnbDataset data;
  idf::SessionPtr session;

  // Index layout: person(id), person_knows_person(person1Id),
  // post(id, creatorId), comment(replyOfPostId), forum(id).
  std::shared_ptr<idf::IndexedDataFrame> person, knows, comment, forum;
  std::shared_ptr<idf::MultiIndexedTable> post;
  idf::IndexedRelationPtr post_by_id;

  idf::QueryServicePtr service;
  // Declared last: destroyed (stopped) before the service it serves.
  std::unique_ptr<idf::net::Server> server;

  SetupTimes times;
};

/// Generates SF `scale_factor` with `seed`, builds the indexes, registers
/// them with a fresh service and starts the server on an ephemeral
/// loopback port.
idf::Result<std::unique_ptr<Fixture>> SetUp(double scale_factor, uint64_t seed);

/// The served table a short-read point key is looked up in (SQ1: person,
/// SQ4: post by id); null for other queries.
idf::IndexedRelationPtr PointRelation(const Fixture& fx, int query);

}  // namespace bench
