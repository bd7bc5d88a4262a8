#include "queries.h"

#include <algorithm>
#include <utility>

#include "snb/tables.h"

namespace bench {

using idf::Row;
using idf::RowVec;
using idf::Value;
namespace snb = idf::snb;

namespace {

const ShortRead kReads[] = {
    {1,
     "SELECT firstName, lastName, gender, birthday, creationDate, locationIP, "
     "browserUsed, cityId FROM person WHERE id = ?",
     QueryClass::kPoint, ParamKind::kPerson},
    {2,
     "SELECT id, content, creationDate FROM post WHERE creatorId = ? "
     "ORDER BY creationDate DESC LIMIT 10",
     QueryClass::kFanout, ParamKind::kPerson},
    {3,
     "SELECT p.id, p.firstName, p.lastName, k.creationDate "
     "FROM person_knows_person k JOIN person p ON p.id = k.person2Id "
     "WHERE k.person1Id = ? ORDER BY k.creationDate DESC",
     QueryClass::kFanout, ParamKind::kPerson},
    {4, "SELECT creationDate, content FROM post WHERE id = ?",
     QueryClass::kPoint, ParamKind::kPost},
    {5,
     "SELECT p.id, p.firstName, p.lastName FROM comment c "
     "JOIN person p ON p.id = c.creatorId WHERE c.id = ?",
     QueryClass::kScan, ParamKind::kComment},
    {6,
     "SELECT f.title, p.firstName, p.lastName FROM comment c "
     "JOIN post po ON po.id = c.replyOfPostId "
     "JOIN forum f ON f.id = po.forumId "
     "JOIN person p ON p.id = f.moderatorId WHERE c.id = ?",
     QueryClass::kScan, ParamKind::kComment},
    {7,
     "SELECT c.content, p.firstName, p.lastName FROM comment c "
     "JOIN person p ON p.id = c.creatorId WHERE c.replyOfPostId = ? "
     "ORDER BY c.creationDate DESC",
     QueryClass::kFanout, ParamKind::kPost},
};

/// One result row in comparable form.
std::string Canonical(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '\x1f';
  }
  return out;
}

/// The expected answer: groups of equal ORDER BY key in key order (one
/// group for an unordered query), truncated to `limit` rows.
struct Expected {
  std::vector<std::vector<std::string>> groups;
  size_t limit = SIZE_MAX;
};

/// Sorts (key, row) pairs by descending key into tie groups.
Expected GroupDescending(std::vector<std::pair<int64_t, Row>> keyed,
                         size_t limit) {
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  Expected e;
  e.limit = limit;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) e.groups.emplace_back();
    e.groups.back().push_back(Canonical(keyed[i].second));
  }
  return e;
}

Expected Unordered(const std::vector<Row>& rows) {
  Expected e;
  e.groups.emplace_back();
  for (const Row& r : rows) e.groups.back().push_back(Canonical(r));
  return e;
}

}  // namespace

const char* ClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kPoint:
      return "point";
    case QueryClass::kFanout:
      return "fanout";
    case QueryClass::kScan:
      return "scan";
  }
  return "?";
}

const ShortRead& GetShortRead(int no) { return kReads[no - 1]; }

std::string SpliceParam(const ShortRead& q, int64_t param) {
  std::string sql = q.sql;
  sql.replace(sql.find('?'), 1, std::to_string(param));
  return sql;
}

int64_t DrawParam(ParamKind kind, const snb::SnbDataset& base,
                  idf::Random64& rng) {
  auto uniform = [&](int64_t first, int64_t n) {
    return first + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
  };
  switch (kind) {
    case ParamKind::kPerson:
      return uniform(base.first_person_id, base.num_persons);
    case ParamKind::kPost:
      return uniform(base.first_post_id, base.num_posts);
    case ParamKind::kComment:
      return uniform(base.first_comment_id, base.num_comments);
  }
  return 0;
}

void Oracle::Append(const std::string& table, RowVec rows) {
  appended_rows_ += rows.size();
  if (table == "person_knows_person") {
    knows_.push_back(std::move(rows));
  } else if (table == "post") {
    posts_.push_back(std::move(rows));
  } else {
    comments_.push_back(std::move(rows));
  }
}

uint64_t Oracle::num_rows() const {
  return base_.persons.size() + base_.knows.size() + base_.posts.size() +
         base_.comments.size() + base_.forums.size() + appended_rows_;
}

void Oracle::Reindex() {
  if (indexed_rows_ == appended_rows_) return;
  indexed_rows_ = appended_rows_;
  for (Posting* p : {&person_by_id_, &knows_by_p1_, &post_by_id_,
                     &post_by_creator_, &comment_by_id_, &comment_by_reply_,
                     &forum_by_id_}) {
    p->clear();
  }
  auto index = [](Posting& posting, const RowVec& rows, int col) {
    for (const Row& r : rows) posting[r[static_cast<size_t>(col)].AsInt64()].push_back(&r);
  };
  index(person_by_id_, base_.persons, snb::person::kId);
  index(forum_by_id_, base_.forums, snb::forum::kId);
  auto index_all = [&](Posting& posting, const RowVec& base,
                       const std::vector<RowVec>& appended, int col) {
    index(posting, base, col);
    for (const RowVec& batch : appended) index(posting, batch, col);
  };
  index_all(knows_by_p1_, base_.knows, knows_, snb::knows::kPerson1);
  index_all(post_by_id_, base_.posts, posts_, snb::post::kId);
  index_all(post_by_creator_, base_.posts, posts_, snb::post::kCreatorId);
  index_all(comment_by_id_, base_.comments, comments_, snb::comment::kId);
  index_all(comment_by_reply_, base_.comments, comments_,
            snb::comment::kReplyOfPostId);
}

std::string Oracle::Check(int query, int64_t param, const RowVec& reply) {
  Reindex();
  static const std::vector<const Row*> kNone;
  auto find = [](const Posting& posting, int64_t key) -> const std::vector<const Row*>& {
    auto it = posting.find(key);
    return it == posting.end() ? kNone : it->second;
  };
  auto col = [](const Row* r, int c) -> const Value& { return (*r)[static_cast<size_t>(c)]; };
  namespace P = snb::person;

  Expected want;
  switch (query) {
    case 1: {
      std::vector<Row> rows;
      for (const Row* p : find(person_by_id_, param)) {
        rows.push_back({col(p, P::kFirstName), col(p, P::kLastName),
                        col(p, P::kGender), col(p, P::kBirthday),
                        col(p, P::kCreationDate), col(p, P::kLocationIp),
                        col(p, P::kBrowserUsed), col(p, P::kCityId)});
      }
      want = Unordered(rows);
      break;
    }
    case 2: {
      std::vector<std::pair<int64_t, Row>> keyed;
      for (const Row* po : find(post_by_creator_, param)) {
        keyed.emplace_back(col(po, snb::post::kCreationDate).AsInt64(),
                           Row{col(po, snb::post::kId), col(po, snb::post::kContent),
                               col(po, snb::post::kCreationDate)});
      }
      want = GroupDescending(std::move(keyed), 10);
      break;
    }
    case 3: {
      std::vector<std::pair<int64_t, Row>> keyed;
      for (const Row* k : find(knows_by_p1_, param)) {
        for (const Row* p :
             find(person_by_id_, col(k, snb::knows::kPerson2).AsInt64())) {
          keyed.emplace_back(col(k, snb::knows::kCreationDate).AsInt64(),
                             Row{col(p, P::kId), col(p, P::kFirstName),
                                 col(p, P::kLastName),
                                 col(k, snb::knows::kCreationDate)});
        }
      }
      want = GroupDescending(std::move(keyed), SIZE_MAX);
      break;
    }
    case 4: {
      std::vector<Row> rows;
      for (const Row* po : find(post_by_id_, param)) {
        rows.push_back({col(po, snb::post::kCreationDate), col(po, snb::post::kContent)});
      }
      want = Unordered(rows);
      break;
    }
    case 5:
    case 6: {
      std::vector<Row> rows;
      for (const Row* c : find(comment_by_id_, param)) {
        if (query == 5) {
          for (const Row* p :
               find(person_by_id_, col(c, snb::comment::kCreatorId).AsInt64())) {
            rows.push_back({col(p, P::kId), col(p, P::kFirstName), col(p, P::kLastName)});
          }
          continue;
        }
        for (const Row* po : find(post_by_id_,
                                  col(c, snb::comment::kReplyOfPostId).AsInt64())) {
          for (const Row* f :
               find(forum_by_id_, col(po, snb::post::kForumId).AsInt64())) {
            for (const Row* p : find(person_by_id_,
                                     col(f, snb::forum::kModeratorId).AsInt64())) {
              rows.push_back({col(f, snb::forum::kTitle), col(p, P::kFirstName),
                              col(p, P::kLastName)});
            }
          }
        }
      }
      want = Unordered(rows);
      break;
    }
    case 7: {
      std::vector<std::pair<int64_t, Row>> keyed;
      for (const Row* c : find(comment_by_reply_, param)) {
        for (const Row* p :
             find(person_by_id_, col(c, snb::comment::kCreatorId).AsInt64())) {
          keyed.emplace_back(col(c, snb::comment::kCreationDate).AsInt64(),
                             Row{col(c, snb::comment::kContent), col(p, P::kFirstName),
                                 col(p, P::kLastName)});
        }
      }
      want = GroupDescending(std::move(keyed), SIZE_MAX);
      break;
    }
    default:
      return "unknown query";
  }

  size_t total = 0;
  for (const auto& g : want.groups) total += g.size();
  const size_t expect = std::min(total, want.limit);
  const std::string where =
      "SQ" + std::to_string(query) + "(" + std::to_string(param) + "): ";
  if (reply.size() != expect) {
    return where + "expected " + std::to_string(expect) + " rows, got " +
           std::to_string(reply.size());
  }
  // Walk the tie groups in key order: each reply segment must be the
  // group's multiset (a sub-multiset for a group cut by LIMIT).
  size_t pos = 0;
  for (auto& group : want.groups) {
    if (pos == expect) break;
    const size_t n = std::min(group.size(), expect - pos);
    std::vector<std::string> got;
    for (size_t i = pos; i < pos + n; ++i) got.push_back(Canonical(reply[i]));
    std::sort(got.begin(), got.end());
    std::sort(group.begin(), group.end());
    const bool ok = n == group.size()
                        ? got == group
                        : std::includes(group.begin(), group.end(), got.begin(),
                                        got.end());
    if (!ok) {
      return where + "rows " + std::to_string(pos) + ".." +
             std::to_string(pos + n) + " differ from the expected " +
             (want.groups.size() > 1 ? "ORDER BY group" : "row multiset");
    }
    pos += n;
  }
  return "";
}

}  // namespace bench
