// Parser tests: every query listing from the paper is parsed verbatim,
// plus structural checks and error handling.

#include "sql/parser.h"

#include <gtest/gtest.h>

namespace eslev {
namespace {

StatementPtr MustParse(const std::string& sql) {
  auto r = ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << "SQL: " << sql << "\n" << r.status();
  if (!r.ok()) return nullptr;
  return std::move(r).ValueUnsafe();
}

const SelectStmt& SelectOf(const StatementPtr& stmt) {
  if (stmt->kind == StatementKind::kInsert) {
    return *static_cast<const InsertStmt&>(*stmt).select;
  }
  return *static_cast<const SelectStatement&>(*stmt).select;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

TEST(ParserDdlTest, PaperStreamDeclarationUntyped) {
  auto stmt = MustParse("STREAM readings(reader_id, tag_id, read_time);");
  ASSERT_TRUE(stmt);
  ASSERT_EQ(stmt->kind, StatementKind::kCreateStream);
  const auto& c = static_cast<const CreateStmt&>(*stmt);
  EXPECT_TRUE(c.is_stream);
  EXPECT_EQ(c.name, "readings");
  ASSERT_EQ(c.fields.size(), 3u);
  EXPECT_EQ(c.fields[0].type, TypeId::kString);
  EXPECT_EQ(c.fields[2].name, "read_time");
  EXPECT_EQ(c.fields[2].type, TypeId::kTimestamp);  // "time" heuristic
}

TEST(ParserDdlTest, CreateTableTyped) {
  auto stmt = MustParse(
      "CREATE TABLE object_movement(tagid VARCHAR, location VARCHAR(64), "
      "start_time TIMESTAMP)");
  ASSERT_TRUE(stmt);
  ASSERT_EQ(stmt->kind, StatementKind::kCreateTable);
  const auto& c = static_cast<const CreateStmt&>(*stmt);
  EXPECT_FALSE(c.is_stream);
  ASSERT_EQ(c.fields.size(), 3u);
  EXPECT_EQ(c.fields[1].type, TypeId::kString);
  EXPECT_EQ(c.fields[2].type, TypeId::kTimestamp);
}

TEST(ParserDdlTest, PaperTableDeclaration) {
  auto stmt = MustParse("TABLE object_movement(tagid, location, start_time)");
  ASSERT_TRUE(stmt);
  EXPECT_EQ(stmt->kind, StatementKind::kCreateTable);
}

// ---------------------------------------------------------------------------
// Example 1: duplicate filtering with windowed NOT EXISTS
// ---------------------------------------------------------------------------

constexpr const char* kExample1 = R"sql(
INSERT INTO cleaned_readings
SELECT * FROM readings AS r1
WHERE NOT EXISTS
  (SELECT * FROM TABLE( readings OVER
      (RANGE 1 seconds PRECEDING CURRENT)) AS r2
   WHERE r2.reader_id = r1.reader_id
     AND r2.tag_id = r1.tag_id)
)sql";

TEST(ParserTest, Example1DuplicateFiltering) {
  auto stmt = MustParse(kExample1);
  ASSERT_TRUE(stmt);
  ASSERT_EQ(stmt->kind, StatementKind::kInsert);
  const auto& ins = static_cast<const InsertStmt&>(*stmt);
  EXPECT_EQ(ins.target, "cleaned_readings");
  const auto& sel = *ins.select;
  ASSERT_EQ(sel.items.size(), 1u);
  EXPECT_TRUE(sel.items[0].is_star);
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].name, "readings");
  EXPECT_EQ(sel.from[0].alias, "r1");
  ASSERT_TRUE(sel.where);
  ASSERT_EQ(sel.where->kind, ExprKind::kExists);
  const auto& ex = static_cast<const ExistsExpr&>(*sel.where);
  EXPECT_TRUE(ex.negated);
  const auto& sub = *ex.subquery;
  ASSERT_EQ(sub.from.size(), 1u);
  EXPECT_EQ(sub.from[0].name, "readings");
  EXPECT_EQ(sub.from[0].alias, "r2");
  ASSERT_TRUE(sub.from[0].window.has_value());
  EXPECT_FALSE(sub.from[0].window->row_based);
  EXPECT_EQ(sub.from[0].window->length, Seconds(1));
  EXPECT_EQ(sub.from[0].window->direction, WindowDirection::kPreceding);
  EXPECT_TRUE(sub.from[0].window->anchor.empty());  // CURRENT
}

// ---------------------------------------------------------------------------
// Example 2: location tracking (stream-to-table insert)
// ---------------------------------------------------------------------------

constexpr const char* kExample2 = R"sql(
INSERT INTO object_movement
SELECT tid, loc, tagtime
FROM tag_locations WHERE NOT EXISTS
  (SELECT tagid FROM object_movement
   WHERE tagid = tid AND location = loc)
)sql";

TEST(ParserTest, Example2LocationTracking) {
  auto stmt = MustParse(kExample2);
  ASSERT_TRUE(stmt);
  const auto& ins = static_cast<const InsertStmt&>(*stmt);
  EXPECT_EQ(ins.target, "object_movement");
  ASSERT_EQ(ins.select->items.size(), 3u);
  EXPECT_EQ(ins.select->items[0].expr->ToString(), "tid");
}

// ---------------------------------------------------------------------------
// Example 3: EPC code pattern aggregation
// ---------------------------------------------------------------------------

constexpr const char* kExample3 = R"sql(
SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
  AND extract_serial(tid) > 5000
  AND extract_serial(tid) < 9999
)sql";

TEST(ParserTest, Example3EpcAggregation) {
  auto stmt = MustParse(kExample3);
  ASSERT_TRUE(stmt);
  const auto& sel = SelectOf(stmt);
  ASSERT_EQ(sel.items.size(), 1u);
  ASSERT_EQ(sel.items[0].expr->kind, ExprKind::kFuncCall);
  const auto& f = static_cast<const FuncCallExpr&>(*sel.items[0].expr);
  EXPECT_EQ(f.name, "count");
  ASSERT_TRUE(sel.where);
  // ((tid LIKE ..) AND (..)) AND (..)
  EXPECT_EQ(sel.where->kind, ExprKind::kBinary);
}

// ---------------------------------------------------------------------------
// Example 6: SEQ over four streams
// ---------------------------------------------------------------------------

constexpr const char* kExample6 = R"sql(
SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
FROM C1, C2, C3, C4
WHERE SEQ(C1, C2, C3, C4)
  AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
  AND C1.tagid=C4.tagid
)sql";

const SeqExpr* FindSeq(const Expr& e) {
  if (e.kind == ExprKind::kSeq) return static_cast<const SeqExpr*>(&e);
  if (e.kind == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (const SeqExpr* s = FindSeq(*b.lhs)) return s;
    return FindSeq(*b.rhs);
  }
  if (e.kind == ExprKind::kUnary) {
    return FindSeq(*static_cast<const UnaryExpr&>(e).operand);
  }
  return nullptr;
}

TEST(ParserTest, Example6SeqOperator) {
  auto stmt = MustParse(kExample6);
  ASSERT_TRUE(stmt);
  const auto& sel = SelectOf(stmt);
  ASSERT_EQ(sel.from.size(), 4u);
  ASSERT_TRUE(sel.where);
  const SeqExpr* seq = FindSeq(*sel.where);
  ASSERT_TRUE(seq);
  EXPECT_EQ(seq->seq_kind, SeqKind::kSeq);
  ASSERT_EQ(seq->args.size(), 4u);
  EXPECT_EQ(seq->args[0].stream, "C1");
  EXPECT_FALSE(seq->args[0].star);
  EXPECT_FALSE(seq->window.has_value());
  EXPECT_EQ(seq->mode, PairingMode::kUnrestricted);
  EXPECT_FALSE(seq->mode_explicit);
}

TEST(ParserTest, SeqWithWindowAnchoredAtC4) {
  auto stmt = MustParse(R"sql(
SELECT C4.tagid FROM C1, C2, C3, C4
WHERE SEQ(C1, C2, C3, C4) OVER [30 MINUTES PRECEDING C4]
  AND C1.tagid=C4.tagid)sql");
  ASSERT_TRUE(stmt);
  const SeqExpr* seq = FindSeq(*SelectOf(stmt).where);
  ASSERT_TRUE(seq);
  ASSERT_TRUE(seq->window.has_value());
  EXPECT_EQ(seq->window->length, Minutes(30));
  EXPECT_EQ(seq->window->direction, WindowDirection::kPreceding);
  EXPECT_EQ(seq->window->anchor, "C4");
}

TEST(ParserTest, SeqWithModeClause) {
  auto stmt = MustParse(
      "SELECT x FROM A, B WHERE SEQ(A, B) MODE CONSECUTIVE");
  const SeqExpr* seq = FindSeq(*SelectOf(stmt).where);
  ASSERT_TRUE(seq);
  EXPECT_TRUE(seq->mode_explicit);
  EXPECT_EQ(seq->mode, PairingMode::kConsecutive);
}

TEST(ParserTest, SeqWithWindowAndMode) {
  auto stmt = MustParse(
      "SELECT x FROM A, B WHERE "
      "SEQ(A, B) OVER [10 SECONDS PRECEDING B] MODE RECENT");
  const SeqExpr* seq = FindSeq(*SelectOf(stmt).where);
  ASSERT_TRUE(seq);
  EXPECT_EQ(seq->mode, PairingMode::kRecent);
  EXPECT_TRUE(seq->window.has_value());
}

// ---------------------------------------------------------------------------
// Example 7: star sequence with aggregates and `previous`
// ---------------------------------------------------------------------------

constexpr const char* kExample7 = R"sql(
SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
FROM R1, R2
WHERE SEQ(R1*, R2) MODE CHRONICLE
  AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
  AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
)sql";

TEST(ParserTest, Example7StarSequence) {
  auto stmt = MustParse(kExample7);
  ASSERT_TRUE(stmt);
  const auto& sel = SelectOf(stmt);
  ASSERT_EQ(sel.items.size(), 4u);
  ASSERT_EQ(sel.items[0].expr->kind, ExprKind::kStarAgg);
  const auto& first = static_cast<const StarAggExpr&>(*sel.items[0].expr);
  EXPECT_EQ(first.fn, StarAggFn::kFirst);
  EXPECT_EQ(first.stream, "R1");
  EXPECT_EQ(first.column, "tagtime");
  ASSERT_EQ(sel.items[1].expr->kind, ExprKind::kStarAgg);
  const auto& count = static_cast<const StarAggExpr&>(*sel.items[1].expr);
  EXPECT_EQ(count.fn, StarAggFn::kCount);
  EXPECT_TRUE(count.column.empty());

  const SeqExpr* seq = FindSeq(*sel.where);
  ASSERT_TRUE(seq);
  ASSERT_EQ(seq->args.size(), 2u);
  EXPECT_TRUE(seq->args[0].star);
  EXPECT_FALSE(seq->args[1].star);
  EXPECT_EQ(seq->mode, PairingMode::kChronicle);
}

TEST(ParserTest, PreviousReference) {
  auto e = ParseExpression("R1.tagtime - R1.previous.tagtime <= 1 SECONDS");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->ToString(),
            "((R1.tagtime - R1.previous.tagtime) <= 1000000)");
}

TEST(ParserTest, PaperUnicodeLeInExample7) {
  // The paper's listing literally uses U+2264.
  auto e = ParseExpression("R2.tagtime - LAST(R1*).tagtime ≤ 5 SECONDS");
  ASSERT_TRUE(e.ok()) << e.status();
}

// ---------------------------------------------------------------------------
// §3.1.3: EXCEPTION_SEQ / CLEVEL_SEQ with FOLLOWING windows
// ---------------------------------------------------------------------------

constexpr const char* kExceptionSeq = R"sql(
SELECT A1.tagid, A2.tagid, A3.tagid
FROM A1, A2, A3
WHERE EXCEPTION_SEQ(A1, A2, A3)
OVER [1 HOURS FOLLOWING A1]
)sql";

TEST(ParserTest, ExceptionSeqWithFollowingWindow) {
  auto stmt = MustParse(kExceptionSeq);
  ASSERT_TRUE(stmt);
  const SeqExpr* seq = FindSeq(*SelectOf(stmt).where);
  ASSERT_TRUE(seq);
  EXPECT_EQ(seq->seq_kind, SeqKind::kExceptionSeq);
  ASSERT_TRUE(seq->window.has_value());
  EXPECT_EQ(seq->window->length, Hours(1));
  EXPECT_EQ(seq->window->direction, WindowDirection::kFollowing);
  EXPECT_EQ(seq->window->anchor, "A1");
}

constexpr const char* kClevelSeq = R"sql(
SELECT A1.tagid, A2.tagid, A3.tagid
FROM A1, A2, A3
WHERE (CLEVEL_SEQ(A1, A2, A3)
OVER [1 HOURS FOLLOWING A1]) < 3
)sql";

TEST(ParserTest, ClevelSeqComparison) {
  auto stmt = MustParse(kClevelSeq);
  ASSERT_TRUE(stmt);
  const auto& sel = SelectOf(stmt);
  ASSERT_EQ(sel.where->kind, ExprKind::kBinary);
  const auto& cmp = static_cast<const BinaryExpr&>(*sel.where);
  EXPECT_EQ(cmp.op, BinaryOp::kLt);
  ASSERT_EQ(cmp.lhs->kind, ExprKind::kSeq);
  const auto& seq = static_cast<const SeqExpr&>(*cmp.lhs);
  EXPECT_EQ(seq.seq_kind, SeqKind::kClevelSeq);
}

TEST(ParserTest, FollowingWindowAnchoredMidSequence) {
  auto stmt = MustParse(
      "SELECT x FROM A1, A2, A3 WHERE "
      "EXCEPTION_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A2]");
  const SeqExpr* seq = FindSeq(*SelectOf(stmt).where);
  ASSERT_TRUE(seq);
  EXPECT_EQ(seq->window->anchor, "A2");
}

// ---------------------------------------------------------------------------
// Example 8: PRECEDING AND FOLLOWING window across subquery boundary
// ---------------------------------------------------------------------------

constexpr const char* kExample8 = R"sql(
SELECT person.tagid
FROM tag_readings AS person
WHERE person.tagtype = 'person' AND NOT EXISTS
  (SELECT * FROM tag_readings AS item
     OVER [1 MINUTES PRECEDING AND FOLLOWING person]
   WHERE item.tagtype = 'item')
)sql";

TEST(ParserTest, Example8PrecedingAndFollowing) {
  auto stmt = MustParse(kExample8);
  ASSERT_TRUE(stmt);
  const auto& sel = SelectOf(stmt);
  ASSERT_TRUE(sel.where);
  const auto& conj = static_cast<const BinaryExpr&>(*sel.where);
  ASSERT_EQ(conj.rhs->kind, ExprKind::kExists);
  const auto& ex = static_cast<const ExistsExpr&>(*conj.rhs);
  EXPECT_TRUE(ex.negated);
  const auto& sub = *ex.subquery;
  ASSERT_EQ(sub.from.size(), 1u);
  ASSERT_TRUE(sub.from[0].window.has_value());
  EXPECT_EQ(sub.from[0].window->direction,
            WindowDirection::kPrecedingAndFollowing);
  EXPECT_EQ(sub.from[0].window->length, Minutes(1));
  EXPECT_EQ(sub.from[0].window->anchor, "person");
}

// ---------------------------------------------------------------------------
// Expressions, misc
// ---------------------------------------------------------------------------

TEST(ParserExprTest, Precedence) {
  auto e = ParseExpression("1 + 2 * 3 = 7 AND NOT 0 > 1 OR x < 2");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->ToString(),
            "((((1 + (2 * 3)) = 7) AND NOT ((0 > 1))) OR (x < 2))");
}

TEST(ParserExprTest, BetweenLowersToConjunction) {
  auto e = ParseExpression("extract_serial(tid) BETWEEN 5000 AND 9999");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->ToString(),
            "((extract_serial(tid) >= 5000) AND (extract_serial(tid) <= "
            "9999))");
}

TEST(ParserExprTest, NotBetween) {
  auto e = ParseExpression("x NOT BETWEEN 1 AND 2");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "NOT (((x >= 1) AND (x <= 2)))");
}

TEST(ParserExprTest, InListLowersToDisjunction) {
  auto e = ParseExpression("loc IN ('dock', 'gate')");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "((loc = dock) OR (loc = gate))");
}

TEST(ParserExprTest, NotLike) {
  auto e = ParseExpression("tid NOT LIKE '20.%'");
  ASSERT_TRUE(e.ok());
  const auto& b = static_cast<const BinaryExpr&>(**e);
  EXPECT_EQ(b.op, BinaryOp::kNotLike);
}

TEST(ParserExprTest, CountStar) {
  auto e = ParseExpression("count(*)");
  ASSERT_TRUE(e.ok());
  const auto& f = static_cast<const FuncCallExpr&>(**e);
  EXPECT_TRUE(f.star_arg);
  EXPECT_TRUE(f.args.empty());
}

TEST(ParserExprTest, IntervalLiterals) {
  auto e = ParseExpression("5 SECONDS");
  ASSERT_TRUE(e.ok());
  const auto& lit = static_cast<const LiteralExpr&>(**e);
  EXPECT_EQ(lit.value.int_value(), Seconds(5));
}

TEST(ParserExprTest, BooleanAndNullLiterals) {
  EXPECT_EQ((*ParseExpression("TRUE"))->ToString(), "TRUE");
  EXPECT_EQ((*ParseExpression("false"))->ToString(), "FALSE");
  EXPECT_EQ((*ParseExpression("NULL"))->ToString(), "NULL");
}

TEST(ParserExprTest, UnaryMinus) {
  auto e = ParseExpression("-x + 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(-(x) + 3)");
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = MustParse(
      "SELECT loc, count(tid) FROM tag_locations "
      "GROUP BY loc HAVING count(tid) > 10");
  ASSERT_TRUE(stmt);
  const auto& sel = SelectOf(stmt);
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_TRUE(sel.having);
}

TEST(ParserTest, SelectItemAliases) {
  auto stmt = MustParse("SELECT tid AS tag, loc location FROM s");
  const auto& sel = SelectOf(stmt);
  EXPECT_EQ(sel.items[0].alias, "tag");
  EXPECT_EQ(sel.items[1].alias, "location");
}

TEST(ParserTest, ScriptWithMultipleStatements) {
  auto script = ParseScript(
      "STREAM a(x, y); STREAM b(z); SELECT x FROM a;");
  ASSERT_TRUE(script.ok()) << script.status();
  EXPECT_EQ(script->size(), 3u);
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

TEST(ParserErrorTest, Malformed) {
  EXPECT_TRUE(ParseStatement("SELECT").status().IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT FROM x").status().IsParseError());
  EXPECT_TRUE(ParseStatement("INSERT cleaned SELECT * FROM r")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT * FROM a WHERE SEQ(a)")
                  .status()
                  .IsParseError());  // SEQ needs >= 2 args
  EXPECT_TRUE(ParseStatement("SELECT * FROM a OVER [x PRECEDING]")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      ParseStatement("SELECT * FROM a WHERE SEQ(a, b) MODE bogus")
          .status()
          .IsParseError());
  EXPECT_TRUE(ParseStatement("CREATE VIEW v AS SELECT 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT FIRST(R1*) FROM r1, r2")
                  .status()
                  .IsParseError());  // FIRST(S*) needs .column
}

TEST(ParserErrorTest, TrailingGarbage) {
  EXPECT_TRUE(
      ParseStatement("SELECT x FROM a extra garbage here 42")
          .status()
          .IsParseError());
}

TEST(ParserErrorTest, WindowMissingDirection) {
  EXPECT_TRUE(ParseStatement(
                  "SELECT * FROM a WHERE SEQ(a,b) OVER [5 SECONDS]")
                  .status()
                  .IsParseError());
}

// ---------------------------------------------------------------------------
// Source positions
// ---------------------------------------------------------------------------

TEST(ParserErrorTest, ErrorPointsAtOffendingToken) {
  const Status status =
      ParseStatement("SELECT * FROM r1 WHERE r1.a = ;").status();
  ASSERT_TRUE(status.IsParseError());
  EXPECT_NE(status.message().find("line 1, column 31"), std::string::npos)
      << status;
}

TEST(ParserErrorTest, ErrorTracksLinesAcrossNewlines) {
  const Status status =
      ParseStatement("SELECT *\nFROM r1\nWHERE = 5").status();
  ASSERT_TRUE(status.IsParseError());
  EXPECT_NE(status.message().find("line 3, column 7"), std::string::npos)
      << status;
}

TEST(ParserSpanTest, StatementSpanCoversFullText) {
  const std::string sql = "SELECT x FROM a WHERE a.x = 1";
  auto stmt = MustParse(sql + ";");
  ASSERT_TRUE(stmt);
  EXPECT_EQ(stmt->span.line, 1);
  EXPECT_EQ(stmt->span.column, 1);
  EXPECT_EQ(stmt->span.offset, 0u);
  EXPECT_EQ(stmt->span.length, sql.size());  // excludes the ';'
}

TEST(ParserSpanTest, WhereExprSpanCoversComparison) {
  auto stmt = MustParse("SELECT x FROM a WHERE a.x = 10;");
  ASSERT_TRUE(stmt);
  const SelectStmt& select = SelectOf(stmt);
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->span.line, 1);
  EXPECT_EQ(select.where->span.column, 23);  // a.x = 10
  EXPECT_EQ(select.where->span.length, 8u);
}

TEST(ParserSpanTest, SeqArgAndWindowSpans) {
  auto stmt = MustParse(
      "SELECT x FROM a, b WHERE SEQ(a*, !b) OVER [5 SECONDS PRECEDING a];");
  ASSERT_TRUE(stmt);
  const SelectStmt& select = SelectOf(stmt);
  ASSERT_NE(select.where, nullptr);
  ASSERT_EQ(select.where->kind, ExprKind::kSeq);
  const auto& seq = static_cast<const SeqExpr&>(*select.where);
  EXPECT_EQ(seq.span.column, 26);
  ASSERT_EQ(seq.args.size(), 2u);
  EXPECT_EQ(seq.args[0].span.column, 30);  // a*
  EXPECT_EQ(seq.args[0].span.length, 2u);
  EXPECT_EQ(seq.args[1].span.column, 34);  // !b
  EXPECT_EQ(seq.args[1].span.length, 2u);
  ASSERT_TRUE(seq.window.has_value());
  EXPECT_EQ(seq.window->span.column, 38);  // OVER [... a]
  EXPECT_EQ(seq.window->span.length, 28u);
}

TEST(ParserSpanTest, BetweenLoweringKeepsConstructSpan) {
  // BETWEEN splits into two conjuncts (and clones its lhs); both halves
  // must keep the full construct's span so later diagnostics point at
  // the source text the user wrote.
  auto stmt = MustParse("SELECT x FROM a WHERE a.x BETWEEN 1 AND 5;");
  ASSERT_TRUE(stmt);
  const SelectStmt& select = SelectOf(stmt);
  ASSERT_NE(select.where, nullptr);
  ASSERT_EQ(select.where->kind, ExprKind::kBinary);
  const auto& conj = static_cast<const BinaryExpr&>(*select.where);
  EXPECT_EQ(conj.span.column, 23);  // a.x BETWEEN 1 AND 5
  EXPECT_EQ(conj.span.length, 19u);
  EXPECT_EQ(conj.lhs->span.column, 23);
  EXPECT_EQ(conj.lhs->span.length, 19u);
  EXPECT_EQ(conj.rhs->span.column, 23);
  EXPECT_EQ(conj.rhs->span.length, 19u);
}

TEST(ParserTest, DeepNestingIsRejectedNotAStackOverflow) {
  constexpr int kDepth = 20000;
  const std::string nested =
      std::string(kDepth, '(') + "1" + std::string(kDepth, ')');
  auto deep = ParseStatement("SELECT * FROM s WHERE a = " + nested);
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.status().IsInvalid()) << deep.status();
  std::string signs;
  std::string nots;
  for (int i = 0; i < kDepth; ++i) {
    signs += "- ";  // spaced: "--" would open a comment
    nots += "NOT ";
  }
  EXPECT_TRUE(ParseExpression(signs + "1").status().IsInvalid());
  EXPECT_TRUE(ParseExpression(nots + "b = 2").status().IsInvalid());
  // Ordinary nesting stays well inside the budget.
  EXPECT_TRUE(ParseExpression("((((((((a + 1))))))))").ok());
}

}  // namespace
}  // namespace eslev
