#include "sql/parser.h"

#include <utility>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace eslev {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<StatementPtr>> ParseScript() {
    std::vector<StatementPtr> out;
    while (!AtEnd()) {
      if (Match(TokenType::kSemicolon)) continue;
      ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseOneStatement());
      out.push_back(std::move(stmt));
    }
    return out;
  }

  Result<StatementPtr> ParseSingle() {
    ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseOneStatement());
    Match(TokenType::kSemicolon);
    if (!AtEnd()) {
      return Error("unexpected trailing input " + Peek().Describe());
    }
    return stmt;
  }

  Result<ExprPtr> ParseSingleExpression() {
    ESLEV_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEnd()) {
      return Error("unexpected trailing input " + Peek().Describe());
    }
    return e;
  }

 private:
  // ---- token helpers -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  bool Check(TokenType t) const { return Peek().type == t; }

  bool Match(TokenType t) {
    if (!Check(t)) return false;
    Advance();
    return true;
  }

  Status Expect(TokenType t, const std::string& context) {
    if (Match(t)) return Status::OK();
    return Error(std::string("expected ") + TokenTypeToString(t) + " in " +
                 context + ", found " + Peek().Describe());
  }

  bool CheckKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier &&
           AsciiEqualsIgnoreCase(t.text, kw);
  }

  bool MatchKeyword(const char* kw) {
    if (!CheckKeyword(kw)) return false;
    Advance();
    return true;
  }

  Status ExpectKeyword(const char* kw, const std::string& context) {
    if (MatchKeyword(kw)) return Status::OK();
    return Error(std::string("expected keyword ") + kw + " in " + context +
                 ", found " + Peek().Describe());
  }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    return Status::ParseError(msg + " (line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) + ")");
  }

  Result<std::string> ExpectIdentifier(const std::string& context) {
    if (!Check(TokenType::kIdentifier)) {
      return Error("expected identifier in " + context + ", found " +
                   Peek().Describe());
    }
    return Advance().text;
  }

  /// \brief Source span covering every token consumed since the caller
  /// recorded `start_idx` (i.e. tokens [start_idx, pos_)).
  SourceSpan SpanFrom(size_t start_idx) const {
    const size_t max_idx = tokens_.size() - 1;
    const Token& first = tokens_[start_idx < max_idx ? start_idx : max_idx];
    const size_t last_idx = pos_ > start_idx ? pos_ - 1 : start_idx;
    const Token& last = tokens_[last_idx < max_idx ? last_idx : max_idx];
    SourceSpan span = first.span();
    span.length = last.offset + last.length - first.offset;
    return span;
  }

  // True for keywords that terminate an alias-less table/column position.
  bool CheckReservedClauseKeyword() const {
    static const char* kClauseKeywords[] = {
        "FROM", "WHERE",  "GROUP",   "HAVING", "OVER",  "MODE",
        "AND",  "OR",     "ON",      "ORDER",  "AS",    "NOT",
        "LIKE", "EXISTS", "BETWEEN", "IN",     "LIMIT", "ASC",
        "DESC",
    };
    for (const char* kw : kClauseKeywords) {
      if (CheckKeyword(kw)) return true;
    }
    return false;
  }

  // ---- statements ---------------------------------------------------------

  Result<StatementPtr> ParseOneStatement() {
    const size_t start = pos_;
    ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseOneStatementImpl());
    stmt->span = SpanFrom(start);
    return stmt;
  }

  Result<StatementPtr> ParseOneStatementImpl() {
    if (CheckKeyword("CREATE")) {
      Advance();
      if (CheckKeyword("STREAM") || CheckKeyword("TABLE")) {
        return ParseCreate();
      }
      if (CheckKeyword("AGGREGATE")) {
        return ParseCreateAggregate();
      }
      return Error("expected STREAM, TABLE or AGGREGATE after CREATE");
    }
    if (CheckKeyword("STREAM") || CheckKeyword("TABLE")) {
      // Bare `STREAM name(...)` / `TABLE name(...)` as in the paper — but
      // only when it looks like a DDL (identifier then '(').
      if (Peek(1).type == TokenType::kIdentifier &&
          Peek(2).type == TokenType::kLParen) {
        return ParseCreate();
      }
    }
    if (CheckKeyword("INSERT")) return ParseInsert();
    if (CheckKeyword("SELECT")) {
      ESLEV_ASSIGN_OR_RETURN(auto select, ParseSelect());
      return StatementPtr(new SelectStatement(std::move(select)));
    }
    if (MatchKeyword("EXPLAIN")) {
      ExplainMode mode = ExplainMode::kPlan;
      if (MatchKeyword("ANALYZE")) {
        mode = ExplainMode::kAnalyze;
      } else if (MatchKeyword("LINT")) {
        mode = ExplainMode::kLint;
      } else if (MatchKeyword("COST")) {
        mode = ExplainMode::kCost;
      }
      ESLEV_ASSIGN_OR_RETURN(StatementPtr inner, ParseOneStatement());
      if (inner->kind != StatementKind::kSelect &&
          inner->kind != StatementKind::kInsert) {
        return Error("EXPLAIN applies to SELECT / INSERT statements");
      }
      return StatementPtr(new ExplainStmt(mode, std::move(inner)));
    }
    return Error(
        "expected CREATE, STREAM, TABLE, INSERT, SELECT or EXPLAIN, found " +
        Peek().Describe());
  }

  Result<StatementPtr> ParseCreate() {
    const bool is_stream = MatchKeyword("STREAM");
    if (!is_stream) {
      ESLEV_RETURN_NOT_OK(ExpectKeyword("TABLE", "CREATE statement"));
    }
    ESLEV_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("CREATE"));
    ESLEV_RETURN_NOT_OK(Expect(TokenType::kLParen, "CREATE column list"));
    std::vector<Field> fields;
    while (true) {
      ESLEV_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
      Field f;
      f.name = col;
      if (Check(TokenType::kIdentifier)) {
        // Explicit type name.
        ESLEV_ASSIGN_OR_RETURN(f.type, ParseTypeName(Advance().text));
        // Optional length such as VARCHAR(64) — parsed and ignored.
        if (Match(TokenType::kLParen)) {
          if (!Match(TokenType::kInteger)) {
            return Error("expected length in type");
          }
          ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "type length"));
        }
      } else {
        // Untyped, as in the paper's listings: columns containing "time"
        // default to TIMESTAMP, everything else to VARCHAR.
        const std::string lower = AsciiToLower(col);
        f.type = lower.find("time") != std::string::npos ? TypeId::kTimestamp
                                                         : TypeId::kString;
      }
      fields.push_back(std::move(f));
      if (Match(TokenType::kComma)) continue;
      break;
    }
    ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "CREATE column list"));
    return StatementPtr(new CreateStmt(is_stream, name, std::move(fields)));
  }

  // CREATE AGGREGATE name AS INITIALIZE e ITERATE e [TERMINATE e]
  Result<StatementPtr> ParseCreateAggregate() {
    ESLEV_RETURN_NOT_OK(ExpectKeyword("AGGREGATE", "CREATE AGGREGATE"));
    ESLEV_ASSIGN_OR_RETURN(std::string name,
                           ExpectIdentifier("CREATE AGGREGATE"));
    ESLEV_RETURN_NOT_OK(ExpectKeyword("AS", "CREATE AGGREGATE"));
    ESLEV_RETURN_NOT_OK(ExpectKeyword("INITIALIZE", "CREATE AGGREGATE"));
    ESLEV_ASSIGN_OR_RETURN(ExprPtr init, ParseUdaExpr("ITERATE"));
    ESLEV_RETURN_NOT_OK(ExpectKeyword("ITERATE", "CREATE AGGREGATE"));
    ESLEV_ASSIGN_OR_RETURN(ExprPtr iter, ParseUdaExpr("TERMINATE"));
    ExprPtr term;
    if (MatchKeyword("TERMINATE")) {
      ESLEV_ASSIGN_OR_RETURN(term, ParseExpr());
    }
    TypeId return_type = TypeId::kNull;  // same as the argument
    if (MatchKeyword("RETURNS")) {
      ESLEV_ASSIGN_OR_RETURN(std::string type_name,
                             ExpectIdentifier("RETURNS clause"));
      ESLEV_ASSIGN_OR_RETURN(return_type, ParseTypeName(type_name));
    }
    return StatementPtr(new CreateAggregateStmt(
        std::move(name), std::move(init), std::move(iter), std::move(term),
        return_type));
  }

  // UDA body expressions end at the next section keyword; ParseExpr
  // naturally stops there because section keywords are not operators.
  Result<ExprPtr> ParseUdaExpr(const char* next_section) {
    (void)next_section;
    return ParseExpr();
  }

  Result<StatementPtr> ParseInsert() {
    ESLEV_RETURN_NOT_OK(ExpectKeyword("INSERT", "INSERT statement"));
    ESLEV_RETURN_NOT_OK(ExpectKeyword("INTO", "INSERT statement"));
    ESLEV_ASSIGN_OR_RETURN(std::string target, ExpectIdentifier("INSERT"));
    ESLEV_ASSIGN_OR_RETURN(auto select, ParseSelect());
    return StatementPtr(new InsertStmt(target, std::move(select)));
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    ESLEV_RETURN_NOT_OK(ExpectKeyword("SELECT", "query"));
    auto stmt = std::make_unique<SelectStmt>();

    // Select list.
    while (true) {
      SelectItem item;
      if (Check(TokenType::kStar)) {
        Advance();
        item.is_star = true;
      } else {
        ESLEV_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("AS")) {
          ESLEV_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        } else if (Check(TokenType::kIdentifier) &&
                   !CheckReservedClauseKeyword()) {
          item.alias = Advance().text;
        }
      }
      stmt->items.push_back(std::move(item));
      if (Match(TokenType::kComma)) continue;
      break;
    }

    // FROM clause.
    ESLEV_RETURN_NOT_OK(ExpectKeyword("FROM", "query"));
    while (true) {
      ESLEV_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      stmt->from.push_back(std::move(ref));
      if (Match(TokenType::kComma)) continue;
      break;
    }

    if (MatchKeyword("WHERE")) {
      ESLEV_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (MatchKeyword("GROUP")) {
      ESLEV_RETURN_NOT_OK(ExpectKeyword("BY", "GROUP BY"));
      while (true) {
        ESLEV_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (Match(TokenType::kComma)) continue;
        break;
      }
    }
    if (MatchKeyword("HAVING")) {
      ESLEV_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (MatchKeyword("ORDER")) {
      ESLEV_RETURN_NOT_OK(ExpectKeyword("BY", "ORDER BY"));
      while (true) {
        OrderKey key;
        ESLEV_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          key.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(key));
        if (Match(TokenType::kComma)) continue;
        break;
      }
    }
    if (MatchKeyword("LIMIT")) {
      if (!Check(TokenType::kInteger)) {
        return Error("expected integer after LIMIT");
      }
      stmt->limit = Advance().int_value;
    }
    return stmt;
  }

  // `TABLE( stream OVER ( window ) ) [AS] alias`, or
  // `name [AS alias] [OVER [window]]`.
  Result<TableRef> ParseTableRef() {
    const size_t start = pos_;
    TableRef ref;
    if (CheckKeyword("TABLE") && Peek(1).type == TokenType::kLParen) {
      Advance();  // TABLE
      Advance();  // (
      ESLEV_ASSIGN_OR_RETURN(ref.name, ExpectIdentifier("TABLE()"));
      if (CheckKeyword("OVER")) {
        const size_t window_start = pos_;
        Advance();  // OVER
        ESLEV_RETURN_NOT_OK(Expect(TokenType::kLParen, "OVER window"));
        ESLEV_ASSIGN_OR_RETURN(
            ref.window, ParseWindowBody(TokenType::kRParen, "window"));
        ref.window->span = SpanFrom(window_start);
      }
      ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "TABLE()"));
    } else {
      ESLEV_ASSIGN_OR_RETURN(ref.name, ExpectIdentifier("FROM clause"));
    }

    if (MatchKeyword("AS")) {
      ESLEV_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
    } else if (Check(TokenType::kIdentifier) && !CheckReservedClauseKeyword()) {
      ref.alias = Advance().text;
    } else {
      ref.alias = ref.name;
    }

    // Trailing window on the reference itself (Example 8):
    // `tag_readings AS item OVER [1 MINUTES PRECEDING AND FOLLOWING person]`
    if (CheckKeyword("OVER")) {
      const size_t window_start = pos_;
      Advance();  // OVER
      TokenType close;
      if (Match(TokenType::kLBracket)) {
        close = TokenType::kRBracket;
      } else if (Match(TokenType::kLParen)) {
        close = TokenType::kRParen;
      } else {
        return Error("expected '[' or '(' after OVER");
      }
      ESLEV_ASSIGN_OR_RETURN(ref.window, ParseWindowBody(close, "window"));
      ref.window->span = SpanFrom(window_start);
    }
    ref.span = SpanFrom(start);
    return ref;
  }

  // Parses the inside of a window spec up to (and including) `close`:
  //   [RANGE|ROWS] <n> [unit] PRECEDING [AND FOLLOWING] [anchor]
  //   [RANGE|ROWS] <n> [unit] FOLLOWING [anchor]
  // Anchor `CURRENT` (or none) means the current tuple.
  Result<WindowSpec> ParseWindowBody(TokenType close,
                                     const std::string& context) {
    WindowSpec spec;
    bool explicit_rows = false;
    if (MatchKeyword("ROWS")) {
      explicit_rows = true;
      spec.row_based = true;
    } else {
      MatchKeyword("RANGE");  // optional
    }

    if (!Check(TokenType::kInteger)) {
      return Error("expected window length in " + context);
    }
    const int64_t n = Advance().int_value;

    if (!explicit_rows && Check(TokenType::kIdentifier) &&
        !CheckKeyword("PRECEDING") && !CheckKeyword("FOLLOWING")) {
      ESLEV_ASSIGN_OR_RETURN(Duration unit, ParseTimeUnit(Peek().text));
      Advance();
      spec.row_based = false;
      spec.length = n * unit;
    } else if (explicit_rows) {
      spec.length = n;
    } else {
      // No unit: row-based count (e.g. `ROWS` omitted but unitless).
      spec.row_based = true;
      spec.length = n;
    }

    if (MatchKeyword("PRECEDING")) {
      spec.direction = WindowDirection::kPreceding;
      if (MatchKeyword("AND")) {
        ESLEV_RETURN_NOT_OK(ExpectKeyword("FOLLOWING", context));
        spec.direction = WindowDirection::kPrecedingAndFollowing;
      }
    } else if (MatchKeyword("FOLLOWING")) {
      spec.direction = WindowDirection::kFollowing;
      if (MatchKeyword("AND")) {
        ESLEV_RETURN_NOT_OK(ExpectKeyword("PRECEDING", context));
        spec.direction = WindowDirection::kPrecedingAndFollowing;
      }
    } else {
      return Error("expected PRECEDING or FOLLOWING in " + context);
    }

    if (Check(TokenType::kIdentifier)) {
      const std::string anchor = Advance().text;
      if (!AsciiEqualsIgnoreCase(anchor, "CURRENT")) {
        spec.anchor = anchor;
      }
    }
    ESLEV_RETURN_NOT_OK(Expect(close, context));
    return spec;
  }

  // ---- expressions --------------------------------------------------------

  // Recursion budget. Parentheses, NOT and unary signs each recurse
  // through the expression grammar, so without a bound hostile input
  // (say 20 000 nested parentheses) overflows the stack.
  static constexpr int kMaxExprDepth = 256;

  // Holds one level of the budget for the lifetime of a recursive call.
  class DepthScope {
   public:
    explicit DepthScope(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthScope() { --*depth_; }
    bool exceeded() const { return *depth_ > kMaxExprDepth; }

   private:
    int* depth_;
  };

  Status DepthError() const {
    const Token& t = Peek();
    return Status::Invalid("expression nesting exceeds " +
                           std::to_string(kMaxExprDepth) + " levels (line " +
                           std::to_string(t.line) + ", column " +
                           std::to_string(t.column) + ")");
  }

  Result<ExprPtr> ParseExpr() {
    DepthScope scope(&expr_depth_);
    if (scope.exceeded()) return DepthError();
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    const size_t start = pos_;
    ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (MatchKeyword("OR")) {
      ESLEV_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(lhs),
                                         std::move(rhs));
      lhs->span = SpanFrom(start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    const size_t start = pos_;
    ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (MatchKeyword("AND")) {
      ESLEV_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(lhs),
                                         std::move(rhs));
      lhs->span = SpanFrom(start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    const size_t start = pos_;
    if (CheckKeyword("NOT")) {
      if (CheckKeyword("EXISTS", 1)) {
        Advance();  // NOT
        Advance();  // EXISTS
        return ParseExistsBody(/*negated=*/true, start);
      }
      Advance();
      DepthScope scope(&expr_depth_);
      if (scope.exceeded()) return DepthError();
      ESLEV_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      ExprPtr out(new UnaryExpr(UnaryOp::kNot, std::move(e)));
      out->span = SpanFrom(start);
      return out;
    }
    if (MatchKeyword("EXISTS")) return ParseExistsBody(/*negated=*/false, start);
    return ParseComparison();
  }

  Result<ExprPtr> ParseExistsBody(bool negated, size_t start) {
    ESLEV_RETURN_NOT_OK(Expect(TokenType::kLParen, "EXISTS"));
    ESLEV_ASSIGN_OR_RETURN(auto sub, ParseSelect());
    ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "EXISTS"));
    ExprPtr out(new ExistsExpr(negated, std::move(sub)));
    out->span = SpanFrom(start);
    return out;
  }

  Result<ExprPtr> ParseComparison() {
    const size_t start = pos_;
    ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

    // BETWEEN a AND b  /  NOT BETWEEN a AND b
    bool negate = false;
    size_t save = pos_;
    if (MatchKeyword("NOT")) {
      if (CheckKeyword("BETWEEN") || CheckKeyword("LIKE") ||
          CheckKeyword("IN")) {
        negate = true;
      } else {
        pos_ = save;  // plain NOT belongs to a higher level
        return lhs;
      }
    }
    if (MatchKeyword("BETWEEN")) {
      ESLEV_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      ESLEV_RETURN_NOT_OK(ExpectKeyword("AND", "BETWEEN"));
      ESLEV_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      // BETWEEN lowers to two comparisons sharing the left expression, so
      // the left side is cloned via its AST.
      ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs2, CloneExpr(*lhs));
      ExprPtr ge(new BinaryExpr(BinaryOp::kGe, std::move(lhs), std::move(lo)));
      ExprPtr le(new BinaryExpr(BinaryOp::kLe, std::move(lhs2), std::move(hi)));
      // BETWEEN splits into two conjuncts downstream, so each half gets
      // the full construct's span.
      ge->span = SpanFrom(start);
      le->span = ge->span;
      ExprPtr both(
          new BinaryExpr(BinaryOp::kAnd, std::move(ge), std::move(le)));
      both->span = SpanFrom(start);
      if (negate) {
        ExprPtr out(new UnaryExpr(UnaryOp::kNot, std::move(both)));
        out->span = SpanFrom(start);
        return out;
      }
      return both;
    }
    if (MatchKeyword("LIKE")) {
      ESLEV_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      ExprPtr out(new BinaryExpr(
          negate ? BinaryOp::kNotLike : BinaryOp::kLike, std::move(lhs),
          std::move(rhs)));
      out->span = SpanFrom(start);
      return out;
    }
    if (MatchKeyword("IN")) {
      ESLEV_RETURN_NOT_OK(Expect(TokenType::kLParen, "IN list"));
      ExprPtr disjunction;
      while (true) {
        ESLEV_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
        ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs_clone, CloneExpr(*lhs));
        ExprPtr eq(new BinaryExpr(BinaryOp::kEq, std::move(lhs_clone),
                                  std::move(item)));
        eq->span = SpanFrom(start);
        if (disjunction) {
          disjunction = ExprPtr(new BinaryExpr(
              BinaryOp::kOr, std::move(disjunction), std::move(eq)));
        } else {
          disjunction = std::move(eq);
        }
        if (Match(TokenType::kComma)) continue;
        break;
      }
      ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "IN list"));
      disjunction->span = SpanFrom(start);
      if (negate) {
        ExprPtr out(new UnaryExpr(UnaryOp::kNot, std::move(disjunction)));
        out->span = SpanFrom(start);
        return out;
      }
      return disjunction;
    }
    if (negate) {
      return Error("expected BETWEEN, LIKE or IN after NOT");
    }

    BinaryOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenType::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenType::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenType::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenType::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenType::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    ESLEV_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    ExprPtr out(new BinaryExpr(op, std::move(lhs), std::move(rhs)));
    out->span = SpanFrom(start);
    return out;
  }

  Result<ExprPtr> ParseAdditive() {
    const size_t start = pos_;
    ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Match(TokenType::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Match(TokenType::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      ESLEV_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
      lhs->span = SpanFrom(start);
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    const size_t start = pos_;
    ESLEV_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Match(TokenType::kStar)) {
        op = BinaryOp::kMul;
      } else if (Match(TokenType::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Match(TokenType::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      ESLEV_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
      lhs->span = SpanFrom(start);
    }
  }

  Result<ExprPtr> ParseUnary() {
    const size_t start = pos_;
    if (!Check(TokenType::kMinus) && !Check(TokenType::kPlus)) {
      return ParsePrimary();
    }
    DepthScope scope(&expr_depth_);
    if (scope.exceeded()) return DepthError();
    if (Match(TokenType::kPlus)) return ParseUnary();
    Advance();  // '-'
    ESLEV_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
    ExprPtr out(new UnaryExpr(UnaryOp::kNeg, std::move(e)));
    out->span = SpanFrom(start);
    return out;
  }

  Result<ExprPtr> ParsePrimary() {
    const size_t start = pos_;
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger: {
        Advance();
        // Interval literal: `5 SECONDS`, `1 HOURS` (duration in micros).
        if (Check(TokenType::kIdentifier)) {
          auto unit = ParseTimeUnit(Peek().text);
          if (unit.ok()) {
            Advance();
            ExprPtr out(
                new LiteralExpr(Value::Int(tok.int_value * (*unit))));
            out->span = SpanFrom(start);
            return out;
          }
        }
        ExprPtr out(new LiteralExpr(Value::Int(tok.int_value)));
        out->span = tok.span();
        return out;
      }
      case TokenType::kFloat: {
        Advance();
        ExprPtr out(new LiteralExpr(Value::Double(tok.float_value)));
        out->span = tok.span();
        return out;
      }
      case TokenType::kString: {
        Advance();
        ExprPtr out(new LiteralExpr(Value::String(tok.text)));
        out->span = tok.span();
        return out;
      }
      case TokenType::kLParen: {
        Advance();
        ESLEV_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "expression"));
        return e;
      }
      case TokenType::kIdentifier:
        return ParseIdentifierExpr();
      default:
        return Error("unexpected token " + tok.Describe() +
                     " in expression");
    }
  }

  // Handles literals TRUE/FALSE/NULL, SEQ-family operators, star
  // aggregates, function calls, and column references.
  Result<ExprPtr> ParseIdentifierExpr() {
    const size_t start = pos_;
    if (CheckKeyword("TRUE") || CheckKeyword("FALSE") || CheckKeyword("NULL")) {
      const Token& t = Advance();
      ExprPtr out(new LiteralExpr(
          AsciiEqualsIgnoreCase(t.text, "NULL")
              ? Value::Null()
              : Value::Bool(AsciiEqualsIgnoreCase(t.text, "TRUE"))));
      out->span = t.span();
      return out;
    }

    // SEQ-family operator.
    if ((CheckKeyword("SEQ") || CheckKeyword("EXCEPTION_SEQ") ||
         CheckKeyword("CLEVEL_SEQ")) &&
        Peek(1).type == TokenType::kLParen) {
      return ParseSeqExpr();
    }

    // Star aggregate: FIRST(S*)[.col], LAST(S*)[.col], COUNT(S*).
    if ((CheckKeyword("FIRST") || CheckKeyword("LAST") ||
         CheckKeyword("COUNT")) &&
        Peek(1).type == TokenType::kLParen &&
        Peek(2).type == TokenType::kIdentifier &&
        Peek(3).type == TokenType::kStar &&
        Peek(4).type == TokenType::kRParen) {
      StarAggFn fn;
      if (CheckKeyword("FIRST")) {
        fn = StarAggFn::kFirst;
      } else if (CheckKeyword("LAST")) {
        fn = StarAggFn::kLast;
      } else {
        fn = StarAggFn::kCount;
      }
      Advance();  // name
      Advance();  // (
      std::string stream = Advance().text;
      Advance();  // *
      Advance();  // )
      std::string column;
      if (fn != StarAggFn::kCount) {
        if (!Match(TokenType::kDot)) {
          return Error(std::string(StarAggFnToString(fn)) +
                       "(S*) requires a .column suffix");
        }
        ESLEV_ASSIGN_OR_RETURN(column, ExpectIdentifier("star aggregate"));
      }
      ExprPtr out(
          new StarAggExpr(fn, std::move(stream), std::move(column)));
      out->span = SpanFrom(start);
      return out;
    }

    const std::string name = Advance().text;

    // Function call (including COUNT(expr) and COUNT(*)).
    if (Check(TokenType::kLParen)) {
      Advance();
      std::vector<ExprPtr> args;
      bool star_arg = false;
      if (Check(TokenType::kStar)) {
        Advance();
        star_arg = true;
      } else if (!Check(TokenType::kRParen)) {
        while (true) {
          ESLEV_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
          args.push_back(std::move(a));
          if (Match(TokenType::kComma)) continue;
          break;
        }
      }
      ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "function call"));
      ExprPtr out(new FuncCallExpr(name, std::move(args), star_arg));
      out->span = SpanFrom(start);
      return out;
    }

    // Column reference: name | name.col | name.previous.col
    if (Match(TokenType::kDot)) {
      ESLEV_ASSIGN_OR_RETURN(std::string second,
                             ExpectIdentifier("column reference"));
      if (AsciiEqualsIgnoreCase(second, "previous") &&
          Check(TokenType::kDot)) {
        Advance();
        ESLEV_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("previous reference"));
        ExprPtr out(new ColumnRefExpr(name, col, /*previous=*/true));
        out->span = SpanFrom(start);
        return out;
      }
      ExprPtr out(new ColumnRefExpr(name, second));
      out->span = SpanFrom(start);
      return out;
    }
    ExprPtr out(new ColumnRefExpr("", name));
    out->span = SpanFrom(start);
    return out;
  }

  Result<ExprPtr> ParseSeqExpr() {
    const size_t start = pos_;
    auto seq = std::make_unique<SeqExpr>();
    if (MatchKeyword("SEQ")) {
      seq->seq_kind = SeqKind::kSeq;
    } else if (MatchKeyword("EXCEPTION_SEQ")) {
      seq->seq_kind = SeqKind::kExceptionSeq;
    } else if (MatchKeyword("CLEVEL_SEQ")) {
      seq->seq_kind = SeqKind::kClevelSeq;
    } else {
      return Error("expected SEQ operator");
    }
    ESLEV_RETURN_NOT_OK(Expect(TokenType::kLParen, "SEQ argument list"));
    while (true) {
      const size_t arg_start = pos_;
      SeqArg arg;
      if (Match(TokenType::kBang)) arg.negated = true;
      ESLEV_ASSIGN_OR_RETURN(arg.stream, ExpectIdentifier("SEQ argument"));
      if (Match(TokenType::kStar)) arg.star = true;
      if (arg.negated && arg.star) {
        return Error("a SEQ argument cannot be both negated and starred");
      }
      arg.span = SpanFrom(arg_start);
      seq->args.push_back(std::move(arg));
      if (Match(TokenType::kComma)) continue;
      break;
    }
    ESLEV_RETURN_NOT_OK(Expect(TokenType::kRParen, "SEQ argument list"));
    if (seq->args.size() < 2) {
      return Error("SEQ requires at least two arguments");
    }

    if (CheckKeyword("OVER")) {
      const size_t window_start = pos_;
      Advance();  // OVER
      TokenType close;
      if (Match(TokenType::kLBracket)) {
        close = TokenType::kRBracket;
      } else if (Match(TokenType::kLParen)) {
        close = TokenType::kRParen;
      } else {
        return Error("expected '[' or '(' after OVER");
      }
      ESLEV_ASSIGN_OR_RETURN(auto w, ParseWindowBody(close, "SEQ window"));
      w.span = SpanFrom(window_start);
      seq->window = w;
    }
    if (MatchKeyword("MODE")) {
      ESLEV_ASSIGN_OR_RETURN(std::string mode_name,
                             ExpectIdentifier("MODE clause"));
      ESLEV_ASSIGN_OR_RETURN(seq->mode, ParsePairingMode(mode_name));
      seq->mode_explicit = true;
    }
    seq->span = SpanFrom(start);
    return ExprPtr(seq.release());
  }

  // Structural deep copy; used to lower BETWEEN/IN without re-parsing.
  Result<ExprPtr> CloneExpr(const Expr& e) {
    ExprPtr out;
    switch (e.kind) {
      case ExprKind::kLiteral:
        out = ExprPtr(
            new LiteralExpr(static_cast<const LiteralExpr&>(e).value));
        break;
      case ExprKind::kColumnRef: {
        const auto& c = static_cast<const ColumnRefExpr&>(e);
        out = ExprPtr(new ColumnRefExpr(c.qualifier, c.column, c.previous));
        break;
      }
      case ExprKind::kFuncCall: {
        const auto& f = static_cast<const FuncCallExpr&>(e);
        std::vector<ExprPtr> args;
        for (const auto& a : f.args) {
          ESLEV_ASSIGN_OR_RETURN(ExprPtr copy, CloneExpr(*a));
          args.push_back(std::move(copy));
        }
        out = ExprPtr(new FuncCallExpr(f.name, std::move(args), f.star_arg));
        break;
      }
      case ExprKind::kStarAgg: {
        const auto& s = static_cast<const StarAggExpr&>(e);
        out = ExprPtr(new StarAggExpr(s.fn, s.stream, s.column));
        break;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        ESLEV_ASSIGN_OR_RETURN(ExprPtr inner, CloneExpr(*u.operand));
        out = ExprPtr(new UnaryExpr(u.op, std::move(inner)));
        break;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        ESLEV_ASSIGN_OR_RETURN(ExprPtr l, CloneExpr(*b.lhs));
        ESLEV_ASSIGN_OR_RETURN(ExprPtr r, CloneExpr(*b.rhs));
        out = ExprPtr(new BinaryExpr(b.op, std::move(l), std::move(r)));
        break;
      }
      default:
        return Status::NotImplemented(
            "cannot clone subquery/SEQ expressions inside BETWEEN/IN");
    }
    out->span = e.span;
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int expr_depth_ = 0;  // live ParseExpr / NOT / unary-sign recursion
};

}  // namespace

Result<StatementPtr> ParseStatement(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseSingle();
}

Result<std::vector<StatementPtr>> ParseScript(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseScript();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  ESLEV_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  return Parser(std::move(tokens)).ParseSingleExpression();
}

}  // namespace eslev
