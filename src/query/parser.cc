#include "query/parser.h"

#include "common/check.h"
#include "common/string_util.h"
#include "query/lexer.h"

namespace cosmos {
namespace {

// Expressions nest at most this deep: each parenthesis, NOT, unary minus
// and each operator of a left-associative + - * / chain is one level. The
// parser and every later pass over the tree recurse once per level, so
// deeper input (a few KB of "(((...") is rejected instead of overflowing
// the stack.
constexpr int kMaxExpressionDepth = 256;

// Recursive-descent parser over the token stream. Grammar (precedence low
// to high): OR, AND, NOT, comparison, additive, multiplicative, unary minus,
// primary.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {
    // Peek/Advance clamp the cursor to the last token; that arithmetic
    // (tokens_.size() - 1) requires a non-empty stream terminated by kEnd,
    // which the lexer guarantees.
    COSMOS_CHECK(!tokens_.empty()) << "lexer emitted an empty token stream";
    COSMOS_CHECK(tokens_.back().type == TokenType::kEnd)
        << "token stream not kEnd-terminated";
  }

  Result<ParsedQuery> ParseQueryStatement() {
    ParsedQuery q;
    COSMOS_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    COSMOS_RETURN_IF_ERROR(ParseSelectList(&q));
    COSMOS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    COSMOS_RETURN_IF_ERROR(ParseFromList(&q));
    if (PeekKeyword("WHERE")) {
      Advance();
      COSMOS_ASSIGN_OR_RETURN(q.where, ParseOr());
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      COSMOS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        COSMOS_ASSIGN_OR_RETURN(ExprPtr col, ParseColumnRef());
        q.group_by.push_back(std::move(col));
        if (Peek().type != TokenType::kComma) break;
        Advance();
      }
    }
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return q;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    COSMOS_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    return Peek(ahead).IsKeyword(kw);
  }

  Status ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      return Error(StrFormat("expected %s", kw).c_str());
    }
    Advance();
    return Status::OK();
  }

  Status Expect(TokenType t, const char* what) {
    if (Peek().type != t) return Error(StrFormat("expected %s", what).c_str());
    Advance();
    return Status::OK();
  }

  // Levels of expression nesting entered in one scope; they are left when
  // it ends.
  class Nesting {
   public:
    explicit Nesting(Parser* parser) : parser_(parser) {}
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    ~Nesting() { parser_->depth_ -= entered_; }

    Status Enter() {
      ++entered_;
      if (++parser_->depth_ <= kMaxExpressionDepth) return Status::OK();
      return Status::InvalidArgument(StrFormat(
          "expression nested deeper than %d levels at offset %zu",
          kMaxExpressionDepth, parser_->Peek().offset));
    }

   private:
    Parser* parser_;
    int entered_ = 0;
  };

  Status Error(const char* msg) const {
    const Token& t = Peek();
    return Status::ParseError(StrFormat(
        "%s at offset %zu (near '%s')", msg, t.offset, t.text.c_str()));
  }

  static bool IsReservedKeyword(const Token& t) {
    static const char* kReserved[] = {"SELECT", "FROM",  "WHERE",   "GROUP",
                                      "BY",     "AND",   "OR",      "NOT",
                                      "AS",     "RANGE", "NOW",     "BETWEEN"};
    for (const char* kw : kReserved) {
      if (t.IsKeyword(kw)) return true;
    }
    return false;
  }

  static bool IsAggName(const Token& t, AggFunc* out) {
    struct {
      const char* name;
      AggFunc f;
    } static const kAggs[] = {{"COUNT", AggFunc::kCount},
                              {"SUM", AggFunc::kSum},
                              {"AVG", AggFunc::kAvg},
                              {"MIN", AggFunc::kMin},
                              {"MAX", AggFunc::kMax}};
    for (const auto& a : kAggs) {
      if (t.IsKeyword(a.name)) {
        *out = a.f;
        return true;
      }
    }
    return false;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    AggFunc func;
    if (Peek().type == TokenType::kStar) {
      Advance();
      item.kind = SelectItem::Kind::kStar;
      return item;
    }
    if (Peek().type == TokenType::kIdentifier && IsAggName(Peek(), &func) &&
        Peek(1).type == TokenType::kLParen) {
      Advance();  // agg name
      Advance();  // (
      item.kind = SelectItem::Kind::kAggregate;
      item.func = func;
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.agg_star = true;
      } else {
        COSMOS_RETURN_IF_ERROR(ParseQualifiedName(&item.qualifier,
                                                  &item.name));
      }
      COSMOS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      COSMOS_RETURN_IF_ERROR(MaybeParseAlias(&item.alias));
      return item;
    }
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected select item");
    }
    std::string first = Advance().text;
    if (Peek().type == TokenType::kDot) {
      Advance();
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.kind = SelectItem::Kind::kQualifiedStar;
        item.qualifier = first;
        return item;
      }
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected column name after '.'");
      }
      item.kind = SelectItem::Kind::kColumn;
      item.qualifier = first;
      item.name = Advance().text;
    } else {
      item.kind = SelectItem::Kind::kColumn;
      item.name = first;
    }
    COSMOS_RETURN_IF_ERROR(MaybeParseAlias(&item.alias));
    return item;
  }

  Status MaybeParseAlias(std::string* alias) {
    if (PeekKeyword("AS")) {
      Advance();
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected alias after AS");
      }
      *alias = Advance().text;
    }
    return Status::OK();
  }

  Status ParseQualifiedName(std::string* qualifier, std::string* name) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected column reference");
    }
    std::string first = Advance().text;
    if (Peek().type == TokenType::kDot) {
      Advance();
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected column name after '.'");
      }
      *qualifier = first;
      *name = Advance().text;
    } else {
      *name = first;
    }
    return Status::OK();
  }

  Status ParseSelectList(ParsedQuery* q) {
    for (;;) {
      COSMOS_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      q->select.push_back(std::move(item));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  Result<Duration> ParseTimeUnit() {
    const Token& t = Peek();
    struct {
      const char* name;
      Duration d;
    } static const kUnits[] = {
        {"MICROSECOND", kMicrosecond}, {"MICROSECONDS", kMicrosecond},
        {"MILLISECOND", kMillisecond}, {"MILLISECONDS", kMillisecond},
        {"SECOND", kSecond},           {"SECONDS", kSecond},
        {"MINUTE", kMinute},           {"MINUTES", kMinute},
        {"HOUR", kHour},               {"HOURS", kHour},
        {"DAY", kDay},                 {"DAYS", kDay},
    };
    for (const auto& u : kUnits) {
      if (t.IsKeyword(u.name)) {
        Advance();
        return u.d;
      }
    }
    return Error("expected time unit");
  }

  Result<WindowSpec> ParseWindow() {
    COSMOS_RETURN_IF_ERROR(Expect(TokenType::kLBracket, "["));
    WindowSpec w;
    if (PeekKeyword("NOW")) {
      Advance();
      w = WindowSpec::Now();
    } else if (PeekKeyword("UNBOUNDED")) {
      Advance();
      w = WindowSpec::Unbounded();
    } else if (PeekKeyword("RANGE")) {
      Advance();
      if (PeekKeyword("UNBOUNDED")) {
        Advance();
        w = WindowSpec::Unbounded();
      } else if (Peek().type == TokenType::kInteger) {
        int64_t n = Advance().int_value;
        COSMOS_ASSIGN_OR_RETURN(Duration unit, ParseTimeUnit());
        w = WindowSpec::Range(n * unit);
      } else {
        return Error("expected window length");
      }
    } else {
      return Error("expected Now, Unbounded or Range in window");
    }
    COSMOS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "]"));
    return w;
  }

  Status ParseFromList(ParsedQuery* q) {
    for (;;) {
      FromItem item;
      if (Peek().type != TokenType::kIdentifier || IsReservedKeyword(Peek())) {
        return Error("expected stream name");
      }
      item.stream = Advance().text;
      if (Peek().type == TokenType::kLBracket) {
        COSMOS_ASSIGN_OR_RETURN(item.window, ParseWindow());
      }
      if (Peek().type == TokenType::kIdentifier &&
          !IsReservedKeyword(Peek())) {
        item.alias = Advance().text;
      }
      q->from.push_back(std::move(item));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  Result<ExprPtr> ParseColumnRef() {
    std::string qualifier;
    std::string name;
    COSMOS_RETURN_IF_ERROR(ParseQualifiedName(&qualifier, &name));
    return MakeColumn(std::move(qualifier), std::move(name));
  }

  Result<ExprPtr> ParseOr() {
    COSMOS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    std::vector<ExprPtr> terms{lhs};
    while (PeekKeyword("OR")) {
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      terms.push_back(std::move(rhs));
    }
    if (terms.size() == 1) return terms[0];
    return MakeOr(std::move(terms));
  }

  Result<ExprPtr> ParseAnd() {
    COSMOS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    std::vector<ExprPtr> terms{lhs};
    while (PeekKeyword("AND")) {
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      terms.push_back(std::move(rhs));
    }
    if (terms.size() == 1) return terms[0];
    return MakeAnd(std::move(terms));
  }

  Result<ExprPtr> ParseNot() {
    if (PeekKeyword("NOT")) {
      Nesting nesting(this);
      COSMOS_RETURN_IF_ERROR(nesting.Enter());
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr child, ParseNot());
      return MakeNot(std::move(child));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    COSMOS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    // x BETWEEN a AND b  =>  x >= a AND x <= b
    if (PeekKeyword("BETWEEN")) {
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      COSMOS_RETURN_IF_ERROR(ExpectKeyword("AND"));
      COSMOS_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      return MakeAnd({MakeCompare(CompareOp::kGe, lhs, std::move(lo)),
                      MakeCompare(CompareOp::kLe, lhs, std::move(hi))});
    }
    CompareOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = CompareOp::kEq;
        break;
      case TokenType::kNe:
        op = CompareOp::kNe;
        break;
      case TokenType::kLt:
        op = CompareOp::kLt;
        break;
      case TokenType::kLe:
        op = CompareOp::kLe;
        break;
      case TokenType::kGt:
        op = CompareOp::kGt;
        break;
      case TokenType::kGe:
        op = CompareOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    COSMOS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    ExprPtr cmp = MakeCompare(op, std::move(lhs), std::move(rhs));
    // Support chained comparisons "a <= b <= c" as (a<=b) AND (b<=c).
    // CQL examples in the paper write range predicates this way.
    if (Peek().type == TokenType::kLe || Peek().type == TokenType::kLt ||
        Peek().type == TokenType::kGe || Peek().type == TokenType::kGt) {
      const auto& prev_rhs = static_cast<const ComparisonExpr&>(*cmp).rhs();
      CompareOp op2;
      switch (Peek().type) {
        case TokenType::kLt:
          op2 = CompareOp::kLt;
          break;
        case TokenType::kLe:
          op2 = CompareOp::kLe;
          break;
        case TokenType::kGt:
          op2 = CompareOp::kGt;
          break;
        default:
          op2 = CompareOp::kGe;
          break;
      }
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr rhs2, ParseAdditive());
      ExprPtr cmp2 = MakeCompare(op2, prev_rhs, std::move(rhs2));
      return MakeAnd({std::move(cmp), std::move(cmp2)});
    }
    return cmp;
  }

  Result<ExprPtr> ParseAdditive() {
    COSMOS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    Nesting nesting(this);  // each operator nests `lhs` one level deeper
    for (;;) {
      ArithOp op;
      if (Peek().type == TokenType::kPlus) {
        op = ArithOp::kAdd;
      } else if (Peek().type == TokenType::kMinus) {
        op = ArithOp::kSub;
      } else {
        return lhs;
      }
      COSMOS_RETURN_IF_ERROR(nesting.Enter());
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeArith(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    COSMOS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    Nesting nesting(this);  // each operator nests `lhs` one level deeper
    for (;;) {
      ArithOp op;
      if (Peek().type == TokenType::kStar) {
        op = ArithOp::kMul;
      } else if (Peek().type == TokenType::kSlash) {
        op = ArithOp::kDiv;
      } else {
        return lhs;
      }
      COSMOS_RETURN_IF_ERROR(nesting.Enter());
      Advance();
      COSMOS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeArith(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().type == TokenType::kMinus) {
      Nesting nesting(this);
      COSMOS_RETURN_IF_ERROR(nesting.Enter());
      Advance();
      // Fold negation into numeric literals; otherwise 0 - x.
      if (Peek().type == TokenType::kInteger) {
        return MakeLiteral(Value(-Advance().int_value));
      }
      if (Peek().type == TokenType::kFloat) {
        return MakeLiteral(Value(-Advance().float_value));
      }
      COSMOS_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary());
      return MakeArith(ArithOp::kSub, MakeLiteral(Value(int64_t{0})),
                       std::move(child));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
        return MakeLiteral(Value(Advance().int_value));
      case TokenType::kFloat:
        return MakeLiteral(Value(Advance().float_value));
      case TokenType::kString:
        return MakeLiteral(Value(Advance().text));
      case TokenType::kLParen: {
        Nesting nesting(this);
        COSMOS_RETURN_IF_ERROR(nesting.Enter());
        Advance();
        COSMOS_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
        COSMOS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
        return e;
      }
      case TokenType::kIdentifier: {
        if (t.IsKeyword("TRUE")) {
          Advance();
          return MakeLiteral(Value(true));
        }
        if (t.IsKeyword("FALSE")) {
          Advance();
          return MakeLiteral(Value(false));
        }
        if (IsReservedKeyword(t)) {
          return Error("reserved keyword in expression");
        }
        return ParseColumnRef();
      }
      default:
        return Error("expected expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // levels of expression nesting currently entered
};

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& cql) {
  COSMOS_ASSIGN_OR_RETURN(auto tokens, Tokenize(cql));
  Parser p(std::move(tokens));
  return p.ParseQueryStatement();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  COSMOS_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser p(std::move(tokens));
  return p.ParseStandaloneExpression();
}

}  // namespace cosmos
