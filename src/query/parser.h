#ifndef COSMOS_QUERY_PARSER_H_
#define COSMOS_QUERY_PARSER_H_

#include <string>

#include "common/status.h"
#include "query/ast.h"

namespace cosmos {

// Parses one CQL statement of the subset used in the paper:
//
//   SELECT <item> (, <item>)*
//   FROM <stream> [window]? [alias]? (, ...)*
//   [WHERE <boolean expression>]
//   [GROUP BY <column> (, <column>)*]
//
// where <item> is *, alias.*, [alias.]column [AS name], or
// AGG([alias.]column | *) [AS name]; window is [Now], [Unbounded],
// [Range <n> <unit>] or [Range Unbounded]; units are Microsecond(s)/
// Millisecond(s)/Second(s)/Minute(s)/Hour(s)/Day(s). Keywords are
// case-insensitive. Expressions support AND/OR/NOT, the six comparison
// operators, + - * /, parentheses, numeric/string/boolean literals.
// Expressions nested deeper than 256 levels (parentheses, NOT, unary minus,
// or operators of one + - * / chain) fail with InvalidArgument.
Result<ParsedQuery> ParseQuery(const std::string& cql);

// Parses a standalone boolean expression (used for hand-written profile
// filters in tests and examples).
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace cosmos

#endif  // COSMOS_QUERY_PARSER_H_
