#ifndef NOMAP_JS_PARSER_H
#define NOMAP_JS_PARSER_H

/**
 * @file
 * Recursive-descent parser for the JavaScript subset. Produces a
 * Program (top-level function declarations plus top-level statements).
 * Throws FatalError with line information on syntax errors.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "js/ast.h"
#include "js/token.h"

namespace nomap {

/** Parse full source text into a Program. */
Program parseProgram(const std::string &source);

/** Internal parser class, exposed for unit testing. */
class Parser
{
  public:
    /**
     * Deepest nesting parse() accepts, counting statements inside
     * statements, operands inside unary operators, parentheses and
     * array or object literals, and each link of an assignment,
     * conditional, binary, logical or postfix chain. Parsing,
     * compiling and freeing the AST all recurse once per level on the
     * host stack, so deeper input gets a FatalError ("nesting too
     * deep") instead of a stack overflow. The suites, the fuzz
     * programs and nomap_bench nest at most 15 deep. One parenthesis
     * level is ~15 parser frames, several KB of stack under ASan, so
     * 1000 levels overflowed an 8 MB stack there; 256 keeps the
     * deepest parse to a few MB.
     */
    static constexpr uint32_t kMaxNesting = 256;

    explicit Parser(std::vector<Token> tokens);

    Program parse();

  private:
    class NestingScope;

    const Token &peek(int ahead = 0) const;
    const Token &advance();
    bool check(TokenKind kind) const;
    bool match(TokenKind kind);
    const Token &expect(TokenKind kind, const char *context);

    std::unique_ptr<FunctionDecl> parseFunction();
    StmtPtr parseStatement();
    StmtPtr parseBlock();
    StmtPtr parseVarDecl();
    StmtPtr parseIf();
    StmtPtr parseWhile();
    StmtPtr parseDoWhile();
    StmtPtr parseFor();
    StmtPtr parseSwitch();

    ExprPtr parseExpression();
    ExprPtr parseAssignment();
    ExprPtr parseConditional();
    ExprPtr parseLogicalOr();
    ExprPtr parseLogicalAnd();
    ExprPtr parseBitOr();
    ExprPtr parseBitXor();
    ExprPtr parseBitAnd();
    ExprPtr parseEquality();
    ExprPtr parseRelational();
    ExprPtr parseShift();
    ExprPtr parseAdditive();
    ExprPtr parseMultiplicative();
    ExprPtr parseUnary();
    ExprPtr parsePostfix();
    ExprPtr parsePrimary();

    std::vector<Token> toks;
    size_t pos = 0;
    /** Nesting levels the active parse functions hold. */
    uint32_t depth = 0;
};

} // namespace nomap

#endif // NOMAP_JS_PARSER_H
