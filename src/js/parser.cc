#include "js/parser.h"

#include "js/lexer.h"
#include "support/logging.h"

namespace nomap {

Program
parseProgram(const std::string &source)
{
    Lexer lexer(source);
    Parser parser(lexer.lexAll());
    return parser.parse();
}

/**
 * The nesting levels one parse function holds: enter() takes one more
 * and fails past kMaxNesting; all are released when the function
 * returns.
 */
class Parser::NestingScope
{
  public:
    explicit NestingScope(Parser &parser_) : parser(parser_) {}
    NestingScope(const NestingScope &) = delete;
    NestingScope &operator=(const NestingScope &) = delete;
    ~NestingScope() { parser.depth -= held; }

    void
    enter()
    {
        ++held;
        if (++parser.depth > kMaxNesting)
            fatal("line %u: nesting too deep", parser.peek().line);
    }

  private:
    Parser &parser;
    uint32_t held = 0;
};

Parser::Parser(std::vector<Token> tokens)
    : toks(std::move(tokens))
{
    NOMAP_ASSERT(!toks.empty());
    NOMAP_ASSERT(toks.back().kind == TokenKind::EndOfFile);
}

const Token &
Parser::peek(int ahead) const
{
    size_t idx = pos + static_cast<size_t>(ahead);
    if (idx >= toks.size())
        idx = toks.size() - 1;
    return toks[idx];
}

const Token &
Parser::advance()
{
    const Token &tok = toks[pos];
    if (pos + 1 < toks.size())
        ++pos;
    return tok;
}

bool
Parser::check(TokenKind kind) const
{
    return peek().kind == kind;
}

bool
Parser::match(TokenKind kind)
{
    if (!check(kind))
        return false;
    advance();
    return true;
}

const Token &
Parser::expect(TokenKind kind, const char *context)
{
    if (!check(kind)) {
        fatal("line %u: expected '%s' %s, found '%s'", peek().line,
              tokenKindName(kind), context, tokenKindName(peek().kind));
    }
    return advance();
}

Program
Parser::parse()
{
    Program program;
    while (!check(TokenKind::EndOfFile)) {
        if (check(TokenKind::KwFunction)) {
            program.functions.push_back(parseFunction());
        } else {
            program.topLevel.push_back(parseStatement());
        }
    }
    return program;
}

std::unique_ptr<FunctionDecl>
Parser::parseFunction()
{
    auto fn = std::make_unique<FunctionDecl>();
    fn->line = peek().line;
    expect(TokenKind::KwFunction, "to start function");
    fn->name = expect(TokenKind::Identifier, "as function name").text;
    expect(TokenKind::LParen, "after function name");
    if (!check(TokenKind::RParen)) {
        do {
            fn->params.push_back(
                expect(TokenKind::Identifier, "as parameter").text);
        } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "after parameters");
    expect(TokenKind::LBrace, "to open function body");
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile))
        fn->body.push_back(parseStatement());
    expect(TokenKind::RBrace, "to close function body");
    return fn;
}

StmtPtr
Parser::parseStatement()
{
    NestingScope nesting(*this);
    nesting.enter();
    uint32_t line = peek().line;
    StmtPtr stmt;
    switch (peek().kind) {
      case TokenKind::LBrace:
        stmt = parseBlock();
        break;
      case TokenKind::KwVar:
        stmt = parseVarDecl();
        break;
      case TokenKind::KwIf:
        stmt = parseIf();
        break;
      case TokenKind::KwWhile:
        stmt = parseWhile();
        break;
      case TokenKind::KwDo:
        stmt = parseDoWhile();
        break;
      case TokenKind::KwFor:
        stmt = parseFor();
        break;
      case TokenKind::KwSwitch:
        stmt = parseSwitch();
        break;
      case TokenKind::KwReturn: {
        advance();
        ExprPtr value;
        if (!check(TokenKind::Semicolon))
            value = parseExpression();
        match(TokenKind::Semicolon);
        stmt = std::make_unique<ReturnStmt>(std::move(value));
        break;
      }
      case TokenKind::KwBreak:
        advance();
        match(TokenKind::Semicolon);
        stmt = std::make_unique<BreakStmt>();
        break;
      case TokenKind::KwContinue:
        advance();
        match(TokenKind::Semicolon);
        stmt = std::make_unique<ContinueStmt>();
        break;
      case TokenKind::Semicolon:
        advance();
        stmt = std::make_unique<EmptyStmt>();
        break;
      default: {
        ExprPtr expr = parseExpression();
        match(TokenKind::Semicolon);
        stmt = std::make_unique<ExpressionStmt>(std::move(expr));
        break;
      }
    }
    stmt->line = line;
    return stmt;
}

StmtPtr
Parser::parseBlock()
{
    expect(TokenKind::LBrace, "to open block");
    auto block = std::make_unique<BlockStmt>();
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile))
        block->body.push_back(parseStatement());
    expect(TokenKind::RBrace, "to close block");
    return block;
}

StmtPtr
Parser::parseVarDecl()
{
    expect(TokenKind::KwVar, "to start declaration");
    auto decl = std::make_unique<VarDeclStmt>();
    do {
        std::string name =
            expect(TokenKind::Identifier, "as variable name").text;
        ExprPtr init;
        if (match(TokenKind::Assign))
            init = parseAssignment();
        decl->decls.emplace_back(std::move(name), std::move(init));
    } while (match(TokenKind::Comma));
    match(TokenKind::Semicolon);
    return decl;
}

StmtPtr
Parser::parseIf()
{
    expect(TokenKind::KwIf, "to start if");
    expect(TokenKind::LParen, "after if");
    ExprPtr cond = parseExpression();
    expect(TokenKind::RParen, "after if condition");
    StmtPtr then_stmt = parseStatement();
    StmtPtr else_stmt;
    if (match(TokenKind::KwElse))
        else_stmt = parseStatement();
    return std::make_unique<IfStmt>(std::move(cond), std::move(then_stmt),
                                    std::move(else_stmt));
}

StmtPtr
Parser::parseWhile()
{
    expect(TokenKind::KwWhile, "to start while");
    expect(TokenKind::LParen, "after while");
    ExprPtr cond = parseExpression();
    expect(TokenKind::RParen, "after while condition");
    StmtPtr body = parseStatement();
    return std::make_unique<WhileStmt>(std::move(cond), std::move(body));
}

StmtPtr
Parser::parseDoWhile()
{
    expect(TokenKind::KwDo, "to start do-while");
    StmtPtr body = parseStatement();
    expect(TokenKind::KwWhile, "after do body");
    expect(TokenKind::LParen, "after while");
    ExprPtr cond = parseExpression();
    expect(TokenKind::RParen, "after do-while condition");
    match(TokenKind::Semicolon);
    return std::make_unique<DoWhileStmt>(std::move(body), std::move(cond));
}

StmtPtr
Parser::parseFor()
{
    expect(TokenKind::KwFor, "to start for");
    expect(TokenKind::LParen, "after for");
    auto loop = std::make_unique<ForStmt>();
    if (check(TokenKind::KwVar)) {
        loop->init = parseVarDecl(); // consumes its own ';'
    } else if (!check(TokenKind::Semicolon)) {
        loop->init =
            std::make_unique<ExpressionStmt>(parseExpression());
        expect(TokenKind::Semicolon, "after for initializer");
    } else {
        advance(); // empty init
    }
    if (!check(TokenKind::Semicolon))
        loop->cond = parseExpression();
    expect(TokenKind::Semicolon, "after for condition");
    if (!check(TokenKind::RParen))
        loop->update = parseExpression();
    expect(TokenKind::RParen, "after for clauses");
    loop->body = parseStatement();
    return loop;
}

StmtPtr
Parser::parseSwitch()
{
    expect(TokenKind::KwSwitch, "to start switch");
    expect(TokenKind::LParen, "after switch");
    auto stmt = std::make_unique<SwitchStmt>(parseExpression());
    expect(TokenKind::RParen, "after switch discriminant");
    expect(TokenKind::LBrace, "to open switch body");
    bool saw_default = false;
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        SwitchClause clause;
        if (match(TokenKind::KwCase)) {
            clause.test = parseExpression();
        } else {
            expect(TokenKind::KwDefault, "or 'case' in switch");
            if (saw_default)
                fatal("line %u: multiple default clauses", peek().line);
            saw_default = true;
        }
        expect(TokenKind::Colon, "after case label");
        while (!check(TokenKind::KwCase) &&
               !check(TokenKind::KwDefault) &&
               !check(TokenKind::RBrace) &&
               !check(TokenKind::EndOfFile)) {
            clause.body.push_back(parseStatement());
        }
        stmt->clauses.push_back(std::move(clause));
    }
    expect(TokenKind::RBrace, "to close switch body");
    return stmt;
}

ExprPtr
Parser::parseExpression()
{
    return parseAssignment();
}

namespace {

bool
isAssignTarget(const Expr &e)
{
    return e.kind == ExprKind::Ident || e.kind == ExprKind::Member ||
           e.kind == ExprKind::Index;
}

} // namespace

ExprPtr
Parser::parseAssignment()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseConditional();
    TokenKind k = peek().kind;
    BinaryOp op;
    bool compound = true;
    switch (k) {
      case TokenKind::Assign: compound = false; op = BinaryOp::Add; break;
      case TokenKind::PlusAssign: op = BinaryOp::Add; break;
      case TokenKind::MinusAssign: op = BinaryOp::Sub; break;
      case TokenKind::StarAssign: op = BinaryOp::Mul; break;
      case TokenKind::SlashAssign: op = BinaryOp::Div; break;
      case TokenKind::PercentAssign: op = BinaryOp::Mod; break;
      case TokenKind::AndAssign: op = BinaryOp::BitAnd; break;
      case TokenKind::OrAssign: op = BinaryOp::BitOr; break;
      case TokenKind::XorAssign: op = BinaryOp::BitXor; break;
      case TokenKind::ShlAssign: op = BinaryOp::Shl; break;
      case TokenKind::ShrAssign: op = BinaryOp::Shr; break;
      case TokenKind::UShrAssign: op = BinaryOp::UShr; break;
      default:
        return lhs;
    }
    uint32_t line = peek().line;
    advance();
    if (!isAssignTarget(*lhs))
        fatal("line %u: invalid assignment target", line);
    nesting.enter();
    ExprPtr rhs = parseAssignment();
    ExprPtr result;
    if (compound) {
        result = std::make_unique<CompoundAssignExpr>(op, std::move(lhs),
                                                      std::move(rhs));
    } else {
        result = std::make_unique<AssignExpr>(std::move(lhs),
                                              std::move(rhs));
    }
    result->line = line;
    return result;
}

ExprPtr
Parser::parseConditional()
{
    ExprPtr cond = parseLogicalOr();
    if (!match(TokenKind::Question))
        return cond;
    NestingScope nesting(*this);
    nesting.enter();
    ExprPtr then_expr = parseAssignment();
    expect(TokenKind::Colon, "in conditional expression");
    ExprPtr else_expr = parseAssignment();
    return std::make_unique<ConditionalExpr>(
        std::move(cond), std::move(then_expr), std::move(else_expr));
}

ExprPtr
Parser::parseLogicalOr()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseLogicalAnd();
    while (match(TokenKind::OrOr)) {
        nesting.enter();
        ExprPtr rhs = parseLogicalAnd();
        lhs = std::make_unique<LogicalExpr>(LogicalOp::Or, std::move(lhs),
                                            std::move(rhs));
    }
    return lhs;
}

ExprPtr
Parser::parseLogicalAnd()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseBitOr();
    while (match(TokenKind::AndAnd)) {
        nesting.enter();
        ExprPtr rhs = parseBitOr();
        lhs = std::make_unique<LogicalExpr>(LogicalOp::And, std::move(lhs),
                                            std::move(rhs));
    }
    return lhs;
}

ExprPtr
Parser::parseBitOr()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseBitXor();
    while (match(TokenKind::BitOr)) {
        nesting.enter();
        ExprPtr rhs = parseBitXor();
        lhs = std::make_unique<BinaryExpr>(BinaryOp::BitOr, std::move(lhs),
                                           std::move(rhs));
    }
    return lhs;
}

ExprPtr
Parser::parseBitXor()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseBitAnd();
    while (match(TokenKind::BitXor)) {
        nesting.enter();
        ExprPtr rhs = parseBitAnd();
        lhs = std::make_unique<BinaryExpr>(BinaryOp::BitXor, std::move(lhs),
                                           std::move(rhs));
    }
    return lhs;
}

ExprPtr
Parser::parseBitAnd()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseEquality();
    while (match(TokenKind::BitAnd)) {
        nesting.enter();
        ExprPtr rhs = parseEquality();
        lhs = std::make_unique<BinaryExpr>(BinaryOp::BitAnd, std::move(lhs),
                                           std::move(rhs));
    }
    return lhs;
}

ExprPtr
Parser::parseEquality()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseRelational();
    for (;;) {
        BinaryOp op;
        if (match(TokenKind::EqEq))
            op = BinaryOp::Eq;
        else if (match(TokenKind::NotEq))
            op = BinaryOp::NotEq;
        else if (match(TokenKind::EqEqEq))
            op = BinaryOp::StrictEq;
        else if (match(TokenKind::NotEqEq))
            op = BinaryOp::StrictNotEq;
        else
            return lhs;
        nesting.enter();
        ExprPtr rhs = parseRelational();
        lhs = std::make_unique<BinaryExpr>(op, std::move(lhs),
                                           std::move(rhs));
    }
}

ExprPtr
Parser::parseRelational()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseShift();
    for (;;) {
        BinaryOp op;
        if (match(TokenKind::Lt))
            op = BinaryOp::Lt;
        else if (match(TokenKind::Le))
            op = BinaryOp::Le;
        else if (match(TokenKind::Gt))
            op = BinaryOp::Gt;
        else if (match(TokenKind::Ge))
            op = BinaryOp::Ge;
        else
            return lhs;
        nesting.enter();
        ExprPtr rhs = parseShift();
        lhs = std::make_unique<BinaryExpr>(op, std::move(lhs),
                                           std::move(rhs));
    }
}

ExprPtr
Parser::parseShift()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseAdditive();
    for (;;) {
        BinaryOp op;
        if (match(TokenKind::Shl))
            op = BinaryOp::Shl;
        else if (match(TokenKind::Shr))
            op = BinaryOp::Shr;
        else if (match(TokenKind::UShr))
            op = BinaryOp::UShr;
        else
            return lhs;
        nesting.enter();
        ExprPtr rhs = parseAdditive();
        lhs = std::make_unique<BinaryExpr>(op, std::move(lhs),
                                           std::move(rhs));
    }
}

ExprPtr
Parser::parseAdditive()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseMultiplicative();
    for (;;) {
        BinaryOp op;
        if (match(TokenKind::Plus))
            op = BinaryOp::Add;
        else if (match(TokenKind::Minus))
            op = BinaryOp::Sub;
        else
            return lhs;
        nesting.enter();
        ExprPtr rhs = parseMultiplicative();
        lhs = std::make_unique<BinaryExpr>(op, std::move(lhs),
                                           std::move(rhs));
    }
}

ExprPtr
Parser::parseMultiplicative()
{
    NestingScope nesting(*this);
    ExprPtr lhs = parseUnary();
    for (;;) {
        BinaryOp op;
        if (match(TokenKind::Star))
            op = BinaryOp::Mul;
        else if (match(TokenKind::Slash))
            op = BinaryOp::Div;
        else if (match(TokenKind::Percent))
            op = BinaryOp::Mod;
        else
            return lhs;
        nesting.enter();
        ExprPtr rhs = parseUnary();
        lhs = std::make_unique<BinaryExpr>(op, std::move(lhs),
                                           std::move(rhs));
    }
}

ExprPtr
Parser::parseUnary()
{
    NestingScope nesting(*this);
    nesting.enter();
    uint32_t line = peek().line;
    ExprPtr result;
    if (match(TokenKind::Minus)) {
        result = std::make_unique<UnaryExpr>(UnaryOp::Neg, parseUnary());
    } else if (match(TokenKind::Plus)) {
        result = std::make_unique<UnaryExpr>(UnaryOp::Plus, parseUnary());
    } else if (match(TokenKind::Not)) {
        result = std::make_unique<UnaryExpr>(UnaryOp::Not, parseUnary());
    } else if (match(TokenKind::BitNot)) {
        result = std::make_unique<UnaryExpr>(UnaryOp::BitNot, parseUnary());
    } else if (match(TokenKind::KwTypeof)) {
        result = std::make_unique<UnaryExpr>(UnaryOp::Typeof, parseUnary());
    } else if (match(TokenKind::PlusPlus)) {
        ExprPtr target = parseUnary();
        if (!isAssignTarget(*target))
            fatal("line %u: invalid ++ target", line);
        result = std::make_unique<PreIncDecExpr>(true, std::move(target));
    } else if (match(TokenKind::MinusMinus)) {
        ExprPtr target = parseUnary();
        if (!isAssignTarget(*target))
            fatal("line %u: invalid -- target", line);
        result = std::make_unique<PreIncDecExpr>(false, std::move(target));
    } else {
        return parsePostfix();
    }
    result->line = line;
    return result;
}

ExprPtr
Parser::parsePostfix()
{
    NestingScope nesting(*this);
    ExprPtr expr = parsePrimary();
    for (;;) {
        uint32_t line = peek().line;
        if (match(TokenKind::Dot)) {
            std::string prop =
                expect(TokenKind::Identifier, "after '.'").text;
            expr = std::make_unique<MemberExpr>(std::move(expr),
                                                std::move(prop));
            expr->line = line;
        } else if (match(TokenKind::LBracket)) {
            ExprPtr index = parseExpression();
            expect(TokenKind::RBracket, "after index expression");
            expr = std::make_unique<IndexExpr>(std::move(expr),
                                               std::move(index));
            expr->line = line;
        } else if (match(TokenKind::LParen)) {
            auto call = std::make_unique<CallExpr>(std::move(expr));
            if (!check(TokenKind::RParen)) {
                do {
                    call->args.push_back(parseAssignment());
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after call arguments");
            call->line = line;
            expr = std::move(call);
        } else if (match(TokenKind::PlusPlus)) {
            if (!isAssignTarget(*expr))
                fatal("line %u: invalid ++ target", line);
            expr = std::make_unique<PostIncDecExpr>(true, std::move(expr));
            expr->line = line;
        } else if (match(TokenKind::MinusMinus)) {
            if (!isAssignTarget(*expr))
                fatal("line %u: invalid -- target", line);
            expr = std::make_unique<PostIncDecExpr>(false, std::move(expr));
            expr->line = line;
        } else {
            return expr;
        }
        nesting.enter();
    }
}

ExprPtr
Parser::parsePrimary()
{
    uint32_t line = peek().line;
    ExprPtr expr;
    switch (peek().kind) {
      case TokenKind::Number: {
        expr = std::make_unique<NumberLitExpr>(advance().number);
        break;
      }
      case TokenKind::String: {
        expr = std::make_unique<StringLitExpr>(advance().text);
        break;
      }
      case TokenKind::KwTrue:
        advance();
        expr = std::make_unique<BoolLitExpr>(true);
        break;
      case TokenKind::KwFalse:
        advance();
        expr = std::make_unique<BoolLitExpr>(false);
        break;
      case TokenKind::KwNull:
        advance();
        expr = std::make_unique<NullLitExpr>();
        break;
      case TokenKind::KwUndefined:
        advance();
        expr = std::make_unique<UndefinedLitExpr>();
        break;
      case TokenKind::Identifier:
        expr = std::make_unique<IdentExpr>(advance().text);
        break;
      case TokenKind::LParen: {
        advance();
        expr = parseExpression();
        expect(TokenKind::RParen, "to close parenthesized expression");
        break;
      }
      case TokenKind::LBracket: {
        advance();
        auto arr = std::make_unique<ArrayLitExpr>();
        if (!check(TokenKind::RBracket)) {
            do {
                arr->elements.push_back(parseAssignment());
            } while (match(TokenKind::Comma));
        }
        expect(TokenKind::RBracket, "to close array literal");
        expr = std::move(arr);
        break;
      }
      case TokenKind::LBrace: {
        advance();
        auto obj = std::make_unique<ObjectLitExpr>();
        if (!check(TokenKind::RBrace)) {
            do {
                std::string key;
                if (check(TokenKind::Identifier))
                    key = advance().text;
                else if (check(TokenKind::String))
                    key = advance().text;
                else
                    fatal("line %u: expected property name", peek().line);
                expect(TokenKind::Colon, "after property name");
                obj->properties.emplace_back(std::move(key),
                                             parseAssignment());
            } while (match(TokenKind::Comma));
        }
        expect(TokenKind::RBrace, "to close object literal");
        expr = std::move(obj);
        break;
      }
      default:
        fatal("line %u: unexpected token '%s'", peek().line,
              tokenKindName(peek().kind));
    }
    expr->line = line;
    return expr;
}

} // namespace nomap
