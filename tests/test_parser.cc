#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "js/parser.h"
#include "support/logging.h"

namespace nomap {
namespace {

TEST(Parser, FunctionAndTopLevel)
{
    Program p = parseProgram("function f(a, b) { return a + b; }\n"
                             "var x = f(1, 2);");
    ASSERT_EQ(p.functions.size(), 1u);
    EXPECT_EQ(p.functions[0]->name, "f");
    ASSERT_EQ(p.functions[0]->params.size(), 2u);
    ASSERT_EQ(p.topLevel.size(), 1u);
    EXPECT_EQ(p.topLevel[0]->kind, StmtKind::VarDecl);
}

TEST(Parser, Precedence)
{
    Program p = parseProgram("x = 1 + 2 * 3;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(exprToString(*stmt.expr), "x = (1 + (2 * 3))");
}

TEST(Parser, PrecedenceBitwiseVsComparison)
{
    Program p = parseProgram("x = a & b == c;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(exprToString(*stmt.expr), "x = (a & (b == c))");
}

TEST(Parser, RightAssociativeAssignment)
{
    Program p = parseProgram("a = b = 3;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(exprToString(*stmt.expr), "a = b = 3");
}

TEST(Parser, CompoundAssignment)
{
    Program p = parseProgram("a += 2; a <<= 1;");
    auto &s0 = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(s0.expr->kind, ExprKind::CompoundAssign);
    auto &s1 = static_cast<ExpressionStmt &>(*p.topLevel[1]);
    auto &ca = static_cast<CompoundAssignExpr &>(*s1.expr);
    EXPECT_EQ(ca.op, BinaryOp::Shl);
}

TEST(Parser, ForLoopPieces)
{
    Program p = parseProgram("for (var i = 0; i < 10; i++) { x = i; }");
    ASSERT_EQ(p.topLevel.size(), 1u);
    auto &loop = static_cast<ForStmt &>(*p.topLevel[0]);
    ASSERT_NE(loop.init, nullptr);
    ASSERT_NE(loop.cond, nullptr);
    ASSERT_NE(loop.update, nullptr);
    EXPECT_EQ(loop.update->kind, ExprKind::PostIncDec);
}

TEST(Parser, ForLoopEmptyClauses)
{
    Program p = parseProgram("for (;;) { break; }");
    auto &loop = static_cast<ForStmt &>(*p.topLevel[0]);
    EXPECT_EQ(loop.init, nullptr);
    EXPECT_EQ(loop.cond, nullptr);
    EXPECT_EQ(loop.update, nullptr);
}

TEST(Parser, MemberIndexCallChain)
{
    Program p = parseProgram("y = obj.values[i].length;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(exprToString(*stmt.expr), "y = obj.values[i].length");
}

TEST(Parser, MethodCall)
{
    Program p = parseProgram("s.charCodeAt(3);");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    auto &call = static_cast<CallExpr &>(*stmt.expr);
    EXPECT_EQ(call.callee->kind, ExprKind::Member);
    ASSERT_EQ(call.args.size(), 1u);
}

TEST(Parser, ArrayAndObjectLiterals)
{
    Program p = parseProgram("var a = [1, 2, 3], o = {x: 1, y: [2]};");
    auto &decl = static_cast<VarDeclStmt &>(*p.topLevel[0]);
    ASSERT_EQ(decl.decls.size(), 2u);
    EXPECT_EQ(decl.decls[0].second->kind, ExprKind::ArrayLit);
    EXPECT_EQ(decl.decls[1].second->kind, ExprKind::ObjectLit);
}

TEST(Parser, TernaryAndLogical)
{
    Program p = parseProgram("x = a && b ? c || d : e;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(exprToString(*stmt.expr),
              "x = ((a && b) ? (c || d) : e)");
}

TEST(Parser, WhileAndDoWhile)
{
    Program p = parseProgram("while (x) x--; do { x++; } while (x < 3);");
    EXPECT_EQ(p.topLevel[0]->kind, StmtKind::While);
    EXPECT_EQ(p.topLevel[1]->kind, StmtKind::DoWhile);
}

TEST(Parser, IfElseChain)
{
    Program p = parseProgram("if (a) x = 1; else if (b) x = 2; else x = 3;");
    auto &stmt = static_cast<IfStmt &>(*p.topLevel[0]);
    ASSERT_NE(stmt.elseStmt, nullptr);
    EXPECT_EQ(stmt.elseStmt->kind, StmtKind::If);
}

TEST(Parser, UnaryChain)
{
    Program p = parseProgram("x = -~!y;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    EXPECT_EQ(exprToString(*stmt.expr), "x = -(~(!(y)))");
}

TEST(Parser, TypeofOperator)
{
    Program p = parseProgram("t = typeof x;");
    auto &stmt = static_cast<ExpressionStmt &>(*p.topLevel[0]);
    auto &un = static_cast<UnaryExpr &>(
        *static_cast<AssignExpr &>(*stmt.expr).value);
    EXPECT_EQ(un.op, UnaryOp::Typeof);
}

TEST(Parser, PreAndPostIncrement)
{
    Program p = parseProgram("++a; a++; --b[i]; obj.x--;");
    EXPECT_EQ(static_cast<ExpressionStmt &>(*p.topLevel[0]).expr->kind,
              ExprKind::PreIncDec);
    EXPECT_EQ(static_cast<ExpressionStmt &>(*p.topLevel[1]).expr->kind,
              ExprKind::PostIncDec);
    EXPECT_EQ(static_cast<ExpressionStmt &>(*p.topLevel[2]).expr->kind,
              ExprKind::PreIncDec);
    EXPECT_EQ(static_cast<ExpressionStmt &>(*p.topLevel[3]).expr->kind,
              ExprKind::PostIncDec);
}

TEST(Parser, SyntaxErrors)
{
    EXPECT_THROW(parseProgram("var = 3;"), FatalError);
    EXPECT_THROW(parseProgram("function () {}"), FatalError);
    EXPECT_THROW(parseProgram("if (x { }"), FatalError);
    EXPECT_THROW(parseProgram("1 = 2;"), FatalError);
    EXPECT_THROW(parseProgram("++1;"), FatalError);
    EXPECT_THROW(parseProgram("x = [1, 2;"), FatalError);
}

/** @p open repeated @p n times, then @p middle, then @p close n times. */
std::string
nested(const std::string &open, size_t n, const std::string &middle,
       const std::string &close)
{
    std::string out;
    for (size_t i = 0; i < n; ++i)
        out += open;
    out += middle;
    for (size_t i = 0; i < n; ++i)
        out += close;
    return out;
}

/** The FatalError message @p source raises, or "" if it parses. */
std::string
parseError(const std::string &source)
{
    try {
        parseProgram(source);
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

TEST(Parser, NestingWithinTheLimitParses)
{
    // Each brace is one statement level, so the limit is exact here.
    size_t limit = Parser::kMaxNesting;
    EXPECT_EQ(parseError(nested("{", limit, "", "}")), "");
    EXPECT_NE(parseError(nested("{", limit + 1, "", "}")), "");

    size_t n = limit / 2;
    EXPECT_EQ(parseError("x = " + nested("(", n, "1", ")") + ";"), "");
    EXPECT_EQ(parseError("x = " + nested("[", n, "", "]") + ";"), "");
    EXPECT_EQ(parseError("x = " + nested("- ", n, "1", "") + ";"), "");
}

TEST(Parser, TooDeepNestingIsAFatalError)
{
    size_t n = 200000;
    const std::vector<std::string> sources = {
        "var x = " + nested("(", n, "1", ")") + ";",
        "var x = " + nested("[", n, "1", "]") + ";",
        "var x = " + nested("{a: ", n, "1", "}") + ";",
        "var x = " + nested("- ", n, "1", "") + ";",
        "var x = " + nested("!", n, "true", "") + ";",
        nested("{", n, "", "}"),
        nested("if (x) ", n, "y = 1;", ""),
        "var a; " + nested("a = ", n, "1", "") + ";",
        "var a; " + nested("a += ", n, "1", "") + ";",
        "var x = " + nested("a ? b : ", n, "c", "") + ";",
        "var x = " + nested("a ? ", n, "b", " : c") + ";",
        "var x = " + nested("1 + ", n, "1", "") + ";",
        "var o = {}; var x = o" + nested(".a", n, "", "") + ";",
    };
    for (const std::string &source : sources) {
        std::string error = parseError(source);
        EXPECT_NE(error.find("line 1: nesting too deep"), std::string::npos)
            << source.substr(0, 24) << "...: '" << error << "'";
    }
    // The line is the one the limit was crossed on.
    EXPECT_NE(parseError("\n\n" + nested("(", n, "1", ")"))
                  .find("line 3: nesting too deep"),
              std::string::npos);
}

TEST(Parser, SwitchClauses)
{
    Program p = parseProgram(
        "switch (x) { case 1: a = 1; break; case 2: case 3: a = 2;"
        " break; default: a = 9; }");
    ASSERT_EQ(p.topLevel.size(), 1u);
    auto &sw = static_cast<SwitchStmt &>(*p.topLevel[0]);
    ASSERT_EQ(sw.clauses.size(), 4u);
    EXPECT_NE(sw.clauses[0].test, nullptr);
    EXPECT_EQ(sw.clauses[1].body.size(), 0u); // Empty fall-through.
    EXPECT_EQ(sw.clauses[3].test, nullptr);   // default.
}

TEST(Parser, SwitchErrors)
{
    EXPECT_THROW(
        parseProgram("switch (x) { default: ; default: ; }"),
        FatalError);
    EXPECT_THROW(parseProgram("switch (x) { foo; }"), FatalError);
}

TEST(Parser, BreakContinueReturn)
{
    Program p = parseProgram(
        "function f() { while (1) { if (x) break; continue; } return; }");
    ASSERT_EQ(p.functions.size(), 1u);
    EXPECT_EQ(p.functions[0]->body[0]->kind, StmtKind::While);
}

} // namespace
} // namespace nomap
