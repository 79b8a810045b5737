#ifndef NOMAP_BENCH_NOMAP_BENCH_GEN_H
#define NOMAP_BENCH_NOMAP_BENCH_GEN_H

/**
 * @file
 * Seeded program generator owned by the benchmark.
 *
 * Kept apart from tests/testing/program_generator.h on purpose: that
 * generator's output is a test contract, while these shapes are tuned
 * to load particular layers (compile pipeline, transactions, program
 * cache) and may be retuned together with BENCHMARK.json.
 *
 * Every program is deterministic in its seed, terminates, prints
 * nothing, and leaves its answer in the `result` global.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "support/random.h"

namespace nomap {
namespace bench {

/** SplitMix64 finalizer: decorrelates (seed, index) pairs. */
inline uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Generator for the cold-start / heavy and hot program shapes. */
class BenchProgramGenerator
{
  public:
    explicit BenchProgramGenerator(uint64_t seed) : rng(seed) {}

    /**
     * A compile-heavy program: @p functions functions (8..16 when 0),
     * each called 64 times, each with an int-array loop of at least 8
     * trips. Baseline back edges carry every function to DFG by its
     * 8th call; from there only calls count, so FTL lands by call 52.
     * One function in four is handed a double array for its last 8
     * calls: its FTL code speculated int elements, so Base deopts and
     * NoMap aborts, and 8 straight aborts make NoMap recompile the
     * function without transactions.
     */
    std::string
    cold(int functions = 0)
    {
        if (functions <= 0)
            functions = 8 + static_cast<int>(rng.nextBounded(9));
        return program(functions, 64, 8, 16, 4, true);
    }

    /**
     * A small program that stays below FTL: 2..3 functions called 10
     * times over arrays of 6..12 elements, at most two loops each, so
     * hotness peaks near 40 against the FTL threshold of 60.
     */
    std::string
    hot()
    {
        int functions = 2 + static_cast<int>(rng.nextBounded(2));
        return program(functions, 10, 6, 12, 2, false);
    }

  private:
    std::string
    program(int functions, int calls, int min_len, int max_len,
            int max_stmts, bool flips)
    {
        std::ostringstream out;
        int span = max_len - min_len + 1;
        int len_a = min_len + static_cast<int>(rng.nextBounded(span));
        int len_b = min_len + static_cast<int>(rng.nextBounded(span));
        out << "var A = [];\n"
            << "for (var i0 = 0; i0 < " << len_a << "; i0++) A[i0] = (i0 * "
            << (1 + rng.nextBounded(13)) << ") % "
            << (3 + rng.nextBounded(97)) << ";\n";
        if (flips) {
            out << "var D = [];\n"
                << "for (var i1 = 0; i1 < " << len_a
                << "; i1++) D[i1] = A[i1] + 0.5;\n";
        }
        out << "var B = [];\n"
            << "for (var i2 = 0; i2 < " << len_b << "; i2++) B[i2] = (i2 % "
            << (2 + rng.nextBounded(9)) << ") * 0.5;\n"
            << "var O = {p: " << rng.nextBounded(50)
            << ", q: " << rng.nextBounded(50) << ", acc: 0};\n";

        int loops_left = 0;
        for (int f = 0; f < functions; ++f) {
            out << "function f" << f << "(a, b, o, k) {\n"
                << "    var s = 0;\n";
            // The first statement always loops over `a`: it drives the
            // back-edge hotness and is where a type flip lands.
            loops_left = flips ? max_stmts : 2;
            emitStatement(out, 0, 0, len_a, len_b, &loops_left);
            int extra = static_cast<int>(rng.nextBounded(max_stmts));
            for (int i = 1; i <= extra; ++i)
                emitStatement(out, i, static_cast<int>(rng.nextBounded(6)),
                              len_a, len_b, &loops_left);
            out << "    o.acc = (o.acc + s) % 100000;\n"
                << "    return s % 1000000;\n"
                << "}\n";
        }

        out << "var out = 0;\n"
            << "for (var c = 0; c < " << calls << "; c++) {\n"
            << "    var k = c % 7;\n";
        for (int f = 0; f < functions; ++f) {
            const char *arr = flips && f % 4 == 3 ? "(c < 56 ? A : D)" : "A";
            out << "    out = (out + f" << f << "(" << arr
                << ", B, O, k)) % 16777216;\n";
        }
        out << "}\n"
            << "result = out + O.acc;\n";
        return out.str();
    }

    /**
     * One statement of a function body. Loop kinds degrade to
     * straight-line kinds once @p loops_left is spent, which is how
     * hot programs stay below the FTL threshold.
     */
    void
    emitStatement(std::ostringstream &out, int idx, int kind, int len_a,
                  int len_b, int *loops_left)
    {
        bool loop = kind == 0 || kind == 1 || kind == 2 || kind == 5;
        if (loop && *loops_left == 0)
            kind = 3 + static_cast<int>(rng.nextBounded(2));
        else if (loop)
            --*loops_left;
        switch (kind) {
          case 0: // Int array reduction.
            out << "    for (var x" << idx << " = 0; x" << idx
                << " < a.length; x" << idx << "++) { s = (s + a[x" << idx
                << "] * " << (1 + rng.nextBounded(7)) << ") % 1000000; }\n";
            break;
          case 1: // Double array reduction.
            out << "    var d" << idx << " = 0;\n"
                << "    for (var y" << idx << " = 0; y" << idx
                << " < b.length; y" << idx << "++) { d" << idx << " += b[y"
                << idx << "] * 1.25; }\n"
                << "    s = (s + Math.floor(d" << idx << ")) % 1000000;\n";
            break;
          case 2: // Read-modify-write over the array.
            out << "    for (var z" << idx << " = 0; z" << idx
                << " < a.length; z" << idx << "++) { a[z" << idx
                << "] = (a[z" << idx << "] + " << rng.nextBounded(5)
                << ") % 251; }\n";
            break;
          case 3: // Property arithmetic.
            out << "    s = (s + o.p * " << (1 + rng.nextBounded(4))
                << " + o.q) % 1000000;\n";
            break;
          case 4: // Bit mixing with the parameter.
            out << "    s = (s ^ ((k << " << (1 + rng.nextBounded(5))
                << ") | (s >> " << (1 + rng.nextBounded(4))
                << "))) & 1048575;\n";
            break;
          case 5: // Conditional accumulate over the shorter array.
            out << "    for (var w" << idx << " = 0; w" << idx << " < "
                << std::min(len_a, len_b) << "; w" << idx << "++) { if (a[w"
                << idx << "] > " << rng.nextBounded(40) << ") s = (s + w"
                << idx << ") % 1000000; }\n";
            break;
        }
    }

    Xorshift64Star rng;
};

} // namespace bench
} // namespace nomap

#endif // NOMAP_BENCH_NOMAP_BENCH_GEN_H
