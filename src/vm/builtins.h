#ifndef NOMAP_VM_BUILTINS_H
#define NOMAP_VM_BUILTINS_H

/**
 * @file
 * Builtin (native) functions and methods.
 *
 * Free-standing builtins (Math.*, String.fromCharCode, print, ...) are
 * resolved to BuiltinId at bytecode-compile time and invoked through
 * Builtins::call. Methods on receivers (str.charCodeAt, arr.push, ...)
 * are dispatched at run time on the receiver's kind through
 * Builtins::callMethod.
 *
 * Math.random() is backed by the deterministic per-engine RNG so runs
 * are reproducible.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/random.h"
#include "vm/runtime.h"

namespace nomap {

/** Identifiers for compile-time-resolved builtins. */
enum class BuiltinId : uint8_t {
    MathAbs, MathFloor, MathCeil, MathSqrt, MathSin, MathCos, MathTan,
    MathAtan, MathAtan2, MathExp, MathLog, MathPow, MathMin, MathMax,
    MathRandom, MathRound,
    StringFromCharCode,
    Print,
    ParseInt, ParseFloat, IsNaN,
    NumBuiltins,
};

/**
 * Resolve "Object.member" (e.g. Math.sqrt) to a builtin id.
 * @return true and sets @p id_out when recognized.
 */
bool resolveBuiltin(const std::string &object, const std::string &member,
                    BuiltinId *id_out);

/** Resolve a bare global function name (print, parseInt, ...). */
bool resolveGlobalBuiltin(const std::string &name, BuiltinId *id_out);

/** Printable builtin name (diagnostics). */
const char *builtinName(BuiltinId id);

/** Executes builtins and builtin methods. */
class Builtins
{
  public:
    Builtins(Runtime &runtime, uint64_t rng_seed = 0x5eed);

    /** Invoke a compile-time-resolved builtin. */
    Value call(BuiltinId id, const Value *args, uint32_t nargs);

    /**
     * Invoke a method on @p receiver by interned name.
     * Unknown methods return undefined (sloppy).
     */
    Value callMethod(Value receiver, uint32_t name_id, const Value *args,
                     uint32_t nargs);

    /** Where print() output goes; default accumulates in a buffer. */
    void setPrintSink(std::function<void(const std::string &)> sink)
    {
        printSink = std::move(sink);
    }

    /** Accumulated print() output when no sink is installed. */
    const std::string &printedOutput() const { return printed; }

    /** Drop accumulated print() output (per-request stats reset). */
    void clearPrinted() { printed.clear(); }

  private:
    Value stringMethod(Value receiver, const std::string &name,
                       const Value *args, uint32_t nargs);
    Value arrayMethod(Value receiver, const std::string &name,
                      const Value *args, uint32_t nargs);

    Runtime &rt;
    Xorshift64Star rngState;
    std::function<void(const std::string &)> printSink;
    std::string printed;
};

} // namespace nomap

#endif // NOMAP_VM_BUILTINS_H
