#ifndef NOMAP_INTERP_EXEC_ENV_H
#define NOMAP_INTERP_EXEC_ENV_H

/**
 * @file
 * Shared execution environment threaded through all tier executors.
 *
 * Bundles the VM state (heap, runtime, builtins), the hardware models
 * (HTM manager, cache hierarchy), the accounting context, and the
 * call dispatcher that routes calls to the tier chosen by the engine's
 * tiering policy. Every executor shares one ExecEnv per engine —
 * interpreter/Baseline and the DFG/FTL chain executor
 * (src/jit/JitExecutor) — which is what makes their guest
 * observables comparable bit for bit in the differential tests.
 */

#include <vector>

#include "engine/accounting.h"
#include "htm/transaction.h"
#include "memsim/hierarchy.h"
#include "vm/builtins.h"
#include "vm/heap.h"
#include "vm/runtime.h"

namespace nomap {

struct CompiledProgram;

/**
 * Routes function calls through the engine so each call runs in the
 * callee's current best tier (and counts toward its hotness).
 */
class CallDispatcher
{
  public:
    virtual ~CallDispatcher() = default;

    /** Invoke function @p func_id with @p nargs arguments. */
    virtual Value call(uint32_t func_id, const Value *args,
                       uint32_t nargs) = 0;
};

/** Everything an executor needs, by reference. */
struct ExecEnv {
    Heap &heap;
    Runtime &runtime;
    Builtins &builtins;
    TransactionManager &htm;
    MemHierarchy &mem;
    Accounting &acct;
    CallDispatcher &dispatcher;
    /** Set by the engine once the program is compiled. */
    CompiledProgram *program = nullptr;
    /** Armed fault injector, or nullptr (the common case). */
    FaultInjector *inj = nullptr;
    /** Trace sink, or nullptr when tracing is disabled. */
    TraceBuffer *trace = nullptr;
    /** Per-operation (reference) instead of batched accounting. */
    bool perOpAccounting = false;
    /** Rewrite warm bytecode to quickened forms (EngineConfig). */
    bool quickening = true;
    /**
     * Recycled register-file storage for FrameLease: guest calls are
     * frequent and frames come in a handful of sizes, so executors
     * reuse vectors instead of paying a heap allocation per call.
     * Purely host-side — guest-visible behaviour is unchanged.
     */
    std::vector<std::vector<Value>> framePool{};
    /** Recycled overflow-flag storage (FlagLease; see framePool). */
    std::vector<std::vector<uint8_t>> flagPool{};

    /**
     * Model one data-memory access: cache timing, SW pinning for
     * transactional stores, and RTM read-set tracking / read latency
     * penalty. Write-set tracking happens centrally in the Heap.
     *
     * @param addr Byte address (0 = no memory touched; ignored).
     * @param is_write True for stores.
     */
    void
    memAccess(Addr addr, bool is_write)
    {
        if (addr == 0)
            return;
        bool in_tx = htm.inTransaction();
        uint32_t lat = mem.access(addr, is_write, is_write && in_tx);
        if (in_tx) {
            if (!is_write) {
                if (!htm.recordRead(addr))
                    throw TxAbortUnwind{AbortCode::Capacity};
                acct.chargeCycles((htm.readLatencyFactor() - 1.0) *
                                  static_cast<double>(lat));
            }
        }
        acct.chargeMemLatency(lat, mem.latency().l1Hit);
    }

    /**
     * Guard an irrevocable action (I/O). Inside a transaction this
     * aborts and unwinds to the transaction owner, which re-executes
     * non-transactionally in the Baseline tier.
     */
    void
    irrevocableEvent()
    {
        if (htm.inTransaction()) {
            acct.chargeCycles(htm.abort(AbortCode::Irrevocable));
            throw TxAbortUnwind{AbortCode::Irrevocable};
        }
    }
};

/**
 * RAII lease of a register file from ExecEnv::framePool. Acquires a
 * recycled vector (or a fresh one), sizes it to @p n slots of
 * undefined, and returns it to the pool on scope exit — including
 * exceptional unwinds, so aborts and deopts recycle frames too.
 */
class FrameLease
{
  public:
    FrameLease(ExecEnv &env, size_t n) : envRef(env)
    {
        if (!env.framePool.empty()) {
            frame = std::move(env.framePool.back());
            env.framePool.pop_back();
        }
        frame.assign(n, Value::undefined());
    }

    ~FrameLease() { envRef.framePool.push_back(std::move(frame)); }

    FrameLease(const FrameLease &) = delete;
    FrameLease &operator=(const FrameLease &) = delete;

    std::vector<Value> &regs() { return frame; }

  private:
    ExecEnv &envRef;
    std::vector<Value> frame;
};

/**
 * FrameLease's sibling for the IR executor's overflow-flag array:
 * leases a zero-filled byte vector from ExecEnv::flagPool and returns
 * it on scope exit.
 */
class FlagLease
{
  public:
    FlagLease(ExecEnv &env, size_t n) : envRef(env)
    {
        if (!env.flagPool.empty()) {
            store = std::move(env.flagPool.back());
            env.flagPool.pop_back();
        }
        store.assign(n, 0);
    }

    ~FlagLease() { envRef.flagPool.push_back(std::move(store)); }

    FlagLease(const FlagLease &) = delete;
    FlagLease &operator=(const FlagLease &) = delete;

    std::vector<uint8_t> &flags() { return store; }

  private:
    ExecEnv &envRef;
    std::vector<uint8_t> store;
};

} // namespace nomap

#endif // NOMAP_INTERP_EXEC_ENV_H
