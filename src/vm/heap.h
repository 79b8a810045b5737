#ifndef NOMAP_VM_HEAP_H
#define NOMAP_VM_HEAP_H

/**
 * @file
 * The VM heap: objects, arrays, and globals.
 *
 * Every allocation receives an *abstract address* from a bump
 * allocator so the cache and HTM simulators can reason about line
 * granularity and set conflicts. Array storage gets a fresh address
 * region when it is reallocated by elongation, mirroring real
 * allocator behaviour.
 *
 * The heap implements RollbackClient: while a hardware transaction is
 * open it records a logical undo entry for every mutation, and
 * txRollback() restores the pre-transaction state exactly. This is
 * what makes a NoMap transactional abort safe: the Baseline tier
 * re-executes the aborted region against unmodified memory.
 *
 * No garbage collector is provided (benchmark programs run in a fresh
 * heap per Engine; JSC's GC is orthogonal to the SMP mechanism under
 * study).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "htm/transaction.h"
#include "memsim/addr.h"
#include "support/logging.h"
#include "vm/shape.h"
#include "vm/string_table.h"
#include "vm/value.h"

namespace nomap {

/** An ordinary JavaScript object: shape id + property slots. */
struct JsObject {
    uint32_t shape = 0;
    std::vector<Value> slots;
    Addr baseAddr = 0; ///< Address of the slot storage.
};

/**
 * A JavaScript array. `storage` is contiguous; reads past `length`
 * yield undefined, writes past `length` elongate (possibly creating
 * holes, which are stored as undefined and flagged).
 */
struct JsArray {
    std::vector<Value> storage;
    bool hasHoles = false;
    Addr baseAddr = 0; ///< Address of element 0 (moves on realloc).

    uint32_t length() const
    {
        return static_cast<uint32_t>(storage.size());
    }
};

/** Heap statistics (allocation counts, undo-log high-water mark). */
struct HeapStats {
    uint64_t objectsAllocated = 0;
    uint64_t arraysAllocated = 0;
    uint64_t undoEntriesLogged = 0;
    uint64_t rollbacks = 0;
};

/**
 * The heap. Also owns the global-variable table, since globals are
 * memory that transactions must roll back too.
 */
class Heap : public RollbackClient
{
  public:
    /**
     * @param shapes Shape table shared with the compiler tiers.
     * @param strings String table for property names.
     */
    Heap(ShapeTable &shapes, StringTable &strings);

    // ---- Allocation ---------------------------------------------------
    /** Allocate an empty object; returns its Value. */
    Value allocObject();

    /** Allocate an array of @p length undefined elements. */
    Value allocArray(uint32_t length = 0);

    // Defined in the header: these sit under every executor memory
    // op (tens of millions of calls per benchmark pass), so they must
    // inline into the dispatch loops.
    JsObject &
    object(uint32_t id)
    {
        NOMAP_ASSERT(id < objects.size());
        return *objects[id];
    }

    const JsObject &
    object(uint32_t id) const
    {
        NOMAP_ASSERT(id < objects.size());
        return *objects[id];
    }

    JsArray &
    array(uint32_t id)
    {
        NOMAP_ASSERT(id < arrays.size());
        return *arrays[id];
    }

    const JsArray &
    array(uint32_t id) const
    {
        NOMAP_ASSERT(id < arrays.size());
        return *arrays[id];
    }

    // ---- Object properties (all transactional-aware) ------------------
    /**
     * Read property @p name_id. Returns undefined if absent.
     * @param addr_out If non-null, receives the slot address touched
     *        (0 when the property is absent).
     */
    Value getProperty(uint32_t obj_id, uint32_t name_id,
                      Addr *addr_out = nullptr) const;

    /**
     * Write property @p name_id, adding it (with a shape transition)
     * if absent. @param addr_out as in getProperty.
     */
    void setProperty(uint32_t obj_id, uint32_t name_id, Value v,
                     Addr *addr_out = nullptr);

    /** Direct slot read (FTL fast path after a shape check). */
    Value
    getSlot(uint32_t obj_id, uint32_t slot) const
    {
        return object(obj_id).slots[slot];
    }

    /**
     * Direct slot write (FTL fast path after a shape check). Outside
     * a transaction neither the undo log nor the write set needs to
     * see the store, so it inlines to a plain assignment; the tracked
     * path (log + store + recordTxWrite, original order) is out of
     * line.
     */
    void
    setSlot(uint32_t obj_id, uint32_t slot, Value v)
    {
        if (logging || inTx()) {
            setSlotTracked(obj_id, slot, v);
            return;
        }
        object(obj_id).slots[slot] = v;
    }

    /** Address of an object slot (for the cache model). */
    Addr
    slotAddr(uint32_t obj_id, uint32_t slot) const
    {
        return object(obj_id).baseAddr + 8ull * slot;
    }

    // ---- Array elements ------------------------------------------------
    /**
     * Read element @p index with full JS semantics: out-of-bounds and
     * holes yield undefined. Never fails.
     */
    Value getElement(uint32_t arr_id, int64_t index,
                     Addr *addr_out = nullptr) const;

    /**
     * Write element @p index, elongating the array (creating holes)
     * when index >= length.
     */
    void setElement(uint32_t arr_id, int64_t index, Value v,
                    Addr *addr_out = nullptr);

    /** In-bounds fast-path read (FTL after a bounds check). */
    Value
    getElementFast(uint32_t arr_id, uint32_t index) const
    {
        return array(arr_id).storage[index];
    }

    /** In-bounds fast-path write (FTL after a bounds check); inline
     *  non-transactional store as in setSlot. */
    void
    setElementFast(uint32_t arr_id, uint32_t index, Value v)
    {
        if (logging || inTx()) {
            setElementFastTracked(arr_id, index, v);
            return;
        }
        array(arr_id).storage[index] = v;
    }

    /** Address of array element (for the cache model). */
    Addr
    elementAddr(uint32_t arr_id, uint32_t index) const
    {
        return array(arr_id).baseAddr + 8ull * index;
    }

    /** array.push(v): append, returns new length. */
    uint32_t arrayPush(uint32_t arr_id, Value v);

    /** array.pop(): remove and return last element (undefined if empty). */
    Value arrayPop(uint32_t arr_id);

    // ---- Globals --------------------------------------------------------
    /** Index of global @p name (creating it, initially undefined). */
    uint32_t globalIndex(const std::string &name);

    /** Number of globals defined so far. */
    uint32_t globalCount() const
    {
        return static_cast<uint32_t>(globals.size());
    }

    Value
    getGlobal(uint32_t index) const
    {
        NOMAP_ASSERT(index < globals.size());
        return globals[index];
    }

    void
    setGlobal(uint32_t index, Value v)
    {
        NOMAP_ASSERT(index < globals.size());
        if (logging || inTx()) {
            setGlobalTracked(index, v);
            return;
        }
        globals[index] = v;
    }

    Addr
    globalAddr(uint32_t index) const
    {
        return globalsBase + 8ull * index;
    }

    /** Look up a global index without creating it; -1 if absent. */
    int32_t findGlobal(const std::string &name) const;

    /**
     * Name of global @p index ("" if out of range). Linear scan over
     * the name map: meant for snapshot/capture paths (program cache),
     * not execution.
     */
    std::string
    globalName(uint32_t index) const
    {
        for (const auto &entry : globalNames) {
            if (entry.second == index)
                return entry.first;
        }
        return std::string();
    }

    // ---- RollbackClient -------------------------------------------------
    void txCheckpoint() override;
    void txRollback() override;
    void txDiscardLog() override;

    /** Attach the HTM manager so writes inside transactions log undo. */
    void setTransactionManager(TransactionManager *tm) { htm = tm; }

    ShapeTable &shapeTable() { return shapes; }
    StringTable &stringTable() { return strings; }
    const StringTable &stringTable() const { return strings; }
    const HeapStats &stats() const { return statsData; }

    /** Render a value for host consumption (tests, print builtin). */
    std::string valueToDisplayString(Value v) const;

  private:
    bool inTx() const { return htm && htm->inTransaction(); }

    // Out-of-line halves of the inline write fast paths: undo-log the
    // old value, store, and record the transactional write.
    void setSlotTracked(uint32_t obj_id, uint32_t slot, Value v);
    void setElementFastTracked(uint32_t arr_id, uint32_t index,
                               Value v);
    void setGlobalTracked(uint32_t index, Value v);

    Addr allocAddr(uint64_t bytes);

    /**
     * Register a transactional store with the HTM write set. Throws
     * TxAbortUnwind if the write overflows transaction capacity (the
     * manager has already aborted and rolled this heap back).
     */
    void recordTxWrite(Addr addr);

    // ---- Undo log -------------------------------------------------------
    enum class UndoKind : uint8_t {
        ObjectSlot,   ///< Restore object slot value.
        ObjectShape,  ///< Restore shape + pop appended slot.
        ArrayElem,    ///< Restore array element value.
        ArrayResize,  ///< Restore array length/holes/address.
        GlobalVar,    ///< Restore global value.
    };

    struct UndoEntry {
        UndoKind kind;
        uint32_t id = 0;      ///< Object/array/global id.
        uint32_t index = 0;   ///< Slot or element index.
        Value oldValue;       ///< Previous value (or shape id bits).
        uint32_t oldShape = 0;
        uint32_t oldLength = 0;
        bool oldHasHoles = false;
        Addr oldBaseAddr = 0;
    };

    void logObjectSlot(uint32_t obj_id, uint32_t slot);
    void logArrayElem(uint32_t arr_id, uint32_t index);
    void logArrayResize(uint32_t arr_id);
    void logGlobal(uint32_t index);

    ShapeTable &shapes;
    StringTable &strings;
    TransactionManager *htm = nullptr;

    std::vector<std::unique_ptr<JsObject>> objects;
    std::vector<std::unique_ptr<JsArray>> arrays;
    std::vector<Value> globals;
    std::unordered_map<std::string, uint32_t> globalNames;
    Addr globalsBase = 0;

    Addr nextAddr = 0x10000; ///< Bump pointer; 0 stays "no address".
    std::vector<UndoEntry> undoLog;
    bool logging = false;

    HeapStats statsData;
};

} // namespace nomap

#endif // NOMAP_VM_HEAP_H
