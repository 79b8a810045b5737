#include "vm/heap.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/logging.h"

namespace nomap {

Heap::Heap(ShapeTable &shapes_, StringTable &strings_)
    : shapes(shapes_), strings(strings_)
{
    globalsBase = allocAddr(8ull * 4096); // Room for 4096 globals.
}

Addr
Heap::allocAddr(uint64_t bytes)
{
    // Line-align every allocation so distinct allocations never share
    // a cache line (keeps footprint accounting conservative and easy
    // to reason about).
    Addr base = nextAddr;
    uint64_t rounded = (bytes + kLineSize - 1) & ~uint64_t(kLineSize - 1);
    nextAddr += rounded ? rounded : kLineSize;
    return base;
}

Value
Heap::allocObject()
{
    auto obj = std::make_unique<JsObject>();
    obj->shape = shapes.rootShape();
    obj->baseAddr = allocAddr(8ull * 16); // Room for 16 inline slots.
    uint32_t id = static_cast<uint32_t>(objects.size());
    objects.push_back(std::move(obj));
    ++statsData.objectsAllocated;
    return Value::object(id);
}

Value
Heap::allocArray(uint32_t length)
{
    auto arr = std::make_unique<JsArray>();
    arr->storage.assign(length, Value::undefined());
    arr->baseAddr = allocAddr(8ull * (length ? length : 4));
    uint32_t id = static_cast<uint32_t>(arrays.size());
    arrays.push_back(std::move(arr));
    ++statsData.arraysAllocated;
    return Value::array(id);
}

void
Heap::recordTxWrite(Addr addr)
{
    if (!inTx() || addr == 0)
        return;
    if (!htm->recordWrite(addr)) {
        // Capacity abort: memory is already rolled back (recordWrite
        // invoked our txRollback through the client interface).
        throw TxAbortUnwind{AbortCode::Capacity};
    }
}

// ---- Undo logging -------------------------------------------------------

void
Heap::logObjectSlot(uint32_t obj_id, uint32_t slot)
{
    if (!logging)
        return;
    UndoEntry e;
    e.kind = UndoKind::ObjectSlot;
    e.id = obj_id;
    e.index = slot;
    e.oldValue = object(obj_id).slots[slot];
    undoLog.push_back(e);
    ++statsData.undoEntriesLogged;
}

void
Heap::logArrayElem(uint32_t arr_id, uint32_t index)
{
    if (!logging)
        return;
    UndoEntry e;
    e.kind = UndoKind::ArrayElem;
    e.id = arr_id;
    e.index = index;
    e.oldValue = array(arr_id).storage[index];
    undoLog.push_back(e);
    ++statsData.undoEntriesLogged;
}

void
Heap::logArrayResize(uint32_t arr_id)
{
    if (!logging)
        return;
    const JsArray &arr = array(arr_id);
    UndoEntry e;
    e.kind = UndoKind::ArrayResize;
    e.id = arr_id;
    e.oldLength = arr.length();
    e.oldHasHoles = arr.hasHoles;
    e.oldBaseAddr = arr.baseAddr;
    undoLog.push_back(e);
    ++statsData.undoEntriesLogged;
}

void
Heap::logGlobal(uint32_t index)
{
    if (!logging)
        return;
    UndoEntry e;
    e.kind = UndoKind::GlobalVar;
    e.id = index;
    e.oldValue = globals[index];
    undoLog.push_back(e);
    ++statsData.undoEntriesLogged;
}

void
Heap::txCheckpoint()
{
    NOMAP_ASSERT(!logging);
    undoLog.clear();
    logging = true;
}

void
Heap::txRollback()
{
    NOMAP_ASSERT(logging);
    for (auto it = undoLog.rbegin(); it != undoLog.rend(); ++it) {
        const UndoEntry &e = *it;
        switch (e.kind) {
          case UndoKind::ObjectSlot:
            object(e.id).slots[e.index] = e.oldValue;
            break;
          case UndoKind::ObjectShape: {
            JsObject &obj = object(e.id);
            obj.shape = e.oldShape;
            obj.slots.resize(shapes.slotCount(e.oldShape));
            break;
          }
          case UndoKind::ArrayElem:
            array(e.id).storage[e.index] = e.oldValue;
            break;
          case UndoKind::ArrayResize: {
            JsArray &arr = array(e.id);
            arr.storage.resize(e.oldLength);
            arr.hasHoles = e.oldHasHoles;
            arr.baseAddr = e.oldBaseAddr;
            break;
          }
          case UndoKind::GlobalVar:
            globals[e.id] = e.oldValue;
            break;
        }
    }
    undoLog.clear();
    logging = false;
    ++statsData.rollbacks;
}

void
Heap::txDiscardLog()
{
    NOMAP_ASSERT(logging);
    undoLog.clear();
    logging = false;
}

// ---- Object properties ----------------------------------------------------

Value
Heap::getProperty(uint32_t obj_id, uint32_t name_id, Addr *addr_out) const
{
    const JsObject &obj = object(obj_id);
    int32_t slot = shapes.lookup(obj.shape, name_id);
    if (slot < 0) {
        if (addr_out)
            *addr_out = 0;
        return Value::undefined();
    }
    if (addr_out)
        *addr_out = slotAddr(obj_id, static_cast<uint32_t>(slot));
    return obj.slots[static_cast<uint32_t>(slot)];
}

void
Heap::setProperty(uint32_t obj_id, uint32_t name_id, Value v,
                  Addr *addr_out)
{
    JsObject &obj = object(obj_id);
    int32_t slot = shapes.lookup(obj.shape, name_id);
    if (slot < 0) {
        // Shape transition: add the property.
        if (logging) {
            UndoEntry e;
            e.kind = UndoKind::ObjectShape;
            e.id = obj_id;
            e.oldShape = obj.shape;
            undoLog.push_back(e);
            ++statsData.undoEntriesLogged;
        }
        uint32_t new_slot = 0;
        obj.shape = shapes.transition(obj.shape, name_id, &new_slot);
        obj.slots.resize(shapes.slotCount(obj.shape), Value::undefined());
        obj.slots[new_slot] = v;
        recordTxWrite(slotAddr(obj_id, new_slot));
        if (addr_out)
            *addr_out = slotAddr(obj_id, new_slot);
        return;
    }
    logObjectSlot(obj_id, static_cast<uint32_t>(slot));
    obj.slots[static_cast<uint32_t>(slot)] = v;
    recordTxWrite(slotAddr(obj_id, static_cast<uint32_t>(slot)));
    if (addr_out)
        *addr_out = slotAddr(obj_id, static_cast<uint32_t>(slot));
}

void
Heap::setSlotTracked(uint32_t obj_id, uint32_t slot, Value v)
{
    logObjectSlot(obj_id, slot);
    object(obj_id).slots[slot] = v;
    recordTxWrite(slotAddr(obj_id, slot));
}

// ---- Array elements --------------------------------------------------------

Value
Heap::getElement(uint32_t arr_id, int64_t index, Addr *addr_out) const
{
    const JsArray &arr = array(arr_id);
    if (index < 0 || index >= static_cast<int64_t>(arr.length())) {
        if (addr_out)
            *addr_out = 0;
        return Value::undefined();
    }
    if (addr_out)
        *addr_out = elementAddr(arr_id, static_cast<uint32_t>(index));
    return arr.storage[static_cast<size_t>(index)];
}

void
Heap::setElement(uint32_t arr_id, int64_t index, Value v, Addr *addr_out)
{
    NOMAP_ASSERT(index >= 0);
    JsArray &arr = array(arr_id);
    if (index >= static_cast<int64_t>(arr.length())) {
        logArrayResize(arr_id);
        bool creates_hole = index > static_cast<int64_t>(arr.length());
        arr.storage.resize(static_cast<size_t>(index) + 1,
                           Value::undefined());
        if (creates_hole)
            arr.hasHoles = true;
        // Elongation reallocates the backing store: fresh addresses.
        arr.baseAddr = allocAddr(8ull * arr.storage.size());
    } else {
        logArrayElem(arr_id, static_cast<uint32_t>(index));
    }
    arr.storage[static_cast<size_t>(index)] = v;
    recordTxWrite(elementAddr(arr_id, static_cast<uint32_t>(index)));
    if (addr_out)
        *addr_out = elementAddr(arr_id, static_cast<uint32_t>(index));
}

void
Heap::setElementFastTracked(uint32_t arr_id, uint32_t index, Value v)
{
    logArrayElem(arr_id, index);
    array(arr_id).storage[index] = v;
    recordTxWrite(elementAddr(arr_id, index));
}

uint32_t
Heap::arrayPush(uint32_t arr_id, Value v)
{
    JsArray &arr = array(arr_id);
    logArrayResize(arr_id);
    arr.storage.push_back(v);
    recordTxWrite(elementAddr(arr_id, arr.length() - 1));
    return arr.length();
}

Value
Heap::arrayPop(uint32_t arr_id)
{
    JsArray &arr = array(arr_id);
    if (arr.storage.empty())
        return Value::undefined();
    // Log the element before the resize: rollback replays in reverse,
    // so the resize entry regrows the array first and the element
    // entry then restores the popped value.
    logArrayElem(arr_id, arr.length() - 1);
    logArrayResize(arr_id);
    Value v = arr.storage.back();
    arr.storage.pop_back();
    recordTxWrite(arr.baseAddr + 8ull * arr.length());
    return v;
}

// ---- Globals ----------------------------------------------------------------

uint32_t
Heap::globalIndex(const std::string &name)
{
    auto it = globalNames.find(name);
    if (it != globalNames.end())
        return it->second;
    uint32_t idx = static_cast<uint32_t>(globals.size());
    globals.push_back(Value::undefined());
    globalNames.emplace(name, idx);
    return idx;
}

int32_t
Heap::findGlobal(const std::string &name) const
{
    auto it = globalNames.find(name);
    return it == globalNames.end() ? -1
                                   : static_cast<int32_t>(it->second);
}

void
Heap::setGlobalTracked(uint32_t index, Value v)
{
    logGlobal(index);
    globals[index] = v;
    recordTxWrite(globalAddr(index));
}

// ---- Display -----------------------------------------------------------------

std::string
Heap::valueToDisplayString(Value v) const
{
    switch (v.kind()) {
      case ValueKind::Int32:
        return std::to_string(v.asInt32());
      case ValueKind::Double: {
        double d = v.asBoxedDouble();
        if (d != d)
            return "NaN";
        if (std::isinf(d))
            return d > 0 ? "Infinity" : "-Infinity";
        // JS prints integral values without an exponent up to 1e21.
        if (d == std::floor(d) && std::fabs(d) < 1e21) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.0f", d);
            return buf;
        }
        // Shortest round-trip representation.
        for (int prec = 1; prec <= 17; ++prec) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
            if (std::strtod(buf, nullptr) == d)
                return buf;
        }
        return "0";
      }
      case ValueKind::Boolean:
        return v.asBoolean() ? "true" : "false";
      case ValueKind::Undefined:
        return "undefined";
      case ValueKind::Null:
        return "null";
      case ValueKind::String:
        return strings.get(v.payload());
      case ValueKind::Object:
        return "[object Object]";
      case ValueKind::Array: {
        const JsArray &arr = array(v.payload());
        std::string out;
        for (uint32_t i = 0; i < arr.length(); ++i) {
            if (i)
                out += ",";
            Value elem = arr.storage[i];
            if (!elem.isUndefined())
                out += valueToDisplayString(elem);
        }
        return out;
      }
      case ValueKind::Function:
        return "[function]";
      case ValueKind::NativeFunction:
        return "[native function]";
    }
    return "?";
}

} // namespace nomap
