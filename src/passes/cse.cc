#include "passes/passes.h"

#include <algorithm>

#include "passes/analysis.h"

namespace nomap {

namespace {

/**
 * What an instruction computes, as a packed POD: equal keys name the
 * same value. `tag` is the op (pure ops and the four subsumable
 * loads are distinct ops), `x`/`y` operand versions or immediates,
 * and `z` an immediate or the memory epoch of the load's alias class.
 */
struct ValueKey {
    uint32_t tag = 0;
    uint32_t x = 0;
    uint32_t y = 0;
    uint32_t z = 0;

    bool
    operator==(const ValueKey &o) const
    {
        return tag == o.tag && x == o.x && y == o.y && z == o.z;
    }
};

/** Memory epochs per alias class for load value-numbering. */
struct MemEpochs {
    uint32_t objectSlots = 0;
    uint32_t arrayElems = 0;
    uint32_t globals = 0;
};

/**
 * Open-addressing map from ValueKey to the register holding the value
 * and that register's version when it was recorded (so entries whose
 * register was overwritten are rejected). One table serves every
 * block: clear() empties only the slots the block used.
 */
class AvailableValues
{
  public:
    struct Entry {
        ValueKey key;
        uint16_t reg = 0;
        bool used = false;
        uint32_t version = 0;
    };

    /** Size for blocks of up to @p max_instrs instructions. */
    explicit AvailableValues(size_t max_instrs)
    {
        size_t capacity = 16;
        while (capacity < 2 * max_instrs)
            capacity *= 2;
        slots.resize(capacity);
        mask = capacity - 1;
        usedSlots.reserve(max_instrs);
    }

    /** The entry for @p key, or nullptr. */
    const Entry *
    find(const ValueKey &key) const
    {
        for (size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const Entry &e = slots[i];
            if (!e.used)
                return nullptr;
            if (e.key == key)
                return &e;
        }
    }

    /** Record (or overwrite) @p key's value. */
    void
    put(const ValueKey &key, uint16_t reg, uint32_t version)
    {
        size_t i = hash(key) & mask;
        while (slots[i].used && !(slots[i].key == key))
            i = (i + 1) & mask;
        Entry &e = slots[i];
        if (!e.used) {
            e.used = true;
            e.key = key;
            usedSlots.push_back(static_cast<uint32_t>(i));
        }
        e.reg = reg;
        e.version = version;
    }

    void
    clear()
    {
        for (uint32_t i : usedSlots)
            slots[i].used = false;
        usedSlots.clear();
    }

  private:
    static size_t
    hash(const ValueKey &k)
    {
        uint64_t h = (uint64_t{k.tag} << 32 | k.x) * 0x9e3779b97f4a7c15ull;
        h ^= (uint64_t{k.y} << 32 | k.z) * 0xc2b2ae3d27d4eb4full;
        return static_cast<size_t>(h ^ (h >> 29));
    }

    std::vector<Entry> slots;
    std::vector<uint32_t> usedSlots;
    size_t mask = 0;
};

} // namespace

void
runLocalCse(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    size_t max_instrs = 0;
    for (const IrBlock &block : fn.blocks)
        max_instrs = std::max(max_instrs, block.instrs.size());
    AvailableValues available(max_instrs);

    // Value numbers per register; bumped on redefinition. Every
    // register starts with a *distinct* number (its own index) so
    // different registers never alias in lookup keys. Versions are
    // only compared within a block (the table is cleared between
    // blocks), so they carry over from block to block: all registers
    // keep distinct numbers, and fresh ones are larger than any held.
    std::vector<uint32_t> &reg_version = ctx.indices[0];
    reg_version.resize(fn.numRegs);
    for (uint16_t r = 0; r < fn.numRegs; ++r)
        reg_version[r] = r;
    uint32_t next_version = fn.numRegs;

    for (IrBlock &block : fn.blocks) {
        available.clear();
        MemEpochs epochs;

        for (IrInstr &instr : block.instrs) {
            // Un-converted SMPs: opaque — drop every memory fact (LLVM
            // patchpoint behaviour the paper identifies).
            if (instr.isCheck() && !instr.converted) {
                ++epochs.objectSlots;
                ++epochs.arrayElems;
                ++epochs.globals;
            }

            bool subsumable = true;
            ValueKey key;
            key.tag = static_cast<uint32_t>(instr.op);
            if (isPureValueOp(instr.op) && instr.op != IrOp::Move &&
                instr.op != IrOp::Const) {
                key.x = reg_version[instr.a];
                key.y = reg_version[instr.b];
                key.z = instr.imm;
            } else if (instr.op == IrOp::GetSlot) {
                key.x = reg_version[instr.a];
                key.y = instr.imm;
                key.z = epochs.objectSlots;
            } else if (instr.op == IrOp::GetArrayLen) {
                key.x = reg_version[instr.a];
                key.z = epochs.arrayElems;
            } else if (instr.op == IrOp::GetElem) {
                key.x = reg_version[instr.a];
                key.y = reg_version[instr.b];
                key.z = epochs.arrayElems;
            } else if (instr.op == IrOp::LoadGlobal) {
                key.y = instr.imm;
                key.z = epochs.globals;
            } else {
                subsumable = false;
            }

            if (subsumable) {
                const AvailableValues::Entry *hit = available.find(key);
                if (hit && reg_version[hit->reg] == hit->version) {
                    // Replace with a register copy.
                    uint16_t src = hit->reg;
                    uint16_t dst = instr.dst;
                    instr = IrInstr();
                    instr.op = IrOp::Move;
                    instr.dst = dst;
                    instr.a = src;
                    reg_version[dst] = next_version++;
                    // dst now shadows src's value: future lookups of
                    // the same key keep pointing at src.
                    ++stats.opsCseEliminated;
                    continue;
                }
            }

            // Effects on memory epochs.
            switch (instr.op) {
              case IrOp::SetSlot:
                ++epochs.objectSlots;
                break;
              case IrOp::SetElem:
                ++epochs.arrayElems;
                break;
              case IrOp::StoreGlobal:
                ++epochs.globals;
                break;
              default:
                if (isOpaqueCall(instr.op)) {
                    ++epochs.objectSlots;
                    ++epochs.arrayElems;
                    ++epochs.globals;
                }
                break;
            }

            int32_t def = defOf(instr);
            if (def >= 0) {
                auto reg = static_cast<uint16_t>(def);
                reg_version[reg] = next_version++;
                if (subsumable)
                    available.put(key, reg, reg_version[reg]);
            }
        }
    }
}

} // namespace nomap
