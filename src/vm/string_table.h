#ifndef NOMAP_VM_STRING_TABLE_H
#define NOMAP_VM_STRING_TABLE_H

/**
 * @file
 * Interned, immutable string storage. Value::string payloads index
 * into this table, so string identity compares are integer compares
 * and strings never participate in transactional rollback.
 */

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

namespace nomap {

/** Owns every distinct string the VM has seen. */
class StringTable
{
  public:
    StringTable();

    /** Intern @p s, returning its stable id. */
    uint32_t intern(const std::string &s);

    /**
     * Look up the text for an id. The reference stays valid across
     * later intern() calls (storage is a deque, which never moves
     * existing elements) — builtins hold these references while
     * interning results.
     */
    const std::string &get(uint32_t id) const;

    /** True if the string is already interned (test helper). */
    bool isInterned(const std::string &s) const;

    size_t size() const { return strings.size(); }

  private:
    std::deque<std::string> strings;
    std::unordered_map<std::string, uint32_t> ids;
};

} // namespace nomap

#endif // NOMAP_VM_STRING_TABLE_H
