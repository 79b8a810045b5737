#include "vm/string_table.h"

#include "support/logging.h"

namespace nomap {

StringTable::StringTable()
{
    // Id 0 is always the empty string.
    intern("");
}

uint32_t
StringTable::intern(const std::string &s)
{
    auto it = ids.find(s);
    if (it != ids.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(strings.size());
    strings.push_back(s);
    ids.emplace(s, id);
    return id;
}

const std::string &
StringTable::get(uint32_t id) const
{
    NOMAP_ASSERT(id < strings.size());
    return strings[id];
}

bool
StringTable::isInterned(const std::string &s) const
{
    return ids.count(s) > 0;
}

} // namespace nomap
