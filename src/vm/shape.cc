#include "vm/shape.h"

#include "support/logging.h"

namespace nomap {

ShapeTable::ShapeTable()
{
    Shape root;
    root.id = 0;
    root.slotCount = 0;
    shapes.push_back(std::move(root));
}

int32_t
ShapeTable::lookup(uint32_t shape_id, uint32_t name_id) const
{
    NOMAP_ASSERT(shape_id < shapes.size());
    uint32_t cur = shape_id;
    while (cur != kInvalidShape) {
        const Shape &shape = shapes[cur];
        if (cur != 0 && shape.addedName == name_id)
            return static_cast<int32_t>(shape.addedSlot);
        cur = shape.parent;
    }
    return -1;
}

uint32_t
ShapeTable::transition(uint32_t shape_id, uint32_t name_id,
                       uint32_t *slot_out)
{
    NOMAP_ASSERT(shape_id < shapes.size());
    NOMAP_ASSERT(lookup(shape_id, name_id) < 0);

    auto it = shapes[shape_id].transitions.find(name_id);
    if (it != shapes[shape_id].transitions.end()) {
        const Shape &child = shapes[it->second];
        if (slot_out)
            *slot_out = child.addedSlot;
        return child.id;
    }

    Shape child;
    child.id = static_cast<uint32_t>(shapes.size());
    child.parent = shape_id;
    child.addedName = name_id;
    child.addedSlot = shapes[shape_id].slotCount;
    child.slotCount = shapes[shape_id].slotCount + 1;
    uint32_t child_id = child.id;
    if (slot_out)
        *slot_out = child.addedSlot;
    shapes.push_back(std::move(child));
    shapes[shape_id].transitions.emplace(name_id, child_id);
    return child_id;
}

uint32_t
ShapeTable::slotCount(uint32_t shape_id) const
{
    NOMAP_ASSERT(shape_id < shapes.size());
    return shapes[shape_id].slotCount;
}

} // namespace nomap
