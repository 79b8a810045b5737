#ifndef NOMAP_VM_SHAPE_H
#define NOMAP_VM_SHAPE_H

/**
 * @file
 * Hidden classes ("shapes", JavaScriptCore calls them Structures).
 *
 * A Shape maps property names to slot offsets. Objects that acquire
 * the same properties in the same order share a Shape, so the FTL
 * tier's *property checks* reduce to a single shape-id compare — the
 * exact check kind Figure 3 of the paper counts as "Property".
 * Shapes are arranged in a transition tree rooted at the empty shape.
 */

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace nomap {

/** Invalid shape sentinel. */
constexpr uint32_t kInvalidShape = 0xffffffffu;

/** One node in the shape transition tree. */
struct Shape {
    uint32_t id = 0;
    uint32_t parent = kInvalidShape;
    /** Property name (string id) added by this shape; empty on root. */
    uint32_t addedName = 0;
    /** Slot index assigned to addedName. */
    uint32_t addedSlot = 0;
    /** Number of slots objects with this shape have. */
    uint32_t slotCount = 0;
    /** name id -> child shape id for property additions. */
    std::unordered_map<uint32_t, uint32_t> transitions;
};

/** Owns all shapes; provides the transition machinery. */
class ShapeTable
{
  public:
    ShapeTable();

    /** The empty root shape (every new object starts here). */
    uint32_t rootShape() const { return 0; }

    /**
     * Slot offset of property @p name_id in shape @p shape_id, or -1
     * if the shape has no such property.
     */
    int32_t lookup(uint32_t shape_id, uint32_t name_id) const;

    /**
     * Shape reached by adding property @p name_id to @p shape_id
     * (creating the transition if needed). Outputs the new slot.
     */
    uint32_t transition(uint32_t shape_id, uint32_t name_id,
                        uint32_t *slot_out);

    /** Slot count for a shape. */
    uint32_t slotCount(uint32_t shape_id) const;

    size_t size() const { return shapes.size(); }

  private:
    std::vector<Shape> shapes;
};

} // namespace nomap

#endif // NOMAP_VM_SHAPE_H
