// Clock tree data model.
//
// A ClockTree is a rooted tree of nodes: one Source (the clock root), any
// number of Buffer nodes (inverters from the technology library — the paper
// builds buffers as inverter pairs, which here are simply two consecutive
// Buffer nodes), and Sink nodes (flip-flop clock pins). Node ids are stable
// across edits; removal soft-deletes.
//
// The paper's unit of global optimization is the *arc*: a maximal tree
// segment without branching (its s_j, Table 1). extractArcs() decomposes the
// tree so that every root-to-sink path is a concatenation of arcs and every
// buffer belongs to exactly one arc (interior single-child buffers belong to
// the arc passing through them; a branching buffer terminates the arc that
// reaches it).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geom/geom.h"

namespace skewopt::network {

enum class NodeKind { Source, Buffer, Sink };

struct ClockNode {
  NodeKind kind = NodeKind::Buffer;
  geom::Point pos;
  int cell = -1;  ///< library cell index; meaningful for buffers only
  int parent = -1;
  std::vector<int> children;
  std::string name;
  bool valid = true;
};

/// One unbranched tree segment (the paper's arc s_j).
///
/// `src` is the anchor driving the arc (the source or a branching buffer);
/// `dst` is the anchor terminating it (a branching buffer or a sink);
/// `interior` lists the single-child buffers strictly between them, in
/// driver-to-receiver order. The arc's delay is the latency from src's
/// output to dst's output (or to the sink pin when dst is a sink), so sink
/// latency is exactly the sum of arc delays along its root path.
struct Arc {
  int id = -1;
  int src = -1;
  int dst = -1;
  std::vector<int> interior;
  double direct_len_um = 0.0;  ///< Manhattan distance src->dst
};

class ClockTree {
 public:
  /// Creates the tree with its source node; returns nothing — the source is
  /// always node 0.
  explicit ClockTree(const geom::Point& source_pos,
                     std::string source_name = "clk_src");

  int root() const { return 0; }

  int addBuffer(int parent, const geom::Point& pos, int cell,
                std::string name = "");
  int addSink(int parent, const geom::Point& pos, std::string name = "");

  std::size_t numNodes() const { return nodes_.size(); }
  const ClockNode& node(int id) const { return nodes_[checked(id)]; }
  bool isValid(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < nodes_.size() &&
           nodes_[static_cast<std::size_t>(id)].valid;
  }

  /// All live node ids of a kind.
  std::vector<int> nodesOfKind(NodeKind kind) const;
  std::vector<int> sinks() const { return nodesOfKind(NodeKind::Sink); }
  std::vector<int> buffers() const { return nodesOfKind(NodeKind::Buffer); }
  std::size_t numBuffers() const;

  // --- edit operations (the local-move and ECO primitives) ---

  /// Moves a node to a new location (buffer displacement).
  void moveNode(int id, const geom::Point& pos);

  /// Changes a buffer's library cell (buffer sizing).
  void resize(int id, int cell);

  /// Tree surgery: detaches `id` from its parent and reattaches it under
  /// `new_parent` (paper's type-III move). `new_parent` must not be in the
  /// subtree of `id`.
  void reassignDriver(int id, int new_parent);

  /// reassignDriver placing `id` at child position `index` of `new_parent`
  /// (clamped to the child count). Trial rollback uses this to restore the
  /// exact original child order, which routed-net pin order depends on.
  void reassignDriverAt(int id, int new_parent, std::size_t index);

  /// Removes a single-child interior buffer, splicing its child to its
  /// parent (ECO buffer removal).
  void removeInteriorBuffer(int id);

  /// Removes a childless buffer.
  void removeLeafBuffer(int id);

  // --- structural queries ---

  /// Depth of `id` counted in buffer stages from the root (source = 0).
  int level(int id) const;

  /// Node ids from `id` up to and including the root.
  std::vector<int> pathToRoot(int id) const;

  /// True iff `anc` is `id` itself or an ancestor of `id`.
  bool isAncestorOrSelf(int anc, int id) const;

  /// Decomposes the tree into arcs (see Arc). Deterministic order.
  std::vector<Arc> extractArcs() const;

  /// Checks all structural invariants; returns true and leaves `err` empty
  /// on success, otherwise describes the first violation. The check
  /// subsystem's checkTreeStructure() is the diagnostic-code superset of
  /// this predicate.
  bool validate(std::string* err = nullptr) const;

  /// The underlying node array, including soft-deleted entries that node()
  /// refuses to hand out — the view an invariant checker needs.
  const std::vector<ClockNode>& rawNodes() const { return nodes_; }

  /// Unchecked mutable access that deliberately bypasses every invariant.
  /// Exists solely so corruption-seeding tests can fabricate ill-formed
  /// trees (cycles, dangling children, dead-node references) that the edit
  /// operations above refuse to create; never call it from flow code.
  ClockNode& corruptNodeForTest(int id) {
    return nodes_.at(static_cast<std::size_t>(id));
  }

 private:
  std::size_t checked(int id) const;
  ClockNode& mut(int id);
  void detach(int id);

  std::vector<ClockNode> nodes_;
};

}  // namespace skewopt::network
