#include "network/clock_tree.h"

#include <algorithm>
#include <stdexcept>

namespace skewopt::network {

ClockTree::ClockTree(const geom::Point& source_pos, std::string source_name) {
  ClockNode src;
  src.kind = NodeKind::Source;
  src.pos = source_pos;
  src.name = std::move(source_name);
  nodes_.push_back(std::move(src));
}

std::size_t ClockTree::checked(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(id)].valid)
    throw std::out_of_range("ClockTree: invalid node id " +
                            std::to_string(id));
  return static_cast<std::size_t>(id);
}

ClockNode& ClockTree::mut(int id) {
  return nodes_[checked(id)];
}

int ClockTree::addBuffer(int parent, const geom::Point& pos, int cell,
                         std::string name) {
  if (cell < 0) throw std::invalid_argument("addBuffer: cell required");
  checked(parent);
  ClockNode n;
  n.kind = NodeKind::Buffer;
  n.pos = pos;
  n.cell = cell;
  n.parent = parent;
  n.name = name.empty() ? "buf_" + std::to_string(nodes_.size())
                        : std::move(name);
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  mut(parent).children.push_back(id);
  return id;
}

int ClockTree::addSink(int parent, const geom::Point& pos, std::string name) {
  checked(parent);
  ClockNode n;
  n.kind = NodeKind::Sink;
  n.pos = pos;
  n.parent = parent;
  n.name = name.empty() ? "ff_" + std::to_string(nodes_.size())
                        : std::move(name);
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  mut(parent).children.push_back(id);
  return id;
}

std::vector<int> ClockTree::nodesOfKind(NodeKind kind) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].valid && nodes_[i].kind == kind)
      out.push_back(static_cast<int>(i));
  return out;
}

std::size_t ClockTree::numBuffers() const {
  std::size_t n = 0;
  for (const ClockNode& c : nodes_)
    if (c.valid && c.kind == NodeKind::Buffer) ++n;
  return n;
}

void ClockTree::moveNode(int id, const geom::Point& pos) {
  ClockNode& n = mut(id);
  if (n.kind == NodeKind::Source)
    throw std::invalid_argument("moveNode: cannot move the source");
  n.pos = pos;
}

void ClockTree::resize(int id, int cell) {
  ClockNode& n = mut(id);
  if (n.kind != NodeKind::Buffer)
    throw std::invalid_argument("resize: not a buffer");
  if (cell < 0) throw std::invalid_argument("resize: bad cell");
  n.cell = cell;
}

void ClockTree::detach(int id) {
  ClockNode& n = nodes_[checked(id)];
  if (n.parent >= 0) {
    auto& kids = nodes_[static_cast<std::size_t>(n.parent)].children;
    kids.erase(std::remove(kids.begin(), kids.end(), id), kids.end());
  }
  n.parent = -1;
}

void ClockTree::reassignDriver(int id, int new_parent) {
  checked(id);
  checked(new_parent);
  if (nodes_[static_cast<std::size_t>(id)].kind == NodeKind::Source)
    throw std::invalid_argument("reassignDriver: cannot reparent the source");
  if (isAncestorOrSelf(id, new_parent))
    throw std::invalid_argument(
        "reassignDriver: new parent is inside the moved subtree");
  detach(id);
  nodes_[static_cast<std::size_t>(id)].parent = new_parent;
  mut(new_parent).children.push_back(id);
}

void ClockTree::reassignDriverAt(int id, int new_parent, std::size_t index) {
  checked(id);
  checked(new_parent);
  if (nodes_[static_cast<std::size_t>(id)].kind == NodeKind::Source)
    throw std::invalid_argument("reassignDriver: cannot reparent the source");
  if (isAncestorOrSelf(id, new_parent))
    throw std::invalid_argument(
        "reassignDriver: new parent is inside the moved subtree");
  detach(id);
  nodes_[static_cast<std::size_t>(id)].parent = new_parent;
  auto& kids = mut(new_parent).children;
  kids.insert(kids.begin() + static_cast<long>(std::min(index, kids.size())),
              id);
}

void ClockTree::removeInteriorBuffer(int id) {
  ClockNode& n = mut(id);
  if (n.kind != NodeKind::Buffer)
    throw std::invalid_argument("removeInteriorBuffer: not a buffer");
  if (n.children.size() != 1)
    throw std::invalid_argument(
        "removeInteriorBuffer: buffer is not single-child");
  const int child = n.children.front();
  const int parent = n.parent;
  detach(child);
  nodes_[static_cast<std::size_t>(child)].parent = parent;
  mut(parent).children.push_back(child);
  detach(id);
  nodes_[static_cast<std::size_t>(id)].valid = false;
  nodes_[static_cast<std::size_t>(id)].children.clear();
}

void ClockTree::removeLeafBuffer(int id) {
  ClockNode& n = mut(id);
  if (n.kind != NodeKind::Buffer || !n.children.empty())
    throw std::invalid_argument("removeLeafBuffer: not a childless buffer");
  detach(id);
  nodes_[static_cast<std::size_t>(id)].valid = false;
}

int ClockTree::level(int id) const {
  checked(id);
  int lvl = 0;
  for (int cur = id; nodes_[static_cast<std::size_t>(cur)].parent >= 0;
       cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    if (nodes_[static_cast<std::size_t>(cur)].kind == NodeKind::Buffer) ++lvl;
  }
  return lvl;
}

std::vector<int> ClockTree::pathToRoot(int id) const {
  checked(id);
  std::vector<int> path;
  for (int cur = id; cur >= 0;
       cur = nodes_[static_cast<std::size_t>(cur)].parent)
    path.push_back(cur);
  return path;
}

bool ClockTree::isAncestorOrSelf(int anc, int id) const {
  checked(anc);
  for (int cur = id; cur >= 0;
       cur = nodes_[static_cast<std::size_t>(cur)].parent)
    if (cur == anc) return true;
  return false;
}

std::vector<Arc> ClockTree::extractArcs() const {
  // Anchors: the source, every branching node, every sink. An arc starts at
  // each anchor and follows each child chain through single-child buffers
  // until the next anchor.
  std::vector<Arc> arcs;
  std::vector<int> stack = {root()};
  while (!stack.empty()) {
    const int anchor = stack.back();
    stack.pop_back();
    for (const int first : nodes_[static_cast<std::size_t>(anchor)].children) {
      Arc arc;
      arc.id = static_cast<int>(arcs.size());
      arc.src = anchor;
      int cur = first;
      while (true) {
        const ClockNode& n = nodes_[static_cast<std::size_t>(cur)];
        const bool terminal =
            n.kind == NodeKind::Sink || n.children.size() != 1;
        if (terminal) break;
        arc.interior.push_back(cur);
        cur = n.children.front();
      }
      arc.dst = cur;
      arc.direct_len_um =
          geom::manhattan(nodes_[static_cast<std::size_t>(anchor)].pos,
                          nodes_[static_cast<std::size_t>(cur)].pos);
      arcs.push_back(std::move(arc));
      if (nodes_[static_cast<std::size_t>(cur)].kind != NodeKind::Sink)
        stack.push_back(cur);
    }
  }
  return arcs;
}

bool ClockTree::validate(std::string* err) const {
  auto fail = [&](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  if (nodes_.empty() || nodes_[0].kind != NodeKind::Source ||
      !nodes_[0].valid || nodes_[0].parent != -1)
    return fail("node 0 must be the live, parentless source");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ClockNode& n = nodes_[i];
    if (!n.valid) {
      if (!n.children.empty()) return fail("dead node has children");
      continue;
    }
    if (i != 0) {
      if (n.kind == NodeKind::Source) return fail("duplicate source");
      if (n.parent < 0 ||
          static_cast<std::size_t>(n.parent) >= nodes_.size() ||
          !nodes_[static_cast<std::size_t>(n.parent)].valid)
        return fail("node " + std::to_string(i) + " has invalid parent");
      const auto& kids =
          nodes_[static_cast<std::size_t>(n.parent)].children;
      if (std::count(kids.begin(), kids.end(), static_cast<int>(i)) != 1)
        return fail("parent/child lists inconsistent at node " +
                    std::to_string(i));
    }
    if (n.kind == NodeKind::Sink && !n.children.empty())
      return fail("sink with children");
    if (n.kind == NodeKind::Buffer && n.cell < 0)
      return fail("buffer without a cell");
    for (const int c : n.children) {
      if (c < 0 || static_cast<std::size_t>(c) >= nodes_.size() ||
          !nodes_[static_cast<std::size_t>(c)].valid ||
          nodes_[static_cast<std::size_t>(c)].parent != static_cast<int>(i))
        return fail("child list broken at node " + std::to_string(i));
    }
  }
  // Reachability (acyclicity follows from single-parent + reachability).
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<int> stack = {0};
  std::size_t live = 0, reached = 0;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (seen[static_cast<std::size_t>(v)]) return fail("cycle detected");
    seen[static_cast<std::size_t>(v)] = 1;
    ++reached;
    for (const int c : nodes_[static_cast<std::size_t>(v)].children)
      stack.push_back(c);
  }
  for (const ClockNode& n : nodes_)
    if (n.valid) ++live;
  if (reached != live) return fail("unreachable live nodes");
  if (err) err->clear();
  return true;
}

}  // namespace skewopt::network
