#include "src/hierarchy/hierarchy.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/gen/toy.h"
#include "src/hierarchy/hlattice.h"
#include "src/hierarchy/hpattern.h"
#include "src/hierarchy/node_index.h"
#include "src/table/builder.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using hierarchy::AttributeHierarchy;
using hierarchy::HChildGroup;
using hierarchy::HChildGrouper;
using hierarchy::HPattern;
using hierarchy::kAllNode;
using hierarchy::kNoNode;
using hierarchy::NodeId;
using hierarchy::NodeIndex;
using hierarchy::TableHierarchy;

/// The paper's Location domain rolled up into compass regions.
std::vector<std::pair<std::string, std::string>> LocationEdges() {
  return {
      {"West", "Western"},      {"Northwest", "Western"},
      {"Southwest", "Western"}, {"East", "Eastern"},
      {"Northeast", "Eastern"}, {"North", "Central"},
      {"South", "Central"},
  };
}

TEST(AttributeHierarchyTest, FlatHasEveryLeafAsRoot) {
  AttributeHierarchy h = AttributeHierarchy::Flat(4);
  EXPECT_EQ(h.num_leaves(), 4u);
  EXPECT_EQ(h.num_nodes(), 4u);
  EXPECT_EQ(h.roots().size(), 4u);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(h.parent(v), kNoNode);
    EXPECT_EQ(h.depth(v), 0u);
    EXPECT_TRUE(h.children(v).empty());
    EXPECT_EQ(h.LeafCount(v), 1u);
    EXPECT_EQ(h.AncestorAtDepth(v, 0), v);
  }
}

TEST(AttributeHierarchyTest, BuildRollsUpLocations) {
  Table table = gen::MakeEntitiesTable();
  auto h = AttributeHierarchy::Build(table.dictionary(1), LocationEdges());
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->num_leaves(), 7u);
  EXPECT_EQ(h->num_nodes(), 10u);  // 7 leaves + 3 regions
  EXPECT_EQ(h->roots().size(), 3u);

  const auto west = *table.dictionary(1).Find("West");
  const auto northeast = *table.dictionary(1).Find("Northeast");
  const NodeId western = h->parent(west);
  ASSERT_NE(western, kNoNode);
  EXPECT_EQ(h->NodeName(table.dictionary(1), western), "Western");
  EXPECT_EQ(h->depth(west), 1u);
  EXPECT_EQ(h->depth(western), 0u);
  EXPECT_EQ(h->LeafCount(western), 3u);
  EXPECT_TRUE(h->IsAncestorOrSelf(western, west));
  EXPECT_FALSE(h->IsAncestorOrSelf(western, northeast));
  EXPECT_TRUE(h->IsAncestorOrSelf(west, west));
  EXPECT_EQ(h->AncestorAtDepth(west, 0), western);
  EXPECT_EQ(h->AncestorAtDepth(west, 1), west);
}

TEST(AttributeHierarchyTest, RejectsParentCollidingWithLeaf) {
  Table table = gen::MakeEntitiesTable();
  auto h = AttributeHierarchy::Build(table.dictionary(1),
                                     {{"West", "East"}});  // East is a leaf
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(AttributeHierarchyTest, RejectsMultipleParents) {
  Table table = gen::MakeEntitiesTable();
  auto h = AttributeHierarchy::Build(
      table.dictionary(1), {{"West", "RegionA"}, {"West", "RegionB"},
                            {"East", "RegionB"}});
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(AttributeHierarchyTest, RejectsCycles) {
  Table table = gen::MakeEntitiesTable();
  auto h = AttributeHierarchy::Build(
      table.dictionary(1),
      {{"West", "A"}, {"A", "B"}, {"B", "A"}});
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(AttributeHierarchyTest, RejectsChildlessInternalNode) {
  Table table = gen::MakeEntitiesTable();
  // "B" is internal (parent of A) but A has no children pointing... build
  // an internal node that never receives children by making it a child
  // only: {"A" -> "B"} gives B children {A}, A children {} but A is
  // internal (not a dictionary value) and childless.
  auto h = AttributeHierarchy::Build(table.dictionary(1), {{"A", "B"}});
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(AttributeHierarchyTest, MultiLevelDepthAndChains) {
  Table table = gen::MakeEntitiesTable();
  auto edges = LocationEdges();
  edges.emplace_back("Western", "Anywhere");
  edges.emplace_back("Eastern", "Anywhere");
  edges.emplace_back("Central", "Anywhere");
  auto h = AttributeHierarchy::Build(table.dictionary(1), edges);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->roots().size(), 1u);
  const auto west = *table.dictionary(1).Find("West");
  EXPECT_EQ(h->depth(west), 2u);
  const NodeId root = h->roots()[0];
  EXPECT_EQ(h->NodeName(table.dictionary(1), root), "Anywhere");
  EXPECT_EQ(h->LeafCount(root), 7u);
  EXPECT_EQ(h->AncestorAtDepth(west, 0), root);
  EXPECT_TRUE(h->IsAncestorOrSelf(root, west));
}

TEST(TableHierarchyTest, FlatCoversEveryAttribute) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy th = TableHierarchy::Flat(table);
  EXPECT_EQ(th.num_attributes(), 2u);
  EXPECT_EQ(th.attribute(0).num_leaves(), table.domain_size(0));
  EXPECT_EQ(th.attribute(1).num_leaves(), table.domain_size(1));
}

TEST(TableHierarchyTest, BuildValidatesOverrides) {
  Table table = gen::MakeEntitiesTable();
  auto wrong = AttributeHierarchy::Flat(99);
  EXPECT_TRUE(
      TableHierarchy::Build(table, {{1, wrong}}).status().IsInvalidArgument());
  EXPECT_TRUE(TableHierarchy::Build(table, {{7, AttributeHierarchy::Flat(2)}})
                  .status()
                  .IsInvalidArgument());
}

TEST(HPatternTest, MatchesThroughHierarchy) {
  Table table = gen::MakeEntitiesTable();
  auto loc = AttributeHierarchy::Build(table.dictionary(1), LocationEdges());
  ASSERT_TRUE(loc.ok());
  auto th = TableHierarchy::Build(table, {{1, *loc}});
  ASSERT_TRUE(th.ok());

  // {Type=ALL, Location=Western} covers West, Northwest, Southwest rows:
  // ids 0, 5, 6, 7, 8, 9 (rows 1, 6, 7, 8, 9, 10 in paper numbering).
  const NodeId western =
      th->attribute(1).parent(*table.dictionary(1).Find("West"));
  HPattern p = HPattern::AllWildcards(2).WithNode(1, western);
  std::vector<RowId> matched;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (p.Matches(table, *th, r)) matched.push_back(r);
  }
  EXPECT_EQ(matched, (std::vector<RowId>{0, 5, 6, 7, 8, 9}));
  EXPECT_EQ(p.ToString(table, *th), "{Type=ALL, Location=Western}");
}

TEST(HPatternTest, ParentAtWalksUpAndEndsAtAll) {
  Table table = gen::MakeEntitiesTable();
  auto loc = AttributeHierarchy::Build(table.dictionary(1), LocationEdges());
  ASSERT_TRUE(loc.ok());
  auto th = TableHierarchy::Build(table, {{1, *loc}});
  ASSERT_TRUE(th.ok());

  const NodeId west = *table.dictionary(1).Find("West");
  HPattern leaf = HPattern::AllWildcards(2).WithNode(1, west);
  HPattern region = leaf.ParentAt(*th, 1);
  EXPECT_EQ(th->attribute(1).NodeName(table.dictionary(1), region.node(1)),
            "Western");
  HPattern all = region.ParentAt(*th, 1);
  EXPECT_TRUE(all.is_wildcard(1));
}

TEST(HPatternTest, CanonicalLessIsStrictTotalOrder) {
  std::vector<HPattern> patterns = {
      HPattern({0, 1}), HPattern({0, kAllNode}), HPattern({kAllNode, 1}),
      HPattern({kAllNode, kAllNode}), HPattern({2, 0})};
  std::sort(patterns.begin(), patterns.end(), hierarchy::CanonicalLess);
  for (std::size_t i = 0; i + 1 < patterns.size(); ++i) {
    EXPECT_TRUE(hierarchy::CanonicalLess(patterns[i], patterns[i + 1]));
    EXPECT_FALSE(hierarchy::CanonicalLess(patterns[i + 1], patterns[i]));
  }
}

// ---------------------------------------------------------------------------
// Seeded properties of the descent machinery over random tables with random
// forests of depth <= 3: NodeIndex::Ben equals a Matches scan, and
// HChildGrouper equals a hash-map grouping of the same rows.

struct RandomInstance {
  Table table;
  TableHierarchy hierarchy;
};

/// A random forest over `dictionary`: each leaf hangs under a random tier-1
/// node or stays a root; each tier-1 node with children hangs under a
/// random tier-2 node or stays a root; likewise tier 2 under tier 3. Leaves
/// therefore sit at depths 0-3 and every internal node has a child.
AttributeHierarchy RandomForest(const Dictionary& dictionary, std::size_t attr,
                                Rng& rng) {
  std::vector<std::pair<std::string, std::string>> edges;
  std::vector<std::string> children;
  for (ValueId v = 0; v < dictionary.size(); ++v) {
    children.push_back(dictionary.Name(v));
  }
  for (int tier = 1; tier <= 3; ++tier) {
    const std::size_t width = 1 + rng.NextBounded(3);
    std::map<std::string, bool> used;
    for (const std::string& child : children) {
      if (rng.NextBool(0.3)) continue;  // stays a root
      const std::string parent = "t" + std::to_string(attr) + "_" +
                                 std::to_string(tier) + "_" +
                                 std::to_string(rng.NextBounded(width));
      edges.emplace_back(child, parent);
      used[parent] = true;
    }
    children.clear();
    for (const auto& [name, unused] : used) children.push_back(name);
  }
  auto h = AttributeHierarchy::Build(dictionary, edges);
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  return std::move(h).value();
}

RandomInstance MakeRandomInstance(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t attrs = 1 + rng.NextBounded(4);
  const std::size_t rows = 1 + rng.NextBounded(200);
  std::vector<std::string> names;
  for (std::size_t a = 0; a < attrs; ++a) names.push_back("A" + std::to_string(a));
  TableBuilder builder(names, "m");
  std::vector<std::size_t> domain(attrs);
  for (std::size_t a = 0; a < attrs; ++a) domain[a] = 1 + rng.NextBounded(12);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> values;
    for (std::size_t a = 0; a < attrs; ++a) {
      values.push_back("v" + std::to_string(rng.NextBounded(domain[a])));
    }
    std::vector<std::string_view> views(values.begin(), values.end());
    EXPECT_TRUE(builder.AddRow(views, 1.0).ok());
  }
  Table table = std::move(builder).Build();
  std::vector<std::pair<std::size_t, AttributeHierarchy>> overrides;
  for (std::size_t a = 0; a < attrs; ++a) {
    overrides.emplace_back(a, RandomForest(table.dictionary(a), a, rng));
  }
  auto th = TableHierarchy::Build(table, std::move(overrides));
  EXPECT_TRUE(th.ok()) << th.status().ToString();
  return RandomInstance{std::move(table), std::move(th).value()};
}

HPattern RandomHPattern(const TableHierarchy& h, Rng& rng) {
  std::vector<NodeId> nodes;
  for (std::size_t a = 0; a < h.num_attributes(); ++a) {
    nodes.push_back(rng.NextBool(0.4)
                        ? kAllNode
                        : static_cast<NodeId>(
                              rng.NextBounded(h.attribute(a).num_nodes())));
  }
  return HPattern(std::move(nodes));
}

std::vector<RowId> ScanMatches(const Table& table, const TableHierarchy& h,
                               const HPattern& p) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (p.Matches(table, h, r)) rows.push_back(r);
  }
  return rows;
}

/// The hash-map grouping the descents used before HChildGrouper.
std::vector<HChildGroup> ReferenceGrouping(const Table& table,
                                           const TableHierarchy& hierarchy,
                                           const HPattern& parent,
                                           const std::vector<RowId>& rows) {
  std::vector<HChildGroup> groups;
  for (std::size_t a = 0; a < parent.num_attributes(); ++a) {
    const AttributeHierarchy& h = hierarchy.attribute(a);
    const NodeId pnode = parent.node(a);
    if (pnode != kAllNode && h.is_leaf(pnode)) continue;
    const std::size_t child_depth =
        pnode == kAllNode ? 0 : h.depth(pnode) + 1;
    std::unordered_map<NodeId, std::vector<RowId>> by_node;
    for (RowId r : rows) {
      const NodeId leaf = table.value(r, a);
      if (h.depth(leaf) < child_depth) continue;
      by_node[h.AncestorAtDepth(leaf, child_depth)].push_back(r);
    }
    const std::size_t first = groups.size();
    for (auto& [node, grows] : by_node) {
      groups.push_back(HChildGroup{a, node, std::move(grows)});
    }
    std::sort(groups.begin() + static_cast<std::ptrdiff_t>(first),
              groups.end(), [](const HChildGroup& x, const HChildGroup& y) {
                return x.node < y.node;
              });
  }
  return groups;
}

TEST(NodeIndexPropertyTest, BenEqualsMatchingScanOnRandomForests) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomInstance inst = MakeRandomInstance(seed);
    const NodeIndex index(inst.table, inst.hierarchy);
    for (std::size_t a = 0; a < inst.table.num_attributes(); ++a) {
      for (NodeId v = 0; v < inst.hierarchy.attribute(a).num_nodes(); ++v) {
        const HPattern single =
            HPattern::AllWildcards(inst.table.num_attributes()).WithNode(a, v);
        const auto postings = index.Postings(a, v);
        EXPECT_EQ(std::vector<RowId>(postings.begin(), postings.end()),
                  ScanMatches(inst.table, inst.hierarchy, single));
      }
      EXPECT_EQ(index.Postings(a, kAllNode).size(), inst.table.num_rows());
    }
    Rng rng(seed * 7919);
    for (int trial = 0; trial < 50; ++trial) {
      const HPattern p = RandomHPattern(inst.hierarchy, rng);
      EXPECT_EQ(index.Ben(p), ScanMatches(inst.table, inst.hierarchy, p))
          << p.ToString(inst.table, inst.hierarchy);
    }
  }
}

TEST(HChildGrouperPropertyTest, EqualsHashMapGroupingOnRandomForests) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomInstance inst = MakeRandomInstance(seed);
    HChildGrouper grouper(inst.table, inst.hierarchy);  // reused across calls
    Rng rng(seed * 104729);
    for (int trial = 0; trial < 50; ++trial) {
      const HPattern parent = RandomHPattern(inst.hierarchy, rng);
      // The descents group marginal rows: a subset of Ben(parent).
      std::vector<RowId> rows;
      for (RowId r : ScanMatches(inst.table, inst.hierarchy, parent)) {
        if (rng.NextBool(0.7)) rows.push_back(r);
      }
      const auto got = grouper(parent, rows);
      const auto want =
          ReferenceGrouping(inst.table, inst.hierarchy, parent, rows);
      ASSERT_EQ(got.size(), want.size())
          << parent.ToString(inst.table, inst.hierarchy);
      for (std::size_t g = 0; g < got.size(); ++g) {
        EXPECT_EQ(got[g].attr, want[g].attr);
        EXPECT_EQ(got[g].node, want[g].node);
        EXPECT_EQ(got[g].marginal_rows, want[g].marginal_rows);
      }
    }
  }
}

}  // namespace
}  // namespace scwsc
