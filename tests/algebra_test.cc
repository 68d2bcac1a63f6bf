#include <gtest/gtest.h>

#include "algebra/binding_set.h"
#include "algebra/operators.h"

namespace sparqluo {
namespace {

BindingSet Make(std::vector<VarId> schema,
                std::vector<std::vector<TermId>> rows) {
  BindingSet b(std::move(schema));
  for (const auto& r : rows) b.AppendRow(r);
  return b;
}

constexpr TermId U = kUnboundTerm;

// ---------------------------------------------------------- BindingSet ---

TEST(BindingSetTest, UnitHasOneEmptyMapping) {
  BindingSet u = BindingSet::Unit();
  EXPECT_EQ(u.size(), 1u);
  EXPECT_EQ(u.width(), 0u);
  EXPECT_FALSE(u.empty());
}

// Zero-width rows have no cells: Row() must not index the empty cell
// vector (undefined behaviour that UBSan reports as a null reference).
TEST(BindingSetTest, ZeroWidthRowsAreEmptyViews) {
  BindingSet b;
  b.AppendEmptyMappings(3);
  ASSERT_EQ(b.size(), 3u);
  ASSERT_EQ(b.width(), 0u);
  for (size_t r = 0; r < b.size(); ++r) EXPECT_EQ(b.Row(r), b.Row(0));
}

TEST(BindingSetTest, AppendAndAccess) {
  BindingSet b = Make({0, 1}, {{10, 20}, {11, 21}});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.At(1, 0), 11u);
  EXPECT_EQ(b.Value(0, 1), 20u);
  EXPECT_EQ(b.Value(0, 99), U);  // unknown variable
}

TEST(BindingSetTest, ProjectKeepsDuplicates) {
  BindingSet b = Make({0, 1}, {{10, 20}, {10, 21}});
  BindingSet p = b.Project({0});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.At(0, 0), 10u);
  EXPECT_EQ(p.At(1, 0), 10u);
}

TEST(BindingSetTest, ProjectMissingVarIsUnbound) {
  BindingSet b = Make({0}, {{10}});
  BindingSet p = b.Project({0, 7});
  EXPECT_EQ(p.At(0, 1), U);
}

TEST(BindingSetTest, Distinct) {
  BindingSet b = Make({0}, {{1}, {1}, {2}});
  EXPECT_EQ(b.Distinct().size(), 2u);
}

TEST(BindingSetTest, BagEqualsIgnoresColumnOrderAndRowOrder) {
  BindingSet a = Make({0, 1}, {{1, 2}, {3, 4}});
  BindingSet b = Make({1, 0}, {{4, 3}, {2, 1}});
  EXPECT_TRUE(BagEquals(a, b));
}

TEST(BindingSetTest, BagEqualsDetectsMultiplicity) {
  BindingSet a = Make({0}, {{1}, {1}});
  BindingSet b = Make({0}, {{1}});
  EXPECT_FALSE(BagEquals(a, b));
}

TEST(BindingSetTest, BagEqualsAcrossSchemas) {
  // A column that is entirely unbound equals an absent column.
  BindingSet a = Make({0, 1}, {{1, U}});
  BindingSet b = Make({0}, {{1}});
  EXPECT_TRUE(BagEquals(a, b));
  BindingSet c = Make({0, 1}, {{1, 5}});
  EXPECT_FALSE(BagEquals(c, b));
}

// ---------------------------------------------------------------- Join ---

TEST(JoinTest, BasicEquiJoin) {
  BindingSet a = Make({0}, {{1}, {2}});
  BindingSet b = Make({0, 1}, {{1, 10}, {1, 11}, {3, 12}});
  BindingSet j = Join(a, b);
  EXPECT_TRUE(BagEquals(j, Make({0, 1}, {{1, 10}, {1, 11}})));
}

TEST(JoinTest, CrossProductWhenDisjoint) {
  BindingSet a = Make({0}, {{1}, {2}});
  BindingSet b = Make({1}, {{10}});
  BindingSet j = Join(a, b);
  EXPECT_TRUE(BagEquals(j, Make({0, 1}, {{1, 10}, {2, 10}})));
}

TEST(JoinTest, PreservesDuplicates) {
  BindingSet a = Make({0}, {{1}, {1}});
  BindingSet b = Make({0}, {{1}, {1}});
  EXPECT_EQ(Join(a, b).size(), 4u);
}

TEST(JoinTest, UnitIsIdentity) {
  BindingSet a = Make({0, 1}, {{1, 2}, {3, 4}});
  EXPECT_TRUE(BagEquals(Join(BindingSet::Unit(), a), a));
  EXPECT_TRUE(BagEquals(Join(a, BindingSet::Unit()), a));
}

TEST(JoinTest, EmptyAnnihilates) {
  BindingSet a = Make({0}, {{1}});
  BindingSet empty(std::vector<VarId>{0});
  EXPECT_TRUE(Join(a, empty).empty());
  EXPECT_TRUE(Join(empty, a).empty());
}

TEST(JoinTest, UnboundIsCompatibleWithAnything) {
  // µ1 with unbound v0 is compatible with any v0 value in µ2; the join
  // takes µ2's binding.
  BindingSet a = Make({0, 1}, {{U, 7}});
  BindingSet b = Make({0}, {{1}, {2}});
  BindingSet j = Join(a, b);
  EXPECT_TRUE(BagEquals(j, Make({0, 1}, {{1, 7}, {2, 7}})));
}

TEST(JoinTest, MixedBoundAndUnboundRows) {
  BindingSet a = Make({0}, {{1}, {U}});
  BindingSet b = Make({0}, {{1}, {2}});
  // Row {1} joins {1}; row {U} joins both.
  BindingSet j = Join(a, b);
  EXPECT_TRUE(BagEquals(j, Make({0}, {{1}, {1}, {2}})));
}

// ------------------------------------------------------------ UnionBag ---

TEST(UnionBagTest, PadsMissingColumns) {
  BindingSet a = Make({0}, {{1}});
  BindingSet b = Make({1}, {{2}});
  BindingSet u = UnionBag(a, b);
  EXPECT_TRUE(BagEquals(u, Make({0, 1}, {{1, U}, {U, 2}})));
}

TEST(UnionBagTest, KeepsDuplicatesAcrossSides) {
  BindingSet a = Make({0}, {{1}});
  BindingSet b = Make({0}, {{1}});
  EXPECT_EQ(UnionBag(a, b).size(), 2u);
}

// --------------------------------------------------------------- Minus ---

TEST(MinusTest, RemovesCompatible) {
  BindingSet a = Make({0}, {{1}, {2}});
  BindingSet b = Make({0}, {{1}});
  EXPECT_TRUE(BagEquals(Minus(a, b), Make({0}, {{2}})));
}

TEST(MinusTest, DisjointDomainsRemoveEverything) {
  // With no shared variables every µ2 is compatible with every µ1.
  BindingSet a = Make({0}, {{1}});
  BindingSet b = Make({1}, {{9}});
  EXPECT_TRUE(Minus(a, b).empty());
}

TEST(MinusTest, EmptyRightKeepsAll) {
  BindingSet a = Make({0}, {{1}, {2}});
  BindingSet b(std::vector<VarId>{0});
  EXPECT_TRUE(BagEquals(Minus(a, b), a));
}

// ------------------------------------------------------- LeftOuterJoin ---

TEST(LeftOuterJoinTest, Definition7Identity) {
  // LeftOuterJoin == Join ∪_bag Minus for assorted inputs.
  std::vector<std::pair<BindingSet, BindingSet>> cases;
  cases.emplace_back(Make({0}, {{1}, {2}}), Make({0, 1}, {{1, 10}}));
  cases.emplace_back(Make({0}, {{1}, {1}}), Make({0, 1}, {{1, 10}, {1, 11}}));
  cases.emplace_back(Make({0}, {{1}}), Make({1}, {{5}}));
  cases.emplace_back(Make({0}, {{1}}), BindingSet(std::vector<VarId>{0, 1}));
  for (auto& [a, b] : cases) {
    BindingSet direct = LeftOuterJoin(a, b);
    BindingSet composed = UnionBag(Join(a, b), Minus(a, b));
    EXPECT_TRUE(BagEquals(direct, composed));
  }
}

TEST(LeftOuterJoinTest, UnmatchedRowsPadded) {
  BindingSet a = Make({0}, {{1}, {2}});
  BindingSet b = Make({0, 1}, {{1, 10}});
  BindingSet lj = LeftOuterJoin(a, b);
  EXPECT_TRUE(BagEquals(lj, Make({0, 1}, {{1, 10}, {2, U}})));
}

TEST(LeftOuterJoinTest, EmptyRightKeepsLeft) {
  BindingSet a = Make({0}, {{1}, {2}});
  BindingSet b(std::vector<VarId>{0, 1});
  BindingSet lj = LeftOuterJoin(a, b);
  EXPECT_TRUE(BagEquals(lj, Make({0, 1}, {{1, U}, {2, U}})));
}

TEST(LeftOuterJoinTest, EmptyLeftIsEmpty) {
  BindingSet a(std::vector<VarId>{0});
  BindingSet b = Make({0}, {{1}});
  EXPECT_TRUE(LeftOuterJoin(a, b).empty());
}

// -------------------------------------------------------------- Filter ---

class FilterTest : public ::testing::Test {
 protected:
  FilterTest() {
    n5_ = dict_.Encode(Term::Literal("5"));
    n9_ = dict_.Encode(Term::Literal("9"));
    abc_ = dict_.Encode(Term::Literal("abc"));
  }
  Dictionary dict_;
  TermId n5_, n9_, abc_;
};

TEST_F(FilterTest, EqualityOnIds) {
  BindingSet b = Make({0}, {{n5_}, {n9_}});
  FilterExpr f;
  f.op = FilterExpr::Op::kEq;
  f.lhs = PatternSlot::Var(0);
  f.rhs = PatternSlot::Const(Term::Literal("5"));
  BindingSet out = ApplyFilter(b, f, dict_);
  EXPECT_TRUE(BagEquals(out, Make({0}, {{n5_}})));
}

TEST_F(FilterTest, NumericComparison) {
  BindingSet b = Make({0}, {{n5_}, {n9_}});
  FilterExpr f;
  f.op = FilterExpr::Op::kLt;
  f.lhs = PatternSlot::Var(0);
  f.rhs = PatternSlot::Const(Term::Literal("7"));
  BindingSet out = ApplyFilter(b, f, dict_);
  EXPECT_TRUE(BagEquals(out, Make({0}, {{n5_}})));
}

TEST_F(FilterTest, BoundFilter) {
  BindingSet b = Make({0, 1}, {{n5_, n9_}, {n5_, U}});
  FilterExpr f;
  f.op = FilterExpr::Op::kBound;
  f.lhs = PatternSlot::Var(1);
  EXPECT_EQ(ApplyFilter(b, f, dict_).size(), 1u);
}

TEST_F(FilterTest, ErrorsDropRows) {
  // Comparison over an unbound variable errors -> the row is dropped.
  BindingSet b = Make({0}, {{U}});
  FilterExpr f;
  f.op = FilterExpr::Op::kLt;
  f.lhs = PatternSlot::Var(0);
  f.rhs = PatternSlot::Const(Term::Literal("7"));
  EXPECT_TRUE(ApplyFilter(b, f, dict_).empty());
}

TEST_F(FilterTest, BooleanConnectives) {
  BindingSet b = Make({0}, {{n5_}, {n9_}, {abc_}});
  FilterExpr lt7, eq_abc, f;
  lt7.op = FilterExpr::Op::kLt;
  lt7.lhs = PatternSlot::Var(0);
  lt7.rhs = PatternSlot::Const(Term::Literal("7"));
  eq_abc.op = FilterExpr::Op::kEq;
  eq_abc.lhs = PatternSlot::Var(0);
  eq_abc.rhs = PatternSlot::Const(Term::Literal("abc"));
  f.op = FilterExpr::Op::kOr;
  f.children = {lt7, eq_abc};
  // "5" passes lt7; "abc" passes eq_abc; "9" passes neither.
  EXPECT_EQ(ApplyFilter(b, f, dict_).size(), 2u);

  FilterExpr g;
  g.op = FilterExpr::Op::kNot;
  g.children = {eq_abc};
  EXPECT_EQ(ApplyFilter(b, g, dict_).size(), 2u);  // "5", "9"
}

}  // namespace
}  // namespace sparqluo
