#include "stable/stable.h"

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

std::vector<DenseBitset> MustEnumerate(const GroundProgram& gp) {
  Result<std::vector<DenseBitset>> r = EnumerateStableModels(gp);
  if (!r.ok()) {
    fprintf(stderr, "stable enumeration failed: %s\n",
            r.status().ToString().c_str());
    abort();
  }
  return std::move(r.value());
}

TEST(StableTest, DefiniteProgramHasLeastModelAsUniqueStable) {
  Fixture f("p :- q. q. r :- s.");
  GroundProgram gp = testing::MustGround(f.program);
  auto models = MustEnumerate(gp);
  ASSERT_EQ(models.size(), 1u);
  auto p = gp.FindAtom(MustParseTerm(f.store, "p"));
  auto q = gp.FindAtom(MustParseTerm(f.store, "q"));
  EXPECT_TRUE(models[0].Test(*p));
  EXPECT_TRUE(models[0].Test(*q));
}

TEST(StableTest, SelfNegationHasNoStableModel) {
  Fixture f("p :- not p.");
  GroundProgram gp = testing::MustGround(f.program);
  EXPECT_TRUE(MustEnumerate(gp).empty());
}

TEST(StableTest, NegativeCycleHasTwoStableModels) {
  Fixture f("p :- not q. q :- not p.");
  GroundProgram gp = testing::MustGround(f.program);
  auto models = MustEnumerate(gp);
  EXPECT_EQ(models.size(), 2u);
}

TEST(StableTest, Example32HasUniqueStableModelMatchingWfs) {
  Fixture f(
      "p :- q, not r.\n"
      "q :- r, not p.\n"
      "r :- p, not q.\n"
      "s :- not p, not q, not r.\n");
  GroundProgram gp = testing::MustGround(f.program);
  auto models = MustEnumerate(gp);
  ASSERT_EQ(models.size(), 1u);
  WfsModel wfs = ComputeWfs(gp);
  ASSERT_TRUE(wfs.model.IsTotal());
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    EXPECT_EQ(models[0].Test(a), wfs.model.IsTrue(a));
  }
}

TEST(StableTest, AtomCapRejectsLargePrograms) {
  std::string src;
  for (int i = 0; i < 30; ++i) src += StrCat("p", i, ".\n");
  Fixture f(src);
  GroundProgram gp = testing::MustGround(f.program);
  Result<std::vector<DenseBitset>> r = EnumerateStableModels(gp);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(StableTest, WellFoundedApproximatesEveryStableModel) {
  // VGRS: WFS-true atoms lie in every stable model; WFS-false atoms in
  // none. (The paper situates global SLS-resolution against the stable
  // semantics via this relationship.)
  Rng rng(0x57AB1Eu);
  int with_models = 0;
  for (int trial = 0; trial < 80; ++trial) {
    std::string src = workload::RandomPropositional(rng, 6, 10, 3);
    Fixture f(src);
    GroundProgram gp = testing::MustGround(f.program);
    if (gp.atom_count() > 20) continue;
    auto models = MustEnumerate(gp);
    if (!models.empty()) ++with_models;
    WfsModel wfs = ComputeWfs(gp);
    for (const DenseBitset& m : models) {
      for (AtomId a = 0; a < gp.atom_count(); ++a) {
        if (wfs.model.IsTrue(a)) {
          EXPECT_TRUE(m.Test(a)) << "WFS-true atom missing from a stable "
                                    "model in\n"
                                 << src;
        }
        if (wfs.model.IsFalse(a)) {
          EXPECT_FALSE(m.Test(a)) << "WFS-false atom inside a stable model "
                                     "in\n"
                                  << src;
        }
      }
    }
  }
  EXPECT_GT(with_models, 20);
}

TEST(StableTest, TotalWfsIsUniqueStableModel) {
  Rng rng(0x70701u);
  int total_seen = 0;
  for (int trial = 0; trial < 120 && total_seen < 25; ++trial) {
    std::string src = workload::RandomGame(rng, 4, 35);
    Fixture f(src);
    GroundProgram gp = testing::MustGround(f.program);
    if (gp.atom_count() > 20) continue;
    WfsModel wfs = ComputeWfs(gp);
    if (!wfs.model.IsTotal()) continue;
    ++total_seen;
    auto models = MustEnumerate(gp);
    ASSERT_EQ(models.size(), 1u) << src;
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      EXPECT_EQ(models[0].Test(a), wfs.model.IsTrue(a)) << src;
    }
  }
  EXPECT_GE(total_seen, 10);
}

TEST(StableTest, StableModelsAreTwoValuedModels) {
  Rng rng(0xABCDEFu);
  for (int trial = 0; trial < 40; ++trial) {
    std::string src = workload::RandomPropositional(rng, 5, 8, 3);
    Fixture f(src);
    GroundProgram gp = testing::MustGround(f.program);
    if (gp.atom_count() > 18) continue;
    for (const DenseBitset& m : MustEnumerate(gp)) {
      Interpretation total(gp.atom_count());
      for (AtomId a = 0; a < gp.atom_count(); ++a) {
        if (m.Test(a)) {
          total.SetTrue(a);
        } else {
          total.SetFalse(a);
        }
      }
      EXPECT_TRUE(IsTwoValuedModel(gp, total)) << src;
    }
  }
}

}  // namespace
}  // namespace gsls
