// plan_restore (DESIGN.md §6l) is pure: these cases call it with bare image
// directories and a page store, no kernel, and check the path it picks, the
// templates it clones from and freezes, and each link's prefix and depth.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "criu/page_store.hpp"
#include "criu/restore.hpp"

namespace prebake::criu {
namespace {

struct PlanCase {
  const char* name;
  std::vector<LayerLink> links;
  bool with_store;
  std::vector<std::string> resident;  // templates the store already holds
  PagingPolicy paging;
  // Expected plan.
  RestorePath path;
  std::string clone_key;
  std::string freeze_base;
  std::string freeze_key;
  std::vector<int> depths;
};

const ImageDir kBase, kMid, kTop;

std::vector<PlanCase> plan_cases() {
  using enum RestorePath;
  const PagingPolicy eager = PagingPolicy::eager();
  const LayerLink fn{&kTop, "/img/fn/", "fn"};
  const LayerLink unkeyed{&kTop, "/img/fn/", ""};
  const LayerLink base{&kBase, "/img/base/", "base"};
  const LayerLink mid{&kMid, "/img/mid/", "mid"};
  const LayerLink parent{&kBase, "/img/fn/parent/", ""};
  return {
      {"no store", {fn}, false, {}, eager, kReplay, "", "", "", {-1}},
      {"store without a key", {unkeyed}, true, {}, eager, kReplay, "", "", "",
       {-1}},
      {"key, template absent", {fn}, true, {}, eager, kReplay, "", "", "fn",
       {-1}},
      {"key, template resident", {fn}, true, {"fn"}, eager, kCloneTemplate,
       "fn", "", "", {-1}},
      {"layered, base absent", {base, fn}, true, {}, eager, kCloneBase, "base",
       "base", "fn", {1, 0}},
      {"layered, base resident", {base, fn}, true, {"base"}, eager, kCloneBase,
       "base", "", "fn", {1, 0}},
      {"layered, base resident, unkeyed delta", {base, unkeyed}, true,
       {"base"}, eager, kCloneBase, "base", "", "", {1, 0}},
      {"layered, function template resident", {base, fn}, true,
       {"base", "fn"}, eager, kCloneTemplate, "fn", "", "", {1, 0}},
      {"layered, no store", {base, fn}, false, {}, eager, kReplay, "", "", "",
       {1, 0}},
      {"layered, three links", {base, mid, fn}, true, {"base"}, eager,
       kReplay, "", "", "fn", {2, 1, 0}},
      {"pre-dump chain: only the final link is keyed", {parent, fn}, true, {},
       eager, kReplay, "", "", "fn", {1, 0}},
      {"single-layer layered call", {base}, true, {}, eager, kReplay, "", "",
       "base", {-1}},
      {"lazy paging with a store", {unkeyed}, true, {},
       PagingPolicy::lazy(), kReplay, "", "", "", {-1}},
      {"lazy paging, layered, base resident", {base, unkeyed}, true,
       {"base"}, PagingPolicy::lazy(), kReplay, "", "", "", {1, 0}},
      {"working-set prefetch, template resident", {fn}, true, {"fn"},
       PagingPolicy::ws_prefetch(), kReplay, "", "", "", {-1}},
      {"working-set record, layered", {base, fn}, true, {},
       PagingPolicy::ws_recording(), kReplay, "", "", "", {1, 0}},
  };
}

TEST(RestorePlan, PathKeysAndDepthsPerCase) {
  for (const PlanCase& c : plan_cases()) {
    SCOPED_TRACE(c.name);
    PageStore store;
    for (const std::string& key : c.resident)
      store.register_template(key, PageStore::TemplateInfo{});
    RestoreOptions opts;
    opts.paging = c.paging;
    if (c.with_store) opts.page_store = &store;

    const RestorePlan plan = plan_restore(c.links, opts);
    EXPECT_EQ(plan.path, c.path);
    EXPECT_EQ(plan.clone_key, c.clone_key);
    EXPECT_EQ(plan.freeze_base, c.freeze_base);
    EXPECT_EQ(plan.freeze_key, c.freeze_key);
    ASSERT_EQ(plan.links.size(), c.links.size());
    std::vector<int> depths;
    for (std::size_t i = 0; i < plan.links.size(); ++i) {
      EXPECT_EQ(plan.links[i].images, c.links[i].images);
      EXPECT_EQ(plan.links[i].fs_prefix, c.links[i].fs_prefix);
      depths.push_back(plan.depth(i));
    }
    EXPECT_EQ(depths, c.depths);
    // Planning never touches the store it reads.
    EXPECT_EQ(store.template_count(), c.resident.size());
  }
}

TEST(RestorePlan, KeysComeFromTheLinksNotTheOptions) {
  // restore_layered ignores opts.store_key in favor of the per-layer keys;
  // the planner reads only the links.
  PageStore store;
  store.register_template("stale", PageStore::TemplateInfo{});
  RestoreOptions opts;
  opts.page_store = &store;
  opts.store_key = "stale";
  const LayerLink links[] = {{&kTop, "", "fn"}};
  const RestorePlan plan = plan_restore(links, opts);
  EXPECT_EQ(plan.path, RestorePath::kReplay);
  EXPECT_EQ(plan.freeze_key, "fn");
}

TEST(RestorePlan, EmptyChainThrows) {
  EXPECT_THROW(plan_restore({}, RestoreOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace prebake::criu
