// Content-addressed node-local page store (DESIGN.md §6f).
//
// Every dumped page is identified by its 64-bit content digest (the same
// hashes digest-mode images already carry). A node that keeps a store of the
// digests it has materialized can
//
//   * negotiate delta transfers with the snapshot registry: ship the digest
//     list first (one RTT + 8 bytes/page), then pull only the pages the node
//     is missing — a node that restored the JVM-base snapshot of one
//     function fetches only the app-delta of the next;
//   * keep one frozen *template* process per snapshot: the first restore on
//     a node materializes it, later replicas clone it with COW mappings
//     (Catalyzer's sandbox-fork), skipping image reads entirely;
//   * give the scheduler a page-accurate locality signal (missing unique
//     pages) instead of whole-file hit/miss.
//
// Records are refcounted: a template pins its pages; eviction under a byte
// budget removes unpinned pages only, LRU first, so pinned pages can exceed
// the budget while their template lives (they are the template's RSS,
// resident regardless). Evicting a page forgets its record only: node-local
// image files the platform materialized stay in place. Templates pin
// *extents*, one per non-zero pagemap run: the store keeps one extent
// record per distinct run, so runs that many functions share (the runtime's
// heap and metaspace) are pinned once per node and a later template that
// holds them only bumps a count. Page records live inline in a flat
// open-addressing table (linear probing, backward-shift deletion); no
// result depends on slot order (eviction selects its victims by (tick,
// digest)), and the store holds no pointer to itself, so it is safe to
// move. Like every other container in the model, mutation is not
// thread-safe — each WorkerNode owns one store and each simulation runs its
// scenario single-threaded.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/page_source.hpp"
#include "os/process.hpp"

namespace prebake::criu {

struct PageStoreStats {
  // Delta negotiations (criu::negotiate_delta): page occurrences already
  // held locally, and the payload that had to cross the wire (pages unique
  // within each transferred image).
  std::uint64_t hit_pages = 0;
  std::uint64_t delta_bytes = 0;   // page payload actually transferred
  std::uint64_t digest_bytes = 0;  // negotiation overhead (digest lists)
  std::uint64_t evicted_pages = 0;
  std::uint64_t template_clones = 0;
  std::uint64_t templates_materialized = 0;
  // Layered restores (DESIGN.md §6k): replicas built by cloning a pinned
  // *base-runtime* template + delta replay, and base templates frozen.
  std::uint64_t base_template_clones = 0;
  std::uint64_t base_templates_materialized = 0;
};

class PageStore {
 public:
  // A run of page digests pinned as one extent: in a template, one non-zero
  // pagemap run's slice of its link's pages-1.img digests.
  using Run = std::span<const std::uint64_t>;

  // A frozen restore template: the process to clone replicas from, the
  // mapping from image VmaEntry ids to the template's VMA ids (clones share
  // those ids), and the extents its snapshot chain pins.
  struct TemplateInfo {
    os::Pid pid = os::kNoPid;
    std::map<os::VmaId, os::VmaId> vma_map;
    // Layered snapshots (DESIGN.md §6k): the base-runtime template this
    // function template was derived from ("" = monolithic). Registration
    // bumps the base's dependent count, dropping decrements it — the count
    // is surfaced (prebakectl) so operators see which bases are load-bearing
    // before evicting them.
    std::string base_key;
    std::uint32_t dependents = 0;  // templates registered with base_key = us
    // Set by register_template: the ids of the extents it pins, one per
    // non-empty run.
    std::vector<std::uint32_t> extents;
  };

  // --- content-addressed pages ---------------------------------------------
  bool contains(std::uint64_t digest) const { return find(digest) != kNone; }
  // Digests (unique within the list) the store does not hold — what a delta
  // transfer must move.
  std::uint64_t missing_unique_pages(
      std::span<const std::uint64_t> digests) const;
  std::uint64_t missing_unique_bytes(
      std::span<const std::uint64_t> digests) const {
    return missing_unique_pages(digests) * os::kPageSize;
  }
  // Record every digest as locally materialized (refcount unchanged — a page
  // enters unpinned and is pinned only by templates). Refreshes recency,
  // evicts unpinned overflow, returns how many digests were new.
  std::uint64_t insert(std::span<const std::uint64_t> digests);
  // Pin the span as one extent, and drop one pin of the extent holding
  // equal digests (callers keep pin/unpin symmetric; unpinning a span with
  // no live pin throws std::logic_error). An empty span pins nothing.
  void pin(Run digests);
  void unpin(Run digests);
  // Occurrences of the digest across live pins (template runs and pin()
  // spans). Scans the extent records: for tests, not for hot paths.
  std::uint32_t refcount(std::uint64_t digest) const;
  // The hash whose low bits pick a digest's first probe slot. Public so
  // tests can build digests that collide.
  static std::uint64_t slot_hash(std::uint64_t digest);

  // --- byte budget ----------------------------------------------------------
  // 0 = unbounded. Shrinking evicts unpinned pages immediately (LRU first);
  // pinned pages are never evicted and may exceed the budget.
  void set_capacity(std::uint64_t bytes);
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t stored_pages() const { return size_; }
  std::uint64_t stored_bytes() const { return size_ * os::kPageSize; }

  // --- frozen templates -----------------------------------------------------
  bool has_template(const std::string& key) const {
    return templates_.contains(key);
  }
  const TemplateInfo* find_template(const std::string& key) const;
  // Pins each non-empty run as one extent for the template's lifetime,
  // then evicts unpinned overflow. A run equal to a live extent only bumps
  // its pin count; any other run inserts and pins its pages, one probe per
  // digest. A page the template pins is never evicted by its own
  // registration, even when the budget is smaller than its new pages.
  void register_template(const std::string& key, TemplateInfo info,
                         std::span<const Run> runs = {});
  // Unpins the template's extents and forgets it. Returns the template pid
  // (kNoPid if the key was unknown); the caller owns killing/reaping it.
  os::Pid drop_template(const std::string& key);
  std::vector<os::Pid> drop_all_templates();
  std::size_t template_count() const { return templates_.size(); }
  // Dependent templates registered on top of `key` (layered deltas). 0 for
  // unknown keys and leaf templates.
  std::uint32_t template_dependents(const std::string& key) const;
  const std::map<std::string, TemplateInfo>& templates() const {
    return templates_;
  }
  // The page occurrences one template pins: the sum of its extents'
  // lengths.
  std::uint64_t pinned_pages(const TemplateInfo& t) const {
    std::uint64_t total = 0;
    for (const std::uint32_t id : t.extents)
      total += extents_[id].digests.size();
    return total;
  }
  // Pages pinned across all registered templates — the warmth a node crash
  // destroys (NodeStats::warmth_template_pages_destroyed accounting).
  std::uint64_t template_pages() const {
    std::uint64_t total = 0;
    for (const auto& [key, t] : templates_) total += pinned_pages(t);
    return total;
  }

  // Node crash: the store's RAM is gone. Drops every page and extent record
  // (templates must have been dropped first); stats survive for reporting.
  void clear_pages();

  const PageStoreStats& stats() const { return stats_; }
  PageStoreStats& stats_mut() { return stats_; }

 private:
  // One record, inline in its table slot. tick 0 marks an empty slot: every
  // stamping operation advances tick_ first, so live records have tick >= 1.
  struct Slot {
    std::uint64_t digest = 0;
    std::uint64_t tick = 0;      // recency for LRU eviction
    std::uint32_t refcount = 0;  // occurrences in live extents
  };
  // One distinct pinned run. Its pages stay pinned while pins > 0; hits
  // stamp only `tick`, and the last unpin folds it into each page's tick,
  // so every page ends with the recency a per-page pin would have given it.
  struct Extent {
    std::vector<std::uint64_t> digests;  // owned copy of the run
    std::uint64_t key = 0;               // run_key(digests)
    std::uint64_t tick = 0;              // the tick of its last pin
    std::uint32_t pins = 0;              // 0 = a free id
  };
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::uint32_t kNoExtent = ~std::uint32_t{0};

  // O(1) lookup key of a run: its length and three sampled digests. Only a
  // digest-for-digest compare confirms a match.
  static std::uint64_t run_key(Run run);
  // The live extent holding exactly the run's digests, or kNoExtent.
  std::uint32_t find_extent(Run run) const;
  // Pins one non-empty run at the current tick; returns its extent id.
  std::uint32_t pin_extent(Run run);
  // Drops one pin; the last one unpins the run's pages and frees the id.
  void unpin_extent(std::uint32_t id);

  std::size_t find(std::uint64_t digest) const;  // slot index or kNone
  // Grows the table (at most once) so `records` fit at <= 7/8 load.
  void reserve(std::size_t records);
  // The digest's slot, created if absent (size_ counts it), stamped with
  // the current tick.
  Slot& stamp(std::uint64_t digest);
  void erase_slot(std::size_t i);
  void evict_to_fit();

  std::vector<Slot> slots_;  // power-of-two length (or empty)
  std::uint64_t size_ = 0;   // live records
  std::map<std::string, TemplateInfo> templates_;
  std::vector<Extent> extents_;  // indexed by extent id
  std::vector<std::uint32_t> free_extents_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> extent_ids_;  // by key
  std::uint64_t capacity_ = 0;  // bytes; 0 = unbounded
  std::uint64_t tick_ = 0;
  // False only when every record is pinned, so evict_to_fit skips its
  // full-table scan: set when insert() creates a record or unpin() drops
  // one to refcount 0, cleared when a scan evicts every unpinned record.
  bool has_unpinned_ = false;
  PageStoreStats stats_;
};

}  // namespace prebake::criu
