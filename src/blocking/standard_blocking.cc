#include "blocking/standard_blocking.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "util/interner.h"

namespace rulelink::blocking {

StandardBlocker::StandardBlocker(std::string property,
                                 std::size_t prefix_length)
    : property_(std::move(property)), prefix_length_(prefix_length) {}

std::vector<CandidatePair> StandardBlocker::Generate(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  // Keys are interned to dense ids; the block index is then a flat
  // vector-of-vectors instead of a string-keyed hash map, and the probe
  // side never allocates map nodes (Find is read-only).
  util::StringInterner keys;
  std::vector<std::vector<std::size_t>> blocks;  // by key id
  for (std::size_t l = 0; l < local.size(); ++l) {
    const std::string key = BlockingKey(local[l], property_, prefix_length_);
    if (key.empty()) continue;
    const util::SymbolId id = keys.Intern(key);
    if (id == blocks.size()) blocks.emplace_back();
    blocks[id].push_back(l);
  }
  std::vector<CandidatePair> pairs;
  for (std::size_t e = 0; e < external.size(); ++e) {
    const std::string key = BlockingKey(external[e], property_, prefix_length_);
    if (key.empty()) continue;
    const util::SymbolId id = keys.Find(key);
    if (id == util::kInvalidSymbolId) continue;
    for (std::size_t l : blocks[id]) pairs.push_back(CandidatePair{e, l});
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

namespace {

class StandardBlockIndex : public CandidateIndex {
 public:
  StandardBlockIndex(std::vector<std::vector<std::size_t>> blocks,
                     std::vector<util::SymbolId> external_key)
      : blocks_(std::move(blocks)), external_key_(std::move(external_key)) {}

  void CandidatesOf(std::size_t external_index,
                    std::vector<std::size_t>* out) const override {
    const util::SymbolId id = external_key_[external_index];
    if (id == util::kInvalidSymbolId) {
      out->clear();
      return;
    }
    // Locals were inserted in ascending order, so each block already is a
    // sorted-unique run.
    out->assign(blocks_[id].begin(), blocks_[id].end());
  }
  std::size_t num_external() const override { return external_key_.size(); }

 private:
  std::vector<std::vector<std::size_t>> blocks_;  // by key id
  std::vector<util::SymbolId> external_key_;      // by external index
};

class StandardItemIndex : public ItemCandidateIndex {
 public:
  StandardItemIndex(std::string property, std::size_t prefix_length,
                    util::StringInterner keys,
                    std::vector<std::vector<std::size_t>> blocks,
                    std::size_t num_local)
      : property_(std::move(property)),
        prefix_length_(prefix_length),
        keys_(std::move(keys)),
        blocks_(std::move(blocks)),
        num_local_(num_local) {}

  void CandidatesOfItem(const core::Item& item, std::string* key_scratch,
                        std::vector<std::size_t>* out) const override {
    AppendBlockingKey(item, property_, prefix_length_, key_scratch);
    CandidatesOfKey(*key_scratch, out);
  }
  std::size_t num_local() const override { return num_local_; }

  // Replaces `out` with the block of an already-extracted key (empty for
  // an empty or unknown key). Find never mutates the interner, so
  // concurrent probes are safe.
  void CandidatesOfKey(std::string_view key,
                       std::vector<std::size_t>* out) const {
    const util::SymbolId id =
        key.empty() ? util::kInvalidSymbolId : keys_.Find(key);
    if (id == util::kInvalidSymbolId) {
      out->clear();
      return;
    }
    out->assign(blocks_[id].begin(), blocks_[id].end());
  }

  const std::string& property() const { return property_; }
  std::size_t prefix_length() const { return prefix_length_; }

 private:
  std::string property_;
  std::size_t prefix_length_;
  util::StringInterner keys_;
  std::vector<std::vector<std::size_t>> blocks_;  // by key id
  std::size_t num_local_;
};

// The tail over a full StandardItemIndex: every local appended since that
// index was built, under its own small key interner, with postings in
// global indices past the root's. The root answers first (its indices are
// all < root->num_local()), then the tail appends its own postings — so
// the combined run is ascending and duplicate-free by construction, and a
// probe costs two lookups however many deltas the tail has absorbed.
class DeltaStandardItemIndex : public ItemCandidateIndex {
 public:
  DeltaStandardItemIndex(std::shared_ptr<const StandardItemIndex> root,
                         util::StringInterner keys,
                         std::vector<std::vector<std::size_t>> blocks,
                         std::size_t num_local)
      : root_(std::move(root)),
        keys_(std::move(keys)),
        blocks_(std::move(blocks)),
        num_local_(num_local) {}

  void CandidatesOfItem(const core::Item& item, std::string* key_scratch,
                        std::vector<std::size_t>* out) const override {
    AppendBlockingKey(item, root_->property(), root_->prefix_length(),
                      key_scratch);
    root_->CandidatesOfKey(*key_scratch, out);
    if (key_scratch->empty()) return;
    const util::SymbolId id = keys_.Find(*key_scratch);
    if (id == util::kInvalidSymbolId) return;
    out->insert(out->end(), blocks_[id].begin(), blocks_[id].end());
  }
  std::size_t num_local() const override { return num_local_; }

  const std::shared_ptr<const StandardItemIndex>& root() const {
    return root_;
  }
  const util::StringInterner& keys() const { return keys_; }
  const std::vector<std::vector<std::size_t>>& blocks() const {
    return blocks_;
  }

 private:
  std::shared_ptr<const StandardItemIndex> root_;
  util::StringInterner keys_;
  std::vector<std::vector<std::size_t>> blocks_;  // by key id, global indices
  std::size_t num_local_;
};

}  // namespace

std::unique_ptr<CandidateIndex> StandardBlocker::BuildIndex(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  // Same block construction as Generate, but instead of expanding the
  // cross product we keep the blocks and each external item's key id.
  util::StringInterner keys;
  std::vector<std::vector<std::size_t>> blocks;  // by key id
  for (std::size_t l = 0; l < local.size(); ++l) {
    const std::string key = BlockingKey(local[l], property_, prefix_length_);
    if (key.empty()) continue;
    const util::SymbolId id = keys.Intern(key);
    if (id == blocks.size()) blocks.emplace_back();
    blocks[id].push_back(l);
  }
  std::vector<util::SymbolId> external_key(external.size(),
                                           util::kInvalidSymbolId);
  for (std::size_t e = 0; e < external.size(); ++e) {
    const std::string key = BlockingKey(external[e], property_, prefix_length_);
    if (key.empty()) continue;
    external_key[e] = keys.Find(key);
  }
  return std::make_unique<StandardBlockIndex>(std::move(blocks),
                                              std::move(external_key));
}

std::unique_ptr<ItemCandidateIndex> StandardBlocker::BuildItemIndex(
    const std::vector<core::Item>& local) const {
  // The local half of BuildIndex, kept probe-ready: the interner resolves
  // any query item's key with a read-only Find at serve time.
  util::StringInterner keys;
  std::vector<std::vector<std::size_t>> blocks;  // by key id
  for (std::size_t l = 0; l < local.size(); ++l) {
    const std::string key = BlockingKey(local[l], property_, prefix_length_);
    if (key.empty()) continue;
    const util::SymbolId id = keys.Intern(key);
    if (id == blocks.size()) blocks.emplace_back();
    blocks[id].push_back(l);
  }
  return std::make_unique<StandardItemIndex>(property_, prefix_length_,
                                             std::move(keys),
                                             std::move(blocks), local.size());
}

std::unique_ptr<ItemCandidateIndex> StandardBlocker::ExtendItemIndex(
    std::shared_ptr<const ItemCandidateIndex> base,
    const std::vector<core::Item>& delta) const {
  // Extending a tail copies its key interner (ids preserved) and postings
  // and appends the delta to the copy, so every generation is the full
  // index plus exactly one tail; extending a full index starts the tail.
  std::shared_ptr<const StandardItemIndex> root;
  util::StringInterner keys;
  std::vector<std::vector<std::size_t>> blocks;  // by key id
  if (const auto* tail =
          dynamic_cast<const DeltaStandardItemIndex*>(base.get())) {
    root = tail->root();
    keys = tail->keys();
    blocks = tail->blocks();
  } else {
    root = std::dynamic_pointer_cast<const StandardItemIndex>(base);
    if (root == nullptr) return nullptr;
  }
  // Only an index built with this exact key scheme can be extended: the
  // tail must block on the same (property, prefix) or the combined index
  // would mix incompatible keys.
  if (root->property() != property_ ||
      root->prefix_length() != prefix_length_) {
    return nullptr;
  }
  const std::size_t offset = base->num_local();
  for (std::size_t j = 0; j < delta.size(); ++j) {
    const std::string key = BlockingKey(delta[j], property_, prefix_length_);
    if (key.empty()) continue;
    const util::SymbolId id = keys.Intern(key);
    if (id == blocks.size()) blocks.emplace_back();
    blocks[id].push_back(offset + j);
  }
  return std::make_unique<DeltaStandardItemIndex>(
      std::move(root), std::move(keys), std::move(blocks),
      offset + delta.size());
}

std::string StandardBlocker::name() const {
  return "standard(" + property_ + "," + std::to_string(prefix_length_) + ")";
}

}  // namespace rulelink::blocking
