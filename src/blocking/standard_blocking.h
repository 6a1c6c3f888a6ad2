// Standard key blocking (Jaro 1989, as recalled in §2): items sharing the
// same blocking key — e.g. the first five characters of a name — fall in
// the same block, and only intra-block cross-source pairs are compared.
#ifndef RULELINK_BLOCKING_STANDARD_BLOCKING_H_
#define RULELINK_BLOCKING_STANDARD_BLOCKING_H_

#include <string>
#include <vector>

#include "blocking/blocker.h"

namespace rulelink::blocking {

class StandardBlocker : public CandidateGenerator {
 public:
  // Blocks on the first `prefix_length` characters (0 = full value) of
  // `property`. Items with an empty key are never candidates.
  StandardBlocker(std::string property, std::size_t prefix_length);

  std::vector<CandidatePair> Generate(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const override;
  // The block structure already is an inverted index over keys, so the
  // index stores it directly (plus each external item's resolved key id)
  // instead of materializing the pair list. Borrows nothing.
  std::unique_ptr<CandidateIndex> BuildIndex(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const override;
  // Probe-by-item form: keeps the blocks plus the key interner and
  // resolves each query item's key at probe time with a read-only Find —
  // no allocation beyond the caller's key scratch. Runs are identical to
  // BuildIndex's for the same item.
  std::unique_ptr<ItemCandidateIndex> BuildItemIndex(
      const std::vector<core::Item>& local) const override;
  // Extends a BuildItemIndex/ExtendItemIndex result of a StandardBlocker
  // with the same (property, prefix) key scheme. The result is always the
  // full BuildItemIndex result plus one tail: a small key interner +
  // blocks keyed with global indices past the full index's locals, holding
  // every item appended since. Extending a tail copies its interner (the
  // copy keeps every key id) and postings and appends the delta, so the
  // K-th delta publish still probes two structures, full-then-tail.
  // Returns null for a foreign or key-mismatched base.
  std::unique_ptr<ItemCandidateIndex> ExtendItemIndex(
      std::shared_ptr<const ItemCandidateIndex> base,
      const std::vector<core::Item>& delta) const override;
  std::string name() const override;

 private:
  std::string property_;
  std::size_t prefix_length_;
};

}  // namespace rulelink::blocking

#endif  // RULELINK_BLOCKING_STANDARD_BLOCKING_H_
