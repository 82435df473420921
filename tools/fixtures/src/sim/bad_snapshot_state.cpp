// Fixture: snapshot-unsafe-state — a snapshot-captured class (one with a
// snapshot_save() member) holding members a value copy cannot reproduce.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace vmat {

struct SavedState;

struct BadCapturedState {
  void snapshot_save(SavedState& out) const;
  std::unordered_map<std::uint64_t, int> cache_;  // a copy may reorder it
  int* scratch_;                                  // copy aliases the pointee
  const char* label_{nullptr};   // const pointee: fingerprinted identity
  std::vector<int> slots_;       // flat vector: the sanctioned form
  struct Entry {
    int* cursor_;  // nested helper: captured via its own copy
  };
};

struct NotCaptured {  // no snapshot_save(): the rule does not apply
  std::unordered_map<int, int> free_form_;
  int* raw_;
};

}  // namespace vmat
