#ifndef PSK_TESTS_GATED_HIERARCHY_H_
#define PSK_TESTS_GATED_HIERARCHY_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "psk/hierarchy/hierarchy.h"

namespace psk {

/// Wraps a hierarchy so that the first Generalize call after construction,
/// and again after each Arm(), waits until `open` holds (10 s at most);
/// every call then delegates. A run's first call is its hierarchy
/// preflight, which comes right after the run charges its input to the
/// job's budget: a scheduler test can hold a job there, over its soft
/// quota, while the watchdog acts on it, instead of racing the watchdog
/// against a search that may end first.
class GatedHierarchy : public AttributeHierarchy {
 public:
  GatedHierarchy(std::shared_ptr<const AttributeHierarchy> base,
                 std::function<bool()> open)
      : base_(std::move(base)), open_(std::move(open)) {}

  /// Holds the next Generalize call again (e.g. from a job's on_start, to
  /// hold every attempt).
  void Arm() { armed_.store(true); }

  const std::string& attribute_name() const override {
    return base_->attribute_name();
  }
  int num_levels() const override { return base_->num_levels(); }
  Result<Value> Generalize(const Value& value, int level) const override {
    if (armed_.exchange(false)) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!open_() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return base_->Generalize(value, level);
  }

 private:
  std::shared_ptr<const AttributeHierarchy> base_;
  std::function<bool()> open_;
  mutable std::atomic<bool> armed_{true};
};

}  // namespace psk

#endif  // PSK_TESTS_GATED_HIERARCHY_H_
