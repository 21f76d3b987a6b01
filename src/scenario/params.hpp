// Flat key→value parameter bags for scenario components (network models,
// adversary strategies).  Factories read their options through typed
// getters; every component declares its accepted key list in the registry,
// and verify_only() flags misspelled or unsupported keys — the same
// never-silently-ignore contract CliArgs applies to command-line flags.
//
// All getters are pure const reads (no consumption bookkeeping): component
// factories run once per seed, concurrently, over a shared Params.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scenario/json.hpp"

namespace neatbound::scenario {

class Params {
 public:
  Params() = default;
  /// From a JSON object, minus the keys in `reserved` (the component's
  /// own selector, e.g. "model" or "strategy").  Values must be numbers,
  /// strings or booleans — nested structure is not a parameter.
  static Params from_object(const JsonValue& object,
                            const std::set<std::string>& reserved);

  /// Number lookup with default; throws on a present-but-non-numeric value.
  [[nodiscard]] double get_number(const std::string& name,
                                  double default_value) const;
  /// get_number constrained to a non-negative integer ≤ 2^53; a failure
  /// names the parameter and gives JsonValue::as_uint's reason.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t default_value) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& default_value) const;
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool default_value) const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  /// Every entry in file order — the serialization view the violation
  /// artifact writer (scenario/artifact.hpp) renders back to JSON.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  entries() const noexcept {
    return values_;
  }

  /// Canonical "key=value;" rendering of every entry in file order —
  /// the piece of a component's identity that adaptive-sweep checkpoint
  /// fingerprints fold in (numbers at full %.17g precision).
  [[nodiscard]] std::string fingerprint_text() const;

  /// Throws std::runtime_error naming every provided key that is not in
  /// `known`.  `where` prefixes the message ("adversary 'x'", …).
  void verify_only(const std::vector<std::string>& known,
                   const std::string& where) const;

 private:
  [[nodiscard]] const JsonValue* lookup(const std::string& name) const;

  std::vector<std::pair<std::string, JsonValue>> values_;
};

}  // namespace neatbound::scenario
