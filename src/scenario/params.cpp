#include "scenario/params.hpp"

#include <algorithm>
#include <stdexcept>

#include "exp/checkpoint.hpp"

namespace neatbound::scenario {

Params Params::from_object(const JsonValue& object,
                           const std::set<std::string>& reserved) {
  Params params;
  for (const auto& [key, value] : object.as_object()) {
    if (reserved.count(key) > 0) continue;
    if (!value.is_number() && !value.is_string() && !value.is_bool()) {
      throw std::runtime_error("parameter \"" + key +
                               "\" must be a number, string or boolean");
    }
    params.values_.emplace_back(key, value);
  }
  return params;
}

const JsonValue* Params::lookup(const std::string& name) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return &value;
  }
  return nullptr;
}

double Params::get_number(const std::string& name,
                          double default_value) const {
  const JsonValue* v = lookup(name);
  if (v == nullptr) return default_value;
  try {
    return v->as_number();
  } catch (const std::exception&) {
    throw std::runtime_error("parameter \"" + name + "\" must be a number");
  }
}

std::uint64_t Params::get_uint(const std::string& name,
                               std::uint64_t default_value) const {
  const JsonValue* v = lookup(name);
  if (v == nullptr) return default_value;
  return v->as_uint("parameter \"" + name + "\"");
}

std::string Params::get_string(const std::string& name,
                               const std::string& default_value) const {
  const JsonValue* v = lookup(name);
  if (v == nullptr) return default_value;
  try {
    return v->as_string();
  } catch (const std::exception&) {
    throw std::runtime_error("parameter \"" + name + "\" must be a string");
  }
}

bool Params::get_bool(const std::string& name, bool default_value) const {
  const JsonValue* v = lookup(name);
  if (v == nullptr) return default_value;
  try {
    return v->as_bool();
  } catch (const std::exception&) {
    throw std::runtime_error("parameter \"" + name + "\" must be a boolean");
  }
}

bool Params::has(const std::string& name) const {
  return lookup(name) != nullptr;
}

std::string Params::fingerprint_text() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    out += key;
    out += '=';
    if (value.is_number()) {
      out += exp::exact_double_repr(value.as_number());
    } else if (value.is_bool()) {
      out += value.as_bool() ? "true" : "false";
    } else {
      out += value.as_string();
    }
    out += ';';
  }
  return out;
}

void Params::verify_only(const std::vector<std::string>& known,
                         const std::string& where) const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "\"" + key + "\"";
    }
  }
  if (!unknown.empty()) {
    std::string accepted;
    for (const std::string& k : known) {
      if (!accepted.empty()) accepted += ", ";
      accepted += k;
    }
    throw std::runtime_error(
        where + ": unknown parameter(s) " + unknown +
        (known.empty() ? " (this component takes no parameters)"
                       : " (accepted: " + accepted + ")"));
  }
}

}  // namespace neatbound::scenario
