#include "scenario/spec.hpp"

#include <set>
#include <stdexcept>
#include <string_view>

#include "sim/oracle.hpp"

namespace neatbound::scenario {

namespace {

void reject_unknown_keys(const JsonValue& object,
                         const std::set<std::string>& known,
                         const std::string& where) {
  for (const auto& [key, value] : object.as_object()) {
    if (known.count(key) == 0) {
      throw std::runtime_error(where + ": unknown key \"" + key + "\"");
    }
  }
}

double number_or(const JsonValue& object, const char* key,
                 double default_value) {
  const JsonValue* v = object.find(key);
  return v == nullptr ? default_value : v->as_number();
}

std::uint64_t uint_or(const JsonValue& object, const char* key,
                      std::uint64_t default_value, std::string_view field) {
  const JsonValue* v = object.find(key);
  return v == nullptr ? default_value : v->as_uint(field);
}

std::uint32_t uint32_or(const JsonValue& object, const char* key,
                        std::uint32_t default_value, std::string_view field) {
  const JsonValue* v = object.find(key);
  return v == nullptr ? default_value : v->as_uint32(field);
}

std::string string_or(const JsonValue& object, const char* key,
                      const std::string& default_value) {
  const JsonValue* v = object.find(key);
  return v == nullptr ? default_value : v->as_string();
}

ComponentSpec parse_component(const JsonValue& object, const char* selector,
                              const std::string& default_kind,
                              const std::string& where) {
  ComponentSpec component;
  component.kind = string_or(object, selector, default_kind);
  if (component.kind.empty()) {
    throw std::runtime_error(where + ": \"" + selector +
                             "\" must not be empty");
  }
  component.params = Params::from_object(object, {selector});
  return component;
}

std::vector<AxisSpec> parse_axes(const JsonValue& axes) {
  std::vector<AxisSpec> out;
  for (const JsonValue& entry : axes.as_array()) {
    reject_unknown_keys(entry, {"name", "values"}, "axes entry");
    AxisSpec axis;
    axis.name = entry.at("name").as_string();
    if (axis.name.empty()) {
      throw std::runtime_error("axes entry: \"name\" must not be empty");
    }
    for (const AxisSpec& existing : out) {
      if (existing.name == axis.name) {
        throw std::runtime_error("duplicate axis \"" + axis.name + "\"");
      }
    }
    for (const JsonValue& value : entry.at("values").as_array()) {
      axis.values.push_back(value.as_number());
    }
    if (axis.values.empty()) {
      throw std::runtime_error("axis \"" + axis.name +
                               "\" needs at least one value");
    }
    out.push_back(std::move(axis));
  }
  return out;
}

AdaptiveSpec parse_adaptive(const JsonValue& adaptive) {
  reject_unknown_keys(
      adaptive,
      {"min_seeds", "batch", "max_seeds", "half_width", "confidence"},
      "adaptive");
  AdaptiveSpec out;
  out.min_seeds =
      uint32_or(adaptive, "min_seeds", out.min_seeds, "adaptive.min_seeds");
  out.batch = uint32_or(adaptive, "batch", out.batch, "adaptive.batch");
  out.max_seeds =
      uint32_or(adaptive, "max_seeds", out.max_seeds, "adaptive.max_seeds");
  out.half_width = number_or(adaptive, "half_width", out.half_width);
  out.confidence = number_or(adaptive, "confidence", out.confidence);
  if (out.min_seeds == 0) {
    throw std::runtime_error("adaptive: \"min_seeds\" must be >= 1");
  }
  if (out.batch == 0) {
    throw std::runtime_error("adaptive: \"batch\" must be >= 1");
  }
  if (out.max_seeds < out.min_seeds) {
    throw std::runtime_error(
        "adaptive: \"max_seeds\" must be >= \"min_seeds\"");
  }
  if (out.half_width < 0.0) {
    throw std::runtime_error("adaptive: \"half_width\" must be >= 0");
  }
  if (out.confidence <= 0.0 || out.confidence >= 1.0) {
    throw std::runtime_error("adaptive: \"confidence\" must be in (0,1)");
  }
  return out;
}

OracleSpec parse_oracle(const JsonValue& oracle) {
  reject_unknown_keys(oracle,
                      {"invariants", "common_prefix_t", "growth_window",
                       "growth_min_blocks", "quality_window",
                       "quality_min_ratio", "slice_rounds", "max_runs"},
                      "oracle");
  OracleSpec out;
  if (const JsonValue* invariants = oracle.find("invariants")) {
    out.invariants.clear();
    for (const JsonValue& entry : invariants->as_array()) {
      std::string name = entry.as_string();
      if (!sim::parse_invariant_name(name)) {
        std::string known;
        for (const std::string& candidate : sim::invariant_names()) {
          if (!known.empty()) known += ", ";
          known += candidate;
        }
        throw std::runtime_error("oracle: unknown invariant \"" + name +
                                 "\" (known: " + known + ")");
      }
      for (const std::string& existing : out.invariants) {
        if (existing == name) {
          throw std::runtime_error("oracle: duplicate invariant \"" + name +
                                   "\"");
        }
      }
      out.invariants.push_back(std::move(name));
    }
    if (out.invariants.empty()) {
      throw std::runtime_error("oracle: \"invariants\" must not be empty");
    }
  }
  if (const JsonValue* t = oracle.find("common_prefix_t")) {
    out.common_prefix_t = t->as_uint("oracle.common_prefix_t");
  }
  out.growth_window = uint_or(oracle, "growth_window", out.growth_window,
                              "oracle.growth_window");
  out.growth_min_blocks =
      uint_or(oracle, "growth_min_blocks", out.growth_min_blocks,
              "oracle.growth_min_blocks");
  out.quality_window = uint_or(oracle, "quality_window", out.quality_window,
                               "oracle.quality_window");
  out.quality_min_ratio =
      number_or(oracle, "quality_min_ratio", out.quality_min_ratio);
  out.slice_rounds = uint_or(oracle, "slice_rounds", out.slice_rounds,
                             "oracle.slice_rounds");
  out.max_runs = uint_or(oracle, "max_runs", out.max_runs, "oracle.max_runs");
  // Full arming rules (vacuous thresholds, slice bounds) live in
  // sim::validate_oracle_config, applied when the block resolves to an
  // OracleConfig; here only the window/threshold basics that are wrong
  // in any resolution.
  if (out.growth_window == 0) {
    throw std::runtime_error("oracle: \"growth_window\" must be >= 1");
  }
  if (out.quality_window == 0) {
    throw std::runtime_error("oracle: \"quality_window\" must be >= 1");
  }
  if (out.quality_min_ratio <= 0.0 || out.quality_min_ratio > 1.0) {
    throw std::runtime_error(
        "oracle: \"quality_min_ratio\" must be in (0, 1]");
  }
  if (out.slice_rounds == 0) {
    throw std::runtime_error("oracle: \"slice_rounds\" must be >= 1");
  }
  return out;
}

ReportSpec parse_report(const JsonValue& report) {
  reject_unknown_keys(report, {"section_by", "section_label", "columns"},
                      "report");
  ReportSpec out;
  out.section_by = string_or(report, "section_by", "");
  out.section_label = string_or(report, "section_label", "");
  if (const JsonValue* columns = report.find("columns")) {
    for (const JsonValue& entry : columns->as_array()) {
      reject_unknown_keys(entry, {"header", "value", "decimals"},
                          "report column");
      ColumnSpec column;
      column.value = entry.at("value").as_string();
      column.header = string_or(entry, "header", column.value);
      column.decimals =
          static_cast<int>(uint_or(entry, "decimals",
                                   static_cast<std::uint64_t>(3),
                                   "report.columns[].decimals"));
      out.columns.push_back(std::move(column));
    }
  }
  if (!out.section_by.empty() && out.section_label.empty()) {
    throw std::runtime_error(
        "report: section_by requires a section_label template");
  }
  return out;
}

}  // namespace

bool ScenarioSpec::has_axis(const std::string& axis_name) const {
  for (const AxisSpec& axis : axes) {
    if (axis.name == axis_name) return true;
  }
  return false;
}

std::size_t ScenarioSpec::grid_size() const {
  std::size_t size = 1;
  for (const AxisSpec& axis : axes) size *= axis.values.size();
  return size;
}

ScenarioSpec parse_scenario(const JsonValue& document) {
  reject_unknown_keys(document,
                      {"name", "title", "description", "engine", "axes",
                       "hardness", "seeds", "base_seed", "violation_t",
                       "adaptive", "oracle", "adversary", "network", "report",
                       "meta"},
                      "scenario");
  ScenarioSpec spec;
  spec.name = document.at("name").as_string();
  if (spec.name.empty()) {
    throw std::runtime_error("scenario: \"name\" must not be empty");
  }
  spec.title = string_or(document, "title", "");
  spec.description = string_or(document, "description", "");

  if (const JsonValue* engine = document.find("engine")) {
    if (engine->find("rng") != nullptr) {
      throw std::runtime_error(
          "engine.rng is no longer supported: every run uses the counter "
          "RNG; remove the key");
    }
    reject_unknown_keys(*engine, {"miners", "nu", "delta", "rounds", "p"},
                        "engine");
    spec.miners = uint32_or(*engine, "miners", spec.miners, "engine.miners");
    spec.nu = number_or(*engine, "nu", spec.nu);
    spec.delta = uint_or(*engine, "delta", spec.delta, "engine.delta");
    spec.rounds = uint_or(*engine, "rounds", spec.rounds, "engine.rounds");
    spec.p = number_or(*engine, "p", spec.p);
  }

  if (const JsonValue* axes = document.find("axes")) {
    spec.axes = parse_axes(*axes);
  }

  if (const JsonValue* hardness = document.find("hardness")) {
    reject_unknown_keys(*hardness, {"mode", "c", "multiple"}, "hardness");
    spec.hardness_mode = string_or(*hardness, "mode", spec.hardness_mode);
    spec.hardness_c = number_or(*hardness, "c", spec.hardness_c);
    spec.hardness_multiple =
        number_or(*hardness, "multiple", spec.hardness_multiple);
  }
  if (spec.hardness_mode != "fixed" && spec.hardness_mode != "c" &&
      spec.hardness_mode != "neat-bound-multiple") {
    throw std::runtime_error("hardness: unknown mode \"" +
                             spec.hardness_mode +
                             "\" (fixed | c | neat-bound-multiple)");
  }
  if (spec.hardness_mode == "c" && spec.hardness_c <= 0.0 &&
      !spec.has_axis("c")) {
    throw std::runtime_error(
        "hardness mode \"c\" needs a \"c\" axis or a positive hardness.c");
  }

  spec.seeds = uint32_or(document, "seeds", spec.seeds, "seeds");
  if (spec.seeds == 0) {
    throw std::runtime_error("scenario: \"seeds\" must be >= 1");
  }
  spec.base_seed = uint_or(document, "base_seed", spec.base_seed, "base_seed");
  spec.violation_t = uint_or(document, "violation_t", spec.violation_t,
                             "violation_t");

  if (const JsonValue* adaptive = document.find("adaptive")) {
    spec.adaptive = parse_adaptive(*adaptive);
  }

  if (const JsonValue* oracle = document.find("oracle")) {
    spec.oracle = parse_oracle(*oracle);
  }

  if (const JsonValue* adversary = document.find("adversary")) {
    spec.adversary =
        parse_component(*adversary, "strategy", "max-delay", "adversary");
  } else {
    spec.adversary.kind = "max-delay";
  }
  if (const JsonValue* network = document.find("network")) {
    spec.network = parse_component(*network, "model", "strategy", "network");
  } else {
    spec.network.kind = "strategy";
  }

  if (const JsonValue* report = document.find("report")) {
    spec.report = parse_report(*report);
    if (!spec.report.section_by.empty() &&
        !spec.has_axis(spec.report.section_by)) {
      throw std::runtime_error("report: section_by axis \"" +
                               spec.report.section_by + "\" is not an axis");
    }
  }

  if (const JsonValue* meta = document.find("meta")) {
    for (const auto& [key, value] : meta->as_object()) {
      spec.extra_meta.emplace_back(key, value.as_number());
    }
  }
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text) {
  return parse_scenario(parse_json(text));
}

ScenarioSpec load_scenario_file(const std::string& path) {
  try {
    return parse_scenario(load_json_file(path));
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    if (what.rfind(path, 0) == 0) throw;  // already prefixed by the loader
    throw std::runtime_error(path + ": " + what);
  }
}

}  // namespace neatbound::scenario
