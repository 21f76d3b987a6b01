#include "scenario/report.hpp"

#include <cctype>
#include <stdexcept>

#include "bounds/zhao.hpp"
#include "stats/summary.hpp"
#include "support/table.hpp"

namespace neatbound::scenario {

namespace {

const stats::RunningStats* stat_field(const sim::ExperimentSummary& summary,
                                      const std::string& name) {
  if (name == "convergence_opportunities") {
    return &summary.convergence_opportunities;
  }
  if (name == "adversary_blocks") return &summary.adversary_blocks;
  if (name == "honest_blocks") return &summary.honest_blocks;
  if (name == "violation_depth") return &summary.violation_depth;
  if (name == "max_reorg_depth") return &summary.max_reorg_depth;
  if (name == "max_divergence") return &summary.max_divergence;
  if (name == "disagreement_rounds") return &summary.disagreement_rounds;
  if (name == "chain_growth") return &summary.chain_growth;
  if (name == "chain_quality") return &summary.chain_quality;
  if (name == "best_height") return &summary.best_height;
  if (name == "violation_exceeds_t") return &summary.violation_exceeds_t;
  return nullptr;
}

double stat_aggregate(const stats::RunningStats& stat,
                      const std::string& aggregate, const std::string& name) {
  if (aggregate == "mean") return stat.mean();
  if (aggregate == "stderr") return stat.stderr_mean();
  if (aggregate == "stddev") return stat.stddev();
  if (aggregate == "variance") return stat.variance();
  if (aggregate == "min") return stat.min();
  if (aggregate == "max") return stat.max();
  if (aggregate == "count") return static_cast<double>(stat.count());
  throw std::runtime_error(
      "report value \"" + name +
      "\": unknown aggregate (mean | stderr | stddev | variance | min | "
      "max | count)");
}

}  // namespace

CellContext::CellContext(const ScenarioSpec& spec, const exp::SweepCell& cell)
    : spec_(spec), cell_(cell) {}

CellContext::CellContext(const ScenarioSpec& spec,
                         const exp::AdaptiveCell& cell)
    : spec_(spec), cell_(cell.cell), adaptive_(&cell) {}

double CellContext::value(const std::string& name) const {
  if (name == "seeds_used" || name == "violations" || name == "ci_low" ||
      name == "ci_high") {
    if (adaptive_ == nullptr) {
      throw std::runtime_error("report value \"" + name +
                               "\": only resolvable in adaptive runs");
    }
    if (name == "seeds_used") {
      return static_cast<double>(adaptive_->seeds_used);
    }
    if (name == "violations") {
      return static_cast<double>(adaptive_->violations);
    }
    return name == "ci_low" ? adaptive_->ci.lo : adaptive_->ci.hi;
  }
  // "<stat>.<agg>" — summary statistics.
  if (const std::size_t dot = name.find('.'); dot != std::string::npos) {
    const std::string field = name.substr(0, dot);
    const std::string aggregate = name.substr(dot + 1);
    const stats::RunningStats* stat = stat_field(cell_.summary, field);
    if (stat == nullptr) {
      throw std::runtime_error("report value \"" + name +
                               "\": unknown summary field \"" + field + "\"");
    }
    return stat_aggregate(*stat, aggregate, name);
  }

  const sim::EngineConfig& engine = cell_.config.engine;
  if (name == "miners") return static_cast<double>(engine.miner_count);
  if (name == "nu") return engine.adversary_fraction;
  if (name == "delta") return static_cast<double>(engine.delta);
  if (name == "rounds") return static_cast<double>(engine.rounds);
  if (name == "p") return engine.p;
  if (name == "seeds") return static_cast<double>(cell_.config.seeds);

  if (name == "bound" || name == "c" || name == "multiple") {
    const double bound = bounds::neat_bound_c(engine.adversary_fraction);
    if (name == "bound") return bound;
    double c;
    if (spec_.hardness_mode == "neat-bound-multiple") {
      // Recompute exactly as the config builder did, so "c" rows print
      // the same doubles a hand-written bench prints.
      const double multiple = spec_.has_axis("multiple")
                                  ? cell_.point.value("multiple")
                                  : spec_.hardness_multiple;
      if (name == "multiple") return multiple;
      c = bound * multiple;
    } else if (spec_.hardness_mode == "c") {
      c = spec_.has_axis("c") ? cell_.point.value("c") : spec_.hardness_c;
    } else {
      // fixed p: invert p = 1 / (c·n·Δ).
      c = 1.0 / (engine.p * static_cast<double>(engine.miner_count) *
                 static_cast<double>(engine.delta));
    }
    return name == "c" ? c : c / bound;
  }

  for (const AxisSpec& axis : spec_.axes) {
    if (axis.name == name) return cell_.point.value(name);
  }
  throw std::runtime_error(
      "report value \"" + name +
      "\": not an axis, engine parameter (miners|nu|delta|rounds|p|seeds), "
      "derived value (bound|c|multiple), adaptive verdict "
      "(seeds_used|violations|ci_low|ci_high) or \"<stat>.<aggregate>\"");
}

std::string format_label(const std::string& label_template,
                         const CellContext& context) {
  std::string out;
  for (const LabelPiece& piece : parse_label_template(label_template)) {
    out += piece.decimals < 0
               ? piece.text
               : format_fixed(context.value(piece.text), piece.decimals);
  }
  return out;
}

std::vector<ColumnSpec> default_columns(const ScenarioSpec& spec) {
  std::vector<ColumnSpec> columns;
  for (const AxisSpec& axis : spec.axes) {
    columns.push_back({axis.name, axis.name, 4});
  }
  columns.push_back({"mean violation depth", "violation_depth.mean", 2});
  columns.push_back({"max reorg", "max_reorg_depth.max", 0});
  columns.push_back({"max divergence", "max_divergence.max", 0});
  columns.push_back({"P[depth > T]", "violation_exceeds_t.mean", 3});
  columns.push_back({"chain growth", "chain_growth.mean", 4});
  columns.push_back({"chain quality", "chain_quality.mean", 3});
  columns.push_back({"honest blocks", "honest_blocks.mean", 1});
  columns.push_back({"adversary blocks", "adversary_blocks.mean", 1});
  if (spec.adaptive) {
    columns.push_back({"seeds used", "seeds_used", 0});
    columns.push_back({"ci low", "ci_low", 4});
    columns.push_back({"ci high", "ci_high", 4});
  }
  return columns;
}

namespace {

const exp::GridPoint& point_of(const exp::SweepCell& cell) {
  return cell.point;
}
const exp::GridPoint& point_of(const exp::AdaptiveCell& cell) {
  return cell.cell.point;
}

/// Shared sectioning/column loop; Cell is SweepCell or AdaptiveCell
/// (CellContext is constructible from both).
template <typename Cell>
void render_cells(const ScenarioSpec& spec, const std::vector<Cell>& cells,
                  exp::ResultSink& sink) {
  const std::vector<ColumnSpec> columns =
      spec.report.columns.empty() ? default_columns(spec)
                                  : spec.report.columns;
  std::vector<std::string> headers;
  headers.reserve(columns.size());
  for (const ColumnSpec& column : columns) headers.push_back(column.header);

  bool section_open = false;
  double section_value = 0.0;
  for (const Cell& cell : cells) {
    const CellContext context(spec, cell);
    if (spec.report.section_by.empty()) {
      if (!section_open) {
        sink.begin_section("", headers);
        section_open = true;
      }
    } else {
      const double current = point_of(cell).value(spec.report.section_by);
      if (!section_open || current != section_value) {
        sink.begin_section(format_label(spec.report.section_label, context),
                           headers);
        section_open = true;
        section_value = current;
      }
    }
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const ColumnSpec& column : columns) {
      row.push_back(format_fixed(context.value(column.value),
                                 column.decimals));
    }
    sink.add_row(row);
  }
}

}  // namespace

void render_report(const ScenarioSpec& spec,
                   const std::vector<exp::SweepCell>& cells,
                   exp::ResultSink& sink) {
  render_cells(spec, cells, sink);
}

void render_adaptive_report(const ScenarioSpec& spec,
                            const std::vector<exp::AdaptiveCell>& cells,
                            exp::ResultSink& sink) {
  render_cells(spec, cells, sink);
}

}  // namespace neatbound::scenario
