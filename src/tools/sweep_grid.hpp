#pragma once
// Run-knob flags shared by every tool, and the configuration grid of the
// sweep drivers (mlpsweep's local path, its --server remote path, and
// `mlpclient sweep`). All of it is generated from the knob table
// (sim/knobs.hpp): mlpsim, mlpsweep and mlpclient accept the same knob
// flags with the same value rules. The grid expands its cross product in
// one fixed order — arch → bench → the axis knobs in table order, last
// fastest — so every driver emits rows in the same deterministic order.

#include <algorithm>
#include <string>
#include <vector>

#include "argparse.hpp"
#include "sim/knobs.hpp"
#include "sim/runner.hpp"

namespace mlp::tools {

inline std::vector<arch::ArchKind> parse_archs(const std::string& flag,
                                               const std::string& text) {
  if (text == "all") return arch::all_arch_kinds();
  std::vector<arch::ArchKind> kinds;
  for (const std::string& name : split_list(flag, text)) {
    arch::ArchKind kind;
    if (!arch::arch_from_name(name, &kind)) {
      flag_error(flag, name, "a known architecture");
    }
    kinds.push_back(kind);
  }
  return kinds;
}

inline std::vector<std::string> parse_benches(const std::string& flag,
                                              const std::string& text) {
  if (text == "all") return workloads::bmla_names();
  std::vector<std::string> benches = split_list(flag, text);
  const std::vector<std::string>& known = workloads::bmla_names();
  for (const std::string& bench : benches) {
    if (std::find(known.begin(), known.end(), bench) == known.end()) {
      flag_error(flag, bench, "a known benchmark");
    }
  }
  return benches;
}

/// One command-line value of a valued knob; exits 2 naming the flag when it
/// breaks the knob's type or rule. The spec-string rules run here, so a
/// typo exits at parse time instead of failing every grid point.
inline sim::KnobValue parse_knob(const sim::Knob& knob,
                                 const std::string& text) {
  sim::KnobValue value;
  bool typed = true;
  if (knob.type == sim::Knob::Type::kString) {
    value = text;
  } else if (knob.type == sim::Knob::Type::kDouble) {
    double number = 0;
    typed = parse_real(text, &number);
    value = number;
  } else {
    u64 number = 0;
    typed = parse_unsigned(text, &number);
    value = number;
  }
  if (!typed || !sim::knob_accepts(knob, value)) {
    flag_error(knob.flag, text, sim::knob_expects(knob));
  }
  return value;
}

/// Consume the current flag into `options` when it is a knob flag; returns
/// false (cursor untouched) otherwise. A switch sets its knob's non-default
/// value. mlpsim and `mlpclient submit/run` parse their knobs through this.
inline bool consume_knob(ArgCursor& args, sim::SuiteOptions& options) {
  const sim::Knob* knob = sim::find_knob_flag(args.flag());
  if (knob == nullptr) return false;
  if (knob->type == sim::Knob::Type::kBool) {
    sim::knob_set(*knob, options,
                  !std::get<bool>(sim::knob_get(*knob, sim::SuiteOptions{})));
  } else {
    sim::knob_set(*knob, options, parse_knob(*knob, args.value()));
  }
  return true;
}

/// Usage lines for every knob flag, with defaults; `lists` shows the axis
/// knobs as comma-separated lists.
inline std::string knob_help(bool lists) {
  const sim::SuiteOptions defaults;
  std::string out;
  for (const sim::Knob& knob : sim::knobs()) {
    std::string left = knob.flag;
    if (knob.arg != nullptr) {
      left += ' ';
      left += lists && knob.axis != sim::Knob::Axis::kNone ? "LIST"
                                                           : knob.arg;
    }
    std::string line = "  " + left;
    line.resize(std::max<std::size_t>(line.size() + 1, 25), ' ');
    line += knob.help;
    if (knob.arg != nullptr) {
      const std::string def =
          "(default " + sim::knob_text(knob, sim::knob_get(knob, defaults)) +
          ")";
      line += line.size() + 1 + def.size() > 79
                  ? "\n" + std::string(25, ' ') + def
                  : " " + def;
    }
    out += line + "\n";
  }
  return out;
}

struct SweepGrid {
  std::vector<arch::ArchKind> archs = {arch::ArchKind::kMillipede};
  std::vector<std::string> benches = workloads::bmla_names();
  /// Every scalar knob, and each axis knob not given a list.
  sim::SuiteOptions base;
  /// The values of each axis knob given on the command line, by table row.
  std::vector<std::vector<sim::KnobValue>> axes =
      std::vector<std::vector<sim::KnobValue>>(sim::knobs().size());

  /// Usage text for the flags consume() understands.
  static std::string help() {
    return "Grid (comma-separated LISTs are sweep axes):\n"
           "  --arch LIST|all        architectures (default millipede)\n"
           "  --bench LIST|all       benchmarks (default all)\n" +
           knob_help(/*lists=*/true);
  }

  /// The points of one knob: its axis list, or the base value alone.
  std::vector<sim::KnobValue> values(const sim::Knob& knob) const {
    const std::vector<sim::KnobValue>& list = axes[row(&knob)];
    if (!list.empty()) return list;
    return {sim::knob_get(knob, base)};
  }

  /// Try to consume the current ArgCursor flag as a grid flag; returns
  /// false (cursor untouched) when the flag is not one of ours.
  bool consume(ArgCursor& args) {
    if (args.is("--arch")) {
      archs = parse_archs(args.flag(), args.value());
      return true;
    }
    if (args.is("--bench")) {
      benches = parse_benches(args.flag(), args.value());
      return true;
    }
    const sim::Knob* knob = sim::find_knob_flag(args.flag());
    if (knob == nullptr) return false;
    if (knob->axis == sim::Knob::Axis::kNone) return consume_knob(args, base);
    std::vector<sim::KnobValue>& list = axes[row(knob)];
    list.clear();
    for (const std::string& item : split_list(knob->flag, args.value())) {
      list.push_back(parse_knob(*knob, item));
    }
    return true;
  }

  /// Expand the cross product: arch, bench, then every axis knob in table
  /// order, the last varying fastest.
  std::vector<sim::MatrixJob> expand() const {
    std::vector<const sim::Knob*> axis_knobs;
    std::vector<std::vector<sim::KnobValue>> points;
    bool dram_swept = false;
    for (const sim::Knob& knob : sim::knobs()) {
      if (knob.axis == sim::Knob::Axis::kNone) continue;
      axis_knobs.push_back(&knob);
      points.push_back(values(knob));
      dram_swept |= knob.axis == sim::Knob::Axis::kDramAxis &&
                    points.back().size() > 1;
    }
    std::vector<sim::MatrixJob> matrix;
    for (const arch::ArchKind kind : archs) {
      for (const std::string& bench : benches) {
        std::vector<std::size_t> at(points.size(), 0);
        for (;;) {
          sim::SuiteOptions options = base;
          for (std::size_t a = 0; a < points.size(); ++a) {
            sim::knob_set(*axis_knobs[a], options, points[a][at[a]]);
          }
          matrix.push_back(
              {kind, bench, options, trace_tag(options, dram_swept)});
          std::size_t a = points.size();
          while (a > 0 && ++at[a - 1] == points[a - 1].size()) at[--a] = 0;
          if (a == 0) break;
        }
      }
    }
    return matrix;
  }

 private:
  static std::size_t row(const sim::Knob* knob) {
    return static_cast<std::size_t>(knob - sim::knobs().data());
  }

  /// Tracing needs a unique per-point file stem: the axis values of the
  /// point, the DRAM axes only when one of them is swept.
  static std::string trace_tag(const sim::SuiteOptions& options,
                               bool dram_swept) {
    if (!options.trace.enabled()) return "";
    std::string tag;
    for (const sim::Knob& knob : sim::knobs()) {
      if (knob.axis == sim::Knob::Axis::kNone ||
          (knob.axis == sim::Knob::Axis::kDramAxis && !dram_swept)) {
        continue;
      }
      if (!tag.empty()) tag += '-';
      tag += knob.stem;
      tag += sim::knob_text(knob, sim::knob_get(knob, options));
    }
    // ':' and '=' are awkward in file stems.
    std::replace(tag.begin(), tag.end(), ':', '.');
    std::replace(tag.begin(), tag.end(), '=', '.');
    return tag;
  }
};

}  // namespace mlp::tools
