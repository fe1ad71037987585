#include "src/core/feature_plan.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "src/common/string_util.h"

namespace safe {

namespace {

const OperatorRegistry& DefaultRegistry() {
  static const OperatorRegistry registry = OperatorRegistry::Default();
  return registry;
}

}  // namespace

Result<FeaturePlan> FeaturePlan::Create(
    std::vector<std::string> input_columns,
    std::vector<GeneratedFeature> generated,
    std::vector<std::string> selected) {
  FeaturePlan plan;
  plan.input_columns_ = std::move(input_columns);
  plan.generated_ = std::move(generated);
  plan.selected_ = std::move(selected);

  std::unordered_map<std::string, size_t> slots;  // lint: unordered-ok(name-to-slot lookup; outputs follow the input/generated vectors)
  for (size_t i = 0; i < plan.input_columns_.size(); ++i) {
    auto [it, inserted] = slots.emplace(plan.input_columns_[i], i);
    if (!inserted) {
      return Status::InvalidArgument("plan: duplicate input column '" +
                                     plan.input_columns_[i] + "'");
    }
  }
  plan.parent_slots_.resize(plan.generated_.size());
  for (size_t g = 0; g < plan.generated_.size(); ++g) {
    const GeneratedFeature& feature = plan.generated_[g];
    for (const std::string& parent : feature.parents) {
      auto it = slots.find(parent);
      if (it == slots.end()) {
        return Status::InvalidArgument(
            "plan: feature '" + feature.name + "' references unknown parent '" +
            parent + "'");
      }
      plan.parent_slots_[g].push_back(it->second);
    }
    auto [it, inserted] =
        slots.emplace(feature.name, plan.input_columns_.size() + g);
    if (!inserted) {
      return Status::InvalidArgument("plan: duplicate feature name '" +
                                     feature.name + "'");
    }
  }
  for (const std::string& name : plan.selected_) {
    auto it = slots.find(name);
    if (it == slots.end()) {
      return Status::InvalidArgument("plan: selected column '" + name +
                                     "' is neither input nor generated");
    }
    plan.selected_slots_.push_back(it->second);
  }
  return plan;
}

Result<DataFrame> FeaturePlan::Transform(
    const DataFrame& x, const OperatorRegistry& registry) const {
  if (x.num_columns() != input_columns_.size()) {
    return Status::InvalidArgument(
        "plan transform: expected " +
        std::to_string(input_columns_.size()) + " input columns, got " +
        std::to_string(x.num_columns()));
  }
  // Workspace: input columns (validated by name) then generated ones.
  std::vector<Column> workspace;
  workspace.reserve(input_columns_.size() + generated_.size());
  for (size_t c = 0; c < input_columns_.size(); ++c) {
    if (x.column(c).name() != input_columns_[c]) {
      return Status::InvalidArgument(
          "plan transform: column " + std::to_string(c) + " is '" +
          x.column(c).name() + "', expected '" + input_columns_[c] + "'");
    }
    workspace.push_back(x.column(c));
  }
  for (size_t g = 0; g < generated_.size(); ++g) {
    const GeneratedFeature& feature = generated_[g];
    SAFE_ASSIGN_OR_RETURN(auto op, registry.Find(feature.op));
    ColumnLoan parents;
    for (size_t slot : parent_slots_[g]) parents.Lend(workspace[slot]);
    SAFE_ASSIGN_OR_RETURN(
        std::vector<double> values,
        ApplyOperator(*op, feature.params, parents.vectors()));
    // The output frame spills like its inputs.
    workspace.push_back(
        parents.StoreLike(Column(feature.name, std::move(values))));
  }
  DataFrame out;
  for (size_t slot : selected_slots_) {
    SAFE_RETURN_NOT_OK(out.AddColumn(workspace[slot]));
  }
  return out;
}

Result<DataFrame> FeaturePlan::Transform(const DataFrame& x) const {
  return Transform(x, DefaultRegistry());
}

Result<std::vector<double>> FeaturePlan::TransformRow(
    const std::vector<double>& row, const OperatorRegistry& registry) const {
  if (row.size() != input_columns_.size()) {
    return Status::InvalidArgument(
        "plan transform row: expected " +
        std::to_string(input_columns_.size()) + " values, got " +
        std::to_string(row.size()));
  }
  std::vector<double> workspace(row);
  workspace.resize(input_columns_.size() + generated_.size());
  std::vector<double> inputs;
  for (size_t g = 0; g < generated_.size(); ++g) {
    const GeneratedFeature& feature = generated_[g];
    SAFE_ASSIGN_OR_RETURN(auto op, registry.Find(feature.op));
    SAFE_RETURN_NOT_OK(
        CheckApplicable(*op, parent_slots_[g].size(), feature.params));
    inputs.clear();
    bool missing = false;
    for (size_t slot : parent_slots_[g]) {
      inputs.push_back(workspace[slot]);
      if (std::isnan(workspace[slot])) missing = true;
    }
    workspace[input_columns_.size() + g] =
        (missing && !op->handles_missing())
            ? std::numeric_limits<double>::quiet_NaN()
            : op->Apply(inputs.data(), feature.params);
  }
  std::vector<double> out;
  out.reserve(selected_slots_.size());
  for (size_t slot : selected_slots_) out.push_back(workspace[slot]);
  return out;
}

Result<std::vector<double>> FeaturePlan::TransformRow(
    const std::vector<double>& row) const {
  return TransformRow(row, DefaultRegistry());
}

size_t FeaturePlan::NumSelectedGenerated() const {
  size_t count = 0;
  for (size_t slot : selected_slots_) {
    if (slot >= input_columns_.size()) ++count;
  }
  return count;
}

std::string FeaturePlan::Serialize() const {
  std::ostringstream out;
  out << "feature_plan v1\n";
  out << "inputs " << input_columns_.size() << "\n";
  for (const auto& name : input_columns_) out << name << "\n";
  out << "generated " << generated_.size() << "\n";
  for (const auto& feature : generated_) {
    out << feature.name << "\n";
    out << feature.op << " " << feature.parents.size() << " "
        << feature.params.size() << "\n";
    for (const auto& parent : feature.parents) out << parent << "\n";
    for (size_t i = 0; i < feature.params.size(); ++i) {
      if (i > 0) out << " ";
      out << FormatDoubleExact(feature.params[i]);
    }
    if (!feature.params.empty()) out << "\n";
  }
  out << "selected " << selected_.size() << "\n";
  for (const auto& name : selected_) out << name << "\n";
  return out.str();
}

Result<FeaturePlan> FeaturePlan::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  auto next_line = [&](std::string* out_line) -> bool {
    while (std::getline(in, *out_line)) {
      if (!out_line->empty()) return true;
    }
    return false;
  };

  if (!next_line(&line) || line != "feature_plan v1") {
    return Status::InvalidArgument("plan deserialize: bad header");
  }

  auto read_count = [&](const std::string& tag,
                        size_t* count) -> Status {
    std::string header;
    if (!next_line(&header)) {
      return Status::InvalidArgument("plan deserialize: missing " + tag);
    }
    std::istringstream hs(header);
    std::string got_tag;
    hs >> got_tag >> *count;
    if (!hs || got_tag != tag) {
      return Status::InvalidArgument("plan deserialize: expected '" + tag +
                                     " N', got '" + header + "'");
    }
    return Status::OK();
  };

  size_t num_inputs = 0;
  SAFE_RETURN_NOT_OK(read_count("inputs", &num_inputs));
  std::vector<std::string> inputs;
  for (size_t i = 0; i < num_inputs; ++i) {
    if (!next_line(&line)) {
      return Status::InvalidArgument("plan deserialize: truncated inputs");
    }
    inputs.push_back(line);
  }

  size_t num_generated = 0;
  SAFE_RETURN_NOT_OK(read_count("generated", &num_generated));
  std::vector<GeneratedFeature> generated;
  for (size_t g = 0; g < num_generated; ++g) {
    GeneratedFeature feature;
    if (!next_line(&feature.name)) {
      return Status::InvalidArgument("plan deserialize: truncated features");
    }
    if (!next_line(&line)) {
      return Status::InvalidArgument("plan deserialize: truncated feature '" +
                                     feature.name + "'");
    }
    std::istringstream meta(line);
    size_t num_parents = 0;
    size_t num_params = 0;
    meta >> feature.op >> num_parents >> num_params;
    if (!meta) {
      return Status::InvalidArgument("plan deserialize: bad feature meta '" +
                                     line + "'");
    }
    for (size_t p = 0; p < num_parents; ++p) {
      if (!next_line(&line)) {
        return Status::InvalidArgument("plan deserialize: truncated parents");
      }
      feature.parents.push_back(line);
    }
    if (num_params > 0) {
      if (!next_line(&line)) {
        return Status::InvalidArgument("plan deserialize: truncated params");
      }
      // Token-wise parse via ParseDouble: istream >> double rejects the
      // "nan"/"inf" tokens that fitted params (e.g. empty group-by bins)
      // legitimately contain.
      std::istringstream ps(line);
      std::string token;
      for (size_t i = 0; i < num_params; ++i) {
        if (!(ps >> token)) {
          return Status::InvalidArgument("plan deserialize: bad params '" +
                                         line + "'");
        }
        auto value = ParseDouble(token);
        if (!value.ok()) {
          return Status::InvalidArgument("plan deserialize: bad param '" +
                                         token + "'");
        }
        feature.params.push_back(*value);
      }
    }
    generated.push_back(std::move(feature));
  }

  size_t num_selected = 0;
  SAFE_RETURN_NOT_OK(read_count("selected", &num_selected));
  std::vector<std::string> selected;
  for (size_t i = 0; i < num_selected; ++i) {
    if (!next_line(&line)) {
      return Status::InvalidArgument("plan deserialize: truncated selected");
    }
    selected.push_back(line);
  }
  return Create(std::move(inputs), std::move(generated), std::move(selected));
}

}  // namespace safe
