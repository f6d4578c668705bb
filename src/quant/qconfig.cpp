#include "quant/qconfig.h"

#include <stdexcept>

namespace fp8q {

std::string_view to_string(DType dtype) {
  switch (dtype) {
    case DType::kFP32: return "FP32";
    case DType::kE5M2: return "E5M2";
    case DType::kE4M3: return "E4M3";
    case DType::kE3M4: return "E3M4";
    case DType::kINT8: return "INT8";
  }
  return "Unknown";
}

bool is_fp8(DType dtype) {
  return dtype == DType::kE5M2 || dtype == DType::kE4M3 || dtype == DType::kE3M4;
}

Fp8Kind fp8_kind(DType dtype) {
  switch (dtype) {
    case DType::kE5M2: return Fp8Kind::E5M2;
    case DType::kE4M3: return Fp8Kind::E4M3;
    case DType::kE3M4: return Fp8Kind::E3M4;
    default:
      throw std::invalid_argument("fp8_kind: not an FP8 dtype");
  }
}

DType fp8_dtype(Fp8Kind kind) {
  switch (kind) {
    case Fp8Kind::E5M2: return DType::kE5M2;
    case Fp8Kind::E4M3: return DType::kE4M3;
    case Fp8Kind::E3M4: return DType::kE3M4;
  }
  throw std::invalid_argument("fp8_dtype: unknown FP8 kind");
}

const FormatSpec& fp8_spec(DType dtype) { return format_spec(fp8_kind(dtype)); }

std::string_view to_string(CalibMethod method) {
  switch (method) {
    case CalibMethod::kAbsMax: return "max";
    case CalibMethod::kPercentile: return "percentile";
    case CalibMethod::kKlDivergence: return "kl";
    case CalibMethod::kMseSweep: return "mse";
  }
  return "unknown";
}

std::string SchemeConfig::label() const {
  std::string s(to_string(act_dtype));
  if (weight_dtype != act_dtype) {
    s += "w";
    s += to_string(weight_dtype);
  }
  if (act_dtype == DType::kE5M2) {
    s += "/direct";
  } else {
    s += dynamic_activations ? "/dynamic" : "/static";
  }
  return s;
}

SchemeConfig standard_fp8_scheme(DType fmt, bool dynamic) {
  if (!is_fp8(fmt)) throw std::invalid_argument("standard_fp8_scheme: fmt must be FP8");
  SchemeConfig cfg;
  cfg.act_dtype = fmt;
  cfg.weight_dtype = fmt;
  // E5M2 uses direct quantization: no range calibration, no dynamic mode
  // (paper section 3: "E5M2 uses direct quantization").
  cfg.dynamic_activations = fmt == DType::kE5M2 ? false : dynamic;
  return cfg;
}

SchemeConfig mixed_fp8_scheme() {
  SchemeConfig cfg;
  cfg.act_dtype = DType::kE4M3;
  cfg.weight_dtype = DType::kE3M4;
  return cfg;
}

SchemeConfig int8_scheme(bool dynamic) {
  SchemeConfig cfg;
  cfg.act_dtype = DType::kINT8;
  cfg.weight_dtype = DType::kINT8;
  cfg.dynamic_activations = dynamic;
  return cfg;
}

SchemeConfig scheme_from_name(std::string_view name, bool dynamic) {
  if (name == "INT8" || name == "int8") return int8_scheme(dynamic);
  if (name == "mixed") return mixed_fp8_scheme();
  return standard_fp8_scheme(fp8_dtype(fp8_kind_from_string(name)), dynamic);
}

}  // namespace fp8q
