#pragma once

namespace gpufreq::nn {

/// The arithmetic the inference chain computes with. The library has one
/// precision, fp32, and nothing inside it reads this header. It stays only
/// because perfbench prints to_string(default_precision()) in its run
/// fingerprint; perfbench changes only together with a fresh baseline, so
/// this header goes when it next does.
enum class Precision { kFp32 };

inline const char* to_string(Precision) { return "fp32"; }

inline Precision default_precision() { return Precision::kFp32; }

}  // namespace gpufreq::nn
