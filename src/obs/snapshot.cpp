#include "obs/snapshot.hpp"

#include "util/format.hpp"

namespace seer::obs {

using util::append_dbl;
using util::append_fixed6;
using util::append_u64;

void ModelSnapshot::append_json(std::string& out) const {
  out += "{\"seq\": ";
  append_u64(out, seq);
  out += ", \"reason\": \"";
  out += to_string(reason);
  out += "\", \"now\": ";
  append_u64(out, now);
  out += ", \"rebuild\": ";
  append_u64(out, rebuild);
  out += ", \"executions\": ";
  append_u64(out, executions);
  out += ", \"commits\": ";
  append_u64(out, commits);
  out += ", \"sgl_fallbacks\": ";
  append_u64(out, sgl_fallbacks);

  out += ", \"params\": {\"th1\": ";
  append_dbl(out, th1);
  out += ", \"th2\": ";
  append_dbl(out, th2);
  out += "}";

  out += ", \"climber\": {\"cur\": [";
  append_dbl(out, climber_cur_x);
  out += ", ";
  append_dbl(out, climber_cur_y);
  out += "], \"best\": [";
  append_dbl(out, climber_best_x);
  out += ", ";
  append_dbl(out, climber_best_y);
  out += "], \"best_score\": ";
  append_dbl(out, climber_best_score);
  out += ", \"epochs\": ";
  append_u64(out, climber_epochs);
  out += "}";

  out += ", \"n_types\": ";
  append_u64(out, n_types);
  out += ", \"execs\": [";
  for (std::size_t t = 0; t < execs.size(); ++t) {
    if (t != 0) out += ", ";
    append_u64(out, execs[t]);
  }
  out += "]";

  out += ", \"pairs\": [";
  bool first = true;
  for (std::size_t x = 0; x < n_types; ++x) {
    for (std::size_t y = 0; y < n_types; ++y) {
      const std::uint64_t a = aborts[x * n_types + y];
      const std::uint64_t c = commit_pairs[x * n_types + y];
      if (a + c == 0) continue;  // no joint evidence: omit (sparse format)
      if (!first) out += ", ";
      first = false;
      out += "{\"x\": ";
      append_u64(out, x);
      out += ", \"y\": ";
      append_u64(out, y);
      out += ", \"aborts\": ";
      append_u64(out, a);
      out += ", \"commits\": ";
      append_u64(out, c);
      // P(x aborts | x || y) and P(x aborts ∩ x || y) — core/probability.hpp.
      out += ", \"p_cond\": ";
      append_fixed6(out, static_cast<double>(a) / static_cast<double>(a + c));
      out += ", \"p_conj\": ";
      const std::uint64_t e = execs[x];
      append_fixed6(out, e == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(e));
      out += "}";
    }
  }
  out += "]";

  out += ", \"scheme\": [";
  for (std::size_t x = 0; x < scheme.size(); ++x) {
    if (x != 0) out += ", ";
    out += "[";
    for (std::size_t i = 0; i < scheme[x].size(); ++i) {
      if (i != 0) out += ", ";
      append_u64(out, static_cast<std::uint64_t>(scheme[x][i]));
    }
    out += "]";
  }
  out += "]}";
}

}  // namespace seer::obs
