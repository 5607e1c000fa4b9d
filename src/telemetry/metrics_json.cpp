#include "telemetry/metrics_json.hpp"

#include <fstream>
#include <stdexcept>

#include "telemetry/percentiles.hpp"

namespace asyncgt::telemetry {

namespace {

json_value buckets_to_json(const std::vector<std::uint64_t>& buckets) {
  // Sparse encoding: only non-empty buckets, as {"2^i": count}.
  json_value out = json_value::object();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] != 0) out.set("2^" + std::to_string(i), buckets[i]);
  }
  return out;
}

}  // namespace

json_value to_json(const metrics_snapshot& snap) {
  json_value out = json_value::object();
  for (const auto& e : snap.entries) {
    switch (e.kind) {
      case metric_kind::counter:
        out.set(e.name, e.total);
        break;
      case metric_kind::gauge:
        out.set(e.name, e.value);
        break;
      case metric_kind::histogram: {
        json_value h = json_value::object();
        h.set("count", e.total);
        h.set("sum", e.sum);
        const percentile_set p = percentiles_from_log2(e.buckets);
        h.set("p50", p.p50);
        h.set("p95", p.p95);
        h.set("p99", p.p99);
        h.set("buckets", buckets_to_json(e.buckets));
        out.set(e.name, std::move(h));
        break;
      }
    }
  }
  return out;
}

json_value to_json(const io_snapshot& io) {
  json_value out = json_value::object();
  out.set("ops", io.ops);
  out.set("bytes", io.bytes);
  out.set("total_latency_us", io.total_latency_us);
  out.set("mean_latency_us", io.mean_latency_us());
  out.set("max_latency_us", io.max_latency_us);
  // Interpolated latency percentiles, clamped to the exact recorded maximum
  // so p50 <= p95 <= p99 <= max holds in every emitted report (checked by
  // tools/check_bench_json.py).
  const percentile_set p = percentiles_from_log2(
      io.latency_buckets, static_cast<double>(io.max_latency_us));
  out.set("p50_us", p.p50);
  out.set("p95_us", p.p95);
  out.set("p99_us", p.p99);
  out.set("retries", io.retries);
  out.set("gave_up", io.gave_up);
  out.set("batches", io.batches);
  out.set("coalesced_ranges", io.coalesced_ranges);
  out.set("inflight_peak", io.inflight_peak);
  out.set("latency_us_buckets", buckets_to_json(io.latency_buckets));
  return out;
}

json_value to_json(const std::vector<sampler::series>& series) {
  json_value out = json_value::object();
  for (const auto& ser : series) {
    json_value t = json_value::array();
    json_value v = json_value::array();
    for (const auto& pt : ser.points) {
      t.push(pt.t_seconds);
      v.push(pt.value);
    }
    json_value pair = json_value::object();
    pair.set("t", std::move(t));
    pair.set("v", std::move(v));
    out.set(ser.name, std::move(pair));
  }
  return out;
}

report::report(std::string name) : doc_(json_value::object()) {
  doc_.set("schema_version", schema_version);
  doc_.set("name", std::move(name));
  doc_.set("config", json_value::object());
  doc_.set("sections", json_value::object());
}

report& report::config(const std::string& key, json_value value) {
  // find() returns const; config is created in the constructor, so the
  // lookup cannot fail.
  for (auto& [k, v] : doc_.as_object()) {
    if (k == "config") v.set(key, std::move(value));
  }
  return *this;
}

json_value& report::section(const std::string& name) {
  for (auto& [k, v] : doc_.as_object()) {
    if (k == "sections") {
      for (auto& [sk, sv] : v.as_object()) {
        if (sk == name) return sv;
      }
      v.set(name, json_value::object());
      return v.as_object().back().second;
    }
  }
  throw std::logic_error("report: document lost its sections object");
}

report& report::add_row(json_value row) {
  json_value* rows = nullptr;
  for (auto& [k, v] : doc_.as_object()) {
    if (k == "rows") rows = &v;
  }
  if (rows == nullptr) {
    doc_.set("rows", json_value::array());
    rows = &doc_.as_object().back().second;
  }
  rows->push(std::move(row));
  return *this;
}

report& report::add_job(json_value job) {
  json_value* jobs = nullptr;
  for (auto& [k, v] : doc_.as_object()) {
    if (k == "jobs") jobs = &v;
  }
  if (jobs == nullptr) {
    doc_.set("jobs", json_value::array());
    jobs = &doc_.as_object().back().second;
  }
  jobs->push(std::move(job));
  return *this;
}

void report::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("report: cannot open '" + path +
                             "' for writing");
  }
  out << dump(1) << '\n';
  if (!out) {
    throw std::runtime_error("report: write to '" + path + "' failed");
  }
}

namespace {

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// Reads a numeric member; returns false (leaving *out alone) when absent or
// non-numeric.
bool numeric_member(const json_value& obj, const std::string& key,
                    double* out) {
  const json_value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_double();
  return true;
}

// Recursively enforces percentile monotonicity: any object carrying a full
// {p50,p95,p99} or {p50_us,p95_us,p99_us} triple must satisfy
// p50 <= p95 <= p99, and <= the sibling max (max / max_us / max_latency_us)
// when one is present. `where` names the offending object on failure.
bool check_percentiles(const json_value& v, const std::string& where,
                       std::string* error) {
  if (v.is_array()) {
    std::size_t i = 0;
    for (const auto& e : v.as_array()) {
      if (!check_percentiles(e, where + "[" + std::to_string(i) + "]",
                             error)) {
        return false;
      }
      ++i;
    }
    return true;
  }
  if (!v.is_object()) return true;
  for (const char* suffix : {"", "_us"}) {
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    const std::string s(suffix);
    if (!numeric_member(v, "p50" + s, &p50) ||
        !numeric_member(v, "p95" + s, &p95) ||
        !numeric_member(v, "p99" + s, &p99)) {
      continue;
    }
    if (!(p50 <= p95 && p95 <= p99)) {
      return fail(error, where + ": percentiles not monotone (p50" + s + "=" +
                             std::to_string(p50) + ", p95" + s + "=" +
                             std::to_string(p95) + ", p99" + s + "=" +
                             std::to_string(p99) + ")");
    }
    double mx = 0.0;
    if (numeric_member(v, "max" + s, &mx) ||
        numeric_member(v, "max_latency_us", &mx)) {
      if (p99 > mx) {
        return fail(error, where + ": p99" + s + "=" + std::to_string(p99) +
                               " exceeds recorded max=" + std::to_string(mx));
      }
    }
  }
  for (const auto& [k, child] : v.as_object()) {
    if (!check_percentiles(child, where + "." + k, error)) return false;
  }
  return true;
}

}  // namespace

bool report::verify(const json_value& doc, std::string* error) {
  if (!doc.is_object()) return fail(error, "document is not a JSON object");
  const json_value* ver = doc.find("schema_version");
  if (ver == nullptr || !ver->is_int() || ver->as_int() != schema_version) {
    return fail(error, "schema_version must be the integer " +
                           std::to_string(schema_version));
  }
  const json_value* name = doc.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return fail(error, "name must be a non-empty string");
  }
  const json_value* config = doc.find("config");
  if (config == nullptr || !config->is_object()) {
    return fail(error, "config must be an object");
  }
  const json_value* sections = doc.find("sections");
  if (sections == nullptr || !sections->is_object()) {
    return fail(error, "sections must be an object");
  }
  for (const auto& [k, v] : sections->as_object()) {
    if (!v.is_object()) {
      return fail(error, "section '" + k + "' is not an object");
    }
  }
  const json_value* rows = doc.find("rows");
  if (rows != nullptr) {
    if (!rows->is_array()) return fail(error, "rows must be an array");
    for (const auto& r : rows->as_array()) {
      if (!r.is_object()) return fail(error, "rows entries must be objects");
    }
  }
  const json_value* jobs = doc.find("jobs");
  if (jobs != nullptr) {
    if (!jobs->is_array()) return fail(error, "jobs must be an array");
    for (const auto& j : jobs->as_array()) {
      if (!j.is_object()) return fail(error, "jobs entries must be objects");
      const json_value* id = j.find("job_id");
      if (id == nullptr || !id->is_int()) {
        return fail(error, "jobs entries must carry an integer job_id");
      }
    }
  }
  return check_percentiles(doc, "$", error);
}

bool report::verify_text(const std::string& text, std::string* error) {
  try {
    return verify(json_value::parse(text), error);
  } catch (const std::exception& e) {
    return fail(error, e.what());
  }
}

}  // namespace asyncgt::telemetry
