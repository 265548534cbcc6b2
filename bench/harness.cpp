#include "harness.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace sov::bench {

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeDouble(std::ostream &os, double v)
{
    // JSON has no NaN/Inf literals; a non-finite measurement becomes
    // null rather than corrupting the file.
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os << buf;
}

} // namespace

void
Value::write(std::ostream &os) const
{
    switch (kind_) {
    case Kind::Bool:
        os << (bool_ ? "true" : "false");
        break;
    case Kind::Int:
        os << int_;
        break;
    case Kind::Uint:
        os << uint_;
        break;
    case Kind::Double:
        writeDouble(os, double_);
        break;
    case Kind::String:
        writeEscaped(os, string_);
        break;
    }
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

Row &
BenchReport::addRow(const std::string &table)
{
    for (auto &kv : tables_) {
        if (kv.first == table) {
            kv.second.emplace_back();
            return kv.second.back();
        }
    }
    tables_.emplace_back(table, std::vector<Row>(1));
    return tables_.back().second.back();
}

void
BenchReport::gate(const std::string &name, bool pass, std::string detail)
{
    gates_.push_back(Gate{name, pass, std::move(detail)});
}

void
BenchReport::attachMetrics(const obs::MetricRegistry &metrics)
{
    std::ostringstream os;
    metrics.toJson(os);
    metrics_json_ = os.str();
}

void
BenchReport::extra(const std::string &key, std::string raw_json)
{
    for (auto &kv : extra_) {
        if (kv.first == key) {
            kv.second = std::move(raw_json);
            return;
        }
    }
    extra_.emplace_back(key, std::move(raw_json));
}

bool
BenchReport::pass() const
{
    for (const Gate &g : gates_)
        if (!g.pass)
            return false;
    return true;
}

std::string
BenchReport::defaultPath() const
{
    return "BENCH_" + name_ + ".json";
}

void
BenchReport::toJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema\": \"sov-bench-report-v1\",\n";
    os << "  \"bench\": ";
    writeEscaped(os, name_);
    os << ",\n";
    os << "  \"smoke\": " << (smoke_ ? "true" : "false") << ",\n";

    if (meta_.empty()) {
        os << "  \"meta\": {},\n";
    } else {
        os << "  \"meta\": {\n";
        for (std::size_t i = 0; i < meta_.size(); ++i) {
            os << "    ";
            writeEscaped(os, meta_[i].first);
            os << ": ";
            meta_[i].second.write(os);
            os << (i + 1 < meta_.size() ? "," : "") << "\n";
        }
        os << "  },\n";
    }

    if (tables_.empty()) {
        os << "  \"rows\": {},\n";
    } else {
        os << "  \"rows\": {\n";
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            os << "    ";
            writeEscaped(os, tables_[t].first);
            os << ": [\n";
            const std::vector<Row> &rows = tables_[t].second;
            for (std::size_t r = 0; r < rows.size(); ++r) {
                os << "      {";
                const auto &fields = rows[r].fields_;
                for (std::size_t f = 0; f < fields.size(); ++f) {
                    writeEscaped(os, fields[f].first);
                    os << ": ";
                    fields[f].second.write(os);
                    if (f + 1 < fields.size())
                        os << ", ";
                }
                os << "}" << (r + 1 < rows.size() ? "," : "") << "\n";
            }
            os << "    ]" << (t + 1 < tables_.size() ? "," : "") << "\n";
        }
        os << "  },\n";
    }

    if (gates_.empty()) {
        os << "  \"gates\": [],\n";
    } else {
        os << "  \"gates\": [\n";
        for (std::size_t i = 0; i < gates_.size(); ++i) {
            const Gate &g = gates_[i];
            os << "    {\"name\": ";
            writeEscaped(os, g.name);
            os << ", \"pass\": " << (g.pass ? "true" : "false");
            if (!g.detail.empty()) {
                os << ", \"detail\": ";
                writeEscaped(os, g.detail);
            }
            os << "}" << (i + 1 < gates_.size() ? "," : "") << "\n";
        }
        os << "  ],\n";
    }

    if (!metrics_json_.empty())
        os << "  \"metrics\": " << metrics_json_ << ",\n";

    if (!extra_.empty()) {
        os << "  \"extra\": {\n";
        for (std::size_t i = 0; i < extra_.size(); ++i) {
            os << "    ";
            writeEscaped(os, extra_[i].first);
            os << ": " << extra_[i].second
               << (i + 1 < extra_.size() ? "," : "") << "\n";
        }
        os << "  },\n";
    }

    os << "  \"pass\": " << (pass() ? "true" : "false") << "\n";
    os << "}\n";
}

int
BenchReport::write(const std::string &path) const
{
    const std::string target = path.empty() ? defaultPath() : path;
    std::ofstream out(target);
    toJson(out);
    std::printf("wrote %s (%s)\n", target.c_str(),
                pass() ? "pass" : "FAIL");
    return pass() ? 0 : 1;
}

} // namespace sov::bench
