#include "check/schedule.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/json.hh"

namespace uldma::check {

std::optional<DmaMethod>
protocolMethod(const std::string &token)
{
    if (token == "pal")
        return DmaMethod::PalCode;
    if (token == "key-based")
        return DmaMethod::KeyBased;
    if (token == "ext-shadow")
        return DmaMethod::ExtShadow;
    if (token == "repeated")
        return DmaMethod::Repeated5;
    if (token == "ring")
        return DmaMethod::Ring;
    if (token == "cap")
        return DmaMethod::Cap;
    return std::nullopt;
}

const char *
protocolToken(DmaMethod method)
{
    switch (method) {
      case DmaMethod::PalCode: return "pal";
      case DmaMethod::KeyBased: return "key-based";
      case DmaMethod::ExtShadow: return "ext-shadow";
      case DmaMethod::Repeated5: return "repeated";
      case DmaMethod::Ring: return "ring";
      case DmaMethod::Cap: return "cap";
      default: return "?";
    }
}

const char *
weakenToken(Weaken weaken)
{
    switch (weaken) {
      case Weaken::None: return "none";
      case Weaken::Recognizer: return "recognizer";
      case Weaken::Ring: return "ring";
      case Weaken::Iommu: return "iommu";
      case Weaken::Cap: return "cap";
    }
    return "?";
}

std::optional<Weaken>
weakenFromToken(const std::string &token)
{
    for (Weaken w : {Weaken::None, Weaken::Recognizer, Weaken::Ring,
                     Weaken::Iommu, Weaken::Cap}) {
        if (token == weakenToken(w))
            return w;
    }
    return std::nullopt;
}

std::vector<Weaken>
supportedWeaknesses(const RunnerConfig &config)
{
    std::vector<Weaken> out{Weaken::Recognizer};
    if (config.method == DmaMethod::Ring) {
        out.push_back(Weaken::Ring);
        if (config.useIommu)
            out.push_back(Weaken::Iommu);
    }
    if (config.method == DmaMethod::Cap)
        out.push_back(Weaken::Cap);
    return out;
}

bool
weakenSupported(const RunnerConfig &config)
{
    const std::vector<Weaken> ok = supportedWeaknesses(config);
    return config.weaken == Weaken::None ||
           std::find(ok.begin(), ok.end(), config.weaken) != ok.end();
}

std::string
toHex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

bool
parseHex(const std::string &s, std::uint64_t &v)
{
    if (s.size() < 3 || s.compare(0, 2, "0x") != 0)
        return false;
    std::uint64_t acc = 0;
    for (std::size_t i = 2; i < s.size(); ++i) {
        const char c = s[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        if (acc >> 60)
            return false;   // overflow
        acc = (acc << 4) | static_cast<std::uint64_t>(digit);
    }
    v = acc;
    return true;
}

void
writeConfigMembers(json::Writer &w, const RunnerConfig &config)
{
    w.member("protocol", protocolToken(config.method));
    w.member("faults", config.faults);
    w.member("weakened_recognizer", config.weaken == Weaken::Recognizer);
    w.member("weakened_ring", config.weaken == Weaken::Ring);
    w.member("iommu", config.useIommu);
    w.member("weakened_iommu", config.weaken == Weaken::Iommu);
    w.member("weakened_cap", config.weaken == Weaken::Cap);
}

void
writeScheduleJson(std::ostream &os, const Schedule &schedule,
                  const Outcome &outcome)
{
    json::Writer w(os, /*pretty=*/true);
    w.beginObject();
    w.member("schema", scheduleSchema);
    writeConfigMembers(w, schedule.config);
    w.member("boundary_space", schedule.boundarySpace);
    w.key("preempt_after");
    w.beginArray();
    for (std::uint64_t b : schedule.preemptAfter)
        w.value(b);
    w.endArray();
    w.key("outcome");
    w.beginObject();
    w.member("finished", outcome.finished);
    w.member("status", toHex(outcome.status));
    w.member("initiations", outcome.initiations);
    w.member("state_hash", toHex(outcome.stateHash));
    w.key("violations");
    w.beginArray();
    for (const Violation &v : outcome.violations) {
        w.beginObject();
        w.member("invariant", v.invariant);
        w.member("detail", v.detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    os << "\n";
}

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
    return false;
}

} // namespace

bool
readConfigMembers(const json::Value &v, RunnerConfig &config,
                  std::string *error)
{
    if (!v["protocol"].isString())
        return fail(error, "protocol must be a string");
    if (!protocolMethod(v["protocol"].asString()))
        return fail(error,
                    "unknown protocol '" + v["protocol"].asString() + "'");
    if (!v["faults"].isBool() || !v["weakened_recognizer"].isBool())
        return fail(error, "faults/weakened_recognizer must be booleans");
    for (const char *key :
         {"weakened_ring", "iommu", "weakened_iommu", "weakened_cap"}) {
        if (!v[key].isNull() && !v[key].isBool())
            return fail(error, std::string(key) + " must be a boolean");
    }
    config.method = *protocolMethod(v["protocol"].asString());
    config.faults = v["faults"].asBool();
    config.useIommu = v["iommu"].isBool() && v["iommu"].asBool();
    config.weaken = Weaken::None;
    for (Weaken w :
         {Weaken::Recognizer, Weaken::Ring, Weaken::Iommu, Weaken::Cap}) {
        const json::Value &flag =
            v[std::string("weakened_") + weakenToken(w)];
        if (!flag.isBool() || !flag.asBool())
            continue;
        if (config.weaken != Weaken::None)
            return fail(error, "more than one weakened_* member is true");
        config.weaken = w;
    }
    if (!weakenSupported(config)) {
        return fail(error, std::string("weakened_") +
                               weakenToken(config.weaken) +
                               " does not apply to protocol '" +
                               protocolToken(config.method) + "'" +
                               (config.useIommu ? " with iommu" : ""));
    }
    return true;
}

bool
parseScheduleJson(const std::string &text, Schedule &schedule,
                  Outcome &outcome, std::string *error)
{
    std::string perr;
    const json::Value doc = json::parse(text, &perr);
    if (!perr.empty())
        return fail(error, "JSON parse error: " + perr);
    if (!doc.isObject())
        return fail(error, "root is not an object");
    if (!doc["schema"].isString() ||
        doc["schema"].asString() != scheduleSchema) {
        return fail(error, "schema is not '" +
                               std::string(scheduleSchema) + "'");
    }
    if (!readConfigMembers(doc, schedule.config, error))
        return false;
    if (!doc["boundary_space"].isNumber())
        return fail(error, "boundary_space must be a number");
    if (!doc["preempt_after"].isArray())
        return fail(error, "preempt_after must be an array");

    schedule.boundarySpace =
        static_cast<std::uint64_t>(doc["boundary_space"].asNumber());
    schedule.preemptAfter.clear();
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < doc["preempt_after"].size(); ++i) {
        const json::Value &b = doc["preempt_after"][i];
        if (!b.isNumber())
            return fail(error, "preempt_after entries must be numbers");
        const auto v = static_cast<std::uint64_t>(b.asNumber());
        if (v >= schedule.boundarySpace)
            return fail(error, "preempt_after entry out of range");
        if (i > 0 && v < last)
            return fail(error, "preempt_after must be non-decreasing");
        last = v;
        schedule.preemptAfter.push_back(v);
    }

    const json::Value &oc = doc["outcome"];
    if (!oc.isObject())
        return fail(error, "outcome must be an object");
    if (!oc["finished"].isBool() || !oc["initiations"].isNumber())
        return fail(error, "outcome.finished/initiations malformed");
    if (!oc["status"].isString() ||
        !parseHex(oc["status"].asString(), outcome.status)) {
        return fail(error, "outcome.status must be a 0x hex string");
    }
    if (!oc["state_hash"].isString() ||
        !parseHex(oc["state_hash"].asString(), outcome.stateHash)) {
        return fail(error, "outcome.state_hash must be a 0x hex string");
    }
    if (!oc["violations"].isArray())
        return fail(error, "outcome.violations must be an array");
    outcome.finished = oc["finished"].asBool();
    outcome.initiations =
        static_cast<std::uint64_t>(oc["initiations"].asNumber());
    outcome.violations.clear();
    for (std::size_t i = 0; i < oc["violations"].size(); ++i) {
        const json::Value &v = oc["violations"][i];
        if (!v["invariant"].isString() || !v["detail"].isString())
            return fail(error, "violation entries need invariant/detail");
        outcome.violations.push_back(
            {v["invariant"].asString(), v["detail"].asString()});
    }
    return true;
}

} // namespace uldma::check
