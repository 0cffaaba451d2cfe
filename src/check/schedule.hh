/**
 * @file
 * Replayable schedule files (schema "uldma-schedule-v1").
 *
 * A schedule is the complete recipe for one deterministic run of the
 * model checker's two-process scenario: which protocol, whether the
 * adversary injects shadow traffic, which engine protection (if any)
 * is weakened, and the exact victim-instruction boundaries at which
 * the scheduler preempts.  Together with the recorded outcome it is a
 * self-contained counterexample (or witness) that
 * `uldma_check --replay` re-executes byte-identically.
 */

#ifndef ULDMA_CHECK_SCHEDULE_HH
#define ULDMA_CHECK_SCHEDULE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "core/methods.hh"
#include "dma/dma_params.hh"

namespace uldma::json {
class Value;
class Writer;
} // namespace uldma::json

namespace uldma::check {

inline constexpr char scheduleSchema[] = "uldma-schedule-v1";

/** CLI tokens of the checked protocols: the four paper protocols in
 *  paper order, plus the descriptor-ring extension (docs/RING.md) and
 *  the capability family (docs/CAPABILITIES.md). */
inline constexpr const char *checkedProtocols[] = {
    "pal", "key-based", "ext-shadow", "repeated", "ring", "cap",
};

/** Map a protocol token to its DmaMethod (nullopt = unknown token). */
std::optional<DmaMethod> protocolMethod(const std::string &token);

/** Inverse of protocolMethod for the checked methods. */
const char *protocolToken(DmaMethod method);

/** Scenario knobs shared by every run of one exploration. */
struct RunnerConfig
{
    DmaMethod method = DmaMethod::Repeated5;
    /** Adversary issues protocol-specific shadow traffic in each gap
     *  (forged keys, dangling stores, competing sequences) instead of
     *  benign compute. */
    bool faults = false;
    /** Route ring descriptors through the IOMMU: descriptors carry
     *  virtual addresses, the engine translates via its I/O page table
     *  (docs/IOMMU.md). */
    bool useIommu = false;
    /** Engine fault injection; only what supportedWeaknesses() offers
     *  for this config is meaningful. */
    Weaken weaken = Weaken::None;
};

/** CLI token of a weakness; its schedule/fuzz-report key is
 *  "weakened_<token>". */
const char *weakenToken(Weaken weaken);

/** Map a weakness token to its Weaken ("none" included; nullopt =
 *  unknown token). */
std::optional<Weaken> weakenFromToken(const std::string &token);

/**
 * The weaknesses @p config's scenario supports, in swarm draw order:
 * the recognizer always, then the ring frame check (ring protocol),
 * the IOMMU translation (ring with useIommu), the capability check
 * (cap protocol).
 */
std::vector<Weaken> supportedWeaknesses(const RunnerConfig &config);

/** True when @p config's weakness is None or supported. */
bool weakenSupported(const RunnerConfig &config);

/** Write the scenario-config members (protocol, faults, the four
 *  weakened_* flags and iommu) shared by uldma-schedule-v1 documents
 *  and uldma-fuzz-v1 rows. */
void writeConfigMembers(json::Writer &w, const RunnerConfig &config);

/**
 * Read what writeConfigMembers wrote.  weakened_ring, iommu,
 * weakened_iommu and weakened_cap postdate the original schema and
 * read as false when absent.  Fails (with @p error set) on a wrong
 * type, an unknown protocol, more than one weakened_* true, or a
 * weakness the config does not support.
 */
bool readConfigMembers(const json::Value &v, RunnerConfig &config,
                       std::string *error);

/** One deterministic run of the checker scenario. */
struct Schedule
{
    RunnerConfig config;
    /** Number of distinct preemption positions (0..initiation length). */
    std::uint64_t boundarySpace = 0;
    /** Non-decreasing absolute victim instruction counts; a repeated
     *  value preempts twice at the same boundary. */
    std::vector<std::uint64_t> preemptAfter;
};

/** What a run of a Schedule produced. */
struct Outcome
{
    bool finished = false;          ///< every process ran to completion
    std::uint64_t status = 0;       ///< victim's final reg::v0
    std::uint64_t initiations = 0;  ///< transfers the engine started
    std::uint64_t stateHash = 0;    ///< engine stateHash() after the run
    std::vector<Violation> violations;

    bool
    operator==(const Outcome &o) const
    {
        return finished == o.finished && status == o.status &&
               initiations == o.initiations && stateHash == o.stateHash &&
               violations == o.violations;
    }
};

/** "0x..." rendering used for 64-bit fields (JSON numbers are doubles
 *  and cannot carry 64 bits losslessly). */
std::string toHex(std::uint64_t v);
bool parseHex(const std::string &s, std::uint64_t &v);

/** Serialise schedule + outcome as one uldma-schedule-v1 document.
 *  Deterministic: the same inputs always produce the same bytes. */
void writeScheduleJson(std::ostream &os, const Schedule &schedule,
                       const Outcome &outcome);

/**
 * Parse an uldma-schedule-v1 document.
 * @return false (with @p error set) on malformed input.
 */
bool parseScheduleJson(const std::string &text, Schedule &schedule,
                       Outcome &outcome, std::string *error);

} // namespace uldma::check

#endif // ULDMA_CHECK_SCHEDULE_HH
