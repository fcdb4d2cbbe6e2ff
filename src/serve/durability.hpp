/**
 * @file
 * Wire formats for serving durability: journal records and the fleet
 * checkpoint payload.
 *
 * Two record types flow through the write-ahead journal (durable/
 * wal.hpp), one per admission decision and one per final disposition:
 *
 *  - Admit (type 1): every arrival's identity and decision. One
 *    record per arrival -- rejects included -- so WAL replay
 *    reconstructs the arrival-side counter identity exactly, and the
 *    number of replayed admits tells the driver how far into the
 *    arrival stream the crashed process got durably. Records append
 *    in arrival order, so the torn-tail prefix property of the WAL
 *    guarantees a synced outcome always has its admit in the prefix
 *    too.
 *
 *  - Outcome (type 2): a request's final disposition, with the
 *    response's exact float bits for completed requests (responses
 *    are pure functions of (input, parameters), which is what makes
 *    a replayed completion bitwise comparable to a no-crash run).
 *
 * The fleet checkpoint payload (FleetDurableState) snapshots
 * everything WAL replay starts from: counters, the completed-response
 * log, admitted-but-unfinalized requests, and the parameter blob in
 * the train::checkpoint_io wire format. Its `routed` counter is
 * written pre-reconciled by the capturer (in-flight dispatches die
 * with the process and are re-dispatched after recovery, so they are
 * excluded), which is what makes post-recovery counters reconcile by
 * construction.
 *
 * All parsers validate in layout order, return structured
 * InvalidArgument naming the first violated field, and never crash
 * on arbitrary bytes (durable_fuzz_test).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "serve/fleet.hpp"
#include "serve/request.hpp"

namespace serve {

/** @name WAL record types @{ */
inline constexpr std::uint32_t kJournalAdmitType = 1;
inline constexpr std::uint32_t kJournalOutcomeType = 2;
/** @} */

/** Admission decision as journaled (wire-stable values). */
enum class JournalDecision : std::uint8_t
{
    Admit = 0,
    RejectQueueFull = 1,
    RejectInfeasible = 2,
    Shed = 3,
};

/** One arrival's identity and admission decision. */
struct JournalAdmit
{
    std::uint64_t id = 0;
    RequestClass cls = RequestClass::High;
    JournalDecision decision = JournalDecision::Admit;
    std::uint64_t input_index = 0;
    double arrival_us = 0.0;
    double deadline_us = 0.0;
};

std::vector<std::uint8_t> encodeAdmit(const JournalAdmit& a);
common::Result<JournalAdmit>
decodeAdmit(const std::vector<std::uint8_t>& payload);

/** One request's final disposition. */
struct JournalOutcome
{
    std::uint64_t id = 0;
    Outcome outcome = Outcome::Completed;
    RequestClass cls = RequestClass::High;
    std::uint32_t response_bits = 0; //!< completed: response bits
    double latency_us = 0.0;         //!< completed: latency
};

std::vector<std::uint8_t> encodeOutcome(const JournalOutcome& o);
common::Result<JournalOutcome>
decodeOutcome(const std::vector<std::uint8_t>& payload);

/** The admit record of @p req under admission decision @p dec. */
JournalAdmit admitRecord(const Request& req,
                         AdmissionController::Decision dec);

/** The outcome record of @p req; only a completed request carries
 *  its response bits and latency. */
JournalOutcome outcomeRecord(const Request& req, Outcome outcome,
                             float response, double latency);

/** Expected value of the fleet checkpoint magic ("VPFC"). */
inline constexpr std::uint32_t kFleetStateMagic = 0x43465056u;

/** Current fleet checkpoint format version. Version 2 appended the
 *  `fenced` counter to the counter block. */
inline constexpr std::uint32_t kFleetStateVersion = 2;

/** Caps a parser trusts before allocating (corruption guards). */
inline constexpr std::uint64_t kFleetStateMaxEntries = 1u << 24;

/** The fleet state a checkpoint commits (see file header). */
struct FleetDurableState
{
    /** Sequence this generation's WAL segment starts at (sequence
     *  numbering is continuous across generations). */
    std::uint64_t wal_first_seq = 1;

    /** Fleet clock at capture. */
    double now_us = 0.0;

    /** Counters at capture; `routed` pre-reconciled (see header). */
    FleetCounters counters;

    /** Completed responses: (id, response bits, latency). */
    struct CompletedEntry
    {
        std::uint64_t id = 0;
        std::uint32_t response_bits = 0;
        double latency_us = 0.0;
    };
    std::vector<CompletedEntry> completed;

    /** Admitted, not yet finalized (queued or in flight; hedge twins
     *  deduplicated). Recovery re-enqueues these directly. */
    std::vector<Request> pending;

    /** Parameters, train::checkpoint_io wire format. */
    std::vector<std::uint8_t> params_blob;
};

std::vector<std::uint8_t>
serializeFleetState(const FleetDurableState& st);

common::Result<FleetDurableState>
parseFleetState(const std::uint8_t* data, std::size_t size);

common::Result<FleetDurableState>
parseFleetState(const std::vector<std::uint8_t>& bytes);

} // namespace serve
