/** @file Serving durability wire formats (journal + fleet state). */
#include "serve/durability.hpp"

#include <cstring>

#include "common/wire.hpp"

namespace serve {

namespace {

using common::fnv1a64;
using common::getF64;
using common::getU32;
using common::getU64;
using common::putF64;
using common::putU32;
using common::putU64;

constexpr std::size_t kAdmitBytes = 8 + 1 + 1 + 8 + 8 + 8;
constexpr std::size_t kOutcomeBytes = 8 + 1 + 1 + 4 + 8;

common::Status
malformed(const char* what, const std::string& detail = "")
{
    return common::Status::failure(
        common::ErrorCode::InvalidArgument,
        std::string("malformed journal/state record: ") + what +
            (detail.empty() ? "" : ": " + detail));
}

/** Serialize FleetCounters in declared order. Append-only format:
 *  a new counter goes at the end with a version bump. */
void
putCounters(std::vector<std::uint8_t>& out, const FleetCounters& c)
{
    for (const std::uint64_t v :
         {c.arrivals, c.admitted, c.rejected_queue_full,
          c.rejected_infeasible, c.shed, c.completed, c.timed_out,
          c.failed, c.admitted_high, c.completed_high,
          c.timed_out_high, c.failed_high, c.routed, c.failed_over,
          c.hedge_cancelled, c.lost, c.hedges, c.probes,
          c.suspicions, c.device_losses, c.standby_joins,
          c.expired_in_queue, c.drained_no_replica, c.fenced})
        putU64(out, v);
}

constexpr std::size_t kNumCounterFields = 24;

void
getCounters(const std::uint8_t* p, FleetCounters& c)
{
    std::uint64_t* const fields[kNumCounterFields] = {
        &c.arrivals, &c.admitted, &c.rejected_queue_full,
        &c.rejected_infeasible, &c.shed, &c.completed, &c.timed_out,
        &c.failed, &c.admitted_high, &c.completed_high,
        &c.timed_out_high, &c.failed_high, &c.routed, &c.failed_over,
        &c.hedge_cancelled, &c.lost, &c.hedges, &c.probes,
        &c.suspicions, &c.device_losses, &c.standby_joins,
        &c.expired_in_queue, &c.drained_no_replica, &c.fenced};
    for (std::size_t i = 0; i < kNumCounterFields; ++i)
        *fields[i] = getU64(p + 8 * i);
}

} // namespace

std::vector<std::uint8_t>
encodeAdmit(const JournalAdmit& a)
{
    std::vector<std::uint8_t> out;
    out.reserve(kAdmitBytes);
    putU64(out, a.id);
    out.push_back(static_cast<std::uint8_t>(a.cls));
    out.push_back(static_cast<std::uint8_t>(a.decision));
    putU64(out, a.input_index);
    putF64(out, a.arrival_us);
    putF64(out, a.deadline_us);
    return out;
}

common::Result<JournalAdmit>
decodeAdmit(const std::vector<std::uint8_t>& payload)
{
    if (payload.size() != kAdmitBytes)
        return malformed("admit record size",
                         std::to_string(payload.size()));
    const std::uint8_t* p = payload.data();
    JournalAdmit a;
    a.id = getU64(p);
    if (p[8] > 1)
        return malformed("admit request class",
                         std::to_string(p[8]));
    a.cls = static_cast<RequestClass>(p[8]);
    if (p[9] > 3)
        return malformed("admit decision", std::to_string(p[9]));
    a.decision = static_cast<JournalDecision>(p[9]);
    a.input_index = getU64(p + 10);
    a.arrival_us = getF64(p + 18);
    a.deadline_us = getF64(p + 26);
    return a;
}

std::vector<std::uint8_t>
encodeOutcome(const JournalOutcome& o)
{
    std::vector<std::uint8_t> out;
    out.reserve(kOutcomeBytes);
    putU64(out, o.id);
    out.push_back(static_cast<std::uint8_t>(o.outcome));
    out.push_back(static_cast<std::uint8_t>(o.cls));
    putU32(out, o.response_bits);
    putF64(out, o.latency_us);
    return out;
}

common::Result<JournalOutcome>
decodeOutcome(const std::vector<std::uint8_t>& payload)
{
    if (payload.size() != kOutcomeBytes)
        return malformed("outcome record size",
                         std::to_string(payload.size()));
    const std::uint8_t* p = payload.data();
    JournalOutcome o;
    o.id = getU64(p);
    if (p[8] > static_cast<std::uint8_t>(Outcome::Shed))
        return malformed("outcome value", std::to_string(p[8]));
    o.outcome = static_cast<Outcome>(p[8]);
    if (p[9] > 1)
        return malformed("outcome request class",
                         std::to_string(p[9]));
    o.cls = static_cast<RequestClass>(p[9]);
    o.response_bits = getU32(p + 10);
    o.latency_us = getF64(p + 14);
    return o;
}

JournalAdmit
admitRecord(const Request& req, AdmissionController::Decision dec)
{
    JournalAdmit a;
    a.id = req.id;
    a.cls = req.cls;
    switch (dec) {
    case AdmissionController::Decision::Admit:
        a.decision = JournalDecision::Admit;
        break;
    case AdmissionController::Decision::RejectQueueFull:
        a.decision = JournalDecision::RejectQueueFull;
        break;
    case AdmissionController::Decision::RejectInfeasible:
        a.decision = JournalDecision::RejectInfeasible;
        break;
    case AdmissionController::Decision::Shed:
        a.decision = JournalDecision::Shed;
        break;
    }
    a.input_index = static_cast<std::uint64_t>(req.input_index);
    a.arrival_us = req.arrival_us;
    a.deadline_us = req.deadline_us;
    return a;
}

JournalOutcome
outcomeRecord(const Request& req, Outcome outcome, float response,
              double latency)
{
    JournalOutcome o;
    o.id = req.id;
    o.outcome = outcome;
    o.cls = req.cls;
    if (outcome == Outcome::Completed) {
        std::memcpy(&o.response_bits, &response, 4);
        o.latency_us = latency;
    }
    return o;
}

std::vector<std::uint8_t>
serializeFleetState(const FleetDurableState& st)
{
    std::vector<std::uint8_t> out;
    out.reserve(64 + 8 * kNumCounterFields +
                20 * st.completed.size() + 33 * st.pending.size() +
                st.params_blob.size());
    putU32(out, kFleetStateMagic);
    putU32(out, kFleetStateVersion);
    putU64(out, st.wal_first_seq);
    putF64(out, st.now_us);
    putCounters(out, st.counters);
    putU64(out, st.completed.size());
    for (const auto& e : st.completed) {
        putU64(out, e.id);
        putU32(out, e.response_bits);
        putF64(out, e.latency_us);
    }
    putU64(out, st.pending.size());
    for (const Request& r : st.pending) {
        putU64(out, r.id);
        out.push_back(static_cast<std::uint8_t>(r.cls));
        putU64(out, static_cast<std::uint64_t>(r.input_index));
        putF64(out, r.arrival_us);
        putF64(out, r.deadline_us);
    }
    putU64(out, st.params_blob.size());
    out.insert(out.end(), st.params_blob.begin(),
               st.params_blob.end());
    putU64(out, fnv1a64(out.data(), out.size()));
    return out;
}

common::Result<FleetDurableState>
parseFleetState(const std::uint8_t* data, std::size_t size)
{
    std::size_t pos = 0;
    auto need = [&](std::size_t n) { return size - pos >= n; };

    if (size < 8)
        return malformed("state shorter than magic+version");
    if (getU32(data) != kFleetStateMagic)
        return malformed("state magic");
    if (getU32(data + 4) != kFleetStateVersion)
        return malformed("state version",
                         std::to_string(getU32(data + 4)));
    pos = 8;

    FleetDurableState st;
    if (!need(16))
        return malformed("truncated before wal_first_seq/now");
    st.wal_first_seq = getU64(data + pos);
    pos += 8;
    st.now_us = getF64(data + pos);
    pos += 8;

    if (!need(8 * kNumCounterFields))
        return malformed("truncated inside counters");
    getCounters(data + pos, st.counters);
    pos += 8 * kNumCounterFields;

    if (!need(8))
        return malformed("truncated before completed count");
    const std::uint64_t n_completed = getU64(data + pos);
    pos += 8;
    if (n_completed > kFleetStateMaxEntries ||
        !need(n_completed * 20))
        return malformed("completed count disagrees with size",
                         std::to_string(n_completed));
    st.completed.reserve(static_cast<std::size_t>(n_completed));
    for (std::uint64_t i = 0; i < n_completed; ++i) {
        FleetDurableState::CompletedEntry e;
        e.id = getU64(data + pos);
        e.response_bits = getU32(data + pos + 8);
        e.latency_us = getF64(data + pos + 12);
        st.completed.push_back(e);
        pos += 20;
    }

    if (!need(8))
        return malformed("truncated before pending count");
    const std::uint64_t n_pending = getU64(data + pos);
    pos += 8;
    if (n_pending > kFleetStateMaxEntries || !need(n_pending * 33))
        return malformed("pending count disagrees with size",
                         std::to_string(n_pending));
    st.pending.reserve(static_cast<std::size_t>(n_pending));
    for (std::uint64_t i = 0; i < n_pending; ++i) {
        Request r;
        r.id = getU64(data + pos);
        if (data[pos + 8] > 1)
            return malformed("pending request class",
                             std::to_string(data[pos + 8]));
        r.cls = static_cast<RequestClass>(data[pos + 8]);
        r.input_index =
            static_cast<std::size_t>(getU64(data + pos + 9));
        r.arrival_us = getF64(data + pos + 17);
        r.deadline_us = getF64(data + pos + 25);
        st.pending.push_back(r);
        pos += 33;
    }

    if (!need(8))
        return malformed("truncated before params length");
    const std::uint64_t blob_len = getU64(data + pos);
    pos += 8;
    if (blob_len > size || !need(blob_len))
        return malformed("params length disagrees with size",
                         std::to_string(blob_len));
    st.params_blob.assign(data + pos, data + pos + blob_len);
    pos += blob_len;

    if (!need(8))
        return malformed("truncated before trailing digest");
    const std::uint64_t stored = getU64(data + pos);
    const std::uint64_t actual = fnv1a64(data, pos);
    pos += 8;
    if (stored != actual)
        return malformed("state trailing digest");
    if (pos != size)
        return malformed("trailing bytes after state digest");
    return st;
}

common::Result<FleetDurableState>
parseFleetState(const std::vector<std::uint8_t>& bytes)
{
    return parseFleetState(bytes.data(), bytes.size());
}

} // namespace serve
