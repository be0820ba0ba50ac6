/**
 * @file
 * Operation trace record/replay: capture a workload as a portable
 * text trace, replay it deterministically against an engine. Useful
 * for regression pinning, cross-configuration comparisons on an
 * identical request stream, and importing external traces.
 */

#ifndef CHECKIN_WORKLOAD_TRACE_H_
#define CHECKIN_WORKLOAD_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/ycsb.h"

namespace checkin {

/** A replayable operation sequence. */
class Trace
{
  public:
    using Op = WorkloadGenerator::Op;

    Trace() = default;

    /** Record @p count operations drawn from @p spec. */
    static Trace generate(const WorkloadSpec &spec,
                          std::uint64_t key_count,
                          std::uint64_t count);

    void add(const Op &op) { ops_.push_back(op); }
    const std::vector<Op> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }

    /**
     * Serialize as one line per op:
     *   R <key>            read
     *   U <key> <bytes>    update
     *   M <key> <bytes>    read-modify-write
     *   S <key> <len>      scan
     *   D <key>            delete
     */
    void save(std::ostream &os) const;

    /**
     * Parse the text format. A line with an unknown op, a field too
     * many or too few, a number with a sign or other text, a number
     * above its field's range (64-bit keys, 32-bit sizes) or a value
     * size of 0 throws std::invalid_argument naming the line; blank
     * lines and '#' comments are skipped.
     */
    static Trace load(std::istream &is);

    bool
    operator==(const Trace &o) const
    {
        if (ops_.size() != o.ops_.size())
            return false;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            if (ops_[i].type != o.ops_[i].type ||
                ops_[i].key != o.ops_[i].key ||
                ops_[i].valueBytes != o.ops_[i].valueBytes ||
                ops_[i].scanLength != o.ops_[i].scanLength) {
                return false;
            }
        }
        return true;
    }

  private:
    std::vector<Op> ops_;
};

class StorageEngine;
class EventQueue;
class SimContext;

/** Closed-loop replay of a Trace against an engine. */
class TraceReplayer
{
  public:
    /** Throws std::invalid_argument for 0 threads and a non-empty
     *  trace (nothing would issue, and the engine's checkpoint timer
     *  would keep the event queue running forever), and for an op the
     *  engine cannot take: a key outside its key space or a value
     *  outside [1, maxValueBytes]. */
    TraceReplayer(SimContext &ctx, StorageEngine &engine,
                  const Trace &trace, std::uint32_t threads);

    void start();
    bool done() const { return completed_ >= trace_.size(); }
    std::uint64_t completed() const { return completed_; }

  private:
    void issueNext();

    EventQueue &eq_;
    StorageEngine &engine_;
    const Trace &trace_;
    std::uint32_t threads_;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace checkin

#endif // CHECKIN_WORKLOAD_TRACE_H_
