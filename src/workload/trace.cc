#include "workload/trace.h"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "engine/storage_engine.h"
#include "sim/sim_context.h"
#include "workload/client.h"

namespace checkin {

Trace
Trace::generate(const WorkloadSpec &spec, std::uint64_t key_count,
                std::uint64_t count)
{
    WorkloadGenerator gen(spec, key_count);
    Trace t;
    t.ops_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        t.ops_.push_back(gen.next());
    return t;
}

void
Trace::save(std::ostream &os) const
{
    using OpType = WorkloadGenerator::OpType;
    for (const Op &op : ops_) {
        switch (op.type) {
          case OpType::Read:
            os << "R " << op.key << "\n";
            break;
          case OpType::Update:
            os << "U " << op.key << " " << op.valueBytes << "\n";
            break;
          case OpType::Rmw:
            os << "M " << op.key << " " << op.valueBytes << "\n";
            break;
          case OpType::Scan:
            os << "S " << op.key << " " << op.scanLength << "\n";
            break;
          case OpType::Delete:
            os << "D " << op.key << "\n";
            break;
        }
    }
}

Trace
Trace::load(std::istream &is)
{
    using OpType = WorkloadGenerator::OpType;
    Trace t;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        auto bad = [&](const std::string &why) {
            throw std::invalid_argument(
                "trace parse error at line " + std::to_string(lineno) +
                ": '" + line + "': " + why);
        };
        std::istringstream ls(line);
        std::vector<std::string> fields;
        for (std::string f; ls >> f;)
            fields.push_back(f);
        // Digits only: no sign, no trailing text, no wrap-around.
        auto number = [&](std::size_t i, std::uint64_t max) {
            const std::string &f = fields[i];
            const char *last = f.data() + f.size();
            std::uint64_t v = 0;
            const auto [end, ec] = std::from_chars(f.data(), last, v);
            if (ec == std::errc::invalid_argument || end != last)
                bad("'" + f + "' is not a whole number");
            if (ec == std::errc::result_out_of_range || v > max)
                bad("'" + f + "' is above " + std::to_string(max));
            return v;
        };
        constexpr std::uint64_t kMaxU32 =
            std::numeric_limits<std::uint32_t>::max();
        Op op{};
        std::size_t numbers = 1;
        switch (fields.empty() || fields[0].size() != 1 ? '?'
                                                        : fields[0][0]) {
          case 'R': op.type = OpType::Read; break;
          case 'D': op.type = OpType::Delete; break;
          case 'U': op.type = OpType::Update; numbers = 2; break;
          case 'M': op.type = OpType::Rmw; numbers = 2; break;
          case 'S': op.type = OpType::Scan; numbers = 2; break;
          default: bad("expected an op letter R, U, M, S or D");
        }
        if (fields.size() != 1 + numbers) {
            bad(fields[0] + " takes " + std::to_string(numbers) +
                (numbers == 1 ? " number" : " numbers"));
        }
        op.key = number(1, std::numeric_limits<std::uint64_t>::max());
        if (op.type == OpType::Scan) {
            op.scanLength = std::uint32_t(number(2, kMaxU32));
        } else if (numbers == 2) {
            op.valueBytes = std::uint32_t(number(2, kMaxU32));
            if (op.valueBytes == 0)
                bad("a value needs at least 1 byte");
        }
        t.ops_.push_back(op);
    }
    return t;
}

TraceReplayer::TraceReplayer(SimContext &ctx, StorageEngine &engine,
                             const Trace &trace,
                             std::uint32_t threads)
    : eq_(ctx.events()),
      engine_(engine),
      trace_(trace),
      threads_(threads)
{
    if (threads_ == 0 && trace_.size() > 0) {
        throw std::invalid_argument(
            "trace replay needs at least one client thread");
    }
    using OpType = WorkloadGenerator::OpType;
    const EngineConfig &cfg = engine_.config();
    for (std::size_t i = 0; i < trace_.size(); ++i) {
        const Trace::Op &op = trace_.ops()[i];
        const std::string at = "trace op " + std::to_string(i + 1) + ": ";
        if (op.key >= cfg.recordCount) {
            throw std::invalid_argument(
                at + "key " + std::to_string(op.key) +
                " is outside the engine's " +
                std::to_string(cfg.recordCount) + " keys");
        }
        if ((op.type == OpType::Update || op.type == OpType::Rmw) &&
            (op.valueBytes == 0 || op.valueBytes > cfg.maxValueBytes)) {
            throw std::invalid_argument(
                at + "a value of " + std::to_string(op.valueBytes) +
                " bytes is outside the engine's [1, " +
                std::to_string(cfg.maxValueBytes) + "]");
        }
    }
}

void
TraceReplayer::start()
{
    for (std::uint32_t t = 0; t < threads_ && issued_ < trace_.size();
         ++t) {
        issueNext();
    }
}

void
TraceReplayer::issueNext()
{
    if (issued_ >= trace_.size())
        return;
    issueOp(engine_, trace_.ops()[issued_++], [this](const QueryResult &) {
        ++completed_;
        issueNext();
    });
}

} // namespace checkin
