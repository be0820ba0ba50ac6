#include "workload/trace.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "engine/storage_engine.h"
#include "sim/sim_context.h"

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
        std::istringstream ls(line);
        char kind = 0;
        Op op;
        ls >> kind;
        auto bad = [&] {
            throw std::invalid_argument(
                "trace parse error at line " +
                std::to_string(lineno) + ": '" + line + "'");
        };
        switch (kind) {
          case 'R':
            op.type = OpType::Read;
            if (!(ls >> op.key))
                bad();
            break;
          case 'U':
            op.type = OpType::Update;
            if (!(ls >> op.key >> op.valueBytes))
                bad();
            break;
          case 'M':
            op.type = OpType::Rmw;
            if (!(ls >> op.key >> op.valueBytes))
                bad();
            break;
          case 'S':
            op.type = OpType::Scan;
            if (!(ls >> op.key >> op.scanLength))
                bad();
            break;
          case 'D':
            op.type = OpType::Delete;
            if (!(ls >> op.key))
                bad();
            break;
          default:
            bad();
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
    using OpType = WorkloadGenerator::OpType;
    if (issued_ >= trace_.size())
        return;
    const Trace::Op &op = trace_.ops()[issued_++];
    auto cb = [this](const QueryResult &) {
        ++completed_;
        issueNext();
    };
    switch (op.type) {
      case OpType::Read:
        engine_.get(op.key, std::move(cb));
        break;
      case OpType::Update:
        engine_.update(op.key, op.valueBytes, std::move(cb));
        break;
      case OpType::Rmw:
        engine_.readModifyWrite(op.key, op.valueBytes,
                                std::move(cb));
        break;
      case OpType::Scan:
        engine_.scan(op.key, op.scanLength, std::move(cb));
        break;
      case OpType::Delete:
        engine_.erase(op.key, std::move(cb));
        break;
    }
}

} // namespace checkin
