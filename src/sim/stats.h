/**
 * @file
 * Lightweight named-counter registry for simulation statistics.
 *
 * Modules add to counters in a StatRegistry; the harness exports them
 * after a run. Counters are plain uint64s addressed by name so tests
 * can assert on exact operation counts.
 *
 * Hot paths count through a StatHandle: it interns its name on the
 * first add, and every later add is a plain array index instead of a
 * std::map string lookup.
 */

#ifndef CHECKIN_SIM_STATS_H_
#define CHECKIN_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace checkin {

/** Interned counter handle; stable for the registry's lifetime. */
using StatId = std::uint32_t;

/** Registry of named uint64 counters with interned fast handles. */
class StatRegistry
{
  public:
    /**
     * Intern @p name, creating the counter at zero. Idempotent: the
     * same name always returns the same id.
     */
    StatId
    intern(const std::string &name)
    {
        auto [it, inserted] =
            index_.try_emplace(name, StatId(values_.size()));
        if (inserted)
            values_.push_back(0);
        return it->second;
    }

    /** Add @p delta to the interned counter @p id. */
    void
    add(StatId id, std::uint64_t delta = 1)
    {
        values_[id] += delta;
    }

    /** Read the interned counter @p id. */
    std::uint64_t get(StatId id) const { return values_[id]; }

    /** Add @p delta to counter @p name, creating it at zero. */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        values_[intern(name)] += delta;
    }

    /** Read counter @p name; zero when absent. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? 0 : values_[it->second];
    }

    /** All counters, sorted by name. */
    std::map<std::string, std::uint64_t>
    all() const
    {
        std::map<std::string, std::uint64_t> out;
        for (const auto &[name, id] : index_)
            out.emplace(name, values_[id]);
        return out;
    }

  private:
    std::map<std::string, StatId> index_;
    std::vector<std::uint64_t> values_;
};

/**
 * Hot-path handle of a counter that must not exist before its first
 * add. The first add() interns the name; later adds are a plain
 * array index. Interning up front instead would list the counter, at
 * zero, in the dumps of runs that never touch it.
 */
class StatHandle
{
  public:
    /** @p name must outlive the handle (a string literal). */
    StatHandle(StatRegistry &reg, const char *name)
        : reg_(&reg), name_(name)
    {
    }

    /** A copy would keep adding to the original's registry. */
    StatHandle(const StatHandle &) = delete;
    StatHandle &operator=(const StatHandle &) = delete;

    void
    add(std::uint64_t delta = 1)
    {
        if (id_ == kUnset)
            id_ = reg_->intern(name_);
        reg_->add(id_, delta);
    }

  private:
    static constexpr StatId kUnset = ~StatId{0};

    StatRegistry *reg_;
    const char *name_;
    StatId id_ = kUnset;
};

} // namespace checkin

#endif // CHECKIN_SIM_STATS_H_
