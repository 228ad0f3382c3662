/**
 * @file
 * The one command-line parser. A program lists its flags as rows (flag,
 * value name, help line, handler); parse() walks argv against them,
 * hands every other argument to the operand handler, prints --help from
 * the rows, and ends a usage error with one stderr line naming it.
 */

#ifndef MTP_COMMON_CLI_HH
#define MTP_COMMON_CLI_HH

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"

namespace mtp {
namespace cli {

/** Print "fatal: @p msg" as one stderr line and exit @p status. */
[[noreturn]] inline void
fail(const std::string &msg, int status = 1)
{
    detail::fatalImpl(msg, status);
}

/** One argument as a handler sees it: a flag's value, or an operand. */
struct Arg
{
    std::string flag;  //!< the row's flag; empty for an operand
    std::string value; //!< the value ("" for a switch), or the operand
    int status = 1;    //!< exit status of a usage error

    [[noreturn]] void fail(const std::string &msg) const
    {
        cli::fail(msg, status);
    }

    /** The value under parseNumber()'s rules: finite, in [@p min, @p max]. */
    template <typename T>
    T
    number(T min = std::numeric_limits<T>::lowest(),
           T max = std::numeric_limits<T>::max()) const
    {
        T v = parseNumber<T>(flag, value, status);
        if constexpr (std::is_floating_point_v<T>) {
            if (!std::isfinite(v))
                fail(detail::concat(flag, " must be a finite number, got '",
                                    value, "'"));
        }
        if (v < min)
            fail(detail::concat(flag, " must be >= ", min));
        if (v > max)
            fail(detail::concat(flag, " must be <= ", max));
        return v;
    }

    /** The value split at commas: "a,b" gives {"a", "b"}. An empty
     *  list, an empty name or a repeated name fails. */
    std::vector<std::string> list() const;
};

using Handler = std::function<void(const Arg &)>;

/** One row of a command's flag table. */
struct Flag
{
    std::string name;  //!< e.g. "--scale"
    std::string value; //!< value name for --help ("N"); empty: a switch
    std::string help;  //!< one line for --help
    Handler set;
};

/** A program, or one of its subcommands. */
struct Command
{
    std::string words;    //!< "campaign diff"; empty: no subcommands
    std::string operands; //!< operand synopsis for --help
    std::string help;     //!< one line for --help (subcommands)
    std::vector<Flag> flags;
    Handler operand; //!< each non-flag argument; null: none accepted
    std::size_t minOperands = 0;
    std::size_t maxOperands = std::numeric_limits<std::size_t>::max();
};

/**
 * Parse argv and return the index of the command its leading words
 * name (0 without subcommands). Handlers run in argv order. --help or
 * -h prints every row and exits 0; a usage error exits @p status.
 */
std::size_t parse(int argc, char **argv,
                  const std::vector<Command> &commands, int status = 1);

} // namespace cli
} // namespace mtp

#endif // MTP_COMMON_CLI_HH
