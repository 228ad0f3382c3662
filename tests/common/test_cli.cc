#include <gtest/gtest.h>

#include <string>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"

namespace mtp {
namespace cli {
namespace {

/** A mutable argv: "prog" followed by @p args. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : strings_(std::move(args))
    {
        strings_.insert(strings_.begin(), "prog");
        for (std::string &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

/** Two commands: "run" with three rows and key=value operands, and
 *  "diff", which takes exactly two files and a finite tolerance >= 0. */
struct Program
{
    bool verbose = false;
    unsigned n = 0;
    std::string out;
    std::vector<std::string> operands;

    std::vector<Command>
    commands()
    {
        auto take = [this](const Arg &a) { operands.push_back(a.value); };
        return {
            {"run", "[key=value ...]", "run something",
             {{"--verbose", "", "say more",
               [this](const Arg &) { verbose = true; }},
              {"--n", "N", "a count, 1 to 1024",
               [this](const Arg &a) { n = a.number(1u, 1024u); }},
              {"--out", "FILE", "output file",
               [this](const Arg &a) { out = a.value; }}},
             take},
            {"diff", "<A> <B>", "compare two files",
             {{"--gate", "PCT", "allowed growth",
               [](const Arg &a) { a.number<double>(); }},
              {"--tol", "PCT", "tolerance",
               [](const Arg &a) { a.number(0.0); }}},
             take, 2, 2},
        };
    }
};

TEST(Cli, RowsAndOperandsRunInArgvOrder)
{
    Program p;
    Argv run({"run", "--n", "3", "k=v", "--verbose", "--out", "f.txt",
              "x=y"});
    EXPECT_EQ(parse(run.argc(), run.argv(), p.commands()), 0u);
    EXPECT_TRUE(p.verbose);
    EXPECT_EQ(p.n, 3u);
    EXPECT_EQ(p.out, "f.txt");
    EXPECT_EQ(p.operands, (std::vector<std::string>{"k=v", "x=y"}));

    Program q;
    Argv diff({"diff", "a.json", "--gate", "-5", "b.json"});
    EXPECT_EQ(parse(diff.argc(), diff.argv(), q.commands()), 1u);
    EXPECT_EQ(q.operands, (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(Cli, UsageErrorsExitWithOneLineNamingTheProblem)
{
    struct Case
    {
        std::vector<std::string> args;
        const char *named;
    };
    for (const Case &c : std::vector<Case>{
             {{"run", "--bogus"}, "^fatal: unknown flag '--bogus'"},
             {{"run", "--out"}, "^fatal: --out needs a value FILE\n$"},
             {{"run", "--out", "--verbose"}, "--out needs a value FILE"},
             {{"run", "--n", "abc"}, "bad unsigned value 'abc' for '--n'"},
             {{"run", "--n", "0"}, "--n must be >= 1"},
             {{"run", "--n", "1025"}, "^fatal: --n must be <= 1024\n$"},
             {{"diff", "a", "--tol", "-5", "b"}, "--tol must be >= 0\n$"},
             {{"diff", "a", "--tol", "nan", "b"},
              "^fatal: --tol must be a finite number, got 'nan'\n$"},
             {{"diff", "a", "--tol", "inf", "b"}, "finite number, got 'inf'"},
             {{"diff", "a", "--tol", "-inf", "b"}, "finite number, got '-inf'"},
             {{"diff", "a", "--tol", "1e400", "b"},
              "value '1e400' out of range for '--tol'"},
             {{"diff", "a", "--gate", "x", "b"}, "value 'x' for '--gate'"},
             {{"diff", "a"}, "diff takes <A> <B>, got 1\n$"},
             {{"diff", "a", "b", "c"}, "diff takes <A> <B>, got 3"},
             {{"diff", "a", "b", "--verbose"}, "unknown flag '--verbose'"},
             {{"bogus"}, "unknown command 'bogus'"},
             {{}, "missing command"},
         }) {
        Program p;
        Argv a(c.args);
        EXPECT_EXIT(parse(a.argc(), a.argv(), p.commands(), 2),
                    ::testing::ExitedWithCode(2), c.named);
    }
}

TEST(Cli, ProgramWithoutSubcommandsExitsOneByDefault)
{
    bool quiet = false;
    std::vector<Command> program = {
        {"", "", "",
         {{"--quiet", "", "less output",
           [&](const Arg &) { quiet = true; }}},
         nullptr},
    };
    Argv ok({"--quiet"});
    EXPECT_EQ(parse(ok.argc(), ok.argv(), program), 0u);
    EXPECT_TRUE(quiet);

    Argv flag({"-q"});
    EXPECT_EXIT(parse(flag.argc(), flag.argv(), program),
                ::testing::ExitedWithCode(1), "unknown flag '-q'");
    // No operand handler: every non-flag argument is an error.
    Argv operand({"numCores=2"});
    EXPECT_EXIT(parse(operand.argc(), operand.argv(), program),
                ::testing::ExitedWithCode(1),
                "unexpected argument 'numCores=2'");
}

TEST(Cli, HelpListsEveryRow)
{
    Program p;
    std::vector<Command> commands = p.commands();
    std::string everyRow;
    for (const Command &cmd : commands) {
        everyRow += ".*" + cmd.words;
        for (const Flag &f : cmd.flags)
            everyRow += ".*" + f.name + (f.value.empty() ? "" : " ") +
                        f.value + " +" + f.help;
    }
    everyRow += ".*--help";
    for (const char *help : {"--help", "-h"}) {
        Argv a({"run", help});
        // --help prints to stdout; the death test matches stderr.
        EXPECT_EXIT(
            {
                ::dup2(STDERR_FILENO, STDOUT_FILENO);
                parse(a.argc(), a.argv(), commands);
            },
            ::testing::ExitedWithCode(0), everyRow);
    }
}

TEST(Cli, ListSplitsAtCommas)
{
    EXPECT_EQ((Arg{"--bench", "a,b"}.list()),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ((Arg{"--bench", "a"}.list()),
              (std::vector<std::string>{"a"}));

    // An empty list, an empty name and a repeated name each exit with
    // one line naming the flag.
    for (auto [value, message] :
         {std::pair<const char *, const char *>{"", "needs at least one name"},
          {",", "has an empty name in ','"},
          {"a,", "has an empty name in 'a,'"},
          {",a", "has an empty name in ',a'"},
          {"a,,b", "has an empty name in 'a,,b'"},
          {"a,b,a", "names 'a' twice"}}) {
        EXPECT_EXIT(Arg({"--bench", value}).list(),
                    ::testing::ExitedWithCode(1),
                    std::string("^fatal: --bench ") + message + "\n$");
    }
}

} // namespace
} // namespace cli
} // namespace mtp
