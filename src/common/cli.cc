#include "common/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace mtp {
namespace cli {

namespace {

void
printHelp(const std::string &prog, const std::vector<Command> &commands)
{
    const Command &first = commands.front();
    std::printf("usage: %s %s\n", prog.c_str(),
                first.words.empty()
                    ? ("[options] " + first.operands).c_str()
                    : "<command> [options] <files>");
    for (const Command &cmd : commands) {
        if (!cmd.words.empty())
            std::printf("%s %s\n    %s\n", cmd.words.c_str(),
                        cmd.operands.c_str(), cmd.help.c_str());
        for (const Flag &f : cmd.flags)
            std::printf("  %-20s %s\n", (f.name + " " + f.value).c_str(),
                        f.help.c_str());
    }
    std::printf("  %-20s %s\n", "-h, --help", "print this help and exit");
}

} // namespace

std::vector<std::string>
Arg::list() const
{
    if (value.empty())
        fail(flag + " needs at least one name");
    std::vector<std::string> items;
    for (std::size_t start = 0; start <= value.size();) {
        std::size_t comma = std::min(value.find(',', start), value.size());
        std::string item = value.substr(start, comma - start);
        if (item.empty())
            fail(flag + " has an empty name in '" + value + "'");
        if (std::find(items.begin(), items.end(), item) != items.end())
            fail(flag + " names '" + item + "' twice");
        items.push_back(std::move(item));
        start = comma + 1;
    }
    return items;
}

std::size_t
parse(int argc, char **argv, const std::vector<Command> &commands,
      int status)
{
    std::string prog = argv[0];
    prog.erase(0, prog.find_last_of('/') + 1);
    auto help = [&](const std::string &arg) {
        if (arg != "--help" && arg != "-h")
            return;
        printHelp(prog, commands);
        std::exit(0);
    };

    // The command whose words lead argv; the longest match wins.
    std::size_t which = 0;
    int first = 1;
    for (std::size_t c = 0; c < commands.size(); ++c) {
        const std::string &words = commands[c].words;
        std::string lead;
        int i = 1;
        for (; i < argc && lead.size() < words.size(); ++i)
            lead.append(i > 1 ? " " : "").append(argv[i]);
        if (!words.empty() && lead == words && i > first) {
            which = c;
            first = i;
        }
    }
    if (!commands.front().words.empty() && first == 1) {
        if (argc > 1)
            help(argv[1]);
        fail(argc > 1 ? "unknown command '" + std::string(argv[1]) +
                            "' (see --help)"
                      : "missing command (see --help)",
             status);
    }

    const Command &cmd = commands[which];
    std::size_t operands = 0;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        help(arg);
        if (arg.size() < 2 || arg[0] != '-') {
            if (!cmd.operand)
                fail("unexpected argument '" + arg + "'", status);
            ++operands;
            cmd.operand(Arg{"", arg, status});
            continue;
        }
        auto row = std::find_if(cmd.flags.begin(), cmd.flags.end(),
                                [&](const Flag &f) { return f.name == arg; });
        if (row == cmd.flags.end())
            fail("unknown flag '" + arg + "' (see --help)", status);
        // A flag is never taken as a value: in "--gate --jsonl f",
        // --gate lost its value.
        std::string value;
        if (!row->value.empty()) {
            if (i + 1 == argc || std::string(argv[i + 1]).starts_with("--"))
                fail(arg + " needs a value " + row->value, status);
            value = argv[++i];
        }
        row->set(Arg{arg, value, status});
    }
    if (operands < cmd.minOperands || operands > cmd.maxOperands)
        fail((cmd.words.empty() ? prog : cmd.words) + " takes " +
                 cmd.operands + ", got " + std::to_string(operands),
             status);
    return which;
}

} // namespace cli
} // namespace mtp
