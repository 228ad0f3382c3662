#include "trace/kernel_io.hh"

#include <array>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/json_writer.hh"
#include "common/log.hh"

namespace mtp {

namespace {

/** Write one address pattern as its five-or-eight field tail. */
void
writePattern(std::ostream &os, const AddressPattern &p)
{
    os << " 0x" << std::hex << p.base << std::dec << ' '
       << p.threadStride << ' ' << p.iterStride << ' ' << p.elemBytes;
    if (p.scatterFrac > 0.0) {
        // Shortest round-trip spelling: reading it back gives the
        // same double.
        std::string frac;
        json::appendNumber(frac, p.scatterFrac);
        os << ' ' << frac << ' ' << p.scatterSpan << ' ' << p.scatterSalt;
    }
}

/**
 * Parse the pattern fields starting at @p idx of @p toks; advances idx
 * past the consumed fields.
 */
AddressPattern
parsePattern(const std::vector<std::string> &toks, std::size_t &idx,
             const std::string &ctx)
{
    if (idx + 4 > toks.size())
        MTP_FATAL(ctx, ": truncated address pattern");
    AddressPattern p;
    p.base = parseNumber<Addr>(ctx, toks[idx++]);
    p.threadStride = parseNumber<Stride>(ctx, toks[idx++]);
    p.iterStride = parseNumber<Stride>(ctx, toks[idx++]);
    p.elemBytes = parseNumber<unsigned>(ctx, toks[idx++]);
    // Optional scatter triple: detect by a leading numeric token that
    // parses as a fraction.
    if (idx + 3 <= toks.size() &&
        (std::isdigit(static_cast<unsigned char>(toks[idx][0])) ||
         toks[idx][0] == '.')) {
        p.scatterFrac = parseNumber<double>(ctx, toks[idx++]);
        p.scatterSpan = parseNumber<Addr>(ctx, toks[idx++]);
        p.scatterSalt = parseNumber<std::uint64_t>(ctx, toks[idx++]);
    }
    return p;
}

/** Parse the optional "src_a src_b" pair that ends @p toks at @p idx. */
std::array<std::int8_t, 2>
parseSrcPair(const std::vector<std::string> &toks, std::size_t idx,
             const std::string &ctx)
{
    if (toks.size() == idx)
        return {-1, -1};
    if (toks.size() != idx + 2)
        MTP_FATAL(ctx, ": '", toks[0], "' takes zero or two source slots");
    return {parseNumber<std::int8_t>(ctx, toks[idx]),
            parseNumber<std::int8_t>(ctx, toks[idx + 1])};
}

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok) {
        if (tok[0] == '#')
            break;
        toks.push_back(tok);
    }
    return toks;
}

} // namespace

void
writeKernel(std::ostream &os, const KernelDesc &kernel)
{
    os << "kernel " << kernel.name << '\n';
    os << "grid " << kernel.warpsPerBlock << ' ' << kernel.numBlocks
       << ' ' << kernel.maxBlocksPerCore << '\n';
    const SwPrefetchOptions &swp = kernel.swpOpts;
    os << "swp " << swp.strideDistance << ' ' << swp.ipDistanceWarps << ' '
       << swp.registerBlocksLost << '\n';
    for (const auto &seg : kernel.segments) {
        os << "segment " << seg.trips << '\n';
        for (const auto &inst : seg.insts) {
            switch (inst.op) {
              case Opcode::Comp:
                os << "  comp " << inst.repeat;
                if (inst.srcSlots[0] >= 0)
                    os << ' ' << int(inst.srcSlots[0]) << ' '
                       << int(inst.srcSlots[1]);
                break;
              case Opcode::Imul:
                os << "  imul";
                if (inst.srcSlots[0] >= 0)
                    os << ' ' << int(inst.srcSlots[0]) << ' '
                       << int(inst.srcSlots[1]);
                break;
              case Opcode::Fdiv:
                os << "  fdiv";
                if (inst.srcSlots[0] >= 0)
                    os << ' ' << int(inst.srcSlots[0]) << ' '
                       << int(inst.srcSlots[1]);
                break;
              case Opcode::Branch:
                os << "  branch";
                break;
              case Opcode::Load:
                os << "  load " << int(inst.destSlot);
                writePattern(os, inst.pattern);
                if (!inst.swPrefetchable)
                    os << " noswp";
                if (inst.regPrefetch)
                    os << " regpref";
                if (inst.srcSlots[0] >= 0)
                    os << " src=" << int(inst.srcSlots[0]);
                break;
              case Opcode::Store:
                os << "  store " << int(inst.srcSlots[0]);
                writePattern(os, inst.pattern);
                break;
              case Opcode::Prefetch:
                os << "  pref";
                writePattern(os, inst.pattern);
                break;
            }
            os << '\n';
        }
        os << "end\n";
    }
}

KernelDesc
readKernel(std::istream &is, const std::string &source)
{
    KernelDesc k;
    Segment *seg = nullptr;
    std::string line;
    unsigned lineno = 0;
    bool saw_grid = false;

    while (std::getline(is, line)) {
        ++lineno;
        std::string ctx = source + ":" + std::to_string(lineno);
        auto toks = tokenize(line);
        if (toks.empty())
            continue;
        const std::string &cmd = toks[0];

        if (cmd == "kernel") {
            if (toks.size() != 2)
                MTP_FATAL(ctx, ": 'kernel' needs a name");
            k.name = toks[1];
        } else if (cmd == "grid") {
            if (toks.size() != 4)
                MTP_FATAL(ctx, ": 'grid' needs 3 fields");
            k.warpsPerBlock = parseNumber<unsigned>(ctx, toks[1]);
            k.numBlocks = parseNumber<std::uint64_t>(ctx, toks[2]);
            k.maxBlocksPerCore = parseNumber<unsigned>(ctx, toks[3]);
            saw_grid = true;
        } else if (cmd == "swp") {
            if (toks.size() != 4)
                MTP_FATAL(ctx, ": 'swp' needs 3 fields");
            k.swpOpts.strideDistance = parseNumber<unsigned>(ctx, toks[1]);
            k.swpOpts.ipDistanceWarps = parseNumber<unsigned>(ctx, toks[2]);
            k.swpOpts.registerBlocksLost =
                parseNumber<unsigned>(ctx, toks[3]);
        } else if (cmd == "segment") {
            if (toks.size() != 2)
                MTP_FATAL(ctx, ": 'segment' needs a trip count");
            k.segments.emplace_back();
            seg = &k.segments.back();
            seg->trips = parseNumber<std::uint32_t>(ctx, toks[1]);
        } else if (cmd == "end") {
            seg = nullptr;
        } else {
            if (!seg)
                MTP_FATAL(ctx, ": instruction outside a segment");
            StaticInst inst;
            if (cmd == "comp") {
                if (toks.size() < 2)
                    MTP_FATAL(ctx, ": 'comp' needs a repeat count");
                inst = StaticInst::comp(
                    parseNumber<std::uint16_t>(ctx, toks[1]));
                inst.srcSlots = parseSrcPair(toks, 2, ctx);
            } else if (cmd == "imul" || cmd == "fdiv") {
                inst = cmd == "imul" ? StaticInst::imul()
                                     : StaticInst::fdiv();
                inst.srcSlots = parseSrcPair(toks, 1, ctx);
            } else if (cmd == "branch") {
                inst = StaticInst::branch();
            } else if (cmd == "load") {
                std::size_t idx = 2;
                AddressPattern p = parsePattern(toks, idx, ctx);
                auto dest = parseNumber<std::int8_t>(ctx, toks[1]);
                if (dest < 0)
                    MTP_FATAL(ctx, ": 'load' needs a destination slot");
                inst = StaticInst::load(p, dest);
                for (; idx < toks.size(); ++idx) {
                    if (toks[idx] == "noswp")
                        inst.swPrefetchable = false;
                    else if (toks[idx] == "regpref")
                        inst.regPrefetch = true;
                    else if (toks[idx].starts_with("src="))
                        inst.srcSlots[0] = parseNumber<std::int8_t>(
                            ctx, toks[idx].substr(4));
                    else
                        MTP_FATAL(ctx, ": unknown load flag '",
                                  toks[idx], "'");
                }
            } else if (cmd == "store") {
                std::size_t idx = 2;
                AddressPattern p = parsePattern(toks, idx, ctx);
                inst = StaticInst::store(
                    p, parseNumber<std::int8_t>(ctx, toks[1]));
            } else if (cmd == "pref") {
                std::size_t idx = 1;
                inst = StaticInst::prefetch(parsePattern(toks, idx, ctx));
            } else {
                MTP_FATAL(ctx, ": unknown directive '", cmd, "'");
            }
            seg->insts.push_back(inst);
        }
    }
    if (k.name.empty())
        MTP_FATAL(source, ": missing 'kernel <name>'");
    if (!saw_grid)
        MTP_FATAL(source, ": missing 'grid' line");
    k.finalize();
    return k;
}

KernelDesc
readKernelFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        MTP_FATAL("cannot open kernel file '", path, "'");
    return readKernel(in, path);
}

} // namespace mtp
