/**
 * @file
 * rrm-lint implementation.
 *
 * Pipeline: load file -> strip comments/strings (keeping the comment
 * text for suppression directives) -> pair `x.hh`/`x.cc` into units ->
 * build per-unit symbol tables -> run each rule -> apply suppressions
 * -> sort.  Everything is plain lexical/regex analysis over the
 * stripped text: cheap, dependency-free, and precise enough for the
 * project idioms it encodes (see lint.hh for the rule families).
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace fs = std::filesystem;

namespace rrm::lint
{

namespace
{

// ---------------------------------------------------------------- text

struct AllowDirective
{
    std::vector<std::string> rules;
    std::string reason;
    int directiveLine = 0; ///< 1-based line of the comment
    int targetLine = 0;    ///< 1-based line it suppresses; 0 = dangling
    bool reasonMissing = false;
};

struct SourceFile
{
    std::string rel;                 ///< root-relative path
    std::vector<std::string> code;   ///< comment/string-stripped lines
    std::vector<std::string> comment;///< comment text per line
    std::string joined;              ///< code lines joined with '\n'
    std::vector<std::size_t> lineOffset; ///< joined offset of line i
    std::vector<AllowDirective> allows;
};

bool
isBlank(const std::string &s)
{
    return std::all_of(s.begin(), s.end(),
                       [](unsigned char c) { return std::isspace(c); });
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/**
 * Split file content into per-line stripped code and comment text.
 * String and character literals are dropped (their delimiters kept),
 * so lint regexes never match inside quoted text.
 */
void
stripSource(const std::string &content, SourceFile &out)
{
    enum class St { Code, LineComment, BlockComment, Str, Chr };
    St st = St::Code;
    std::string code, comm;
    auto flushLine = [&] {
        out.code.push_back(code);
        out.comment.push_back(comm);
        code.clear();
        comm.clear();
    };
    // Preprocessor lines keep their string content: the layering rule
    // needs to read `#include "module/header.hh"` paths.
    auto isPreprocLine = [&] {
        const std::string t = trim(code);
        return !t.empty() && t[0] == '#';
    };
    for (std::size_t i = 0; i < content.size(); ++i) {
        const char c = content[i];
        const char n = i + 1 < content.size() ? content[i + 1] : '\0';
        if (c == '\n') {
            if (st == St::LineComment)
                st = St::Code;
            flushLine();
            continue;
        }
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                ++i;
            } else if (c == '"') {
                code += '"';
                st = St::Str;
            } else if (c == '\'') {
                code += '\'';
                st = St::Chr;
            } else {
                code += c;
            }
            break;
        case St::LineComment:
            comm += c;
            break;
        case St::BlockComment:
            if (c == '*' && n == '/') {
                st = St::Code;
                ++i;
            } else {
                comm += c;
            }
            break;
        case St::Str:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                code += '"';
                st = St::Code;
            } else if (isPreprocLine()) {
                code += c;
            }
            break;
        case St::Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                code += '\'';
                st = St::Code;
            }
            break;
        }
    }
    flushLine();
    out.joined.clear();
    out.lineOffset.clear();
    for (const std::string &line : out.code) {
        out.lineOffset.push_back(out.joined.size());
        out.joined += line;
        out.joined += '\n';
    }
}

/** 1-based line number of an offset into SourceFile::joined. */
int
lineAt(const SourceFile &f, std::size_t offset)
{
    auto it = std::upper_bound(f.lineOffset.begin(), f.lineOffset.end(),
                               offset);
    return static_cast<int>(it - f.lineOffset.begin());
}

/** Offset just past the ')' matching the '(' at `open`; npos if
 *  unbalanced. */
std::size_t
matchParen(const std::string &s, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

/** Top-level comma split of the argument span (open+1 .. close-1). */
std::vector<std::pair<std::size_t, std::string>>
splitArgs(const std::string &s, std::size_t open, std::size_t close)
{
    std::vector<std::pair<std::size_t, std::string>> args;
    int depth = 0;
    std::size_t start = open + 1;
    for (std::size_t i = open + 1; i + 1 < close + 1 && i < s.size();
         ++i) {
        const char c = s[i];
        if (c == '(' || c == '[' || c == '{' || c == '<')
            ++depth;
        else if (c == ')' || c == ']' || c == '}' || c == '>')
            --depth;
        else if (c == ',' && depth == 0) {
            args.emplace_back(start, s.substr(start, i - start));
            start = i + 1;
        }
    }
    if (close > open + 1)
        args.emplace_back(start, s.substr(start, close - 1 - start));
    return args;
}

// --------------------------------------------------- suppressions

void
parseAllowDirectives(SourceFile &f)
{
    static const std::regex directive(
        R"(rrm-lint:\s*allow\s*\(([^)]*)\)(.*))");
    for (std::size_t i = 0; i < f.comment.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(f.comment[i], m, directive))
            continue;
        AllowDirective a;
        a.directiveLine = static_cast<int>(i + 1);
        std::stringstream rules(m[1].str());
        std::string rule;
        while (std::getline(rules, rule, ','))
            if (std::string r = trim(rule); !r.empty())
                a.rules.push_back(r);
        a.reason = trim(m[2].str());
        a.reasonMissing = a.reason.empty();
        if (!isBlank(f.code[i])) {
            a.targetLine = a.directiveLine;
        } else {
            for (std::size_t j = i + 1; j < f.code.size(); ++j) {
                if (!isBlank(f.code[j])) {
                    a.targetLine = static_cast<int>(j + 1);
                    break;
                }
            }
        }
        f.allows.push_back(std::move(a));
    }
}

// --------------------------------------------------------- units

/** A pairing unit: `x.hh` + `x.cc` analysed together so members
 *  declared in the header can be checked against the impl. */
struct Unit
{
    std::vector<SourceFile *> files;

    // Symbol tables (unit scope).
    std::set<std::string> unorderedNames;
    std::set<std::string> tickNames;
    std::set<std::string> cycleNames;
    std::map<std::string, std::string> statMembers; ///< name -> kind
};

struct StatRegistration
{
    SourceFile *file;
    int line;
    std::string member;
    std::string addKind; ///< Scalar / Vector / Formula / Distribution
};

void
buildSymbols(Unit &unit, std::vector<StatRegistration> &regs)
{
    static const std::regex unorderedDecl(
        R"(unordered_(?:map|set)\s*<[^;{}()]{0,200}?>\s+([A-Za-z_]\w*)\s*[;{=])");
    static const std::regex tickDecl(R"(\bTick\s+([A-Za-z_]\w*))");
    static const std::regex cycleDecl(R"(\bCycles\s+([A-Za-z_]\w*))");
    static const std::regex statDecl(
        R"(stats::(Scalar|VectorStat|Formula|DistributionStat|HistogramStat)\s*\*\s*([A-Za-z_]\w*)\s*(?:=\s*nullptr\s*)?;)");
    static const std::regex statReg(
        R"(\b([A-Za-z_]\w*)\s*=\s*&[^;=]{0,160}?\badd(Scalar|Vector|Formula|Distribution|Histogram)\s*\()");
    for (SourceFile *f : unit.files) {
        const std::string &s = f->joined;
        for (auto it = std::sregex_iterator(s.begin(), s.end(),
                                            unorderedDecl);
             it != std::sregex_iterator(); ++it)
            unit.unorderedNames.insert((*it)[1].str());
        for (auto it = std::sregex_iterator(s.begin(), s.end(), tickDecl);
             it != std::sregex_iterator(); ++it)
            unit.tickNames.insert((*it)[1].str());
        for (auto it =
                 std::sregex_iterator(s.begin(), s.end(), cycleDecl);
             it != std::sregex_iterator(); ++it)
            unit.cycleNames.insert((*it)[1].str());
        for (auto it = std::sregex_iterator(s.begin(), s.end(), statDecl);
             it != std::sregex_iterator(); ++it)
            unit.statMembers.emplace((*it)[2].str(), (*it)[1].str());
        for (auto it = std::sregex_iterator(s.begin(), s.end(), statReg);
             it != std::sregex_iterator(); ++it) {
            regs.push_back({f,
                            lineAt(*f, static_cast<std::size_t>(
                                           it->position(0))),
                            (*it)[1].str(), (*it)[2].str()});
        }
    }
}

// --------------------------------------------------------- engine

struct Engine
{
    const Config &config;
    std::vector<Diagnostic> diags;

    void
    report(SourceFile &f, int line, const std::string &rule,
           const std::string &message)
    {
        Diagnostic d;
        d.file = f.rel;
        d.line = line;
        d.rule = rule;
        d.message = message;
        for (const AllowDirective &a : f.allows) {
            if (a.targetLine != line || a.reasonMissing)
                continue;
            if (std::find(a.rules.begin(), a.rules.end(), rule) !=
                a.rules.end()) {
                d.suppressed = true;
                d.suppressReason = a.reason;
                break;
            }
        }
        diags.push_back(std::move(d));
    }

    /** Meta diagnostics about the suppression directives themselves. */
    void
    checkDirectives(SourceFile &f)
    {
        for (const AllowDirective &a : f.allows) {
            if (a.reasonMissing)
                report(f, a.directiveLine, "lint-missing-reason",
                       "rrm-lint allow() without a justification; the "
                       "suppression is ignored until a reason follows "
                       "the closing paren");
            for (const std::string &r : a.rules)
                if (!ruleCatalog().count(r))
                    report(f, a.directiveLine, "lint-unknown-rule",
                           "allow() names unknown rule '" + r + "'");
        }
    }

    // ---- determinism ------------------------------------------------

    void
    detUnorderedIter(Unit &unit)
    {
        static const std::regex beginCall(
            R"(\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
        static const std::regex forKw(R"(\bfor\s*\()");
        for (SourceFile *f : unit.files) {
            const std::string &s = f->joined;
            for (auto it = std::sregex_iterator(s.begin(), s.end(),
                                                forKw);
                 it != std::sregex_iterator(); ++it) {
                const auto open = static_cast<std::size_t>(
                    it->position(0) + it->length(0) - 1);
                const std::size_t close = matchParen(s, open);
                if (close == std::string::npos)
                    continue;
                // Find the range-for ':' at top level (not '::').
                int depth = 0;
                std::size_t colon = std::string::npos;
                for (std::size_t i = open + 1; i + 1 < close; ++i) {
                    const char c = s[i];
                    if (c == '(' || c == '[' || c == '{')
                        ++depth;
                    else if (c == ')' || c == ']' || c == '}')
                        --depth;
                    else if (c == ';')
                        break; // classic for loop
                    else if (c == ':' && depth == 0 &&
                             s[i - 1] != ':' && s[i + 1] != ':') {
                        colon = i;
                        break;
                    }
                }
                if (colon == std::string::npos)
                    continue;
                const std::string range =
                    trim(s.substr(colon + 1, close - 2 - colon));
                std::smatch tail;
                static const std::regex lastIdent(
                    R"(([A-Za-z_]\w*)$)");
                if (!std::regex_search(range, tail, lastIdent))
                    continue;
                if (unit.unorderedNames.count(tail[1].str()))
                    report(*f,
                           lineAt(*f, static_cast<std::size_t>(
                                          it->position(0))),
                           "det-unordered-iter",
                           "range-for over unordered container '" +
                               tail[1].str() +
                               "'; iteration order is hash-dependent — "
                               "use std::map / a sorted vector when the "
                               "order can reach stats, output, or "
                               "decisions");
            }
            for (auto it = std::sregex_iterator(s.begin(), s.end(),
                                                beginCall);
                 it != std::sregex_iterator(); ++it) {
                if (unit.unorderedNames.count((*it)[1].str()))
                    report(*f,
                           lineAt(*f, static_cast<std::size_t>(
                                          it->position(0))),
                           "det-unordered-iter",
                           "iterator over unordered container '" +
                               (*it)[1].str() +
                               "'; iteration order is hash-dependent");
            }
        }
    }

    void
    detWallClock(SourceFile &f)
    {
        static const std::regex wallClock(
            R"(std::time\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)|system_clock|utc_clock|gettimeofday|clock_gettime|\blocaltime\s*\()");
        scanLines(f, wallClock, "det-wall-clock",
                  "wall-clock read outside the sanctioned seam; route "
                  "through obs::wallClockSeconds() so SOURCE_DATE_EPOCH "
                  "keeps runs byte-identical");
    }

    void
    detMonotonicClock(SourceFile &f)
    {
        const auto &seams = config.monotonicSeamFiles;
        if (std::find(seams.begin(), seams.end(), f.rel) != seams.end())
            return;
        static const std::regex monoClock(
            R"(steady_clock|high_resolution_clock)");
        scanLines(f, monoClock, "det-monotonic-clock",
                  "monotonic-clock read outside the sanctioned seams; "
                  "route through obs::monotonicSeconds() so "
                  "SOURCE_DATE_EPOCH pins wall metrics to zero and "
                  "seeded outputs stay byte-identical across --jobs");
    }

    void
    detRandom(SourceFile &f)
    {
        static const std::regex ambientRandom(
            R"(std::rand\b|\bsrand\s*\(|\brand\s*\(\s*\)|random_device|default_random_engine)");
        scanLines(f, ambientRandom, "det-random",
                  "ambient randomness; all stochastic behaviour must "
                  "flow through the seeded rrm::Random seam");
    }

    void
    detPointerKey(SourceFile &f)
    {
        static const std::regex ptrKey(
            R"(\b(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*|\bhash\s*<\s*[\w:]+\s*\*\s*>)");
        scanLines(f, ptrKey, "det-pointer-key",
                  "container keyed/ordered by pointer value; addresses "
                  "vary run to run — key by a stable id instead");
    }

    // ---- stats / trace hygiene --------------------------------------

    void
    statsRegisterOnce(Unit &unit,
                      const std::vector<StatRegistration> &regs)
    {
        static const std::map<std::string, std::string> kindToAdd{
            {"Scalar", "Scalar"},
            {"VectorStat", "Vector"},
            {"Formula", "Formula"},
            {"DistributionStat", "Distribution"},
            {"HistogramStat", "Histogram"}};
        for (const auto &[name, kind] : unit.statMembers) {
            std::vector<const StatRegistration *> mine;
            for (const StatRegistration &r : regs)
                if (r.member == name)
                    mine.push_back(&r);
            if (mine.empty()) {
                // Anchor at the declaration.
                reportAtDecl(unit, name,
                             "stat member '" + name +
                                 "' is declared but never registered "
                                 "with its StatGroup");
                continue;
            }
            for (std::size_t i = 1; i < mine.size(); ++i)
                report(*mine[i]->file, mine[i]->line,
                       "stats-register-once",
                       "stat member '" + name + "' registered " +
                           std::to_string(mine.size()) +
                           " times; must be exactly once");
            const std::string &want = kindToAdd.at(kind);
            for (const StatRegistration *r : mine)
                if (r->addKind != want)
                    report(*r->file, r->line, "stats-register-once",
                           "stat member '" + name + "' is a stats::" +
                               kind + " but is registered via add" +
                               r->addKind + "()");
        }
    }

    void
    reportAtDecl(Unit &unit, const std::string &name,
                 const std::string &message)
    {
        const std::regex declHere("stats::\\w+\\s*\\*\\s*" + name +
                                  "\\b");
        for (SourceFile *f : unit.files) {
            std::smatch m;
            if (std::regex_search(f->joined, m, declHere)) {
                report(*f,
                       lineAt(*f,
                              static_cast<std::size_t>(m.position(0))),
                       "stats-register-once", message);
                return;
            }
        }
    }

    void
    statsFormulaOperand(Unit &unit)
    {
        static const std::regex addFormulaCall(R"(\baddFormula\s*\()");
        static const std::regex statIdent(R"(\bstat[A-Z]\w*_\b)");
        for (SourceFile *f : unit.files) {
            const std::string &s = f->joined;
            for (auto it = std::sregex_iterator(s.begin(), s.end(),
                                                addFormulaCall);
                 it != std::sregex_iterator(); ++it) {
                const auto open = static_cast<std::size_t>(
                    it->position(0) + it->length(0) - 1);
                const std::size_t close = matchParen(s, open);
                if (close == std::string::npos)
                    continue;
                const std::string body =
                    s.substr(open, close - open);
                for (auto op = std::sregex_iterator(
                         body.begin(), body.end(), statIdent);
                     op != std::sregex_iterator(); ++op) {
                    const std::string name = op->str();
                    if (!unit.statMembers.count(name))
                        report(*f,
                               lineAt(*f,
                                      open + static_cast<std::size_t>(
                                                 op->position(0))),
                               "stats-formula-operand",
                               "formula references '" + name +
                                   "', which is not a stat member "
                                   "declared in this file pair");
                }
            }
        }
    }

    void
    statsTraceCategory(SourceFile &f)
    {
        if (f.rel == config.traceDeclFile)
            return;
        static const std::regex traceCall(R"(\bRRM_TRACE\s*\()");
        static const std::regex categoryArg(
            R"(^(?:::)?(?:rrm::)?(?:obs::)?TraceCategory::(\w+)$)");
        const std::string &s = f.joined;
        for (auto it =
                 std::sregex_iterator(s.begin(), s.end(), traceCall);
             it != std::sregex_iterator(); ++it) {
            const auto pos = static_cast<std::size_t>(it->position(0));
            const int line = lineAt(f, pos);
            // Skip the macro's own definition in disabled-trace TUs.
            const std::string &codeLine =
                f.code[static_cast<std::size_t>(line - 1)];
            if (trim(codeLine).rfind('#', 0) == 0)
                continue;
            const auto open =
                static_cast<std::size_t>(it->position(0) +
                                         it->length(0) - 1);
            const std::size_t close = matchParen(s, open);
            if (close == std::string::npos)
                continue;
            const auto args = splitArgs(s, open, close);
            if (args.size() < 4)
                continue;
            const std::string cat = trim(args[2].second);
            std::smatch m;
            if (!std::regex_match(cat, m, categoryArg)) {
                report(f, line, "stats-trace-category",
                       "RRM_TRACE category must be a TraceCategory "
                       "enumerator, got '" + cat + "'");
                continue;
            }
            const std::string name = m[1].str();
            const auto &cats = config.traceCategories;
            if (std::find(cats.begin(), cats.end(), name) == cats.end())
                report(f, line, "stats-trace-category",
                       "RRM_TRACE uses undeclared trace category '" +
                           name + "'");
        }
    }

    // ---- units discipline -------------------------------------------

    void
    unitsRawMix(Unit &unit)
    {
        static const std::regex helperNames(
            R"(cyclesToTicks|ticksToCycles|secondsToTicks|ticksToSeconds|tickPer[A-Z]\w*|bytesToTicks)");
        for (SourceFile *f : unit.files) {
            for (std::size_t i = 0; i < f->code.size(); ++i) {
                const std::string &line = f->code[i];
                if (line.empty() ||
                    std::regex_search(line, helperNames))
                    continue;
                const auto ticks =
                    identifierPositions(line, unit.tickNames);
                if (ticks.empty())
                    continue;
                auto others =
                    identifierPositions(line, unit.cycleNames);
                collectByteIdents(line, others);
                if (others.empty())
                    continue;
                if (mixedArithmetic(line, ticks, others))
                    report(*f, static_cast<int>(i + 1),
                           "units-raw-mix",
                           "raw arithmetic mixes a Tick quantity with "
                           "a Cycles/byte quantity; use a named "
                           "conversion helper from common/units.hh");
            }
        }
    }

    static std::vector<std::pair<std::size_t, std::size_t>>
    identifierPositions(const std::string &line,
                        const std::set<std::string> &names)
    {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        static const std::regex ident(R"([A-Za-z_]\w*)");
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            ident);
             it != std::sregex_iterator(); ++it)
            if (names.count(it->str()))
                out.emplace_back(static_cast<std::size_t>(
                                     it->position(0)),
                                 static_cast<std::size_t>(
                                     it->position(0) + it->length(0)));
        return out;
    }

    static void
    collectByteIdents(
        const std::string &line,
        std::vector<std::pair<std::size_t, std::size_t>> &out)
    {
        static const std::regex byteIdent(
            R"(\b[A-Za-z_]\w*[Bb]ytes_?\b)");
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            byteIdent);
             it != std::sregex_iterator(); ++it)
            out.emplace_back(static_cast<std::size_t>(it->position(0)),
                             static_cast<std::size_t>(it->position(0) +
                                                      it->length(0)));
    }

    /** True when some tick identifier and some other-unit identifier
     *  are joined by +,-,*,/ with only member access / whitespace /
     *  casts between them. */
    static bool
    mixedArithmetic(
        const std::string &line,
        const std::vector<std::pair<std::size_t, std::size_t>> &ticks,
        const std::vector<std::pair<std::size_t, std::size_t>> &others)
    {
        static const std::regex joiner(
            R"(^[\w\s_.\[\]()>-]*?[+\-*/][\w\s_.\[\]()<>:-]*$)");
        for (const auto &[tb, te] : ticks) {
            for (const auto &[ob, oe] : others) {
                if (te <= ob) {
                    if (std::regex_match(line.substr(te, ob - te),
                                         joiner))
                        return true;
                } else if (oe <= tb) {
                    if (std::regex_match(line.substr(oe, tb - oe),
                                         joiner))
                        return true;
                }
            }
        }
        return false;
    }

    // ---- layering ---------------------------------------------------

    void
    layerUpwardInclude(SourceFile &f)
    {
        if (f.rel.rfind("src/", 0) != 0)
            return;
        const std::string rest = f.rel.substr(4);
        const auto slash = rest.find('/');
        if (slash == std::string::npos)
            return;
        const std::string module = rest.substr(0, slash);
        const auto &order = config.layerOrder;
        const auto self =
            std::find(order.begin(), order.end(), module);
        if (self == order.end())
            return;
        static const std::regex includeLine(
            R"(#\s*include\s*\"([\w./-]+)\")");
        for (std::size_t i = 0; i < f.code.size(); ++i) {
            std::smatch m;
            if (!std::regex_search(f.code[i], m, includeLine))
                continue;
            const std::string inc = m[1].str();
            const auto incSlash = inc.find('/');
            if (incSlash == std::string::npos)
                continue;
            const std::string incModule = inc.substr(0, incSlash);
            const auto target =
                std::find(order.begin(), order.end(), incModule);
            if (target != order.end() && target > self)
                report(f, static_cast<int>(i + 1),
                       "layer-upward-include",
                       "src/" + module + " includes \"" + inc +
                           "\" from the higher layer src/" + incModule +
                           "; dependencies must point downward");
        }
    }

    void
    layerSchemeDispatch(SourceFile &f)
    {
        const auto &allowed = config.schemeFactoryFiles;
        if (std::find(allowed.begin(), allowed.end(), f.rel) !=
            allowed.end())
            return;
        static const std::regex dispatch(R"(\bSchemeKind\s*::)");
        scanLines(f, dispatch, "layer-scheme-dispatch",
                  "SchemeKind dispatch outside the policy factory "
                  "(src/system/scheme.cc); branch on the WritePolicy "
                  "interface instead");
    }

    // ---- performance ------------------------------------------------

    void
    perfHotStdFunction(SourceFile &f)
    {
        const auto &dirs = config.hotPathDirs;
        const bool hot =
            std::any_of(dirs.begin(), dirs.end(),
                        [&](const std::string &d) {
                            return f.rel.rfind(d, 0) == 0;
                        });
        if (!hot)
            return;
        const auto &seams = config.hotPathSeamFiles;
        if (std::find(seams.begin(), seams.end(), f.rel) != seams.end())
            return;
        static const std::regex stdFunction(R"(\bstd\s*::\s*function\s*<)");
        scanLines(f, stdFunction, "perf-hot-std-function",
                  "std::function on the scheduling/memory hot path; it "
                  "heap-allocates captures and indirects every call — "
                  "use rrm::InlineFunction (sim/callback.hh) or a "
                  "concrete member-function target");
    }

    // ---- shared -----------------------------------------------------

    void
    scanLines(SourceFile &f, const std::regex &pattern,
              const std::string &rule, const std::string &message)
    {
        for (std::size_t i = 0; i < f.code.size(); ++i)
            if (std::regex_search(f.code[i], pattern))
                report(f, static_cast<int>(i + 1), rule, message);
    }
};

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

} // namespace

// ------------------------------------------------------------- public

Config
defaultConfig()
{
    Config c;
    c.layerOrder = {"common", "ckpt",    "stats", "sim",
                    "obs",    "pcm",     "trace", "cache",
                    "cpu",    "memctrl", "rrm",   "policy",
                    "fault",  "system",  "run"};
    c.traceCategories = {"RrmLifecycle", "Refresh", "Queue", "Sampler",
                         "Fault"};
    c.schemeFactoryFiles = {"src/system/scheme.hh",
                            "src/system/scheme.cc"};
    c.monotonicSeamFiles = {"src/obs/profiler.hh",
                            "src/obs/run_record.cc"};
    c.hotPathDirs = {"src/sim/", "src/memctrl/"};
    c.hotPathSeamFiles = {"src/sim/callback.hh"};
    return c;
}

void
loadTraceCategories(const std::string &root, Config &config)
{
    std::ifstream in(fs::path(root) / config.traceDeclFile);
    if (!in)
        return;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    const auto enumPos = content.find("enum class TraceCategory");
    if (enumPos == std::string::npos)
        return;
    const auto open = content.find('{', enumPos);
    const auto close = content.find('}', open);
    if (open == std::string::npos || close == std::string::npos)
        return;
    SourceFile body;
    stripSource(content.substr(open + 1, close - open - 1), body);
    std::vector<std::string> cats;
    static const std::regex enumerator(R"(([A-Za-z_]\w*)\s*(?:=[^,]*)?(?:,|$))");
    const std::string &s = body.joined;
    for (auto it = std::sregex_iterator(s.begin(), s.end(), enumerator);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (name != "NumCategories")
            cats.push_back(name);
    }
    if (!cats.empty())
        config.traceCategories = std::move(cats);
}

const std::map<std::string, std::string> &
ruleCatalog()
{
    static const std::map<std::string, std::string> catalog{
        {"det-unordered-iter",
         "no iteration over unordered containers whose order can reach "
         "stats, output, or decisions"},
        {"det-wall-clock",
         "no wall-clock reads outside obs::wallClockSeconds()"},
        {"det-monotonic-clock",
         "no steady/high-resolution clock reads outside "
         "obs::monotonicSeconds() and the self-profiler"},
        {"det-random",
         "no std::rand/random_device; use the seeded rrm::Random"},
        {"det-pointer-key",
         "no containers keyed or ordered by raw pointer values"},
        {"stats-register-once",
         "every stats::* member declared in a header is registered "
         "exactly once, with the matching add*() kind"},
        {"stats-formula-operand",
         "formulas only reference stat members declared in the same "
         "file pair"},
        {"stats-trace-category",
         "RRM_TRACE calls use a declared TraceCategory enumerator"},
        {"units-raw-mix",
         "no raw arithmetic mixing Tick with Cycles/byte quantities; "
         "use named helpers from common/units.hh"},
        {"perf-hot-std-function",
         "no std::function in src/sim or src/memctrl; hot-path "
         "callbacks use rrm::InlineFunction"},
        {"layer-upward-include",
         "src/ modules only include lower layers (common < ckpt < "
         "stats < sim < obs < pcm < trace < cache < cpu < memctrl < "
         "rrm < policy < fault < system < run)"},
        {"layer-scheme-dispatch",
         "SchemeKind is only named inside the policy factory"},
        {"lint-missing-reason",
         "rrm-lint: allow(...) directives must carry a justification"},
        {"lint-unknown-rule",
         "rrm-lint: allow(...) directives must name known rules"},
    };
    return catalog;
}

std::vector<Diagnostic>
lintFiles(const std::string &root, const std::vector<std::string> &files,
          const Config &config)
{
    // Load and preprocess every file.
    std::vector<std::unique_ptr<SourceFile>> sources;
    for (const std::string &rel : files) {
        std::ifstream in(fs::path(root) / rel);
        if (!in)
            continue;
        std::stringstream buf;
        buf << in.rdbuf();
        auto sf = std::make_unique<SourceFile>();
        sf->rel = rel;
        stripSource(buf.str(), *sf);
        parseAllowDirectives(*sf);
        sources.push_back(std::move(sf));
    }

    // Pair x.hh with x.cc (and x.hpp with x.cpp) from the same
    // directory into one analysis unit.
    std::map<std::string, Unit> units;
    for (auto &sf : sources) {
        fs::path p(sf->rel);
        units[(p.parent_path() / p.stem()).string()].files.push_back(
            sf.get());
    }

    Engine engine{config, {}};
    for (auto &[stem, unit] : units) {
        std::vector<StatRegistration> regs;
        buildSymbols(unit, regs);
        engine.detUnorderedIter(unit);
        engine.statsRegisterOnce(unit, regs);
        engine.statsFormulaOperand(unit);
        engine.unitsRawMix(unit);
        for (SourceFile *f : unit.files) {
            engine.checkDirectives(*f);
            engine.detWallClock(*f);
            engine.detMonotonicClock(*f);
            engine.detRandom(*f);
            engine.detPointerKey(*f);
            engine.perfHotStdFunction(*f);
            engine.statsTraceCategory(*f);
            engine.layerUpwardInclude(*f);
            engine.layerSchemeDispatch(*f);
        }
    }

    std::sort(engine.diags.begin(), engine.diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return std::move(engine.diags);
}

std::vector<Diagnostic>
lintTree(const std::string &root, const Config &config)
{
    std::vector<std::string> files;
    for (const std::string &dir : config.scanDirs) {
        const fs::path base = fs::path(root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file() ||
                !lintableExtension(entry.path()))
                continue;
            files.push_back(
                fs::relative(entry.path(), root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    return lintFiles(root, files, config);
}

Summary
summarize(const std::vector<Diagnostic> &diags)
{
    Summary s;
    s.total = diags.size();
    for (const Diagnostic &d : diags)
        (d.suppressed ? s.suppressed : s.unsuppressed) += 1;
    return s;
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::string out = d.file + ":" + std::to_string(d.line) +
                      ": error[" + d.rule + "]: " + d.message;
    if (d.suppressed)
        out += " [suppressed: " + d.suppressReason + "]";
    return out;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
diagnosticsToJson(const std::vector<Diagnostic> &diags)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        out += "  {\"file\": \"" + jsonEscape(d.file) +
               "\", \"line\": " + std::to_string(d.line) +
               ", \"rule\": \"" + jsonEscape(d.rule) +
               "\", \"suppressed\": " +
               (d.suppressed ? "true" : "false") +
               ", \"reason\": \"" + jsonEscape(d.suppressReason) +
               "\", \"message\": \"" + jsonEscape(d.message) + "\"}";
        out += i + 1 < diags.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

} // namespace rrm::lint
