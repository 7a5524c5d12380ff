/**
 * @file
 * The README knob table cannot drift from the code: every "EVRSIM_*"
 * string literal in src/ and bench/ (the knobs binaries read, plus the
 * retired ones they reject) must have a row in README.md's knob table,
 * and every row must name a knob the code still mentions.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace {

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Every quoted "EVRSIM_*" literal in the C++ files under @p dir. */
std::set<std::string>
knobLiterals(const std::filesystem::path &dir)
{
    static const std::regex literal("\"(EVRSIM_[A-Z_0-9]+)\"");
    std::set<std::string> out;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        std::string ext = entry.path().extension().string();
        if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp"))
            continue;
        std::string text = slurp(entry.path());
        for (std::sregex_iterator it(text.begin(), text.end(), literal), end;
             it != end; ++it)
            out.insert((*it)[1].str());
    }
    return out;
}

/** The knob named by each README table row: "| `EVRSIM_X=..` | ..". */
std::set<std::string>
readmeRows(const std::filesystem::path &readme)
{
    static const std::regex row("^\\| `(EVRSIM_[A-Z_0-9]+)");
    std::set<std::string> out;
    std::istringstream in(slurp(readme));
    std::string line;
    std::smatch m;
    while (std::getline(in, line))
        if (std::regex_search(line, m, row))
            out.insert(m[1].str());
    return out;
}

std::string
join(const std::set<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += " " + n;
    return out;
}

TEST(KnobTable, ReadmeRowsMatchTheKnobsInTheCode)
{
    const std::filesystem::path root(EVRSIM_SOURCE_DIR);
    std::set<std::string> code = knobLiterals(root / "src");
    for (const std::string &k : knobLiterals(root / "bench"))
        code.insert(k);
    std::set<std::string> rows = readmeRows(root / "README.md");
    ASSERT_FALSE(code.empty());
    ASSERT_FALSE(rows.empty());

    std::set<std::string> undocumented, stale;
    for (const std::string &k : code)
        if (!rows.count(k))
            undocumented.insert(k);
    for (const std::string &k : rows)
        if (!code.count(k))
            stale.insert(k);
    EXPECT_TRUE(undocumented.empty())
        << "knobs without a README row:" << join(undocumented);
    EXPECT_TRUE(stale.empty())
        << "README rows for knobs the code no longer names:" << join(stale);
}

} // namespace
