#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/error.h"

namespace mscclang {

Flags &
Flags::custom(const char *spec, const char *help,
              std::function<void(const std::string &)> apply)
{
    flags_.push_back({ spec, help, std::move(apply) });
    return *this;
}

Flags &
Flags::text(const char *spec, const char *help, std::string *out)
{
    return custom(spec, help,
                  [out](const std::string &text) { *out = text; });
}

Flags &
Flags::real(const char *spec, const char *help, double *out, double min,
            double max)
{
    std::string flag = nameOf(spec);
    return custom(spec, help, [=](const std::string &text) {
        *out = parseReal(flag, text, min, max);
    });
}

Flags &
Flags::bytes(const char *spec, const char *help, std::uint64_t *out)
{
    std::string flag = nameOf(spec);
    return custom(spec, help, [=](const std::string &text) {
        *out = parseBytes(flag, text);
    });
}

Flags &
Flags::counts(const char *spec, const char *help, std::vector<int> *out,
              int min, int max)
{
    std::string flag = nameOf(spec);
    return custom(spec, help, [=](const std::string &text) {
        std::vector<int> list;
        for (const std::string &token : splitString(text, ','))
            list.push_back(
                static_cast<int>(parseCount(flag, token, min, max)));
        *out = std::move(list);
    });
}

Flags &
Flags::choice(const char *spec, const char *help, std::string *out,
              std::vector<std::string> choices)
{
    std::string flag = nameOf(spec), list;
    for (const std::string &choice : choices)
        list += (list.empty() ? "" : " | ") + choice;
    return custom(spec, help, [=](const std::string &text) {
        if (std::find(choices.begin(), choices.end(), text) ==
            choices.end())
            throw BadValue(flag + ": '" + text + "' is not one of " + list);
        *out = text;
    });
}

Flags &
Flags::on(const char *spec, const char *help, bool *out)
{
    return custom(spec, help, [out](const std::string &) { *out = true; });
}

bool
Flags::tryParse(int argc, const char *const *argv)
{
    program_ = argc > 0 ? argv[0] : "";
    program_.erase(0, program_.rfind('/') + 1);
    seen_.clear();
    for (int i = 1; i < argc; i++) {
        std::string name = argv[i];
        if (name == "--help" || name == "-h")
            return false;
        auto flag = std::find_if(
            flags_.begin(), flags_.end(),
            [&](const Flag &f) { return nameOf(f.spec) == name; });
        if (flag == flags_.end())
            throw BadValue("unknown flag '" + name + "'");
        bool takes_value = flag->spec != name;
        if (takes_value && i + 1 >= argc)
            throw BadValue(flag->spec + ": missing value");
        flag->apply(takes_value ? argv[++i] : "");
        seen_.push_back(name);
    }
    return true;
}

void
Flags::parse(int argc, char **argv)
{
    bool proceed = false;
    try {
        proceed = tryParse(argc, argv);
    } catch (const BadValue &error) {
        fail(error.what());
    }
    if (!proceed) {
        std::fputs(usage().c_str(), stderr);
        std::exit(0);
    }
}

int
Flags::run(int argc, char **argv, const std::function<int()> &body)
{
    parse(argc, argv);
    try {
        return body();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}

bool
Flags::seen(const std::string &name) const
{
    return std::find(seen_.begin(), seen_.end(), name) != seen_.end();
}

void
Flags::fail(const std::string &message) const
{
    std::fprintf(stderr, "error: %s\n%s", message.c_str(),
                 usage().c_str());
    std::exit(2);
}

std::string
Flags::usage() const
{
    std::vector<Flag> lines = flags_;
    lines.push_back({ "--help, -h", "print this text and exit", {} });
    size_t width = 0;
    for (const Flag &line : lines)
        width = std::max(width, line.spec.size());
    std::string text = "usage: " + program_ + " " + synopsis_ + "\n";
    for (const Flag &line : lines) {
        std::string help = line.help;
        for (size_t at = help.find('\n'); at != std::string::npos;
             at = help.find('\n', at + 1))
            help.insert(at + 1, width + 4, ' ');
        text += strprintf("  %-*s  %s\n", static_cast<int>(width),
                          line.spec.c_str(), help.c_str());
    }
    return text;
}

void
writeOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path, std::ios::binary);
    if (!(out << text))
        throw Error("cannot write '" + path + "'");
}

} // namespace mscclang
