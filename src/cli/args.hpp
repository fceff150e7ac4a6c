/**
 * @file
 * What the `chaos` subcommands share across translation units: the
 * parsed flags with their checked numeric accessor, and a few helpers.
 * cli.cpp holds the dispatcher and the serving composition root;
 * wire_clients.cpp holds the wire-protocol clients (loadgen, top).
 */
#ifndef CHAOS_CLI_ARGS_HPP
#define CHAOS_CLI_ARGS_HPP

#include <cctype>
#include <cmath>
#include <iosfwd>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/dataset.hpp"
#include "util/result.hpp"

namespace chaos::cli {

/** Parsed flags: positionals plus --key value pairs. */
struct ParsedArgs
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    std::string flagOr(const std::string &key,
                       const std::string &fallback) const
    {
        const auto it = flags.find(key);
        return it != flags.end() ? it->second : fallback;
    }

    bool has(const std::string &key) const
    {
        return flags.count(key) != 0;
    }

    /** True for a `--key 1` or `--key true` switch. */
    bool enabled(const std::string &key) const
    {
        const std::string value = flagOr(key, "0");
        return value == "1" || value == "true";
    }

    /**
     * --key as a number of type T, or @p fallback when absent. The
     * whole value must parse as a non-negative number that fits T;
     * anything else ("abc", "-5", "10x", an overflow) raises
     * RecoverableError naming the flag.
     */
    template <typename T>
    T number(const std::string &key, T fallback) const
    {
        const auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        const std::string &text = it->second;
        constexpr bool real = std::is_floating_point_v<T>;
        // std::sto* would skip whitespace and wrap a leading '-'.
        bool ok = !text.empty() &&
                  (std::isdigit(static_cast<unsigned char>(text[0])) ||
                   (real && text[0] == '.'));
        std::size_t used = 0;
        T value{};
        try {
            if constexpr (real) {
                const double v = std::stod(text, &used);
                ok = ok && std::isfinite(v);
                value = static_cast<T>(v);
            } else {
                const unsigned long long v = std::stoull(text, &used);
                ok = ok && v <= static_cast<unsigned long long>(
                                    std::numeric_limits<T>::max());
                value = static_cast<T>(v);
            }
        } catch (const std::logic_error &) {
            ok = false; // invalid_argument or out_of_range.
        }
        raiseIf(!ok || used != text.size(),
                "--" + key + " expects a non-negative number, got '" +
                    text + "'");
        return value;
    }
};

/** Write @p content to @p path, raising RecoverableError on failure. */
void writeTextFile(const std::string &path, const std::string &content);

/**
 * Print @p command's `chaos help` entries (the line naming it plus
 * its indented continuation lines) as a usage error. @return 2.
 */
int usageError(const std::string &command, std::ostream &err);

/**
 * @p data with the --inject-stuck "id;id" machines' counter vectors
 * passed through a stuck-counter DriftStorm from tick --inject-at on
 * (--inject-stagger ticks apart), or an unchanged copy without the
 * flag. Metered power stays true — that divergence is what the
 * monitor detects.
 */
Dataset withInjectedFaults(const ParsedArgs &args, const Dataset &data);

/** `chaos loadgen`: drive an ingest server over the wire protocol. */
int cmdLoadgen(const ParsedArgs &args, std::ostream &out,
               std::ostream &err);

/** `chaos top`: live introspection of a `chaos serve --listen`. */
int cmdTop(const ParsedArgs &args, std::ostream &out, std::ostream &err);

} // namespace chaos::cli

#endif // CHAOS_CLI_ARGS_HPP
