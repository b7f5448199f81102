/**
 * @file
 * netcrafter-sweep input validation: a bad scale, from the flag or the
 * environment, must stop the tool with exit status 1 before it prints
 * a single row, and the message must name where the value came from.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace netcrafter {
namespace {

struct ToolRun
{
    int status = -1;
    std::string out;
    std::string err;
};

/** Run the sweep tool with @p args under @p env (shell syntax). */
ToolRun
runSweep(const std::string &env, const std::string &args)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "sweep-cli";
    std::filesystem::create_directories(dir);
    const std::string out = (dir / "stdout").string();
    const std::string err = (dir / "stderr").string();
    const std::string cmd = env + " '" NETCRAFTER_SWEEP_BIN "' " + args +
                            " > '" + out + "' 2> '" + err + "'";
    ToolRun run;
    const int raw = std::system(cmd.c_str());
    run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    auto slurp = [](const std::string &path) {
        std::ifstream is(path);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    run.out = slurp(out);
    run.err = slurp(err);
    return run;
}

TEST(SweepCli, BadScaleFlagFailsBeforePrinting)
{
    const ToolRun run = runSweep("NETCRAFTER_QUIET=1", "--scale abc fig09");
    EXPECT_EQ(run.status, 1);
    EXPECT_EQ(run.out, "");
    EXPECT_NE(run.err.find("--scale must be a positive finite number"),
              std::string::npos)
        << run.err;
}

TEST(SweepCli, BadScaleEnvironmentFailsBeforePrinting)
{
    const ToolRun run =
        runSweep("NETCRAFTER_QUIET=1 NETCRAFTER_SCALE=abc", "fig09");
    EXPECT_EQ(run.status, 1);
    EXPECT_EQ(run.out, "");
    EXPECT_NE(run.err.find("NETCRAFTER_SCALE"), std::string::npos)
        << run.err;
}

} // namespace
} // namespace netcrafter
