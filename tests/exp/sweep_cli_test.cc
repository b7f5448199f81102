/**
 * @file
 * CLI input validation: a bad scale for netcrafter-sweep, from the flag
 * or the environment, or a bad --tolerance for validate-fidelity, must
 * stop the tool with exit status 1 before it prints a single row, and
 * the message must name where the value came from.
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

/** Run the tool @p bin with @p args under @p env (shell syntax). */
ToolRun
runTool(const std::string &bin, const std::string &env,
        const std::string &args)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "sweep-cli";
    std::filesystem::create_directories(dir);
    const std::string out = (dir / "stdout").string();
    const std::string err = (dir / "stderr").string();
    const std::string cmd = env + " '" + bin + "' " + args + " > '" +
                            out + "' 2> '" + err + "'";
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

ToolRun
runSweep(const std::string &env, const std::string &args)
{
    return runTool(NETCRAFTER_SWEEP_BIN, env, args);
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

TEST(ValidateFidelityCli, BadToleranceFailsBeforeRunning)
{
    for (const char *bad : {"2x", "abc", "-1", "nan"}) {
        const ToolRun run =
            runTool(NETCRAFTER_VALIDATE_BIN, "NETCRAFTER_QUIET=1",
                    std::string("--quick --tolerance ") + bad +
                        " --out /dev/null");
        EXPECT_EQ(run.status, 1) << bad;
        EXPECT_EQ(run.out, "") << bad;
        EXPECT_NE(run.err.find("--tolerance must be a non-negative "
                               "finite number"),
                  std::string::npos)
            << run.err;
    }
}

} // namespace
} // namespace netcrafter
