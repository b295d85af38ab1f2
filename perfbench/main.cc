/**
 * @file
 * The simulator benchmark's main program: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--heldout] [--tiny] [--trace-out <file>]
 *             [--git-sha <sha>] [--source-digest <hex>]
 *
 * Untraced (--trace 0) it runs one untimed warm-up pass, then repeats
 * identical passes for the given seconds, timing a batch of set-ups
 * before each, and reports every end-to-end metric: host rates as the
 * median over passes, simulated results from the passes (which must
 * all hash alike). Traced (--trace 1) it alternates untraced and
 * traced passes and reports every per-layer metric plus the tracing
 * overhead. The last stdout line is the result as one JSON object.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <sys/personality.h>
#include <unistd.h>

#include "harness.hh"
#include "metrics.hh"

extern char** environ;

namespace perfbench
{
namespace
{

/** setup_s is the median over batches (at least kMinSetupBatches) of
 *  the mean set-up time in each batch; a batch repeats the set-up for
 *  at least kSetupBatchSeconds, so even a sub-microsecond set-up is
 *  timed well above the clock's resolution. */
constexpr std::size_t kMinSetupBatches = 15;
constexpr double kSetupBatchSeconds = 0.02;

struct Args
{
    std::string workload;
    Options opts;
    double seconds = 10;
    bool trace = false;
    std::string traceOut, gitSha = "unknown", sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper-loops|kv-hot-keys|kv-scan-writes|check-matrix> "
                 "--seed N --seconds S --trace 0|1 [--heldout] [--tiny] "
                 "[--trace-out FILE] [--git-sha SHA] "
                 "[--source-digest HEX]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        auto number = [&](double lo, double hi) {
            const std::string v = value();
            char* end = nullptr;
            const double d = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(d >= lo && d <= hi))
                usage(("bad value for " + k + ": " + v).c_str());
            return d;
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.opts.seed = static_cast<std::uint64_t>(number(0, 1e15));
        else if (k == "--seconds")
            a.seconds = number(0.01, 3600);
        else if (k == "--trace")
            a.trace = number(0, 1) != 0;
        else if (k == "--heldout")
            a.opts.heldout = true;
        else if (k == "--tiny")
            a.opts.tiny = true;
        else if (k == "--trace-out")
            a.traceOut = value();
        else if (k == "--git-sha")
            a.gitSha = value();
        else if (k == "--source-digest")
            a.sourceDigest = value();
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const Options& o)
{
    if (name == "paper-loops")
        return makePaperLoops(o);
    if (name == "kv-hot-keys")
        return makeKvHotKeys(o);
    if (name == "kv-scan-writes")
        return makeKvScanWrites(o);
    if (name == "check-matrix")
        return makeCheckMatrix(o);
    usage(("unknown workload " + name).c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            if (c != std::string::npos && c + 2 <= line.size())
                return line.substr(c + 2);
        }
    return "unknown";
}

/**
 * Peak resident set of this process in KiB (VmHWM). getrusage's
 * ru_maxrss would also count the peak of the process that exec'd us.
 */
double
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    return 0;
}

/** JSON string escaping for the few free-text provenance fields. */
std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

/** The knobs that would change what is measured must be unset. */
bool
environmentClean()
{
    bool clean = true;
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "HMTX_", 5) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         *e);
            clean = false;
        }
    return clean;
}

/** A JSON list of CPU numbers. */
std::string
cpuList(const std::vector<int>& cpus)
{
    std::string out = "[";
    for (std::size_t i = 0; i < cpus.size(); ++i)
        out += (i ? ", " : "") + std::to_string(cpus[i]);
    return out + "]";
}

/** True when address-space layout randomization is off. */
bool
fixedLayout()
{
    const int persona = personality(0xffffffff);
    return persona != -1 && (persona & ADDR_NO_RANDOMIZE);
}

struct Run
{
    /** Set-up batch means, scaled to the reference speed in an
     *  untraced run. */
    std::vector<double> setupS;
    std::vector<PassOut> plain;
    /** The last traced pass: its counts and span uses. */
    PassOut lastTraced;
    std::vector<double> plainWall, tracedWall;
    /** Self time per span name of each traced pass, in ms. */
    std::vector<std::map<std::string, double>> spanMs;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    bool digestsAgree = true;
};

void
absorb(Run& run, const PassOut& p, std::uint64_t refDigest)
{
    run.attempted += p.attempted;
    run.failed += p.failed;
    for (const std::string& f : p.failures)
        if (run.failures.size() < 20)
            run.failures.push_back(f);
    if (p.digest != refDigest)
        run.digestsAgree = false;
}

/** One prepare + run; traced when @p t is set, in which case
 *  @p selfMs receives the pass's self time per span name. The run's
 *  host times are scaled by @p speed when it is given. */
PassOut
onePass(Workload& w, Tracer* t, HostSpeed* speed, double& wall,
        std::map<std::string, double>& selfMs)
{
    const std::size_t from = t ? t->size() : 0;
    const Clock::time_point t0 = Clock::now();
    PassOut p;
    {
        ScopedSpan pass(t, "pass", "");
        w.prepare(t);
        activeHostSpeed = speed;
        p = w.run(t);
        activeHostSpeed = nullptr;
    }
    wall = secondsSince(t0);
    if (t)
        selfMs = t->selfMs(from);
    return p;
}

void
printJsonNumber(std::string& out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += buf;
}

int
benchMain(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    if (!environmentClean())
        return 2;
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    // The calibration kernel tracks the speed of the CPU it runs on,
    // so the run is bound to one CPU at a time and its calibration
    // child follows it.
    const std::vector<int> cpus = allowedCpus();
    const int cpu = pinToCurrentCpu();
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.opts);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.opts.seed),
                args.seconds, args.trace ? 1 : 0,
                args.opts.tiny ? " (tiny self-test sizes)" : "");
    std::printf(
        "provenance {\"git_sha\": %s, \"source_digest\": %s, "
        "\"build_type\": %s, \"compiler\": %s, \"cpu_model\": %s, "
        "\"nproc\": %u, \"cpus\": %s, \"first_cpu\": %d, "
        "\"fixed_layout\": %s, "
        "\"seed\": %llu, \"seed_stream\": %s}\n",
        quoted(args.gitSha).c_str(), quoted(args.sourceDigest).c_str(),
        quoted(PERFBENCH_BUILD_TYPE).c_str(),
        quoted(PERFBENCH_COMPILER).c_str(), quoted(cpuModel()).c_str(),
        std::thread::hardware_concurrency(), cpuList(cpus).c_str(), cpu,
        fixedLayout() ? "true" : "false",
        static_cast<unsigned long long>(args.opts.seed),
        args.opts.heldout ? "\"heldout\"" : "\"main\"");

    // Warm-up: one set-up and one pass, untimed; its digest is the
    // reference every later pass must reproduce.
    Run run;
    w->prepare(nullptr);
    std::printf("params %s\n", w->params().c_str());
    const PassOut ref = w->run(nullptr);
    absorb(run, ref, ref.digest);

    // An untraced run reports host times at the reference speed.
    HostSpeed speed;
    if (!args.trace && !speed.start()) {
        std::fprintf(stderr, "perfbench: calibration failed\n");
        return 1;
    }

    // In an untraced run, iteration k (a set-up batch and a pass) runs
    // on the k-th of the CPUs the run may use, taking the calibration
    // child along: one CPU can stay 20-40% slower at set-up for tens of
    // seconds while the kernel barely moves.
    const bool rotate = !args.trace && cpu >= 0 && cpus.size() > 1;
    auto moveFor = [&](std::size_t k) {
        if (rotate)
            speed.moveTo(cpus[k % cpus.size()]);
    };

    // Set-up batches are spread over the run, one before each pass, so
    // setup_s samples the same host conditions as the passes. In an
    // untraced run, a batch is scaled by the mean slowdown of
    // calibration samples taken just before and just after it.
    std::uint64_t setups = 0;
    auto setupBatch = [&] {
        if (!args.trace)
            speed.sample();
        const double before = speed.slowdown();
        const Clock::time_point t0 = Clock::now();
        std::uint64_t n = 0;
        do {
            w->prepare(nullptr);
            ++n;
        } while (secondsSince(t0) < kSetupBatchSeconds);
        const double mean = secondsSince(t0) / static_cast<double>(n);
        if (!args.trace)
            speed.sample();
        run.setupS.push_back(mean / (0.5 * (before + speed.slowdown())));
        setups += n;
    };

    Tracer tracer;
    const Clock::time_point start = Clock::now();
    for (int k = 0;; ++k) {
        moveFor(static_cast<std::size_t>(k));
        setupBatch();
        const bool traced = args.trace && k % 2 == 1;
        double wall = 0;
        std::map<std::string, double> selfMs;
        PassOut p = onePass(*w, traced ? &tracer : nullptr,
                            args.trace ? nullptr : &speed, wall, selfMs);
        absorb(run, p, ref.digest);
        std::printf("pass %d %s wall_s %.6f digest %016" PRIx64
                    " attempted %" PRIu64 " failed %" PRIu64 "\n",
                    k + 1, traced ? "traced" : "untraced", wall, p.digest,
                    p.attempted, p.failed);
        if (traced) {
            run.lastTraced = std::move(p);
            run.tracedWall.push_back(wall);
            run.spanMs.push_back(std::move(selfMs));
        } else {
            run.plain.push_back(std::move(p));
            run.plainWall.push_back(wall);
        }
        if (speed.failed()) {
            std::fprintf(stderr, "perfbench: calibration failed\n");
            return 1;
        }
        const bool enough = !args.trace || !run.tracedWall.empty();
        if (enough && secondsSince(start) >= args.seconds)
            break;
    }

    while (run.setupS.size() < kMinSetupBatches) {
        moveFor(run.setupS.size());
        setupBatch();
    }
    const double peakRssMb = peakRssKb() / 1024.0;

    for (const std::string& f : run.failures)
        std::printf("FAIL %s\n", f.c_str());
    for (const std::string& n : ref.notes)
        std::printf("note %s\n", n.c_str());
    std::printf("sim_digest %s %016" PRIx64 " (%s across %zu passes)\n",
                args.workload.c_str(), ref.digest,
                run.digestsAgree ? "identical" : "DIFFERS",
                1 + run.plain.size() + run.tracedWall.size());

    std::string json = "{\"correct\": ";
    const bool correct = run.failed == 0 && run.digestsAgree;
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(run.attempted) +
        ", \"failed\": " + std::to_string(run.failed) +
        ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const char* name, double value, const char* unit) {
        json += first ? "\"" : ", \"";
        first = false;
        json += name;
        json += "\": {\"value\": ";
        printJsonNumber(json, value);
        json += ", \"unit\": \"";
        json += unit;
        json += "\"}";
    };

    if (!args.trace) {
        // Host times are scaled to the reference speed, call by call:
        // slowdown is how much longer the calibration kernel took than
        // nominal.
        const std::vector<double>& cal = speed.samples();
        std::printf("calibration %zu samples, median %.6f s (min %.6f max "
                    "%.6f), nominal %.3f s\n",
                    cal.size(), median(cal),
                    *std::min_element(cal.begin(), cal.end()),
                    *std::max_element(cal.begin(), cal.end()),
                    HostSpeed::kNominalS);
        for (const MetricDef& m : kEndToEnd) {
            const std::string name = m.name;
            double v = 0;
            std::string how;
            if (name == "setup_s") {
                v = median(run.setupS);
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "median of %zu batch means over %llu "
                              "set-ups, each / host slowdown around it",
                              run.setupS.size(),
                              static_cast<unsigned long long>(setups));
                how = buf;
            } else if (name == "peak_rss_mb") {
                v = peakRssMb;
                how = "VmHWM of this one-workload process";
            } else if (ref.host.count(name)) {
                std::vector<double> xs;
                for (const PassOut& p : run.plain)
                    xs.push_back(p.host.at(name));
                v = median(xs);
                char buf[192];
                std::snprintf(buf, sizeof buf,
                              "median of %zu passes (min %.6g max %.6g), "
                              "host time scaled call by call",
                              xs.size(),
                              *std::min_element(xs.begin(), xs.end()),
                              *std::max_element(xs.begin(), xs.end()));
                how = buf;
            } else if (ref.sim.count(name)) {
                v = ref.sim.at(name);
                const std::uint64_t n = ref.samples.at(name);
                how = "simulated, " + std::to_string(n) + " samples";
                if (name.rfind("sim_p999", 0) == 0)
                    how += ", " +
                        std::to_string(n - static_cast<std::uint64_t>(
                                               std::ceil(0.999 * n))) +
                        " beyond p999";
            } else {
                // Every result carries every metric; a simulated metric
                // of another workload is reported as the constant 1.
                v = 1;
                how = "n/a on " + args.workload + " (reported as 1)";
            }
            std::printf("metric %s %.10g %s (%s)\n", m.name, v, m.unit,
                        how.c_str());
            emit(m.name, v, m.unit);
        }
    } else {
        const PassOut& last = run.lastTraced;
        std::map<std::string, LayerValue> layers = last.layers;
        // Span self times: median over traced passes.
        for (const SpanUse& u : last.spanUses) {
            std::vector<double> xs;
            for (const auto& self : run.spanMs) {
                const auto it = self.find(u.span);
                xs.push_back(it == self.end() ? 0.0 : it->second);
            }
            const double ms = median(xs);
            layers[u.msMetric] = {ms, "ms", ""};
            if (!u.nsMetric.empty())
                layers[u.nsMetric] = {
                    ratio(ms * 1e6, u.accesses), "ns",
                    ratioBase("self_ns", ms * 1e6, "accesses",
                              u.accesses)};
        }
        const double tw = median(run.tracedWall);
        const double uw = median(run.plainWall);
        layers["trace.overhead_pct"] = {
            100.0 * ratio(tw - uw, uw), "%",
            ratioBase("traced_pass_s-untraced_pass_s", tw - uw,
                      "untraced_pass_s", uw)};
        for (const MetricDef& m : kPerLayer) {
            const auto it = layers.find(m.name);
            if (it == layers.end()) {
                std::printf("layer %s 0 %s (not measured on %s)\n", m.name,
                            m.unit, args.workload.c_str());
                emit(m.name, 0, m.unit);
                continue;
            }
            const LayerValue& lv = it->second;
            std::printf("layer %s %.10g %s%s%s%s\n", m.name, lv.value,
                        m.unit, lv.base.empty() ? "" : " (",
                        lv.base.c_str(), lv.base.empty() ? "" : ")");
            emit(m.name, lv.value, m.unit);
        }
        if (!args.traceOut.empty()) {
            if (tracer.writeJson(args.traceOut))
                std::printf("trace %zu spans written to %s\n",
                            tracer.size(), args.traceOut.c_str());
            else
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             args.traceOut.c_str());
        }
    }
    json += "}}";
    std::printf("result attempted %" PRIu64 " failed %" PRIu64 "\n",
                run.attempted, run.failed);
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--calibrate") == 0)
        return perfbench::calibrationServer();
    // Where code and heap land decides how they share the caches and
    // branch predictors. With a layout randomized per process, host
    // rates of one build moved by up to 17% between runs while the
    // passes within each run agreed, and the calibration kernel did
    // not follow. So the benchmark re-executes itself once with
    // randomization off; when that is refused it runs as it is.
    if (!perfbench::fixedLayout()) {
        const int persona = personality(0xffffffff);
        if (persona != -1 &&
            personality(static_cast<unsigned long>(persona) |
                        ADDR_NO_RANDOMIZE) != -1 &&
            perfbench::fixedLayout())
            execv("/proc/self/exe", argv);
    }
    return perfbench::benchMain(argc, argv);
}
