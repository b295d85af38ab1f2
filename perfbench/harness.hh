/**
 * @file
 * Shared pieces of the simulator benchmark: the span tracer, the
 * simulated-identity digest, seed derivation and the per-pass record
 * every workload returns.
 *
 * The benchmark drives the simulator only through its public entry
 * points. Spans are recorded here, around those calls; nothing inside
 * the program is instrumented.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: derives independent seeds from the benchmark's seed. */
inline std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One recorded span: a call into a layer, timed on the host. */
struct Span
{
    std::string name;
    /** Identifier of the unit of work: a proxy name, a kv
     *  "seed/mode" cell, or a schedule or program seed. */
    std::string unit;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
};

/**
 * In-memory span recorder. Spans nest by call order (the benchmark is
 * single-threaded); they are written out only at exit.
 */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    int open(std::string name, std::string unit);
    void close(int idx);

    std::size_t size() const { return spans_.size(); }

    /** Self time (duration minus the time child spans cover), in
     *  milliseconds, summed per span name over spans [from, size()). */
    std::map<std::string, double> selfMs(std::size_t from) const;

    /** Writes every span as Chrome trace-event JSON. */
    bool writeJson(const std::string& path) const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span for its lifetime when a tracer is given. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* t, std::string name, std::string unit)
        : t_(t), idx_(t ? t->open(std::move(name), std::move(unit)) : -1)
    {}
    ~ScopedSpan()
    {
        if (t_)
            t_->close(idx_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* t_;
    int idx_;
};

/**
 * Scales host time to a reference speed (calibrate.cc). The host's
 * speed drifts within a second, so the calibration kernel is sampled
 * between timed calls, once per kSampleIntervalS of timed work, and
 * each call's seconds are scaled by the latest sample.
 */
class HostSpeed
{
  public:
    /** Calibration kernel seconds at the reference speed: about its
     *  duration on the 4-vCPU Xeon VM the benchmark was defined on. */
    static constexpr double kNominalS = 0.025;
    static constexpr double kSampleIntervalS = 0.2;

    HostSpeed() = default;
    /** Stops the calibration child and waits for it. */
    ~HostSpeed();
    HostSpeed(const HostSpeed&) = delete;
    HostSpeed& operator=(const HostSpeed&) = delete;

    /** Starts the calibration child and takes a first sample; false
     *  when either fails. */
    bool start();

    /** Takes a sample now; false when the kernel could not run. */
    bool sample();

    /** Binds this process and the calibration child to @p cpu. */
    void moveTo(int cpu);

    /** @p rawS at the reference speed; takes a sample when one is
     *  due. */
    double scale(double rawS);

    /** How much slower than the reference the latest sample ran. */
    double slowdown() const { return last_ / kNominalS; }

    const std::vector<double>& samples() const { return samples_; }
    bool failed() const { return failed_; }

  private:
    int pid_ = 0;
    int toChild_ = -1, fromChild_ = -1;
    std::vector<double> samples_;
    double last_ = kNominalS;
    double sinceSample_ = 0;
    bool failed_ = false;
};

/** The HostSpeed timed() scales by; null adds raw seconds. */
inline HostSpeed* activeHostSpeed = nullptr;

/**
 * Calls @p fn, adds its host duration (scaled by activeHostSpeed when
 * one is set) to @p accSeconds, and records a span named @p name for
 * @p unit when @p t is non-null.
 */
template <class Fn>
auto
timed(Tracer* t, const char* name, const std::string& unit,
      double& accSeconds, Fn&& fn)
{
    ScopedSpan span(t, name, unit);
    const Clock::time_point t0 = Clock::now();
    auto result = fn();
    const double s = secondsSince(t0);
    accSeconds += activeHostSpeed ? activeHostSpeed->scale(s) : s;
    return result;
}

/** FNV-1a over 64-bit words: the simulated-identity digest. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    /** Hashes every byte of a padding-free counter struct, so a
     *  counter added to it later is covered without edits here. */
    template <class T>
    void
    addStruct(const T& s)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "digest needs a padding-free counter struct");
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &s, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** A per-layer number, with the base of a ratio or a per-unit cost. */
struct LayerValue
{
    double value = 0;
    std::string unit;
    /** "numerator / denominator" for ratios; empty for plain counts. */
    std::string base;
};

/** How a span name maps to its per-layer metrics. */
struct SpanUse
{
    std::string span;
    /** Self-time metric, in ms. */
    std::string msMetric;
    /** Self ns per simulated access; empty when not reported. */
    std::string nsMetric;
    /** Simulated accesses the span's calls performed. */
    double accesses = 0;
};

/** Everything one pass of a workload measured and checked. */
struct PassOut
{
    /** Host-time end-to-end metrics of this pass. */
    std::map<std::string, double> host;
    /** Simulated end-to-end metrics (exactly repeatable). */
    std::map<std::string, double> sim;
    /** Sample counts behind the simulated percentiles. */
    std::map<std::string, std::uint64_t> samples;
    /** Per-layer numbers: counts from the returned structs, and span
     *  self times when the pass was traced. */
    std::map<std::string, LayerValue> layers;
    /** Spans whose self time becomes per-layer metrics when traced. */
    std::vector<SpanUse> spanUses;
    /** Hash of every simulated counter and percentile of the pass. */
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Human-readable lines printed with the result (reference values,
     *  sample counts). */
    std::vector<std::string> notes;
};

/** Counts one failed operation and records why. */
inline void
addFailure(PassOut& p, std::string why)
{
    ++p.failed;
    p.failures.push_back(std::move(why));
}

/** Sizes and seeds every workload derives its inputs from. */
struct Options
{
    std::uint64_t seed = 1;
    /** Derive the seed list from the held-out stream instead. */
    bool heldout = false;
    /** Self-test sizes: a few small units per pass. */
    bool tiny = false;
};

/** One benchmark workload: prepare() builds a pass's inputs (the
 *  set-up phase), run() executes them. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Workload parameters and seed list, as one JSON object. */
    virtual std::string params() const = 0;
    virtual void prepare(Tracer* t) = 0;
    virtual PassOut run(Tracer* t) = 0;
};

std::unique_ptr<Workload> makePaperLoops(const Options& o);
std::unique_ptr<Workload> makeKvHotKeys(const Options& o);
std::unique_ptr<Workload> makeKvScanWrites(const Options& o);
std::unique_ptr<Workload> makeCheckMatrix(const Options& o);

/** Seed of element @p i of the list derived from @p o. */
inline std::uint64_t
listSeed(const Options& o, std::uint64_t salt, std::uint64_t i)
{
    const std::uint64_t stream = o.heldout ? 0x68656c646f7574ull : 0;
    return mixSeed(mixSeed(o.seed ^ stream) + salt * 0x1000003 + i);
}

/** Seconds the host-speed calibration kernel takes (calibrate.cc). */
double calibrationKernel();

/** The calibration child's main loop (this binary, --calibrate): runs
 *  the kernel once per byte read from stdin and prints its seconds. */
int calibrationServer();

/** Binds this process, and the calibration child it spawns, to the
 *  CPU it runs on, and returns that CPU (-1 when it cannot). */
int pinToCurrentCpu();

/** The CPUs this process may run on. */
std::vector<int> allowedCpus();

/** "num / den" text for a ratio's base. */
std::string ratioBase(const char* num, double n, const char* den,
                      double d);

/** n / d, or 0 when d is 0. */
inline double
ratio(double n, double d)
{
    return d == 0 ? 0.0 : n / d;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
