/**
 * @file
 * Host-speed calibration. The host this benchmark was defined on (a
 * 4-vCPU Xeon VM) drifts in speed by 10-20% within seconds, whatever
 * runs on it. A fixed kernel, none of it simulator code, is timed
 * between the benchmark's calls into the simulator, and host times
 * are scaled by it to a reference speed.
 *
 * The kernel mixes four parts of about equal length, because each
 * workload slows with a different one. In 100-150 s of alternating a
 * fixed unit of simulator work with the parts on one CPU (4-vCPU Xeon
 * VM, 1 s blocks), unit time correlated with the sum 0.88 (kv serving),
 * 0.93 (Fig. 8 runtime) and 0.93 (check), and unit / kernel time varied
 * 0.036, 0.029 and 0.034 (coefficient of variation) against 0.068,
 * 0.073 and 0.074 for unit time alone. The random-access table part
 * alone correlated 0.51 with kv serving.
 *
 * The kernel runs in a child process (this binary with --calibrate)
 * that serves one sample per request over a pipe, so its memory never
 * shows in the workload's peak RSS and its allocations never touch
 * the workload's heap. The child inherits the benchmark's CPU binding
 * and is moved along with it (HostSpeed::moveTo).
 */

#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <vector>

#include "harness.hh"

extern char** environ;

namespace perfbench
{

/** Keeps the kernel's loops from being optimized away. */
volatile std::uint64_t calibrationSink = 0;

double
calibrationKernel()
{
    const Clock::time_point t0 = Clock::now();
    std::uint64_t r = 7, acc = 0;
    // Random read-modify-writes over a 4 MiB table: memory latency.
    std::vector<std::uint64_t> table(std::size_t{1} << 19);
    for (int i = 0; i < 375000; ++i) {
        r = mixSeed(r);
        std::uint64_t& e = table[r & (table.size() - 1)];
        acc += e;
        e = (e ^ r) + static_cast<std::uint64_t>(i);
    }
    // Ordered-map churn over 8192 keys: tree walks and allocation.
    std::map<std::uint32_t, std::uint32_t> tree;
    for (int i = 0; i < 60000; ++i) {
        r = mixSeed(r);
        const auto k = static_cast<std::uint32_t>(r % 8192);
        switch (r >> 62) {
        case 0:
            tree[k] += static_cast<std::uint32_t>(r);
            break;
        case 1:
            tree.erase(k);
            break;
        case 2: {
            const auto it = tree.lower_bound(k);
            if (it != tree.end())
                acc += it->second;
            break;
        }
        default:
            acc ^= tree.count(k);
        }
    }
    // Sorting random keys: unpredictable branches.
    std::vector<std::uint32_t> keys(1024);
    for (int j = 0; j < 100; ++j) {
        for (std::uint32_t& x : keys) {
            r = mixSeed(r);
            x = static_cast<std::uint32_t>(r);
        }
        std::sort(keys.begin(), keys.end());
        acc += keys[static_cast<std::size_t>(j)];
    }
    // Hash-map churn over 16384 keys: hashing and pointer chasing.
    std::unordered_map<std::uint64_t, std::uint64_t> hash;
    for (int i = 0; i < 150000; ++i) {
        r = mixSeed(r);
        const std::uint64_t k = r % 16384;
        if (r >> 63) {
            hash[k] += r;
        } else if (const auto it = hash.find(k); it != hash.end()) {
            acc += it->second;
            if ((r >> 60) & 1)
                hash.erase(it);
        }
    }
    calibrationSink = acc;
    return secondsSince(t0);
}

int
calibrationServer()
{
    // Keep the heap from moving between samples: no per-sample mmap of
    // the table, no trimming after it is freed.
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    calibrationKernel(); // warm-up: faults the heap in
    char req;
    while (read(0, &req, 1) == 1) {
        std::printf("%.9f\n", calibrationKernel());
        std::fflush(stdout);
    }
    return 0;
}

namespace
{

bool
pin(pid_t pid, int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(pid, sizeof set, &set) == 0;
}

} // namespace

int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    return cpu >= 0 && pin(0, cpu) ? cpu : -1;
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

void
HostSpeed::moveTo(int cpu)
{
    pin(0, cpu);
    if (pid_ > 0)
        pin(pid_, cpu);
}

HostSpeed::~HostSpeed()
{
    if (pid_ <= 0)
        return;
    close(toChild_); // the child exits at end of input
    close(fromChild_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
}

bool
HostSpeed::start()
{
    int in[2], out[2];
    if (pipe(in) != 0)
        return false;
    if (pipe(out) != 0) {
        close(in[0]);
        close(in[1]);
        return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    for (int fd : {in[0], in[1], out[0], out[1]})
        posix_spawn_file_actions_addclose(&fa, fd);
    char self[] = "/proc/self/exe";
    char flag[] = "--calibrate";
    char* argv[] = {self, flag, nullptr};
    const int rc = posix_spawn(&pid_, self, &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(in[0]);
    close(out[1]);
    toChild_ = in[1];
    fromChild_ = out[0];
    if (rc != 0) {
        pid_ = 0;
        close(toChild_);
        close(fromChild_);
        return false;
    }
    // A child that died must not kill this process on the next write.
    signal(SIGPIPE, SIG_IGN);
    return sample();
}

bool
HostSpeed::sample()
{
    sinceSample_ = 0;
    char buf[64] = {};
    std::size_t got = 0;
    bool ok = pid_ > 0 && write(toChild_, "s", 1) == 1;
    while (ok && got + 1 < sizeof buf) {
        const ssize_t n = read(fromChild_, buf + got, sizeof buf - 1 - got);
        if (n <= 0) {
            ok = false;
            break;
        }
        got += static_cast<std::size_t>(n);
        if (buf[got - 1] == '\n')
            break;
    }
    const double s = ok ? std::strtod(buf, nullptr) : 0;
    if (s <= 0) {
        failed_ = true;
        return false;
    }
    samples_.push_back(s);
    last_ = s;
    return true;
}

double
HostSpeed::scale(double rawS)
{
    const double scaled = rawS * kNominalS / last_;
    sinceSample_ += rawS;
    if (sinceSample_ >= kSampleIntervalS)
        sample();
    return scaled;
}

} // namespace perfbench
