#include "workloads/alvinn.hh"

namespace hmtx::workloads
{

AlvinnWorkload::AlvinnWorkload() : p_() {}

namespace
{

/** Fixed-point activation: a cheap saturating ramp. */
constexpr std::int64_t
activate(std::int64_t x)
{
    if (x > 4096)
        return 4096;
    if (x < -4096)
        return -4096;
    return x;
}

} // namespace

void
AlvinnWorkload::setup(runtime::Machine& m)
{
    auto& mem = m.sys().memory();
    const unsigned in = p_.inputs, hid = p_.hidden, out = p_.outputs;

    w1_ = m.heap().allocWords(std::size_t{hid} * in);
    w2_ = m.heap().allocWords(std::size_t{out} * hid);
    for (unsigned j = 0; j < hid; ++j)
        for (unsigned k = 0; k < in; ++k)
            mem.write(w1_ + (j * in + k) * 8,
                      (mix64(p_.seed ^ (j * 131 + k)) & 0xff) - 128,
                      8);
    for (unsigned o = 0; o < out; ++o)
        for (unsigned j = 0; j < hid; ++j)
            mem.write(w2_ + (o * hid + j) * 8,
                      (mix64(p_.seed ^ 0x9000 ^ (o * 131 + j)) &
                       0xff) - 128,
                      8);

    patStride_ = in + out; // inputs followed by targets
    patterns_ = m.heap().allocWords(std::size_t{p_.patterns} *
                                    patStride_);
    for (std::uint64_t p = 0; p < p_.patterns; ++p) {
        for (unsigned k = 0; k < in; ++k)
            mem.write(patterns_ + (p * patStride_ + k) * 8,
                      (mix64(p_.seed ^ (p * 977 + k)) & 0x7f), 8);
        for (unsigned o = 0; o < out; ++o)
            mem.write(patterns_ + (p * patStride_ + in + o) * 8,
                      (mix64(p_.seed ^ 0x7777 ^ (p * 977 + o)) &
                       0x3f),
                      8);
    }

    deltaStride_ = out + hid;
    deltas_.init(m, p_.patterns, deltaStride_);

    std::vector<std::uint64_t> payloads(p_.patterns);
    for (std::uint64_t p = 0; p < p_.patterns; ++p)
        payloads[p] = patterns_ + p * patStride_ * 8;
    initWorkList(m, payloads);
}

sim::Task<void>
AlvinnWorkload::stage2(runtime::MemIf& mem, std::uint64_t iter)
{
    const unsigned in = p_.inputs, hid = p_.hidden, out = p_.outputs;
    Addr pat = co_await fetchWork(mem, iter);

    // Forward pass: hidden layer.
    std::vector<std::int64_t> h(hid);
    for (unsigned j = 0; j < hid; ++j) {
        std::int64_t sum = 0;
        for (unsigned k = 0; k < in; ++k) {
            std::int64_t w = static_cast<std::int64_t>(
                co_await mem.load(w1_ + (j * in + k) * 8));
            std::int64_t x = static_cast<std::int64_t>(
                co_await mem.load(pat + k * 8));
            sum += static_cast<std::int64_t>(
                       static_cast<std::int32_t>(w)) *
                static_cast<std::int64_t>(
                       static_cast<std::int32_t>(x));
            if (k % 8 == 7)
                co_await mem.compute(2);
        }
        h[j] = activate(sum >> 6);
        // Activation-nonzero check: essentially always taken, so
        // alvinn's regular loops predict near-perfectly (0.245% in
        // Table 1).
        co_await mem.branch(0x300, sum != 0);
    }

    // Forward pass: output layer, plus error against the target.
    for (unsigned o = 0; o < out; ++o) {
        std::int64_t sum = 0;
        for (unsigned j = 0; j < hid; ++j) {
            std::int64_t w = static_cast<std::int64_t>(
                co_await mem.load(w2_ + (o * hid + j) * 8));
            sum += static_cast<std::int64_t>(
                       static_cast<std::int32_t>(w)) *
                h[j];
        }
        std::int64_t y = activate(sum >> 8);
        std::int64_t t = static_cast<std::int64_t>(
            co_await mem.load(pat + (in + o) * 8));
        std::int64_t err = t - y;
        co_await mem.store(deltas_.at(iter, o),
                           static_cast<std::uint64_t>(err));
        // Always taken. The outcome trains the branch predictor, so
        // flipping it would move Fig. 8's cycle counts.
        co_await mem.branch(0x310, true);
    }

    // Backward pass: per-pattern hidden deltas.
    for (unsigned j = 0; j < hid; ++j) {
        std::int64_t acc = 0;
        for (unsigned o = 0; o < out; ++o) {
            std::int64_t w = static_cast<std::int64_t>(
                co_await mem.load(w2_ + (o * hid + j) * 8));
            acc += static_cast<std::int64_t>(
                       static_cast<std::int32_t>(w)) ^
                h[j];
        }
        co_await mem.store(deltas_.at(iter, out + j),
                           static_cast<std::uint64_t>(acc));
    }
}

std::uint64_t
AlvinnWorkload::checksum(runtime::Machine& m)
{
    std::uint64_t sum = 0;
    for (std::uint64_t p = 0; p < p_.patterns; ++p)
        for (unsigned k = 0; k < deltaStride_; ++k)
            sum = mix64(sum ^ m.sys().memory().read(
                                  deltas_.at(p, k), 8));
    return sum;
}

} // namespace hmtx::workloads
