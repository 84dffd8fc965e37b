#include "memsys/module.h"

namespace cfva {

MemoryModule::MemoryModule(ModuleId id, Cycle serviceCycles,
                           unsigned inputDepth, unsigned outputDepth)
    : id_(id), serviceCycles_(serviceCycles), inputDepth_(inputDepth),
      outputDepth_(outputDepth)
{
    cfva_assert(serviceCycles >= 1, "T must be >= 1");
    cfva_assert(inputDepth >= 1, "q must be >= 1");
    cfva_assert(outputDepth >= 1, "q' must be >= 1");
    input_.resize(inputDepth_);
    output_.resize(outputDepth_);
}

void
MemoryModule::encodeState(Cycle now, std::size_t next,
                          std::vector<std::int64_t> &sig) const
{
    const auto relC = [now](Cycle c) {
        return static_cast<std::int64_t>(c)
               - static_cast<std::int64_t>(now);
    };
    const auto relP = [next](std::uint32_t pos) {
        return static_cast<std::int64_t>(pos)
               - static_cast<std::int64_t>(next);
    };
    const auto served = [&](const InFlight &f) {
        sig.push_back(relP(f.pos));
        sig.push_back(relC(f.issued));
        sig.push_back(relC(f.arrived));
        sig.push_back(relC(f.serviceStart));
        sig.push_back(relC(f.ready));
    };
    sig.push_back(inCount_);
    for (unsigned i = 0; i < inCount_; ++i) {
        const InFlight &f = input_[wrap(inHead_ + i, inputDepth_)];
        sig.push_back(relP(f.pos));
        sig.push_back(relC(f.issued));
        sig.push_back(relC(f.arrived));
    }
    sig.push_back(busy_ ? 1 : 0);
    if (busy_)
        served(inService_);
    sig.push_back(outCount_);
    for (unsigned i = 0; i < outCount_; ++i)
        served(output_[wrap(outHead_ + i, outputDepth_)]);
}

void
MemoryModule::shift(Cycle cycles, std::uint32_t positions)
{
    const auto move = [&](InFlight &f) {
        f.pos += positions;
        f.issued += cycles;
        f.arrived += cycles;
        f.serviceStart += cycles;
        f.ready += cycles;
    };
    for (unsigned i = 0; i < inCount_; ++i)
        move(input_[wrap(inHead_ + i, inputDepth_)]);
    if (busy_)
        move(inService_);
    for (unsigned i = 0; i < outCount_; ++i)
        move(output_[wrap(outHead_ + i, outputDepth_)]);
}

} // namespace cfva
