/**
 * @file
 * Operation classes and functional-unit resource kinds for the
 * clustered VLIW machine of Aleta et al. (MICRO-36 2003), Table 1.
 */

#ifndef CVLIW_MACHINE_OP_CLASS_HH
#define CVLIW_MACHINE_OP_CLASS_HH

#include <cstdint>

namespace cvliw
{

/**
 * Instruction classes. The paper's Table 1 distinguishes memory
 * operations, integer/fp arithmetic, multiply/abs and divide/sqrt;
 * Copy is the special inter-cluster communication operation of
 * section 2.1.
 */
enum class OpClass : std::uint8_t
{
    IntAlu,   //!< integer ARITH (latency 1)
    IntMul,   //!< integer MUL/ABS (latency 2)
    IntDiv,   //!< integer DIV/SQRT (latency 6)
    FpAlu,    //!< fp ARITH (latency 3)
    FpMul,    //!< fp MUL/ABS (latency 6)
    FpDiv,    //!< fp DIV/SQRT (latency 18)
    Load,     //!< memory read (latency 2)
    Store,    //!< memory write; produces no register value
    Copy,     //!< inter-cluster register copy over a bus
    NumOpClasses
};

/** Hardware resource types an operation can occupy. */
enum class ResourceKind : std::uint8_t
{
    IntFu,    //!< integer functional unit
    FpFu,     //!< floating-point functional unit
    MemPort,  //!< memory port (centralized cache, per-cluster port)
    AnyFu,    //!< universal FU (used by the paper's worked example)
    Bus,      //!< inter-cluster register bus
    NumResourceKinds
};

/** Coarse categories used by Figure 10 (mem / int / fp breakdown). */
enum class OpCategory : std::uint8_t { Mem, Int, Fp, Other };

/** Human-readable mnemonic for @p cls. */
const char *toString(OpClass cls);

/** Human-readable name for @p kind. */
const char *toString(ResourceKind kind);

/** Table-1 latency of @p cls in cycles. */
int defaultLatency(OpClass cls);

/** True when @p cls defines a register value consumable by others.
 *  Header-inline: called once per edge on graph-validation and
 *  register-pressure hot paths. */
constexpr bool
producesValue(OpClass cls)
{
    return cls != OpClass::Store;
}

/** Figure-10 category of @p cls (Copy maps to Other). */
OpCategory categoryOf(OpClass cls);

/** Human-readable name for @p cat. */
const char *toString(OpCategory cat);

} // namespace cvliw

#endif // CVLIW_MACHINE_OP_CLASS_HH
