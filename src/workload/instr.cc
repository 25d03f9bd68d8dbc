#include "workload/instr.hh"

namespace mcd::workload
{

Domain
execDomain(InstrClass c)
{
    switch (c) {
      case InstrClass::IntAlu:
      case InstrClass::IntMul:
      case InstrClass::IntDiv:
      case InstrClass::Branch:
        return Domain::Integer;
      case InstrClass::FpAdd:
      case InstrClass::FpMul:
      case InstrClass::FpDiv:
      case InstrClass::FpSqrt:
        return Domain::FloatingPoint;
      case InstrClass::Load:
      case InstrClass::Store:
        return Domain::Memory;
      default:
        return Domain::Integer;
    }
}

bool
producesValue(InstrClass c)
{
    switch (c) {
      case InstrClass::Store:
      case InstrClass::Branch:
        return false;
      default:
        return true;
    }
}

} // namespace mcd::workload
